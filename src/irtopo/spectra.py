"""Prime spectra as finite spaces.

The points are prime ideals ordered by inclusion; closed sets are the
inclusion-up-sets V(I) = {P : I <= P}, so reach(P, Q) holds exactly
when P <= Q and the maximal ideals are the closed points.  Two
presentations are supported: the spectrum of Z/n (one discrete point
per distinct prime divisor of n, all maximal) and an arbitrary finite
poset of labelled primes, which exercises the non-discrete structure
(generic points under several maximals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .category import CoverReport, ir_cat
from .core import FiniteSpace, IrtopoError, SearchBudgetExceeded, iter_points

FACTOR_CAP = 10**12


class InvalidModulus(IrtopoError):
    pass


class NotAPartialOrder(IrtopoError):
    pass


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by deterministic trial division up to sqrt(n)."""
    if n < 2:
        raise InvalidModulus(f"modulus must be at least 2, got {n}")
    if n > FACTOR_CAP:
        raise SearchBudgetExceeded(f"factorization capped at {FACTOR_CAP}")
    out = []
    m = n
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    if e:
        out.append((2, e))
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 2
    if m > 1:
        out.append((m, 1))
    return out


@dataclass(frozen=True)
class SpecSpace:
    """A spectrum: the underlying space plus the set of maximal ideals."""

    space: FiniteSpace
    maximal: int


def spec_zn(n: int) -> SpecSpace:
    """Spectrum of the integers mod n: one point per distinct prime divisor.

    All primes of a finite quotient ring are maximal, so the space is
    discrete and every point is a closed point.  The result depends
    only on the radical of n.
    """
    primes = [p for p, _ in factorize(n)]
    labels = tuple(f"({p})" for p in primes)
    rows = tuple(1 << i for i in range(len(primes)))
    space = FiniteSpace(labels, rows)
    return SpecSpace(space, space.full_mask)


def spec_from_poset(labels: Iterable[str], leq: Iterable[tuple[int, int]]) -> SpecSpace:
    """Spectrum presented by a poset of prime ideals under inclusion.

    ``leq`` lists the non-reflexive pairs (i, j) with prime i contained
    in prime j, and must already be transitive and antisymmetric
    (NotAPartialOrder otherwise; the relation is not silently closed).
    Opens are the down-sets; maximal ideals are the closed points.
    """
    labels = tuple(labels)
    n = len(labels)
    rows = [1 << i for i in range(n)]
    for i, j in leq:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i}, {j}) mentions points outside the poset")
        rows[i] |= 1 << j
    for x in range(n):
        for y in iter_points(rows[x]):
            if x != y and rows[y] >> x & 1:
                raise NotAPartialOrder(
                    f"not antisymmetric: {labels[x]!r} <= {labels[y]!r} <= {labels[x]!r}"
                )
            extra = rows[y] & ~rows[x]
            if extra:
                z = next(iter_points(extra))
                raise NotAPartialOrder(
                    f"not transitive: {labels[x]!r} <= {labels[y]!r} <= {labels[z]!r} "
                    f"but ({x}, {z}) is not listed"
                )
    space = FiniteSpace(labels, tuple(rows))
    maximal = 0
    for i, row in enumerate(space.reach_rows):
        if row == 1 << i:
            maximal |= 1 << i
    return SpecSpace(space, maximal)


def check_theorem8(spec: SpecSpace) -> tuple[bool, CoverReport]:
    """Covering category of a spectrum equals its number of maximal ideals.

    Returns the verdict together with the optimal cover found; the
    expected optimal covers are the complements of "all other maximal
    ideals", one per maximal ideal.
    """
    rep = ir_cat(spec.space)
    return rep.size == spec.maximal.bit_count(), rep
