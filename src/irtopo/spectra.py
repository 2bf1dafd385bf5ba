"""Prime spectra as finite spaces.

The points are prime ideals ordered by inclusion; closed sets are the
inclusion-up-sets V(I) = {P : I <= P}, so reach(P, Q) holds exactly
when P <= Q and the maximal ideals are the closed points.  A spectrum
is returned as a plain FiniteSpace, and its maximal ideals are its
``closed_points()``.  Two presentations are supported: the spectrum of
Z/n (one discrete point per distinct prime divisor of n, all maximal)
and an arbitrary finite poset of labelled primes, which exercises the
non-discrete structure (generic points under several maximals).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .category import CoverReport, ir_cat
from .core import FiniteSpace, IrtopoError, ReachNotPreorder, SearchBudgetExceeded, from_pairs

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


def spec_zn(n: int) -> FiniteSpace:
    """Spectrum of the integers mod n: one point per distinct prime divisor.

    All primes of a finite quotient ring are maximal, so the space is
    discrete and every point is a closed point.  The result depends
    only on the radical of n.
    """
    primes = [p for p, _ in factorize(n)]
    labels = tuple(f"({p})" for p in primes)
    return FiniteSpace(labels, tuple(1 << i for i in range(len(primes))))


def spec_from_poset(labels: Iterable[str], leq: Iterable[tuple[int, int]]) -> FiniteSpace:
    """Spectrum presented by a poset of prime ideals under inclusion.

    ``leq`` lists the non-reflexive pairs (i, j) with prime i contained
    in prime j, and must already be transitive and antisymmetric
    (NotAPartialOrder otherwise; the relation is not silently closed).
    Opens are the down-sets; maximal ideals are the closed points.
    """
    try:
        space = from_pairs(labels, leq)
    except ReachNotPreorder as e:
        raise NotAPartialOrder(str(e)) from e
    labels, rows = space.labels, space.reach_rows
    if not space.is_t0():
        x, y = next((x, y) for x, y in combinations(range(space.n), 2) if rows[x] == rows[y])
        raise NotAPartialOrder(
            f"not antisymmetric: {labels[x]!r} <= {labels[y]!r} <= {labels[x]!r}"
        )
    return space


def check_theorem8(space: FiniteSpace) -> tuple[bool, CoverReport]:
    """Covering category of a spectrum equals its number of maximal ideals.

    Returns the verdict together with the optimal cover found: the
    minimal neighbourhoods U_m (the down-sets) of the maximal ideals m,
    one member per maximal ideal.
    """
    rep = ir_cat(space)
    return rep.size == space.closed_points().bit_count(), rep
