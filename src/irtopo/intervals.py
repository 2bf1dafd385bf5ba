"""Exact interval, chain and grid models with one-way (left-ray) topology.

The continuous carrier here is the unit interval whose opens are the
initial segments [0, b) together with the whole interval; its finite
analogues are chain spaces.  Grid subspaces sit in the one-way n-space
over all rationals, so their coordinates are not confined to [0, 1].
All arithmetic is exact over ``fractions.Fraction`` -- floats are
rejected, since the predicates in this module are discontinuous in
their inputs.  ``d_ir`` and ``ball`` compare and add through the
numerators and denominators (cross-multiplication) rather than the
``Fraction`` operators, and return normalized Fractions.

The statements about these models -- compactness through a greatest
element, the core of a grid -- are checked in ``verifier`` (claims T1,
T10, C1), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import EmptySpace, FiniteSpace, IrtopoError, clip_repr, mask_of, require_int


class OutOfRange(IrtopoError):
    """Argument outside the unit interval, or a non-positive radius."""


class ArityMismatch(IrtopoError):
    pass


def as_fraction(v) -> Fraction:
    if type(v) is Fraction:  # immutable, so no copy is needed
        return v
    if isinstance(v, (bool, float)):  # JSON true/false would read as 1 and 0
        raise TypeError(
            f"{type(v).__name__}s are not accepted; pass a Fraction or a 'p/q' string"
        )
    # Fraction expands "1e-N" to 10**N, in time growing faster than N
    if isinstance(v, str) and ("e" in v or "E" in v):
        raise ValueError(f"exponent notation in {clip_repr(v)}; pass an integer or 'p/q'")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {clip_repr(v)}") from None
    except ValueError as e:  # Fraction's own message quotes the whole string
        raise ValueError(str(e).replace(repr(v), clip_repr(v))) from None


def format_fraction(f: Fraction) -> str:
    """Canonical 'p/q' form (always with an explicit denominator)."""
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _unit(v, name: str) -> Fraction:
    f = as_fraction(v)
    # a Fraction's denominator is always positive
    if not 0 <= f.numerator <= f.denominator:
        raise OutOfRange(f"{name} must lie in [0, 1], got {f}")
    return f


def d_ir(x, y) -> Fraction:
    """Asymmetric distance max(y - x, 0) on the unit interval.

    A quasi-metric: d(x, x) = 0, the triangle inequality holds, and
    d(x, y) = d(y, x) = 0 forces x = y; unlike a metric it is not
    symmetric.
    """
    x = _unit(x, "x")
    y = _unit(y, "y")
    # y - x over the common denominator; Fraction(n, d) normalizes
    diff = y.numerator * x.denominator - x.numerator * y.denominator
    return Fraction(diff, x.denominator * y.denominator) if diff > 0 else _ZERO


@dataclass(frozen=True)
class Ball:
    """Open ball of d_ir: the initial segment [0, x + eps), clipped at 1."""

    hi: Fraction
    whole_space: bool

    def __str__(self) -> str:
        if self.whole_space:
            return "[0/1, 1/1]"
        return f"[0/1, {format_fraction(self.hi)})"


def ball(x, eps) -> Ball:
    x = _unit(x, "x")
    eps = as_fraction(eps)
    if eps.numerator <= 0:
        raise OutOfRange("radius must be positive")
    # x + eps as num / den, compared with 1 before any normalization
    den = x.denominator * eps.denominator
    num = x.numerator * eps.denominator + eps.numerator * x.denominator
    if num > den:
        return Ball(_ONE, whole_space=True)
    return Ball(Fraction(num, den), whole_space=False)


def chain_space(k: int) -> FiniteSpace:
    """The k-point chain: reach(i, j) iff i <= j, opens the initial segments.

    chain_space(2) is the two-point space whose only nontrivial open is
    the bottom point; chains are the finite models of the one-way unit
    interval.  A k that is not an int raises TypeError.
    """
    require_int("k", k)
    if k < 1:
        raise ValueError("a chain needs at least one point")
    full = (1 << k) - 1
    rows = tuple(full & ~((1 << i) - 1) for i in range(k))
    return FiniteSpace(tuple(str(i) for i in range(k)), rows)


def grid_subspace(points: Iterable[Sequence]) -> FiniteSpace:
    """Finite subspace of the n-dimensional one-way space.

    reach(p, q) holds when p <= q in every coordinate: the closure of
    {p} upstairs is the product of the up-rays [p_i, oo), so the induced
    reach is the componentwise order.  The ambient space is the one-way
    n-space over all rationals, so any exact coordinate is accepted,
    negative or above 1; only ``d_ir`` and ``ball`` work on [0, 1].
    """
    pts = [tuple(as_fraction(c) for c in p) for p in points]
    if not pts:
        raise EmptySpace("a grid subspace needs at least one point")
    arity = len(pts[0])
    for p in pts:
        if len(p) != arity:
            raise ArityMismatch(f"expected {arity} coordinates, got {len(p)}")
    if len(set(pts)) != len(pts):
        raise ValueError("grid points must be distinct")
    labels = tuple(
        "(" + ",".join(format_fraction(c) for c in p) + ")" for p in pts
    )
    rows = []
    for p in pts:
        rows.append(
            mask_of(
                j
                for j, q in enumerate(pts)
                if all(pc <= qc for pc, qc in zip(p, q))
            )
        )
    return FiniteSpace(labels, tuple(rows))
