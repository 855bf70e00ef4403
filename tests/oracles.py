"""Reference implementations that more than one test module checks against.

Each one restates a fact the library relies on by a route of its own, so
a test can compare the library's answer with it; no library code calls
any of them.  Pytest puts this directory on the import path, so a test
module imports them with `from oracles import ...`.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from omnalg.algebra import (AlgebraParams, Element, Monomial, all_words,
                            push_exponent)
from omnalg.exact import QQi, in_localization
from omnalg.functions import PiecewiseFunction, _poly_compose_affine
from omnalg.representations import _letter_offset


# -- the refinement forest --------------------------------------------------


def parent(params: AlgebraParams, mon: Monomial) -> Optional[Monomial]:
    """The monomial of which `mon` is an `_expand` child; None for a root.

    The child of (mu, k, nu) for the letter d is (mu j, k', nu d) with
    t = (d - 1) + k = n k'/m + (j - 1), so (mu j, k', nu d) has exactly
    one parent, (mu, n k'/m + j - d, nu), when m divides k', and a
    monomial whose mu or nu is empty, or whose k' is not a multiple of m,
    is no child at all.
    """
    mu, k, nu = mon
    if not mu or not nu or k % params.m:
        return None
    return Monomial(mu[:-1], params.n * (k // params.m) + mu[-1] - nu[-1], nu[:-1])


def padded_refinement(x: Element, level: int) -> Element:
    """x with every term rewritten to |nu| = level by sum_d S_d S_d* = 1.

    Each term times every word of the missing length, summed at the end.
    """
    total: dict = {}
    for mon, c in x.items():
        for delta in all_words(x.params.n, level - len(mon.nu)):
            w, k2 = push_exponent(x.params, mon.k, delta)
            key = Monomial(mon.mu + w, k2, mon.nu + delta)
            total[key] = total.get(key, QQi()) + c
    return Element(x.params, total)  # drops the sums that cancelled


# -- the shift representation -----------------------------------------------


@dataclass(frozen=True)
class PartialAffineMap:
    """q -> scale*q + offset, defined where every condition lands in Z[1/m].

    Each condition (s, o) requires s*q + o to be a valid basis label;
    conditions record the intermediate labels produced while peeling the
    annihilation word of a monomial.
    """

    m: int
    scale: Fraction
    offset: Fraction
    conditions: Tuple[Tuple[Fraction, Fraction], ...] = ()

    def defined_at(self, q: Fraction) -> bool:
        if not in_localization(q, self.m):
            return False
        return all(in_localization(s * q + o, self.m) for s, o in self.conditions)

    def apply(self, q: Fraction) -> Optional[Fraction]:
        if not self.defined_at(q):
            return None
        return self.scale * q + self.offset


def monomial_affine_map(params: AlgebraParams, mon: Monomial,
                        variant: str = "A") -> PartialAffineMap:
    """The partial affine action of S_mu z^k S_nu* on basis labels.

    Right-to-left: invert one isometry per annihilation letter (adding a
    divisibility condition each time), translate by k, then apply the
    creation letters innermost-first.
    """
    if params.n < 2:
        raise ValueError("affine-map separation requires n >= 2")
    r = Fraction(params.n, params.m)
    scale, offset = Fraction(1), Fraction(0)
    conditions: List[Tuple[Fraction, Fraction]] = []
    for j in mon.nu:
        scale = scale / r
        offset = (offset - _letter_offset(j, variant)) / r
        conditions.append((scale, offset))
    offset += mon.k
    for j in reversed(mon.mu):
        scale = r * scale
        offset = r * offset + _letter_offset(j, variant)
    return PartialAffineMap(params.m, scale, offset, tuple(conditions))


# -- circle functions -------------------------------------------------------


def support_pieces(f: PiecewiseFunction) -> List[Tuple[Fraction, Fraction]]:
    """Intervals whose piece is not the zero polynomial."""
    return [(lo, hi) for (lo, hi), p in zip(f.piece_bounds(), f.pieces) if p]


def _pullback_half(f: PiecewiseFunction, shift: int) -> PiecewiseFunction:
    """t -> f((t + shift)/2) for shift in {0, 1}."""
    lo_dom = Fraction(shift, 2)
    hi_dom = Fraction(shift + 1, 2)
    bps: List[Fraction] = []
    pieces: List[tuple] = []
    for (lo, hi), piece in zip(f.piece_bounds(), f.pieces):
        lo, hi = max(lo, lo_dom), min(hi, hi_dom)
        if lo >= hi:
            continue
        bps.append(2 * lo - shift)
        pieces.append(_poly_compose_affine(piece, Fraction(1, 2), Fraction(shift, 2)))
    if not bps or bps[0] != 0:
        raise AssertionError("pullback lost the origin piece")
    return PiecewiseFunction(bps, pieces)


def transfer(f: PiecewiseFunction) -> PiecewiseFunction:
    """Averaging over the doubling map: t -> (f(t/2) + f((t+1)/2))/2."""
    return (_pullback_half(f, 0) + _pullback_half(f, 1)).scale(Fraction(1, 2))
