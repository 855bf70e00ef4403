"""Piecewise-polynomial functions on the circle [0, 1).

Each piece is a polynomial with rational coefficients.  The container
supports everything the exact projection verification needs: ring
operations on pairs of functions, scaling by a rational, dilation
t -> f(d*t mod 1), exact integration, winding numbers and an exact
search for a negative value.  Float evaluation on a
dyadic lattice is offered for the sampling cross-check in `projection`,
which needs square roots and phases that leave the class; floats never
enter the pieces.

Pieces are half-open intervals [b_i, b_{i+1}); values at a breakpoint
follow the left-closed convention.  Polynomials are kept in the global
t coordinate, so restricting a piece never changes its coefficients.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


# -- polynomial helpers (coefficients ascending) -------------------------


def _poly_trim(coeffs: tuple) -> tuple:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def _poly_add(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _poly_trim(tuple(out))


def _poly_mul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _poly_trim(tuple(out))


def _poly_eval(p: tuple, t):
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _poly_derivative(p: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(p))[1:]


def _poly_divmod(p: tuple, q: tuple) -> Tuple[tuple, tuple]:
    """Quotient and remainder of p by the non-zero q, exactly."""
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for shift in range(len(p) - len(q), -1, -1):
        c = Fraction(rem[shift + len(q) - 1]) / q[-1]
        quot[shift] = c
        for i, b in enumerate(q):
            rem[shift + i] -= c * b
    return _poly_trim(tuple(quot)), _poly_trim(tuple(rem[:len(q) - 1]))


def _poly_compose_affine(p: tuple, a, b) -> tuple:
    """Coefficients of p(a*t + b)."""
    acc: tuple = ()
    for c in reversed(p):
        acc = _poly_add(_poly_mul(acc, (b, a)), (c,))
    return acc


# -- the container --------------------------------------------------------


class PiecewiseFunction:
    """Function on [0,1) given by one piece per half-open interval."""

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence[Fraction], pieces: Sequence):
        bps = tuple(Fraction(b) for b in breakpoints)
        if not bps or bps[0] != 0:
            raise ValueError("breakpoints must start at 0")
        if any(not (0 <= b < 1) for b in bps):
            raise ValueError("breakpoints must lie in [0, 1)")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != len(bps):
            raise ValueError("need exactly one piece per breakpoint")
        norm = [_poly_trim(tuple(Fraction(c) for c in p)) for p in pieces]
        self._set_merged(bps, norm)

    @classmethod
    def _from_normal(cls, breakpoints: Sequence[Fraction],
                     pieces: Sequence[tuple]) -> "PiecewiseFunction":
        """Build from data that is normal but for merging, checking nothing.

        The breakpoints are Fractions from 0, strictly increasing in [0, 1),
        with one trimmed tuple of Fractions each: what the public
        constructor keeps as it is, apart from merging equal neighbours.
        """
        self = object.__new__(cls)
        self._set_merged(breakpoints, pieces)
        return self

    def _set_merged(self, bps: Sequence[Fraction], pieces: Sequence[tuple]) -> None:
        # merge adjacent identical pieces
        mb: List[Fraction] = []
        mp: List[tuple] = []
        for b, p in zip(bps, pieces):
            if mp and mp[-1] == p:
                continue
            mb.append(b)
            mp.append(p)
        object.__setattr__(self, "breakpoints", tuple(mb))
        object.__setattr__(self, "pieces", tuple(mp))

    def __setattr__(self, name, value):
        raise AttributeError("PiecewiseFunction is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "PiecewiseFunction":
        return cls((Fraction(0),), ((value,),))

    @classmethod
    def one(cls) -> "PiecewiseFunction":
        return cls.constant(1)

    @classmethod
    def indicator(cls, start, end) -> "PiecewiseFunction":
        """Characteristic function of [start, end)."""
        a, b = Fraction(start), Fraction(end)
        if not (0 <= a < b <= 1):
            raise ValueError("indicator needs 0 <= start < end <= 1")
        return cls.from_segments([(a, b, (1,))])

    @classmethod
    def from_segments(cls, segments) -> "PiecewiseFunction":
        """Build from (start, end, coeffs) triples; uncovered gaps are zero."""
        segs = sorted((Fraction(s), Fraction(e), tuple(p)) for s, e, p in segments)
        for (_, e1, _), (s2, _, _) in zip(segs, segs[1:]):
            if s2 < e1:
                raise ValueError(f"segments overlap at {s2}")
        bps: List[Fraction] = [Fraction(0)]
        pieces: List[tuple] = [()]
        for s, e, poly in segs:
            if not (0 <= s < e <= 1):
                raise ValueError("segment outside [0, 1]")
            if s == bps[-1]:
                pieces[-1] = poly
            else:
                bps.append(s)
                pieces.append(poly)
            if e < 1:
                bps.append(e)
                pieces.append(())
        return cls(bps, pieces)

    # -- basic views ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(not p for p in self.pieces)

    def piece_bounds(self) -> List[Tuple[Fraction, Fraction]]:
        ends = list(self.breakpoints[1:]) + [Fraction(1)]
        return list(zip(self.breakpoints, ends))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    __hash__ = None

    def __repr__(self) -> str:
        return f"PiecewiseFunction({len(self.pieces)} pieces)"

    # -- evaluation --------------------------------------------------------

    def _piece_at(self, t):
        idx = bisect_right(self.breakpoints, t) - 1
        return self.pieces[idx]

    def evaluate(self, t) -> Fraction:
        """Exact value at rational t."""
        t = Fraction(t) % 1
        return Fraction(_poly_eval(self._piece_at(t), t))

    def evaluate_lattice(self, size: int) -> List[float]:
        """The float value at k/size for every k < size, size a power of two.

        Each piece's coefficients are converted to floats and the piece is
        evaluated by Horner's rule.  The points k/size are exact floats.
        Piece [lo, hi) holds the k with ceil(lo*size) <= k < ceil(hi*size),
        found in exact arithmetic, so the sweep looks up no point by
        bisection and gives the floats a pointwise lookup would.
        A zero piece evaluates to 0.0 everywhere, so it is written as such.
        """
        if size < 1 or size & (size - 1):
            raise ValueError("lattice size must be a power of two")
        out: List[float] = []
        for (lo, hi), piece in zip(self.piece_bounds(), self.pieces):
            ks = range(math.ceil(lo * size), math.ceil(hi * size))
            if not piece:
                out += [0.0] * len(ks)
                continue
            coeffs = tuple(map(float, piece))
            out.extend(float(_poly_eval(coeffs, k / size)) for k in ks)
        return out

    # -- ring operations ----------------------------------------------------

    def _zip_with(self, other: "PiecewiseFunction", combine) -> "PiecewiseFunction":
        """Combine piece by piece over the union of both breakpoint tuples.

        Both tuples are sorted and start at 0, so one merging walk finds
        the union and the piece of each side in force at each point.
        """
        a_bps, a_pieces = self.breakpoints, self.pieces
        b_bps, b_pieces = other.breakpoints, other.pieces
        last_a, last_b = len(a_bps) - 1, len(b_bps) - 1
        i = j = 0
        bps = [a_bps[0]]
        pieces = [combine(a_pieces[0], b_pieces[0])]
        while i < last_a or j < last_b:
            if j == last_b or (i < last_a and a_bps[i + 1] < b_bps[j + 1]):
                i += 1
                bps.append(a_bps[i])
            elif i == last_a or b_bps[j + 1] < a_bps[i + 1]:
                j += 1
                bps.append(b_bps[j])
            else:
                i += 1
                j += 1
                bps.append(a_bps[i])
            pieces.append(combine(a_pieces[i], b_pieces[j]))
        return PiecewiseFunction._from_normal(bps, pieces)

    def __add__(self, other):
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self._zip_with(other, _poly_add)

    def __sub__(self, other):
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self._zip_with(other, _poly_mul)

    def scale(self, s) -> "PiecewiseFunction":
        if isinstance(s, (float, complex)):
            raise ValueError("cannot scale by a float: pieces stay exact")
        s = Fraction(s)
        pieces = [_poly_trim(tuple(c * s for c in p)) for p in self.pieces]
        return PiecewiseFunction._from_normal(self.breakpoints, pieces)


def dilate(f: PiecewiseFunction, d: int) -> PiecewiseFunction:
    """t -> f(d*t mod 1); each piece reappears d times, compressed by d."""
    if d < 1:
        raise ValueError("dilation factor must be >= 1")
    if d == 1:
        return f
    bps: List[Fraction] = []
    pieces: List[tuple] = []
    for j in range(d):
        for (lo, _hi), piece in zip(f.piece_bounds(), f.pieces):
            bps.append((lo + j) / d)
            pieces.append(_poly_compose_affine(piece, Fraction(d), Fraction(-j)))
    return PiecewiseFunction._from_normal(bps, pieces)


def integrate(f: PiecewiseFunction) -> Fraction:
    """Exact integral over [0, 1)."""
    total = Fraction(0)
    for (lo, hi), piece in zip(f.piece_bounds(), f.pieces):
        for i, c in enumerate(piece):
            total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return total


def winding(f: PiecewiseFunction) -> int:
    """Winding number of exp(2*pi*i*f) for piecewise-linear f.

    Every jump of f, including the wrap from t=1 back to t=0, must be an
    integer so the exponential closes up into a continuous loop.
    """
    if any(len(p) > 2 for p in f.pieces):
        raise ValueError("winding requires piecewise-linear data")
    bounds = f.piece_bounds()
    net = Fraction(0)
    for (lo, hi), piece in zip(bounds, f.pieces):
        net += _poly_eval(piece, hi) - _poly_eval(piece, lo)
    count = len(f.pieces)
    for i in range(count):
        b = bounds[i][1]
        end_val = _poly_eval(f.pieces[i], b)
        start_val = _poly_eval(f.pieces[(i + 1) % count], b % 1)
        jump = start_val - end_val
        if jump.denominator != 1:
            raise ValueError(f"curve discontinuous: jump of size {jump} "
                             f"at t = {b % 1} is not an integer")
    if net.denominator != 1:
        raise AssertionError("net change escaped the integers despite integer jumps")
    return int(net)


def _sturm_sequence(g: tuple) -> List[tuple]:
    """g, g', then the negated remainders, down to the last non-zero one."""
    seq = [g, _poly_derivative(g)]
    while seq[-1]:
        seq.append(tuple(-c for c in _poly_divmod(seq[-2], seq[-1])[1]))
    return seq[:-1]


def _sign_changes(seq: List[tuple], t: Fraction) -> int:
    signs = [v > 0 for v in (_poly_eval(q, t) for q in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _negative_point_on(p: tuple, lo: Fraction,
                       hi: Fraction) -> Optional[Fraction]:
    """A rational t in [lo, hi) with p(t) < 0, or None if p >= 0 there.

    Decided exactly by Sturm's theorem on the square-free part g of p,
    which has the distinct roots of p: for a < b, the number of them in
    (a, b] is V(a) - V(b), V the sign changes along the Sturm sequence
    of g (zeros skipped).  The Sturm sequence of p is Euclid's algorithm
    on p and p' up to signs, so it ends in gcd(p, p') up to a constant,
    and p is its own square-free part when that end is a constant.

    (lo, hi) is bisected, each midpoint tested, until every open part
    (a, b) is settled.  With no root in it, p has one sign there, that of
    the midpoint.  With one root r and p(a), p(b) > 0, p keeps the sign
    of p(a) on (a, r) and of p(b) on (r, b), so p >= 0.  Otherwise the
    part is split.  Roots are finitely many and lie apart, so each ends
    in a settled part; if p dips below zero somewhere, some midpoint
    lands in that open stretch.
    """
    if _poly_eval(p, lo) < 0:
        return lo
    g, seq = p, _sturm_sequence(p)
    if len(seq[-1]) > 1:
        g = _poly_divmod(p, seq[-1])[0]
        seq = _sturm_sequence(g)

    def roots_inside(a, b):
        return (_sign_changes(seq, a) - _sign_changes(seq, b)
                - (_poly_eval(g, b) == 0))

    parts = [(lo, hi)]
    while parts:
        a, b = parts.pop()
        mid = (a + b) / 2
        if _poly_eval(p, mid) < 0:
            return mid
        count = roots_inside(a, b)
        if count == 0 or (count == 1 and _poly_eval(p, a) > 0
                          and _poly_eval(p, b) > 0):
            continue
        parts += [(mid, b), (a, mid)]
    return None


def negative_point(f: PiecewiseFunction) -> Optional[Fraction]:
    """A rational t with f(t) < 0, or None when f >= 0 on all of [0, 1).

    Exact for pieces of any degree; see `_negative_point_on`.
    """
    for (lo, hi), piece in zip(f.piece_bounds(), f.pieces):
        if piece:
            t = _negative_point_on(piece, lo, hi)
            if t is not None:
                return t
    return None
