"""Piecewise polynomial functions on the circle: arithmetic, dilation, transfer."""

import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from omnalg.functions import (PiecewiseFunction, _poly_eval, dilate,
                              integrate, negative_point, winding)
from oracles import support_pieces, transfer

F = Fraction


def evaluate_float(f, t):
    """f at float t: the piece found by bisection, evaluated in floats."""
    t = float(t) % 1.0
    piece = f.pieces[bisect_right(f.breakpoints, t) - 1]
    return float(_poly_eval(tuple(map(float, piece)), t))


def sawtooth():
    # f(t) = t
    return PiecewiseFunction([F(0)], [(F(0), F(1))])


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        PiecewiseFunction([F(1, 4), F(1, 2)], [(F(1),), (F(2),)])  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseFunction([F(0), F(1, 2), F(1, 2)], [(F(1),), (F(2),), (F(3),)])
    with pytest.raises(ValueError):
        PiecewiseFunction([F(0), F(3, 2)], [(F(1),), (F(2),)])  # live in [0, 1)
    with pytest.raises(ValueError):
        PiecewiseFunction([F(0), F(1, 2)], [(F(1),)])  # one piece per breakpoint


def test_adjacent_equal_pieces_merge():
    f = PiecewiseFunction([F(0), F(1, 2)], [(F(5),), (F(5),)])
    assert f.breakpoints == (F(0),)
    assert f.pieces == ((F(5),),)


def test_evaluate_exact():
    f = sawtooth()
    assert f.evaluate(F(0)) == 0
    assert f.evaluate(F(3, 7)) == F(3, 7)
    assert f.evaluate(F(5, 4)) == F(1, 4)  # arguments reduce mod 1
    assert f.evaluate(F(-1, 4)) == F(3, 4)
    g = PiecewiseFunction.indicator(F(1, 4), F(1, 2))
    assert g.evaluate(F(1, 4)) == 1  # left-closed pieces
    assert g.evaluate(F(1, 2)) == 0
    assert g.evaluate(F(3, 8)) == 1
    assert support_pieces(g) == [(F(1, 4), F(1, 2))]


def test_from_segments_fills_gaps_with_zero():
    f = PiecewiseFunction.from_segments([(F(1, 2), F(3, 4), (F(2),))])
    assert f.evaluate(F(0)) == 0
    assert f.evaluate(F(5, 8)) == 2
    assert f.evaluate(F(7, 8)) == 0
    with pytest.raises(ValueError):
        PiecewiseFunction.from_segments([(F(0), F(1, 2), (F(1),)),
                                         (F(1, 4), F(3, 4), (F(1),))])


SAMPLE_TS = [F(k, 48) for k in range(48)] + [F(k, 7) for k in range(7)]


def random_function(rng):
    cuts = sorted({F(rng.randint(0, 11), 12) for _ in range(3)} | {F(0)})
    pieces = []
    for _ in cuts:
        deg = rng.randint(0, 2)
        pieces.append(tuple(F(rng.randint(-3, 3)) for _ in range(deg + 1)))
    return PiecewiseFunction(cuts, pieces)


def test_pointwise_arithmetic():
    rng = random.Random(31)
    for _ in range(25):
        f = random_function(rng)
        g = random_function(rng)
        s, p, d = f + g, f * g, f - g
        for t in SAMPLE_TS:
            assert s.evaluate(t) == f.evaluate(t) + g.evaluate(t)
            assert p.evaluate(t) == f.evaluate(t) * g.evaluate(t)
            assert d.evaluate(t) == f.evaluate(t) - g.evaluate(t)
        assert f.scale(F(3)).evaluate(F(1, 3)) == 3 * f.evaluate(F(1, 3))
        # the float path the projection sampler uses; piece midpoints, since
        # float rounding at a breakpoint may select the neighbouring piece
        for h in (f, s, p):
            for lo, hi in h.piece_bounds():
                t = (lo + hi) / 2
                assert abs(evaluate_float(h, t) - float(h.evaluate(t))) <= 1e-12
    with pytest.raises(ValueError):
        sawtooth().scale(0.5)  # floats stay out of the pieces
    # a number is not a function: `scale` is the one scalar entry
    for op in (lambda f: F(3) * f, lambda f: f * 3, lambda f: f + 1,
               lambda f: 1 - f, lambda f: f - F(1, 2), lambda f: -f):
        with pytest.raises(TypeError):
            op(sawtooth())


# -- ring operations against a bisecting reference --------------------------


def ref_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def ref_add(p, q):
    n = max(len(p), len(q))
    return ref_trim(tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                          for i in range(n)))


def ref_mul(p, q):
    out = [F(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ref_trim(out)


def ref_neg(p):
    return tuple(-c for c in p)


def ref_zip(f, g, combine):
    """Sorted union of the breakpoints, each piece found by bisection."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    pieces = [combine(f.pieces[bisect_right(f.breakpoints, b) - 1],
                      g.pieces[bisect_right(g.breakpoints, b) - 1]) for b in bps]
    return bps, pieces


def ref_merged(bps, pieces):
    """The (breakpoints, pieces) left after merging adjacent equal pieces."""
    out_b, out_p = [], []
    for b, p in zip(bps, pieces):
        if not out_p or out_p[-1] != p:
            out_b.append(b)
            out_p.append(p)
    return tuple(out_b), tuple(out_p)


def random_rational_function(rng):
    # breakpoints over mixed denominators, so the two sides of an operation
    # interleave, share points and differ; few coefficient values, so equal
    # neighbouring pieces, and results that merge, are common
    cuts = sorted({F(rng.randint(0, d - 1), d)
                   for d in rng.sample((2, 3, 4, 5, 8, 12), 3)} | {F(0)})
    cuts = cuts[:rng.randint(1, len(cuts))]
    pieces = [tuple(F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
                    for _ in range(rng.randint(0, 3))) for _ in cuts]
    return PiecewiseFunction(cuts, pieces)


def assert_normal(h):
    """h is what the validating constructor makes of its own data."""
    assert PiecewiseFunction(h.breakpoints, h.pieces) == h
    assert all(type(b) is Fraction for b in h.breakpoints)
    assert all(type(c) is Fraction for p in h.pieces for c in p)
    assert all(p == ref_trim(p) for p in h.pieces)
    assert all(p != q for p, q in zip(h.pieces, h.pieces[1:]))


def test_ring_operations_match_a_bisecting_reference():
    rng = random.Random(13)
    for _ in range(300):
        f = random_rational_function(rng)
        g = rng.choice((f, random_rational_function(rng)))
        for got, combine in ((f + g, ref_add),
                             (f - g, lambda p, q: ref_add(p, ref_neg(q))),
                             (f * g, ref_mul)):
            want = ref_merged(*ref_zip(f, g, combine))
            assert (got.breakpoints, got.pieces) == want
            assert_normal(got)
        for s in (0, -1, F(2, 3)):
            assert_normal(f.scale(s))
        for d in (2, 3):
            assert_normal(dilate(f, d))
    assert (f - f).pieces == ((),)


def factored(scale, roots):
    """Coefficients of scale * prod (t - r)^e over the (r, e) pairs."""
    p = (scale,)
    for r, e in roots:
        for _ in range(e):
            p = tuple(a - r * b for a, b in zip((F(0),) + p, p + (F(0),)))
    return p


def test_negative_point_matches_the_factored_signs():
    # each piece is c * prod (t - r)^e with known rational roots, so the
    # sign on every stretch between them is that of its midpoint: the
    # reference needs no root finding
    rng = random.Random(29)
    negative = 0
    for _ in range(300):
        cuts = sorted({F(0)} | {F(rng.randint(1, 15), 16)
                                for _ in range(rng.randint(0, 2))})
        ends = cuts[1:] + [F(1)]
        pieces, want = [], False
        for lo, hi in zip(cuts, ends):
            roots = [(F(rng.randint(-2, 34), 32) + F(rng.randint(0, 1), 97),
                      rng.choice((1, 2, 2, 3)))
                     for _ in range(rng.randint(0, 3))]
            scale = F(rng.choice((-1, 1, 1, 1)), rng.randint(1, 4))
            piece = factored(scale, roots)
            pieces.append(piece)
            marks = sorted({lo, hi} | {r for r, _ in roots if lo < r < hi})
            probes = [lo] + [(a + b) / 2 for a, b in zip(marks, marks[1:])]
            want = want or any(sum(c * t ** i for i, c in enumerate(piece)) < 0
                               for t in probes)
        f = PiecewiseFunction(cuts, pieces)
        t = negative_point(f)
        assert (t is not None) is want, (cuts, pieces)
        if want:
            negative += 1
            assert 0 <= t < 1 and f.evaluate(t) < 0
    assert 60 < negative < 240


def test_negative_point_finds_dips_of_any_degree():
    one = PiecewiseFunction.one()
    for degree in (2, 4, 6, 8):
        roots = [(F(j + 1, degree + 2), 2) for j in range(degree // 2)]
        square = PiecewiseFunction([F(0)], [factored(F(1), roots)])
        assert negative_point(square) is None
        dipped = square - one.scale(F(1, 10 ** 15))
        t = negative_point(dipped)
        assert t is not None and dipped.evaluate(t) < 0
    assert negative_point(PiecewiseFunction.constant(0)) is None
    # a linear piece below zero only next to its right end
    f = PiecewiseFunction.from_segments([(F(0), F(1, 2), (F(1), F(-3)))])
    t = negative_point(f)
    assert F(1, 3) < t < F(1, 2) and f.evaluate(t) < 0


def test_evaluate_lattice_matches_pointwise():
    # cuts at twelfths fall between lattice points, cuts at sixteenths on
    # them: the sweep must follow the left-closed convention exactly
    rng = random.Random(41)
    for denominator in (12, 16):
        for _ in range(20):
            cuts = sorted({F(rng.randint(0, denominator - 1), denominator)
                           for _ in range(4)} | {F(0)})
            f = PiecewiseFunction(cuts, [tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                                               for _ in range(rng.randint(0, 3)))
                                         for _ in cuts])
            for size in (1, 2, 8, 64, 256):
                values = f.evaluate_lattice(size)
                assert values == [evaluate_float(f, k / size) for k in range(size)]
                for k, v in enumerate(values):
                    assert abs(v - float(f.evaluate(F(k, size)))) <= 1e-12
    for size in (0, 3, 12):
        with pytest.raises(ValueError):
            sawtooth().evaluate_lattice(size)


def test_dilate_samples():
    rng = random.Random(37)
    for _ in range(25):
        f = random_function(rng)
        for d in (2, 3):
            g = dilate(f, d)
            for t in SAMPLE_TS:
                assert g.evaluate(t) == f.evaluate((d * t) % 1)
    with pytest.raises(ValueError):
        dilate(sawtooth(), 0)


def test_transfer_definition_and_properties():
    rng = random.Random(41)
    for _ in range(25):
        f = random_function(rng)
        tf = transfer(f)
        for t in SAMPLE_TS:
            assert tf.evaluate(t) == F(1, 2) * (f.evaluate(t / 2)
                                                + f.evaluate((t + 1) / 2))
        assert integrate(tf) == integrate(f)
        # transfer is a left inverse of dilation by 2
        assert (transfer(dilate(f, 2)) - f).is_zero


def test_integrate_examples():
    assert integrate(sawtooth()) == F(1, 2)
    assert integrate(PiecewiseFunction.indicator(F(1, 4), F(5, 8))) == F(3, 8)
    assert integrate(PiecewiseFunction.constant(0)) == 0
    assert integrate(PiecewiseFunction([F(0)], [(F(0), F(0), F(1))])) == F(1, 3)


def test_winding_examples():
    assert winding(sawtooth()) == 1
    assert winding(PiecewiseFunction.constant(F(7))) == 0
    two = PiecewiseFunction([F(0), F(1, 2)], [(F(0), F(2)), (F(-1), F(2))])
    assert winding(two) == 2
    rev = PiecewiseFunction([F(0)], [(F(0), F(-2))])
    assert winding(rev) == -2


def test_winding_rejects_bad_curves():
    # non-integer jump at 1/2 means the exponential loop is not closed
    broken = PiecewiseFunction([F(0), F(1, 2)], [(F(0), F(1)), ()])
    with pytest.raises(ValueError, match="discontinuous"):
        winding(broken)
    quad = PiecewiseFunction([F(0)], [(F(0), F(0), F(1))])
    with pytest.raises(ValueError, match="linear"):
        winding(quad)


def test_is_zero_and_partition():
    halves = (PiecewiseFunction.indicator(F(0), F(1, 2))
              + PiecewiseFunction.indicator(F(1, 2), F(1)))
    assert (halves - PiecewiseFunction.one()).is_zero
    assert not (halves - PiecewiseFunction.constant(F(4, 5))).is_zero

