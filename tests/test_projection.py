"""The distinguished projection over (1, 2): exact identities and sampling."""

import cmath
import gc
import importlib
import math
import random
import sys
import weakref
from dataclasses import fields
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest

from omnalg.functions import PiecewiseFunction, dilate
from omnalg import projection
from omnalg.projection import (FuncElement, ProjectionData, _Fn,
                               _first_nonzero_point, _sample,
                               assemble_and_square, build_canonical_data,
                               check_conditions, k0_class,
                               kms_trace, sample_element, verify)
from oracles import support_pieces, transfer

F = Fraction

IDENTITY_NAMES = {
    "a_split", "b_split", "a_unit_on_support", "b_unit_on_support",
    "a_shift_orth_a", "a_shift_orth_b", "b_shift_orth_a", "b_shift_orth_b",
    "cross_disjoint", "a_partition", "b_partition",
    "a_sq_nonneg", "b_sq_nonneg",
}


def test_a_reimported_copy_is_freed():
    # a module-level Union of omnalg classes sits in typing's cache and
    # would keep every re-imported copy of the package alive
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "omnalg" or name.startswith("omnalg.")}
    try:
        for name in saved:
            del sys.modules[name]
        fresh = importlib.import_module("omnalg.projection")
        gone = [weakref.ref(cls) for cls in (fresh._Fn, fresh.FuncElement,
                                             fresh.PiecewiseFunction)]
        del fresh
    finally:
        for name in [n for n in sys.modules
                     if n == "omnalg" or n.startswith("omnalg.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [ref() for ref in gone] == [None, None, None]


def test_canonical_data_is_built_once():
    shared = build_canonical_data()
    assert shared is build_canonical_data()
    fresh = build_canonical_data.__wrapped__()
    for field in fields(ProjectionData):
        assert getattr(fresh, field.name) == getattr(shared, field.name), field.name


def test_canonical_data_spot_values():
    d = build_canonical_data()
    assert d.a0.evaluate(F(1, 2)) == 0
    assert d.a0.evaluate(F(9, 16)) == F(1, 4)
    assert d.a0.evaluate(F(3, 4)) == 1
    assert d.a0.evaluate(F(7, 8)) == 0
    assert d.b0.evaluate(F(0)) == 1
    assert d.b0.evaluate(F(5, 16)) == F(1, 2)
    assert d.b0.evaluate(F(3, 8)) == 0
    assert d.b0.evaluate(F(7, 8)) == 1
    assert support_pieces(d.delta1) == [(F(3, 4), F(7, 8))]
    assert support_pieces(d.delta2) == [(F(1, 4), F(3, 8))]
    # the off-diagonal squares live inside their bump windows
    for lo, hi in support_pieces(d.a1sq):
        assert F(3, 4) <= lo < hi <= F(7, 8)
    for lo, hi in support_pieces(d.b1sq):
        assert F(1, 4) <= lo < hi <= F(3, 8)


def test_check_conditions_passes():
    report = check_conditions(build_canonical_data())
    assert report["pass"]
    assert set(report["identities"]) == IDENTITY_NAMES
    for entry in report["identities"].values():
        assert entry["pass"] and entry["first_failure"] is None


def test_check_conditions_detects_broken_bump():
    d = build_canonical_data()
    bad_a0 = d.a0 + PiecewiseFunction.indicator(F(0), F(1, 8)).scale(F(1, 4))
    report = check_conditions(ProjectionData(bad_a0, d.b0, d.a1sq, d.b1sq,
                                             d.delta1, d.delta2))
    assert not report["pass"]
    split = report["identities"]["a_split"]
    assert not split["pass"]
    assert split["first_failure"] is not None
    # the perturbation sits away from the bump window, so the window
    # identities still hold
    assert report["identities"]["a_unit_on_support"]["pass"]
    assert report["identities"]["a_partition"]["pass"]


def vanishing_at(points):
    """The polynomial prod (t - p) over points, on all of [0, 1)."""
    f = PiecewiseFunction.one()
    for p in points:
        f = f * PiecewiseFunction([F(0)], [(-p, F(1))])
    return f


def test_nonzero_point_of_a_piece_vanishing_at_eight_probes():
    f = vanishing_at([F(j, 8) for j in range(8)])
    assert not f.is_zero
    point = _first_nonzero_point(f)
    assert f.evaluate(point) != 0


def test_check_conditions_detects_a_degree_eight_failure():
    # a0 changed on [3/4, 7/8) by a polynomial vanishing at 3/4 + j/64,
    # j < 8: a_partition's difference is that polynomial there and zero
    # elsewhere, so it passes any test that looks at those 8 points only
    d = build_canonical_data()
    bump = vanishing_at([F(3, 4) + F(j, 64) for j in range(8)])
    bad_a0 = d.a0 + bump * d.delta1
    report = check_conditions(ProjectionData(bad_a0, d.b0, d.a1sq, d.b1sq,
                                             d.delta1, d.delta2))
    entry = report["identities"]["a_partition"]
    assert not entry["pass"]
    assert bump.evaluate(F(entry["first_failure"])) != 0


def test_check_conditions_detects_negative_square():
    d = build_canonical_data()
    bad = d.a1sq - PiecewiseFunction.indicator(F(0), F(1, 8)).scale(F(1, 2))
    report = check_conditions(ProjectionData(d.a0, d.b0, bad, d.b1sq,
                                             d.delta1, d.delta2))
    entry = report["identities"]["a_sq_nonneg"]
    assert not entry["pass"]
    assert entry["first_failure"] is not None


def dipping(roots, depth, delta):
    """(prod (t - r)^2 - depth) on the support of delta."""
    return (vanishing_at(roots) * vanishing_at(roots)
            - PiecewiseFunction.constant(depth)) * delta


def test_check_conditions_detects_a_dip_between_the_old_probes():
    # positive at 3/4, at the midpoint 13/16 and at the interior ends, but
    # -10^-9 at 25/32 and 27/32: degree 4 on [3/4, 7/8)
    d = build_canonical_data()
    dip = dipping([F(25, 32), F(27, 32)], F(1, 10 ** 9), d.delta1)
    assert dip.evaluate(F(13, 16)) > 0 and dip.evaluate(F(3, 4)) > 0
    report = check_conditions(ProjectionData(d.a0, d.b0, dip, d.b1sq,
                                             d.delta1, d.delta2))
    entry = report["identities"]["a_sq_nonneg"]
    assert not entry["pass"] and not report["pass"]
    t = F(entry["first_failure"])
    assert F(3, 4) <= t < F(7, 8) and dip.evaluate(t) < 0
    assert report["identities"]["b_sq_nonneg"]["pass"]


def test_check_conditions_decides_a_degree_six_piece():
    d = build_canonical_data()
    roots = [F(49, 64), F(51, 64), F(53, 64)]
    # touching zero three times from above: nonnegative
    touching = dipping(roots, F(0), d.delta1)
    report = check_conditions(ProjectionData(d.a0, d.b0, touching, d.b1sq,
                                             d.delta1, d.delta2))
    assert max(len(p) for p in touching.pieces) == 7
    assert report["identities"]["a_sq_nonneg"] == {"pass": True,
                                                    "first_failure": None}
    # lowered by 10^-12, below the square of the smallest gap product at
    # the midpoint 13/16, so only the stretches round the roots dip
    dip = dipping(roots, F(1, 10 ** 12), d.delta1)
    assert dip.evaluate(F(13, 16)) > 0
    report = check_conditions(ProjectionData(d.a0, d.b0, dip, d.b1sq,
                                             d.delta1, d.delta2))
    entry = report["identities"]["a_sq_nonneg"]
    assert not entry["pass"] and dip.evaluate(F(entry["first_failure"])) < 0


def test_trace_value():
    assert kms_trace(build_canonical_data()) == F(7, 16)


def test_k0_class_value():
    assert k0_class(build_canonical_data()) == -4


def test_sampler_sees_the_relations():
    # S_1* S_1 = 1 and S_1 S_1* + S_2 S_2* = 1 cancel exactly on the grid
    c1 = _Fn.const(1)
    one = FuncElement.function(c1)
    s1_star_s1 = (FuncElement.sandwich((), c1, (1,))
                  * FuncElement.sandwich((1,), c1, ()))
    assert sample_element(s1_star_s1 - one, 64) == 0.0
    ranges = (FuncElement.sandwich((1,), c1, ()) * FuncElement.sandwich((), c1, (1,))
              + FuncElement.sandwich((2,), c1, ()) * FuncElement.sandwich((), c1, (2,)))
    # the letter-2 phases cancel to rounding, not bit-exactly
    assert sample_element(ranges - one, 64) < 1e-12
    assert sample_element(FuncElement.sandwich((2,), c1, ()), 64) > 0.4


def test_assemble_and_square_canonical():
    report = assemble_and_square(build_canonical_data(), grid=256)
    assert report["pass"]
    assert report["residual"] < 1e-9
    assert report["grid_stable"]
    assert report["self_adjoint_defect"] == 0.0
    full = verify(build_canonical_data(), grid=256)
    assert full["pass"] and full["square"] == report
    assert (full["trace"], full["k0_class"]) == ("7/16", -4)


def flat_control() -> ProjectionData:
    # constant 1/2 satisfies none of the projection identities
    d = build_canonical_data()
    flat = PiecewiseFunction.constant(F(1, 2))
    a1sq = (dilate(flat, 2) - dilate(flat * flat, 2)) * d.delta1
    b1sq = (dilate(d.b0, 2) - dilate(d.b0 * d.b0, 2)) * d.delta2
    return ProjectionData(flat, d.b0, a1sq, b1sq, d.delta1, d.delta2)


def test_assemble_and_square_rejects_flat_control():
    # the sampled residual stays bounded away from zero
    report = assemble_and_square(flat_control(), grid=256)
    assert not report["pass"]
    assert report["residual"] > 0.2


def test_verify_fails_flat_control_without_raising():
    # its boundary curve jumps by 1/2, so it has no winding number
    report = verify(flat_control(), grid=16)
    assert report["pass"] is False and report["k0_class"] is None
    assert not report["square"]["pass"]


def test_assemble_and_square_grid_validation():
    d = build_canonical_data()
    with pytest.raises(ValueError):
        assemble_and_square(d, grid=3)
    with pytest.raises(ValueError):
        assemble_and_square(d, grid=0)


def test_sample_element_grid_validation():
    # the sampled points k/grid are exact floats only for powers of two
    f = FuncElement.function(_Fn.from_exact(build_canonical_data().a0))
    for grid in (0, 3, 48):
        with pytest.raises(ValueError):
            sample_element(f, grid)


def test_sampler_contractions_match_exact_transfer():
    # S_mu* f S_mu = transfer^|mu|(f) for every word mu, whatever its
    # letters; the left side runs through |mu| nested contractions on
    # lattices up to 8 times the grid, the right side is computed exactly.
    # S_mu* (S_mu f) = f runs the same contractions over f dilated by 2^|mu|
    d = build_canonical_data()
    for f in (d.a0, d.b0, d.a1sq):
        expected = f
        for length in range(4):
            for mu in product((1, 2), repeat=length):
                c1, exact = _Fn.const(1), _Fn.from_exact(f)
                lhs = (FuncElement.sandwich((), c1, mu) * FuncElement.function(exact)
                       * FuncElement.sandwich(mu, c1, ()))
                want = FuncElement.function(_Fn.from_exact(expected))
                assert sample_element(lhs - want, 64) < 1e-12
                lhs = (FuncElement.sandwich((), c1, mu)
                       * FuncElement.sandwich(mu, exact, ()))
                assert sample_element(lhs - FuncElement.function(exact), 64) < 1e-12
            expected = transfer(expected)


def test_sampler_isometry_words_are_orthonormal():
    # S_mu* S_nu is 1 for mu = nu and 0 otherwise, for words of equal length
    c1 = _Fn.const(1)
    one = FuncElement.function(c1)
    for length in range(1, 4):
        words = list(product((1, 2), repeat=length))
        for mu in words:
            for nu in words:
                prod = FuncElement.sandwich((), c1, mu) * FuncElement.sandwich(nu, c1, ())
                diff = prod - one if mu == nu else prod
                assert sample_element(diff, 64) < 1e-12


def test_contraction_phase_sign_matches_pointwise_formula():
    # S_2 = z S_1 with z(s) = e^{2 pi i s}, so S_1* h S_2 = S_1* (h z) S_1 is
    # the transfer of h z: t -> 1/2 sum over 2s = t mod 1 of e^{2 pi i s} h(s).
    # The sup norms sample_element reports cannot see this sign; the table can
    d = build_canonical_data()
    size = 64
    for h in (d.a0, d.b0):
        # the contraction S_i* h S_j is the node ("contract", h, j - i)
        table = _sample(_Fn("contract", _Fn.from_exact(h), 1), size, {})
        for k in range(size):
            t = F(k, size)
            want = sum(cmath.exp(2j * cmath.pi * float(s)) * float(h.evaluate(s))
                       for s in (t / 2, (t + 1) / 2)) / 2
            assert abs(table[k] - want) < 1e-12, (k, table[k], want)


def test_verify_refuses_a_grid_past_its_limit_before_any_work(monkeypatch):
    def conditions_ran(data):
        raise AssertionError("check_conditions ran before the grid check")

    monkeypatch.setattr(projection, "check_conditions", conditions_ran)
    for grid in (2 * projection.GRID_LIMIT, 1 << 40):
        start = perf_counter()
        with pytest.raises(ValueError, match=f"grid {grid} .* {projection.GRID_LIMIT}"):
            verify(build_canonical_data(), grid=grid)
        assert perf_counter() - start < 1.0


# -- the sampler against the one it replaced ---------------------------------
#
# The reference below is the sampler as it stood before constant folding
# and sliced sweeps: node builders that fold nothing, a table for every
# node, constants included, and a list of indices for every bucket.  The
# folded sampler has to give the very same floats.


def ref_mul(self, other):
    return _Fn("mul", self, other)


def ref_conjugate(self):
    return _Fn("conj", self)


def ref_dilated(self, d):
    return self if d == 1 else _Fn("dilate", self, d)


def unfolded(monkeypatch):
    """Make the node builders fold nothing while the test runs."""
    monkeypatch.setattr(_Fn, "__mul__", ref_mul)
    monkeypatch.setattr(_Fn, "conjugate", ref_conjugate)
    monkeypatch.setattr(_Fn, "dilated", ref_dilated)


def ref_sample(fn, size, phases):
    kind, args = fn.kind, fn.args
    if kind == "const":
        return [args[0]] * size
    if kind == "exact" or kind == "sqrt":
        table = phases.get(fn)
        if table is not None and len(table) >= size:
            return table[::len(table) // size]
        values = args[0].evaluate_lattice(size)
        if kind == "sqrt":
            table = [complex(math.sqrt(max(v, 0.0))) for v in values]
        else:
            table = [complex(v) for v in values]
        phases[fn] = table
        return table
    if kind == "mul":
        f = ref_sample(args[0], size, phases)
        g = ref_sample(args[1], size, phases)
        return [x * y for x, y in zip(f, g)]
    if kind == "conj":
        return [z.conjugate() for z in ref_sample(args[0], size, phases)]
    if kind == "dilate":
        child, d = ref_sample(args[0], size, phases), args[1]
        return [child[(d * k) % size] for k in range(size)]
    h, d = args
    child = ref_sample(h, 2 * size, phases)
    phase = ref_phase_table(2j * cmath.pi * d, 2 * size, phases)
    return [0.5 * (phase[k] * child[k] + phase[k + size] * child[k + size])
            for k in range(size)]


def ref_phase_table(scale, size, phases):
    key = (scale, size)
    if key not in phases:
        phases[key] = ([complex(1.0)] * size if scale == 0 else
                       [cmath.exp(scale * (k / size)) for k in range(size)])
    return phases[key]


def ref_word_phase(word, size, phases):
    key = (word, size)
    if key not in phases:
        base = ref_phase_table(2j * cmath.pi, size, phases)
        table = [complex(1.0)] * size
        for l, letter in enumerate(word):
            if letter == 2:
                step = 2 ** l
                table = [acc * base[(step * k) % size]
                         for k, acc in enumerate(table)]
        phases[key] = table
    return phases[key]


def ref_add_term(buckets, term, grid, phases):
    pow_a, pow_b = 2 ** len(term.mu), 2 ** len(term.nu)
    size = grid * pow_b
    head = [f * p / pow_b for f, p in zip(ref_sample(term.left, grid, phases),
                                          ref_word_phase(term.mu, grid, phases))]
    nu_phase = [p.conjugate() for p in ref_word_phase(term.nu, size, phases)]
    right = ref_sample(term.right, size, phases)
    for j in range(pow_b):
        key = (Fraction(pow_a, pow_b), Fraction(j, pow_b) % 1)
        acc = buckets.setdefault(key, [0j] * grid)
        xs = [(pow_a * i + j * grid) % size for i in range(grid)]
        acc[:] = [s + h * nu_phase[x] * right[x]
                  for s, h, x in zip(acc, head, xs)]


def buckets_of(add_term, elem, grid):
    buckets, phases = {}, {}
    for term in elem.terms:
        add_term(buckets, term, grid, phases)
    return buckets


def ref_sample_element(elem, grid):
    buckets = buckets_of(ref_add_term, elem, grid)
    return max((abs(v) for acc in buckets.values() for v in acc), default=0.0)


def broad_leaves(d):
    """a0, b0, sqrt(b1sq) and the constants +-1, 0.5, 2j."""
    return (lambda: _Fn.from_exact(d.a0), lambda: _Fn.from_exact(d.b0),
            lambda: _Fn.sqrt_of(d.b1sq), lambda: _Fn.const(1),
            lambda: _Fn.const(-1), lambda: _Fn.const(0.5), lambda: _Fn.const(2j))


def narrow_leaves(d):
    """sqrt(a1sq), delta1 and a0 dilated by 2: each vanishes outside at
    most 3/8 of the circle, so most addends of a product are exact zeros."""
    return (lambda: _Fn.sqrt_of(d.a1sq), lambda: _Fn.from_exact(d.delta1),
            lambda: _Fn.from_exact(dilate(d.a0, 2)))


def random_element(seed, leaves=broad_leaves):
    """Sandwiches of the leaves combined by +, -, * and adjoint; the same
    element for the same seed."""
    leaves = leaves(build_canonical_data())
    rng = random.Random(seed)

    def word():
        return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 2)))

    def build(depth):
        if depth == 0 or rng.random() < 0.25:
            return FuncElement.sandwich(word(), rng.choice(leaves)(), word())
        op = rng.choice("+-*a")
        x = build(depth - 1)
        if op == "a":
            return x.adjoint()
        y = build(depth - 1)
        return x + y if op == "+" else x - y if op == "-" else x * y

    return build(3)


ORACLE_GRIDS = [2 ** k for k in range(8)]  # 1 .. 128


def reference_keyed(buckets):
    """The sampler's buckets under the reference's keys.

    The sampler keys the line x = (2^a t + j)/2^b by (2^a, 2^b, j) over
    their gcd, the reference by (2^a/2^b, j/2^b); two distinct keys of the
    sampler must name two distinct lines, or a bucket would be lost here.
    """
    keyed = {(Fraction(pow_a, pow_b), Fraction(j, pow_b) % 1): acc
             for (pow_a, pow_b, j), acc in buckets.items()}
    assert len(keyed) == len(buckets)
    return keyed


def assert_matches_the_reference(folded, plain, label):
    assert len(folded.terms) == len(plain.terms), label
    for grid in ORACLE_GRIDS:
        got, want = sample_element(folded, grid), ref_sample_element(plain, grid)
        assert got == want and repr(got) == repr(want), (label, grid)
        # every summed amplitude, not only the sup; == lets the sign of a
        # zero differ, as multiplying by 1+0j or skipping a zero addend may
        # flip it.  A term whose left table is zero throughout makes no
        # bucket, so a reference bucket the sampler lacks holds only zeros.
        mine = reference_keyed(buckets_of(projection._add_term, folded, grid))
        theirs = buckets_of(ref_add_term, plain, grid)
        assert all(theirs.get(key) == acc for key, acc in mine.items()), (label, grid)
        assert not any(any(acc) for key, acc in theirs.items() if key not in mine), \
            (label, grid)


def built_twice(monkeypatch, build):
    """build() as the sampler sees it, and with node builders folding nothing."""
    folded = build()
    with monkeypatch.context() as patch:
        unfolded(patch)
        plain = build()
    return folded, plain


def test_sample_element_matches_the_unfolded_reference(monkeypatch):
    folded, plain = built_twice(
        monkeypatch, lambda: [random_element(seed) for seed in range(100)])
    for seed, (elem, ref) in enumerate(zip(folded, plain)):
        assert_matches_the_reference(elem, ref, seed)


def cancelling_element():
    """t - t for each term t of a sum of products of entries of P, in turn.

    Each bucket is 0 before a term comes and t + (-t) = 0 exactly, so every
    bucket sums to zeros; x - x would not, as x's own terms share lines.
    """
    p = projection._matrix_of(build_canonical_data())
    x = p[0][0] * p[0][1] + p[1][0].adjoint() * p[1][1]
    out = FuncElement()
    for term in x.terms:
        out = out + (FuncElement((term,)) - FuncElement((term,)))
    return out


def test_sample_element_matches_the_unfolded_reference_on_narrow_supports(monkeypatch):
    def build():
        return ([random_element(seed, narrow_leaves) for seed in range(40)]
                + [cancelling_element()])

    folded, plain = built_twice(monkeypatch, build)
    for label, (elem, ref) in enumerate(zip(folded, plain)):
        assert_matches_the_reference(elem, ref, label)
    cancelled = folded[-1]
    for grid in ORACLE_GRIDS:
        assert sample_element(cancelled, grid) == 0.0
    assert sample_element(FuncElement(cancelled.terms[::2]), 64) > 0.1
    # most left tables vanish on part of the lattice, so most sums run over
    # runs that are neither empty nor the whole lattice, and some terms
    # have no run at all
    partial = empty = 0
    terms = [term for elem in folded for term in elem.terms]
    for term in terms:
        runs = projection._nonzero_runs(_sample(term.left, 64, {}))
        partial += runs not in ([], [(0, 64)])
        empty += runs == []
    assert partial > len(terms) / 2 and empty > 0


@pytest.mark.parametrize("grid", [8, 64, 256])
def test_assemble_and_square_matches_the_unfolded_reference(grid, monkeypatch):
    def recorded(log, sampler):
        def sample(*args, **kwargs):
            log.append((len(args), kwargs, len(args[0].terms), args[1]))
            return sampler(*args, **kwargs)
        return sample

    data = build_canonical_data()
    calls, ref_calls = [], []
    with monkeypatch.context() as patch:
        patch.setattr(projection, "sample_element",
                      recorded(calls, projection.sample_element))
        got = assemble_and_square(data, grid=grid)
    with monkeypatch.context() as patch:
        unfolded(patch)
        patch.setattr(projection, "sample_element",
                      recorded(ref_calls, ref_sample_element))
        want = assemble_and_square(data, grid=grid)
    assert got == want and repr(got) == repr(want)
    # 12 calls of the module's sampler, each (elem, grid) by position:
    # self-adjointness, then the residual at twice the grid, then at the grid
    assert calls == ref_calls
    assert [(nargs, kwargs, g) for nargs, kwargs, _, g in calls] == \
        [(2, {}, grid)] * 4 + [(2, {}, 2 * grid)] * 4 + [(2, {}, grid)] * 4


def test_assemble_and_square_shares_its_tables_for_one_call_only(monkeypatch):
    class Mark:
        """Put into the memo by the first sampling; freed with the memo."""

    data = build_canonical_data()
    marks, sizes = [], []

    def sample(elem, grid):
        memo = projection._SHARED_TABLES.get()
        marks.append(weakref.ref(memo.setdefault("mark", Mark())))
        assert marks[-1]() is marks[0](), "each sampling sees the first memo"
        result = sampler(elem, grid)
        sizes.append(len(memo))
        return result

    sampler = projection.sample_element
    assert projection._SHARED_TABLES.get() is None
    with monkeypatch.context() as patch:
        patch.setattr(projection, "sample_element", sample)
        first = assemble_and_square(data, grid=64)
    # one memo for the 12 samplings, freed when the call returns
    assert len(marks) == 12 and marks[0]() is None
    # the samplings keep their tables in it
    assert sizes[0] > 1 and sizes == sorted(sizes)
    assert projection._SHARED_TABLES.get() is None
    second = assemble_and_square(data, grid=64)
    assert first == second and repr(first) == repr(second)
    # a sampling that raises drops the memo too
    with pytest.raises(ValueError):
        assemble_and_square(data, grid=3)
    assert projection._SHARED_TABLES.get() is None


def counting_builds(patch):
    """Count evaluate_lattice sweeps per function and builds per memo key."""
    sweeps, builds = {}, {}
    evaluate_lattice, finest = PiecewiseFunction.evaluate_lattice, projection._finest

    def sweep(self, size):
        sweeps[id(self)] = sweeps.get(id(self), 0) + 1
        return evaluate_lattice(self, size)

    def counted(phases, key, size, build):
        def counted_build(size):
            builds[key] = builds.get(key, 0) + 1
            return build(size)
        return finest(phases, key, size, counted_build)

    patch.setattr(PiecewiseFunction, "evaluate_lattice", sweep)
    patch.setattr(projection, "_finest", counted)
    return sweeps, builds


def test_assemble_and_square_builds_each_table_once(monkeypatch):
    data = build_canonical_data()
    with monkeypatch.context() as patch:
        sweeps, builds = counting_builds(patch)
        report = assemble_and_square(data, grid=128)
    assert report["pass"]
    # the leaves sqrt(a1sq), sqrt(b1sq) and a0, b0 dilated by 2: one sweep each
    assert len(sweeps) == 4 and set(sweeps.values()) == {1}
    # through the one memo: the 4 leaves, 3 phase keys (d = -1, 0, 1) and
    # 7 word-phase keys, one per word, built once each
    assert len(builds) == 14 and set(builds.values()) == {1}
    assert sum(isinstance(key, _Fn) for key in builds) == 4
    # without the plan, tables are rebuilt whenever a finer one is read
    with monkeypatch.context() as patch:
        patch.setattr(projection, "_plan", lambda samplings, phases: None)
        sweeps, builds = counting_builds(patch)
        assert assemble_and_square(data, grid=128) == report
    assert sum(sweeps.values()) > 4 and max(builds.values()) > 1


def test_no_table_outlives_one_sampling(monkeypatch):
    # a user-built element sampled twice: the second call sweeps each of
    # its leaves again, since the first call's memo went with it
    d = build_canonical_data()
    elem = (FuncElement.sandwich((2,), _Fn.sqrt_of(d.a1sq), (1,))
            * FuncElement.sandwich((), _Fn.from_exact(d.b0), (2,)))
    with monkeypatch.context() as patch:
        sweeps, builds = counting_builds(patch)
        first = sample_element(elem, 64)
        once = dict(sweeps)
        second = sample_element(elem, 64)
    assert len(once) == 2 and set(once.values()) == {1}
    assert sweeps == {key: 2 for key in once}
    assert set(builds.values()) == {2}
    assert first.hex() == second.hex()


def hex_report(report):
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in report.items()}


def test_the_plan_decides_only_when_tables_are_built(monkeypatch):
    # every table read is a stride of the one the plan built, or the one
    # built at the size read: the very same floats
    data = build_canonical_data()
    elems = [random_element(seed, narrow_leaves) for seed in range(10)]
    elems.append(cancelling_element())
    grids = (1, 2, 8, 64, 256, 1024)
    planned = [hex_report(assemble_and_square(data, grid)) for grid in grids]
    planned_sups = [sample_element(elem, 64).hex() for elem in elems]
    with monkeypatch.context() as patch:
        patch.setattr(projection, "_plan", lambda samplings, phases: None)
        unplanned = [hex_report(assemble_and_square(data, grid)) for grid in grids]
        unplanned_sups = [sample_element(elem, 64).hex() for elem in elems]
    assert planned == unplanned
    assert planned_sups == unplanned_sups


def recording_plan(patch):
    """The (element, grid) pairs each `_plan` call is given, in order."""
    log, plan = [], projection._plan

    def recorded(samplings, phases):
        log.append(list(samplings))
        plan(samplings, phases)

    patch.setattr(projection, "_plan", recorded)
    return log


def test_one_sweep_gives_the_report_of_separate_samplings(monkeypatch):
    # the residual at the grid is read off the doubled-grid kernel; sampled
    # on its own, with a memo of its own, it gives the very same floats,
    # and so does sampling the 12 pairs in reverse order
    sampler = projection.sample_element

    def separately(elem, grid):
        token = projection._SHARED_TABLES.set(None)
        try:
            return sampler(elem, grid)
        finally:
            projection._SHARED_TABLES.reset(token)

    def plan_then_sample_reversed(samplings, phases):
        plan(samplings, phases)
        for elem, grid in reversed(samplings):
            sampler(elem, grid)

    def sups_and_report(data, grid, patch, inner=sampler):
        sups = []

        def recorded(elem, grid):
            sups.append(inner(elem, grid).hex())
            return float.fromhex(sups[-1])

        patch.setattr(projection, "sample_element", recorded)
        return sups, hex_report(assemble_and_square(data, grid))

    plan = projection._plan
    differ = 0
    for data in (build_canonical_data(), flat_control()):
        for grid in (1, 2, 8, 64, 256, 1024):
            with monkeypatch.context() as patch:
                once = sups_and_report(data, grid, patch)
            with monkeypatch.context() as patch:
                assert sups_and_report(data, grid, patch, separately) == once, grid
            with monkeypatch.context() as patch:
                patch.setattr(projection, "_plan", plan_then_sample_reversed)
                assert sups_and_report(data, grid, patch) == once, grid
            sups = once[0]
            differ += sups[4:8] != sups[8:]
    # on the flat control some residual's sup at the grid is below its sup
    # at twice the grid, so the strided read is not the whole kernel's sup
    assert differ > 0


def test_each_residual_is_swept_once_at_twice_the_grid(monkeypatch):
    # the adjoints at the grid and the residuals at twice the grid, each
    # term once: 80 sweeps, where sweeping the residuals at both grids
    # made 140
    data = build_canonical_data()
    swept = []
    add_term = projection._add_term

    def counted(buckets, term, grid, phases):
        swept.append((term, grid))
        add_term(buckets, term, grid, phases)

    with monkeypatch.context() as patch:
        plans = recording_plan(patch)
        patch.setattr(projection, "_add_term", counted)
        report = assemble_and_square(data, 128)
    assert report["pass"] and len(swept) == 80
    [samplings] = plans
    assert [g for _, g in samplings] == [128] * 4 + [256] * 4 + [128] * 4
    adjoints = [elem for elem, _ in samplings[:4]]
    residuals = [elem for elem, _ in samplings[4:8]]
    assert [elem for elem, _ in samplings[8:]] == residuals
    want = ([(term, 128) for elem in adjoints for term in elem.terms]
            + [(term, 256) for elem in residuals for term in elem.terms])
    assert swept == want


def test_strided_reads_match_index_arithmetic():
    for size in (2 ** k for k in range(7)):  # 1 .. 64
        table = list(range(size))
        steps = [0] + [2 ** k for k in range(size.bit_length() + 1)]  # .. 2 size
        for step in steps:
            for start in range(size):
                want = [table[(start + step * i) % size] for i in range(2 * size + 1)]
                for count in range(2 * size + 1):
                    assert projection._strided(table, start, step, count) == \
                        want[:count], (size, step, start, count)
