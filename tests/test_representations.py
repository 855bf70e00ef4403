"""Affine-map separation on label windows and solenoid periodic-point reps."""

import random
from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest

from omnalg import representations
from omnalg.algebra import AlgebraParams, Monomial
from omnalg.exact import in_localization
from omnalg.representations import (PhaseMatrix, SolenoidPeriodicPoint, _label,
                                    coordinate_diagonal, isometry_image,
                                    monomial_affine_map, precompose_shift_inverse,
                                    relation_residuals, shift_unitary,
                                    solenoid_orbits, solenoid_periodic_points,
                                    solenoid_rep_check, window_labels)

F = Fraction
P12 = AlgebraParams(1, 2)
P23 = AlgebraParams(2, 3)


def test_isometry_image_examples():
    assert isometry_image(P12, 1, "A", F(0)) == -1  # 2q + (j - 2)
    assert isometry_image(P12, 2, "A", F(0)) == 0
    assert isometry_image(P12, 1, "B", F(0)) == 0   # 2q + (j - 1)
    assert isometry_image(P12, 2, "B", F(0)) == 1
    assert isometry_image(P23, 1, "A", F(2)) == 2   # (3/2)q + (j - 2)


def test_monomial_affine_map_examples():
    m = monomial_affine_map(P12, Monomial((1,), 0, ()), "A")
    assert (m.scale, m.offset, m.conditions) == (F(2), F(-1), ())
    z5 = monomial_affine_map(P12, Monomial((), 5, ()), "A")
    assert (z5.scale, z5.offset) == (F(1), F(5))
    # S_1* is the half map defined on odd labels
    star = monomial_affine_map(P12, Monomial((), 0, (1,)), "A")
    assert (star.scale, star.offset) == (F(1, 2), F(1, 2))
    assert star.apply(F(3)) == 2
    assert star.apply(F(2)) is None
    # words compose: S_1 z^2 acts as q -> 2(q + 2) - 1
    comp = monomial_affine_map(P12, Monomial((1,), 2, ()), "A")
    assert (comp.scale, comp.offset) == (F(2), F(3))
    # (2,3): S_1 S_2* shifts by -1 but only on labels with (2/3)q integral
    cross = monomial_affine_map(P23, Monomial((1,), 0, (2,)), "A")
    assert cross.apply(F(1)) is None
    assert cross.apply(F(3, 2)) == F(1, 2)
    with pytest.raises(ValueError):
        monomial_affine_map(AlgebraParams(3, 1), Monomial((1,), 0, ()), "A")


def test_window_labels():
    assert window_labels(1, 4, 0) == [F(k) for k in range(-4, 5)]
    assert window_labels(1, 3, 2) == [F(k) for k in range(-3, 4)]  # m = 1 stays integral
    labels = window_labels(2, 2, 1)
    assert labels == [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]


def test_relation_residuals_frozen_report():
    r = relation_residuals(P12, "A", 64, 3)
    assert r["pass"] and r["violations"] == []
    assert r["coverage"] == 1.0
    assert r["grown_window"] == {"num_bound": 129, "exp_bound": 0}
    assert r["checks"] == {"shift": 129, "wrap": 129,
                           "orthogonality": 516, "partition": 129}
    assert r["checked"] == 903


def test_relation_residuals_both_variants():
    for params in (P12, P23):
        for variant in ("A", "B"):
            r = relation_residuals(params, variant, 64, 2)
            assert r["pass"]
            assert r["coverage"] == 1.0
            assert r["violations"] == []


def test_labels_are_normalised_pairs():
    assert _label(6, F(5, 12)) == (15, 2)  # 5/12 = 15/36
    assert _label(2, F(3, 8)) == (3, 3)
    assert _label(6, F(1, 3)) == (2, 1)  # 2/6: m does not divide 2
    assert _label(3, F(-4)) == (-4, 0)
    assert _label(1, F(7)) == (7, 0)
    assert _label(4, F(0)) == (0, 0)
    for m, q in ((6, F(1, 5)), (1, F(1, 2))):
        with pytest.raises(ValueError):
            _label(m, q)
    # a label outside Z[1/m] is no basis vector of l^2(Z[1/m])
    with pytest.raises(ValueError):
        isometry_image(P23, 1, "A", F(1, 3))


def _fraction_relation_residuals(params, variant, num_bound, exp_bound):
    """The label loop on `Fraction`s: an independent reference.

    It reads the letter offsets from the module at call time, so a test
    that patches `_letter_offset` changes both implementations alike.
    """
    m, n = params.m, params.n

    def offset(j):
        return representations._letter_offset(j, variant)

    def image(j, q):
        return F(n, m) * q + offset(j)

    def preimage(j, q):
        v = (q - offset(j)) * F(m, n)
        return v if in_localization(v, m) else None

    labels = sorted({F(p, m ** e) for e in range(exp_bound + 1 if m > 1 else 1)
                     for p in range(-num_bound, num_bound + 1)})
    grown = [num_bound, exp_bound if m > 1 else 0]
    violations = []
    counts = {"shift": 0, "wrap": 0, "orthogonality": 0, "partition": 0}

    def track(q):
        t = 0
        while (q * m ** t).denominator != 1:
            t += 1
        grown[0] = max(grown[0], abs(q.numerator))
        grown[1] = max(grown[1], t)

    def bad(relation, q, detail):
        violations.append({"relation": relation, "label": str(q), "detail": detail})

    for q in labels:
        for i in range(1, n):
            lhs, rhs = image(i, q) + 1, image(i + 1, q)
            track(lhs)
            counts["shift"] += 1
            if lhs != rhs:
                bad("z S_i = S_{i+1}", q, f"i={i}: {lhs} != {rhs}")
        lhs, rhs = image(n, q) + 1, image(1, q + m)
        track(lhs)
        counts["wrap"] += 1
        if lhs != rhs:
            bad("z S_n = S_1 z^m", q, f"{lhs} != {rhs}")
        for j in range(1, n + 1):
            p = image(j, q)
            track(p)
            for i in range(1, n + 1):
                w = preimage(i, p)
                counts["orthogonality"] += 1
                if i == j:
                    if w != q:
                        bad("S_i* S_i = 1", q, f"i={i}: got {w}")
                elif w is not None:
                    bad("S_i* S_j = 0", q, f"i={i}, j={j}: landed on {w}")
        hits = []
        for i in range(1, n + 1):
            w = preimage(i, q)
            if w is not None:
                track(w)
                hits.append((i, w))
        counts["partition"] += 1
        if len(hits) != 1:
            bad("sum S_i S_i* = 1", q, f"defined for letters {[i for i, _ in hits]}")
        elif image(*hits[0]) != q:
            bad("sum S_i S_i* = 1", q, f"round trip via i={hits[0][0]} failed")
    return {
        "variant": variant, "m": m, "n": n,
        "window": {"num_bound": num_bound, "exp_bound": exp_bound},
        "grown_window": {"num_bound": grown[0], "exp_bound": grown[1]},
        "labels": len(labels), "checks": counts, "checked": sum(counts.values()),
        "coverage": 1.0, "violations": violations, "pass": not violations,
    }


ORACLE_PARAMS = [AlgebraParams(m, n) for m in (1, 2, 3, 4, 6, 9, 10)
                 for n in range(1, 6) if gcd(m, n) == 1]


@pytest.mark.parametrize("window", [(0, 0), (5, 3), (16, 2)])
def test_relation_residuals_match_the_fraction_loop(window):
    # composite m (4, 6, 9, 10) is where the grown numerator bound is that
    # of the reduced fraction, not the integer p of the pair
    for params in ORACLE_PARAMS:
        for variant in ("A", "B"):
            want = _fraction_relation_residuals(params, variant, *window)
            assert relation_residuals(params, variant, *window) == want
    assert window_labels(6, 5, 3) == sorted({F(p, 6 ** e) for e in range(4)
                                             for p in range(-5, 6)})


def test_violations_match_the_fraction_loop(monkeypatch):
    # c_j = j^2 - 2 breaks every relation whose violation the loop can see:
    # the offsets are not consecutive, and for n = 3 letters 1 and 2 share
    # a residue, so some labels have two annihilators and some none
    monkeypatch.setattr(representations, "_letter_offset",
                        lambda j, variant: j * j - 2)
    seen = set()
    for params in (AlgebraParams(1, 3), AlgebraParams(2, 3), AlgebraParams(6, 5)):
        report = relation_residuals(params, "A", 4, 2)
        assert report["pass"] is False
        assert report == _fraction_relation_residuals(params, "A", 4, 2)
        seen.update(v["relation"] for v in report["violations"])
    assert seen == {"z S_i = S_{i+1}", "z S_n = S_1 z^m", "S_i* S_j = 0",
                    "sum S_i S_i* = 1"}


def refused_quickly(fn, *args, **kwargs) -> str:
    """The message of the ValueError fn raises, asserting it comes within 1 s."""
    start = perf_counter()
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    assert perf_counter() - start < 1.0
    return str(info.value)


LABELS, CHECKS = representations.LABEL_LIMIT, representations.CHECK_LIMIT
POWERS = representations.POWER_LIMIT


@pytest.mark.parametrize("m, n, window, needle, limit", [
    # past LABEL_LIMIT: (2P+1)(Q+1) labels by the bound
    (1, 2, (8192, 0), "16385 labels", LABELS),
    (2, 3, (10 ** 30, 10 ** 30),
     f"{(2 * 10 ** 30 + 1) * (10 ** 30 + 1)} labels", LABELS),
    # past CHECK_LIMIT: n^2 + n + 1 checks per label
    (1, 1024, (0, 0), "1049601 relation checks", CHECKS),
    (2, 255, (0, 16), "1109777 relation checks", CHECKS),
    # past CHECK_LIMIT once each check weighs 1 + bits(m^(Q+1)) // 4096
    (10, 7, (0, 4599), "they weigh 1048800", CHECKS),
    (10, 7, (1, 5460), "933831 relation checks on labels", CHECKS),
    (1000, 7, (1, 5460), "933831 relation checks on labels", CHECKS),
    pytest.param(10 ** 4000, 1, (0, 16383), "49152 relation checks on labels",
                 CHECKS, id="m=10^4000"),
    # past POWER_LIMIT: the table m^0 .. m^(Q+1) weighs b^2 (Q+1)(Q+2)/2 bit
    # products for b = bits(m), though the checks are within their limit
    pytest.param(10 ** 4000, 1, (0, 327), "up to 9527061854464 bit products",
                 POWERS, id="m=10^4000 at 0,327"),
    pytest.param(10 ** 4000, 1, (0, 38), "up to 137725336320 bit products",
                 POWERS, id="m=10^4000 at 0,38"),
    # 741 000 checks that the estimate of 2 601 bits admits; the 4 121 bits
    # of 3^2600 weigh them one LABEL_BITS step past CHECK_LIMIT
    (3, 7, (2, 2599), "4121 bits (m^2600); at one more per 4096 bits they "
     "weigh 1482000", CHECKS),
])
def test_relation_residuals_refuses_past_its_limits(m, n, window, needle, limit):
    message = refused_quickly(relation_residuals, AlgebraParams(m, n), "A",
                              *window)
    assert needle in message and str(limit) in message


@pytest.mark.parametrize("m, n, window, labels", [
    (1, 2, (8191, 0), 16383),  # 16 383 labels by the bound, the most allowed
    (2, 255, (0, 15), 1),  # 1 044 496 checks by the bound
    (10, 7, (0, 4598), 1),  # weighs 1 048 572: 262 143 checks, 15 278 bits
    # 130 839 069 504 bit products to build m^0 .. m^38
    pytest.param(10 ** 4000, 1, (0, 37), 1, id="m=10^4000"),
])
def test_relation_residuals_runs_at_its_limits(m, n, window, labels):
    report = relation_residuals(AlgebraParams(m, n), "A", *window)
    assert report["pass"] and report["labels"] == labels


@pytest.mark.parametrize("m, k", [(2, 17), (2, 10 ** 9), (65538, 1), (10 ** 6, 2)])
def test_solenoid_enumeration_refuses_past_its_limit(m, k):
    for fn in (solenoid_orbits, solenoid_periodic_points):
        message = refused_quickly(fn, m, k)
        assert f"{m}^{k} - 1 residues" in message
        assert str(representations.RESIDUE_LIMIT) in message


def test_solenoid_enumeration_runs_at_its_limit():
    # m = 1 mod 2^16: all 2^16 residues have exact period 1
    assert len(solenoid_orbits(65537, 1)) == representations.RESIDUE_LIMIT


def test_periodic_point_counts():
    # exact-period counts by inclusion-exclusion over divisors
    for m, expect in ((2, [1, 2, 6, 12]), (3, [2, 6, 24, 72])):
        got = [len(solenoid_periodic_points(m, k)) for k in (1, 2, 3, 4)]
        assert got == expect


def test_periodic_point_validation():
    with pytest.raises(ValueError):
        SolenoidPeriodicPoint(2, 2, 0)  # exact period 1, not 2
    with pytest.raises(ValueError):
        SolenoidPeriodicPoint(2, 2, 3)  # residue out of range
    with pytest.raises(ValueError):
        SolenoidPeriodicPoint(1, 1, 0)


def stepped_period(m, k, r):
    """The least t >= 1 with r m^t = r mod m^k - 1, one step at a time."""
    mod = m ** k - 1
    c, t = r * m % mod, 1
    while c != r:
        c, t = c * m % mod, t + 1
    return t


def test_exact_period():
    # pinned points: (m, k, r) and the exact period of r; a point is
    # accepted iff that period is k
    for m, k, r, period in ((2, 2, 0, 1),  # 3 = 0 mod 3
                            (2, 4, 5, 2),  # 5 -> 10 -> 5 mod 15
                            (2, 4, 1, 4),
                            (3, 2, 4, 1)):  # 3 * 4 = 4 mod 8
        assert stepped_period(m, k, r) == period
        if period == k:
            assert SolenoidPeriodicPoint(m, k, r).coordinates()[0] == r
        else:
            with pytest.raises(ValueError, match=f"does not have exact period {k}"):
                SolenoidPeriodicPoint(m, k, r)


def test_exact_period_matches_stepping():
    # every residue of the moduli up to a few thousand is accepted iff its
    # period found by multiplying by m one step at a time is k
    checked = 0
    for m in range(2, 8):
        for k in range(1, 13):
            mod = m ** k - 1
            if mod > 5000:
                break
            for r in range(mod):
                if stepped_period(m, k, r) == k:
                    assert SolenoidPeriodicPoint(m, k, r).residue == r
                else:
                    with pytest.raises(ValueError, match="exact period"):
                        SolenoidPeriodicPoint(m, k, r)
                checked += 1
    assert checked > 10000


def test_orbits_partition_the_points():
    # against the stepping oracle on every residue
    cases = [(m, k) for m in range(2, 8) for k in range(1, 6)
             if m ** k - 1 <= representations.RESIDUE_LIMIT]
    assert (2, 1) in cases and len(cases) == 30
    for m, k in cases:
        mod = m ** k - 1
        residues = [r for r in range(mod) if stepped_period(m, k, r) == k]
        orbits = solenoid_orbits(m, k)
        assert [p.residue for p in solenoid_periodic_points(m, k)] == residues
        assert sorted(r for orbit in orbits for r in orbit) == residues
        starts = [orbit[0] for orbit in orbits]
        assert starts == sorted(starts)
        for orbit in orbits:
            assert orbit[0] == min(orbit)
            assert orbit == SolenoidPeriodicPoint(m, k, orbit[0]).coordinates()
            assert set((r * m) % mod for r in orbit) == set(orbit)


def test_coordinates_satisfy_shift_consistency():
    for m, k in ((2, 3), (3, 2), (2, 4)):
        for pt in solenoid_periodic_points(m, k):
            coords = pt.coordinates()
            mod = pt.modulus
            for i in range(k):
                assert (m * coords[(i + 1) % k]) % mod == coords[i] % mod


def test_shift_unitary_structure():
    u = shift_unitary(3, F(1, 2))
    assert u.is_unitary()
    # e_0 -> e_1 -> e_2 -> phase * e_0
    assert u.perm == (1, 2, 0) and u.phases == (F(0), F(0), F(1, 2))
    assert u @ u.adjoint() == PhaseMatrix.identity(3)
    for size in (1, 2, 4):
        assert shift_unitary(size, F(1, 3)).is_unitary()


def test_precompose_shift_inverse():
    # the inverse shift sends x_0 to x_0^m and x_i to x_{i-1}
    assert precompose_shift_inverse(2, {0: 1}) == {0: 2}
    assert precompose_shift_inverse(2, {1: 1}) == {0: 1}
    assert precompose_shift_inverse(2, {1: -2, 0: 1}) == {}
    assert precompose_shift_inverse(3, {2: 1, 0: 2}) == {1: 1, 0: 6}


def test_solenoid_rep_check_sweep():
    phases = (F(0), F(1, 3), F(1, 2))
    exps = ({0: 1}, {1: -2}, {0: 2, 1: 1})
    for m in (2, 3):
        for k in (1, 2, 3):
            for pt in solenoid_periodic_points(m, k):
                for phase in phases:
                    for e in exps:
                        r = solenoid_rep_check(pt, phase, e)
                        assert r["pass"]
                        assert r["unitary"] and r["covariance_exact"]
                        assert r["float_residual"] < 1e-12


def test_orientation_separation_needs_period_three():
    # rotating a 2-cycle forward or backward is the same permutation, so
    # the wrong orientation only dies from period 3 on
    pt2 = solenoid_periodic_points(2, 2)[0]
    r2 = solenoid_rep_check(pt2, F(0), {0: 1})
    assert not r2["orientations_distinct"]
    for pt in solenoid_periodic_points(2, 3):
        r3 = solenoid_rep_check(pt, F(0), {0: 1})
        assert r3["orientations_distinct"]
        assert not r3["wrong_orientation_holds"]


def test_distinct_points_have_distinct_diagonals():
    pts = solenoid_periodic_points(2, 2)
    d0 = coordinate_diagonal(pts[0], {0: 1})
    d1 = coordinate_diagonal(pts[1], {0: 1})
    assert d0.perm == d1.perm == (0, 1)
    assert d0.phases != d1.phases
    assert d0 != d1


def random_phase_matrix(rng, size):
    perm = list(range(size))
    rng.shuffle(perm)
    # phases off [0, 1), negative or past one turn, reduced on construction
    phases = [F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(size)]
    return PhaseMatrix(perm, phases)


def test_phase_matrix_matches_dense_complex_products():
    rng = random.Random(21)
    for _ in range(300):
        size = rng.randint(1, 6)
        a, b = random_phase_matrix(rng, size), random_phase_matrix(rng, size)
        ac, bc = a.to_complex(), b.to_complex()
        dense = [[sum(ac[i][l] * bc[l][j] for l in range(size)) for j in range(size)]
                 for i in range(size)]
        product = (a @ b).to_complex()
        adjoint = a.adjoint().to_complex()
        for i in range(size):
            for j in range(size):
                assert abs(product[i][j] - dense[i][j]) < 1e-12
                assert abs(adjoint[i][j] - ac[j][i].conjugate()) < 1e-12
        assert a @ a.adjoint() == PhaseMatrix.identity(size)
        assert a.is_unitary()
    with pytest.raises(ValueError):
        PhaseMatrix((0, 0, 2), (F(0), F(0), F(0)))  # a repeated row
    with pytest.raises(ValueError):
        PhaseMatrix((1, 0), (F(0),))  # one phase short
