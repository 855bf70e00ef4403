"""Integer matrix reductions and the K-group computations built on them."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import omnalg.ktheory as ktheory
from omnalg import reproduce
from omnalg.ktheory import (FGAbelianGroup, SmithReduction, direct_sum,
                            identity_matrix, invariant_factors,
                            kgroups_by_method, mat_mul, pv_dual_action_kgroups,
                            rational_inverse, six_term_kgroups,
                            smith_normal_form, symmetry_fixed_kgroups)


def int_det(mat):
    # permutation expansion; fine for the k <= 4 minors used here
    k = len(mat)
    total = 0
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(k):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


def minor_gcd(mat, k):
    rows, cols = len(mat), len(mat[0])
    g = 0
    for rs in itertools.combinations(range(rows), k):
        for cs in itertools.combinations(range(cols), k):
            g = math.gcd(g, int_det([[mat[r][c] for c in cs] for r in rs]))
    return g


def is_integral(inverse):
    return inverse is not None and all(x.denominator == 1
                                       for row in inverse for x in row)


def test_rational_inverse():
    assert rational_inverse(identity_matrix(3)) == identity_matrix(3)
    assert rational_inverse([[2]]) == [[Fraction(1, 2)]]
    assert rational_inverse([[1, 2], [2, 4]]) is None
    assert rational_inverse([[0, 0, 1], [0, 0, 2], [3, 1, 0]]) is None
    rng = random.Random(505)
    checked = 0
    while checked < 30:
        mat = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        if int_det(mat) == 0:
            assert rational_inverse(mat) is None
            continue
        inverse = rational_inverse(mat)
        assert [[sum(mat[i][l] * inverse[l][j] for l in range(3))
                 for j in range(3)] for i in range(3)] == identity_matrix(3)
        assert is_integral(inverse) is (abs(int_det(mat)) == 1)
        checked += 1
    # products of elementary integer matrices are unimodular
    for _ in range(20):
        prod = identity_matrix(3)
        for _ in range(6):
            step = identity_matrix(3)
            i, j = rng.sample(range(3), 2)
            if rng.random() < 0.5:
                step[i][j] = rng.randint(-4, 4)
            else:
                step[i], step[j] = step[j], step[i]
            prod = mat_mul(step, prod)
        assert is_integral(rational_inverse(prod))
    assert not is_integral(rational_inverse([[2, 0], [0, 1]]))


def test_smith_normal_form_random_sweep():
    rng = random.Random(101)
    shapes = [(2, 2), (3, 3), (3, 2), (2, 4), (4, 4)]
    for trial in range(40):
        rows, cols = shapes[trial % len(shapes)]
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        assert mat_mul(mat_mul(u, mat), v) == d
        assert is_integral(rational_inverse(u))
        assert is_integral(rational_inverse(v))
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x != 0]
        assert all(x > 0 for x in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # d_1 ... d_k equals the gcd of all k x k minors
        prod = 1
        for k, dk in enumerate(diag, start=1):
            prod *= dk
            assert abs(prod) == minor_gcd(mat, k)


def test_invariant_factors_normalization():
    assert invariant_factors([4, 6, 1]) == (2, 12)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([1, 1]) == ()
    assert invariant_factors([]) == ()
    # 2-parts 4, 2, 8 and 3-parts 3, 9, 1 pair off largest with largest
    assert invariant_factors([12, 18, 8]) == (2, 12, 72)
    # a Mersenne prime: no factoring, so no trial division up to its root
    assert invariant_factors([2 ** 61 - 1, 1]) == (2 ** 61 - 1,)


def test_fg_group_basics():
    assert str(FGAbelianGroup(2, ())) == "Z^2"
    assert str(FGAbelianGroup(0, ())) == "0"
    assert str(FGAbelianGroup(1, (5,))) == "Z + Z_5"
    assert str(FGAbelianGroup(0, (2, 12))) == "Z_2 + Z_12"
    assert FGAbelianGroup(0, (2, 12)).to_json_obj() == {"free_rank": 0,
                                                        "torsion": [2, 12]}
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 6))  # not a divisibility chain
    s = direct_sum(FGAbelianGroup(1, (2,)), FGAbelianGroup(0, (3,)))
    assert s == FGAbelianGroup(1, (6,))


def cokernel(mat):
    return SmithReduction.of(mat).cokernel()


def kernel(mat):
    return SmithReduction.of(mat).kernel()


def class_order(mat, v):
    return SmithReduction.of(mat).class_order(v)


def test_cokernel_kernel_examples():
    assert cokernel([[2]]) == FGAbelianGroup(0, (2,))
    assert cokernel([[0]]) == FGAbelianGroup(1, ())
    assert cokernel([[1]]) == FGAbelianGroup(0, ())
    assert cokernel([[2, 0], [0, 3]]) == FGAbelianGroup(0, (6,))
    assert kernel([[2]]) == FGAbelianGroup(0, ())
    assert kernel([[0]]) == FGAbelianGroup(1, ())
    assert kernel([[1, 1], [1, 1]]) == FGAbelianGroup(1, ())
    # more columns than rows, and more rows than columns
    assert cokernel([[2, 4]]) == FGAbelianGroup(0, (2,))
    assert kernel([[2, 4]]) == FGAbelianGroup(1, ())
    assert cokernel([[2], [4]]) == FGAbelianGroup(1, (2,))
    assert kernel([[2], [4]]) == FGAbelianGroup(0, ())


def test_class_order_examples():
    assert class_order([[2]], [1]) == 2
    assert class_order([[2]], [2]) == 1
    assert class_order([[0]], [1]) is None
    assert class_order([[2, 0], [0, 3]], [1, 1]) == 6
    assert class_order([[2, 0], [0, 3]], [0, 1]) == 3
    # a row past the last column is a free Z summand
    assert class_order([[2], [4]], [1, 0]) is None
    assert class_order([[2], [4]], [1, 2]) == 2


@pytest.mark.parametrize("call, reductions", [
    (lambda: symmetry_fixed_kgroups("even", 4), 2),
    (lambda: symmetry_fixed_kgroups("odd", 7), 2),
    (lambda: six_term_kgroups(3, 5), 4),
    (lambda: reproduce.criterion_5(), 54),
], ids=["flip-even", "flip-odd", "six-term", "criterion-5"])
def test_each_matrix_is_reduced_once(call, reductions, monkeypatch):
    # one Smith reduction per matrix: a flip report reduces I - Y and the
    # reference's diagonal, the six-term splice its two 1 x 1 maps and two
    # direct sums, and criterion 5 its 18 reports plus its own U*M*V check
    calls = []

    def counted(mat):
        calls.append(mat)
        return smith_normal_form(mat)

    monkeypatch.setattr(ktheory, "smith_normal_form", counted)
    call()
    assert len(calls) == reductions


def test_six_term_tables():
    assert six_term_kgroups(1, 2) == (FGAbelianGroup(1, ()), FGAbelianGroup(1, ()))
    assert six_term_kgroups(2, 3) == (FGAbelianGroup(0, (2,)),
                                      FGAbelianGroup(0, ()))
    assert six_term_kgroups(5, 3) == (FGAbelianGroup(0, (2,)),
                                      FGAbelianGroup(0, (4,)))
    for n in range(2, 13):
        k0, k1 = six_term_kgroups(1, n)
        assert k0 == FGAbelianGroup(1, (n - 1,) if n > 2 else ())
        assert k1 == FGAbelianGroup(1, ())
    for m in range(2, 13):
        k0, k1 = six_term_kgroups(m, 1)
        assert k0 == FGAbelianGroup(1, ())
        assert k1 == FGAbelianGroup(1, (m - 1,) if m > 2 else ())


def test_six_term_rejects_bad_params():
    with pytest.raises(ValueError):
        six_term_kgroups(2, 4)
    with pytest.raises(ValueError):
        six_term_kgroups(0, 1)


def test_dual_action_agrees_with_six_term():
    for m in range(1, 40):
        for n in range(2, 40):
            if math.gcd(m, n) != 1:
                continue
            assert pv_dual_action_kgroups(m, n) == six_term_kgroups(m, n)
            report = kgroups_by_method(m, n)
            assert report["agree"] is True and report["pass"] is True
            assert report["pv"] == report["six_term"] == six_term_kgroups(m, n)
    with pytest.raises(ValueError):
        pv_dual_action_kgroups(3, 1)
    # below n = 2 "both" has only the six-term answer, and passes on it
    assert kgroups_by_method(3, 1) == {"method": "both", "pass": True,
                                       "six_term": six_term_kgroups(3, 1)}
    assert set(kgroups_by_method(3, 2, "pv")) == {"method", "pv", "pass"}
    for method, m, n in (("pv", 3, 1), ("x", 1, 2)):
        with pytest.raises(ValueError):
            kgroups_by_method(m, n, method)


def test_symmetry_fixed_odd_family():
    r3 = symmetry_fixed_kgroups("odd", 3)
    assert r3["matrix"] == [[-2, 0, 0], [0, 0, 0], [0, -2, -2]]
    assert str(r3["computed_k0"]) == "Z + Z_2 + Z_2"
    assert str(r3["computed_k1"]) == "Z"
    assert r3["unit_class_order"] == 2
    assert r3["generator_orders"] == {"e0": 2, "e1": None, "e2": 2}
    for n in range(2, 11):
        r = symmetry_fixed_kgroups("odd", n)
        assert r["agrees_k0"] and r["agrees_k1"] and r["pass"]
        assert r["agrees_unit_class"]
        assert r["computed_k1"].torsion == ()


def test_symmetry_fixed_even_family():
    for n in range(2, 11):
        r = symmetry_fixed_kgroups("even", n)
        assert r["agrees_k1"]
        assert r["agrees_k0"] == (n == 2)
        assert r["pass"]  # the even K0 departure is data, not a failure
        assert r["computed_k1"].torsion == ()
    r4 = symmetry_fixed_kgroups("even", 4)
    assert str(r4["computed_k0"]) == "Z_3 + Z_3"
    assert str(r4["reference_k0"]) == "Z_3"
    assert r4["unit_class_order"] == 3
    with pytest.raises(ValueError):
        symmetry_fixed_kgroups("both", 3)
