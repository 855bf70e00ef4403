"""Finite symmetries: rotation weights, the inversion, fixed-point rewriting."""

import math
import random

import pytest

from omnalg.actions import (GENERATOR_LIMIT, GeneratorWord, _solve_residue,
                            fixed_point_rewrite, rotation_modulus,
                            rotation_weight, subalgebra_witness_power,
                            subalgebra_witness_zk)
from omnalg.algebra import AlgebraParams, Element, Monomial

P12 = AlgebraParams(1, 2)
P13 = AlgebraParams(1, 3)
P23 = AlgebraParams(2, 3)
P25 = AlgebraParams(2, 5)
P35 = AlgebraParams(3, 5)


def test_rotation_modulus():
    assert rotation_modulus(P13) == 2
    assert rotation_modulus(P25) == 3
    assert rotation_modulus(AlgebraParams(5, 2)) == 3
    for params in (P12, P23, AlgebraParams(1, 1)):
        with pytest.raises(ValueError):
            rotation_modulus(params)


def test_rotation_weight_examples():
    assert rotation_weight(P13, Monomial((2,), 1, (1, 1))) == 0
    assert rotation_weight(P13, Monomial((), 1, ())) == 1
    assert rotation_weight(P13, Monomial((3,), 0, ())) == 0
    assert rotation_weight(P25, Monomial((2,), 0, (1,))) == 1
    assert rotation_weight(P25, Monomial((), -1, ())) == 2


def test_is_rotation_fixed_matches_weight():
    # a monomial is in the fixed-point subalgebra iff its weight is 0, and
    # the rewrite accepts exactly those
    rng = random.Random(53)
    for _ in range(100):
        params = (P13, P25, P35)[rng.randrange(3)]
        mon = Monomial(tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 3))),
                       rng.randint(-5, 5),
                       tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 3))))
        if rotation_weight(params, mon) == 0:
            assert fixed_point_rewrite(params, mon).represents(mon)
        else:
            with pytest.raises(ValueError, match="rotation weight"):
                fixed_point_rewrite(params, mon)


def _flip_letter(params, i):
    """Image of S_i under z -> z^{-1}, S_1 -> S_1, i.e. normalize(z^{-(i-1)} S_1)."""
    params.check_letter(i)
    return Element.unitary(params, -(i - 1)) * Element.isometry(params, 1)


def inversion_apply(x):
    """The order-two *-automorphism determined by z -> z^{-1}, S_1 -> S_1.

    The circle-flip K-theory rests on it being a *-automorphism, which the
    two tests below check on the defining relations and on products.
    """
    params = x.params
    out = Element.zero(params)
    for mon, c in x.items():
        img = Element(params, [(Monomial((), 0, ()), c)])
        for i in mon.mu:
            img = img * _flip_letter(params, i)
        img = img * Element.unitary(params, -mon.k)
        right = Element.unit(params)
        for j in mon.nu:
            right = right * _flip_letter(params, j)
        out = out + img * right.adjoint()
    return out


def test_inversion_fixes_defining_relations():
    # the images of both sides of each relation must still agree
    for params in (P12, P23, P13, P35):
        z = Element.unitary(params, 1)
        s = {i: Element.isometry(params, i) for i in range(1, params.n + 1)}
        for i in range(1, params.n):
            assert (inversion_apply(z * s[i]) - inversion_apply(s[i + 1])).is_zero()
        wrap = s[1] * Element.unitary(params, params.m)
        assert (inversion_apply(z * s[params.n]) - inversion_apply(wrap)).is_zero()


def test_inversion_involution_and_structure():
    rng = random.Random(59)
    for params in (P12, P23, P13):
        z = Element.unitary(params, 1)
        assert (inversion_apply(z) - z.adjoint()).is_zero()
        s1 = Element.isometry(params, 1)
        assert (inversion_apply(s1) - s1).is_zero()
        for _ in range(25):
            mu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2)))
            nu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2)))
            x = Element.monomial(params, mu, rng.randint(-3, 3), nu)
            y = Element.monomial(params, nu, rng.randint(-3, 3), mu)
            assert (inversion_apply(inversion_apply(x)) - x).is_zero()
            assert (inversion_apply(x.adjoint())
                    - inversion_apply(x).adjoint()).is_zero()
            assert (inversion_apply(x * y)
                    - inversion_apply(x) * inversion_apply(y)).is_zero()


def test_generator_word_validation():
    with pytest.raises(ValueError):
        GeneratorWord(P13, (("z", 3),))  # exponent not in 2Z
    with pytest.raises(ValueError):
        GeneratorWord(P13, (("destroy", 1),))
    w = GeneratorWord(P13, (("z", 2), ("create",), ("annihilate",)))
    assert str(w) == "z^2 S1 S1*"
    expect = (Element.unitary(P13, 2) * Element.isometry(P13, 1)
              * Element.isometry(P13, 1).adjoint())
    assert (w.to_element() - expect).is_zero()
    empty = GeneratorWord(P13, ())
    assert str(empty) == "1"
    assert empty.to_element() == Element.unit(P13)


def test_fixed_point_rewrite_frozen_example():
    w = fixed_point_rewrite(P13, Monomial((2,), 1, (1, 1)))
    assert str(w) == "z^4 S1 z^0 S1* z^0 S1* z^0"
    assert w.exponents() == [4, 0, 0, 0]
    x = Element.monomial(P13, (2,), 1, (1, 1))
    assert (w.to_element() - x).is_zero()


def test_fixed_point_rewrite_rejects_moving_monomials():
    with pytest.raises(ValueError, match="weight"):
        fixed_point_rewrite(P13, Monomial((2,), 0, (1, 1)))
    with pytest.raises(ValueError, match="weight"):
        fixed_point_rewrite(P25, Monomial((), 1, ()))


def test_fixed_point_rewrite_round_trip_sweep():
    rng = random.Random(61)
    for params in (P13, P35, P25, AlgebraParams(1, 4)):
        mod = rotation_modulus(params)
        done = 0
        while done < 50:
            mu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 3)))
            nu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 3)))
            k = rng.randint(-6, 6)
            w = rotation_weight(params, Monomial(mu, k, nu))
            mon = Monomial(mu, k - w + mod * rng.randint(0, 1), nu)
            assert rotation_weight(params, mon) == 0
            word = fixed_point_rewrite(params, mon)
            assert all(e % mod == 0 for e in word.exponents())
            assert (word.to_element()
                    - Element.monomial(params, mon.mu, mon.k, mon.nu)).is_zero()
            done += 1


def token_product(word):
    """`GeneratorWord.to_element` as one Element product per token."""
    acc = Element.unit(word.params)
    s1 = Element.isometry(word.params, 1)
    for tok in word.tokens:
        if tok[0] == "z":
            acc = acc * Element.unitary(word.params, tok[1])
        elif tok[0] == "create":
            acc = acc * s1
        else:
            acc = acc * s1.adjoint()
    return acc


def test_to_element_matches_the_token_products():
    # any interleaving of the three tokens, not only the two runs that
    # fixed_point_rewrite makes; some words multiply out to zero
    rng = random.Random(1602)
    checked = zeros = 0
    for params in (P13, P25, P35, AlgebraParams(1, 4), AlgebraParams(5, 2)):
        mod = rotation_modulus(params)
        for _ in range(200):
            tokens = []
            for _ in range(rng.randint(0, 12)):
                r = rng.random()
                tokens.append(("z", mod * rng.randint(-4, 4)) if r < 0.4
                              else ("create",) if r < 0.75 else ("annihilate",))
            word = GeneratorWord(params, tuple(tokens))
            got = word.to_element()
            assert got == token_product(word), tokens
            assert got.term_count() <= 1
            checked += 1
            zeros += not got
    assert checked == 1000 and zeros > 100


def test_solve_residue_matches_search():
    rng = random.Random(67)
    for _ in range(2000):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        mod = abs(n - m)
        if mod < 2 or math.gcd(m, n) != 1:
            continue
        value = rng.randint(-10 ** 6, 10 ** 6)
        least = next(p for p in range(mod) if (value + p * n) % mod == 0)
        assert _solve_residue(value, n, mod) == least


def test_subalgebra_witness_zk():
    r = subalgebra_witness_zk(P12, 6)
    assert r["pass"] and r["kind"] == "zk"
    assert r["reduced_k"] == 3
    assert r["l_table"] == [0, 1] and r["p_table"] == [0, 1]
    assert all(entry["ok"] for entry in r["relations"].values())
    assert set(r["relations"]) == {"shift", "wrap", "orthogonality", "completeness"}
    # powers of n reduce all the way down to z itself
    assert subalgebra_witness_zk(P12, 4)["reduced_k"] == 1
    for params in (P12, P23):
        for k in (1, 3, 5):
            assert subalgebra_witness_zk(params, k)["pass"]
    with pytest.raises(ValueError):
        subalgebra_witness_zk(P12, 0)
    # n generators, limited like the power family's n^k
    assert subalgebra_witness_zk(AlgebraParams(1, 81), 1)["generators"] == 81
    for n in (82, 83):
        with pytest.raises(ValueError, match=f"n = {n} exceeds size bound 81"):
            subalgebra_witness_zk(AlgebraParams(1, n), 2)
    with pytest.raises(ValueError, match="n >= 2"):
        subalgebra_witness_zk(AlgebraParams(2, 1), 1)


def test_subalgebra_witness_tables_and_check_counts():
    # (q - 1) k = l_q + n p_q; at n = 2 q - 1 and q + 1 give the same tables
    r3 = subalgebra_witness_zk(P13, 2)
    assert r3["l_table"] == [0, 2, 1] and r3["p_table"] == [0, 0, 1]
    r5 = subalgebra_witness_zk(P25, 3)
    assert r5["l_table"] == [0, 3, 1, 4, 2] and r5["p_table"] == [0, 0, 1, 1, 2]
    for report, c in ((r3, 3), (r5, 5), (subalgebra_witness_power(P12, 2), 4)):
        assert report["pass"] and report["generators"] == c
        checked = {name: rel["checked"] for name, rel in report["relations"].items()}
        assert checked == {"shift": c - 1, "wrap": 1, "orthogonality": c * c,
                           "completeness": 1}


def test_subalgebra_witness_power():
    for params, k in ((P12, 1), (P12, 2), (P12, 3), (P23, 1)):
        r = subalgebra_witness_power(params, k)
        assert r["pass"] and r["kind"] == "power" and r["k"] == k
    with pytest.raises(ValueError, match="n\\^k = 2\\^7 exceeds size bound 81"):
        subalgebra_witness_power(P12, 7)
    with pytest.raises(ValueError):
        subalgebra_witness_power(P12, 0)
    # n = 1 would bound nothing: S_1^k is refused, not built
    with pytest.raises(ValueError, match="n >= 2"):
        subalgebra_witness_power(AlgebraParams(2, 1), 10 ** 12)
    # n^k generators: GENERATOR_LIMIT = 81 answers, 82 and more are refused
    # before any generator is built
    assert GENERATOR_LIMIT == 81
    assert subalgebra_witness_power(AlgebraParams(1, 3), 4)["generators"] == 81
    assert subalgebra_witness_power(AlgebraParams(1, 81), 1)["generators"] == 81
    for n in (82, 83):
        with pytest.raises(ValueError, match=f"n\\^k = {n}\\^1 exceeds size bound 81"):
            subalgebra_witness_power(AlgebraParams(1, n), 1)
