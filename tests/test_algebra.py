"""Normal-form arithmetic: generator relations, states, and the zero test."""

import json
import math
import random
from fractions import Fraction

import pytest

from omnalg import algebra
from omnalg.algebra import (EXPONENT_BIT_LIMIT, AlgebraParams, Element,
                            Monomial, _expand, all_words,
                            monomial_from_json_obj, mul_monomials,
                            push_exponent)
from omnalg.exact import QQi
from omnalg.representations import window_labels
from oracles import monomial_affine_map, padded_refinement, parent

P12 = AlgebraParams(1, 2)
P23 = AlgebraParams(2, 3)
P13 = AlgebraParams(1, 3)
P35 = AlgebraParams(3, 5)


def test_params_require_coprime():
    with pytest.raises(ValueError):
        AlgebraParams(2, 4)
    with pytest.raises(ValueError):
        AlgebraParams(0, 3)
    AlgebraParams(1, 1)  # degenerate but coprime


@pytest.mark.parametrize("m, n, rule", [
    (10 ** 5000, 2, "coprime"), (2, 10 ** 5000, "coprime"),
    (-10 ** 5000, 3, ">= 1"),
], ids=["huge-m", "huge-n", "huge-negative-m"])
def test_params_refuse_huge_integers_in_one_short_line(m, n, rule):
    # past str()'s 4 300 digits an integer is named by its bit length
    with pytest.raises(ValueError, match=rule) as info:
        AlgebraParams(m, n)
    assert len(str(info.value)) < 300 and "-bit integer>" in str(info.value)


def single_step(params, j):
    # z S_j: either bump the letter or wrap to S_1 z^m
    if j < params.n:
        return j + 1, 0
    return 1, params.m


def shift_oracle(params, k, j):
    """Move z^k through S_j one relation application at a time."""
    if k >= 0:
        extra = 0
        for _ in range(k):
            j, bump = single_step(params, j)
            extra = bump + extra
        return j, extra
    # z^{-1} S_j = S_{j-1} (j > 1), z^{-1} S_1 = S_n z^{-m}
    extra = 0
    for _ in range(-k):
        if j > 1:
            j -= 1
        else:
            j = params.n
            extra -= params.m
    return j, extra


def test_shift_through_examples():
    assert push_exponent(P12, 1, (2,)) == ((1,), 1)  # z S_2 = S_1 z
    for params in (P12, P23, P35):
        for j in range(1, params.n + 1):
            assert push_exponent(params, 0, (j,)) == ((j,), 0)
    assert push_exponent(P23, 3, (1,)) == ((1,), 2)  # z^3 S_1 = S_1 z^2


def test_shift_through_matches_single_step_iteration():
    for params in (P12, P23, P13, P35):
        for k in range(-20, 21):
            for j in range(1, params.n + 1):
                (jp,), kp = push_exponent(params, k, (j,))
                assert (jp, kp) == shift_oracle(params, k, j)


def test_shift_through_m1_closed_form():
    # for m = 1 the exponent is just the base-n carry
    for n in (2, 3, 5):
        params = AlgebraParams(1, n)
        for k in range(-30, 31):
            for j in range(1, n + 1):
                (jp,), kp = push_exponent(params, k, (j,))
                assert jp == ((j - 1 + k) % n) + 1
                assert kp == (j - 1 + k) // n


def test_shift_through_rejects_bad_letter():
    with pytest.raises(ValueError):
        push_exponent(P12, 1, (3,))
    with pytest.raises(ValueError):
        push_exponent(P12, 1, (0,))


def test_expand_gives_the_children_shift_through_gives():
    coeff = QQi(Fraction(2, 3), Fraction(-1, 5))
    checked = 0
    for m in range(1, 5):
        for n in range(1, 6):
            if math.gcd(m, n) != 1:
                continue
            params = AlgebraParams(m, n)
            for k in range(-40, 41):
                mon = Monomial((n,), k, (1,) * (k % 3))
                want = []
                for d in range(1, n + 1):
                    j, k2 = shift_oracle(params, k, d)
                    want.append((Monomial(mon.mu + (j,), k2, mon.nu + (d,)), coeff))
                assert list(_expand(params, [(mon, coeff)])) == want
                checked += 1
    assert checked == 15 * 81


def test_parent_inverts_expand_on_the_refinement_forest():
    rng = random.Random(2525)
    checked = roots = off_lattice = 0
    for m in (1, 2, 3):
        for n in (2, 3, 5):
            if math.gcd(m, n) != 1:
                continue
            params = AlgebraParams(m, n)
            for _ in range(60):
                mon = Monomial(
                    tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3))),
                    rng.randint(-30, 30),
                    tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3))))
                children = [child for child, _ in _expand(params, [(mon, 1)])]
                assert len(set(children)) == n
                assert all(parent(params, child) == mon for child in children)
                up = parent(params, mon)
                if not mon.mu or not mon.nu or mon.k % m:
                    assert up is None
                    roots += 1
                    off_lattice += bool(mon.mu and mon.nu)
                else:
                    assert up is not None
                    assert mon in [child for child, _ in _expand(params, [(up, 1)])]
                checked += 1
    # roots of every kind occur: 72 of the 259 have both words but an
    # exponent off m Z
    assert checked == 7 * 60 and (roots, off_lattice) == (259, 72)


def test_push_exponent_is_letterwise():
    rng = random.Random(11)
    for _ in range(200):
        params = random.Random(rng.random()).choice((P12, P23, P13, P35))
        word = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 4)))
        k = rng.randint(-9, 9)
        out_word, out_k = push_exponent(params, k, word)
        cur_k, expect = k, []
        for j in word:
            jp, cur_k = shift_oracle(params, cur_k, j)
            expect.append(jp)
        assert out_word == tuple(expect)
        assert out_k == cur_k


def test_mul_monomials_examples():
    # S_1* S_2 = 0
    assert mul_monomials(P12, Monomial((), 0, (1,)), Monomial((2,), 0, ())) is None
    x = Monomial((1, 2), 3, (2,))
    assert mul_monomials(P12, Monomial((), 0, ()), x) == x
    assert mul_monomials(P12, x, Monomial((), 0, ())) == x
    # contract S_2* S_2 = 1
    got = mul_monomials(P12, Monomial((1,), 1, (2,)), Monomial((2,), 0, (1,)))
    assert got == Monomial((1,), 1, (1,))


def test_mul_monomials_prefix_extension():
    # nu a proper prefix of the right creation word: z-power pushes through
    # the leftover letters.  (1,2): (z S_1*) (S_1 S_2) = z S_2 = S_1 z
    got = mul_monomials(P12, Monomial((), 1, (1,)), Monomial((1, 2), 0, ()))
    assert got == Monomial((1,), 1, ())
    # mirror case: S_2* S_1* S_1 z = S_2* z = (z^{-1} S_2)* = S_1*
    got = mul_monomials(P12, Monomial((), 0, (1, 2)), Monomial((1,), 1, ()))
    assert got == Monomial((), 0, (1,))


def test_adjoint_examples():
    x = Element.monomial(P12, (1,), 1, (2,))
    assert x.adjoint() == Element.monomial(P12, (2,), -1, (1,))
    rng = random.Random(5)
    for _ in range(50):
        e = random_element(rng, P23, terms=3)
        assert e.adjoint().adjoint() == e


def test_gauge_degree_examples():
    assert Monomial((1,), 0, ()).gauge_degree() == 1
    assert Monomial((), 7, ()).gauge_degree() == 0
    assert Monomial((1,), 1, (2, 1)).gauge_degree() == -1


def random_element(rng, params, terms=2):
    out = Element.zero(params)
    for _ in range(terms):
        mu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2)))
        nu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2)))
        coeff = QQi(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        out = out + Element.monomial(params, mu, rng.randint(-3, 3), nu, coeff=coeff)
    return out


def test_unit_relations():
    for params in (P12, P23, P13):
        one = Element.unit(params)
        total = Element.zero(params)
        for i in range(1, params.n + 1):
            s = Element.isometry(params, i)
            assert (s.adjoint() * s - one).is_zero()
            total = total + s * s.adjoint()
        assert (total - one).is_zero()


def test_is_zero_examples():
    assert Element.zero(P12).is_zero()
    assert not Element.isometry(P12, 1).is_zero()
    # one-step refinement S_mu z^k S_nu* = sum_i S_mu (z^k S_i)(S_nu S_i)*
    x = Element.monomial(P23, (1,), 1, (2,))
    expanded = Element.zero(P23)
    for (i,) in all_words(P23.n, 1):
        w, k2 = push_exponent(P23, 1, (i,))
        expanded = expanded + Element.monomial(P23, (1,) + w, k2, (2, i))
    assert (x - expanded).is_zero()
    assert not (x - expanded - Element.unit(P23)).is_zero()


def test_is_zero_rejects_n1():
    p = AlgebraParams(3, 1)
    with pytest.raises(ValueError):
        Element.isometry(p, 1).is_zero()


def test_refinement_preserves_element_and_state():
    rng = random.Random(7)
    for params in (P12, P23):
        for _ in range(20):
            x = random_element(rng, params)
            level = max((len(mon.nu) for mon, _ in x.items()), default=0) + 2
            y = padded_refinement(x, level)
            assert (x - y).is_zero()
            assert x.kms_state() == y.kms_state()


def test_associativity_small_sweep():
    rng = random.Random(3)
    for _ in range(100):
        params = (P12, P23, P13)[rng.randrange(3)]
        a, b, c = (random_element(rng, params, terms=1) for _ in range(3))
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_product_adjoint_is_term_exact():
    rng = random.Random(9)
    for _ in range(60):
        params = (P12, P23)[rng.randrange(2)]
        x = random_element(rng, params)
        y = random_element(rng, params)
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()


def test_ring_operations_return_nonzero_terms():
    # the ring operations skip the validating constructor, so their term
    # dictionaries must already be merged and free of zero coefficients
    rng = random.Random(11)
    for params in (P12, P23, P35):
        for _ in range(20):
            x = random_element(rng, params, terms=3)
            y = random_element(rng, params, terms=3)
            built = (-x, x.adjoint(), x.gauge_expectation(), x * y,
                     x.canonical_endo())
            for r in built:
                assert all(not c.is_zero() for _, c in r.items())


def shift_action(x, vector):
    """x applied to a finite vector {label: QQi} of the shift representation."""
    maps = [(monomial_affine_map(x.params, mon), c) for mon, c in x.items()]
    out: dict = {}
    for q, v in vector.items():
        for f, c in maps:
            img = f.apply(q)
            if img is not None:
                out[img] = out.get(img, QQi()) + c * v
    return {q: v for q, v in out.items() if not v.is_zero()}


def test_product_acts_as_composition_in_the_shift_representation():
    # (x y) e_q = x (y e_q) on every window label: the product's terms are
    # checked against the representation, not against another product
    rng = random.Random(2401)
    nonzero = 0
    for params in (P12, P23, P35, P52):
        labels = window_labels(params.m, 12, 1 if params.m > 1 else 0)
        for _ in range(8):
            x = random_element(rng, params, terms=3)
            y = random_element(rng, params, terms=3)
            xy = x * y
            for q in labels:
                e_q = {q: QQi(1)}
                got = shift_action(xy, e_q)
                assert got == shift_action(x, shift_action(y, e_q)), (x, y, q)
                nonzero += bool(got)
    assert nonzero > 100


def test_product_checks_the_letters_it_pushes_through():
    # Element(params, terms) does not check letters; a product that pushes
    # a z-power through an out-of-range letter refuses it, on either side
    z = Element.unitary(P12, 1)
    bad_create = Element(P12, {Monomial((5,), 0, ()): 1})
    bad_annihilate = Element(P12, {Monomial((), 0, (5,)): 1})
    for left, right in ((z, bad_create), (bad_annihilate, z)):
        with pytest.raises(ValueError, match=r"^isometry index 5 outside 1\.\.2$"):
            left * right
    with pytest.raises(ValueError, match=r"^isometry index 0 outside 1\.\.2$"):
        push_exponent(P12, 1, (1, 0))


def test_exponent_bound_covers_every_product_at_m_above_n(monkeypatch):
    # the bound `Element.__mul__` checks at m > n is an upper bound: under a
    # limit one bit below the widest exponent the product forms, up to ten
    # letters and |k| <= 40, the product is refused
    rng = random.Random(31)

    def term(params):
        def word():
            return tuple(rng.randint(1, params.n)
                         for _ in range(rng.randint(0, 10)))
        return Element(params, [(Monomial(word(), rng.randint(-40, 40), word()), 1)])

    for params in (AlgebraParams(2, 1), AlgebraParams(3, 2),
                   AlgebraParams(5, 3), AlgebraParams(7, 2)):
        for _ in range(300):
            a, b = term(params), term(params)
            widest = max((abs(mon.k).bit_length() for mon, _ in (a * b).items()),
                         default=0)
            with monkeypatch.context() as patch:
                patch.setattr(algebra, "EXPONENT_BIT_LIMIT", widest - 1)
                with pytest.raises(ValueError, match="z-exponent"):
                    a * b


def test_product_refuses_an_exponent_past_the_limit_before_forming_it():
    # z S_1^L at (m, n) = (2, 1) is S_1^L z^(2^L), an (L + 1)-bit exponent
    params = AlgebraParams(2, 1)
    z = Element.unitary(params, 1)
    admitted = EXPONENT_BIT_LIMIT - 3
    prod = z * Element.monomial(params, (1,) * admitted, 0, ())
    assert [mon.k for mon, _ in prod.items()] == [2 ** admitted]
    with pytest.raises(ValueError, match=r"z-exponent of 16385 bits, more "
                                         r"than the limit of 16384$"):
        z * Element.monomial(params, (1,) * (admitted + 1), 0, ())
    # at m < n the exponent stays small however long the word
    params = AlgebraParams(2, 3)
    prod = (Element.unitary(params, 1)
            * Element.monomial(params, (3,) * 10 * EXPONENT_BIT_LIMIT, 0, ()))
    assert [abs(mon.k) for mon, _ in prod.items()] == [2]


def test_generator_constructors_match_the_validating_constructor():
    for params in (P12, P23, AlgebraParams(3, 1)):
        one = QQi.of(1)
        assert Element.unit(params) == Element(params, {Monomial((), 0, ()): one})
        for i in range(1, params.n + 1):
            assert Element.isometry(params, i) == Element(
                params, {Monomial((i,), 0, ()): one})
        for k in (-3, 0, 1, 7):
            assert Element.unitary(params, k) == Element(
                params, {Monomial((), k, ()): one})
        assert Element.unitary(params, 1) == Element(params, [(Monomial((), 1, ()), 1)])
        with pytest.raises(ValueError):
            Element.isometry(params, params.n + 1)


def test_gauge_degree_additive_under_mul():
    rng = random.Random(13)
    for _ in range(200):
        params = (P12, P23, P35)[rng.randrange(3)]
        a = Monomial(tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2))),
                     rng.randint(-3, 3),
                     tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2))))
        b = Monomial(tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2))),
                     rng.randint(-3, 3),
                     tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2))))
        prod = mul_monomials(params, a, b)
        if prod is not None:
            assert prod.gauge_degree() == a.gauge_degree() + b.gauge_degree()


def test_canonical_endo():
    for params in (P12, P23):
        one = Element.unit(params)
        img = one.canonical_endo()
        assert img.term_count() == params.n
        assert (img - one).is_zero()
        assert not Element.zero(params).canonical_endo()
    rng = random.Random(17)
    for _ in range(40):
        x = random_element(rng, P12, terms=1)
        y = random_element(rng, P12, terms=1)
        assert ((x * y).canonical_endo()
                - x.canonical_endo() * y.canonical_endo()).is_zero()


def test_canonical_endo_lifts_every_term_without_merging():
    rng = random.Random(23)
    for params in (P12, P23, P35, AlgebraParams(5, 2)):
        for _ in range(20):
            x = random_element(rng, params, terms=4)
            img = x.canonical_endo()
            assert img.term_count() == params.n * x.term_count()
            lifts = [(Monomial((i,) + mon.mu, mon.k, (i,) + mon.nu), c)
                     for mon, c in x.items() for i in range(1, params.n + 1)]
            assert img == Element(params, lifts)


def test_gauge_expectation():
    zk = Element.unitary(P12, 3)
    assert zk.gauge_expectation() == zk
    assert not Element.isometry(P12, 1).gauge_expectation()
    mixed = Element.monomial(P12, (1,), 1, (1,)) + Element.isometry(P12, 1)
    assert mixed.gauge_expectation() == Element.monomial(P12, (1,), 1, (1,))


def test_kms_state_examples():
    for params in (P12, P23, P13):
        assert Element.unit(params).kms_state() == QQi.of(1)
        s1 = Element.isometry(params, 1)
        assert (s1 * s1.adjoint()).kms_state() == QQi.of(Fraction(1, params.n))
        assert Element.monomial(params, (1,), 1, (1,)).kms_state() == QQi()


def test_kms_state_respects_is_zero():
    # the state must take equal values on equal elements, not equal triples
    rng = random.Random(21)
    for _ in range(30):
        x = random_element(rng, P23)
        level = max((len(mon.nu) for mon, _ in x.items()), default=0) + 1
        assert x.kms_state() == padded_refinement(x, level).kms_state()


def test_kms_identity_orientation():
    # moving a homogeneous factor from front to back costs n^{-degree}
    s1 = Element.isometry(P12, 1)
    lhs = (s1 * s1.adjoint()).kms_state()
    rhs = (s1.adjoint() * s1).kms_state()
    assert lhs == rhs * Fraction(1, 2)


def test_serialization_round_trip():
    rng = random.Random(23)
    for _ in range(20):
        x = random_element(rng, P35, terms=3)
        blob = json.dumps(x.to_json_obj())
        assert Element.from_json_obj(P35, json.loads(blob)) == x
    rec = Element.monomial(P12, (1,), -2, (2,),
                           coeff=QQi(Fraction(1, 3), Fraction(-2, 7))).to_json_obj()
    assert rec == [{"mu": [1], "k": -2, "nu": [2], "re": "1/3", "im": "-2/7"}]


@pytest.mark.parametrize("bad", [
    5, "x", None, [1], {"mu": [1], "k": 0},
    {"mu": [1], "k": 1e400, "nu": []}, {"mu": [1], "k": 1.5, "nu": []},
    {"mu": [1], "k": True, "nu": []}, {"mu": [1], "k": "3", "nu": []},
    {"mu": [1], "k": None, "nu": []}, {"mu": [True], "k": 0, "nu": []},
    {"mu": 5, "k": 0, "nu": []}, {"mu": [0], "k": 0, "nu": []},
    {"mu": [1.0], "k": 0, "nu": []}, {"mu": [], "k": 0, "nu": "1"},
    {"mu": [], "k": 0, "nu": [], "re": 5}, {"mu": [], "k": 0, "nu": [], "im": None},
    {"mu": [], "k": 0, "nu": [], "re": "1/0"}, {"mu": [], "k": 0, "nu": [], "im": "x"},
])
def test_from_json_obj_rejects_malformed_terms(bad):
    # a malformed term is a ValueError, never a coerced value or another error
    with pytest.raises(ValueError):
        Element.from_json_obj(P12, [{"mu": [1], "k": 0, "nu": []}, bad])
    if isinstance(bad, dict) and not ({"re", "im"} & bad.keys()):
        with pytest.raises(ValueError):
            monomial_from_json_obj(P12, bad)


def test_from_json_obj_needs_a_term_list():
    for obj in ({"mu": [], "k": 0, "nu": []}, 5, "[]", None):
        with pytest.raises(ValueError):
            Element.from_json_obj(P12, obj)
    mon = monomial_from_json_obj(P12, {"mu": [2], "k": -3, "nu": [1, 2]})
    assert mon == Monomial((2,), -3, (1, 2))


# -- the zero test against two independent oracles -------------------------

P52 = AlgebraParams(5, 2)


def perturbed(rng, x):
    """x with one coefficient moved by a nonzero amount."""
    mon, _ = rng.choice(sorted(x.items()))
    return x + Element(x.params, {mon: QQi(Fraction(rng.choice((-1, 1)),
                                                    rng.randint(1, 3)))})


def zero_test_cases(rng, params):
    """Associator differences and x - refine(x), each with a perturbed twin.

    One factor of each associator is refined first, so the difference
    cancels only in the algebra, not term by term.
    """
    for _ in range(3):
        a, b, c = (random_element(rng, params) for _ in range(3))
        level = max((len(mon.nu) for mon, _ in c.items()), default=0) + 1
        assoc = (a * b) * c - a * (b * padded_refinement(c, level))
        x = random_element(rng, params, terms=3)
        level = max((len(mon.nu) for mon, _ in x.items()), default=0) + 1
        refined = padded_refinement(x, level)
        for zero in (assoc, x - refined):
            yield zero
            yield perturbed(rng, zero) if zero else zero + a


def shift_witness(x, labels):
    """A label q with x e_q != 0 in the shift representation, or None."""
    maps = [(monomial_affine_map(x.params, mon), c) for mon, c in x.items()]
    for q in labels:
        buckets: dict = {}
        for f, c in maps:
            img = f.apply(q)
            if img is not None:
                buckets[img] = buckets.get(img, QQi()) + c
        if any(not v.is_zero() for v in buckets.values()):
            return q
    return None


def test_is_zero_matches_refinement_and_shift_representation():
    seen = {True: 0, False: 0}
    for seed, params in enumerate((P12, P23, P35, P52)):
        rng = random.Random(seed)
        for x in zero_test_cases(rng, params):
            verdict = x.is_zero()
            seen[verdict] += 1
            level = max((len(mon.nu) for mon, _ in x.items()), default=0)
            # (a) padding every term to the longest nu leaves nothing
            assert verdict == (not padded_refinement(x, level))
            # (b) a label in the range of S_nu needs a numerator window
            # covering every residue mod n^level
            labels = window_labels(params.m, params.n ** level + 4,
                                   1 if params.m > 1 else 0)
            witness = shift_witness(x, labels)
            assert verdict == (witness is None), (params, x, witness)
    assert seen[True] >= 20 and seen[False] >= 20


def chain_zero(params, branches):
    """S_mu z^k S_nu* minus its expansion by sum_d S_d S_d* = 1 along one branch.

    Each step rewrites the current monomial as n monomials with one more
    annihilation letter and keeps expanding the one on the chosen branch,
    so |nu| runs from 0 to len(branches) inside one element that sums to
    zero.
    """
    mu, k, nu = (2,), 5, ()
    terms = [(Monomial(mu, k, nu), QQi.of(1))]
    for branch in branches:
        nxt = None
        for d in range(1, params.n + 1):
            jp, kp = shift_oracle(params, k, d)
            mon = Monomial(mu + (jp,), kp, nu + (d,))
            if d == branch:
                nxt = mon
            else:
                terms.append((mon, QQi.of(-1)))
        mu, k, nu = nxt
    terms.append((Monomial(mu, k, nu), QQi.of(-1)))
    return Element(params, terms)


def test_is_zero_on_deep_annihilation_words():
    # |nu| spans 0..22 at n = 3: full refinement would pad to 3^22 terms
    rng = random.Random(29)
    branches = [rng.randint(1, 3) for _ in range(22)]
    zero = chain_zero(P13, branches)
    assert {len(mon.nu) for mon, _ in zero.items()} == set(range(23))
    assert zero.is_zero()
    for _ in range(5):
        assert not perturbed(rng, zero).is_zero()
