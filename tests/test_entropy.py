"""Dimension growth of refined windows and the matrix compression map."""

import math
import random
from fractions import Fraction as F
from time import perf_counter

import pytest

from omnalg.algebra import (AlgebraParams, Element, Monomial, _expand,
                            all_words, mul_monomials)
from omnalg.entropy import (FOREST_NODE_LIMIT, _comparable_indices,
                            entropy_estimate, monomial_window, rho_matrix,
                            window_size)
from omnalg.exact import QQi, bounded_power
from oracles import padded_refinement, parent

P12 = AlgebraParams(1, 2)
P13 = AlgebraParams(1, 3)


def test_window_size_closed_form():
    assert window_size(P12, 0) == 3
    assert window_size(P12, 1) == 45
    assert window_size(P13, 0) == 3
    assert window_size(P13, 1) == 112
    for params in (P12, P13):
        for s in (0, 1, 2):
            geo = sum(params.n ** a for a in range(s + 1))
            assert window_size(params, s) == geo * geo * (2 * params.n ** s + 1)
    assert window_size(AlgebraParams(1, 1), 10 ** 9) == (10 ** 9 + 1) ** 2 * 3


def test_monomial_window_contents():
    assert monomial_window(P12, 0) == [Monomial((), -1, ()), Monomial((), 0, ()),
                                       Monomial((), 1, ())]
    for params, s in ((P12, 1), (P13, 1), (P12, 2)):
        window = monomial_window(params, s)
        assert len(window) == window_size(params, s)
        assert len(set(window)) == len(window)
        for mon in window:
            assert len(mon.mu) <= s and len(mon.nu) <= s
            assert abs(mon.k) <= params.n ** s
    # the window has no limit of its own: these are refused by the forest
    # node estimate before any window is built, the second without 2^(10^7)
    assert window_size(P12, 5) == 257_985
    with pytest.raises(ValueError, match="forest node estimate"):
        entropy_estimate(P12, 5, 1)
    with pytest.raises(ValueError, match="forest node estimate"):
        entropy_estimate(P12, 10 ** 7, 1)


def test_window_past_200000_is_refused_by_the_estimate():
    # the estimate is at least s + 1 times the window, and a window of more
    # than 3 monomials has s >= 1, so a window past 200 000 monomials
    # weighs more than 2^18; each of these is refused before it is built
    refused = 0
    for n in range(2, 13):
        params = AlgebraParams(1, n)
        for s in range(7):
            if window_size(params, s) <= 200_000:
                continue
            for n_max in range(1, 13):
                with pytest.raises(ValueError, match="forest node estimate"):
                    entropy_estimate(params, s, n_max)
                refused += 1
    # 47 of the 77 (n, s) pairs, at each of 12 depths
    assert refused == 47 * 12


def test_bounded_power_matches_power():
    for base in (1, 2, 3, 7):
        for exp in range(12):
            for bound in (0, 1, 2, 100, 3 ** 7):
                want = base ** exp if base ** exp <= bound else None
                assert bounded_power(base, exp, bound) == want
    assert bounded_power(2, 10 ** 12, 5_000_000) is None
    assert bounded_power(1, 10 ** 12, 1) == 1


# -- reference rank: dense elimination over Q on Fractions -----------------


def fraction_rank(rows):
    """Rank over Q of sparse rows {key: Fraction}, by Gauss-Jordan."""
    keys = sorted({key for row in rows for key in row})
    mat = [[F(row.get(key, 0)) for key in keys] for row in rows]
    rank = 0
    for col in range(len(keys)):
        pick = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pick is None:
            continue
        mat[rank], mat[pick] = mat[pick], mat[rank]
        lead = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / lead
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_entropy_dimensions_are_ranks_of_the_refined_rows():
    # an oracle independent of the forest argument: each depth's members
    # refined by `padded_refinement`, ranked over Q by dense elimination,
    # on a seeded handful of small admitted requests
    candidates = [(n, s, n_max) for n in (2, 3) for s in (0, 1)
                  for n_max in range(1, 5)
                  if window_size(AlgebraParams(1, n), s)
                  * (n ** n_max - 1) // (n - 1) <= 120]
    random.Random(2525).shuffle(candidates)
    for n, s, n_max in candidates[:6]:
        params = AlgebraParams(1, n)
        level = n_max - 1 + s
        rows, ranks = [], []
        batch = monomial_window(params, s)
        for _ in range(n_max):
            for mon in batch:
                refined = padded_refinement(
                    Element.monomial(params, mon.mu, mon.k, mon.nu), level)
                assert all(c.im == 0 for _, c in refined.items())
                rows.append({term: c.re for term, c in refined.items()})
            ranks.append(fraction_rank(rows))
            batch = [Monomial((i,) + mon.mu, mon.k, (i,) + mon.nu)
                     for mon in batch for i in range(1, n + 1)]
        assert entropy_estimate(params, s, n_max).dimensions() == ranks, (n, s, n_max)


# -- reference count: the per-member forest walk, one call per node -------


def ref_has_private_part(params, member, members, above):
    """Whether a member's refinement keeps a term no member below it covers.

    The walk of `entropy_estimate`, through `parent` and `_expand` as
    written: a member not in `above` keeps its whole refinement; otherwise
    a member child is covered, a child in neither set is the member's own,
    and a child in `above` is walked in turn.
    """
    if member not in above:
        return True
    stack = [member]
    while stack:
        for child, _ in _expand(params, ((stack.pop(), 1),)):
            if child in members:
                continue
            if child not in above:
                return True
            stack.append(child)
    return False


def ref_forest_dimensions(params, s, n_max):
    """The growth table's dimensions, one `parent` call per ancestor step
    and one `_expand` per node walked."""
    members, above, dims = set(), set(), []
    batch = monomial_window(params, s)
    for depth in range(1, n_max + 1):
        if depth > 1:
            batch = [Monomial((i,) + mon.mu, mon.k, (i,) + mon.nu)
                     for mon in batch for i in range(1, params.n + 1)]
        for mon in batch:
            members.add(mon)
            up = parent(params, mon)
            while up is not None and up not in above:
                above.add(up)
                up = parent(params, up)
        dims.append(sum(ref_has_private_part(params, mon, members, above)
                        for mon in members))
    return dims


def admitted_requests(node_cap):
    """(n, s, n_max) with n <= 2 999 and s <= 24 whose forest node estimate
    M (level + 1) is at most `node_cap`, within the limit."""
    assert node_cap <= FOREST_NODE_LIMIT
    out = []
    for n in range(2, 3000):
        params = AlgebraParams(1, n)
        for s in range(25):
            if window_size(params, s) > node_cap:
                break
            for n_max in range(1, 40):
                members = window_size(params, s) * (n ** n_max - 1) // (n - 1)
                if members * (n_max + s) > node_cap:
                    break
                out.append((n, s, n_max))
    return out


def test_entropy_dimensions_match_the_per_member_walk():
    # a seeded sweep, bounded in time, over the admitted requests of at most
    # 2^16 forest nodes, taken in turn from each shape: s = 0 or s > 0, one
    # depth or more
    strata = {}
    for n, s, n_max in admitted_requests(1 << 16):
        strata.setdefault((s > 0, n_max > 1), []).append((n, s, n_max))
    assert len(strata) == 4
    rng = random.Random(2828)
    for group in strata.values():
        rng.shuffle(group)
    order = [req for group in zip(*strata.values()) for req in group]
    deadline = perf_counter() + 3.0
    done = 0
    for n, s, n_max in order:
        params = AlgebraParams(1, n)
        assert (entropy_estimate(params, s, n_max).dimensions()
                == ref_forest_dimensions(params, s, n_max)), (n, s, n_max)
        done += 1
        if perf_counter() > deadline:
            break
    assert done >= 4 * 5


def test_entropy_dimensions_frozen():
    # criterion 7's sizes
    t2 = entropy_estimate(P12, 0, 8)
    assert t2.dimensions() == [3, 8, 18, 38, 78, 158, 318, 638]
    t3 = entropy_estimate(P13, 0, 6)
    assert t3.dimensions() == [3, 11, 35, 107, 323, 971]
    assert not t2.truncated


def test_entropy_growth_rate_approaches_log_n():
    t = entropy_estimate(P12, 0, 7)
    assert t.rows[0].slope is None
    for row in t.rows[-3:]:
        assert abs(row.slope - math.log(2)) < 0.05 * math.log(2)
    assert t.growth_rate == t.rows[-1].slope
    blob = t.to_json_obj()
    assert blob["log_n"] == math.log(2)
    assert [r["dimension"] for r in blob["rows"]] == t.dimensions()


def test_entropy_requires_one_dimensional_base():
    with pytest.raises(ValueError, match="m = 1"):
        entropy_estimate(AlgebraParams(2, 3), 0, 3)
    with pytest.raises(ValueError, match="n >= 2"):
        entropy_estimate(AlgebraParams(1, 1), 0, 10 ** 12)


def test_entropy_truncation_is_reported():
    # no table is cut short, but every table reports that it is whole:
    # report files carry both keys and the algebra-deep gate reads `truncated`
    t = entropy_estimate(P12, 1, 8)
    assert t.dimensions() == [40, 110, 250, 530, 1090, 2210, 4450, 8930]
    blob = t.to_json_obj()
    assert blob["truncated"] is False and blob["warning"] is None


def ref_admitted_depths(params, s):
    """The depths n_max whose M (level + 1) stays within the limit, M the
    members of all n_max depths, counted batch by batch.

    M (level + 1) grows with n_max, so the first depth past the limit ends
    the list.  Each monomial of a batch gives n of the next, so a batch
    that would pass the limit is not built.
    """
    n = params.n
    batch = monomial_window(params, s)
    members = len(batch)
    depths = []
    while members * (len(depths) + 1 + s) <= FOREST_NODE_LIMIT:
        depths.append(len(depths) + 1)
        if (members + n * len(batch)) * (len(depths) + 1 + s) > FOREST_NODE_LIMIT:
            break
        batch = [Monomial((i,) + mon.mu, mon.k, (i,) + mon.nu)
                 for mon in batch for i in range(1, n + 1)]
        members += len(batch)
    return depths


def test_entropy_depths_match_counting_each_batch():
    answered = 0
    for n in (2, 3, 5):
        params = AlgebraParams(1, n)
        for s in (0, 1):
            depths = ref_admitted_depths(params, s)
            refused = False
            for n_max in [*range(1, 26), 10 ** 12]:
                try:
                    t = entropy_estimate(params, s, n_max)
                except ValueError as exc:
                    assert n_max not in depths, (n, s, n_max)
                    assert str(exc).startswith("forest node estimate")
                    refused = True
                    continue
                # once refused, every deeper request is refused too
                assert n_max in depths and not refused, (n, s, n_max)
                assert [row.depth for row in t.rows] == list(range(1, n_max + 1))
                assert t.truncated is False
                answered += 1
    assert answered == 43


@pytest.mark.parametrize("n, s, n_max", [(2, 0, 14), (2, 0, 20), (2, 0, 13),
                                         (3, 0, 9), (2, 3, 4)])
def test_entropy_refuses_past_the_work_limit_before_any_row(n, s, n_max):
    start = perf_counter()
    with pytest.raises(ValueError, match="forest node estimate") as info:
        entropy_estimate(AlgebraParams(1, n), s, n_max)
    assert perf_counter() - start < 1.0
    assert str(FOREST_NODE_LIMIT) in str(info.value)


def test_entropy_work_limit_admits_depth_ten_at_n_two():
    # the deepest table admitted at n = 2, s = 0 before the forest node
    # limit; it stays admitted, with the same last dimension
    assert entropy_estimate(P12, 0, 10).dimensions()[-1] == 2558


def test_entropy_node_limit_admits_its_largest_tables():
    # the largest depth admitted at n = 2, s = 0 (estimate 3 x 4 095 x 12
    # = 147 420); criterion 7's sizes are in test_entropy_dimensions_frozen
    assert entropy_estimate(P12, 0, 12).dimensions()[-1] == 10238
    # 3 x 16 105 members x 5 = 241 575, within one level of the limit
    assert len(entropy_estimate(AlgebraParams(1, 11), 0, 5).rows) == 5
    with pytest.raises(ValueError, match="forest node estimate 319449 "
                       r"\(24573 members, level 12\) exceeds the limit 262144"):
        entropy_estimate(P12, 0, 13)


def rho_mul(A, B, params):
    size = len(A)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = Element.zero(params)
            for t in range(size):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def test_rho_matrix_shape_and_report():
    mat, report = rho_matrix(P12, Monomial((1,), 0, ()), 2, 1, s=1)
    assert report["pass"]
    assert report["size"] == 4 and len(mat) == 4 and len(mat[0]) == 4
    assert report["consecutive"] and report["partial_permutations"]
    mat3, report3 = rho_matrix(P13, Monomial((2,), 1, (1,)), 2, 1, s=1)
    assert report3["pass"] and report3["size"] == 9


def test_rho_matrix_is_multiplicative():
    rng = random.Random(67)
    window = [mon for mon in monomial_window(P12, 1)]
    done = 0
    while done < 10:
        a = window[rng.randrange(len(window))]
        b = window[rng.randrange(len(window))]
        ab = mul_monomials(P12, a, b)
        if ab is None or len(ab.mu) > 1 or len(ab.nu) > 1 or abs(ab.k) > 2:
            continue
        Ma, _ = rho_matrix(P12, a, 3, 1, s=1)
        Mb, _ = rho_matrix(P12, b, 3, 1, s=1)
        Mab, _ = rho_matrix(P12, ab, 3, 1, s=1)
        prod = rho_mul(Ma, Mb, P12)
        assert all((prod[i][j] - Mab[i][j]).is_zero()
                   for i in range(8) for j in range(8))
        done += 1


def test_rho_matrix_respects_adjoints():
    for mon in (Monomial((1,), 0, ()), Monomial((2,), 1, (1,)),
                Monomial((), -2, ())):
        size = 2 ** 3
        star = Monomial(mon.nu, -mon.k, mon.mu)
        M, _ = rho_matrix(P12, mon, 3, 1, s=1)
        Mstar, _ = rho_matrix(P12, star, 3, 1, s=1)
        assert all((Mstar[i][j] - M[j][i].adjoint()).is_zero()
                   for i in range(size) for j in range(size))


def test_rho_matrix_validates_window_bounds():
    with pytest.raises(ValueError, match="word length"):
        rho_matrix(P12, Monomial((1, 1), 0, ()), 3, 1, s=1)
    with pytest.raises(ValueError, match="exponent"):
        rho_matrix(P12, Monomial((), 3, ()), 3, 1, s=1)
    with pytest.raises(ValueError, match="iteration depth"):
        rho_matrix(P12, Monomial((1,), 0, ()), 3, 3, s=1)
    with pytest.raises(ValueError, match="m = 1"):
        rho_matrix(AlgebraParams(2, 3), Monomial((1,), 0, ()), 3, 1, s=1)


def test_rho_matrix_base_exponent_at_the_window_edge():
    # |q| = n^s on both branches of `base_exponent_bounded`: two exponents
    # q, q + 1, and a single one of either sign.  No exponent passes the
    # input's |k| (each push through a letter divides it by n, rounding
    # down), so |q - 1| <= n^s never decides the single-exponent branch
    rng = random.Random(2616)
    edges = set()
    for _ in range(120):
        params = rng.choice((P12, P13))
        n = params.n
        s = rng.randint(0, 1)
        mu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, s)))
        nu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, s)))
        k = rng.choice((n ** s, -(n ** s)))
        r = s + rng.randint(1, 2)
        _, report = rho_matrix(params, Monomial(mu, k, nu), r,
                               rng.randint(1, r - s), s=s)
        exps = report["exponents"]
        assert all(abs(e) <= abs(k) for e in exps)
        if exps and abs(exps[0]) == n ** s:
            assert report["base_exponent_bounded"] and report["pass"]
            edges.add((len(exps), exps[0] > 0))
    assert edges == {(2, False), (1, False), (1, True)}


def test_rho_matrix_exponents_stay_within_the_input_exponent():
    # the fact that lets `base_exponent_bounded` read one exponent: pushing
    # z^k through a letter gives floor((j - 1 + k)/n), no larger than |k|
    # in size, and the lifts carry z^0, so every entry's exponent is at
    # most |k| in size
    rng = random.Random(2727)
    tuples = 0
    for _ in range(240):
        params = rng.choice((P12, P13))
        n = params.n
        s = rng.randint(0, 2)
        mu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, s)))
        nu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, s)))
        k = rng.randint(-(n ** s), n ** s)
        r = s + rng.randint(1, 2 if n == 2 else 1)
        matrix, _ = rho_matrix(params, Monomial(mu, k, nu), r,
                               rng.randint(1, r - s), s=s)
        exps = [t.k for row in matrix for entry in row for t, _ in entry.items()]
        assert max(map(abs, exps), default=0) <= abs(k), (n, mu, k, nu, r)
        tuples += 1
    assert tuples >= 200


def ref_rho_matrix(params, mon, r, l, s):
    """`rho_matrix` as a dense double loop that forms every entry."""
    x = Element.monomial(params, mon.mu, mon.k, mon.nu)
    for _ in range(l):
        x = x.canonical_endo()
    words = list(all_words(params.n, r))
    lifts = [Element.monomial(params, w, 0, ()) for w in words]
    surplus = len(mon.mu) - len(mon.nu)
    want_mu, want_nu = max(surplus, 0), max(-surplus, 0)
    matrix, groups, entries_ok, nonzero = [], {}, True, 0
    for i in range(len(words)):
        row = []
        left = lifts[i].adjoint() * x
        for j in range(len(words)):
            entry = left * lifts[j]
            row.append(entry)
            if not entry:
                continue
            nonzero += 1
            terms = list(entry.items())
            if len(terms) != 1:
                entries_ok = False
                continue
            emon, coeff = terms[0]
            if (len(emon.mu) != want_mu or len(emon.nu) != want_nu
                    or coeff != QQi.of(1)):
                entries_ok = False
                continue
            groups.setdefault(emon, []).append((i, j))
        matrix.append(row)
    exps = sorted({g.k for g in groups})
    consecutive = (len(exps) <= 1
                   or (len(exps) == 2 and exps[1] == exps[0] + 1))
    kbound = params.n ** s
    if not exps:
        q_bound_ok = True
    elif len(exps) == 2:
        q_bound_ok = abs(exps[0]) <= kbound
    else:
        q_bound_ok = abs(exps[0]) <= kbound or abs(exps[0] - 1) <= kbound
    partial_perm = all(
        len({i for i, _ in pos}) == len(pos) == len({j for _, j in pos})
        for pos in groups.values())
    report = {
        "size": len(words),
        "nonzero_entries": nonzero,
        "surplus_word_length": surplus,
        "entries_well_formed": entries_ok,
        "exponents": exps,
        "consecutive": consecutive,
        "base_exponent_bounded": q_bound_ok,
        "partial_permutations": partial_perm,
        "pass": entries_ok and consecutive and q_bound_ok and partial_perm,
    }
    return matrix, report


def assert_rho_matches_reference(params, mon, r, l, s):
    got = rho_matrix(params, mon, r, l, s=s)
    assert got == ref_rho_matrix(params, mon, r, l, s)
    return got[1]


def test_rho_matrix_matches_the_dense_loop():
    rng = random.Random(919)
    shapes = set()
    for params in (P12, P13):
        n = params.n
        for _ in range(40 if n == 2 else 24):
            s = rng.randint(1, 2)
            # |mu| > |nu| and |mu| < |nu| both occur, and so do equal ones
            mu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, s)))
            nu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, s)))
            k = rng.randint(-(n ** s), n ** s)
            r = s + rng.randint(1, 3 if n == 2 else 2) + rng.randint(0, 1)
            l = rng.randint(1, r - s)
            assert_rho_matches_reference(params, Monomial(mu, k, nu), r, l, s)
            shapes.add((n, (len(mu) > len(nu)) - (len(mu) < len(nu)), r - s - l))
    assert {(n, sign, e) for n in (2, 3) for sign in (-1, 0, 1)
            for e in (0, 1)} <= shapes


def test_rho_matrix_matches_the_dense_loop_on_the_benchmark_shapes():
    # (s, l, r) with r = s + l and s + l + 1, |mu| = s, |nu| = s - 1
    rng = random.Random(1401)
    for s in (1, 2):
        for l in (1, 2, 3):
            for r in (s + l, s + l + 1):
                mu = tuple(rng.randint(1, 2) for _ in range(s))
                nu = tuple(rng.randint(1, 2) for _ in range(s - 1))
                k = rng.randint(-(2 ** s), 2 ** s)
                report = assert_rho_matches_reference(
                    P12, Monomial(mu, k, nu), r, l, s)
                assert report["pass"]


def test_comparable_indices_are_the_comparable_words():
    rng = random.Random(17)
    for n, r in ((2, 1), (2, 4), (3, 3), (5, 2)):
        words = list(all_words(n, r))
        for _ in range(30):
            given = [tuple(rng.randint(1, n) for _ in range(rng.randint(0, r + 2)))
                     for _ in range(rng.randint(0, 3))]
            want = [i for i, w in enumerate(words)
                    if any(w[:len(b)] == b or b[:r] == w for b in given)]
            assert _comparable_indices(n, r, given) == want
