"""The bundled acceptance sweep: nine numbered criteria, one report each.

Each ``criterion_<i>`` function runs a self-contained batch of checks and
returns a JSON-safe dict with a ``pass`` flag, the number of individual
checks performed, and enough detail to see what failed.  ``run_all``
executes a subset (default: all nine) under a fixed seed and
``summary_table`` renders the one-line-per-criterion overview the
``reproduce`` subcommand prints.

The randomized sweeps draw everything from a single seeded generator, so
a report is reproducible from its seed alone.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from math import gcd
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from . import actions
from . import ktheory
from . import projection
from . import representations
from .algebra import AlgebraParams, Element, Monomial
from .entropy import entropy_estimate, rho_matrix
from .exact import QQi

DEFAULT_SEED = 1729


# -- criterion 1: K-group tables ------------------------------------------


def criterion_1(seed: int = DEFAULT_SEED) -> dict:
    """Closed-form K-groups for the three parameter families, both methods."""
    checked = 0
    failures: List[str] = []

    def expect(m: int, n: int, want0: ktheory.FGAbelianGroup,
               want1: ktheory.FGAbelianGroup) -> None:
        nonlocal checked
        checked += 1
        report = ktheory.kgroups_by_method(m, n)
        six = report["six_term"]
        if six != (want0, want1):
            failures.append(f"({m},{n}): six-term gave {six[0]}, {six[1]}; "
                            f"wanted {want0}, {want1}")
        if not report["pass"]:
            pv = report["pv"]
            failures.append(f"({m},{n}): six-term {six[0]}, {six[1]} but "
                            f"dual-action splice {pv[0]}, {pv[1]}")

    free = ktheory.FGAbelianGroup(1, ())
    for n in range(2, 13):
        expect(1, n, ktheory.FGAbelianGroup(1, ktheory.invariant_factors([n - 1])),
               free)
    for m in range(2, 13):
        expect(m, 1, free,
               ktheory.FGAbelianGroup(1, ktheory.invariant_factors([m - 1])))
    for m in range(2, 13):
        for n in range(2, 13):
            if gcd(m, n) == 1:
                expect(m, n,
                       ktheory.FGAbelianGroup(0, ktheory.invariant_factors([n - 1])),
                       ktheory.FGAbelianGroup(0, ktheory.invariant_factors([m - 1])))

    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures}}


# -- criterion 2: the projection ------------------------------------------


def criterion_2(seed: int = DEFAULT_SEED) -> dict:
    """Exact projection identities plus the numeric squaring residual."""
    report = projection.verify(projection.build_canonical_data())
    conditions, square = report["conditions"], report["square"]
    return {
        "pass": report["pass"],
        "checked": len(conditions["identities"]) + 3,
        "details": {
            "conditions": conditions["pass"],
            "failed_identities": [name for name, rec
                                  in conditions["identities"].items()
                                  if not rec["pass"]],
            "trace": report["trace"],
            "k0_class": report["k0_class"],
            "grid": square["grid"],
            "residual": square["residual"],
            "residual_doubled": square["residual_doubled"],
            "grid_stable": square["grid_stable"],
            "self_adjoint_defect": square["self_adjoint_defect"],
        },
    }


# -- criterion 3: fixed-point rewriting -----------------------------------


def _random_fixed_monomial(rng: random.Random, params: AlgebraParams) -> Monomial:
    mod = actions.rotation_modulus(params)
    mu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 3)))
    nu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 3)))
    k = rng.randint(-8, 8)
    weight = actions.rotation_weight(params, Monomial(mu, k, nu))
    return Monomial(mu, k + (-weight) % mod, nu)  # push the weight to 0


def criterion_3(seed: int = DEFAULT_SEED) -> dict:
    """Seeded weight-zero monomials rewrite over the fixed-point generators."""
    rng = random.Random(seed)
    checked = 0
    failures: List[str] = []
    for m, n in ((1, 3), (2, 5), (3, 5)):
        params = AlgebraParams(m, n)
        for _ in range(1000):
            mon = _random_fixed_monomial(rng, params)
            checked += 1
            word = actions.fixed_point_rewrite(params, mon)
            if not word.represents(mon):
                failures.append(f"({m},{n}) {mon}: round trip failed")
    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures[:5],
                        "failure_count": len(failures)}}


# -- criterion 4: subalgebra witnesses ------------------------------------


def criterion_4(seed: int = DEFAULT_SEED) -> dict:
    """Relation families for the (z, S_1^k) and (z^k, S_1) generators."""
    checked = 0
    failures: List[str] = []
    for m, n in ((1, 2), (2, 3)):
        params = AlgebraParams(m, n)
        runs = [(actions.subalgebra_witness_power, k) for k in (1, 2, 3)]
        runs += [(actions.subalgebra_witness_zk, k) for k in range(1, 8)
                 if gcd(k, n) == 1]
        for witness, k in runs:
            checked += 1
            report = witness(params, k)
            if not report["pass"]:
                bad = [r for r, rec in report["relations"].items()
                       if not rec["ok"]]
                failures.append(f"{report['kind']} ({m},{n}) k={k}: {bad}")
    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures}}


# -- criterion 5: flip fixed-point K-theory --------------------------------


def _solve_rational(mat: Sequence[Sequence[int]],
                    rhs: Sequence[int]) -> List[Fraction]:
    """Solve a nonsingular square integer system exactly."""
    size = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(size)] + [Fraction(rhs[i])]
           for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][size] for i in range(size)]


def _brute_force_coker_orders(mat: Sequence[Sequence[int]]) -> List[int]:
    """Element orders of Z^3/im(M) for nonsingular M, by subgroup closure.

    v -> M^{-1}v identifies the quotient with the subgroup of (Q/Z)^3
    generated by the columns of M^{-1}; the additive order of a rational
    tuple mod 1 is the lcm of its denominators.
    """
    size = len(mat)
    gens = []
    for j in range(size):
        col = _solve_rational(mat, [int(i == j) for i in range(size)])
        gens.append(tuple(v % 1 for v in col))
    zero = tuple(Fraction(0) for _ in range(size))
    group = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % 1 for a, b in zip(base, g))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    def order(v):
        return math.lcm(*(c.denominator for c in v))
    return sorted(order(v) for v in group)


def _fg_order_multiset(g: ktheory.FGAbelianGroup) -> List[int]:
    """Element orders of a finite group given by invariant factors."""
    if g.free_rank:
        raise ValueError("group is infinite")
    out = []
    for combo in product(*(range(f) for f in g.torsion)):
        out.append(math.lcm(*(f // gcd(a, f)
                              for a, f in zip(combo, g.torsion))) if combo
                   else 1)
    return sorted(out) if out else [1]


def criterion_5(seed: int = DEFAULT_SEED) -> dict:
    """Flip fixed-point K-groups: published match, flagged discrepancy."""
    checked = 0
    failures: List[str] = []
    for n in range(2, 11):
        for parity in ("odd", "even"):
            rep = ktheory.symmetry_fixed_kgroups(parity, n)
            mat = rep["matrix"]
            checked += 1
            u, d, v = ktheory.smith_normal_form(mat)
            if ktheory.mat_mul(ktheory.mat_mul(u, mat), v) != d:
                failures.append(f"{parity} n={n}: U*M*V != D")
            if abs(ktheory.determinant(u)) != 1 or abs(ktheory.determinant(v)) != 1:
                failures.append(f"{parity} n={n}: transform not unimodular")
            if not rep["pass"]:
                failures.append(f"{parity} n={n}: K0, K1 = {rep['computed_k0']}, "
                                f"{rep['computed_k1']}; published "
                                f"{rep['reference_k0']}, {rep['reference_k1']}")
            if parity == "even":
                # the even computation genuinely departs from the published
                # single cyclic group once n > 2; the report must say so
                expect_agree = n == 2
                if rep["agrees_k0"] != expect_agree:
                    failures.append(f"even n={n}: discrepancy flag wrong "
                                    f"(agrees_k0={rep['agrees_k0']})")
    for n in range(2, 6):
        rep = ktheory.symmetry_fixed_kgroups("even", n)
        checked += 1
        brute = _brute_force_coker_orders(rep["matrix"])
        expected = _fg_order_multiset(rep["computed_k0"])
        if brute != expected:
            failures.append(f"even n={n}: brute-force orders {brute} != "
                            f"SNF orders {expected}")
    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures}}


# -- criterion 6: representations ------------------------------------------


def _mobius(x: int) -> int:
    out, p = 1, 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            out = -out
        p += 1
    return -out if x > 1 else out


def criterion_6(seed: int = DEFAULT_SEED) -> dict:
    """Shift-representation relations and solenoid covariance."""
    checked = 0
    failures: List[str] = []
    for m, n in ((1, 2), (2, 3), (3, 5)):
        params = AlgebraParams(m, n)
        for variant in ("A", "B"):
            checked += 1
            report = representations.relation_residuals(
                params, variant, num_bound=256, exp_bound=4)
            if not report["pass"]:
                failures.append(f"({m},{n}) variant {variant}: "
                                f"{len(report['violations'])} violations")
        checked += 1
        if representations.isometry_image(params, 2, "A", Fraction(0)) != 0:
            failures.append(f"({m},{n}): S_2 e_0 != e_0 in variant A")
    for m in (2, 3):
        for k in range(1, 5):
            points = representations.solenoid_periodic_points(m, k)
            modulus = m ** k - 1
            expected = sum(_mobius(k // d) * (m ** d - 1)
                           for d in range(1, k + 1) if k % d == 0)
            expected = max(expected, 1)  # the k=1 fixed point at modulus 1
            checked += 1
            if len(points) != expected:
                failures.append(f"m={m} k={k}: |Per_k| = {len(points)}, "
                                f"divisor-sum count = {expected}")
            phases = [Fraction(0), Fraction(1, max(modulus, 2)), Fraction(1, 2)]
            for point in points:
                for phase in phases:
                    for exps in ({0: 1}, {0: 2, 1: -1}):
                        checked += 1
                        rep = representations.solenoid_rep_check(point, phase, exps)
                        if not rep["pass"]:
                            failures.append(f"m={m} k={k} r={point.residue} "
                                            f"phase={phase}: covariance failed")
    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures[:5],
                        "failure_count": len(failures)}}


# -- criterion 7: entropy growth -------------------------------------------


def criterion_7(seed: int = DEFAULT_SEED) -> dict:
    """Dimension growth slope within 5% of log n, plus the counting bound."""
    checked = 0
    failures: List[str] = []
    tables = {}
    for n, n_max in ((2, 8), (3, 6)):
        table = entropy_estimate(AlgebraParams(1, n), 0, n_max)
        tables[n] = table
        dims = table.dimensions()
        target = math.log(n)
        for row in table.rows[-3:]:
            checked += 1
            if row.slope is None or abs(row.slope - target) > 0.05 * target:
                failures.append(f"n={n} N={row.depth}: slope {row.slope} "
                                f"outside 5% of log {n}")
        for depth, dim in enumerate(dims, start=1):
            checked += 1
            if dim > dims[0] * n ** depth:
                failures.append(f"n={n} N={depth}: {dim} exceeds "
                                f"D_1*n^N = {dims[0] * n ** depth}")
    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures,
                        "dimensions": {n: t.dimensions()
                                       for n, t in tables.items()},
                        "growth_rates": {n: t.growth_rate
                                         for n, t in tables.items()}}}


# -- criterion 8: algebra invariants ---------------------------------------


def _random_coeff(rng: random.Random) -> QQi:
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if re == 0 and im == 0:
        re = Fraction(1)
    return QQi(re, im)


def _random_monomial_element(rng: random.Random,
                             params: AlgebraParams) -> Tuple[Element, Monomial]:
    mu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2)))
    nu = tuple(rng.randint(1, params.n) for _ in range(rng.randint(0, 2)))
    mon = Monomial(mu, rng.randint(-4, 4), nu)
    elem = Element.monomial(params, mon.mu, mon.k, mon.nu,
                            coeff=_random_coeff(rng))
    return elem, mon


def criterion_8(seed: int = DEFAULT_SEED) -> dict:
    """Associativity, involution, the KMS identity, endomorphism invariance
    of the state, and idempotence of the gauge expectation, per instance."""
    rng = random.Random(seed)
    pool = [AlgebraParams(1, 2), AlgebraParams(1, 3), AlgebraParams(2, 3),
            AlgebraParams(2, 5), AlgebraParams(3, 5)]
    checked = 0
    failures: List[str] = []

    def fail(i: int, what: str) -> None:
        failures.append(f"instance {i}: {what}")

    for i in range(10_000):
        params = pool[rng.randrange(len(pool))]
        a, _ = _random_monomial_element(rng, params)
        b, _ = _random_monomial_element(rng, params)
        c, c_mon = _random_monomial_element(rng, params)
        x = a + b
        checked += 5
        if not ((a * b) * c - a * (b * c)).is_zero():
            fail(i, f"associativity at ({params.m},{params.n})")
        if ((x * c).adjoint() != c.adjoint() * x.adjoint()
                or x.adjoint().adjoint() != x):
            fail(i, f"involution at ({params.m},{params.n})")
        deg = c_mon.gauge_degree()
        scale = Fraction(params.n) ** (-deg)
        # the state is KMS at inverse temperature log n: moving the
        # homogeneous factor c from front to back costs n^{-deg c}
        if (c * x).kms_state() != (x * c).kms_state() * scale:
            fail(i, f"KMS identity at ({params.m},{params.n}) deg {deg}")
        if x.canonical_endo().kms_state() != x.kms_state():
            fail(i, f"endomorphism invariance at ({params.m},{params.n})")
        ex = x.gauge_expectation()
        if ex.gauge_expectation() != ex or ex.kms_state() != x.kms_state():
            fail(i, f"expectation idempotence at ({params.m},{params.n})")
    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures[:5],
                        "failure_count": len(failures)}}


# -- criterion 9: matrix compression shape ---------------------------------


def criterion_9(seed: int = DEFAULT_SEED) -> dict:
    """Compressed endomorphism images keep the two-consecutive-exponent shape."""
    rng = random.Random(seed)
    params = AlgebraParams(1, 2)
    checked = 0
    failures: List[str] = []
    for i in range(200):
        s = rng.randint(1, 2)
        mu = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, s)))
        nu = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, s)))
        k = rng.randint(-(2 ** s), 2 ** s)
        l = rng.randint(1, 3)
        r = s + l + rng.randint(0, 1)
        mon = Monomial(mu, k, nu)
        checked += 1
        _, report = rho_matrix(params, mon, r, l, s=s)
        if not report["pass"]:
            failures.append(f"tuple {i}: {mon} s={s} l={l} r={r} -> "
                            f"exponents {report['exponents']}")
    return {"pass": not failures, "checked": checked,
            "details": {"failures": failures[:5],
                        "failure_count": len(failures)}}


# -- driver -----------------------------------------------------------------


CRITERIA: Dict[int, Tuple] = {
    1: (criterion_1, "K-group tables and six-term/dual-splice agreement"),
    2: (criterion_2, "projection identities, trace, class, squaring residual"),
    3: (criterion_3, "fixed-point rewriting round trips"),
    4: (criterion_4, "subalgebra witness relation families"),
    5: (criterion_5, "flip fixed-point K-groups and flagged discrepancy"),
    6: (criterion_6, "shift-representation relations, solenoid covariance"),
    7: (criterion_7, "dimension growth slope near log n"),
    8: (criterion_8, "algebra invariant sweep"),
    9: (criterion_9, "matrix compression exponent shape"),
}


def run_all(seed: int = DEFAULT_SEED,
            criteria: Optional[Sequence[int]] = None) -> dict:
    wanted = sorted(criteria) if criteria else sorted(CRITERIA)
    unknown = [c for c in wanted if c not in CRITERIA]
    if unknown:
        raise ValueError(f"criteria run from {min(CRITERIA)} to {max(CRITERIA)}, "
                         f"not {unknown}")
    results = []
    for cid in wanted:
        fn, name = CRITERIA[cid]
        start = perf_counter()
        res = fn(seed)
        res.update({"criterion": cid, "name": name,
                    "elapsed_s": round(perf_counter() - start, 3)})
        results.append(res)
    return {"seed": seed, "criteria": wanted, "results": results,
            "pass": all(r["pass"] for r in results)}


def summary_table(report: dict) -> str:
    lines = [f"acceptance sweep (seed {report['seed']})"]
    for res in report["results"]:
        flag = "PASS" if res["pass"] else "FAIL"
        lines.append(f"  criterion {res['criterion']}  "
                     f"{res['name']:<55} {flag}  "
                     f"({res['checked']} checks, {res['elapsed_s']}s)")
    total = len(report["results"])
    passed = sum(1 for r in report["results"] if r["pass"])
    lines.append(f"overall: {'PASS' if report['pass'] else 'FAIL'} "
                 f"({passed}/{total})")
    return "\n".join(lines)
