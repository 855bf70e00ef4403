"""The benchmark's workloads: seeded inputs, one round of work, its gate.

Each workload has ``setup(om, seed) -> state``, which builds every input
the rounds use, and ``run_round(om, state, ops, gate)``, which does one
fixed round of work.  ``om`` is a namespace of freshly imported omnalg
modules.  Every operation goes through ``ops.run`` so its latency is
recorded, and every verdict goes through ``gate.check``, which counts it
towards ``attempted`` and, when wrong, ``failed``.  A round does the same
work every time it is run; the run repeats rounds until its time is up.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from time import perf_counter

import oracle
from calibrate import NOMINAL_S


class Ops:
    """Times operations; tells the tracer which operation is running and
    the reference (``calibrate.Reference``) how much time was spent.

    ``local`` holds, per operation, the factor of the kernel calls paid
    right after it, when there were at least ``LOCAL_CALLS`` of them, so
    a long operation can be scaled by the machine speed of its own moment;
    else None.
    """

    LOCAL_CALLS = 5

    def __init__(self, tracer=None, reference=None) -> None:
        self.tracer = tracer
        self.reference = reference
        self.latencies: list = []
        self.local: list = []

    def run(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op_id += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latency = perf_counter() - start
            self.latencies.append(latency)
            if self.reference is not None:
                ref = self.reference
                calls, kernel_s = ref.calls, ref.wall_s
                ref.owe(latency)
                paid = ref.calls - calls
                self.local.append(NOMINAL_S * paid / (ref.wall_s - kernel_s)
                                  if paid >= self.LOCAL_CALLS else None)


class Gate:
    """Counts checks and failures; keeps every verdict for comparison."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdicts: list = []
        self.failures: list = []
        self.stats: dict = {}

    def check(self, name: str, ok: bool, verdict=None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(name)
        self.verdicts.append((name, ok if verdict is None else verdict))
        return ok

    def raised(self, name: str, exc: BaseException) -> None:
        self.check(f"{name}: {type(exc).__name__}: {exc}", False,
                   f"raised {type(exc).__name__}")


# -- projection ----------------------------------------------------------

PROJECTION_GRID = 128


def projection_setup(om, seed: int) -> dict:
    # the criterion-2 pipeline has no random input, so the seed is unused
    return {"grid": PROJECTION_GRID}


def projection_round(om, state: dict, ops: Ops, gate: Gate) -> None:
    proj = om.projection
    inner = proj.sample_element
    proj.sample_element = lambda elem, grid: ops.run(inner, elem, grid)
    try:
        data = proj.build_canonical_data()
        conditions = proj.check_conditions(data)
        trace = proj.kms_trace(data)
        k0 = proj.k0_class(data)
        square = proj.assemble_and_square(data, grid=state["grid"])
    except Exception as exc:  # a crash is a failed check, not a dead run
        gate.raised("projection pipeline", exc)
        return
    finally:
        proj.sample_element = inner
    gate.check("conditions", conditions["pass"])
    gate.check("trace is 7/16", trace == Fraction(7, 16), str(trace))
    gate.check("K0-class is -4", k0 == -4, k0)
    gate.check("residual < 1e-9", square["residual"] < 1e-9,
               repr(square["residual"]))
    gate.check("grid-stable", square["grid_stable"] is True,
               repr(square["residual_doubled"]))
    gate.check("self-adjoint defect is 0.0",
               square["self_adjoint_defect"] == 0.0,
               repr(square["self_adjoint_defect"]))


# -- algebra-small ---------------------------------------------------------

SMALL_PAIRS = ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5))
SMALL_INSTANCES_PER_PAIR = 120
REWRITE_PAIRS = ((1, 3), (2, 5), (3, 5))
REWRITES_PER_PAIR = 100


def _coeff(rng: random.Random):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if re == 0 and im == 0:
        re = Fraction(1)
    return re, im


def _short_word(rng: random.Random, n: int, longest: int) -> tuple:
    return _word(rng, n, rng.randint(0, longest))


def _word(rng: random.Random, n: int, length: int) -> tuple:
    return tuple(rng.randint(1, n) for _ in range(length))


def small_setup(om, seed: int) -> dict:
    """Criterion-8 instances and criterion-3 monomials, equal counts per pair."""
    alg, actions = om.algebra, om.actions
    rng = random.Random(seed)
    instances = []
    for m, n in SMALL_PAIRS:
        params = alg.AlgebraParams(m, n)
        for _ in range(SMALL_INSTANCES_PER_PAIR):
            elems = []
            for _ in range(3):
                mu, nu = _short_word(rng, n, 2), _short_word(rng, n, 2)
                re, im = _coeff(rng)
                elems.append(alg.Element.monomial(
                    params, mu, rng.randint(-4, 4), nu,
                    coeff=om.exact.QQi(re, im)))
            # the KMS identity needs the gauge degree of c, the last one
            instances.append((params, *elems, len(mu) - len(nu)))
    rng.shuffle(instances)
    rewrites = []
    for m, n in REWRITE_PAIRS:
        params = alg.AlgebraParams(m, n)
        mod = abs(n - m)
        for _ in range(REWRITES_PER_PAIR):
            mu, nu = _short_word(rng, n, 3), _short_word(rng, n, 3)
            k = rng.randint(-8, 8)
            skew = sum(i - 1 for i in mu) - sum(j - 1 for j in nu) + k
            k += (-skew) % mod  # rotation weight 0
            mon = alg.Monomial(mu, k, nu)
            rewrites.append((params, mod, mon,
                             alg.Element.monomial(params, mu, k, nu)))
    witnesses = []
    for m, n in ((1, 2), (2, 3)):
        params = alg.AlgebraParams(m, n)
        witnesses += [(params, "power", k) for k in (1, 2, 3) if n ** k <= 81]
        witnesses += [(params, "zk", k) for k in range(1, 8) if gcd(k, n) == 1]
    expected = 5 * len(instances) + 2 * len(rewrites) + len(witnesses)
    return {"instances": instances, "rewrites": rewrites,
            "witnesses": witnesses, "expected_checks": expected}


def _invariants(params, a, b, c, deg) -> tuple:
    """The five criterion-8 identities for one instance."""
    x = a + b
    assoc = ((a * b) * c - a * (b * c)).is_zero()
    inv = ((x * c).adjoint() == c.adjoint() * x.adjoint()
           and x.adjoint().adjoint() == x)
    scale = Fraction(params.n) ** (-deg)
    kms = (c * x).kms_state() == (x * c).kms_state() * scale
    endo = x.canonical_endo().kms_state() == x.kms_state()
    ex = x.gauge_expectation()
    idem = ex.gauge_expectation() == ex and ex.kms_state() == x.kms_state()
    return assoc, inv, kms, endo, idem


INVARIANT_NAMES = ("associativity", "involution", "KMS identity",
                   "endomorphism invariance", "expectation idempotence")


def _round_trip(actions, mod, mon, target) -> tuple:
    word = actions.fixed_point_rewrite(target.params, mon)
    in_lattice = not any(e % mod for e in word.exponents())
    return in_lattice, (word.to_element() - target).is_zero()


def small_round(om, state: dict, ops: Ops, gate: Gate) -> None:
    actions = om.actions
    before = gate.attempted
    for i, inst in enumerate(state["instances"]):
        try:
            verdicts = ops.run(_invariants, *inst)
        except Exception as exc:
            gate.raised(f"instance {i}", exc)
            continue
        for name, ok in zip(INVARIANT_NAMES, verdicts):
            gate.check(f"instance {i} {name}", ok)
    for i, (params, mod, mon, target) in enumerate(state["rewrites"]):
        try:
            lattice, trip = ops.run(_round_trip, actions, mod, mon, target)
        except Exception as exc:
            gate.raised(f"rewrite {i}", exc)
            continue
        gate.check(f"rewrite {i} exponents in {mod}Z", lattice)
        gate.check(f"rewrite {i} round trip", trip)
    for params, family, k in state["witnesses"]:
        fn = (actions.subalgebra_witness_power if family == "power"
              else actions.subalgebra_witness_zk)
        name = f"{family} ({params.m},{params.n}) k={k}"
        try:
            report = ops.run(fn, params, k)
        except Exception as exc:
            gate.raised(name, exc)
            continue
        gate.check(name, report["pass"])
    done = gate.attempted - before
    gate.check("check count", done == state["expected_checks"], done)


# -- algebra-deep ----------------------------------------------------------

# (m, n, depth): two chains per element, the second starting one letter
# deeper, so refinement pads every term to the longest nu; 12 288, 17 496
# and 37 500 refined terms per test, whatever the seed
DEEP_CASES = ((1, 2, 12), (2, 3, 8), (3, 5, 6))
# seeded zero/perturbed twins per case: the zero tests are the workload's
# main load, so they are most of its operations, and the round's median
# operation is a zero test
TWINS_PER_CASE = 3
# dimensions D_1..D_N of the growth tables at s = 0 (criterion 7)
GROWTH_TABLES = (((1, 2), 7, (3, 8, 18, 38, 78, 158, 318)),
                 ((1, 3), 5, (3, 11, 35, 107, 323)))
# (s, l, r) of the criterion-9 compression sweep, each once with a seeded
# monomial with |mu| = s and |nu| = s - 1
COMPRESSION_SHAPES = tuple((s, l, s + l + e) for s in (1, 2)
                           for l in (1, 2, 3) for e in (0, 1))


def deep_setup(om, seed: int) -> dict:
    alg, exact = om.algebra, om.exact
    rng = random.Random(seed)
    zero_tests = []
    for m, n, depth in DEEP_CASES:
        params = alg.AlgebraParams(m, n)
        for twin_pair in range(TWINS_PER_CASE):
            terms = []
            for extra in (0, 1):
                # word lengths are fixed so that every seed costs the same
                mu = _word(rng, n, 1)
                start = (mu, rng.randint(-4, 4), _word(rng, n, extra))
                terms += oracle.chain_zero(rng, m, n, start, _coeff(rng),
                                           depth - extra)
            # perturbing one coefficient leaves delta * (a monomial), never
            # 0; always the last, deepest term, so the twin's cost does not
            # depend on the seed
            delta = _coeff(rng)
            twin = list(terms)
            twin[-1] = (terms[-1][0], (terms[-1][1][0] + delta[0],
                                       terms[-1][1][1] + delta[1]))
            for label, body, truth in (("zero", terms, True),
                                       ("perturbed", twin, False)):
                elem = alg.Element(params, [
                    (alg.Monomial(*mon), exact.QQi(re, im))
                    for mon, (re, im) in body])
                zero_tests.append((f"({m},{n}) #{twin_pair} {label}", elem,
                                   truth))
    compressions = []
    for s, l, r in COMPRESSION_SHAPES:
        mu, nu = _word(rng, 2, s), _word(rng, 2, s - 1)
        k = rng.randint(-(2 ** s), 2 ** s)
        compressions.append((alg.Monomial(mu, k, nu), r, l, s))
    return {"zero_tests": zero_tests, "compressions": compressions,
            "tables": [(alg.AlgebraParams(*mn), depth, dims)
                       for mn, depth, dims in GROWTH_TABLES]}


def deep_round(om, state: dict, ops: Ops, gate: Gate) -> None:
    entropy = om.entropy
    for name, elem, truth in state["zero_tests"]:
        try:
            verdict = ops.run(elem.is_zero)
        except Exception as exc:
            gate.raised(f"zero test {name}", exc)
            continue
        gate.check(f"zero test {name}", verdict is truth, verdict)
    for params, depth, dims in state["tables"]:
        name = f"growth table n={params.n} N={depth}"
        try:
            table = ops.run(entropy.entropy_estimate, params, 0, depth)
        except Exception as exc:
            gate.raised(name, exc)
            continue
        got = tuple(table.dimensions())
        gate.check(name, got == dims and not table.truncated, got)
    params = om.algebra.AlgebraParams(1, 2)
    for mon, r, l, s in state["compressions"]:
        name = f"compression {tuple(mon)} s={s} l={l} r={r}"
        try:
            _, report = ops.run(entropy.rho_matrix, params, mon, r, l, s=s)
        except Exception as exc:
            gate.raised(name, exc)
            continue
        exps = report["exponents"]
        gate.check(name, report["pass"] and len(exps) <= 2
                   and report["consecutive"], tuple(exps))
