"""The cli-mixed workload: one closed-loop client calling ``cli.main``.

Every request is ``(argv, stdin, check)``; ``check(code, out)`` says
whether the exit code and stdout are the right answer.  Expected answers
come from ``oracle`` or from closed forms wherever one exists; the few
that have none (flip fixed-point K-groups, rewrite words, relation-window
sizes) are computed once in set-up by calling the library directly, so
the request checks that the command line agrees with the library.

Each round sends the same requests in the same order: a fixed quota per
request class, seeded arguments within each class, shuffled by the seed.

Inputs that the program cannot answer correctly today are not part of the
timed mix, because a benchmark run must not fail by design.  They are
the ``KNOWN_GAPS`` below, probed after the timed phase and reported by
name on every run; the unbounded ones run in a child process with a
deadline and an address-space limit.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from math import gcd

import oracle

PAIRS = ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5))
CHILD_DEADLINE_S = 1.5
CHILD_ADDRESS_SPACE = 1 << 30


def call_main(cli, argv: list, stdin: str) -> tuple:
    """Run ``cli.main(argv)`` in-process; returns (code, stdout, stderr).

    An exception escaping ``main`` is what a process would show as a
    traceback with exit status 1; it is returned as code "traceback".
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        return "traceback", out.getvalue(), traceback.format_exc()
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _exact(code: int, text: str):
    return lambda got, out: got == code and out.rstrip("\n") == text


def _json(code: int, predicate):
    def check(got, out):
        if got != code:
            return False
        try:
            return predicate(json.loads(out))
        except (ValueError, KeyError, TypeError):
            return False
    return check


def _usage_error(got, out):
    return got == 2 and out == ""


def _coeff(rng):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return (re, im) if (re, im) != (0, 0) else (Fraction(1), im)


def _word(rng, n, longest):
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, longest)))


def _term(rng, n):
    return ((_word(rng, n, 2), rng.randint(-4, 4), _word(rng, n, 2)), _coeff(rng))


def _mn_flags(m, n):
    return ["--m", str(m), "--n", str(n)]


# -- request classes --------------------------------------------------------
#
# Each class makes one request (argv, stdin, check) for slot 0, 1, ... of
# its quota.  Where an argument sets the cost of a request, the slot fixes
# it, so that every seed costs about the same; the seed picks the rest.

SUBALGEBRA_SIZES = (("power", (1, 2), 1), ("power", (1, 2), 2),
                    ("power", (1, 2), 3), ("power", (2, 3), 2),
                    ("zk", (1, 2), None), ("zk", (2, 3), None))
REP_SIZES = (((1, 2), (16, 2)), ((2, 3), (16, 2)), ((3, 5), (8, 2)))
SOLENOID_POINT_SIZES = ((2, 4), (3, 3), (2, 5), (3, 4))
SOLENOID_REP_SIZES = ((2, 3), (3, 3), (2, 4))
ENTROPY_SIZES = ((2, 4), (3, 3))


def _normalize(rng, om, slot):
    m, n = rng.choice(PAIRS)
    terms = [_term(rng, n) for _ in range(rng.randint(1, 3))]
    terms.append((terms[0][0], _coeff(rng)))  # force a merge
    return (["normalize", *_mn_flags(m, n)],
            json.dumps(oracle.terms_input(terms)),
            _exact(0, oracle.terms_json(oracle.merge(terms))))


def _mul(rng, om, slot):
    m, n = rng.choice(PAIRS)
    (a, ca), (b, cb) = _term(rng, n), _term(rng, n)
    if rng.random() < 0.5:  # make the inner words meet often
        b = (a[2] + b[0][len(a[2]):], b[1], b[2])
    prod = oracle.mul_monomials(m, n, a, b)
    coeff = (ca[0] * cb[0] - ca[1] * cb[1], ca[0] * cb[1] + ca[1] * cb[0])
    merged = oracle.merge([] if prod is None else [(prod, coeff)])
    stdin = json.dumps({"a": oracle.terms_input([(a, ca)]),
                        "b": oracle.terms_input([(b, cb)])})
    return (["mul", *_mn_flags(m, n)], stdin,
            _exact(0, oracle.terms_json(merged)))


def _iszero(rng, om, slot):
    m, n = rng.choice(PAIRS)
    start = (_word(rng, n, 2), rng.randint(-4, 4), _word(rng, n, 1))
    terms = oracle.chain_zero(rng, m, n, start, _coeff(rng), 3)
    zero = rng.random() < 0.5
    if not zero:
        j = rng.randrange(len(terms))
        bump = _coeff(rng)
        terms[j] = (terms[j][0], (terms[j][1][0] + bump[0],
                                  terms[j][1][1] + bump[1]))
    return (["iszero", *_mn_flags(m, n)], json.dumps(oracle.terms_input(terms)),
            _exact(0, "true") if zero else _exact(1, "false"))


def _kms(rng, om, slot):
    m, n = rng.choice(PAIRS)
    terms = [_term(rng, n) for _ in range(rng.randint(1, 3))]
    mu = _word(rng, n, 2)
    terms.append(((mu, 0, mu), _coeff(rng)))  # a term the state sees
    value = oracle.kms_value(n, oracle.merge(terms))
    return (["kms", *_mn_flags(m, n)], json.dumps(oracle.terms_input(terms)),
            _exact(0, oracle.qqi_str(*value)))


def _kgroups(rng, om, slot):
    while True:
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        if gcd(m, n) == 1 and (m, n) != (1, 1):
            break
    if n == 1:
        k0, k1 = (1, []), (1, oracle.cyclic_torsion(m - 1))
    elif m == 1:
        k0, k1 = (1, oracle.cyclic_torsion(n - 1)), (1, [])
    else:
        k0, k1 = (0, oracle.cyclic_torsion(n - 1)), (0, oracle.cyclic_torsion(m - 1))
    want = {"K0": {"free_rank": k0[0], "torsion": k0[1]},
            "K1": {"free_rank": k1[0], "torsion": k1[1]}}
    argv = ["kgroups", *_mn_flags(m, n)]
    if rng.random() < 0.5:
        return (argv, "", _exact(0, json.dumps(want, separators=(",", ":"))))
    def report_ok(rep):
        res = rep["results"]
        agree = n < 2 or (res["agree"] is True and res["pv"] == want)
        return rep["pass"] is True and res["six_term"] == want and agree
    return argv + ["--json"], "", _json(0, report_ok)


def _kgroups_fixed(rng, om, slot):
    parity, n = rng.choice(("odd", "even")), rng.randint(2, 6)
    rep = om.ktheory.symmetry_fixed_kgroups(parity, n)
    want = {"K0": str(rep["computed_k0"]), "K1": str(rep["computed_k1"]),
            "agrees_k0": rep["agrees_k0"], "agrees_k1": rep["agrees_k1"]}
    return (["kgroups-fixed", "--m-parity", parity, "--n", str(n)], "",
            _exact(0, json.dumps(want, separators=(",", ":"))))


def _fixed_point(rng, om, slot):
    m, n = rng.choice(((1, 3), (2, 5), (3, 5)))
    mod = n - m
    mu, nu = _word(rng, n, 3), _word(rng, n, 3)
    k = rng.randint(-8, 8)
    k += (-(sum(i - 1 for i in mu) - sum(j - 1 for j in nu) + k)) % mod
    mono = json.dumps({"mu": list(mu), "k": k, "nu": list(nu)})
    action = rng.choice(("test", "rewrite"))
    argv = ["fixed-point", action, *_mn_flags(m, n), "--monomial", mono]
    if action == "test":
        want = {"weight": 0, "modulus": mod, "fixed": True}
        return argv, "", _exact(0, json.dumps(want, separators=(",", ":")))
    params = om.algebra.AlgebraParams(m, n)
    word = om.actions.fixed_point_rewrite(params, om.algebra.Monomial(mu, k, nu))
    want = {"word": str(word), "round_trip": True}
    return argv, "", _exact(0, json.dumps(want, separators=(",", ":")))


def _subalgebra(rng, om, slot):
    family, (m, n), k = SUBALGEBRA_SIZES[slot]
    if family == "power":
        return (["subalgebra", "power", *_mn_flags(m, n), "--k", str(k)], "",
                _json(0, lambda r: r["pass"] is True and r["generators"] == n ** k))
    k = rng.randint(1, 9)
    want = oracle.strip_shared(k, n)
    return (["subalgebra", "zk", *_mn_flags(m, n), "--k", str(k)], "",
            _json(0, lambda r: r["pass"] is True and r["reduced_k"] == want))


def _rieffel(rng, om, slot):
    action = rng.choice(("trace", "k0class"))
    return ["rieffel", action], "", _exact(0, "7/16" if action == "trace" else "-4")


def _rieffel_verify(rng, om, slot):
    return (["rieffel", "verify", "--grid", "8"], "",
            _json(0, lambda r: r["pass"] is True and r["conditions"] is True
                  and r["trace"] == "7/16" and r["k0_class"] == -4
                  and r["residual"] < 1e-9 and r["grid_stable"] is True))


def _rep(rng, om, slot):
    (m, n), (num, exp) = REP_SIZES[slot]
    labels = len(om.representations.window_labels(m, num, exp))
    return (["rep", "check", *_mn_flags(m, n), "--variant", rng.choice("AB"),
             "--window", f"{num},{exp}"], "",
            _json(0, lambda r: r["pass"] is True and r["violations"] == 0
                  and r["labels"] == labels and r["coverage"] == 1.0))


def _solenoid_points(rng, om, slot):
    m, k = SOLENOID_POINT_SIZES[slot]
    count = oracle.exact_period_count(m, k)
    want = {"count": count, "orbit_count": count // k}
    return (["solenoid", "points", "--m", str(m), "--period", str(k)], "",
            _exact(0, json.dumps(want, separators=(",", ":"))))


def _solenoid_rep(rng, om, slot):
    m, k = SOLENOID_REP_SIZES[slot]
    phase = f"{rng.randint(0, 5)}/{rng.randint(1, 6)}"
    return (["solenoid", "rep", "--m", str(m), "--period", str(k),
             "--phase", phase], "",
            _json(0, lambda r: r["pass"] is True and r["unitary"] is True
                  and r["covariance_exact"] is True))


ENTROPY_DIMS = {2: (3, 8, 18, 38, 78), 3: (3, 11, 35, 107)}


def _entropy(rng, om, slot):
    n, nmax = ENTROPY_SIZES[slot]
    dims = ENTROPY_DIMS[n][:nmax]

    def check(code, out):
        rows = [line.split() for line in out.splitlines()[1:]
                if line.split() and line.split()[0].isdigit()]
        return (code == 0 and tuple(int(r[1]) for r in rows) == dims
                and "growth rate" in out)
    return (["entropy", "--m", "1", "--n", str(n), "--s", "0",
             "--nmax", str(nmax)], "", check)


def _reproduce(rng, om, slot):
    return (["reproduce", "--criteria", "1", "--seed", str(rng.randint(1, 9999))],
            "", lambda code, out: code == 0
            and out.rstrip("\n").endswith("overall: PASS (1/1)"))


# malformed requests: the right answer is exit 2 with nothing on stdout
MALFORMED = (
    (["iszero"], "[]"),
    (["iszero", "--m", "1", "--n", "2"], "not json"),
    (["iszero", "--m", "1", "--n", "2"], '{"a": 1}'),
    (["normalize", "--m", "1", "--n", "2"], '[{"mu": [5], "k": 0, "nu": []}]'),
    (["normalize", "--m", "1", "--n", "2"], '[{"mu": [], "k": 0, "nu": [], "re": "x"}]'),
    (["mul", "--m", "1", "--n", "2"], "[]"),
    (["kgroups", "--m", "2", "--n", "4"], ""),
    (["kgroups", "--method", "pv", "--m", "3", "--n", "1"], ""),
    (["rieffel", "verify", "--grid", "100"], ""),
    (["rieffel", "trace", "--m", "2", "--n", "3"], ""),
    (["fixed-point", "rewrite", "--m", "1", "--n", "3", "--monomial",
      '{"mu": [], "k": 1, "nu": []}'], ""),
    (["subalgebra", "power", "--m", "1", "--n", "2", "--k", "7"], ""),
    (["rep", "check", "--m", "1", "--n", "2", "--window", "nope"], ""),
    (["solenoid", "rep", "--m", "2", "--period", "2", "--residue", "0"], ""),
    (["entropy", "--m", "2", "--n", "3", "--s", "0", "--nmax", "3"], ""),
    (["reproduce", "--criteria", "12"], ""),
    (["frobnicate"], ""),
)

# (class, requests per round); every one of the 13 subcommands appears
QUOTAS = ((_normalize, 12), (_mul, 12), (_iszero, 10), (_kms, 8),
          (_kgroups, 8), (_kgroups_fixed, 4), (_fixed_point, 8),
          (_subalgebra, len(SUBALGEBRA_SIZES)), (_rieffel, 4),
          (_rieffel_verify, 1), (_rep, len(REP_SIZES)),
          (_solenoid_points, len(SOLENOID_POINT_SIZES)),
          (_solenoid_rep, len(SOLENOID_REP_SIZES)),
          (_entropy, len(ENTROPY_SIZES)), (_reproduce, 1))


def setup(om, seed: int) -> dict:
    rng = random.Random(seed)
    requests = []
    for make, count in QUOTAS:
        for slot in range(count):
            argv, stdin, check = make(rng, om, slot)
            requests.append((make.__name__.lstrip("_"), argv, stdin, check))
    for argv, stdin in MALFORMED:
        requests.append(("malformed", argv, stdin, _usage_error))
    rng.shuffle(requests)
    return {"requests": requests}


def run_round(om, state: dict, ops, gate) -> None:
    cli = om.cli
    tally = {"cli.exit_0": 0, "cli.exit_1": 0, "cli.exit_2": 0,
             "cli.tracebacks": 0}
    for kind, argv, stdin, check in state["requests"]:
        code, out, _ = ops.run(call_main, cli, argv, stdin)
        key = "cli.tracebacks" if code == "traceback" else f"cli.exit_{code}"
        tally[key] = tally.get(key, 0) + 1
        ok = check(code, out)
        gate.check(f"{kind} {' '.join(argv)}", ok, (code, ok))
    gate.stats.update(tally)


# -- known gaps ------------------------------------------------------------

DEEP_NU = json.dumps([{"mu": [], "k": 0, "nu": []},
                      {"mu": [1], "k": 0, "nu": [1] * 22}])

SOLENOID_40 = {"count": oracle.exact_period_count(2, 40),
               "orbit_count": oracle.exact_period_count(2, 40) // 40}


def _answer_or_refusal(code: int, text: str):
    """The right answer, or exit 2 refusing input that is too large."""
    exact = _exact(code, text)
    return lambda got, out: exact(got, out) or _usage_error(got, out)


# (name, argv, stdin, check, run in a child process?)
KNOWN_GAPS = (
    ("normalize re=1/0", ["normalize", "--m", "1", "--n", "2"],
     '[{"mu": [], "k": 0, "nu": [], "re": "1/0"}]', _usage_error, False),
    ("iszero n=3 |nu|=22", ["iszero", "--m", "1", "--n", "3"], DEEP_NU,
     _answer_or_refusal(1, "false"), True),
    ("solenoid points m=2 period=40",
     ["solenoid", "points", "--m", "2", "--period", "40"], "",
     _answer_or_refusal(0, json.dumps(SOLENOID_40, separators=(",", ":"))),
     True),
)

_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from omnalg.cli import main; sys.exit(main(sys.argv[2:]))")


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _run_child(src: str, argv: list, stdin: str) -> tuple:
    try:
        proc = subprocess.run([sys.executable, "-c", _CHILD, src, *argv],
                              input=stdin, capture_output=True, text=True,
                              timeout=CHILD_DEADLINE_S, preexec_fn=_limit_child)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        return "deadline", "", ""
    code = proc.returncode
    if "Traceback (most recent call last)" in proc.stderr:
        code = "traceback"
    return code, proc.stdout, proc.stderr


def probe_known_gaps(om, src: str) -> list:
    """Outcome of every known-gap input: (name, outcome, answered right)."""
    results = []
    for name, argv, stdin, check, child in KNOWN_GAPS:
        if child:
            got, out, _ = _run_child(src, argv, stdin)
        else:
            got, out, _ = call_main(om.cli, argv, stdin)
        results.append((name, got, check(got, out)))
    return results
