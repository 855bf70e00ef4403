"""End-to-end runs of the command line interface through main(argv)."""

import io
import json
import os
import random
import subprocess
import sys
from time import perf_counter

import pytest

import omnalg
from omnalg import projection
from omnalg.algebra import PRODUCT_LIMIT
from omnalg.cli import SCHEMA, _build_parser, main
from omnalg.projection import GRID_LIMIT as RIEFFEL_GRID_LIMIT
from omnalg.representations import (CHECK_LIMIT as REP_CHECK_LIMIT,
                                    LABEL_LIMIT as REP_LABEL_LIMIT)

RANGE_SUM_MINUS_ONE = json.dumps([
    {"mu": [1], "k": 0, "nu": [1]},
    {"mu": [2], "k": 0, "nu": [2]},
    {"mu": [], "k": 0, "nu": [], "re": "-1"},
])


def run(argv, monkeypatch, capsys, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_kgroups_compact(monkeypatch, capsys):
    code, out, _ = run(["kgroups", "--m", "1", "--n", "2"], monkeypatch, capsys)
    assert code == 0
    assert out == ('{"K0":{"free_rank":1,"torsion":[]},'
                   '"K1":{"free_rank":1,"torsion":[]}}')


def test_kgroups_json_envelope(monkeypatch, capsys):
    code, out, _ = run(["kgroups", "--m", "2", "--n", "3", "--json"],
                       monkeypatch, capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"schema", "command", "params", "results",
                           "pass", "elapsed_s"}
    assert report["schema"] == SCHEMA
    assert report["command"] == "kgroups"
    assert report["params"] == {"m": 2, "n": 3, "method": "both"}
    assert report["pass"] is True
    assert report["results"]["agree"] is True
    assert report["results"]["six_term"] == report["results"]["pv"]
    assert report["results"]["six_term"]["K0"] == {"free_rank": 0, "torsion": [2]}


# -- the --json report fields, one valid request per subcommand -------------

ENVELOPE = ["schema", "command", "params", "results", "pass", "elapsed_s"]
TERMS = '[{"mu": [1], "k": 0, "nu": [2], "re": "1/2"}]'
REPORT_FIELDS = (
    (["normalize", "--m", "1", "--n", "2"], TERMS, 0, ["term_count", "terms"]),
    (["mul", "--m", "1", "--n", "2"], f'{{"a": {TERMS}, "b": {TERMS}}}', 0,
     ["term_count", "terms"]),
    (["iszero", "--m", "1", "--n", "2"], TERMS, 1, ["is_zero"]),
    (["kms", "--m", "1", "--n", "2"], TERMS, 0, ["im", "re"]),
    (["kgroups", "--m", "2", "--n", "3"], "", 0,
     ["agree", "method", "pv", "six_term"]),
    (["kgroups-fixed", "--m-parity", "odd", "--n", "3"], "", 0,
     ["agrees_k0", "agrees_k1", "agrees_unit_class", "computed_k0",
      "computed_k1", "generator_orders", "m_parity", "matrix", "n", "pass",
      "reference_k0", "reference_k1", "reference_unit_class_order",
      "unit_class_order"]),
    (["fixed-point", "rewrite", "--m", "1", "--n", "3", "--monomial",
      '{"mu": [2], "k": 1, "nu": [1, 1]}'], "", 0,
     ["exponents", "modulus", "round_trip", "tokens", "word"]),
    (["subalgebra", "power", "--m", "1", "--n", "2", "--k", "2"], "", 0,
     ["generators", "k", "kind", "pass", "relations"]),
    (["rieffel", "verify", "--grid", "8"], "", 0,
     ["conditions", "k0_class", "pass", "square", "trace"]),
    (["rep", "check", "--m", "1", "--n", "2", "--window", "8,1"], "", 0,
     ["checked", "checks", "coverage", "grown_window", "labels", "m", "n",
      "pass", "variant", "violations", "window"]),
    (["solenoid", "rep", "--m", "2", "--period", "3", "--phase", "1/3"], "", 0,
     ["covariance_exact", "float_residual", "m", "orientations_distinct",
      "pass", "period", "residue", "unitary", "wrong_orientation_holds",
      "z_phase"]),
    (["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", "2"], "", 0,
     ["growth_rate", "log_n", "m", "n", "rows", "s", "truncated", "warning"]),
    (["reproduce", "--criteria", "1"], "", 0,
     ["criteria", "pass", "results", "seed"]),
)


@pytest.mark.parametrize("argv, stdin, want_code, fields", REPORT_FIELDS,
                         ids=[case[0][0] for case in REPORT_FIELDS])
def test_json_report_fields_are_pinned(argv, stdin, want_code, fields,
                                       monkeypatch, capsys):
    code, out, _ = run(argv + ["--json"], monkeypatch, capsys, stdin=stdin)
    assert code == want_code
    report = json.loads(out)
    assert list(report) == ENVELOPE
    assert report["command"] == argv[0]
    assert sorted(report["results"]) == fields


def test_kgroups_error_paths(monkeypatch, capsys):
    code, _, err = run(["kgroups", "--m", "2", "--n", "4"], monkeypatch, capsys)
    assert code == 2 and "error:" in err
    code, _, err = run(["kgroups", "--method", "pv", "--m", "3", "--n", "1"],
                       monkeypatch, capsys)
    assert code == 2 and "n >= 2" in err
    # the single-isometry family still has a six-term answer
    code, out, _ = run(["kgroups", "--m", "3", "--n", "1"], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["K1"] == {"free_rank": 1, "torsion": [2]}


def test_iszero_true_and_false(monkeypatch, capsys):
    code, out, _ = run(["iszero", "--m", "1", "--n", "2"], monkeypatch, capsys,
                       stdin=RANGE_SUM_MINUS_ONE)
    assert (code, out) == (0, "true")
    code, out, _ = run(["iszero", "--m", "1", "--n", "2"], monkeypatch, capsys,
                       stdin='[{"mu": [1], "k": 0, "nu": []}]')
    assert (code, out) == (1, "false")


def test_iszero_needs_params_and_valid_stdin(monkeypatch, capsys):
    code, _, err = run(["iszero"], monkeypatch, capsys, stdin="[]")
    assert code == 2 and "required: --m, --n" in err
    code, _, err = run(["iszero", "--m", "1", "--n", "2"], monkeypatch, capsys,
                       stdin="not json")
    assert code == 2 and "stdin" in err
    code, _, err = run(["iszero", "--m", "1", "--n", "2"], monkeypatch, capsys,
                       stdin='{"a": 1}')
    assert code == 2


def test_iszero_deep_nu_answers_quickly(monkeypatch, capsys):
    # 1 + S_1 S_{1^22}* at n = 3: refining to |nu| = 22 would take 3^22 terms
    stdin = json.dumps([{"mu": [], "k": 0, "nu": []},
                        {"mu": [1], "k": 0, "nu": [1] * 22}])
    code, out, _ = run(["iszero", "--m", "1", "--n", "3"], monkeypatch, capsys,
                       stdin=stdin)
    assert (code, out) == (1, "false")


def test_iszero_long_nu_answers_in_a_small_fresh_process():
    # 150 KB of stdin; a set of every proper prefix of every nu would hold
    # 1.25e9 letters, and ran out of memory under this limit
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    stdin = json.dumps([{"mu": [], "k": 0, "nu": [1] * 50_000},
                        {"mu": [2], "k": 3, "nu": [2]}])
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "omnalg.cli", "iszero",
                           "--m", "1", "--n", "2"], input=stdin,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=limit_memory)
    assert perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (1, "false\n")
    assert "Traceback" not in proc.stderr


def test_fixed_point_rewrite_of_a_long_mu_answers_in_a_fresh_process():
    # 32 000 letters: a left-to-right product of the tokens is quadratic
    # in |mu| and takes over 10 s; `to_element`'s balanced product does not
    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    monomial = json.dumps({"mu": [1] * 32_000, "k": 0, "nu": []})
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "omnalg.cli", "fixed-point",
                           "rewrite", "--m", "1", "--n", "3", "--monomial",
                           monomial], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert perf_counter() - start < 2.0
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"word": "z^0 S1 " * 32_000 + "z^0",
                                       "round_trip": True}
    assert "Traceback" not in proc.stderr


def test_normalize_merges_terms(monkeypatch, capsys):
    stdin = json.dumps([{"mu": [1], "k": 0, "nu": []},
                        {"mu": [1], "k": 0, "nu": []}])
    code, out, _ = run(["normalize", "--m", "1", "--n", "2"],
                       monkeypatch, capsys, stdin=stdin)
    assert code == 0
    assert json.loads(out) == [{"mu": [1], "k": 0, "nu": [],
                                "re": "2/1", "im": "0/1"}]


def test_normalize_zero_denominator_exits_two(monkeypatch, capsys):
    stdin = json.dumps([{"mu": [], "k": 0, "nu": [], "re": "1/0"}])
    code, out, err = run(["normalize", "--m", "1", "--n", "2"],
                         monkeypatch, capsys, stdin=stdin)
    assert (code, out) == (2, "")
    assert "zero denominator" in err and "Traceback" not in err


def test_mul_contracts(monkeypatch, capsys):
    stdin = json.dumps({"a": [{"mu": [], "k": 0, "nu": [1]}],
                        "b": [{"mu": [1], "k": 0, "nu": []}]})
    code, out, _ = run(["mul", "--m", "1", "--n", "2"],
                       monkeypatch, capsys, stdin=stdin)
    assert code == 0
    assert json.loads(out) == [{"mu": [], "k": 0, "nu": [],
                                "re": "1/1", "im": "0/1"}]
    code, _, err = run(["mul", "--m", "1", "--n", "2"],
                       monkeypatch, capsys, stdin="[]")
    assert code == 2 and '"a"' in err


def test_mul_refuses_past_the_product_limit(monkeypatch, capsys):
    # z^0 .. z^(a-1) times z^0 .. z^(b-1): a b term pairs, a + b - 1 terms
    def z_powers(count):
        return [{"mu": [], "k": k, "nu": []} for k in range(count)]

    assert 512 * 512 == PRODUCT_LIMIT
    start = perf_counter()
    code, out, err = run(["mul", "--m", "1", "--n", "2"], monkeypatch, capsys,
                         stdin=json.dumps({"a": z_powers(513), "b": z_powers(512)}))
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "513 x 512 terms" in err and str(PRODUCT_LIMIT) in err
    assert "Traceback" not in err
    code, out, _ = run(["mul", "--m", "1", "--n", "2"], monkeypatch, capsys,
                       stdin=json.dumps({"a": z_powers(512), "b": z_powers(512)}))
    assert code == 0
    terms = json.loads(out)
    assert len(terms) == 1023
    assert {"mu": [], "k": 511, "nu": [], "re": "512/1", "im": "0/1"} in terms


def test_kms_values(monkeypatch, capsys):
    code, out, _ = run(["kms", "--m", "1", "--n", "2"], monkeypatch, capsys,
                       stdin='[{"mu": [1], "k": 0, "nu": [1]}]')
    assert (code, out) == (0, "1/2")


def test_rieffel_trace_and_k0(monkeypatch, capsys):
    code, out, _ = run(["rieffel", "trace"], monkeypatch, capsys)
    assert (code, out) == (0, "7/16")
    code, out, _ = run(["rieffel", "k0class"], monkeypatch, capsys)
    assert (code, out) == (0, "-4")
    code, _, err = run(["rieffel", "trace", "--m", "2", "--n", "3"],
                       monkeypatch, capsys)
    assert code == 2 and "(1, 2)" in err


def test_rieffel_verify_small_grid(monkeypatch, capsys):
    code, out, _ = run(["rieffel", "verify", "--grid", "128"],
                       monkeypatch, capsys)
    assert code == 0
    results = json.loads(out)
    assert results["pass"] and results["conditions"]
    assert results["trace"] == "7/16" and results["k0_class"] == -4
    code, _, err = run(["rieffel", "verify", "--grid", "100"],
                       monkeypatch, capsys)
    assert code == 2 and "power of two" in err
    # 1 = 2^0 is a power of two, so it gets an answer
    code, out, err = run(["rieffel", "verify", "--grid", "1"],
                         monkeypatch, capsys)
    assert code in (0, 1) and "pass" in json.loads(out)
    assert "Traceback" not in err


def test_fixed_point_test_and_rewrite(monkeypatch, capsys):
    mono = '{"mu": [2], "k": 1, "nu": [1, 1]}'
    code, out, _ = run(["fixed-point", "test", "--m", "1", "--n", "3",
                        "--monomial", mono], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"weight": 0, "modulus": 2, "fixed": True}
    code, out, _ = run(["fixed-point", "rewrite", "--m", "1", "--n", "3",
                        "--monomial", mono], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"word": "z^4 S1 z^0 S1* z^0 S1* z^0",
                               "round_trip": True}
    moving = '{"mu": [], "k": 1, "nu": []}'
    code, out, _ = run(["fixed-point", "test", "--m", "1", "--n", "3",
                        "--monomial", moving], monkeypatch, capsys)
    assert code == 1
    assert json.loads(out)["fixed"] is False
    code, _, err = run(["fixed-point", "rewrite", "--m", "1", "--n", "3",
                        "--monomial", moving], monkeypatch, capsys)
    assert code == 2 and "weight" in err
    code, _, err = run(["fixed-point", "test", "--m", "1", "--n", "2",
                        "--monomial", mono], monkeypatch, capsys)
    assert code == 2  # |n - m| < 2 has no rotation action


def test_subalgebra_witnesses(monkeypatch, capsys):
    code, out, _ = run(["subalgebra", "zk", "--m", "1", "--n", "2", "--k", "6"],
                       monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["reduced_k"] == 3
    code, _, err = run(["subalgebra", "power", "--m", "1", "--n", "2",
                        "--k", "7"], monkeypatch, capsys)
    assert code == 2 and "size bound" in err
    # the generator limit is the library's; no flag moves it
    code, out, _ = run(["subalgebra", "power", "--m", "1", "--n", "2",
                        "--k", "7", "--bound", "200"], monkeypatch, capsys)
    assert code == 2 and out == ""
    # zk has n generators, refused past the same limit
    code, out, err = run(["subalgebra", "zk", "--m", "1", "--n", "83",
                          "--k", "2"], monkeypatch, capsys)
    assert code == 2 and out == ""
    assert "n = 83 exceeds size bound 81" in err
    code, out, _ = run(["subalgebra", "zk", "--m", "1", "--n", "81",
                        "--k", "2"], monkeypatch, capsys)
    assert code == 0 and json.loads(out)["generators"] == 81


def test_rep_check(monkeypatch, capsys):
    code, out, _ = run(["rep", "check", "--m", "1", "--n", "2",
                        "--window", "32,2"], monkeypatch, capsys)
    assert code == 0
    results = json.loads(out)
    assert results["pass"] and results["violations"] == 0
    assert results["coverage"] == 1.0
    code, _, err = run(["rep", "check", "--m", "1", "--n", "2",
                        "--window", "nope"], monkeypatch, capsys)
    assert code == 2 and "P,Q" in err


def test_solenoid_points_and_rep(monkeypatch, capsys):
    code, out, _ = run(["solenoid", "points", "--m", "2", "--period", "2"],
                       monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"count": 2, "orbit_count": 1}
    # (m, k) = (2, 1): modulus 1, whose one residue 0 is its own orbit
    code, out, _ = run(["solenoid", "points", "--m", "2", "--period", "1",
                        "--json"], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["results"] == {
        "m": 2, "period": 1, "modulus": 1, "count": 1, "residues": [0],
        "orbit_count": 1, "orbits": [[0]]}
    code, out, _ = run(["solenoid", "rep", "--m", "2", "--period", "3",
                        "--phase", "1/3"], monkeypatch, capsys)
    assert code == 0
    results = json.loads(out)
    assert results["covariance_exact"] and results["unitary"]
    code, _, err = run(["solenoid", "rep", "--m", "2", "--period", "2",
                        "--residue", "0"], monkeypatch, capsys)
    assert code == 2 and "exact period" in err


@pytest.mark.parametrize("m, period", [(2, 40), (2, 1_000_000_000), (100_000, 2)])
def test_solenoid_refuses_too_many_residues(m, period, monkeypatch, capsys):
    for action in ("points", "rep"):
        start = perf_counter()
        code, out, err = run(["solenoid", action, "--m", str(m),
                              "--period", str(period)], monkeypatch, capsys)
        assert perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"{m}^{period} - 1 residues" in err and "Traceback" not in err


@pytest.mark.parametrize("residue", ["257", "0"])
def test_solenoid_rep_refuses_a_shorter_period(residue, monkeypatch, capsys):
    # 257 (2^8 + 1) has exact period 8 mod 2^16 - 1, and 0 period 1
    code, out, err = run(["solenoid", "rep", "--m", "2", "--period", "16",
                          "--residue", residue], monkeypatch, capsys)
    assert code == 2 and out == ""
    assert "does not have exact period 16" in err and "Traceback" not in err


def test_rieffel_verify_refuses_bad_grid_before_any_work(monkeypatch, capsys):
    def conditions_ran(data):
        raise AssertionError("check_conditions ran before the grid check")

    monkeypatch.setattr(projection, "check_conditions", conditions_ran)
    code, out, err = run(["rieffel", "verify", "--grid", "100"],
                         monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert "error: grid must be a power of two" in err


def test_rieffel_verify_refuses_too_large_grid(monkeypatch, capsys):
    grid = 1 << 40
    assert grid > RIEFFEL_GRID_LIMIT
    start = perf_counter()
    code, out, err = run(["rieffel", "verify", "--grid", str(grid)],
                         monkeypatch, capsys)
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert str(grid) in err and str(RIEFFEL_GRID_LIMIT) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mn, window, labels", [
    ((1, 2), "100000,0", 200_001),
    ((1, 2), "8192,0", 16_385),  # one label past the limit
    ((3, 5), "4096,4", 40_965),
    ((2, 3), f"{10 ** 30},{10 ** 30}", (2 * 10 ** 30 + 1) * (10 ** 30 + 1)),
])
def test_rep_check_refuses_too_many_labels(mn, window, labels, monkeypatch,
                                           capsys):
    assert labels > REP_LABEL_LIMIT
    start = perf_counter()
    code, out, err = run(["rep", "check", "--m", str(mn[0]), "--n", str(mn[1]),
                          "--window", window], monkeypatch, capsys)
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"{labels} labels" in err and str(REP_LABEL_LIMIT) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mn, window, checks", [
    ((1, 1_000_000), "0,0", 1_000_001_000_001),
    ((1, 1024), "0,0", 1_049_601),  # the first n past the limit at one label
    ((3, 8), "1600,4", 16_005 * 73),  # under the label limit, 73 checks each
])
def test_rep_check_refuses_too_many_checks(mn, window, checks, monkeypatch,
                                           capsys):
    assert checks > REP_CHECK_LIMIT
    start = perf_counter()
    code, out, err = run(["rep", "check", "--m", str(mn[0]), "--n", str(mn[1]),
                          "--window", window], monkeypatch, capsys)
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"{checks} relation checks" in err and str(REP_CHECK_LIMIT) in err
    assert "Traceback" not in err


def test_entropy_table_output(monkeypatch, capsys):
    code, out, _ = run(["entropy", "--m", "1", "--n", "2", "--s", "0",
                        "--nmax", "3"], monkeypatch, capsys)
    assert code == 0
    assert "growth rate" in out
    assert any(line.split()[:2] == ["3", "18"] for line in out.splitlines())
    code, _, err = run(["entropy", "--m", "2", "--n", "3", "--s", "0",
                        "--nmax", "3"], monkeypatch, capsys)
    assert code == 2 and "m = 1" in err


def test_kgroups_fixed(monkeypatch, capsys):
    code, out, _ = run(["kgroups-fixed", "--m-parity", "odd", "--n", "3"],
                       monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"K0": "Z + Z_2 + Z_2", "K1": "Z",
                               "agrees_k0": True, "agrees_k1": True}
    code, out, _ = run(["kgroups-fixed", "--m-parity", "even", "--n", "4"],
                       monkeypatch, capsys)
    assert code == 0  # the disagreement is reported data, not a failure
    assert json.loads(out)["agrees_k0"] is False


def test_reproduce_subset(monkeypatch, capsys):
    code, out, _ = run(["reproduce", "--criteria", "1"], monkeypatch, capsys)
    assert code == 0
    assert "criterion 1" in out
    assert "overall: PASS" in out
    code, _, err = run(["reproduce", "--criteria", "12"], monkeypatch, capsys)
    assert code == 2 and "1 to 9" in err
    code, _, err = run(["reproduce", "--criteria", "one"], monkeypatch, capsys)
    assert code == 2


def test_unknown_subcommand_exits_two(monkeypatch, capsys):
    assert run(["frobnicate"], monkeypatch, capsys)[0] == 2


def test_kgroups_at_a_mersenne_prime_answers_quickly(monkeypatch, capsys):
    # n - 1 = 2^61 - 1 is prime: invariant factors must not trial-divide it
    n, p = str(2 ** 61), [2 ** 61 - 1]
    start = perf_counter()
    code, out, _ = run(["kgroups", "--m", "1", "--n", n], monkeypatch, capsys)
    assert perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["K0"]["torsion"] == p
    start = perf_counter()
    code, out, _ = run(["kgroups-fixed", "--m-parity", "even", "--n", n,
                        "--json"], monkeypatch, capsys)
    assert perf_counter() - start < 1.0
    results = json.loads(out)["results"]
    assert code == 0 and results["reference_k0"]["torsion"] == p
    assert results["computed_k0"]["torsion"] == p + p


@pytest.mark.parametrize("argv, code, needle", [
    # level 10^12 - 1, refused before 2^level is built
    (["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", str(10 ** 12)],
     2, "forest node estimate"),
    # a window of more than 2^(10^7) monomials, refused before it is built
    (["entropy", "--m", "1", "--n", "2", "--s", str(10 ** 7), "--nmax", "1"],
     2, "forest node estimate"),
    # a residue mod 999999999, not found by search
    (["fixed-point", "rewrite", "--m", "1", "--n", str(10 ** 9),
      "--monomial", '{"mu":[5],"k":-4,"nu":[]}'], 0, '"round_trip":true'),
    # the wrap z^(km) built directly, not as m products
    (["subalgebra", "zk", "--m", str(10 ** 9 + 1), "--n", "2", "--k", "1"],
     0, '"pass":true'),
    # n^k refused before it is built
    (["subalgebra", "power", "--m", "1", "--n", "2", "--k", str(10 ** 12)],
     2, "exceeds size bound"),
    # n generators and n^2 orthogonality tests, refused before either
    (["subalgebra", "zk", "--m", "1", "--n", str(10 ** 6), "--k", "1"],
     2, "exceeds size bound"),
    # n = 1 bounds neither n^k nor the growth table; both are refused
    (["subalgebra", "power", "--m", "2", "--n", "1", "--k", str(10 ** 12)],
     2, "n >= 2"),
    (["entropy", "--m", "1", "--n", "1", "--s", "0", "--nmax", str(10 ** 12)],
     2, "n >= 2"),
    # inside the label and check limits, refused for the size of the labels
    (["rep", "check", "--m", "10", "--n", "7", "--window", "1,5460"],
     2, "933831 relation checks on labels"),
    (["rep", "check", "--m", "1000", "--n", "7", "--window", "1,5460"],
     2, "933831 relation checks on labels"),
])
def test_astronomic_sizes_answer_quickly(argv, code, needle, monkeypatch, capsys):
    start = perf_counter()
    got, out, err = run(argv, monkeypatch, capsys)
    assert perf_counter() - start < 1.0
    assert got == code and needle in out + err
    assert "Traceback" not in err


@pytest.mark.parametrize("m, n, window", [
    (str(10 ** 4000), "1", "0,16383"),
    ("1", str(10 ** 4000), "0,0"),
])
def test_rep_check_refuses_long_integers_in_one_short_line(
        m, n, window, monkeypatch, capsys):
    # the sizes of a huge m or n are written by their bit length, within
    # str()'s 4 300 digits and the line short
    code, out, err = run(["rep", "check", "--m", m, "--n", n, "--window",
                          window], monkeypatch, capsys)
    assert code == 2 and out == "" and err.startswith("error: window")
    assert len(err.encode()) < 300
    assert "relation checks" in err and str(REP_CHECK_LIMIT) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, needle", [
    # the coprime rule, with the 4 001-digit m written by its bit length
    (["kgroups", "--m", "1" + "0" * 4000, "--n", "2"],
     "error: m and n must be coprime, got (<13288-bit integer>, 2)"),
    # int() refuses past 4 300 digits, and the flag is named by its length
    (["rep", "check", "--m", "1" + "0" * 5000, "--n", "1", "--window", "0,0"],
     "error: argument --m: invalid int value of 5001 characters"),
    # a short bad value is still echoed
    (["rieffel", "verify", "--grid", "x"],
     "error: argument --grid: invalid int value: 'x'"),
], ids=["kgroups-huge-m", "int-flag-past-the-digit-limit", "int-flag-short"])
def test_long_integer_flags_are_refused_in_one_short_line(
        argv, needle, monkeypatch, capsys):
    code, out, err = run(argv, monkeypatch, capsys)
    assert (code, out) == (2, "") and err == needle + "\n"
    assert len(err.encode()) < 300


HUGE = str(10 ** 4000)  # 4 001 digits, within int()'s 4 300


@pytest.mark.parametrize("argv, stdin, needle", [
    (["subalgebra", "power", "--m", "1", "--n", "2", "--k", HUGE], "",
     "n^k = 2^<13288-bit integer> exceeds size bound 81"),
    (["subalgebra", "zk", "--m", "1", "--n", HUGE, "--k", "1"], "",
     "n = <13288-bit integer> exceeds size bound 81"),
    (["entropy", "--m", "1", "--n", "2", "--s", HUGE, "--nmax", "1"], "",
     "n^level = 2^<13288-bit integer>"),
    (["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", HUGE], "",
     "n^level = 2^<13288-bit integer>"),
    (["solenoid", "points", "--m", HUGE, "--period", "1"], "",
     "m^k - 1 = <13288-bit integer>^1 - 1 residues"),
    (["solenoid", "points", "--m", "2", "--period", HUGE], "",
     "m^k - 1 = 2^<13288-bit integer> - 1 residues"),
    (["rieffel", "verify", "--grid", HUGE], "",
     "grid <13288-bit integer> is more than the limit"),
    (["reproduce", "--criteria", "1," + HUGE], "",
     "criteria run from 1 to 9, not [<13288-bit integer>]"),
    (["normalize", "--m", "1", "--n", "2"],
     '[{"mu": [%s], "k": 0, "nu": []}]' % HUGE,
     "isometry index <13288-bit integer> outside 1..2"),
    (["fixed-point", "rewrite", "--m", "1", "--n", str(10 ** 4000 + 1),
      "--monomial", '{"mu": [], "k": %d, "nu": []}' % (10 ** 4000 - 1)], "",
     "rotation weight <13288-bit integer>, not in the fixed-point subalgebra"),
], ids=["subalgebra-power-k", "subalgebra-zk-n", "entropy-s", "entropy-nmax",
        "solenoid-m", "solenoid-period", "rieffel-grid", "reproduce-criteria",
        "normalize-letter", "fixed-point-weight"])
def test_every_refusal_writes_long_integers_by_bit_length(
        argv, stdin, needle, monkeypatch, capsys):
    # each wrote its 4 001-digit integer in full, a 4-8 KB error line
    code, out, err = run(argv, monkeypatch, capsys, stdin=stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err and len(err.encode()) < 300
    assert "Traceback" not in err


HUGE_COEFFICIENT = {"mu": [], "k": 0, "nu": [], "re": str(10 ** 3000), "im": "0"}


@pytest.mark.parametrize("argv, stdin, needle", [
    # the state of S_1^2 S_1^2* is 1/n^2, a denominator of 8 001 digits
    (["kms", "--m", "1", "--n", str(10 ** 4000 + 1), "--json"],
     '[{"mu": [1, 1], "k": 0, "nu": [1, 1]}]',
     "the rational 1/<26576-bit integer>"),
    (["kms", "--m", "1", "--n", str(10 ** 4000 + 1)],
     '[{"mu": [1, 1], "k": 0, "nu": [1, 1]}]',
     "the rational 1/<26576-bit integer>"),
    # 10^3000 squared: a numerator of 6 001 digits
    (["mul", "--m", "1", "--n", "2"],
     json.dumps({"a": [HUGE_COEFFICIENT], "b": [HUGE_COEFFICIENT]}),
     "the rational <19932-bit integer>/1"),
], ids=["kms-json", "kms", "mul"])
def test_rationals_past_the_digit_limit_are_refused_in_one_short_line(
        argv, stdin, needle, monkeypatch, capsys):
    # each ended in Python's own message about sys.set_int_max_str_digits
    code, out, err = run(argv, monkeypatch, capsys, stdin=stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + needle) and err.count("\n") == 1
    assert "more than 4300 digits" in err and len(err.encode()) < 300
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


def test_rationals_within_the_digit_limit_print_in_full(monkeypatch, capsys):
    # 10^2000 squared has 4 001 digits, within str()'s 4 300
    coefficient = dict(HUGE_COEFFICIENT, re=str(10 ** 2000))
    code, out, _ = run(["mul", "--m", "1", "--n", "2"], monkeypatch, capsys,
                       stdin=json.dumps({"a": [coefficient], "b": [coefficient]}))
    assert code == 0
    assert json.loads(out) == [dict(coefficient, re=f"{10 ** 4000}/1", im="0/1")]


def z_times_s1_power(k, letters):
    return json.dumps({"a": [{"mu": [], "k": k, "nu": []}],
                       "b": [{"mu": [1] * letters, "k": 0, "nu": []}]})


LONG_DIGITS = "1" + "0" * 5000  # 5 001 digits, past int()'s 4 300


@pytest.mark.parametrize("argv, stdin, needle", [
    # z^K z^K = z^(2K), a 4 301-digit exponent, for K = 9 * 10^4299
    (["mul", "--m", "1", "--n", "2"],
     json.dumps({"a": [{"mu": [], "k": 9 * 10 ** 4299, "nu": []}],
                 "b": [{"mu": [], "k": 9 * 10 ** 4299, "nu": []}]}),
     "the integer <14286-bit integer> has more than 4300 digits"),
    # z S_1^14290 = S_1^14290 z^(2^14290), within the push limit
    (["mul", "--m", "2", "--n", "1"], z_times_s1_power(1, 14290),
     "the integer <14291-bit integer> has more than 4300 digits"),
    # the middle exponent of the rewrite is 10^4300
    (["fixed-point", "rewrite", "--m", "1", "--n", "3", "--monomial",
      '{"mu": [], "k": %d, "nu": [2]}' % (10 ** 4300 - 1)], "",
     "the integer <14285-bit integer> has more than 4300 digits"),
    (["normalize", "--m", "1", "--n", "2"],
     json.dumps([{"mu": [], "k": 0, "nu": [], "re": LONG_DIGITS}]),
     "an integer of 5001 digits is past the limit of 4300 digits"),
    (["solenoid", "rep", "--m", "2", "--period", "3", "--phase",
      "1/" + LONG_DIGITS], "",
     "an integer of 5001 digits is past the limit of 4300 digits"),
    (["normalize", "--m", "1", "--n", "2"],
     '[{"mu": [], "k": -%s, "nu": []}]' % LONG_DIGITS,
     "an integer of 5001 digits is past the limit of 4300 digits"),
    (["normalize", "--m", "1", "--n", "2"],
     json.dumps([{"mu": [], "k": 0, "nu": [], "re": "x" * 5001}]),
     "invalid integer text of 5001 characters"),
    # a zero denominator within the limit was echoed whole
    (["normalize", "--m", "1", "--n", "2"],
     json.dumps([{"mu": [], "k": 0, "nu": [], "re": "1/" + "0" * 4000}]),
     "zero denominator in 4002 characters"),
], ids=["mul-exponent-sum", "mul-pushed-exponent", "fixed-point-middle",
        "coefficient", "solenoid-phase", "json-int", "malformed-coefficient",
        "zero-denominator"])
def test_long_integers_read_or_written_are_refused_in_one_short_line(
        argv, stdin, needle, monkeypatch, capsys):
    # each ended in Python's own message about sys.set_int_max_str_digits,
    # or echoed its input whole
    code, out, err = run(argv, monkeypatch, capsys, stdin=stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + needle) and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


def test_integers_within_the_digit_limit_print_in_full(monkeypatch, capsys):
    # 2^14283 and 10^4300 - 2 have 4 300 digits, within str()'s limit
    code, out, _ = run(["mul", "--m", "2", "--n", "1"], monkeypatch, capsys,
                       stdin=z_times_s1_power(1, 14283))
    assert code == 0 and json.loads(out)[0]["k"] == 2 ** 14283
    code, out, _ = run(["fixed-point", "rewrite", "--m", "1", "--n", "3",
                        "--monomial", '{"mu": [], "k": %d, "nu": [2]}'
                        % (10 ** 4300 - 3)], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"word": f"z^{10 ** 4300 - 2} S1* z^-4",
                               "round_trip": True}


@pytest.mark.parametrize("argv, stdin, expected", [
    # a 33 000-letter mu: the halves of the word push z-powers through
    # 16 000-letter words, whose exponents stay small
    (["fixed-point", "rewrite", "--m", "5", "--n", "3", "--monomial",
      json.dumps({"mu": [1] * 33_000, "k": 0, "nu": []})], "",
     {"word": "z^0 S1 " * 33_000 + "z^0", "round_trip": True}),
    # z S_1^20000 = S_1^2 .. z^0 at (3, 2): exponent 0 at the second letter
    (["mul", "--m", "3", "--n", "2"], z_times_s1_power(1, 20_000),
     [{"mu": [2] + [1] * 19_999, "k": 0, "nu": [], "re": "1/1", "im": "0/1"}]),
], ids=["fixed-point-rewrite-5-3", "mul-3-2"])
def test_small_exponents_at_m_above_n_answer_in_a_fresh_process(
        argv, stdin, expected):
    # both were refused by an a-priori worst case over the word length
    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "omnalg.cli", *argv],
                          input=stdin, capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert perf_counter() - start < 2.0
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == expected


def test_entropy_at_level_zero_answers_a_huge_n_in_a_small_fresh_process():
    # level 0 reads no letter, so no table of n letters is built: it took
    # 185 MB at n = 2 * 10^6 and ran out of memory at 10^8
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "omnalg.cli", "entropy",
                           "--m", "1", "--n", str(10 ** 8), "--s", "0",
                           "--nmax", "1"], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=limit_memory)
    assert perf_counter() - start < 5.0
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[1].split()[:2] == ["1", "3"]


def test_mul_refuses_a_growing_exponent_in_a_fresh_process():
    # z S_1^3000 at (m, n) = (10^4000, 1) multiplies the exponent by m at
    # each of 3 000 letters: still running after 60 s
    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    stdin = json.dumps({"a": [{"mu": [], "k": 1, "nu": []}],
                        "b": [{"mu": [1] * 3000, "k": 0, "nu": []}]})
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "omnalg.cli", "mul", "--m",
                           str(10 ** 4000), "--n", "1"], input=stdin,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert perf_counter() - start < 2.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "z-exponent" in proc.stderr and len(proc.stderr.encode()) < 300
    assert "Traceback" not in proc.stderr


def test_mul_at_a_huge_m_answers_one_letter(monkeypatch, capsys):
    # z S_1 = S_1 z^m, a 4 001-digit exponent; two letters would give m^2
    m = 10 ** 4000
    stdin = json.dumps({"a": [{"mu": [], "k": 1, "nu": []}],
                        "b": [{"mu": [1], "k": 0, "nu": []}]})
    code, out, _ = run(["mul", "--m", str(m), "--n", "1"], monkeypatch, capsys,
                       stdin=stdin)
    assert code == 0
    assert json.loads(out) == [{"mu": [1], "k": m, "nu": [], "re": "1/1",
                                "im": "0/1"}]


@pytest.mark.parametrize("argv", [
    ["normalize", "--n", "2"],
    ["iszero"],
    ["kgroups", "--m", "1"],
    ["entropy", "--m", "1", "--s", "0", "--nmax", "1"],
    ["kgroups-fixed", "--m-parity", "odd"],
    ["solenoid", "points", "--period", "3"],
    ["subalgebra", "power", "--m", "1", "--n", "2"],
], ids=" ".join)
def test_a_missing_flag_is_refused_by_the_parser(argv, monkeypatch, capsys):
    code, out, err = run(argv, monkeypatch, capsys, stdin="[]")
    assert (code, out) == (2, "")
    assert err.startswith("error: the following arguments are required: --")


@pytest.mark.parametrize("nmax", ["14", "20"])
def test_entropy_refuses_past_the_work_limit_in_a_fresh_process(nmax):
    # both ran past 60 s before the size estimate was checked
    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    argv = ["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", nmax]
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "omnalg.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert perf_counter() - start < 2.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "forest node estimate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rep_check_refuses_a_huge_m_in_a_fresh_process():
    # every label and check limit passes; the powers m^0 .. m^328 of this
    # 13 288-bit m are refused before any is built, and the 4 001 digits
    # are parsed within the same second
    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    argv = ["rep", "check", "--m", str(10 ** 4000), "--n", "1",
            "--window", "0,327"]
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "omnalg.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert perf_counter() - start < 1.0
    assert proc.returncode == 2 and "bit products" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_reader_that_leaves_early_gets_exit_1_and_an_empty_stderr():
    # the 1.87 MB answer fills the pipe long before it is written out, so
    # the write fails once the reader has gone: that ended in a
    # BrokenPipeError traceback
    src = os.path.dirname(os.path.dirname(omnalg.__file__))
    argv = ["solenoid", "points", "--m", "2", "--period", "16", "--json"]
    with subprocess.Popen([sys.executable, "-m", "omnalg.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        assert proc.stdout.read(10) == b'{\n  "schem'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == b""


# -- one parser per process --------------------------------------------------


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


# valid and invalid requests over several subcommands; with one shared
# parser, each must answer the same whatever ran before it
ORDER_CASES = (
    (["kgroups", "--m", "1", "--n", "2"], ""),
    (["kgroups", "--m", "2", "--n", "3", "--json"], ""),
    (["kgroups-fixed", "--m-parity", "odd", "--n", "3", "--json"], ""),
    (["normalize", "--m", "1", "--n", "2"], RANGE_SUM_MINUS_ONE),
    (["iszero", "--m", "1", "--n", "2", "--json"], RANGE_SUM_MINUS_ONE),
    (["iszero", "--m", "1", "--n", "2"], "[{"),
    (["subalgebra", "zk", "--m", "1", "--n", "2", "--k", "3", "--json"], ""),
    (["subalgebra", "power", "--m", "1", "--n", "2", "--k", "2", "--json"], ""),
    (["rieffel", "trace", "--json"], ""),
    (["rieffel", "k0class"], ""),
    (["solenoid", "points", "--m", "2", "--period", "3", "--json"], ""),
    (["solenoid", "points", "--m", "2"], ""),
    (["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", "2", "--json"],
     ""),
    (["rep", "check", "--m", "1", "--n", "2", "--window", "8,1", "--json"], ""),
    (["kms", "--m", "1", "--n", "3", "--json"], RANGE_SUM_MINUS_ONE),
    (["frobnicate"], ""),
    (["--help"], ""),
    (["solenoid", "--help"], ""),
)


def _answer(argv, stdin, monkeypatch, capsys):
    code, out, err = run(argv, monkeypatch, capsys, stdin)
    if "--json" in argv and code in (0, 1):
        report = json.loads(out)
        del report["elapsed_s"]
        out = report
    return code, out, err


def test_answers_do_not_depend_on_call_order(monkeypatch, capsys):
    forward = [_answer(argv, stdin, monkeypatch, capsys)
               for argv, stdin in ORDER_CASES]
    backward = [_answer(argv, stdin, monkeypatch, capsys)
                for argv, stdin in reversed(ORDER_CASES)]
    for (argv, _), first, second in zip(ORDER_CASES, forward,
                                        reversed(backward)):
        assert first == second, argv
    codes = [code for code, _, _ in forward]
    assert codes.count(2) == 3 and codes[-2:] == [0, 0]
    assert "usage: omnalg" in forward[-2][1]


# -- malformed input: every case exits 2 with a message ---------------------
#
# Cases change the type or the shape of one value in a valid request, never
# its size.  Term fields are JSON text, so "1e400" reaches the parser as the
# literal the user typed.

VALID_TERM = {"mu": "[1]", "k": "0", "nu": "[2]", "re": '"1/2"', "im": '"0"'}
MONOMIAL_MUTATIONS = (
    [("k", text) for text in ("1e400", "1.5", "true", '"3"', "null")]
    + [(key, text) for key in ("mu", "nu") for text in ("[true]", "5", "[0]")]
)
COEFF_MUTATIONS = [(key, text) for key in ("re", "im")
                   for text in ("5", '"1/0"', '"x"')]
MISSING = [(key, None) for key in ("mu", "k", "nu")]
NOT_A_TERM = ("5", '"x"', "null", "[1]", "true")


def term_text(fields: dict, key=None, text=None) -> str:
    fields = dict(fields)
    if text is None:
        fields.pop(key, None)
    else:
        fields[key] = text
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


def _bad_terms():
    for key, text in MONOMIAL_MUTATIONS + COEFF_MUTATIONS + MISSING:
        yield term_text(VALID_TERM, key, text)
    yield from NOT_A_TERM


def malformed_cases():
    mn = ["--m", "1", "--n", "2"]
    good = term_text(VALID_TERM)
    for term in _bad_terms():
        for cmd in ("normalize", "iszero", "kms"):
            yield [cmd, *mn], f"[{good}, {term}]"
        yield ["mul", *mn], f'{{"a": [{term}], "b": [{good}]}}'
        yield ["mul", *mn], f'{{"a": [{good}], "b": [{term}]}}'
    # the monomial flag reads mu, k and nu only
    mono = {"mu": "[2]", "k": "1", "nu": "[1, 1]"}
    for key, text in MONOMIAL_MUTATIONS + MISSING:
        for action in ("test", "rewrite"):
            yield (["fixed-point", action, "--m", "1", "--n", "3", "--monomial",
                    term_text(mono, key, text)], "")
    for text in NOT_A_TERM + ("{", "[" * 100_000):
        yield ["fixed-point", "test", "--m", "1", "--n", "3", "--monomial", text], ""
    for stdin in ('{"a": 1}', "5", '"x"', "null", "not json", "[",
                  "[" * 100_000, ""):
        for cmd in ("normalize", "iszero", "kms"):
            yield [cmd, *mn], stdin
    for stdin in ("[]", '{"a": []}', '{"a": 5, "b": []}', '{"a": [], "b": {}}'):
        yield ["mul", *mn], stdin
    # bad flag values, every subcommand
    for flags in (["--m", "2", "--n", "4"], ["--m", "0", "--n", "2"],
                  ["--m", "1"], ["--m", "x", "--n", "2"]):
        for cmd in ("normalize", "mul", "iszero", "kms"):
            yield [cmd, *flags], f"[{good}]"
    for argv in (
        ["kgroups", "--m", "2", "--n", "4"], ["kgroups", "--m", "0", "--n", "2"],
        ["kgroups", "--m", "1", "--n", "-2"], ["kgroups", "--n", "2"],
        ["kgroups", "--method", "pv", "--m", "3", "--n", "1"],
        ["kgroups", "--method", "x", "--m", "1", "--n", "2"],
        ["kgroups-fixed", "--m-parity", "odd", "--n", "1"],
        ["kgroups-fixed", "--m-parity", "even", "--n", "-3"],
        ["kgroups-fixed", "--m-parity", "x", "--n", "3"],
        ["kgroups-fixed", "--m-parity", "odd"],
        ["fixed-point", "test", "--m", "1", "--n", "2",
         "--monomial", '{"mu": [], "k": 0, "nu": []}'],
        ["fixed-point", "rewrite", "--m", "1", "--n", "3",
         "--monomial", '{"mu": [], "k": 1, "nu": []}'],
        ["subalgebra", "power", "--m", "1", "--n", "2", "--k", "0"],
        ["subalgebra", "zk", "--m", "1", "--n", "2", "--k", "-1"],
        ["subalgebra", "zk", "--m", "2", "--n", "4", "--k", "1"],
        ["subalgebra", "zk", "--m", "1", "--n", "2", "--k", "1.5"],
        ["rieffel", "verify", "--grid", "0"], ["rieffel", "verify", "--grid", "-8"],
        ["rieffel", "verify", "--grid", "96"], ["rieffel", "verify", "--grid", "3"],
        ["rieffel", "trace", "--m", "1"],
        ["rieffel", "k0class", "--m", "2", "--n", "3"],
        ["rep", "check", "--m", "1", "--n", "2", "--window", "4"],
        ["rep", "check", "--m", "1", "--n", "2", "--window", "1,2,3"],
        ["rep", "check", "--m", "1", "--n", "2", "--window", "a,b"],
        ["rep", "check", "--m", "1", "--n", "2", "--window", ""],
        ["rep", "check", "--m", "1", "--n", "2", "--window", "2,-1"],
        ["rep", "check", "--m", "1", "--n", "2", "--window=-1,2"],
        ["rep", "check", "--m", "2", "--n", "4"],
        ["rep", "check", "--m", "1", "--n", "2", "--variant", "C"],
        ["rep", "check", "--m", "1", "--n", "2", "--window", "100000,0"],
        ["rep", "check", "--m", "3", "--n", "5", "--window", "4096,4"],
        ["solenoid", "points", "--m", "1", "--period", "2"],
        ["solenoid", "points", "--m", "-3", "--period", "2"],
        ["solenoid", "points", "--m", "2", "--period", "0"],
        ["solenoid", "points", "--period", "2"],
        ["solenoid", "rep", "--m", "2", "--period", "2", "--phase", "x"],
        ["solenoid", "rep", "--m", "2", "--period", "2", "--phase", "1/0"],
        ["solenoid", "rep", "--m", "2", "--period", "2", "--phase", ""],
        ["solenoid", "rep", "--m", "2", "--period", "2", "--residue", "-1"],
        ["solenoid", "rep", "--m", "2", "--period", "2", "--residue", "0"],
        ["entropy", "--m", "2", "--n", "3", "--s", "0", "--nmax", "2"],
        ["entropy", "--m", "1", "--n", "2", "--s", "-1", "--nmax", "2"],
        ["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", "0"],
        ["entropy", "--m", "1", "--n", "2", "--s", "x", "--nmax", "2"],
        # the flag is gone: no caller moves the work limit
        ["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", "3", "--bound", "0"],
        ["reproduce", "--criteria", "0"], ["reproduce", "--criteria", "12"],
        ["reproduce", "--criteria", "one"], ["reproduce", "--criteria", "1,,2"],
        ["reproduce", "--criteria", ""], ["reproduce", "--seed", "x"],
        ["frobnicate"], [],
    ):
        yield argv, ""


def call(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except Exception as exc:  # a process would show this as a traceback
        pytest.fail(f"{argv} with stdin {stdin[:80]!r} raised {exc!r}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = {"normalize", "mul", "iszero", "kms", "kgroups", "kgroups-fixed",
               "fixed-point", "subalgebra", "rieffel", "rep", "solenoid",
               "entropy", "reproduce", "frobnicate"}


def test_every_named_malformed_case_exits_two(monkeypatch, capsys):
    cases = list(malformed_cases())
    assert {argv[0] for argv, _ in cases if argv} == SUBCOMMANDS
    for argv, stdin in cases:
        code, out, err = call(argv, stdin, monkeypatch, capsys)
        assert (code, out) == (2, ""), (argv, stdin[:80], out)
        # argparse's errors too: one "error:" line, no usage, no traceback
        assert err.startswith("error:") and err.count("\n") == 1, (argv, stdin[:80], err)


# valid, cheap requests for all 13 subcommands; the sweep mutates them
SWEEP_BASE = (
    (["normalize", "--m", "1", "--n", "2"], "terms"),
    (["iszero", "--m", "2", "--n", "3"], "terms"),
    (["kms", "--m", "1", "--n", "3"], "terms"),
    (["mul", "--m", "1", "--n", "2"], "pair"),
    (["kgroups", "--m", "2", "--n", "3"], ""),
    (["kgroups-fixed", "--m-parity", "odd", "--n", "3"], ""),
    (["fixed-point", "rewrite", "--m", "1", "--n", "3", "--monomial",
      '{"mu": [2], "k": 1, "nu": [1, 1]}'], ""),
    (["subalgebra", "zk", "--m", "1", "--n", "2", "--k", "3"], ""),
    (["rieffel", "verify", "--grid", "8"], ""),
    (["rep", "check", "--m", "1", "--n", "2", "--window", "8,1"], ""),
    (["solenoid", "rep", "--m", "2", "--period", "3", "--phase", "1/3"], ""),
    (["entropy", "--m", "1", "--n", "2", "--s", "0", "--nmax", "2"], ""),
    (["reproduce", "--criteria", "1"], ""),
)
FLAG_VALUES = ("0", "-1", "1", "x", "", "1.5", "1/0", "2,3", "[]", "{}")


def test_seeded_malformed_sweep(monkeypatch, capsys):
    # random mutations of valid requests: any exit code but a traceback
    # would be wrong; a mutated element or monomial must exit 2
    rng = random.Random(1729)
    term_mutations = MONOMIAL_MUTATIONS + COEFF_MUTATIONS + MISSING
    seen = set()
    for _ in range(400):
        argv, shape = rng.choice(SWEEP_BASE)
        argv = list(argv)
        seen.add(argv[0])
        stdin, element_broken = "", False
        if shape:
            terms = [term_text(VALID_TERM) for _ in range(rng.randint(1, 3))]
            j = rng.randrange(len(terms))
            terms[j] = (rng.choice(NOT_A_TERM) if rng.random() < 0.2
                        else term_text(VALID_TERM, *rng.choice(term_mutations)))
            element_broken = True
            stdin = f"[{', '.join(terms)}]"
            if shape == "pair":
                halves = [stdin, f"[{term_text(VALID_TERM)}]"]
                rng.shuffle(halves)
                stdin = f'{{"a": {halves[0]}, "b": {halves[1]}}}'
        elif argv[0] == "fixed-point" and rng.random() < 0.5:
            mono = {"mu": "[2]", "k": "1", "nu": "[1, 1]"}
            argv[-1] = term_text(mono, *rng.choice(MONOMIAL_MUTATIONS + MISSING))
            element_broken = True
        flag_slots = [i for i, a in enumerate(argv) if a.startswith("--")
                      and i + 1 < len(argv) and argv[i] != "--monomial"]
        if flag_slots and (not element_broken or rng.random() < 0.5):
            argv[rng.choice(flag_slots) + 1] = rng.choice(FLAG_VALUES)
        code, out, err = call(argv, stdin, monkeypatch, capsys)
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, stdin)
        if element_broken:
            assert (code, out) == (2, ""), (argv, stdin)
        if code == 2:
            assert out == "" and "error:" in err, (argv, stdin)
    assert seen == SUBCOMMANDS - {"frobnicate"}
