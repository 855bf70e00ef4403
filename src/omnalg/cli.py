"""Command line front end for the whole package.

One executable, one subcommand per capability: normal-form arithmetic on
serialized elements (``normalize``, ``mul``, ``iszero``, ``kms``),
K-theory (``kgroups``, ``kgroups-fixed``), the rotation fixed-point
subalgebra (``fixed-point``, ``subalgebra``), the projection construction
(``rieffel``), shift and solenoid representations (``rep``, ``solenoid``),
dimension-growth entropy (``entropy``), and the bundled acceptance sweep
(``reproduce``).

Every subcommand prints a compact answer on stdout and exits 0 exactly
when its checks pass; ``--json`` wraps the same results in a
schema-versioned run report with a command echo, parameters, a pass flag,
and wall-clock timing.  Each pass flag, published value and size limit
is the library's, the one ``reproduce`` reads too, and no flag moves a
limit; handlers only pick arguments and format.  Elements are read from
stdin in the JSON term-list format of the algebra module, which
`algebra.Element.from_json_obj` checks strictly.

Bad input has one path to exit status 2: library code raises ValueError
for bad arguments and for nothing else, handlers raise `UsageError` (a
ValueError) for bad flags, so does the parser for flags it cannot parse,
and `main` maps every ValueError to one ``error: <message>`` line on
stderr and status 2.  A broken internal invariant raises AssertionError
or ArithmeticError instead and still ends in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from time import perf_counter
from typing import NoReturn, Optional, Sequence, Tuple

from .algebra import AlgebraParams, Element, monomial_from_json_obj
from .exact import frac_str, parse_frac
from . import actions
from . import entropy as entropy_mod
from . import ktheory
from . import projection
from . import representations
from . import reproduce as reproduce_mod

SCHEMA = "omnalg-report/1"

class UsageError(ValueError):
    """Bad flags or malformed stdin; mapped to exit status 2 like any ValueError."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises `UsageError` instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def _int_arg(text: str) -> int:
    """The `type=` of every int flag: int(text), or one short refusal.

    argparse would echo a refused value whole, and int() refuses a value
    past 4 300 digits however valid, so a long value is named by its
    length; a short one is echoed as argparse echoes it.
    """
    try:
        return int(text)
    except ValueError:
        message = (f"invalid int value: {text!r}" if len(text) <= 64
                   else f"invalid int value of {len(text)} characters")
        raise argparse.ArgumentTypeError(message) from None


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _load_json(text: str, source: str):
    # nesting too deep for the decoder is malformed input as well
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{source} is not valid JSON: {exc}") from None


def _stdin_element(params: AlgebraParams) -> Element:
    return Element.from_json_obj(params, _load_json(sys.stdin.read(), "stdin"))


# -- subcommand handlers: each returns (results, pass, compact text) ------


def _cmd_normalize(args) -> Tuple[dict, bool, str]:
    terms = _stdin_element(AlgebraParams(args.m, args.n)).to_json_obj()
    return {"terms": terms, "term_count": len(terms)}, True, _compact(terms)


def _cmd_mul(args) -> Tuple[dict, bool, str]:
    params = AlgebraParams(args.m, args.n)
    obj = _load_json(sys.stdin.read(), "stdin")
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise UsageError('mul reads {"a": [terms], "b": [terms]} from stdin')
    prod = (Element.from_json_obj(params, obj["a"])
            * Element.from_json_obj(params, obj["b"]))
    terms = prod.to_json_obj()
    return {"terms": terms, "term_count": len(terms)}, True, _compact(terms)


def _cmd_iszero(args) -> Tuple[dict, bool, str]:
    zero = _stdin_element(AlgebraParams(args.m, args.n)).is_zero()
    return {"is_zero": zero}, zero, "true" if zero else "false"


def _cmd_kms(args) -> Tuple[dict, bool, str]:
    value = _stdin_element(AlgebraParams(args.m, args.n)).kms_state()
    results = {"re": frac_str(value.re), "im": frac_str(value.im)}
    return results, True, str(value)


def _cmd_kgroups(args) -> Tuple[dict, bool, str]:
    params = AlgebraParams(args.m, args.n)
    report = ktheory.kgroups_by_method(params.m, params.n, args.method)
    results = {key: value for key, value in report.items() if key != "pass"}
    for key in ("six_term", "pv"):
        if key in results:
            k0, k1 = results[key]
            results[key] = {"K0": k0.to_json_obj(), "K1": k1.to_json_obj()}
    shown = results.get("six_term", results.get("pv"))
    return results, report["pass"], _compact(shown)


def _cmd_kgroups_fixed(args) -> Tuple[dict, bool, str]:
    rep = ktheory.symmetry_fixed_kgroups(args.m_parity, args.n)
    results = dict(rep)
    for key in ("computed_k0", "computed_k1", "reference_k0", "reference_k1"):
        results[key] = rep[key].to_json_obj()
    compact = _compact({
        "K0": str(rep["computed_k0"]),
        "K1": str(rep["computed_k1"]),
        "agrees_k0": rep["agrees_k0"],
        "agrees_k1": rep["agrees_k1"],
    })
    return results, rep["pass"], compact


def _cmd_fixed_point(args) -> Tuple[dict, bool, str]:
    params = AlgebraParams(args.m, args.n)
    mon = monomial_from_json_obj(params, _load_json(args.monomial, "--monomial"))
    modulus = actions.rotation_modulus(params)
    weight = actions.rotation_weight(params, mon)
    if args.action == "test":
        fixed = weight == 0
        results = {"weight": weight, "modulus": modulus, "fixed": fixed}
        return results, fixed, _compact(results)
    word = actions.fixed_point_rewrite(params, mon)
    round_trip = word.represents(mon)
    results = {
        "word": str(word),
        "tokens": [list(tok) for tok in word.tokens],
        "exponents": word.exponents(),
        "modulus": modulus,
        "round_trip": round_trip,
    }
    return results, round_trip, _compact({"word": str(word),
                                          "round_trip": round_trip})


def _cmd_subalgebra(args) -> Tuple[dict, bool, str]:
    params = AlgebraParams(args.m, args.n)
    witness = (actions.subalgebra_witness_power if args.family == "power"
               else actions.subalgebra_witness_zk)
    report = witness(params, args.k)
    return report, report["pass"], _compact(report)


def _cmd_rieffel(args) -> Tuple[dict, bool, str]:
    if (args.m, args.n) not in ((None, None), (1, 2)):
        raise UsageError("the projection lives in the (m, n) = (1, 2) algebra")
    data = projection.build_canonical_data()
    if args.action == "trace":
        value = projection.kms_trace(data)
        return {"trace": frac_str(value)}, True, frac_str(value)
    if args.action == "k0class":
        value = projection.k0_class(data)
        return {"k0_class": value}, True, str(value)
    results = projection.verify(data, grid=args.grid)
    square = results["square"]
    compact = _compact({
        "conditions": results["conditions"]["pass"],
        "residual": square["residual"],
        "grid_stable": square["grid_stable"],
        "trace": results["trace"],
        "k0_class": results["k0_class"],
        "pass": results["pass"],
    })
    return results, results["pass"], compact


def _cmd_rep(args) -> Tuple[dict, bool, str]:
    params = AlgebraParams(args.m, args.n)
    try:
        num_bound, exp_bound = (int(part) for part in args.window.split(","))
    except ValueError:
        raise UsageError("--window expects two integers as P,Q") from None
    report = representations.relation_residuals(
        params, args.variant, num_bound=num_bound, exp_bound=exp_bound)
    compact = _compact({
        "variant": report["variant"],
        "labels": report["labels"],
        "checked": report["checked"],
        "coverage": report["coverage"],
        "violations": len(report["violations"]),
        "pass": report["pass"],
    })
    return report, report["pass"], compact


def _cmd_solenoid(args) -> Tuple[dict, bool, str]:
    orbits = representations.solenoid_orbits(args.m, args.period)
    if args.action == "points":
        # the orbits partition the exact-period points
        residues = sorted(r for orbit in orbits for r in orbit)
        results = {
            "m": args.m,
            "period": args.period,
            "modulus": args.m ** args.period - 1,
            "count": len(residues),
            "residues": residues,
            "orbit_count": len(orbits),
            "orbits": orbits,
        }
        return results, True, _compact({"count": len(residues),
                                        "orbit_count": len(orbits)})
    residue = args.residue if args.residue is not None else orbits[0][0]
    point = representations.SolenoidPeriodicPoint(args.m, args.period, residue)
    report = representations.solenoid_rep_check(point, parse_frac(args.phase),
                                                 {0: 1})
    compact = _compact({
        "residue": report["residue"],
        "unitary": report["unitary"],
        "covariance_exact": report["covariance_exact"],
        "pass": report["pass"],
    })
    return report, report["pass"], compact


def _cmd_entropy(args) -> Tuple[dict, bool, str]:
    params = AlgebraParams(args.m, args.n)
    table = entropy_mod.entropy_estimate(params, args.s, args.nmax)
    results = table.to_json_obj()
    lines = [f"{'N':>3} {'dim':>10} {'slope':>9} {'slope/log n':>12}"]
    for row in table.rows:
        slope = "" if row.slope is None else f"{row.slope:.6f}"
        norm = f"{row.normalized:.6f}"
        lines.append(f"{row.depth:>3} {row.dimension:>10} {slope:>9} {norm:>12}")
    lines.append(f"growth rate {table.growth_rate:.6f}"
                 f" (log n = {results['log_n']:.6f})")
    return results, True, "\n".join(lines)


def _cmd_reproduce(args) -> Tuple[dict, bool, str]:
    wanted = None
    if args.criteria is not None:
        try:
            wanted = sorted({int(part) for part in args.criteria.split(",")})
        except ValueError:
            raise UsageError("--criteria expects integers like 1,3,9") from None
    report = reproduce_mod.run_all(seed=args.seed, criteria=wanted)
    return report, report["pass"], reproduce_mod.summary_table(report)


# -- parser wiring --------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, mn: bool = False,
                mn_required: bool = True, seed: bool = False) -> None:
    if mn:
        parser.add_argument("--m", type=_int_arg, required=mn_required,
                            help="central twist exponent m")
        parser.add_argument("--n", type=_int_arg, required=mn_required,
                            help="number of isometries n")
    if seed:
        parser.add_argument("--seed", type=_int_arg,
                            default=reproduce_mod.DEFAULT_SEED,
                            help="seed for randomized sweeps")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable run report")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of a process.

    Building it costs far more than parsing one argv, so every later call
    reuses it.  It is never built at import.  Sharing it is safe: each
    `parse_args` fills a fresh Namespace, and argparse looks up
    `sys.stdout` and `sys.stderr` only when it writes.
    """
    top = _Parser(
        prog="omnalg",
        description="exact computations in the circle correspondence "
                    "algebras generated by a unitary and n isometries")
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="subcommand")

    p = sub.add_parser("normalize",
                       help="read element JSON from stdin, print normal form")
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("mul",
                       help='read {"a": terms, "b": terms}, print the product')
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser("iszero",
                       help="exact zero test of the element on stdin")
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_iszero)

    p = sub.add_parser("kms",
                       help="KMS state value of the element on stdin")
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_kms)

    p = sub.add_parser("kgroups", help="K-groups of the (m, n) algebra")
    p.add_argument("--method", choices=("six-term", "pv", "both"),
                   default="both")
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_kgroups)

    p = sub.add_parser("kgroups-fixed",
                       help="K-groups of the circle-flip fixed-point algebra")
    p.add_argument("--m-parity", choices=("odd", "even"), required=True,
                   dest="m_parity")
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(handler=_cmd_kgroups_fixed)
    _add_common(p)

    p = sub.add_parser("fixed-point",
                       help="membership and rewriting in the rotation "
                            "fixed-point subalgebra")
    p.add_argument("action", choices=("test", "rewrite"))
    p.add_argument("--monomial", required=True,
                   help='monomial JSON {"mu": [...], "k": int, "nu": [...]}')
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_fixed_point)

    p = sub.add_parser("subalgebra",
                       help="verify the embedded copies generated by "
                            "(z, S_1^k) or (z^k, S_1)")
    p.add_argument("family", choices=("power", "zk"))
    p.add_argument("--k", type=_int_arg, required=True)
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_subalgebra)

    p = sub.add_parser("rieffel",
                       help="the projection in the 2x2 matrices over the "
                            "(1, 2) algebra")
    p.add_argument("action", choices=("verify", "trace", "k0class"))
    p.add_argument("--grid", type=_int_arg, default=projection.DEFAULT_GRID,
                   help="sampling grid for the numeric squaring check")
    _add_common(p, mn=True, mn_required=False)
    p.set_defaults(handler=_cmd_rieffel)

    p = sub.add_parser("rep",
                       help="defining relations in the weighted shift "
                            "representation, checked on a label window")
    p.add_argument("action", choices=("check",))
    p.add_argument("--variant", choices=("A", "B"), default="A")
    p.add_argument("--window",
                   default=",".join(map(str, representations.DEFAULT_WINDOW)),
                   help="label window as P,Q: numerators |p| <= P, "
                        "denominator exponents <= Q")
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_rep)

    p = sub.add_parser("solenoid",
                       help="periodic points of the m-adic solenoid and "
                            "the covariant finite representations")
    p.add_argument("action", choices=("points", "rep"))
    p.add_argument("--m", type=_int_arg, required=True)
    p.add_argument("--period", type=_int_arg, required=True)
    p.add_argument("--phase", default="0",
                   help="corner phase of the shift unitary, as p/q turns")
    p.add_argument("--residue", type=_int_arg, default=None,
                   help="periodic point to use (default: smallest)")
    _add_common(p)
    p.set_defaults(handler=_cmd_solenoid)

    p = sub.add_parser("entropy",
                       help="dimension growth of iterated images under the "
                            "canonical endomorphism")
    p.add_argument("--s", type=_int_arg, required=True,
                   help="word-length level of the starting window")
    p.add_argument("--nmax", type=_int_arg, required=True,
                   help="number of iterations")
    _add_common(p, mn=True)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("reproduce",
                       help="run the bundled acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset, e.g. 1,4,5 (default: all)")
    _add_common(p, seed=True)
    p.set_defaults(handler=_cmd_reproduce)

    return top


def _echo_params(args) -> dict:
    skip = {"handler", "json", "command"}
    return {key: value for key, value in vars(args).items()
            if key not in skip and value is not None and not callable(value)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        start = perf_counter()
        results, ok, compact = args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = perf_counter() - start
    if args.json:
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "params": _echo_params(args),
            "results": results,
            "pass": ok,
            "elapsed_s": round(elapsed, 6),
        }
        print(json.dumps(report, indent=2))
    else:
        print(compact)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
