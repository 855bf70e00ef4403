"""Which omnalg functions the traced run wraps, and the per-layer metrics.

Every public function and public method of the layer modules is wrapped,
plus the operator methods that carry the ring arithmetic.  ``HOT_LEAVES``
are left unwrapped: they are called millions of times per round, so a
span each would swamp both the run and its memory; their time shows up
as self time of the layer function that calls them.  The ``exact``
scalars are the clearest case and are measured instead by the
micro-kernels at the end of this file.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from time import perf_counter

LAYER_MODULES = ("exact", "algebra", "functions", "projection", "entropy",
                 "actions", "ktheory", "representations", "reproduce", "cli")

OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__neg__", "__pow__", "__matmul__", "__call__"}

HOT_LEAVES = {
    "exact.QQi",  # the whole scalar class
    "algebra.AlgebraParams.check_letter",
    "algebra.AlgebraParams.check_word",
    "algebra.Monomial.gauge_degree",
    "algebra.all_words",
    "algebra.shift_through",
    "algebra.push_exponent",
    "algebra.mul_monomials",
    "algebra.Element.items",
    "algebra.Element.term_count",
    "algebra.Element.coefficient",
    "exact.frac_str",
    "exact.in_localization",
    "exact.localized_denominator_exponent",
    "representations.isometry_image",
    "representations.isometry_preimage",
    "representations.PartialAffineMap.defined_at",
    "representations.PartialAffineMap.apply",
    "representations.SolenoidPeriodicPoint.coordinates",
    "representations.SolenoidPeriodicPoint.coordinate_phase",
    "representations.exact_period",
    "ktheory.mat_vec",
    "entropy.word_value",
    # the closures under CircleFn.__call__ are the overhead that
    # projection.sample_element.self_s is meant to show
    "projection.CircleFn.__call__",
}


def _skipped(qualname: str) -> bool:
    return any(qualname == leaf or qualname.startswith(leaf + ".")
               for leaf in HOT_LEAVES)


def discover(om) -> list:
    """(owner, attribute, span name) for every function to wrap."""
    targets = []
    for short in LAYER_MODULES:
        module = getattr(om, short)
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            if _skipped(name):
                continue
            if inspect.isfunction(value):
                targets.append((module, attr, name))
            elif inspect.isclass(value):
                for meth, raw in vars(value).items():
                    if meth.startswith("_") and meth not in OPERATORS:
                        continue
                    if not isinstance(raw, (classmethod, staticmethod)) \
                            and not inspect.isfunction(raw):
                        continue
                    qual = f"{name}.{meth}"
                    if not _skipped(qual):
                        targets.append((value, meth, qual))
    return targets


# -- counters taken at span boundaries -----------------------------------


def _mul_hook(tr, args, kwargs, result):
    a, b = args
    if type(b) is type(a):
        tr.count("algebra.mul.pairs", a.term_count() * b.term_count())
        tr.count("algebra.mul.result_terms", result.term_count())


def _is_zero_hook(tr, args, kwargs, result):
    elem = args[0]
    nus = [len(mon.nu) for mon, _ in elem.items()]
    if nus:
        level = max(nus)
        n = elem.params.n
        tr.count("algebra.is_zero.refined_terms",
                 sum(n ** (level - ln) for ln in nus))
    tr.count("algebra.is_zero.zero_verdicts", int(result))


def _refine_hook(tr, args, kwargs, result):
    tr.count("algebra.refine_to_level.terms_out", result.term_count())


def _sample_hook(tr, args, kwargs, result):
    elem = args[0]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tr.count("projection.terms", len(elem.terms))
    tr.count("projection.amplitudes",
             grid * sum(2 ** len(term.nu) for term in elem.terms))


def _insert_hook(tr, args, kwargs, result):
    tr.count("entropy.rows_inserted")
    tr.count("entropy.rank", int(result))


def _relations_hook(tr, args, kwargs, result):
    tr.count("representations.labels", result["labels"])


HOOKS = {
    "algebra.Element.__mul__": _mul_hook,
    "algebra.Element.is_zero": _is_zero_hook,
    "algebra.Element.refine_to_level": _refine_hook,
    "projection.sample_element": _sample_hook,
    "entropy._Echelon.insert": _insert_hook,
    "representations.relation_residuals": _relations_hook,
}


# private methods wrapped as well, because a per-layer metric counts them
PRIVATE_TARGETS = (("entropy", "_Echelon", "insert"),)


def install(tracer, om) -> None:
    targets = [(owner, attr, name, HOOKS.get(name))
               for owner, attr, name in discover(om)]
    for short, cls, meth in PRIVATE_TARGETS:
        owner = getattr(getattr(om, short), cls, None)
        if owner is not None and meth in vars(owner):  # gone: counts read 0
            name = f"{short}.{cls}.{meth}"
            targets.append((owner, meth, name, HOOKS.get(name)))
    tracer.install(targets, [getattr(om, short) for short in LAYER_MODULES])


# -- per-layer metrics ------------------------------------------------------

EXACT_OPS = tuple(f"functions.PiecewiseFunction.{op}" for op in
                  ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "scale", "conjugate")) + ("functions.dilate",)

# metric name -> (unit, kind, span names or counter); kind is calls,
# self_s or count; ratios and the micro-kernels are added in per_layer()
SPAN_METRICS = {
    "algebra.mul.calls": ("count", "calls", ("algebra.Element.__mul__",)),
    "algebra.mul.self_s": ("s", "self_s", ("algebra.Element.__mul__",)),
    "algebra.mul.pairs": ("count", "count", "algebra.mul.pairs"),
    "algebra.add.calls": ("count", "calls", ("algebra.Element.__add__",)),
    "algebra.add.self_s": ("s", "self_s", ("algebra.Element.__add__",)),
    "algebra.is_zero.calls": ("count", "calls", ("algebra.Element.is_zero",)),
    "algebra.is_zero.self_s": ("s", "self_s", ("algebra.Element.is_zero",)),
    "algebra.is_zero.refined_terms": ("count", "count",
                                      "algebra.is_zero.refined_terms"),
    "algebra.refine_to_level.calls": ("count", "calls",
                                      ("algebra.Element.refine_to_level",)),
    "algebra.refine_to_level.self_s": ("s", "self_s",
                                       ("algebra.Element.refine_to_level",)),
    "algebra.refine_to_level.terms_out": ("count", "count",
                                          "algebra.refine_to_level.terms_out"),
    "functions.evaluate_float.calls": (
        "count", "calls", ("functions.PiecewiseFunction.evaluate_float",
                           "functions.PiecewiseFunction.__call__")),
    "functions.evaluate_float.self_s": (
        "s", "self_s", ("functions.PiecewiseFunction.evaluate_float",
                        "functions.PiecewiseFunction.__call__")),
    "functions.exact_ops.self_s": ("s", "self_s", EXACT_OPS),
    "projection.sample_element.calls": ("count", "calls",
                                        ("projection.sample_element",)),
    "projection.sample_element.self_s": ("s", "self_s",
                                         ("projection.sample_element",)),
    "projection.amplitudes": ("count", "count", "projection.amplitudes"),
    "projection.terms": ("count", "count", "projection.terms"),
    "projection.check_conditions.self_s": ("s", "self_s",
                                           ("projection.check_conditions",)),
    # the echelon inserts are spans of their own, for the counts below
    "entropy.entropy_estimate.self_s": ("s", "self_s",
                                        ("entropy.entropy_estimate",
                                         "entropy._Echelon.insert")),
    "entropy.rows_inserted": ("count", "count", "entropy.rows_inserted"),
    "entropy.rank": ("count", "count", "entropy.rank"),
    "entropy.rho_matrix.self_s": ("s", "self_s", ("entropy.rho_matrix",)),
    "actions.fixed_point_rewrite.self_s": ("s", "self_s",
                                           ("actions.fixed_point_rewrite",)),
    "actions.to_element.self_s": ("s", "self_s",
                                  ("actions.GeneratorWord.to_element",)),
    "actions.subalgebra_witness.self_s": (
        "s", "self_s", ("actions.subalgebra_witness_power",
                        "actions.subalgebra_witness_zk")),
    "ktheory.smith_normal_form.calls": ("count", "calls",
                                        ("ktheory.smith_normal_form",)),
    "ktheory.smith_normal_form.self_s": ("s", "self_s",
                                         ("ktheory.smith_normal_form",)),
    "representations.relation_residuals.self_s": (
        "s", "self_s", ("representations.relation_residuals",)),
    "representations.solenoid_rep_check.self_s": (
        "s", "self_s", ("representations.solenoid_rep_check",)),
    "representations.labels": ("count", "count", "representations.labels"),
    "cli.main.calls": ("count", "calls", ("cli.main",)),
    "cli.self_s": ("s", "self_s", ("cli.main",)),
    "cli.exit_0": ("count", "count", "cli.exit_0"),
    "cli.exit_1": ("count", "count", "cli.exit_1"),
    "cli.exit_2": ("count", "count", "cli.exit_2"),
    "cli.tracebacks": ("count", "count", "cli.tracebacks"),
}

# the counts that must repeat exactly between traced rounds and runs
EXACT_REPEAT = tuple(name for name, (_, kind, _) in SPAN_METRICS.items()
                     if kind in ("calls", "count"))


def layer_values(snapshot: dict) -> dict:
    """SPAN_METRICS plus the derived ratios, from one traced round."""
    spans, counts = snapshot["spans"], snapshot["counts"]
    out = {}
    for metric, (_, kind, source) in SPAN_METRICS.items():
        if kind == "count":
            out[metric] = counts.get(source, 0)
        else:
            out[metric] = sum(spans.get(name, {}).get(kind, 0) for name in source)
    pairs = counts.get("algebra.mul.pairs", 0)
    out["algebra.mul.useful_ratio"] = (
        counts.get("algebra.mul.result_terms", 0) / pairs if pairs else 0.0)
    calls = out["algebra.is_zero.calls"]
    out["algebra.is_zero.zero_ratio"] = (
        counts.get("algebra.is_zero.zero_verdicts", 0) / calls if calls else 0.0)
    rows = out["entropy.rows_inserted"]
    out["entropy.rank_ratio"] = out["entropy.rank"] / rows if rows else 0.0
    return out


RATIO_METRICS = ("algebra.mul.useful_ratio", "algebra.is_zero.zero_ratio",
                 "entropy.rank_ratio")


def units() -> dict:
    table = {metric: unit for metric, (unit, _, _) in SPAN_METRICS.items()}
    table.update({name: "ratio" for name in RATIO_METRICS})
    table.update({"exact.qqi_mul_ns": "ns", "exact.qqi_add_ns": "ns"})
    return table


# -- exact micro-kernels ------------------------------------------------------

KERNEL_POOL = 1024
KERNEL_REPEATS = 15


def exact_kernels(om, seed: int) -> dict:
    """Best-of-k nanoseconds per QQi product and sum over a seeded pool of
    criterion-8 coefficients (parts p/q with |p| <= 3, 1 <= q <= 3)."""
    QQi = om.exact.QQi
    rng = random.Random(seed)
    pool = []
    for _ in range(KERNEL_POOL):
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        pool.append(QQi(re, im))
    pairs = list(zip(pool, pool[1:] + pool[:1]))
    out = {}
    for metric, op in (("exact.qqi_mul_ns", QQi.__mul__),
                       ("exact.qqi_add_ns", QQi.__add__)):
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            for a, b in pairs:
                op(a, b)
            best = min(best, perf_counter() - start)
        out[metric] = best / len(pairs) * 1e9
    return out
