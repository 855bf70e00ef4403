"""Every name the library defines is reached by the library or the benchmark.

Code that only tests call is a reference implementation, and it lives in
`tests/` (the shared ones in `oracles.py`), where it stays independent of
the library it checks.  So every module-level function and class of
`src/omnalg`, and every method except the dunders, must be referred to,
by a Name or an Attribute outside its own definition, somewhere in
`src/omnalg` or `perfbench/*.py`.  The match is by name alone, so it can
only miss an unreached definition, never flag a reached one: a method
passes when any other definition of its name has a caller, and dunders are
not scanned.  Operators no program path runs are pinned by
`test_removed_scalar_surfaces_raise` instead.
"""

import ast
from pathlib import Path

import pytest

from omnalg.algebra import AlgebraParams, Element
from omnalg.exact import QQi

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "omnalg").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

# definitions that nothing in the scanned code names, and why each stays
ALLOWED = {
    "cli._Parser.error": "argparse calls it to refuse a flag it cannot parse",
    "exact.QQi.gaussian": "the documented read-out of the normal form (a, b, d)",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(path):
    """(qualified name, node) of each module-level function and class, and
    of each method that is not a dunder."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield f"{path.stem}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{path.stem}.{node.name}.{item.name}", item


def references(path):
    """(name, line) of every Name and Attribute in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached():
    lines = {}  # name -> [(path, line)]
    for path in CALLERS:
        for name, line in references(path):
            lines.setdefault(name, []).append((path, line))
    out = []
    for path in LIBRARY:
        for qualname, node in definitions(path):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in inside
                       for where, line in lines.get(node.name, ())):
                out.append(qualname)
    return out


def test_the_scan_sees_the_library_and_the_benchmark():
    assert {path.stem for path in LIBRARY} >= {"algebra", "cli", "entropy"}
    assert any(path.parent.name == "perfbench" for path in CALLERS)
    qualnames = {q for path in LIBRARY for q, _ in definitions(path)}
    assert set(ALLOWED) <= qualnames
    assert "algebra.Element.is_zero" in qualnames
    assert "algebra.Element.__mul__" not in qualnames


def test_every_library_definition_has_a_caller_outside_tests():
    found = set(unreached())
    extra = sorted(found - set(ALLOWED))
    assert not extra, f"only tests reach: {', '.join(extra)}"
    assert set(ALLOWED) <= found, "an allowed name has a caller now"


# the scalar surfaces of `Element` and `QQi` that no program path used, by
# a trace of the acceptance sweep and the benchmark: gone, so none coerces
X = Element.isometry(AlgebraParams(1, 2), 1)
REMOVED = {
    "x * 2": (lambda: X * 2, TypeError),
    "2 * x": (lambda: 2 * X, TypeError),
    "x ** 2": (lambda: X ** 2, TypeError),
    "QQi(1) - QQi(1)": (lambda: QQi(1) - QQi(1), TypeError),
    "1 + QQi(1)": (lambda: 1 + QQi(1), TypeError),
    "QQi(1) + 1": (lambda: QQi(1) + 1, TypeError),
    "hash(QQi(1))": (lambda: hash(QQi(1)), TypeError),
    "complex(QQi(1))": (lambda: complex(QQi(1)), TypeError),
    "QQi(0.25)": (lambda: QQi(0.25), AttributeError),
}


@pytest.mark.parametrize("expr", sorted(REMOVED))
def test_removed_scalar_surfaces_raise(expr):
    build, error = REMOVED[expr]
    with pytest.raises(error):
        build()
