"""Every numerical threshold of the package is named in tolerances.py.

Read from the source with ast: a float literal of size below 1e-3 outside
`tolerances.py` is a threshold that no gate table shows.  Signs do not
matter (-1e-12 parses as the negation of 1e-12).
"""

import ast
from pathlib import Path

import pytest

from freedim import tolerances

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freedim"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "tolerances")


def small_float_literals(name: str) -> list[tuple[int, float]]:
    """(line, value) of each float literal 0 < |x| < 1e-3 in freedim.<name>."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-3]


def test_literals_are_seen():
    found = {value for _, value in small_float_literals("tolerances")}
    assert {tolerances.SCALAR_TOL, tolerances.RANK_TOL, tolerances.CLUSTER_GAP} <= found


@pytest.mark.parametrize("name", MODULES)
def test_no_threshold_literal_outside_tolerances(name):
    assert small_float_literals(name) == []



def literal_digits_and_denominators(source: str) -> list[str]:
    """Each rounding to a literal number of digits, `round(x, 6)` or
    `np.round(x, 6)`, and each `limit_denominator` with a literal bound such
    as `10**6`, in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = getattr(node.func, "attr", getattr(node.func, "id", None))
        args = {"round": node.args[1:], "limit_denominator": node.args}.get(func, [])
        if any(all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator,
                                  ast.unaryop)) for n in ast.walk(a)) for a in args):
            found.append(ast.unparse(node))
    return found


def test_digits_and_denominator_literals_are_seen():
    source = ("np.round(p, 6)\nround(x, 2)\nFraction(x).limit_denominator(10**6)\n"
              "round(x)\nnp.round(p, DIGITS)\nfr.limit_denominator(BOUND)\n")
    assert literal_digits_and_denominators(source) == [
        "np.round(p, 6)", "round(x, 2)", "Fraction(x).limit_denominator(10 ** 6)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_digits_or_denominator_literal_outside_tolerances(name):
    assert literal_digits_and_denominators((PACKAGE / f"{name}.py").read_text()) == []


@pytest.mark.parametrize("module,function,constant", [
    ("wedderburn", "_canonical_order", "PROJECTION_DIGITS"),
    ("vndim", "to_fraction", "FRACTION_DENOMINATOR"),
    ("wedderburn", "_irreducible_isometry", "PROJECTION_SPLIT"),
])
def test_named_thresholds_at_their_call_sites(module, function, constant):
    # the eigenvalue split of _irreducible_isometry is a float literal of 0.5
    # or more, which the scan of small literals does not see
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    assert constant in {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert [node.value for node in ast.walk(body) if isinstance(node, ast.Constant)
            and type(node.value) is float] == []


def _read_names(path: Path) -> set[str]:
    """Every name a module loads, bare or as an attribute."""
    tree = ast.parse(path.read_text())
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_tolerance_is_read():
    # a named threshold that no module or other test reads gates nothing
    tests = Path(__file__).resolve().parent
    readers = [p for p in [*PACKAGE.glob("*.py"), *tests.glob("*.py")]
               if p.name not in ("tolerances.py", Path(__file__).name)]
    read = set().union(*map(_read_names, readers))
    constants = [name for name in vars(tolerances) if name.isupper()]
    assert constants and sorted(set(constants) - read) == []
