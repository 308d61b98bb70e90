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
