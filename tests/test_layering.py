"""Import layering of the package, read from the source with ast.

The modules follow the pipeline: the algebra layer, its block decomposition,
the trace-weighted dimension and the layers built on it, the cocycle spaces,
and the CLI on top.  No module may import upward or sideways, not even
lazily inside a function or under TYPE_CHECKING.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freedim"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

# A module imports only modules of strictly lower rank.
RANK = {
    "errors": 0, "tolerances": 0,
    "algebra": 1, "cutoff": 1,
    "wedderburn": 2,
    "vndim": 3, "derivations": 3, "groups": 3,
    "cocycles": 4,
    "cli": 5,
}
UPWARD: set[tuple[str, str]] = set()


def imported_modules(name: str) -> set[str]:
    """The package modules that freedim.<name> imports anywhere in its body."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:      # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1:                     # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("freedim."):
                found.add(node.module.split(".")[1])
            elif node.module == "freedim":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("freedim."))
    return found & set(MODULES)


def test_imports_are_seen():
    assert {"algebra", "derivations", "cocycles"} <= imported_modules("cli")
    assert "algebra" in imported_modules("derivations")


def test_algebra_imports_no_higher_layer():
    assert imported_modules("algebra") & {"derivations", "cocycles", "cli"} == set()


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_no_module_imports_cli(name):
    assert "cli" not in imported_modules(name)


def test_rank_table_covers_every_module():
    assert set(RANK) == set(MODULES) - {"__init__"}


@pytest.mark.parametrize("name", sorted(RANK))
def test_imports_point_to_lower_ranks(name):
    not_lower = {m for m in imported_modules(name)
             if RANK[m] >= RANK[name] and (name, m) not in UPWARD}
    assert not_lower == set()


# The matrix-unit frame: the block basis, its unit map, the frames and the
# block ranges.  Other modules reach it through GnsStructure's block accessors.
FRAME_HELPERS = {"_block_basis", "_unit_map", "_frame", "_block_ranges"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "algebra"])
def test_frame_helpers_stay_in_algebra(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))}
    assert names & FRAME_HELPERS == set()
