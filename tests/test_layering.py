"""Import layering of the package, read from the source with ast.

The algebra layer sits below the derivation, cocycle and CLI layers, and the
CLI sits on top of everything: no module may import upward, not even lazily
inside a function or under TYPE_CHECKING.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freedim"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


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
