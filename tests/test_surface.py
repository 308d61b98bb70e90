"""Every definition in the package is on the pipeline or its documented API.

A top-level function or class of a `src/freedim` module, or a method of such a
class, must be used (referenced by name or attribute in the package outside
its own definition), documented in README.md, or wrapped by the benchmark's
tracer.  README documents a top-level definition as `name` or `fd.name` only
if `freedim/__init__.py` exports it, and a method only as `Class.method`, so
a backticked word used in another sense keeps nothing alive.  A definition
that only the tests reach belongs in the tests.  The tracer is read, never
changed, here.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freedim"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _traced() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(m, f) for m, fs in module.FUNCTIONS.items() for f in fs}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _documented(trees) -> set[str]:
    """README's backticked names that document an API: a top-level name
    only if the package exports it, a method only as `Class.method`."""
    words = {re.sub(r"^fd\.", "", w)
             for w in re.findall(r"`([\w.]+)", (ROOT / "README.md").read_text())}
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {w for w in words if "." in w or w in exported}


def test_every_definition_is_used_named_or_traced():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    references = [
        (module, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    named = _documented(trees)
    traced = _traced()

    unreached = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualname, d in _definitions(tree):
            used = any(name == d.name and not (m == module and d.lineno <= line <= d.end_lineno)
                       for m, name, line in references)
            if not (used or qualname in named or (module, d.name) in traced):
                unreached.append(f"{module}.{qualname}")
    assert unreached == []


# A class whose instances reach a report through `dataclasses.asdict`: its
# fields are read by name there, not as attributes.
_AS_DICT = {"FisherSlot"}


def _fields(tree: ast.Module):
    """(class, field) of each dataclass field that is not an InitVar."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            yield from ((node.name, item.target.id) for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not ast.unparse(item.annotation).startswith("InitVar"))


def test_every_dataclass_field_is_read():
    # a field that nothing reads is a result the package computes and keeps
    # for no caller; its own class's methods count as readers
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for tree in trees for cls, name in _fields(tree)
              if cls not in _AS_DICT and name not in read]
    assert unread == []
