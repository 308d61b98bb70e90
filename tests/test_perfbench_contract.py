"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/tracer.py` wraps each function named in its FUNCTIONS table at
every module that binds it; a name deleted from the package breaks traced
benchmark runs.  The tracer is read, never changed, here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded freedim module, by identity."""
    return {(key, attr): id(value)
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "freedim" or key.startswith("freedim."))
            for attr, value in vars(mod).items()}


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = [f"{m}.{f}" for m, fs in tracer.FUNCTIONS.items() for f in fs
               if not callable(getattr(importlib.import_module(f"freedim.{m}"), f, None))]
    assert missing == []


def test_tracer_install_uninstall_restores_bindings():
    tracer = _load_tracer()
    for module in tracer.FUNCTIONS:
        importlib.import_module(f"freedim.{module}")
    before = _bindings()
    t = tracer.Tracer().install()
    try:
        patched = t.bindings()
        # every traced function is wrapped at least at its home module
        assert {f"freedim.{name}" for name in tracer.NAMES} <= set(patched)
        assert _bindings() != before
    finally:
        t.uninstall()
    assert _bindings() == before
