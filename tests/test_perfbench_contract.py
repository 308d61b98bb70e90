"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/tracer.py` wraps each function named in its FUNCTIONS table at
every module that binds it; a name deleted from the package breaks traced
benchmark runs, and a name that no shipped scenario calls has no time to
show.  The tracer is read, never changed, here.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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
        # each binding is wrapped once: no two traced names are one function
        assert len(patched) == len(set(patched))
        # every traced function is wrapped at least at its home module
        assert {f"freedim.{name}" for name in tracer.NAMES} <= set(patched)
        assert _bindings() != before
    finally:
        t.uninstall()
    assert _bindings() == before


def test_shipped_configs_call_every_traced_name(tmp_path):
    from freedim import cli

    tracer = _load_tracer().Tracer().install()
    try:
        for path in sorted((ROOT / "configs").glob("*.json")):
            scenario = json.loads(path.read_text())["scenario"]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([scenario, "--config", str(path), "--seed", "0",
                                 "--output", str(tmp_path / "report.json")])
            assert code == 0, path.name
    finally:
        tracer.uninstall()
    uncalled = {name for name, row in tracer.summary().items() if row["calls"] == 0}
    # the dense certificates, which no shipped scenario needs; H1, which
    # returns H0 (H1 is H0 by theorem) and which delta_report does not call;
    # the subspace distance, which no scenario measures, since H1 and H2 are
    # H0; and H0's span and its dimension report, since delta_report reads
    # H0's multiplicities as the Schur values that the block pairs'
    # Sylvester ranks proved when the algebra was built.  The last
    # four stay as README library API, and the tracer wraps them
    assert uncalled <= {"vndim.hs_subspace", "vndim.invariance_residual",
                        "cocycles.compute_H1", "vndim.subspace_distance",
                        "cocycles.compute_H0", "vndim.vn_dimension_report"}
