"""Report bytes of the shipped configs, pinned by perfbench/goldens.json.

The benchmark recorded the sha256 of every JSON report of the shipped
configs for op seeds 0..15 (perfbench/record_goldens.py), keyed as
``scenario:sha256(config file)[:16]:seed``.  A change that moves any report
byte fails here.  The goldens file is only read.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freedim.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
SEEDS = range(16)


@pytest.mark.parametrize("label", sorted(GOLDENS["certified"]))
def test_shipped_reports_match_goldens(label, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FREEDIM_TOL", raising=False)
    config = ROOT / "configs" / f"{label}.json"
    scenario = json.loads(config.read_text())["scenario"]
    digest = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
    out = tmp_path / "report.json"
    changed = []
    for seed in SEEDS:
        argv = [scenario, "--config", str(config), "--seed", str(seed),
                "--output", str(out)]
        assert main(argv) == 0
        want = GOLDENS["reports"][f"{scenario}:{digest}:{seed}"]
        if hashlib.sha256(out.read_bytes()).hexdigest() != want:
            changed.append(seed)
    capsys.readouterr()
    assert changed == [], f"{label}: report bytes changed for seeds {changed}"


def test_s4_report_matches_golden_at_two_blas_threads(tmp_path):
    # the shipped configs (D <= 6) never depend on BLAS partitioning; S4
    # (D = 24) does, and its goldens were recorded at 2 BLAS threads
    config = tmp_path / "s4.json"
    with open(config, "w") as fh:  # the bytes perfbench/workloads.py writes
        json.dump({"scenario": "group_finite",
                   "group": {"kind": "symmetric", "n": 4}}, fh)
    out = tmp_path / "report.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("FREEDIM_TOL", None)
    argv = ["group_finite", "--config", str(config), "--seed", "1",
            "--output", str(out)]
    subprocess.run([sys.executable, "-c",
                    "import sys; from freedim.cli import main; "
                    f"sys.exit(main({argv!r}))"], env=env, check=True,
                   capture_output=True)
    digest = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
    want = GOLDENS["reports"][f"group_finite:{digest}:1"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
