"""Report bytes of the shipped configs.

The benchmark recorded the sha256 of every JSON report of the shipped
configs for op seeds 0..15 (perfbench/record_goldens.py), keyed as
``scenario:sha256(config file)[:16]:seed``.  A change that moves any report
byte fails here.  The goldens file is only read.  The text reports of the
shipped configs and the csv report of the cutoff sweep are pinned below, at
seed 0.
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


# sha256 of `--format <fmt> --seed 0` of each shipped config
TEXT_AND_CSV_GOLDENS = {
    ("counterexample", "text"):
        "ea24173f5c05b2f24f3e42f320d515ba6a1f5803d6fe1ea7517ca2c41d924002",
    ("cutoff_sweep", "text"):
        "4d77accda01a714fef30d112db7248d9491859edd7fdbbbb2db4720b30b71362",
    ("cutoff_sweep", "csv"):
        "486f15a12c8518d5d0837c0404411cced6dab4660f48a90657c5031eb38c8d92",
    ("delta_direct_sum", "text"):
        "f62bdc454249112560678d35822ef479408534e5dd137d7ff3485bed37f33e43",
    ("delta_full_2x2", "text"):
        "3626efd7a6514b7074f5186f9aa4a0f8934dca4d260251dd00b1d40fce7f8aaa",
    ("delta_two_point", "text"):
        "7fea3bf29b55d42d7cfe7e713307efa848e436667217234288c5f0d67d50af03",
    ("dual_fisher", "text"):
        "c0dadb834275ef1d523ea1b775ed70f6110ed2aa53ad949cc67fe94b81168e19",
    ("dual_inner", "text"):
        "ea4ba51511d6731dbd0c71f3323330fd1c1fb19d6aadf0ac5858d8906a8285d0",
    ("group_finite_s3", "text"):
        "a78bc29972fba29a7b65d6291bf01257317e917a5eef865c4d78e0b7e5f40ae4",
    ("group_free_kernel", "text"):
        "1fa08ed4ae657ebf8b6594b7a90f1839e8ea265d78de667e580b35f9d0dfbbc4",
}


@pytest.mark.parametrize("label,fmt", sorted(TEXT_AND_CSV_GOLDENS))
def test_shipped_text_and_csv_reports_match_goldens(label, fmt, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.delenv("FREEDIM_TOL", raising=False)
    config = ROOT / "configs" / f"{label}.json"
    scenario = json.loads(config.read_text())["scenario"]
    out = tmp_path / "report.txt"
    assert main([scenario, "--config", str(config), "--seed", "0",
                 "--format", fmt, "--output", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == TEXT_AND_CSV_GOLDENS[label, fmt]
