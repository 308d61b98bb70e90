"""Report bytes of the shipped configs.

The benchmark recorded the sha256 of every JSON report of the shipped
configs for op seeds 0..15 (perfbench/record_goldens.py), keyed as
``scenario:sha256(config file)[:16]:seed``.  A change that moves any report
byte fails here.  The goldens file is only read.  The text reports of the
shipped configs and the csv report of the cutoff sweep are pinned below, at
seed 0, as are the JSON reports of two subalgebra-mode inputs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _two_thread_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("FREEDIM_TOL", None)
    return env


def test_s4_report_matches_golden_at_two_blas_threads(tmp_path):
    # the shipped configs (D <= 6) never depend on BLAS partitioning; S4
    # (D = 24) does, and its goldens were recorded at 2 BLAS threads
    config = tmp_path / "s4.json"
    with open(config, "w") as fh:  # the bytes perfbench/workloads.py writes
        json.dump({"scenario": "group_finite",
                   "group": {"kind": "symmetric", "n": 4}}, fh)
    out = tmp_path / "report.json"
    env = _two_thread_env()
    argv = ["group_finite", "--config", str(config), "--seed", "1",
            "--output", str(out)]
    subprocess.run([sys.executable, "-c",
                    "import sys; from freedim.cli import main; "
                    f"sys.exit(main({argv!r}))"], env=env, check=True,
                   capture_output=True)
    digest = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
    want = GOLDENS["reports"][f"group_finite:{digest}:1"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_dual_ladder_reports_match_goldens_above_d6(tmp_path, monkeypatch):
    # the shipped dual configs have D <= 6; the benchmark's dual ladder
    # (workload seed 1, configs written by perfbench/workloads.py) reaches
    # D = 36, 41, 49 and 64, whose bytes depend on BLAS partitioning like S4's
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ops = workloads.build("dual_ladder", 1, str(ROOT), str(tmp_path)).next_pass()
    assert sorted({op.label.split("/")[0] for op in ops}) == ["4x5", "6", "7", "8"]
    assert len(ops) == 8
    outs = [tmp_path / f"report{k}.json" for k in range(len(ops))]
    argvs = [[op.scenario, "--config", op.config, "--seed", str(op.seed),
              "--output", str(out)] for op, out in zip(ops, outs)]
    subprocess.run([sys.executable, "-c",
                    "import sys; from freedim.cli import main; "
                    f"sys.exit(max(main(a) for a in {argvs!r}))"],
                   env=_two_thread_env(), check=True, capture_output=True)
    changed = []
    for op, out in zip(ops, outs):
        with open(op.config, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        want = GOLDENS["reports"][f"{op.scenario}:{digest}:{op.seed}"]
        if hashlib.sha256(out.read_bytes()).hexdigest() != want:
            changed.append(op.label)
    assert changed == []


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


def _mat_pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _doubled(m):
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = m
    out[2:, 2:] = m
    return out


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# subalgebra mode: the doubled Pauli pair generates one M2 inside M2 (+) M2,
# and diag(1, 1, -1) generates C (+) C inside M3
SUBALGEBRA_CONFIGS = {
    "delta_doubled_pauli": {
        "scenario": "delta",
        "algebra": {"blocks": [2, 2], "weights": [0.3, 0.7],
                    "generators": [_mat_pairs(_doubled(_SX)),
                                   _mat_pairs(_doubled(_SZ))],
                    "subalgebra_mode": True},
    },
    "dual_inner_diag": {
        "scenario": "dual_system",
        "algebra": {"blocks": [3], "weights": [1.0],
                    "generators": [_mat_pairs(np.diag([1.0, 1.0, -1.0]))],
                    "subalgebra_mode": True},
        "parameters": {"dual": {"type": "inner",
                                "matrix": _mat_pairs(_SX)}},
    },
}

# sha256 of the `--seed 0` JSON report of each config above
SUBALGEBRA_GOLDENS = {
    "delta_doubled_pauli":
        "aeffbbfa849d5afd7a81200f4a25f42d0d05ab7da618620fd20085a3bf7f1eae",
    "dual_inner_diag":
        "224c4718080b9d12f618f27e25eca98202e223a51fa3248356ba7422f6e9bbf6",
}


@pytest.mark.parametrize("label", sorted(SUBALGEBRA_CONFIGS))
def test_subalgebra_mode_reports_match_goldens(label, tmp_path, capsys):
    cfg = SUBALGEBRA_CONFIGS[label]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main([cfg["scenario"], "--config", str(config), "--seed", "0",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUBALGEBRA_GOLDENS[label]


# sha256 of the `--verbose --seed 0` JSON report, which prints Y and xi
VERBOSE_DUAL_GOLDENS = {
    "dual_inner":
        "5a4ec60973e127dac689889bf75f104230e50a9e4fce344fdbd3a600b6019fdd",
    "dual_inner_diag":
        "500cbe5cfc55a616c6cbe7941d407f3c5b9cdb3db90bbc4910e8aa361cb13a35",
}


@pytest.mark.parametrize("label", sorted(VERBOSE_DUAL_GOLDENS))
def test_verbose_dual_reports_match_goldens(label, tmp_path, capsys):
    config = ROOT / "configs" / f"{label}.json"
    if label in SUBALGEBRA_CONFIGS:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SUBALGEBRA_CONFIGS[label]))
    out = tmp_path / "report.json"
    assert main(["dual_system", "--config", str(config), "--seed", "0", "--verbose",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERBOSE_DUAL_GOLDENS[label]
