"""Report bytes of the shipped configs.

The benchmark recorded the sha256 of every JSON report of the shipped
configs for op seeds 0..15 (perfbench/record_goldens.py), keyed as
``scenario:sha256(config file)[:16]:seed``.  A change that moves any report
byte fails here.  The goldens file is only read; REPINNED below overrides
the reports whose `subspace_distances` moved when `delta_report` stopped
building H1 (each now prints H0's self-gap for all three pairs), and again
when H0 came to be spanned one block pair at a time, until the goldens file
is re-recorded.  The text reports of the shipped configs and
the csv report of the cutoff sweep are pinned below, at seed 0, as are the
JSON reports of two subalgebra-mode inputs.
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

# sha256 of the reports whose subspace_distances.H0_H1 and .H1_H2 (and, for
# delta, their copies in residuals) moved to H0's self-gap, read before the
# goldens file; no other field of these reports moved.  The per-block-pair
# spans of H0 then moved that self-gap, all three keys, in the
# delta_direct_sum and group_finite_s3 reports and S4's; delta_full_2x2 has
# one block, one pair, and kept its bytes
REPINNED = {
    "delta:018da3ce67fb9aa8:0":
        "72d9296efcabd98b39175c95e9db953c5b9d727616cd2f60693f948922e43a50",
    "delta:018da3ce67fb9aa8:1":
        "337ff977916b1634172cf3eb322ed9ce8cd206dc0dde3379c44adea237cc295c",
    "delta:018da3ce67fb9aa8:2":
        "c3a87271f3442456d1a10dd913520f6faa1366d914edd006f1319fcdae18d08b",
    "delta:018da3ce67fb9aa8:3":
        "f88e92aadad4a26da99f148805c7dc819f155456eb4f961f119eb185f5765fe3",
    "delta:018da3ce67fb9aa8:4":
        "269ab50e002fafb4df02326f1c9507005597879d5b554af6eb867df7654f0a34",
    "delta:018da3ce67fb9aa8:5":
        "f06562c963a6b9418347ebfc05a3d9bf3c5f367de71b8a4f39b11a82c5332fd5",
    "delta:018da3ce67fb9aa8:6":
        "8820c48f6a6d14b81a9c88f1279caabf959eaf7259d5163ce2154e9079afc431",
    "delta:018da3ce67fb9aa8:7":
        "915b6e79026cc1bb2784d619a5747a757e3e278efaefe591be163276656c4061",
    "delta:018da3ce67fb9aa8:8":
        "d129aedac627c885d0024b0073d178c1fc9214d3a7dee201e769df02f1b4c606",
    "delta:018da3ce67fb9aa8:9":
        "b7977d6160ae802f1308b572cad4fed7b3b1d9980e69093808aa27683cac5a28",
    "delta:018da3ce67fb9aa8:10":
        "6a21126156924abc492d3c2ee6f853b9f6982b7dbabb9f8db68c7dab2ed09186",
    "delta:018da3ce67fb9aa8:11":
        "f5777ecaae7e3b4ce4465d53bd83b163f4f4f3d7cac41a0425c147d388a7b01c",
    "delta:018da3ce67fb9aa8:12":
        "3e9d2f4037be9a7fdef67dfdaf28c02ee6df7e0675e01ae31c1f6bea840cc2c4",
    "delta:018da3ce67fb9aa8:13":
        "f1379fc1d861681ed18a03789acdaf3674bc0b5516b6cf5544b6d3f3c1c04ff8",
    "delta:018da3ce67fb9aa8:14":
        "5ccffc4a3a81bb960d50eac7ed8aedbe06753102e2589607c2749d91b3d7f038",
    "delta:018da3ce67fb9aa8:15":
        "170932f2799f6370d52448429ac509a6732b46f29e068469e46901f5736149b5",
    "delta:cd294b9ce8e09385:0":
        "b00bef600639ec4e7da5735fed74125c08fed05c1f6c54234a9ff5e169dd7f5a",
    "delta:cd294b9ce8e09385:1":
        "658b8356d1f6c1e75a58d8a96a198206119730af01ac5b9213f5d1792bd3eb5f",
    "delta:cd294b9ce8e09385:2":
        "1aad5b43ea396e199bc6f11ce47646ee2c46a79e55e364c8a14dcc0b2589f311",
    "delta:cd294b9ce8e09385:3":
        "72b339b0f1da91830a9e6268033e9307e38e057e597143b660113c27352334b6",
    "delta:cd294b9ce8e09385:4":
        "f915401766dbdb228ddf35f8bfa315481cacdddc337def1e785eb8b0f87c2f32",
    "delta:cd294b9ce8e09385:5":
        "7f0fc950cd6fdf1d024b0db4e04d59e9ffa72ea255a42c6ed8370f4464b8e42c",
    "delta:cd294b9ce8e09385:6":
        "54351543602c2af5d76dd8e7b863198cb46055156236c599b3c35a71ae796551",
    "delta:cd294b9ce8e09385:7":
        "dfcdfa2a2bf5e341f564e40b4a4ae2463cb2ec9fe51a5262cc378436e25b62ca",
    "delta:cd294b9ce8e09385:8":
        "86fb8a20132b7be7bbfdf55a45eb9558b61b286e38901445e1f06ceadb54e9d4",
    "delta:cd294b9ce8e09385:9":
        "72a538a19cdb35c33f4c97e951f7d27db001d027fc17613ff44d8b63edca3ac2",
    "delta:cd294b9ce8e09385:10":
        "bde59434b028f76f76d0361596fbd5c38ef4028bc0611d7e3bd5707709262305",
    "delta:cd294b9ce8e09385:11":
        "78c5c113a6a46bca2106c73b779bff5459195d32ad923eec0b5d2553eab8e3a8",
    "delta:cd294b9ce8e09385:12":
        "854cc6c4232fcde92f6722ac744a3d9413231279a985d3d166af817decab8fa6",
    "delta:cd294b9ce8e09385:13":
        "d330df6a2164cfcc5ddcc323c1c42c1d09c7983cd705c4907fe0e3d99875c937",
    "delta:cd294b9ce8e09385:14":
        "ffb19a069b3e08bf90554de08998bcb01a5889dfa4622cb3908daa0147ecb798",
    "delta:cd294b9ce8e09385:15":
        "a509f05897532c0f3e83727f85bd58882e56bb1a3b9951300154b91a9ad31e66",
    "group_finite:f5144347a00a9bce:0":
        "a35c3bd83083cd486d390e5de7579661d5f4b44c3371c33004b0d6025023cd0f",
    "group_finite:f5144347a00a9bce:1":
        "183bcbad5384e266538276af0d948add3363dd6428b4ba3a241393afb90cabc2",
    "group_finite:f5144347a00a9bce:2":
        "72ba2a08f339bf21ab5b015eb3f09d9da46a45205f02be77bd13b8ca290ab93c",
    "group_finite:f5144347a00a9bce:3":
        "d872ded4edf3388eb3f65ea0df20dfcd5d1d0cf4e71ba4a7acb11eb64118affb",
    "group_finite:f5144347a00a9bce:4":
        "2b11d063428862bbb67cb0fcc2ff84e9b72d270e96d48cbf61f2c545283f2c13",
    "group_finite:f5144347a00a9bce:5":
        "00111e6ce9eb37dc81e382353524bc1f489fb42945356bf8e261318f8845b6dc",
    "group_finite:f5144347a00a9bce:6":
        "6711e71505101a1a4776755ccca49dded16d12bef66a34a4f704d7c82c08c85f",
    "group_finite:f5144347a00a9bce:7":
        "80cc5a6b39d3b2c3571ef38c4105536c45f0456003ec9876daae02da8fe576cc",
    "group_finite:f5144347a00a9bce:8":
        "91620fe71f9ab26882482a1c8720bef4056ec3289001c54d847e9c4cea2a30f8",
    "group_finite:f5144347a00a9bce:9":
        "ed231b91ee2c4af5e0d54c8a520d1aaf1eac41bfaa7747bcc46daae56e9cf2ac",
    "group_finite:f5144347a00a9bce:10":
        "057fc7691072f27f84d4288315c1a5c0bc6ed7dd519b550aef25e74cde48ca59",
    "group_finite:f5144347a00a9bce:11":
        "0b70ead154c9c4a0dad137e40bc55ebb13224d6f9de1a6299bb82e065be7112f",
    "group_finite:f5144347a00a9bce:12":
        "701059ff181145f95bf8687fff125e11d2aadb5486d22c6d401f5271fe2b1bab",
    "group_finite:f5144347a00a9bce:13":
        "c943b9d6cabce5aa191390679c6759e81cf2b60a1f6b634e8061e76bcb0c421a",
    "group_finite:f5144347a00a9bce:14":
        "b301790628cd0c8bab6d3580a9ab6df520c267548b4405153a341954f2cadda5",
    "group_finite:f5144347a00a9bce:15":
        "0cc9e7b5eabb067e7f7e99f66aa1ecfbb268d35da1036901b53104dae23dcd14",
    "group_finite:8492ad80d3a60f7a:1":
        "0b10f1cec23878dbd51562eb19ac4409a4a551e98e5650099f7fc5e83e50aadf",
}


def _golden(key):
    return REPINNED.get(key, GOLDENS["reports"][key])


def _s4_config(tmp_path):
    config = tmp_path / "s4.json"
    with open(config, "w") as fh:  # the bytes perfbench/workloads.py writes
        json.dump({"scenario": "group_finite",
                   "group": {"kind": "symmetric", "n": 4}}, fh)
    return config


def _digest(config):
    return hashlib.sha256(config.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("label", sorted(GOLDENS["certified"]))
def test_shipped_reports_match_goldens(label, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FREEDIM_TOL", raising=False)
    config = ROOT / "configs" / f"{label}.json"
    scenario = json.loads(config.read_text())["scenario"]
    digest = _digest(config)
    out = tmp_path / "report.json"
    changed = []
    for seed in SEEDS:
        argv = [scenario, "--config", str(config), "--seed", str(seed),
                "--output", str(out)]
        assert main(argv) == 0
        want = _golden(f"{scenario}:{digest}:{seed}")
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
    config = _s4_config(tmp_path)
    out = tmp_path / "report.json"
    env = _two_thread_env()
    argv = ["group_finite", "--config", str(config), "--seed", "1",
            "--output", str(out)]
    subprocess.run([sys.executable, "-c",
                    "import sys; from freedim.cli import main; "
                    f"sys.exit(main({argv!r}))"], env=env, check=True,
                   capture_output=True)
    want = _golden(f"group_finite:{_digest(config)}:1")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_repinned_reports_print_one_distance(tmp_path, capsys):
    # each override replaces a recorded digest, and its report prints one
    # distance for the three pairs of spaces
    configs = {_digest(p): p for p in (ROOT / "configs").glob("*.json")}
    s4 = _s4_config(tmp_path)
    configs[_digest(s4)] = s4
    out = tmp_path / "report.json"
    for key, digest in REPINNED.items():
        assert GOLDENS["reports"][key] != digest
        scenario, config, seed = key.split(":")
        assert main([scenario, "--config", str(configs[config]), "--seed", seed,
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        distances = report["results"]["subspace_distances"]
        assert distances["H0_H1"] == distances["H1_H2"] == distances["H0_H2"], key
        if scenario == "delta":
            assert report["residuals"] == distances
    capsys.readouterr()


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
        "8af4543bd068b87d618885560b8a9fbd8f89508c7efabea0e81e5352dd97b89d",
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
