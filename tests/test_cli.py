import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import freedim as fd
from freedim.cli import emit_report, load_config, main, run_scenario

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def mat_pairs(rows):
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in rows]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def c2_config():
    return {
        "scenario": "delta",
        "algebra": {
            "blocks": [1, 1],
            "weights": [0.5, 0.5],
            "generators": [mat_pairs([[0, 0], [0, 1]])],
        },
    }


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def test_delta_scenario_two_point(tmp_path, capsys):
    path = write_config(tmp_path, c2_config())
    assert main(["delta", "--config", path]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["scenario"] == "delta"
    assert payload["results"]["Delta"] == 0.5
    assert payload["results"]["Delta_fraction"] == "1/2"
    assert payload["results"]["pinned"]["delta_star"] == 0.5
    assert {b["multiplicity"] for b in payload["results"]["blocks"]} == {0, 1}


def test_counterexample_text_has_verdict(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "counterexample"})
    assert main(["counterexample", "--config", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "liminf delta = 2 < 3 = delta(limit)" in out


def test_cutoff_csv_zero_beyond_radius(tmp_path, capsys):
    cfg = {
        "scenario": "cutoff",
        "parameters": {"r_grid": [1, 2, 3, 4, 5, 6, 7, 8], "dim": 8, "seed": 3},
    }
    path = write_config(tmp_path, cfg)
    assert main(["cutoff", "--config", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "R,hs_error"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    config = load_config(path, "cutoff", None, False)
    report = run_scenario(config)
    rho = report.results["spectral_radius"]
    for R, err in rows:
        if R >= rho:
            assert err <= 1e-10


def test_dual_system_inner_residuals_and_verbose(tmp_path, capsys):
    cfg = {
        "scenario": "dual_system",
        "algebra": {
            "blocks": [2],
            "weights": [1.0],
            "generators": [mat_pairs([[0, 1], [1, 0]]),
                           mat_pairs([[1, 0], [0, -1]])],
        },
        "parameters": {
            "dual": {"type": "inner",
                     "matrix": mat_pairs(np.eye(4) + np.diag([1, 0, 0], k=1))}
        },
    }
    path = write_config(tmp_path, cfg)
    assert main(["dual_system", "--config", path]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain["results"]["well_defined"] is True
    assert "Y" not in plain["results"]
    assert plain["residuals"]["commutators"] <= 1e-9

    assert main(["dual_system", "--config", path, "--verbose"]) == 0
    verbose = json.loads(capsys.readouterr().out)
    assert "Y" in verbose["results"]
    assert len(verbose["results"]["Y"]) == 4


def test_fisher_mode_inf_serialized(tmp_path, capsys):
    cfg = {
        "scenario": "dual_system",
        "algebra": {
            "blocks": [1, 1],
            "weights": [0.5, 0.5],
            "generators": [mat_pairs([[0, 0], [0, 1]])],
        },
        "parameters": {"dual": {"type": "fisher"}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["dual_system", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["value"] == "inf"
    assert payload["results"]["slots"][0]["well_defined"] is False
    assert payload["results"]["slots"][0]["defect"] >= 1e-2


def test_group_finite_cross_check(tmp_path, capsys):
    cfg = {"scenario": "group_finite", "group": {"kind": "symmetric", "n": 3}}
    path = write_config(tmp_path, cfg)
    assert main(["group_finite", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["group_order"] == 6
    assert abs(payload["results"]["Delta"] - 5 / 6) <= 1e-9
    assert payload["results"]["formula_abs_error"] <= 1e-9


def test_group_free_with_kernel(tmp_path, capsys):
    cfg = {
        "scenario": "group_free",
        "group": {"kind": "cyclic", "n": 2},
        "parameters": {"rank": 2, "images": [1, 1]},
    }
    path = write_config(tmp_path, cfg)
    assert main(["group_free", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["delta"] == 2.0
    kernel = payload["results"]["kernel"]
    assert kernel["index"] == 2
    assert kernel["rank"] == 3
    assert kernel["kernel_delta"] == 3.0


def test_group_free_cycle_notation_images(tmp_path, capsys):
    cfg = {
        "scenario": "group_free",
        "group": {"kind": "symmetric", "n": 2},
        "parameters": {"rank": 2, "images": ["(1 2)", "(1 2)"]},
    }
    path = write_config(tmp_path, cfg)
    assert main(["group_free", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    kernel = payload["results"]["kernel"]
    assert (kernel["index"], kernel["rank"]) == (2, 3)


def _dual_config(blocks, generators, dual, subalgebra_mode=False):
    algebra = {"blocks": blocks, "weights": [1.0 / len(blocks)] * len(blocks),
               "generators": [mat_pairs(g) for g in generators]}
    if subalgebra_mode:
        algebra["subalgebra_mode"] = True
    return {"scenario": "dual_system", "algebra": algebra,
            "parameters": {"dual": dual}}


def _run_dual(tmp_path, capsys, cfg):
    path = write_config(tmp_path, cfg)
    code = main(["dual_system", "--config", path])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


def test_subalgebra_mode_derivation_acts_on_effective_generators(tmp_path, capsys):
    # sigma_x generates C (+) C inside M2: the free difference quotient and the
    # Fisher slot are one derivation of the effective algebra
    sx = [[0, 1], [1, 0]]
    reports = []
    for dual in ({"type": "free_difference_quotient", "slot": 0},
                 {"type": "fisher"}):
        cfg = _dual_config([2], [sx], dual, subalgebra_mode=True)
        code, captured = _run_dual(tmp_path, capsys, cfg)
        assert code == 0
        reports.append(json.loads(captured.out)["results"])
    fdq, fisher = reports
    assert fdq["defect"] == fisher["slots"][0]["defect"]
    assert abs(fdq["defect"] - 2 ** -0.5) <= 1e-12


@pytest.mark.parametrize("dual", [
    {"type": "free_difference_quotient", "slot": 0},
    {"type": "inner", "matrix": mat_pairs([[0, 1], [1, 0]])},
], ids=["fdq", "inner"])
def test_subalgebra_mode_dual_on_smaller_effective_algebra(tmp_path, capsys, dual):
    # diag(1, 1, -1) generates C (+) C inside M3, so D is 2, not 9
    cfg = _dual_config([3], [np.diag([1.0, 1.0, -1.0])], dual, subalgebra_mode=True)
    code, captured = _run_dual(tmp_path, capsys, cfg)
    assert code == 0
    results = json.loads(captured.out)["results"]
    assert results["well_defined"] is (dual["type"] == "inner")


def test_inner_dual_fits_the_derivation_once(tmp_path, capsys, monkeypatch):
    import freedim.cli as cli_module
    import freedim.derivations as derivations_module

    calls = {"derivation_well_defined": 0, "construct_dual_operator": 0}

    def counted(name):
        original = getattr(derivations_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(derivations_module, name, wrapper)
        monkeypatch.setattr(cli_module, name, wrapper)
    code, _ = _run_dual(tmp_path, capsys,
                        json.loads((CONFIG_DIR / "dual_inner.json").read_text()))
    assert code == 0
    assert calls == {"derivation_well_defined": 1, "construct_dual_operator": 1}


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------

def test_unknown_key_rejected(tmp_path):
    cfg = c2_config()
    cfg["surprise"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 2


def test_scenario_mismatch_rejected(tmp_path):
    path = write_config(tmp_path, {"scenario": "counterexample"})
    assert main(["delta", "--config", path]) == 2


def test_missing_required_section(tmp_path):
    path = write_config(tmp_path, {"scenario": "delta"})
    assert main(["delta", "--config", path]) == 2


def test_unknown_parameter_key(tmp_path):
    cfg = c2_config()
    cfg["parameters"] = {"wat": 1}
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 2


# The smallest valid config of each scenario, and what each one must have.
_C2_ALGEBRA = c2_config()["algebra"]
_C2_GROUP = {"kind": "cyclic", "n": 2}
_MINIMAL = {
    "delta": {"algebra": _C2_ALGEBRA},
    "dual_system": {"algebra": _C2_ALGEBRA,
                    "parameters": {"dual": {"type": "fisher"}}},
    "cutoff": {"parameters": {"r_grid": [1.0]}},
    "group_finite": {"group": _C2_GROUP},
    "group_free": {"parameters": {"rank": 2}},
    "counterexample": {},
}
_NEEDS = {"delta": "algebra", "dual_system": "algebra", "group_finite": "group"}
_REQUIRES = {"dual_system": "dual", "cutoff": "r_grid", "group_free": "rank"}
_ARTICLE = {"algebra": "an algebra", "group": "a group"}


def _scenario_table_cases():
    for scenario, cfg in _MINIMAL.items():
        needed = _NEEDS.get(scenario)
        if needed:
            bad = {k: v for k, v in cfg.items() if k != needed}
            yield (f"{scenario}-without_{needed}", scenario, bad,
                   f"scenario {scenario!r} requires {_ARTICLE[needed]} section")
        key = _REQUIRES.get(scenario)
        if key:
            params = {k: v for k, v in cfg["parameters"].items() if k != key}
            yield (f"{scenario}-without_{key}", scenario,
                   dict(cfg, parameters=params),
                   f"parameters: missing required keys [{key!r}]")
        for section, value in (("algebra", _C2_ALGEBRA), ("group", _C2_GROUP)):
            if section == needed:
                continue
            message = f"scenario {scenario!r} does not take {_ARTICLE[section]} section"
            if (scenario, section) == ("group_free", "group"):
                message = ("scenario 'group_free' takes a group section only with "
                           "parameters.images")
            yield (f"{scenario}-with_{section}", scenario,
                   dict(cfg, **{section: value}), message)


_TABLE_CASES = list(_scenario_table_cases())


@pytest.mark.parametrize("scenario", sorted(_MINIMAL))
def test_minimal_config_runs(tmp_path, capsys, scenario):
    path = write_config(tmp_path, _MINIMAL[scenario])
    assert main([scenario, "--config", path]) == 0
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("scenario,cfg,message", [c[1:] for c in _TABLE_CASES],
                         ids=[c[0] for c in _TABLE_CASES])
def test_scenario_sections_and_required_parameters(tmp_path, capsys, scenario,
                                                   cfg, message):
    path = write_config(tmp_path, cfg)
    assert main([scenario, "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_module_error_maps_to_exit_one(tmp_path):
    cfg = c2_config()
    cfg["algebra"]["weights"] = [0.5, 0.4]
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 1


def test_csv_unsupported_for_delta(tmp_path):
    path = write_config(tmp_path, c2_config())
    assert main(["delta", "--config", path, "--format", "csv"]) == 2


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["delta", "--config", str(path)]) == 2


@pytest.mark.parametrize("text", [
    '{"parameters": {"seed": ' + "1" * 5000 + "}}",
    "[" * 100000 + "]" * 100000,
    b"{\xff}",
], ids=["int_past_4300_digits", "nested_100000_deep", "not_utf8"])
def test_unreadable_json_is_a_config_error(tmp_path, capsys, text):
    # each raised past the JSONDecodeError handler: ValueError, RecursionError
    # and UnicodeDecodeError
    path = tmp_path / "broken.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["counterexample", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config ") and "is not valid JSON" in err
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# determinism and outputs
# ---------------------------------------------------------------------------

def test_byte_identical_reports(tmp_path):
    path = write_config(tmp_path, c2_config())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["delta", "--config", path, "--seed", "11",
                 "--output", str(out1)]) == 0
    assert main(["delta", "--config", path, "--seed", "11",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_recorded_and_overridden(tmp_path, capsys):
    cfg = c2_config()
    cfg["parameters"] = {"seed": 5}
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert main(["delta", "--config", path, "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


@pytest.mark.parametrize("seed", [True, False])
def test_boolean_seed_rejected(tmp_path, capsys, seed):
    cfg = c2_config()
    cfg["parameters"] = {"seed": seed}
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: seed")


def test_config_error_while_running_exits_two(tmp_path, capsys):
    cfg = c2_config()
    cfg["scenario"] = "dual_system"
    cfg["parameters"] = {"dual": {"type": "mystery"}}
    path = write_config(tmp_path, cfg)
    assert main(["dual_system", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown dual type")


def test_tiny_trace_weight_reports_without_overflow(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "delta_direct_sum.json").read_text())
    cfg["algebra"]["weights"] = [1e-7, 1 - 1e-7]
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["results"]["agreement"]["closed_form_matches"]


def _hostile_c2(mutate):
    cfg = c2_config()
    mutate(cfg["algebra"])
    return cfg


@pytest.mark.parametrize("mutate,code,message", [
    (lambda a: a.update(weights=[float("nan"), 0.5]), 1,
     "computation error: WeightError: weights must be positive"),
    (lambda a: a["generators"][0][1][1].__setitem__(0, float("nan")), 2,
     "config error: algebra.generators[0]: entries must be finite"),
    (lambda a: a["generators"][0][1].pop(), 2,
     "config error: algebra.generators[0]: expected a square matrix"),
    (lambda a: a["generators"][0][1][1].pop(), 2,
     "config error: algebra.generators[0]: expected a square matrix"),
    (lambda a: a.update(weights=["x", 0.5]), 2,
     "config error: algebra.weights must be a list of numbers"),
    (lambda a: a.update(blocks=[1.5, 1]), 2,
     "config error: algebra.blocks must be a list of integers"),
    (lambda a: a.update(generators=5), 2,
     "config error: algebra.generators must be a list of matrices"),
    (lambda a: a.update(labels=5), 2,
     "config error: algebra.labels must be a list of strings"),
    (lambda a: a.update(weights=[10**400, 0.5]), 2,
     "config error: algebra.weights must be finite numbers"),
    (lambda a: a.update(blocks=None), 2,
     "config error: algebra.blocks must be a list of integers"),
    (lambda a: a["generators"][0][1][1].__setitem__(0, 10**400), 2,
     "config error: algebra.generators[0]: entries must be finite numbers of "
     "size at most 1e+100"),
    (lambda a: a["generators"][0][1][1].__setitem__(0, 1e308), 2,
     "config error: algebra.generators[0]: entries must be finite numbers of "
     "size at most 1e+100"),
    (lambda a: a.update(subalgebra_mode="no"), 2,
     "config error: algebra.subalgebra_mode must be true or false, got 'no'"),
    (lambda a: a.update(blocks=[7]), 1,
     "computation error: TooLarge: algebra dimension sum n_i^2 exceeds the cap 41"),
    (lambda a: a.update(blocks=[10**6]), 1,
     "computation error: TooLarge: algebra dimension sum n_i^2 exceeds the cap 41"),
], ids=["nan_weight", "nan_entry", "ragged_row", "ragged_pair", "str_weight",
        "float_block", "scalar_generators", "scalar_labels", "huge_int_weight",
        "null_blocks", "huge_int_entry", "huge_entry", "string_flag",
        "dim_above_cap", "huge_block"])
def test_hostile_numbers_rejected_without_traceback(tmp_path, capsys, mutate,
                                                    code, message):
    path = write_config(tmp_path, _hostile_c2(mutate))
    assert main(["delta", "--config", path]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("group", [
    {"kind": "cyclic"},
    {"kind": "cyclic", "n": 0},
    {"kind": "cyclic", "n": "x"},
    {"kind": "cyclic", "n": 2.0},
    {"kind": "symmetric", "n": -1},
    {"kind": "symmetric", "n": True},
    {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                    {"kind": "symmetric"}]},
], ids=["missing", "zero", "string", "float", "negative", "bool", "factor"])
def test_group_order_parameter_validated(tmp_path, capsys, group):
    path = write_config(tmp_path, {"scenario": "group_finite", "group": group})
    assert main(["group_finite", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: group of kind")
    assert "positive integer" in err


@pytest.mark.parametrize("bad", [None, -1, True, float("nan"), [[1, 0]]],
                         ids=["null", "negative", "true", "nan", "nested_list"])
def test_non_object_section_rejected(tmp_path, capsys, bad):
    # every shipped config that takes an algebra or a group section
    for config_path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(config_path.read_text())
        key = "algebra" if "algebra" in cfg else "group"
        if key not in cfg:
            continue
        cfg[key] = bad
        path = write_config(tmp_path, cfg)
        assert main([cfg["scenario"], "--config", path]) == 2, config_path.name
        err = capsys.readouterr().err
        assert err.startswith("config error: "), (config_path.name, err)
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("scenario,algebra,parameters", [
    ("delta", {"blocks": [1], "weights": [1.0]}, {}),
    ("delta", {"blocks": [1, 1], "weights": [0.5, 0.5], "subalgebra_mode": True},
     {}),
    ("dual_system", {"blocks": [1], "weights": [1.0]},
     {"dual": {"type": "fisher"}}),
    ("dual_system", {"blocks": [1], "weights": [1.0]},
     {"dual": {"type": "free_difference_quotient", "slot": 0}}),
], ids=["delta", "subalgebra_mode", "fisher", "fdq"])
def test_empty_generators_rejected(tmp_path, capsys, scenario, algebra,
                                   parameters):
    cfg = {"scenario": scenario, "algebra": dict(algebra, generators=[]),
           "parameters": parameters}
    path = write_config(tmp_path, cfg)
    assert main([scenario, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "config error: algebra.generators must not be empty\n"


def _shipped(name, **parameters):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["parameters"].update(parameters)
    return cfg


def _s3(**group):
    return {"scenario": "group_finite", "group": dict(kind="symmetric", n=3, **group)}


def _table(mult):
    return {"scenario": "group_finite", "group": {"kind": "table", "mult": mult}}


# [1.5] and [True] used to become element 1, and [-1] the last element
_BAD_GENERATING_SETS = [[99], "ab", {"a": 1}, [[1]], [1.5], [True], [-1]]
# 1.5 used to be truncated and True read as 1
_BAD_TABLES = [[[0, "x"], [1, 0]], [[0, 1], [1]], [[0, 1e400], [1, 0]],
               [[0, 1.5], [1, 0]], [[0, True], [1, 0]], [[0, 10**400], [1, 0]]]


_FDQ = {"type": "free_difference_quotient"}
_ZERO_4X4 = mat_pairs(np.zeros((4, 4)))


@pytest.mark.parametrize("cfg,code,message", [
    (_shipped("dual_fisher", dual=dict(_FDQ, slot="a")), 2,
     "config error: parameters.dual.slot must be an integer"),
    (_shipped("dual_fisher", dual=dict(_FDQ, slot=True)), 2,
     "config error: parameters.dual.slot must be an integer"),
    (_shipped("dual_fisher", dual=dict(_FDQ, slot=1)), 1,
     "computation error: IllDefined: slot 1 out of range"),
    (_shipped("dual_fisher", dual={"type": "explicit", "targets": 5}), 2,
     "config error: parameters.dual.targets must be a list of matrices"),
    (_shipped("dual_fisher", dual={"type": "explicit", "targets": [_ZERO_4X4]}),
     2, "config error: parameters.dual.targets[0] must be 2 x 2"),
    (_shipped("counterexample", k_values=[0]), 2,
     "config error: parameters.k_values must be a list of positive integers"),
    (_shipped("counterexample", k_values=["a"]), 2,
     "config error: parameters.k_values must be a list of positive integers"),
    (_shipped("counterexample", k_values=5), 2,
     "config error: parameters.k_values must be a list of positive integers"),
    (_shipped("cutoff_sweep", r_grid=["x"]), 2,
     "config error: parameters.r_grid must be a list of numbers"),
    (_shipped("cutoff_sweep", r_grid=[1.0, float("nan")]), 2,
     "config error: parameters.r_grid must be a nonempty list of finite"),
    (_shipped("cutoff_sweep", dim=-1), 2,
     "config error: parameters.dim must be a positive integer"),
    (_shipped("cutoff_sweep", n_ops="x"), 2,
     "config error: parameters.n_ops must be a positive integer"),
    (_shipped("cutoff_sweep", r_grid=[1, 1e308]), 2,
     "config error: parameters.r_grid values must be at most 1e+06"),
    (_shipped("cutoff_sweep", r_grid=[10**400]), 2,
     "config error: parameters.r_grid values must be at most 1e+06"),
    (_shipped("cutoff_sweep", dim=257), 2,
     "config error: parameters.dim must be at most 256, got 257"),
    (_shipped("cutoff_sweep", n_ops=10**9), 2,
     "config error: parameters.n_ops must be at most 16, got 1000000000"),
    ({"scenario": "group_free", "group": {"kind": "symmetric", "n": 9},
      "parameters": {"rank": 2, "images": [1, 1]}}, 1,
     "computation error: TooLarge: group order 362880 exceeds the cap 168"),
    (_shipped("group_free_kernel", rank="x"), 2,
     "config error: parameters.rank must be an integer"),
    (_shipped("group_free_kernel", images=[5, 1]), 2,
     "config error: parameters.images: 5 is not an element index below 2"),
    ({"scenario": "group_free", "group": {"kind": "symmetric", "n": 2},
      "parameters": {"rank": 2, "images": ["(a b)", "(1 2)"]}}, 1,
     "computation error: FreedimError: malformed cycle notation '(a b)'"),
    *[(_s3(generating_set=bad), 2,
       "config error: group.generating_set must be a list of element indices "
       "below 6") for bad in _BAD_GENERATING_SETS],
    *[(_table(mult), 2, "config error: group.mult must be 2 rows of 2 element "
       "indices below 2") for mult in _BAD_TABLES],
    ({"scenario": "dual_system",
      "algebra": {"blocks": [11], "weights": [1.0],
                  "generators": [mat_pairs(np.zeros((11, 11)))]},
      "parameters": {"dual": {"type": "fisher"}}}, 1,
     "computation error: TooLarge: algebra dimension sum n_i^2 exceeds the cap 100"),
    (_shipped("cutoff_sweep", smooth="no"), 2,
     "config error: parameters.smooth must be true or false, got 'no'"),
    (_shipped("cutoff_sweep", A=mat_pairs(np.eye(2)), X=5), 2,
     "config error: parameters.X must be a list of matrices"),
    (_shipped("cutoff_sweep", A=mat_pairs(np.eye(2)), X=[mat_pairs(np.eye(1))]), 2,
     "config error: parameters.X must hold matrices the size of parameters.A"),
    (_shipped("cutoff_sweep", r_grid=list(range(1, 66))), 2,
     "config error: parameters.r_grid must hold at most 64 radii"),
    (_shipped("cutoff_sweep", seed=-1), 2,
     "config error: seed must be a non-negative integer"),
    (_shipped("group_free_kernel", rank=10**400), 2,
     "config error: parameters.rank must be at most 2^53"),
    ({"scenario": "group_free", "parameters": {"rank": 0}}, 2,
     "config error: parameters.rank must be at least 1\n"),
    (_shipped("group_free_kernel", rank=-1), 2,
     "config error: parameters.rank must be at least 1\n"),
    (_shipped("group_free_kernel", rank=3), 2,
     "config error: parameters.images must hold 3 images, one per free "
     "generator, got 2"),
    (_shipped("group_free_kernel", images=[1, 1, 1]), 2,
     "config error: parameters.images must hold 2 images, one per free "
     "generator, got 3"),
    ({"scenario": "group_free", "group": {"kind": "bogus"},
      "parameters": {"rank": 2}}, 2,
     "config error: scenario 'group_free' takes a group section only with "
     "parameters.images"),
], ids=["slot_string", "slot_bool", "slot_out_of_range", "targets_scalar",
        "targets_shape", "k_zero", "k_string", "k_scalar", "r_grid_string",
        "r_grid_nan", "dim_negative", "n_ops_string", "r_grid_huge",
        "r_grid_huge_int", "dim_above_cap", "n_ops_above_cap",
        "free_group_order_above_cap", "rank_string", "image_out_of_range",
        "image_cycle_letters",
        *[f"generating_set_{k}" for k in range(len(_BAD_GENERATING_SETS))],
        *[f"mult_{k}" for k in range(len(_BAD_TABLES))],
        "dual_dim_above_cap", "smooth_string", "X_scalar", "X_size", "r_grid_long",
        "seed_negative", "rank_huge", "rank_zero", "rank_negative",
        "images_too_few", "images_too_many", "group_without_images"])
def test_parameters_validated_without_traceback(tmp_path, capsys, cfg, code,
                                                message):
    path = write_config(tmp_path, cfg)
    assert main([cfg["scenario"], "--config", path]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


_CUTOFF_A = {"A": mat_pairs(np.eye(2)), "X": [mat_pairs(np.eye(2))]}


@pytest.mark.parametrize("parameters,message", [
    ({"r_grid": [1, 2], "X": [mat_pairs(np.eye(2))]},
     "config error: parameters.X needs parameters.A\n"),
    (dict(_CUTOFF_A, r_grid=[1, 2], dim=8),
     "config error: parameters.dim sizes a random instance and cannot be given "
     "with parameters.A\n"),
    (dict(_CUTOFF_A, r_grid=[1, 2], n_ops=2),
     "config error: parameters.n_ops sizes a random instance and cannot be given "
     "with parameters.A\n"),
], ids=["X_without_A", "dim_with_A", "n_ops_with_A"])
def test_cutoff_refuses_keys_of_the_path_not_taken(tmp_path, capsys, parameters,
                                                   message):
    # these keys used to be dropped: X without A ran a random sweep
    path = write_config(tmp_path, {"scenario": "cutoff", "parameters": parameters})
    assert main(["cutoff", "--config", path]) == 2
    assert capsys.readouterr().err == message


def test_cutoff_explicit_instance_runs(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "cutoff",
                                   "parameters": dict(_CUTOFF_A, r_grid=[1, 2])})
    assert main(["cutoff", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["sweep"]


def test_negative_seed_flag_rejected(tmp_path, capsys):
    # numpy's default_rng raised ValueError on it
    path = write_config(tmp_path, _shipped("cutoff_sweep"))
    assert main(["cutoff", "--config", path, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed must be a non-negative integer\n"


@pytest.mark.parametrize("smooth", [False, True])
def test_cutoff_radius_at_cap_runs_without_warnings(tmp_path, capsys, smooth):
    # exp(R - |x|) overflowed inside [-R, R] once R passed about 709
    cfg = _shipped("cutoff_sweep", r_grid=[1, 1000, 1e6], smooth=smooth)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cutoff", "--config", path]) == 0
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    sweep = json.loads(captured.out)["results"]["sweep"]
    assert [row["hs_error"] for row in sweep[1:]] == [0.0, 0.0]


def test_group_order_cap_checked_before_construction(tmp_path, capsys):
    # the multiplication table of S_8 alone would take 40320^2 integers
    path = write_config(tmp_path, {"scenario": "group_finite",
                                   "group": {"kind": "symmetric", "n": 8}})
    start = time.perf_counter()
    assert main(["group_finite", "--config", path]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == ("computation error: TooLarge: group order 40320 exceeds "
                   "the cap 24\n")


def test_output_file_written_atomically(tmp_path):
    path = write_config(tmp_path, c2_config())
    target = tmp_path / "out" / "report.json"
    target.parent.mkdir()
    assert main(["delta", "--config", path, "--output", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["results"]["Delta"] == 0.5
    leftovers = [p for p in target.parent.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_delta_scenario_subalgebra_mode(tmp_path, capsys):
    cfg = {
        "scenario": "delta",
        "algebra": {
            "blocks": [2],
            "weights": [1.0],
            "generators": [mat_pairs([[0, 1], [1, 0]])],
            "subalgebra_mode": True,
        },
    }
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    # effective algebra is the two-point algebra with equal weights
    assert payload["results"]["Delta"] == 0.5
    assert payload["results"]["block_sizes"] == [1, 1]


def test_freedim_tol_env_override(tmp_path, monkeypatch):
    cfg = {
        "scenario": "dual_system",
        "algebra": {
            "blocks": [2],
            "weights": [1.0],
            "generators": [mat_pairs([[0, 1], [1, 0]]),
                           mat_pairs([[1, 0], [0, -1]])],
        },
        "parameters": {
            "dual": {"type": "inner", "matrix": mat_pairs(np.diag([1, 2, 3, 4]))}
        },
    }
    path = write_config(tmp_path, cfg)
    assert main(["dual_system", "--config", path]) == 0
    monkeypatch.setenv("FREEDIM_TOL", "1e-30")  # impossible residual gate
    assert main(["dual_system", "--config", path]) == 1


@pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-1"])
def test_freedim_tol_rejects_bad_values(tmp_path, monkeypatch, capsys, raw):
    cfg = c2_config()
    cfg["scenario"] = "dual_system"
    cfg["parameters"] = {"dual": {"type": "inner",
                                  "matrix": mat_pairs(np.diag([1.0, 2.0]))}}
    path = write_config(tmp_path, cfg)
    monkeypatch.setenv("FREEDIM_TOL", raw)
    assert main(["dual_system", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: FREEDIM_TOL")
    assert "Traceback" not in err


def test_emit_report_unknown_format(tmp_path):
    path = write_config(tmp_path, c2_config())
    config = load_config(path, "delta", None, False)
    report = run_scenario(config)
    with pytest.raises(fd.UnsupportedFormat):
        emit_report(report, "yaml")


# ---------------------------------------------------------------------------
# every shipped example config runs clean and fast
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "config_path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name
)
def test_shipped_configs_run(config_path, capsys):
    scenario = json.loads(config_path.read_text())["scenario"]
    start = time.perf_counter()
    assert main([scenario, "--config", str(config_path)]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 10.0
