import importlib.util
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import freedim as fd
from conftest import late_config_errors, random_block_algebra, random_hermitian
import freedim.algebra as algebra_module
import freedim.cli as cli_module
from freedim.cli import emit_report, load_config, main, run_scenario
from freedim.tolerances import WELLDEF_TOL

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(autouse=True)
def no_config_error_after_numerical_work():
    """Every test here runs under the spy: no ConfigError that `main` raises
    comes after its first call into a numerical builder."""
    with late_config_errors() as late:
        yield
    assert late == []


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
    rho = report["results"]["spectral_radius"]
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


@pytest.mark.parametrize("scale", [1e-8, pytest.param(1e-9, marks=pytest.mark.xfail(
    strict=True, reason="the center search cuts relative to the whole family, so the small "
                        "block's clusters merge: CenterResolutionError (ROADMAP item 9)"))])
def test_delta_accepts_blocks_of_unequal_scale(tmp_path, capsys, scale):
    # blocks [2, 2], two random Hermitian generators supported on each block,
    # block 0's scaled down; the tuple generates at either scale
    rng = np.random.default_rng(0)
    gens = []
    for s, t, c in ((0, 2, scale), (0, 2, scale), (2, 4, 1.0), (2, 4, 1.0)):
        g = np.zeros((4, 4), dtype=complex)
        g[s:t, s:t] = c * random_hermitian(rng, 2)
        gens.append(mat_pairs(g))
    path = write_config(tmp_path, {"scenario": "delta", "algebra": {
        "blocks": [2, 2], "weights": [0.5, 0.5], "generators": gens}})
    assert main(["delta", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["Delta_fraction"] == "7/8"


def _cli_results(tmp_path, capsys, cfg):
    """The results of a run of cfg; a refusal raises the error that stderr
    names, so that an xfail can name the one it expects."""
    code = main([cfg["scenario"], "--config", write_config(tmp_path, cfg)])
    out, err = capsys.readouterr()
    if code:
        assert code == 1 and out == "" and len(err.strip().splitlines()) == 1, err
        raise getattr(fd, err.split(":")[1].strip())(err)
    return json.loads(out)["results"]


def _spanning_pair(scale, **extra):
    """Blocks [2, 2] at weights [0.5, 0.5] with two generators scale h (+) h',
    h and h' random Hermitian drawn in turn: the tuple generates M2 (+) M2 at
    every scale, but word_span's relative cut refused it from 1e-9 down."""
    rng, gens = np.random.default_rng(0), []
    for _ in range(2):
        g = np.zeros((4, 4), dtype=complex)
        g[:2, :2] = scale * random_hermitian(rng, 2)
        g[2:, 2:] = random_hermitian(rng, 2)
        gens.append(mat_pairs(g))
    return {"blocks": [2, 2], "weights": [0.5, 0.5], "generators": gens, **extra}


SPANNING_SCALES = [1e-9, 1e-12, 1e-15, 1e-100]


@pytest.mark.parametrize("scale", SPANNING_SCALES)
@pytest.mark.parametrize("dual", [{"type": "fisher"},
                                  {"type": "free_difference_quotient", "slot": 0}],
                         ids=["fisher", "free_difference_quotient"])
def test_dual_system_accepts_a_spanning_pair_of_unequal_scale(tmp_path, capsys, scale, dual):
    # the block pairs' ranks prove generation where word_span refused it
    results = _cli_results(tmp_path, capsys, {"scenario": "dual_system",
                                              "algebra": _spanning_pair(scale),
                                              "parameters": {"dual": dual}})
    slots = results["slots"] if dual["type"] == "fisher" else [results]
    assert slots and all(slot["well_defined"] is False for slot in slots)


@pytest.mark.parametrize("scale", SPANNING_SCALES)
def test_subalgebra_mode_prints_no_wrong_delta_on_a_spanning_pair(tmp_path, capsys, scale):
    # word_span's span of the pair was 5-dimensional, whose block form [1, 2]
    # printed Delta 11/16; the tuple generates M2 (+) M2, whose Delta is 7/8
    cfg = {"scenario": "delta", "algebra": _spanning_pair(scale, subalgebra_mode=True)}
    try:
        results = _cli_results(tmp_path, capsys, cfg)
    except fd.FreedimError:
        return
    assert (results["Delta_fraction"], results["block_sizes"]) == ("7/8", [2, 2])


@pytest.mark.parametrize("subalgebra_mode", [False, True])
@pytest.mark.parametrize("scale", [pytest.param(scale, marks=pytest.mark.xfail(
    strict=True, raises=fd.CenterResolutionError,
    reason="the center search cuts relative to the whole family, so the small block's "
           "clusters merge (ROADMAP item 19)")) for scale in SPANNING_SCALES])
def test_delta_reports_seven_eighths_on_a_spanning_pair(tmp_path, capsys, scale,
                                                        subalgebra_mode):
    cfg = {"scenario": "delta", "algebra": _spanning_pair(scale, subalgebra_mode=subalgebra_mode)}
    results = _cli_results(tmp_path, capsys, cfg)
    assert (results["Delta_fraction"], results["block_sizes"]) == ("7/8", [2, 2])


@pytest.mark.parametrize("scale", [pytest.param(scale, marks=pytest.mark.xfail(
    strict=True, raises=fd.ResidualTooLarge,
    reason="the word fit's Y misses the commutators (ROADMAP item 7)"))
    for scale in [1e-6] + SPANNING_SCALES])
def test_inner_dual_on_a_spanning_pair_is_well_defined(tmp_path, capsys, scale):
    # an inner derivation of a generating tuple always descends
    rng = np.random.default_rng(1)
    B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    results = _cli_results(tmp_path, capsys, {
        "scenario": "dual_system", "algebra": _spanning_pair(scale),
        "parameters": {"dual": {"type": "inner", "matrix": mat_pairs(B)}}})
    assert results["well_defined"] is True


@pytest.mark.parametrize("scale", [1e-8] + [pytest.param(scale, marks=pytest.mark.xfail(
    strict=True, raises=fd.CenterResolutionError,
    reason="the center search cuts relative to the largest commutator, so the tiny "
           "generator's fall below it and the diagonal splits (ROADMAP item 19)"))
    for scale in [1e-10, 1e-14, 1e-30]])
def test_delta_on_a_diagonal_and_a_tiny_pauli(tmp_path, capsys, scale):
    # X1 = diag(1, 2) and X2 = scale sigma_x generate M2 at every scale
    gens = [np.diag([1.0, 2.0]), scale * np.array([[0.0, 1.0], [1.0, 0.0]])]
    results = _cli_results(tmp_path, capsys, {"scenario": "delta", "algebra": {
        "blocks": [2], "weights": [1.0], "generators": [mat_pairs(g) for g in gens]}})
    assert results["Delta_fraction"] == "3/4"


@pytest.mark.parametrize("n", [8, pytest.param(16, marks=pytest.mark.xfail(
    strict=True, reason="the word fit's Vandermonde basis stops growing before it spans L2, "
                        "so its Y fails the commutator gate: ResidualTooLarge (ROADMAP item 7)"))])
def test_dual_inner_on_a_diagonal_ladder_is_well_defined(tmp_path, capsys, n):
    # n one-by-one blocks, one standard-normal diagonal generator, a random B
    rng = np.random.default_rng(0)
    g = np.diag(rng.standard_normal(n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = write_config(tmp_path, {
        "scenario": "dual_system",
        "algebra": {"blocks": [1] * n, "weights": [1.0 / n] * n, "generators": [mat_pairs(g)]},
        "parameters": {"dual": {"type": "inner", "matrix": mat_pairs(B)}},
    })
    assert main(["dual_system", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["well_defined"] is True


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


@pytest.mark.parametrize("name", ["dual_fisher", "delta_direct_sum"])
def test_fisher_slots_match_single_slot_runs(tmp_path, name):
    # each fisher slot is the free difference quotient run on that slot, bit for bit
    algebra = json.loads((CONFIG_DIR / f"{name}.json").read_text())["algebra"]

    def results(dual):
        cfg = {"scenario": "dual_system", "algebra": algebra, "parameters": {"dual": dual}}
        path = write_config(tmp_path, cfg)
        return run_scenario(load_config(path, "dual_system", None, False))["results"]

    slots = results({"type": "fisher"})["slots"]
    assert [s["slot"] for s in slots] == list(range(len(algebra["generators"])))
    for s in slots:
        single = results({"type": "free_difference_quotient", "slot": s["slot"]})
        assert single["well_defined"] is s["well_defined"]
        assert float(single["defect"]).hex() == float(s["defect"]).hex()


def test_group_finite_cross_check(tmp_path, capsys):
    cfg = {"scenario": "group_finite", "group": {"kind": "symmetric", "n": 3}}
    path = write_config(tmp_path, cfg)
    assert main(["group_finite", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["group_order"] == 6
    assert abs(payload["results"]["Delta"] - 5 / 6) <= 1e-9
    assert payload["results"]["formula_abs_error"] <= 1e-9


def _assert_derived_fields(results):
    """The fields `_delta_results` derives equal their sources: each float is
    float() of its fraction, every pinned field is Delta, and the agreement
    flags are true."""
    delta = results["Delta"]
    assert delta == float(Fraction(results["Delta_fraction"]))
    assert results["beta0"] == float(Fraction(results["beta0_fraction"]))
    pinned = results["pinned"]
    assert (results["dim_H0"] == results["dim_H1"] == results["dim_H2"]
            == pinned["delta_star"] == pinned["delta_blackstar"] == delta)
    assert "subspace_distances" not in results
    assert results["agreement"] == {"spaces_coincide": True, "closed_form_matches": True,
                                    "weak_equals_norm": True}


_S3_CONFIG = str(CONFIG_DIR / "group_finite_s3.json")


@pytest.mark.parametrize("argv", [
    *[["delta", "--config", str(CONFIG_DIR / f"{name}.json")]
      for name in ("delta_direct_sum", "delta_full_2x2", "delta_two_point")],
    ["group_finite", "--config", _S3_CONFIG],
    *[["group_finite", "--config", _S3_CONFIG, "--seed", str(seed)] for seed in range(4)],
], ids=["delta_direct_sum", "delta_full_2x2", "delta_two_point", "group_finite_s3",
        *[f"s3_seed_{seed}" for seed in range(4)]])
def test_derived_report_fields_equal_their_sources(capsys, argv):
    assert main(argv) == 0
    _assert_derived_fields(json.loads(capsys.readouterr().out)["results"])


@pytest.mark.parametrize("shape", [[1, 2], [1, 1, 2]], ids=str)
def test_derived_fields_of_random_block_algebras(shape):
    alg = random_block_algebra(shape, 0)
    _assert_derived_fields(cli_module._delta_results(fd.delta_report(alg), alg.block_sizes))


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


def test_group_free_cycle_notation_skips_empty_cycles(tmp_path, capsys):
    def results(image):
        cfg = {"scenario": "group_free", "group": {"kind": "symmetric", "n": 3},
               "parameters": {"rank": 2, "images": [image, "(1 2 3)"]}}
        return _report(tmp_path, capsys, cfg)["results"]

    assert results("()(1 2)") == results("(1 2)")


def _report(tmp_path, capsys, cfg, *flags):
    path = write_config(tmp_path, cfg)
    assert main([cfg["scenario"], "--config", path, *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_group_finite_product_matches_its_table(tmp_path, capsys):
    # C2 x S3 as a product section and as the table direct_product builds:
    # one table, so one report but for the generator labels, which name elements
    c2, s3 = {"kind": "cyclic", "n": 2}, {"kind": "symmetric", "n": 3}
    mult = fd.direct_product(fd.cyclic_group(2), fd.symmetric_group(3)).mult.tolist()
    product = _report(tmp_path, capsys, {"scenario": "group_finite", "group": {
        "kind": "product", "factors": [c2, s3]}}, "--seed", "3")
    table = _report(tmp_path, capsys, _table(mult), "--seed", "3")
    assert product["results"].pop("generators") != table["results"].pop("generators")
    assert product["results"] == table["results"]
    assert product["results"]["group_order"] == 12
    assert product["residuals"] == table["residuals"]


def test_dual_explicit_inner_targets_match_the_inner_run(tmp_path, capsys):
    # T_j = [B, L_j] given as explicit targets is the inner run on B, bit for bit
    inner = json.loads((CONFIG_DIR / "dual_inner.json").read_text())
    values = load_config(str(CONFIG_DIR / "dual_inner.json"), "dual_system", None,
                         False).values
    gns = fd.gns_structure(cli_module._algebra(values))
    targets = fd.inner_spec(gns, values["matrices"][0][1])
    explicit = dict(inner, parameters=dict(inner["parameters"], dual={
        "type": "explicit", "targets": [mat_pairs(T) for T in targets]}))
    want, got = _report(tmp_path, capsys, inner), _report(tmp_path, capsys, explicit)
    assert got["results"]["mode"] == "explicit" and want["results"]["well_defined"]
    for key in ("well_defined", "defect", "xi_norm"):
        assert got["results"][key] == want["results"][key], key
    assert got["residuals"] == want["residuals"]


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


def _ladder_config(tmp_path, seed, label):
    """Path of the config of operation `label` of the dual_ladder benchmark
    workload at `seed`, written by perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", CONFIG_DIR.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclasses
    spec.loader.exec_module(workloads)
    ops = workloads.build("dual_ladder", seed, str(CONFIG_DIR.parent), str(tmp_path))
    return next(op.config for op in ops.next_pass() if op.label == label)


def _scaled_dual_inner(scale, dual=None):
    """dual_inner.json with its generators times `scale` (and another dual)."""
    cfg = json.loads((CONFIG_DIR / "dual_inner.json").read_text())
    cfg["algebra"]["generators"] = [[[[scale * re, scale * im] for re, im in row]
                                     for row in g] for g in cfg["algebra"]["generators"]]
    if dual is not None:
        cfg["parameters"]["dual"] = dual
    return cfg


def _accepted(code, captured):
    assert code == 0, captured.err
    results = json.loads(captured.out)["results"]
    return results["well_defined"] and results["defect"] <= WELLDEF_TOL


@pytest.mark.parametrize("seed", [5, 6])
def test_dual_ladder_d64_inner_derivation_is_accepted(tmp_path, capsys, seed):
    # the word fit's defect is 2.2e-8 and 2.4e-8 here, over WELLDEF_TOL; the
    # Sylvester solve's relative residual is about 2e-15
    path = _ladder_config(tmp_path, seed, "8/inner")
    code = main(["dual_system", "--config", path])
    assert _accepted(code, capsys.readouterr())


@pytest.mark.parametrize("scale", [
    2.0**10, 1e3, 2.0**30, 2.0**40, 1e10, 2.0**49,
    pytest.param(2.0**50, marks=pytest.mark.xfail(strict=True)),
])
def test_scaled_inner_derivation_is_accepted(tmp_path, capsys, scale):
    # from 2^30 on the commutator residuals (1.5e-6 to 1.3e-3) are about
    # 2e-16 of ||T||; the dual operator's gate is relative to the data.  From
    # 2^50 on the word fit's Y misses the commutators by 0.37 ||T|| (2.27e15
    # of 6.10e15), the large-scale mirror of the 2^-40 refusal below
    assert _accepted(*_run_dual(tmp_path, capsys, _scaled_dual_inner(scale)))


def test_tiny_scale_inner_dual_operator_is_refused(tmp_path, capsys):
    # at 2^-40 the Sylvester verdict accepts T, but the word fit's Y misses
    # the commutators by 0.37 ||T|| (1.8e-12, under an absolute 1e-9)
    code, captured = _run_dual(tmp_path, capsys, _scaled_dual_inner(2.0**-40))
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("computation error: ResidualTooLarge")


def test_tiny_scale_free_difference_quotient_is_rejected(tmp_path, capsys):
    # at 2^-30 the word fit expands no word, so its defect is exactly 0; the
    # free difference quotient never descends in finite dimensions
    scale = 2.0**-30
    code, captured = _run_dual(tmp_path, capsys,
                               _scaled_dual_inner(scale, {"type": "fisher"}))
    assert code == 0, captured.err
    results = json.loads(captured.out)["results"]
    assert results["value"] == "inf" and results["slots"][0]["well_defined"] is False
    dual = {"type": "free_difference_quotient", "slot": 0}
    code, captured = _run_dual(tmp_path, capsys, _scaled_dual_inner(scale, dual))
    assert code == 0, captured.err
    assert json.loads(captured.out)["results"]["well_defined"] is False


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------

def test_unknown_key_rejected(tmp_path):
    cfg = c2_config()
    cfg["surprise"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 2


def test_load_config_refuses_an_unknown_scenario():
    # main's argument parser offers only known scenarios; library callers may pass any
    with pytest.raises(fd.ConfigError, match="^unknown scenario 'nope'$"):
        load_config(str(CONFIG_DIR / "delta_two_point.json"), "nope", None, False)


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


def test_module_error_maps_to_exit_one(tmp_path, capsys):
    cfg = c2_config()
    # sigma_x generates C (+) C, not the declared M_2
    cfg["algebra"].update(blocks=[2], weights=[1.0], generators=[mat_pairs([[0, 1], [1, 0]])])
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("computation error: NotGenerating: ")


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


@pytest.mark.parametrize("make,message", [
    (lambda d: d / "missing.json", "config error: cannot read config {path}: "),
    (lambda d: d, "config error: cannot read config {path}: "),
    (lambda d: d / "list.json", "config error: config must be a JSON object\n"),
], ids=["missing_path", "directory", "json_list"])
def test_config_that_is_not_a_json_object_file_is_refused(tmp_path, capsys, make,
                                                          message):
    (tmp_path / "list.json").write_text("[1, 2]")
    path = str(make(tmp_path))
    assert main(["counterexample", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path)) and len(err.splitlines()) == 1
    assert "Traceback" not in err


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


def _small_weight_run(tmp_path, capsys, weight):
    """The 2 x 2 block of delta_direct_sum at trace weight `weight`."""
    cfg = json.loads((CONFIG_DIR / "delta_direct_sum.json").read_text())
    cfg["algebra"]["weights"] = [1 - weight, weight]
    path = write_config(tmp_path, cfg)
    code = main(["delta", "--config", path])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    results = json.loads(captured.out)["results"]
    mult = [[0, 0], [0, 0]]
    for block in results["blocks"]:
        mult[block["i"]][block["j"]] = block["multiplicity"]
    assert mult == [[0, 2], [2, 3]]
    assert results["agreement"]["closed_form_matches"]
    return results


@pytest.mark.parametrize("weight", [1e-15, 1e-16, 1e-300])
def test_tiny_weight_scalar_block_is_accepted(tmp_path, capsys, weight):
    # Delta reads the ranks of the block pairs' Sylvester operators; a gate
    # on the rounding of H0's span, which grows as sqrt(n / alpha), would
    # refuse these valid inputs with NotInvariant
    cfg = json.loads((CONFIG_DIR / "delta_direct_sum.json").read_text())
    cfg["algebra"]["weights"] = [weight, 1 - weight]
    code = main(["delta", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    results = json.loads(captured.out)["results"]
    assert [b["multiplicity"] for b in results["blocks"]] == [0, 2, 2, 3]
    assert results["agreement"]["closed_form_matches"]


def test_small_weight_matrix_block_is_accepted(tmp_path, capsys):
    # the GNS identity gaps grow as n / alpha, so an absolute gate on them
    # would refuse this valid input
    results = _small_weight_run(tmp_path, capsys, 1e-6)
    assert results["Delta_fraction"] == "1599999/800000000000"


@pytest.mark.parametrize("weight", [1e-3, 1e-4, 1e-5, 1e-7, 1e-8])
def test_small_weight_sweep_is_accepted(tmp_path, capsys, weight):
    _small_weight_run(tmp_path, capsys, weight)


def test_tiny_weight_fractions_are_the_declared_weights(tmp_path, capsys):
    # 1e-12 is far from every fraction of denominator <= 10^6 relative to
    # itself, so it stays exact (as 0 it would give Delta 0), while 1 - 1e-12
    # is within 1e-12 of 1 relative to itself
    results = _small_weight_run(tmp_path, capsys, 1e-12)
    w = Fraction(1e-12)
    assert Fraction(results["Delta_fraction"]) == 2 * w + Fraction(3, 4) * w * w
    assert abs(results["Delta"] - 2e-12) <= 1e-15


def _hostile_c2(mutate):
    cfg = c2_config()
    mutate(cfg["algebra"])
    return cfg


@pytest.mark.parametrize("mutate,code,message", [
    (lambda a: a.update(weights=[float("nan"), 0.5]), 2,
     "config error: weights must be positive, got (nan, 0.5)"),
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
    # the declared structure, refused before build_algebra checks it again
    (lambda a: a.update(blocks=[]), 2,
     "config error: block sizes must be positive integers, got ()"),
    (lambda a: a.update(weights=[1.0]), 2, "config error: 1 weights for 2 blocks"),
    (lambda a: a.update(weights=[0, 1.0]), 2,
     "config error: weights must be positive, got (0.0, 1.0)"),
    (lambda a: a.update(weights=[0.5, 0.4]), 2,
     "config error: weights sum to 0.9, expected 1"),
    (lambda a: a["generators"].append(mat_pairs(np.eye(3))), 2,
     "config error: generator 1 has shape (3, 3), expected (2, 2)"),
    (lambda a: a["generators"].append(mat_pairs([[0, 1], [1, 0]])), 2,
     "config error: generator 1 has entries of size 1.000e+00 outside the blocks"),
    (lambda a: a.update(labels=["X", "Y"]), 2,
     "config error: one label per generator required"),
], ids=["nan_weight", "nan_entry", "ragged_row", "ragged_pair", "str_weight",
        "float_block", "scalar_generators", "scalar_labels", "huge_int_weight",
        "null_blocks", "huge_int_entry", "huge_entry", "string_flag",
        "dim_above_cap", "huge_block", "no_blocks", "weights_too_few", "zero_weight",
        "weights_off_one", "generator_size", "generator_off_blocks", "label_count"])
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


@pytest.mark.parametrize("scenario,group,message", [
    ("group_finite",
     {"kind": "product", "factors": [{"kind": "cyclic", "n": 2, "generating_set": [0]},
                                     {"kind": "cyclic", "n": 2}]},
     "group.factors[0]: keys ['generating_set'] are not read for a cyclic group "
     "inside a product"),
    ("group_finite", {"kind": "cyclic", "n": 2, "factors": "junk"},
     "group: keys ['factors'] are not read for a cyclic group"),
    ("group_finite", {"kind": "cyclic", "n": 2, "mult": [[9]]},
     "group: keys ['mult'] are not read for a cyclic group"),
    ("group_finite", {"kind": "table", "mult": [[0, 1], [1, 0]], "n": "x"},
     "group: keys ['n'] are not read for a table group"),
    ("group_free", {"kind": "cyclic", "n": 2, "generating_set": [1]},
     "group: keys ['generating_set'] are not read by scenario 'group_free'"),
], ids=["generating_set_in_factor", "factors_on_cyclic", "mult_on_cyclic",
        "n_on_table", "generating_set_in_group_free"])
def test_group_keys_not_read_are_refused(tmp_path, capsys, scenario, group, message):
    cfg = {"scenario": scenario, "group": group}
    if scenario == "group_free":
        cfg["parameters"] = {"rank": 2, "images": [1, 1]}
    path = write_config(tmp_path, cfg)
    assert main([scenario, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


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


def _direct_sum_at_weight(weight, **scenario):
    """delta_direct_sum with its 2 x 2 block at trace weight `weight`."""
    cfg = json.loads((CONFIG_DIR / "delta_direct_sum.json").read_text())
    cfg["algebra"]["weights"] = [1 - weight, weight]
    return dict(cfg, **scenario)


def _s3(**group):
    return {"scenario": "group_finite", "group": dict(kind="symmetric", n=3, **group)}


def _table(mult):
    return {"scenario": "group_finite", "group": {"kind": "table", "mult": mult}}


# [1.5] and [True] used to become element 1, [-1] the last element, and
# null the default generating set
_BAD_GENERATING_SETS = [[99], "ab", {"a": 1}, [[1]], [1.5], [True], [-1], None]
# 1.5 used to be truncated and True read as 1
_BAD_TABLES = [[[0, "x"], [1, 0]], [[0, 1], [1]], [[0, 1e400], [1, 0]],
               [[0, 1.5], [1, 0]], [[0, True], [1, 0]], [[0, 10**400], [1, 0]]]


# tables of the right shape that are no group's, with from_mult_table's reason;
# a table section holding one is refused at the top level, as a product
# factor and in group_free
_NON_GROUP_TABLES = [
    ([[0, 1], [0, 1]], "multiplication table has no identity element"),
    ([[0, 1], [1, 1]], "element 1 has no two-sided inverse"),
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "multiplication table is not associative"),
]


def _table_sections(mult):
    return [_table(mult),
            {"scenario": "group_finite", "group": {"kind": "product", "factors": [
                {"kind": "cyclic", "n": 2}, {"kind": "table", "mult": mult}]}},
            {"scenario": "group_free", "group": {"kind": "table", "mult": mult},
             "parameters": {"rank": 2, "images": [1, 1]}}]


def test_axiom_pass_runs_once_per_table_section(tmp_path, monkeypatch):
    # the order^3 check runs once per `table` section, at ingestion, and never
    # for a table that cyclic_group, symmetric_group or direct_product builds
    import freedim.groups as groups_module
    axioms, seen = groups_module._group_axioms, []

    def spied(mult):
        seen.append(len(mult))
        return axioms(mult)

    for module in (groups_module, cli_module):
        monkeypatch.setattr(module, "_group_axioms", spied)
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table = {"kind": "table", "mult": z3}
    c2, s3 = {"kind": "cyclic", "n": 2}, {"kind": "symmetric", "n": 3}
    cases = [(cfg, 1) for cfg in _table_sections(z3)] + [
        ({"scenario": "group_finite", "group": {"kind": "product",
                                                "factors": [table, c2, table]}}, 2),
        ({"scenario": "group_finite", "group": c2}, 0),
        ({"scenario": "group_finite", "group": s3}, 0),
        ({"scenario": "group_finite", "group": {"kind": "product", "factors": [c2, s3]}}, 0),
        ({"scenario": "group_free", "group": {"kind": "product", "factors": [s3, c2, c2]},
          "parameters": {"rank": 2, "images": [1, 2]}}, 0),
        ({"scenario": "group_free", "group": {"kind": "symmetric", "n": 5},
          "parameters": {"rank": 2, "images": ["(1 2)", "(1 2 3 4 5)"]}}, 0),
    ]
    for cfg, calls in cases:
        seen.clear()
        assert main([cfg["scenario"], "--config", write_config(tmp_path, cfg)]) == 0
        assert len(seen) == calls, cfg


# malformed cycle-notation images on S3, with the reason the CLI prints
_BAD_CYCLES = [
    ("(1 2", "malformed cycle notation '(1 2'"),
    ("x", "malformed cycle notation 'x'"),
    ("(1 9)", "cycle ['1', '9'] invalid for degree 3"),
    ("(1 1)", "cycle ['1', '1'] invalid for degree 3"),
    ("(1 2))", "malformed cycle notation '(1 2))'"),
]
_FDQ = {"type": "free_difference_quotient"}
_ZERO_4X4 = mat_pairs(np.zeros((4, 4)))


@pytest.mark.parametrize("cfg,code,message", [
    (_shipped("dual_fisher", dual=dict(_FDQ, slot="a")), 2,
     "config error: parameters.dual.slot must be an integer"),
    (_shipped("dual_fisher", dual=dict(_FDQ, slot=True)), 2,
     "config error: parameters.dual.slot must be an integer"),
    (_shipped("dual_fisher", dual=dict(_FDQ, slot=1)), 2,
     "config error: parameters.dual.slot must be a generator index below 1, got 1\n"),
    (_shipped("dual_inner", dual=dict(_FDQ, slot=7)), 2,
     "config error: parameters.dual.slot must be a generator index below 2, got 7\n"),
    (_shipped("dual_inner", dual=dict(_FDQ, slot=-1)), 2,
     "config error: parameters.dual.slot must be a generator index below 2, got -1\n"),
    (_shipped("dual_inner", dual={"type": "explicit", "targets": []}), 2,
     "config error: parameters.dual.targets must hold 2 matrices, one per "
     "generator, got 0\n"),
    (_shipped("dual_inner", dual={"type": "explicit", "targets": [_ZERO_4X4] * 3}), 2,
     "config error: parameters.dual.targets must hold 2 matrices, one per "
     "generator, got 3\n"),
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
    (_shipped("cutoff_sweep", r_grid=[10**400]), 2,
     "config error: parameters.r_grid must be a nonempty list of finite positive reals\n"),
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
      "parameters": {"rank": 2, "images": ["(a b)", "(1 2)"]}}, 2,
     "config error: parameters.images[0]: malformed cycle notation '(a b)'"),
    ({"scenario": "group_free", "group": {"kind": "symmetric", "n": 3},
      "parameters": {"rank": 2, "images": ["(1 2)x", "(1 2)"]}}, 2,
     "config error: parameters.images[0]: malformed cycle notation '(1 2)x'\n"),
    *[({"scenario": "group_free", "group": {"kind": "symmetric", "n": 3},
        "parameters": {"rank": 2, "images": ["(1 2)", bad]}}, 2,
       f"config error: parameters.images[1]: {why}")
      for bad, why in _BAD_CYCLES],
    *[(_s3(generating_set=bad), 2,
       "config error: group.generating_set must be a list of element indices "
       "below 6") for bad in _BAD_GENERATING_SETS],
    *[(_table(mult), 2, "config error: group.mult must be 2 rows of 2 element "
       "indices below 2") for mult in _BAD_TABLES],
    *[(cfg, 2, f"config error: {why}\n")
      for mult, why in _NON_GROUP_TABLES for cfg in _table_sections(mult)],
    (_table([]), 2, "config error: multiplication table has shape (0,)\n"),
    # the cap comes before the order^3 axiom check
    (_table([[0] * 25] * 25), 1,
     "computation error: TooLarge: group order 25 exceeds the cap 24\n"),
    (_shipped("cutoff_sweep", A=mat_pairs(np.eye(2))), 2,
     "config error: explicit cutoff runs need parameters.X\n"),
    ({"scenario": "group_finite", "group": {"kind": "product", "factors": {"kind": "cyclic"}}},
     2, "config error: group.factors must be a list of group objects\n"),
    ({"scenario": "group_finite", "group": {"kind": "product",
                                            "factors": [{"kind": "cyclic", "n": 2}]}},
     2, "config error: product groups need at least two factors\n"),
    (_shipped("group_free_kernel", images=5), 2,
     "config error: parameters.images must be a list\n"),
    (_shipped("group_free_kernel", images=["(1 2)", 1]), 2,
     "config error: cycle-notation images require a symmetric group section\n"),
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
    ({"scenario": "group_free", "group": {"kind": "cyclic", "n": 2, "generating_set": None},
      "parameters": {"rank": 2, "images": [1, 1]}}, 2,
     "config error: group.generating_set must be a list of element indices below 2"),
    *[(_direct_sum_at_weight(1e-310, **scenario), 2,
       "config error: weight 1e-310 of block 1 (size 2) is too small: "
       "sqrt(2 / 1e-310) overflows\n")
      for scenario in ({}, {"scenario": "dual_system",
                            "parameters": {"dual": {"type": "fisher"}}})],
], ids=["slot_string", "slot_bool", "slot_out_of_range", "slot_seven", "slot_negative",
        "targets_empty", "targets_too_many", "targets_scalar",
        "targets_shape", "k_zero", "k_string", "k_scalar", "r_grid_string",
        "r_grid_nan", "dim_negative", "n_ops_string",
        "r_grid_huge_int", "dim_above_cap", "n_ops_above_cap",
        "free_group_order_above_cap", "rank_string", "image_out_of_range",
        "image_cycle_letters", "image_cycle_trailing_text",
        *[f"image_cycle_{k}" for k in range(len(_BAD_CYCLES))],
        *[f"generating_set_{k}" for k in range(len(_BAD_GENERATING_SETS))],
        *[f"mult_{k}" for k in range(len(_BAD_TABLES))],
        *[f"{kind}_{where}" for kind in ("no_identity", "no_inverse", "not_associative")
          for where in ("top", "factor", "group_free")],
        "empty_table", "non_group_table_above_cap", "A_without_X", "factors_scalar",
        "one_factor", "images_scalar", "cycle_images_on_cyclic",
        "dual_dim_above_cap", "smooth_string", "X_scalar", "X_size", "r_grid_long",
        "seed_negative", "rank_huge", "rank_zero", "rank_negative",
        "images_too_few", "images_too_many", "group_without_images",
        "group_free_null_generating_set", "weight_overflow_delta",
        "weight_overflow_fisher"])
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


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("r_grid", [[1e7], [1, 1e308], [sys.float_info.max]],
                         ids=["r_grid_huge", "r_grid_1e308", "r_grid_max"])
def test_cutoff_admits_every_finite_radius(tmp_path, capsys, r_grid, fmt):
    # the sweep's cost does not depend on R, and at or past the spectral
    # radius (5.66 on this instance) the clamp passes the spectrum through
    path = write_config(tmp_path, _shipped("cutoff_sweep", r_grid=r_grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cutoff", "--config", path, "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("freedim cutoff: completed in ")
    assert len(captured.err.splitlines()) == 1
    if fmt == "json":
        rows = [(row["R"], row["hs_error"])
                for row in json.loads(captured.out)["results"]["sweep"]]
    elif fmt == "csv":
        rows = [tuple(map(float, line.split(","))) for line in captured.out.splitlines()[1:]]
    else:
        rows = [(float(line.split()[2].rstrip(":")), float(line.split()[-1]))
                for line in captured.out.splitlines() if line.startswith("R = ")]
    assert [R for R, _ in rows] == [float(r) for r in r_grid]
    assert all(hs_error == 0.0 for R, hs_error in rows if R > 1)


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


@pytest.mark.parametrize("where,reason", [
    (lambda d: d / "missing" / "report.json", "No such file or directory"),
    (lambda d: d, "Is a directory"),
], ids=["missing_directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, where, reason):
    path = write_config(tmp_path, c2_config())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = where(out_dir)
    assert main(["delta", "--config", path, "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write report to {target}: {reason}\n"
    assert list(out_dir.iterdir()) == []
    assert not list(tmp_path.rglob(".freedim-*"))


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


@pytest.mark.parametrize("scale", [1e10, 1e-10, 1e-30])
def test_generation_check_is_scale_free(tmp_path, capsys, scale):
    # scaling the generators leaves the algebra they generate unchanged; at
    # 1e-30 every commutator is below 1e-12, and the center is still found
    cfg = json.loads((CONFIG_DIR / "delta_direct_sum.json").read_text())
    cfg["algebra"]["generators"] = [
        [[[x * scale for x in entry] for entry in row] for row in g]
        for g in cfg["algebra"]["generators"]
    ]
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["Delta_fraction"] == "7/9"


def _on_both_blocks(x):
    return np.kron(np.eye(2), x)


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e10])
@pytest.mark.parametrize("blocks,weights,generators,fraction", [
    # M_2 on both blocks at once: one 2 x 2 block of weight 1
    ([2, 2], [0.3, 0.7], [_on_both_blocks([[0, 1], [1, 0]]),
                          _on_both_blocks([[1, 0], [0, -1]])], "3/4"),
    # C + C at weights 2/3 and 1/3
    ([3], [1.0], [np.diag([1.0, 1.0, -1.0])], "4/9"),
], ids=["doubled_pauli", "diag_11m1"])
def test_subalgebra_mode_is_scale_free(tmp_path, capsys, blocks, weights,
                                       generators, fraction, scale):
    cfg = {
        "scenario": "delta",
        "algebra": {
            "blocks": blocks,
            "weights": weights,
            "generators": [mat_pairs(scale * g) for g in generators],
            "subalgebra_mode": True,
        },
    }
    path = write_config(tmp_path, cfg)
    assert main(["delta", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["Delta_fraction"] == fraction


def test_subalgebra_mode_counts_the_span_once(tmp_path, capsys, monkeypatch):
    # the ranks fall short on the declared blocks, so word_span runs once
    # there; build_algebra's ranks accept the block form with no span
    import freedim.wedderburn as wedderburn_module

    seen, span = [], algebra_module.word_span
    for module in (algebra_module, wedderburn_module):
        monkeypatch.setattr(module, "word_span",
                            lambda sizes, gens: seen.append(tuple(sizes)) or span(sizes, gens))
    cfg = {"scenario": "delta", "algebra": {
        "blocks": [2, 2], "weights": [0.3, 0.7], "subalgebra_mode": True,
        "generators": [mat_pairs(_on_both_blocks(m)) for m in ([[0, 1], [1, 0]],
                                                               [[1, 0], [0, -1]])]}}
    assert main(["delta", "--config", write_config(tmp_path, cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["Delta_fraction"] == "3/4"
    assert seen == [(2, 2)]


@pytest.mark.parametrize("name", ["delta_full_2x2", "dual_inner"])
def test_subalgebra_mode_on_a_generating_tuple_changes_no_report_byte(tmp_path, capsys,
                                                                       name):
    # a tuple that generates is its own subalgebra: only config_hash moves
    plain = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    flagged = json.loads(json.dumps(plain))
    flagged["algebra"]["subalgebra_mode"] = True
    reports = {}
    for label, cfg in (("plain", plain), ("flagged", flagged)):
        path = write_config(tmp_path, cfg, name=f"{label}.json")
        for fmt in ("json", "text"):
            assert main([cfg["scenario"], "--config", path, "--verbose",
                         "--format", fmt]) == 0
            reports[label, fmt] = capsys.readouterr().out
    hashes = {label: json.loads(reports[label, "json"])["config_hash"]
              for label in ("plain", "flagged")}
    assert hashes["plain"] != hashes["flagged"]
    for fmt in ("json", "text"):
        flagged_out = reports["flagged", fmt].replace(hashes["flagged"], hashes["plain"])
        assert flagged_out == reports["plain", fmt]


def test_freedim_tol_env_override(tmp_path, monkeypatch, capsys):
    # the residual gate is fixed; an impossible one reaches the exit-1
    # ResidualTooLarge path
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
    monkeypatch.setattr(fd.derivations, "RESIDUAL_TOL", 1e-30)
    capsys.readouterr()
    assert main(["dual_system", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("computation error: ResidualTooLarge")
    assert "Traceback" not in err


def test_emit_report_unknown_format(tmp_path):
    path = write_config(tmp_path, c2_config())
    config = load_config(path, "delta", None, False)
    report = run_scenario(config)
    with pytest.raises(fd.UnsupportedFormat):
        emit_report(report, "yaml")


def test_emit_report_refuses_csv_as_main_does(tmp_path, capsys):
    # a library caller that skips main's check gets main's refusal, word for word
    path = write_config(tmp_path, c2_config())
    report = run_scenario(load_config(path, "delta", None, False))
    with pytest.raises(fd.UnsupportedFormat) as info:
        emit_report(report, "csv")
    message = "csv output is only available for sweep scenarios, not 'delta'"
    assert str(info.value) == message
    assert main(["delta", "--config", path, "--format", "csv"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"

    path = write_config(tmp_path, {"scenario": "cutoff", "parameters": {"r_grid": [1, 2]}})
    report = run_scenario(load_config(path, "cutoff", None, False))
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == "R,hs_error" and [ln.split(",")[0] for ln in lines[1:]] == ["1.0", "2.0"]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config_path,fmt", [
    (path, fmt) for path in sorted(CONFIG_DIR.glob("*.json"))
    for fmt in ("json", "text", "csv")
    if fmt != "csv" or cli_module.SCENARIOS[json.loads(path.read_text())["scenario"]].sweeps
], ids=lambda v: getattr(v, "name", v))
def test_shipped_configs_run_without_warnings(config_path, fmt, capsys):
    # a numpy warning (overflow, invalid value) raises here instead of
    # reaching stderr next to a report
    scenario = json.loads(config_path.read_text())["scenario"]
    assert main([scenario, "--config", str(config_path), "--format", fmt]) == 0
    assert capsys.readouterr().err.startswith(f"freedim {scenario}: completed in ")


# ---------------------------------------------------------------------------
# one parser per process; no contraction path searched per call
# ---------------------------------------------------------------------------

def _alone(argv, **env_vars):
    """Exit code, stdout and stderr of one `main(argv)` in a fresh process,
    with `env_vars` set in its environment."""
    src = str(CONFIG_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])), **env_vars)
    done = subprocess.run([sys.executable, "-c", "import sys; from freedim.cli import main; "
                           f"sys.exit(main({argv!r}))"], env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def test_parser_reuse_matches_calls_run_alone(capsysbinary):
    inner, s3 = str(CONFIG_DIR / "dual_inner.json"), str(CONFIG_DIR / "group_finite_s3.json")
    calls = [
        ["dual_system", "--config", inner, "--verbose"],
        ["dual_system", "--config", inner],
        ["delta", "--config", str(CONFIG_DIR / "delta_full_2x2.json"), "--format", "text"],
        ["group_finite", "--config", s3, "--seed", "3"],
        ["no_such_scenario", "--config", s3],
        ["group_finite"],
        ["group_finite", "--config", s3],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsysbinary.readouterr()
        alone_code, alone_out, alone_err = _alone(argv)
        assert (code, out) == (alone_code, alone_out), argv
        if code == 2:
            assert err == alone_err and err.startswith(b"usage: freedim")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsysbinary.readouterr().out.startswith(b"usage: freedim")


def test_dual_inner_searches_one_contraction_path(monkeypatch, capsys):
    # the generators' left multiplications share one path, searched once per
    # operand shape in a process; every other contraction is given its path
    # or needs none
    searches, paths = [], []
    einsum, einsum_path = np.einsum, np.einsum_path

    def spied_einsum(*operands, **kwargs):
        paths.append(kwargs.get("optimize", False))
        return einsum(*operands, **kwargs)

    def spied_einsum_path(*operands, **kwargs):
        searches.append(sys._getframe(1).f_code.co_name)
        return einsum_path(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spied_einsum)
    monkeypatch.setattr(np, "einsum_path", spied_einsum_path)
    algebra_module._contraction_path.cache_clear()
    for _ in range(2):
        assert main(["dual_system", "--config", str(CONFIG_DIR / "dual_inner.json")]) == 0
    capsys.readouterr()
    assert searches == ["_contraction_path"]
    assert paths and all(p is False or isinstance(p, list) for p in paths)


def test_group_finite_checks_its_block_count_against_the_classes(monkeypatch, capsys):
    # group_finite's exact check, tripped by a monkeypatched class count on S3
    # (blocks 1, 1, 2; three conjugacy classes)
    monkeypatch.setattr(cli_module, "class_count", lambda table: 4)
    assert main(["group_finite", "--config", str(CONFIG_DIR / "group_finite_s3.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith(
        "computation error: ChainViolation: 3 blocks for a group with 4 conjugacy classes")


# group inputs and seeds whose measured block weights fall outside
# to_fraction's 1e-12 window at 2 BLAS threads (a survey of 55 groups of order
# <= 24 at seeds 0-3); summed over those weights, Delta printed a 36-digit
# binary fraction, such as 4867778304876434611190551025657559/2^112 for C16
_OFF_WINDOW_GROUPS = {
    "C11": ({"kind": "cyclic", "n": 11}, 2),
    "C16": ({"kind": "cyclic", "n": 16}, 1),
    "C18": ({"kind": "cyclic", "n": 18}, 0),
    "C20": ({"kind": "cyclic", "n": 20}, 3),
    "C2xC9": ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                              {"kind": "cyclic", "n": 9}]}, 0),
    "C4xC6": ({"kind": "product", "factors": [{"kind": "cyclic", "n": 4},
                                              {"kind": "cyclic", "n": 6}]}, 1),
    "C3xC2xC3": ({"kind": "product", "factors": [{"kind": "cyclic", "n": 3},
                                                 {"kind": "cyclic", "n": 2},
                                                 {"kind": "cyclic", "n": 3}]}, 0),
    "S3xC4": ({"kind": "product", "factors": [{"kind": "symmetric", "n": 3},
                                              {"kind": "cyclic", "n": 4}]}, 2),
}


@pytest.mark.parametrize("label", sorted(_OFF_WINDOW_GROUPS))
def test_group_finite_prints_delta_at_the_exact_weights(label, tmp_path):
    # Delta and the closed form are the sums at the weights n_i^2/|G|, so the
    # report is 1 - 1/|G| whatever the measured weights are
    group, seed = _OFF_WINDOW_GROUPS[label]
    path = write_config(tmp_path, {"scenario": "group_finite", "group": group})
    code, out, err = _alone(["group_finite", "--config", path, "--seed", str(seed)],
                            OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    assert code == 0, err
    results = json.loads(out)["results"]
    order = results["group_order"]
    assert results["Delta_fraction"] == f"{order - 1}/{order}"
    assert results["beta0_fraction"] == f"1/{order}"
    assert results["closed_form_beta0"] == 1 / order
    assert results["formula_abs_error"] == abs(results["formula_delta"] - (order - 1) / order)
