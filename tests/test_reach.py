"""Which package functions the CLI enters, over runs that cover every
scenario, dual type, group kind, output format and `subalgebra_mode`.

`cli.main` runs in process under a call-only `sys.settrace` hook, which
records each function of `src/freedim` that a call enters; the previous
hook is restored afterwards.  The test pins the functions that no run
enters, so a new dead path, or a path that stops being dead, shows here.
"""

import contextlib
import copy
import inspect
import io
import json
import sys
import types
from pathlib import Path

import pytest

import freedim.algebra as algebra_module
from freedim.cli import main

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects carry co_qualname from Python 3.11")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freedim"
CONFIG_DIR = ROOT / "configs"
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}

# Library API that no scenario calls, each kept for its stated reason.
NEVER_ENTERED = {
    # f_R(A) by eigendecomposition, the sweep's bitwise oracle in test_cutoff.py
    "cutoff.apply_cutoff",
    # the cutoff lemma [f(A), X] = g(lambda_k, lambda_l)[A, X], named by
    # README; the three helpers below are reached only through it
    "cutoff.commutator_identity_check",
    "cutoff.CutoffFamily.fprime",
    "cutoff.CutoffFamily.g",
    "cutoff._phi_prime",
    # H1, which is H0 by theorem and returns it: README names compute_H1 as
    # library API, and the benchmark's tracer wraps it
    "cocycles.compute_H1",
    # the span of H0 and its dimension report: delta_report reads H0's
    # multiplicities as the Schur values that the block pairs' Sylvester
    # ranks proved when the algebra was built, and builds no span; README
    # names both as library API, the tests check the ranks against them,
    # and the benchmark's tracer wraps them
    "cocycles.compute_H0",
    "vndim.vn_dimension_report",
    # the dense invariance certificate, its per-block action and the action
    # generators it reads: reached through compute_H0's fallback and
    # README's hs_subspace and invariant_closure, none of which a scenario
    # calls; the benchmark's tracer wraps invariance_residual
    "vndim.invariance_residual",
    "vndim._block_action",
    "algebra.GnsStructure.commutant_actions",
    # the shape of a subspace's basis, read by vn_dimension_report and by
    # library callers of an HsSubspace
    "vndim.HsSubspace.n",
    "vndim.HsSubspace.ambient_dim",
    "vndim.HsSubspace.complex_dim",
    # Free Fisher information of an algebra, named by README
    "derivations.phi_star",
    # the checked constructor of an outside table; the CLI checks a `table`
    # section's axioms at ingestion and builds it unchecked
    "groups.from_mult_table",
    # an invariant subspace from a spanning set, and the smallest one that
    # contains a set: README's library API for the dimension engine
    "vndim.hs_subspace",
    "vndim.invariant_closure",
    # the gap between two subspaces: README's library API, and the
    # benchmark's tracer wraps it; no scenario measures a distance, since
    # H1 and H2 are H0.  The flat view of a subspace's rows is reached only
    # through it
    "vndim.subspace_distance",
    "vndim.HsSubspace.flat",
}


def _functions() -> set[str]:
    """`module.qualname` of every named function defined in the package:
    a code object with fast locals (not a class body), not a lambda or a
    comprehension."""
    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    yield const.co_qualname
                yield from walk(const)

    return {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in walk(compile(path.read_text(), str(path), "exec"))}


def _mat(rows):
    return [[[float(x), 0.0] for x in row] for row in rows]


def _runs(tmp_path):
    """The argv of each run; each json report goes to a file by `--output`."""
    runs = []

    def add(name, scenario, cfg, formats=("json", "text")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        for fmt in formats:
            argv = [scenario, "--config", str(path), "--format", fmt, "--verbose"]
            runs.append(argv + ["--output", str(tmp_path / f"{name}.out")] if fmt == "json"
                        else argv)

    for name, cfg in SHIPPED.items():
        formats = ("json", "text", "csv") if cfg["scenario"] == "cutoff" else ("json", "text")
        add(name, cfg["scenario"], cfg, formats)

    fisher = SHIPPED["dual_fisher"]
    for dual in ({"type": "free_difference_quotient", "slot": 0},
                 {"type": "explicit", "targets": [_mat([[0, 0], [0, 0]])]}):
        cfg = copy.deepcopy(fisher)
        cfg["parameters"]["dual"] = dual
        add(dual["type"], "dual_system", cfg)
    # diag(0, 1) generates the diagonal algebra C^2 inside M_2
    cfg = copy.deepcopy(fisher)
    cfg["algebra"] = {"blocks": [2], "weights": [1.0], "generators": [_mat([[0, 0], [0, 1]])],
                      "subalgebra_mode": True}
    add("subalgebra", "dual_system", cfg)

    add("product", "group_finite",
        {"group": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                                  {"kind": "table", "mult": [[0, 1], [1, 0]]}]}})
    add("cycles", "group_free", {"group": {"kind": "symmetric", "n": 3},
                                 "parameters": {"rank": 2, "images": ["(1 2)", "(1 2 3)"]}})
    add("smooth", "cutoff", {"parameters": {"r_grid": [0.5, 2], "smooth": True,
                                            "A": _mat([[1, 0], [0, -3]]),
                                            "X": [_mat([[0, 1], [1, 0]])]}})
    # a weight this small, which the pair ranks accept: no invariance
    # certificate gates delta
    cfg = copy.deepcopy(SHIPPED["delta_direct_sum"])
    cfg["algebra"]["weights"] = [1e-15, 1 - 1e-15]
    add("small_weight", "delta", cfg)
    return runs


def test_the_cli_enters_every_function_but_the_library_api(tmp_path):
    runs = _runs(tmp_path)
    entered = set()

    def hook(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("freedim."):
            entered.add(f"{module[len('freedim.'):]}.{frame.f_code.co_qualname}")

    # the frame's tables are built once per process: empty them, so that
    # the runs enter their builders whatever ran before
    for table in (algebra_module._block_entries, algebra_module._contraction_path,
                  algebra_module._basis_pattern):
        table.cache_clear()
    codes = []
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(runs)
    assert _functions() - entered == NEVER_ENTERED
