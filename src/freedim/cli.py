"""Configuration ingestion, scenario dispatch, and report emission.

One JSON config file per run; scenarios cover the dimension report, dual
operators, the spectral clamp sweep, finite and free group inputs, and the
semicontinuity counterexample.  Reports are deterministic for a fixed
config and seed (wall time goes to stderr, never into the report bytes).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import __version__
from .algebra import build_algebra, gns_structure
from .cocycles import delta_report
from .cutoff import CutoffFamily, convergence_sweep, spectral_radius
from .derivations import (
    DerivationSpec,
    construct_dual_operator,
    derivation_well_defined,
    fisher_report,
    inner_spec,
)
from .errors import (
    ComputationError,
    ConfigError,
    FreedimError,
    TooLarge,
    UnsupportedFormat,
)
from .groups import (
    COUNTEREXAMPLE_K_VALUES,
    ORDER_CAP,
    TABLE_ORDER_CAP,
    BettiInput,
    FiniteGroupTable,
    betti_delta_formula,
    counterexample_report,
    cyclic_group,
    direct_product,
    from_mult_table,
    permutation_from_cycles,
    regular_rep_algebra,
    schreier_graph,
    symmetric_element_index,
    symmetric_group,
    word_str,
)
from .tolerances import residual_tol

_TOP_KEYS = {"scenario", "algebra", "group", "parameters"}
_SECTIONS = {"algebra": "an algebra section", "group": "a group section"}


@dataclass
class ScenarioConfig:
    scenario: str
    algebra: Optional[dict]
    group: Optional[dict]
    parameters: dict
    seed: int
    verbose: bool
    config_hash: str


@dataclass
class RunReport:
    scenario: str
    seed: int
    config_hash: str
    results: dict
    provenance: dict
    residuals: dict

    def payload(self) -> dict:
        return {
            "schema": 1,
            "tool": "freedim",
            "tool_version": __version__,
            "scenario": self.scenario,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "results": self.results,
            "provenance": self.provenance,
            "residuals": self.residuals,
        }


# ---------------------------------------------------------------------------
# value serialization
# ---------------------------------------------------------------------------

def _clean(value):
    """JSON-safe copy: fractions as 'p/q', non-finite floats as strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if not np.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return _clean(value.tolist())
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def matrix_to_pairs(mat: np.ndarray) -> list:
    """Complex matrix as nested [re, im] pairs."""
    m = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


# Largest matrix entry accepted: products of three matrices of size up to 256
# with such entries stay finite (an entry near 1e308 overflows at the first
# subtraction).
_MAX_ENTRY = 1e100


def _parse_matrix(raw, where: str) -> np.ndarray:
    out_of_range = f"{where}: entries must be finite numbers of size at most {_MAX_ENTRY:g}"
    try:
        arr = np.asarray(raw, dtype=float)
    except OverflowError:  # a JSON integer past 1e308
        raise ConfigError(out_of_range) from None
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where}: expected a square matrix of [re, im] number pairs, got a "
            "ragged or non-numeric array"
        ) from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{where}: expected a square matrix of [re, im] pairs, got shape "
            f"{arr.shape}"
        )
    if not np.isfinite(arr).all() or np.abs(arr).max(initial=0.0) > _MAX_ENTRY:
        raise ConfigError(out_of_range)
    return arr[:, :, 0] + 1j * arr[:, :, 1]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def _check_keys(d: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(required - set(d))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def load_config(path: str, scenario: str, seed_override: Optional[int],
                verbose: bool) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
        raw = json.loads(raw_bytes)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # ValueError: malformed, not UTF-8, or an integer past 4300 digits
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    entry = SCENARIOS[scenario]
    _check_keys(raw, _TOP_KEYS, set(), "config")
    if "scenario" in raw and raw["scenario"] != scenario:
        raise ConfigError(
            f"config is for scenario {raw['scenario']!r}, not {scenario!r}"
        )

    for section in entry.needs:
        if section not in raw:
            raise ConfigError(f"scenario {scenario!r} requires {_SECTIONS[section]}")
    for section, name in _SECTIONS.items():
        if section in raw and section not in entry.needs and section not in entry.takes:
            raise ConfigError(f"scenario {scenario!r} does not take {name}")

    params = raw.get("parameters", {})
    _check_keys(params, entry.keys, entry.required, "parameters")
    for section, key in entry.takes.items():
        if key in params and section not in raw:
            raise ConfigError(f"parameters.{key} requires {_SECTIONS[section]}")
        if section in raw and key not in params:
            raise ConfigError(f"scenario {scenario!r} takes {_SECTIONS[section]} "
                              f"only with parameters.{key}")

    # numpy's generators take no negative seed
    seed = params.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError("--seed must be a non-negative integer")
        seed = seed_override

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ScenarioConfig(
        scenario=scenario,
        algebra=raw.get("algebra"),
        group=raw.get("group"),
        parameters=params,
        seed=seed,
        verbose=verbose,
        config_hash=digest,
    )


def _is_int(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _list_of(section: dict, key: str, types: tuple, what: str,
             where: str = "algebra") -> Optional[list]:
    """section[key] (None when absent), checked to be a list of `types`."""
    value = section.get(key)
    if key in section and (not isinstance(value, list) or any(
        isinstance(x, bool) or not isinstance(x, types) for x in value
    )):
        raise ConfigError(f"{where}.{key} must be a list of {what}")
    return value


def _positive_int(params: dict, key: str, default: int, cap: int) -> int:
    value = params.get(key, default)
    if not _is_int(value) or value <= 0:
        raise ConfigError(f"parameters.{key} must be a positive integer, got {value!r}")
    if value > cap:
        raise ConfigError(f"parameters.{key} must be at most {cap}, got {value!r}")
    return value


def _flag(section: dict, key: str, where: str) -> bool:
    """section[key] as a JSON boolean, False when absent."""
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


# Caps on D = sum n_i^2 of the declared algebra.  delta's dense cocycle spans
# grow about as D^6 (23 s and 711 MB at D = 41); dual_system takes about 6 s
# and 200 MB at D = 100.
_DELTA_MAX_DIM = 41
_DUAL_MAX_DIM = 100


def _build_algebra_from_config(section: dict, max_dim: int):
    _check_keys(
        section, {"blocks", "weights", "generators", "labels", "subalgebra_mode"},
        {"blocks", "weights", "generators"}, "algebra",
    )
    raw_gens = _list_of(section, "generators", (list,), "matrices")
    if not raw_gens:
        raise ConfigError("algebra.generators must not be empty")
    gens = [_parse_matrix(g, f"algebra.generators[{k}]") for k, g in enumerate(raw_gens)]
    blocks = _list_of(section, "blocks", (int,), "integers")
    if sum(n * n for n in blocks) > max_dim:
        raise TooLarge(f"algebra dimension sum n_i^2 exceeds the cap {max_dim}")
    weights = _list_of(section, "weights", (int, float), "numbers")
    # compared before float(), which overflows on a JSON integer past 1e308
    if any(abs(w) > sys.float_info.max for w in weights):
        raise ConfigError("algebra.weights must be finite numbers")
    return build_algebra(
        blocks,
        weights,
        gens,
        labels=_list_of(section, "labels", (str,), "strings"),
        subalgebra_mode=_flag(section, "subalgebra_mode", "algebra"),
    )


def _group_n(section: dict) -> int:
    n = section.get("n")
    if not _is_int(n) or n <= 0:
        raise ConfigError(
            f"group of kind {section['kind']!r} needs n, a positive integer, "
            f"got {n!r}"
        )
    return n


# Size caps of the cutoff sweep: its cost is about len(r_grid) * n_ops * dim^3
# (0.4 s for 8 radii, 2 operators at dim 256; 6.7 s for 64 radii at the dim
# and n_ops caps), and a clamp radius past 1e6 only stretches the sampled
# conditions.
_CUTOFF_MAX_R = 1e6
_CUTOFF_MAX_RADII = 64
_CUTOFF_MAX_DIM = 256
_CUTOFF_MAX_OPS = 16

# Group orders are computed exactly up to this ceiling, far above any cap.
_ORDER_CEILING = 10**18


def _group_order(section: dict) -> int:
    """Order of the group a section describes, read off without building its
    table (orders above _ORDER_CEILING come back as _ORDER_CEILING + 1).

    Raises ConfigError for a malformed section.
    """
    _check_keys(
        section, {"kind", "n", "factors", "mult", "generating_set"}, {"kind"},
        "group",
    )
    kind = section["kind"]
    if kind == "cyclic":
        order = _group_n(section)
    elif kind == "symmetric":
        order = math.factorial(min(_group_n(section), 20))  # 20! > _ORDER_CEILING
    elif kind == "product":
        factors = section.get("factors")
        if not isinstance(factors, list):
            raise ConfigError("group.factors must be a list of group objects")
        if len(factors) < 2:
            raise ConfigError("product groups need at least two factors")
        order = math.prod(_group_order(f) for f in factors)
    elif kind == "table":
        mult = section.get("mult")
        if not isinstance(mult, list):
            raise ConfigError("group.mult must be a list of rows")
        order = len(mult)
        if not all(isinstance(row, list) and len(row) == order
                   and all(_is_int(x) and 0 <= x < order for x in row)
                   for row in mult):
            raise ConfigError(
                f"group.mult must be {order} rows of {order} element indices "
                f"below {order}"
            )
    else:
        raise ConfigError(f"unknown group kind {kind!r}")
    return min(order, _ORDER_CEILING + 1)


def _build_group_from_config(section: dict,
                             cap: int) -> tuple[FiniteGroupTable, Optional[list]]:
    """Validate a group section, refuse an order above `cap` before its
    multiplication table is built, then build it."""
    order = _group_order(section)
    if order > cap:
        shown = order if order <= _ORDER_CEILING else "above 10^18"
        raise TooLarge(f"group order {shown} exceeds the cap {cap}")
    kind = section["kind"]
    if kind == "cyclic":
        table = cyclic_group(section["n"])
    elif kind == "symmetric":
        table = symmetric_group(section["n"])
    elif kind == "product":
        factors = [_build_group_from_config(f, cap)[0] for f in section["factors"]]
        table = functools.reduce(direct_product, factors)
    else:
        table = from_mult_table(section["mult"])
    gen_set = section.get("generating_set")
    if gen_set is not None and not (isinstance(gen_set, list) and all(
        _is_int(g) and 0 <= g < table.order for g in gen_set
    )):
        raise ConfigError(
            f"group.generating_set must be a list of element indices below "
            f"{table.order}"
        )
    return table, gen_set


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

def _delta_results(rep) -> dict:
    blocks = []
    b = len(rep.block_sizes)
    for i in range(b):
        for j in range(b):
            blocks.append({
                "i": i,
                "j": j,
                "size_i": rep.block_sizes[i],
                "size_j": rep.block_sizes[j],
                "multiplicity": int(rep.multiplicities[i, j]),
            })
    return {
        "Delta": rep.Delta,
        "Delta_fraction": rep.fractions["Delta"],
        "beta0": rep.beta0,
        "beta0_fraction": rep.fractions["beta0"],
        "closed_form_beta0": rep.closed_form_beta0,
        "dim_H0": rep.dim_H0,
        "dim_H1": rep.dim_H1,
        "dim_H2": rep.dim_H2,
        "pinned": {
            "delta_star": rep.delta_star,
            "delta_blackstar": rep.delta_blackstar,
            "status": "pinned, not computed: the dimension chain collapses "
                      "in finite dimensions",
        },
        "blocks": blocks,
        "block_sizes": list(rep.block_sizes),
        "weights": list(rep.weights),
        "agreement": rep.agreement,
        "subspace_distances": rep.distances,
    }


# A runner returns (results, provenance, residuals); run_scenario stamps the
# scenario, seed and config hash onto the report.
Outcome = tuple[dict, dict, dict]


def _run_delta(config: ScenarioConfig) -> Outcome:
    algebra = _build_algebra_from_config(config.algebra, _DELTA_MAX_DIM)
    rep = delta_report(algebra, seed=config.seed)
    provenance = {
        "Delta": "computed (trace-weighted dimension of the weak-limit "
                 "cocycle space)",
        "delta_star": "pinned",
        "delta_blackstar": "pinned",
        "beta0": "defined as 1 - Delta; closed form is a cross-check",
    }
    return _delta_results(rep), provenance, rep.distances


def _dual_matrix(raw, where: str, dim: int) -> np.ndarray:
    """A D x D matrix on the L2 space of the (effective) algebra."""
    mat = _parse_matrix(raw, where)
    if mat.shape != (dim, dim):
        raise ConfigError(f"{where} must be {dim} x {dim} on this algebra")
    return mat


def _run_dual_system(config: ScenarioConfig) -> Outcome:
    gns = gns_structure(_build_algebra_from_config(config.algebra, _DUAL_MAX_DIM))
    dual = config.parameters["dual"]
    if not isinstance(dual, dict) or "type" not in dual:
        raise ConfigError("parameters.dual must be an object with a 'type'")
    kind = dual["type"]

    if kind == "fisher":
        _check_keys(dual, {"type"}, set(), "parameters.dual")
        rep = fisher_report(gns)
        results = {
            "mode": "fisher",
            "value": rep.value,
            "slots": [
                {
                    "slot": s.slot,
                    "well_defined": s.well_defined,
                    "defect": s.defect,
                    "xi_norm_sq": s.xi_norm_sq,
                }
                for s in rep.slots
            ],
        }
        return results, {"value": "sum of squared conjugate-vector norms, "
                                  "+inf when a slot fails to descend"}, {}

    if kind == "inner":
        _check_keys(dual, {"type", "matrix"}, {"matrix"}, "parameters.dual")
        B = _dual_matrix(dual["matrix"], "parameters.dual.matrix", gns.dim)
        spec = inner_spec(gns, B)
    elif kind == "free_difference_quotient":
        _check_keys(dual, {"type", "slot"}, {"slot"}, "parameters.dual")
        slot = dual["slot"]
        if not _is_int(slot):
            raise ConfigError(f"parameters.dual.slot must be an integer, got {slot!r}")
        spec = DerivationSpec.free_difference_quotient(slot)
    elif kind == "explicit":
        _check_keys(dual, {"type", "targets"}, {"targets"}, "parameters.dual")
        if not isinstance(dual["targets"], list):
            raise ConfigError("parameters.dual.targets must be a list of matrices")
        spec = DerivationSpec.from_targets([
            _dual_matrix(t, f"parameters.dual.targets[{k}]", gns.dim)
            for k, t in enumerate(dual["targets"])
        ])
    else:
        raise ConfigError(f"unknown dual type {kind!r}")

    fit = derivation_well_defined(gns, spec)
    results = {"mode": kind, "well_defined": fit.well_defined, "defect": fit.defect}
    residuals = {"well_definedness_defect": fit.defect}
    if fit.well_defined:
        rep = construct_dual_operator(gns, fit, tol=residual_tol())
        residuals.update({
            "Y1": rep.residual_Y1,
            "commutators": rep.residual_commutators,
            "adjoint": rep.residual_adjoint,
        })
        results["xi_norm"] = float(np.linalg.norm(rep.xi))
        if config.verbose:
            results["Y"] = matrix_to_pairs(rep.Y)
            results["xi"] = [[float(x.real), float(x.imag)] for x in rep.xi]
    return results, {"construction": "operator assembled on the cyclic basis "
                                     "from the induced derivative map"}, residuals


def _run_cutoff(config: ScenarioConfig) -> Outcome:
    params = config.parameters
    raw_grid = _list_of(params, "r_grid", (int, float), "numbers", "parameters")
    # compared before float(), which overflows on a JSON integer past 1e308
    if not raw_grid or not all(r > 0 and (_is_int(r) or math.isfinite(r))
                               for r in raw_grid):
        raise ConfigError(
            "parameters.r_grid must be a nonempty list of finite positive reals"
        )
    if max(raw_grid) > _CUTOFF_MAX_R:
        raise ConfigError(f"parameters.r_grid values must be at most {_CUTOFF_MAX_R:g}")
    if len(raw_grid) > _CUTOFF_MAX_RADII:
        raise ConfigError(
            f"parameters.r_grid must hold at most {_CUTOFF_MAX_RADII} radii"
        )
    grid = [float(r) for r in raw_grid]
    smooth = _flag(params, "smooth", "parameters")

    if "A" in params:
        A = _parse_matrix(params["A"], "parameters.A")
        raw_xs = _list_of(params, "X", (list,), "matrices", "parameters")
        if not raw_xs:
            raise ConfigError("explicit cutoff runs need parameters.X")
        Xs = [_parse_matrix(x, f"parameters.X[{k}]") for k, x in enumerate(raw_xs)]
        if any(X.shape != A.shape for X in Xs):
            raise ConfigError("parameters.X must hold matrices the size of parameters.A")
        for key in ("dim", "n_ops"):
            if key in params:
                raise ConfigError(f"parameters.{key} sizes a random instance and "
                                  "cannot be given with parameters.A")
    else:
        if "X" in params:
            raise ConfigError("parameters.X needs parameters.A")
        dim = _positive_int(params, "dim", 8, _CUTOFF_MAX_DIM)
        n_ops = _positive_int(params, "n_ops", 2, _CUTOFF_MAX_OPS)
        rng = np.random.default_rng(config.seed)

        def herm(d):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (m + m.conj().T) / 2.0

        A = herm(dim)
        Xs = [herm(dim) for _ in range(n_ops)]

    rows = convergence_sweep(A, Xs, grid, smooth=smooth)
    rho = spectral_radius(A)
    family = CutoffFamily(max(grid), smooth=smooth)
    sample = np.linspace(-max(grid), max(grid), 101)
    inside = sample[np.abs(sample) <= family.R]
    conditions = {
        "fixes_inner_interval": bool(
            np.abs(family.f(inside) - inside).max() == 0.0 if inside.size else True
        ),
        "bounded_by_R_plus_1": bool(
            np.abs(family.f(np.linspace(-10 * family.R, 10 * family.R, 201))).max()
            <= family.R + 1.0 + 1e-12
        ),
        "quotient_bounded_by_2": bool(
            np.abs(
                family.g(*np.meshgrid(np.linspace(-5 * family.R, 5 * family.R, 101),
                                      np.linspace(-5 * family.R, 5 * family.R, 101)))
            ).max() <= 2.0 + 1e-12
        ),
    }
    results = {
        "spectral_radius": rho,
        "smooth": smooth,
        "sweep": [{"R": r, "hs_error": e} for r, e in rows],
        "zero_beyond_radius": bool(
            all(e <= 1e-10 for r, e in rows if r >= rho)
        ),
        "conditions": conditions,
    }
    return results, {"sweep": "computed from the eigendecomposition of A"}, {}


def _run_group_finite(config: ScenarioConfig) -> Outcome:
    table, gen_set = _build_group_from_config(config.group, ORDER_CAP)
    algebra = regular_rep_algebra(table, generating_set=gen_set, seed=config.seed)
    rep = delta_report(algebra, seed=config.seed)
    formula = betti_delta_formula(BettiInput.finite_group(table.order))
    results = _delta_results(rep)
    results.update({
        "group_order": table.order,
        "formula_delta": formula,
        "formula_abs_error": abs(formula - rep.Delta),
        "generators": list(algebra.labels),
    })
    provenance = {
        "Delta": "computed from the regular representation",
        "formula_delta": "1 - 1/|G| from the Betti inputs of a finite group",
    }
    return results, provenance, {"formula_abs_error": abs(formula - rep.Delta)}


def _resolve_images(raw_images, group_section, order: int) -> list[int]:
    """Homomorphism images as element indices or 1-based cycle notation."""
    if not isinstance(raw_images, list):
        raise ConfigError("parameters.images must be a list")
    out = []
    for im in raw_images:
        if isinstance(im, str):
            if group_section.get("kind") != "symmetric":
                raise ConfigError(
                    "cycle-notation images require a symmetric group section"
                )
            degree = int(group_section["n"])
            out.append(
                symmetric_element_index(
                    permutation_from_cycles(im, degree), degree
                )
            )
        elif _is_int(im) and 0 <= im < order:
            out.append(im)
        else:
            raise ConfigError(
                f"parameters.images: {im!r} is not an element index below {order}"
            )
    return out


# beta1 = rank - 1 is reported as a float, exact up to 2^53 (and a rank past
# 1e308 would overflow it)
_FREE_MAX_RANK = 2**53


def _run_group_free(config: ScenarioConfig) -> Outcome:
    rank = config.parameters["rank"]
    if not _is_int(rank):
        raise ConfigError(f"parameters.rank must be an integer, got {rank!r}")
    if rank < 1:
        raise ConfigError("parameters.rank must be at least 1")
    if rank > _FREE_MAX_RANK:
        raise ConfigError("parameters.rank must be at most 2^53")
    delta = betti_delta_formula(BettiInput.free_group(rank))
    results = {"rank": rank, "delta": delta}
    if "images" in config.parameters:
        table, _ = _build_group_from_config(config.group, TABLE_ORDER_CAP)
        images = _resolve_images(config.parameters["images"], config.group,
                                 table.order)
        if len(images) != rank:
            raise ConfigError(f"parameters.images must hold {rank} images, one per "
                              f"free generator, got {len(images)}")
        graph = schreier_graph(rank, images, table)
        results["kernel"] = {
            "index": graph.index,
            "rank": graph.rank,
            "generators": [word_str(w, graph.names)
                           for w in graph.subgroup_generators],
            "kernel_verified": graph.kernel_verified,
            "kernel_delta": betti_delta_formula(BettiInput.free_group(graph.rank)),
        }
    return results, {"delta": "Betti formula for a free group (pinned)"}, {}


def _run_counterexample(config: ScenarioConfig) -> Outcome:
    k_values = config.parameters.get("k_values", list(COUNTEREXAMPLE_K_VALUES))
    if not (isinstance(k_values, list)
            and all(_is_int(k) and k > 0 for k in k_values)):
        raise ConfigError("parameters.k_values must be a list of positive integers")
    report = counterexample_report(k_values)
    return report, report["provenance"], {}


# ---------------------------------------------------------------------------
# text summaries: the lines after the scenario and seed, from (results,
# residuals)
# ---------------------------------------------------------------------------

def _delta_text(r: dict, residuals: dict) -> list[str]:
    return [
        f"Delta = {r['Delta']!r} ({_clean(r['Delta_fraction'])})",
        f"beta0 = {r['beta0']!r} ({_clean(r['beta0_fraction'])})",
        f"dim H0 = {r['dim_H0']!r}, dim H1 = {r['dim_H1']!r}, "
        f"dim H2 = {r['dim_H2']!r}",
        f"pinned: delta_star = delta_blackstar = {r['pinned']['delta_star']!r}",
    ]


def _group_finite_text(r: dict, residuals: dict) -> list[str]:
    return _delta_text(r, residuals) + [
        f"group order {r['group_order']}: formula value "
        f"{r['formula_delta']!r}, abs error {r['formula_abs_error']!r}"
    ]


def _dual_system_text(r: dict, residuals: dict) -> list[str]:
    lines = [f"mode: {r['mode']}"]
    if r["mode"] == "fisher":
        lines.append(f"fisher value = {_clean(r['value'])}")
        for slot in r["slots"]:
            lines.append(
                f"  slot {slot['slot']}: well_defined={slot['well_defined']} "
                f"defect={slot['defect']!r}"
            )
    else:
        lines.append(f"well_defined = {r['well_defined']}")
        lines.append(f"defect = {r['defect']!r}")
        for key, val in residuals.items():
            lines.append(f"residual {key} = {val!r}")
    return lines


def _cutoff_text(r: dict, residuals: dict) -> list[str]:
    lines = [f"spectral radius = {r['spectral_radius']!r}"]
    for row in r["sweep"]:
        lines.append(f"R = {row['R']!r}: hs_error = {row['hs_error']!r}")
    lines.append(f"zero beyond radius: {r['zero_beyond_radius']}")
    return lines


def _group_free_text(r: dict, residuals: dict) -> list[str]:
    lines = [f"delta(free group, rank {r['rank']}) = {r['delta']!r}"]
    if "kernel" in r:
        k = r["kernel"]
        lines.append(
            f"kernel: index {k['index']}, rank {k['rank']}, "
            f"generators {', '.join(k['generators'])}"
        )
        lines.append(f"kernel membership verified: {k['kernel_verified']}")
    return lines


def _counterexample_text(r: dict, residuals: dict) -> list[str]:
    lines = []
    for row in r["per_k"]:
        lines.append(
            f"k = {row['k']}: delta = {row['delta']!r}, shrinking-coordinate "
            f"norm bound {row['shrink_norm_bound']!r}"
        )
    lim = r["limit"]
    lines.append(
        f"limit: kernel index {lim['kernel_index']}, rank "
        f"{lim['kernel_rank']}, delta = {lim['delta']!r}"
    )
    lines.append("liminf delta = 2 < 3 = delta(limit)")
    return lines


# ---------------------------------------------------------------------------
# the scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """What one scenario accepts, how it runs and what its text report says."""

    needs: tuple                 # sections it requires
    takes: dict                  # optional section -> the parameter it comes with
    keys: set                    # parameter keys it accepts
    required: set                # of which these are required
    run: Callable[[ScenarioConfig], Outcome]
    text: Callable[[dict, dict], list[str]]


# The one place that knows each scenario; the CLI offers them in this order.
SCENARIOS = {
    "delta": Scenario(("algebra",), {}, {"seed"}, set(), _run_delta, _delta_text),
    "dual_system": Scenario(("algebra",), {}, {"seed", "dual"}, {"dual"},
                            _run_dual_system, _dual_system_text),
    "cutoff": Scenario((), {}, {"seed", "r_grid", "dim", "n_ops", "A", "X", "smooth"},
                       {"r_grid"}, _run_cutoff, _cutoff_text),
    "group_finite": Scenario(("group",), {}, {"seed"}, set(), _run_group_finite,
                             _group_finite_text),
    "group_free": Scenario((), {"group": "images"}, {"rank", "images"}, {"rank"},
                           _run_group_free, _group_free_text),
    "counterexample": Scenario((), {}, {"k_values"}, set(), _run_counterexample,
                               _counterexample_text),
}


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Dispatch to the owning module and aggregate the results."""
    try:
        results, provenance, residuals = SCENARIOS[config.scenario].run(config)
    except ConfigError:
        raise
    except FreedimError as exc:
        raise ComputationError(f"{type(exc).__name__}: {exc}") from exc
    return RunReport(config.scenario, config.seed, config.config_hash, results,
                     provenance, residuals)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_report(report: RunReport, fmt: str) -> bytes:
    """Serialize a report as json, csv (sweeps only) or a text summary."""
    if fmt == "json":
        payload = _clean(report.payload())
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        if "sweep" not in report.results:
            raise UnsupportedFormat(
                f"csv output is only available for sweep scenarios, "
                f"not {report.scenario!r}"
            )
        lines = ["R,hs_error"]
        lines += [f"{row['R']!r},{row['hs_error']!r}"
                  for row in report.results["sweep"]]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "text":
        lines = [f"scenario: {report.scenario}", f"seed: {report.seed}"]
        lines += SCENARIOS[report.scenario].text(report.results, report.residuals)
        return ("\n".join(lines) + "\n").encode()
    raise UnsupportedFormat(f"unknown format {fmt!r}")


def _write_atomic(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".freedim-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="freedim",
        description="dimension workbench for finite tracial matrix algebras",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--format", default="json", choices=("json", "csv", "text"))
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--verbose", action="store_true",
                        help="include matrices in dual-system reports")
    parser.add_argument("--output", default=None,
                        help="write the report to this file (atomically)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        config = load_config(args.config, args.scenario, args.seed, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_scenario(config)
        payload = emit_report(report, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    except FreedimError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.output:
        _write_atomic(args.output, payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    elapsed = time.perf_counter() - start
    print(f"freedim {args.scenario}: completed in {elapsed:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
