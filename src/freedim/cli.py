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
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import __version__
from .algebra import _validated, build_algebra, gns_structure
from .cocycles import delta_report
from .cutoff import convergence_sweep, spectral_radius
from .derivations import (
    construct_dual_operator,
    derivation_well_defined,
    fdq_targets,
    fisher_report,
    inner_spec,
)
from .errors import (
    ConfigError,
    FreedimError,
    ShapeMismatch,
    TooLarge,
    UnsupportedFormat,
    WeightError,
)
from .groups import (
    COUNTEREXAMPLE_K_VALUES,
    ORDER_CAP,
    TABLE_ORDER_CAP,
    BettiInput,
    FiniteGroupTable,
    _group_axioms,
    _known_group,
    betti_delta_formula,
    counterexample_report,
    cyclic_group,
    direct_product,
    permutation_from_cycles,
    regular_rep_algebra,
    schreier_graph,
    symmetric_element_index,
    symmetric_group,
    word_str,
)
from .tolerances import OPERATOR_TOL
from .wedderburn import blockify_subalgebra

_TOP_KEYS = {"scenario", "algebra", "group", "parameters"}
_SECTIONS = {"algebra": "an algebra section", "group": "a group section"}


@dataclass
class ScenarioConfig:
    scenario: str
    values: dict                 # what its scenario's check returns
    seed: int
    verbose: bool
    config_hash: str


# ---------------------------------------------------------------------------
# value serialization
# ---------------------------------------------------------------------------

def _clean(value):
    """JSON-safe copy: fractions as 'p/q', non-finite floats as strings."""
    # the common leaves first, and Fraction's slow isinstance check last
    if type(value) in (str, int, bool, type(None)):
        return value
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if not np.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, np.ndarray):
        return _clean(value.tolist())
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


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
# config validation: load_config runs every check of a scenario before any
# numerical work
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
    """Read a config and run every check of its scenario on it, so that the
    runners receive checked values only."""
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
    values = entry.check(raw, params)

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ScenarioConfig(
        scenario=scenario,
        values=values,
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
# grow about as D^6 (12 s and 699 MB at D = 41 for 2 generators, more for each
# further one); dual_system on one 10 x 10 block (D = 100) takes 1.0 s and 150 MB
# (inner) to 1.8 s and 157 MB (fisher), as peak RSS (2 vCPU, 2 OpenBLAS threads).
_DELTA_MAX_DIM = 41
_DUAL_MAX_DIM = 100


_ALGEBRA_KEYS = {"blocks", "weights", "generators", "labels", "subalgebra_mode"}


def _check_algebra(raw: dict, params: dict, max_dim: int) -> dict:
    """The algebra section's values by key; D above `max_dim` is TooLarge."""
    section = raw["algebra"]
    _check_keys(section, _ALGEBRA_KEYS, {"blocks", "weights", "generators"}, "algebra")
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
    values = {"blocks": blocks, "weights": weights, "generators": gens,
              "labels": _list_of(section, "labels", (str,), "strings"),
              "subalgebra_mode": _flag(section, "subalgebra_mode", "algebra")}
    try:  # the declared structure, as build_algebra and blockify_subalgebra check it
        _validated(blocks, weights, gens, values["labels"])
    except (ShapeMismatch, WeightError) as exc:
        raise ConfigError(str(exc)) from None
    return values


# The keys each dual type reads besides "type".
_DUAL_KEYS = {"fisher": set(), "inner": {"matrix"}, "free_difference_quotient": {"slot"},
              "explicit": {"targets"}}


def _check_dual_system(raw: dict, params: dict) -> dict:
    """The algebra and the dual, whose matrices are D x D for D = sum n_i^2;
    in subalgebra mode D is the generated algebra's, so the runner checks
    their shapes once blockify_subalgebra has built it."""
    values = _check_algebra(raw, params, _DUAL_MAX_DIM)
    dual = params["dual"]
    if not isinstance(dual, dict) or "type" not in dual:
        raise ConfigError("parameters.dual must be an object with a 'type'")
    kind = values["dual"] = dual["type"]
    if not (isinstance(kind, str) and kind in _DUAL_KEYS):
        raise ConfigError(f"unknown dual type {kind!r}")
    _check_keys(dual, {"type", *_DUAL_KEYS[kind]}, _DUAL_KEYS[kind], "parameters.dual")
    n = len(values["generators"])
    if kind == "inner":  # matrices: (where, matrix), checked D x D by _dual_shapes
        values["matrices"] = [("parameters.dual.matrix",
                               _parse_matrix(dual["matrix"], "parameters.dual.matrix"))]
    elif kind == "free_difference_quotient":
        slot = values["slot"] = dual["slot"]
        if not _is_int(slot):
            raise ConfigError(f"parameters.dual.slot must be an integer, got {slot!r}")
        if not 0 <= slot < n:
            raise ConfigError(f"parameters.dual.slot must be a generator index below {n}, "
                              f"got {slot}")
    elif kind == "explicit":
        if not isinstance(dual["targets"], list):
            raise ConfigError("parameters.dual.targets must be a list of matrices")
        if len(dual["targets"]) != n:
            raise ConfigError(f"parameters.dual.targets must hold {n} matrices, one per "
                              f"generator, got {len(dual['targets'])}")
        values["matrices"] = [(f"parameters.dual.targets[{k}]",
                               _parse_matrix(t, f"parameters.dual.targets[{k}]"))
                              for k, t in enumerate(dual["targets"])]
    if not values["subalgebra_mode"]:
        _dual_shapes(values, sum(b * b for b in values["blocks"]))
    return values


def _dual_shapes(values: dict, dim: int) -> None:
    """The dual's matrices are D x D on an algebra of dimension `dim`."""
    for where, mat in values.get("matrices", ()):
        if mat.shape != (dim, dim):
            raise ConfigError(f"{where} must be {dim} x {dim} on this algebra")


# Size caps of the cutoff sweep: its cost is about len(r_grid) * n_ops * dim^3
# (0.4 s for 8 radii, 2 operators at dim 256; 6.7 s for 64 radii at the dim
# and n_ops caps).
_CUTOFF_MAX_RADII = 64
_CUTOFF_MAX_DIM = 256
_CUTOFF_MAX_OPS = 16


def _check_cutoff(raw: dict, params: dict) -> dict:
    """The radii, and either an explicit A with matrices X of its size or
    the sizes of a seeded random instance."""
    grid = _list_of(params, "r_grid", (int, float), "numbers", "parameters")
    # exact for ints (float() overflows on a JSON integer past 1e308), false for NaN
    if not grid or not all(0 < r <= sys.float_info.max for r in grid):
        raise ConfigError(
            "parameters.r_grid must be a nonempty list of finite positive reals"
        )
    if len(grid) > _CUTOFF_MAX_RADII:
        raise ConfigError(f"parameters.r_grid must hold at most {_CUTOFF_MAX_RADII} radii")
    values = {"r_grid": [float(r) for r in grid],
              "smooth": _flag(params, "smooth", "parameters")}
    if "A" not in params:
        if "X" in params:
            raise ConfigError("parameters.X needs parameters.A")
        values["dim"] = _positive_int(params, "dim", 8, _CUTOFF_MAX_DIM)
        values["n_ops"] = _positive_int(params, "n_ops", 2, _CUTOFF_MAX_OPS)
        return values
    A = values["A"] = _parse_matrix(params["A"], "parameters.A")
    raw_xs = _list_of(params, "X", (list,), "matrices", "parameters")
    if not raw_xs:
        raise ConfigError("explicit cutoff runs need parameters.X")
    Xs = values["X"] = [_parse_matrix(x, f"parameters.X[{k}]") for k, x in enumerate(raw_xs)]
    if any(X.shape != A.shape for X in Xs):
        raise ConfigError("parameters.X must hold matrices the size of parameters.A")
    for key in ("dim", "n_ops"):
        if key in params:
            raise ConfigError(f"parameters.{key} sizes a random instance and "
                              "cannot be given with parameters.A")
    return values


# Group orders are computed exactly up to this ceiling, far above any cap.
_ORDER_CEILING = 10**18


# The keys each group kind reads besides "kind"; a product factor takes no
# generating_set.
_GROUP_KEYS = {"cyclic": {"n"}, "symmetric": {"n"}, "product": {"factors"},
               "table": {"mult"}}


def _group_order(section: dict, where: str = "group") -> int:
    """Order of the group a section describes, read off without building its
    table (orders above _ORDER_CEILING come back as _ORDER_CEILING + 1).

    Raises ConfigError for a malformed section, or for a key its kind does
    not read.  `where` names the section in messages; any section but the
    top-level "group" is a product factor.
    """
    _check_keys(
        section, {"kind", "n", "factors", "mult", "generating_set"}, {"kind"},
        where,
    )
    kind = section["kind"]
    if not (isinstance(kind, str) and kind in _GROUP_KEYS):
        raise ConfigError(f"unknown group kind {kind!r}")
    factor = where != "group"
    unread = sorted(set(section) - _GROUP_KEYS[kind]
                    - ({"kind"} if factor else {"kind", "generating_set"}))
    if unread:
        raise ConfigError(f"{where}: keys {unread} are not read for a {kind} group"
                          + (" inside a product" if factor else ""))
    if kind in ("cyclic", "symmetric"):
        n = section.get("n")
        if not _is_int(n) or n <= 0:
            raise ConfigError(f"group of kind {kind!r} needs n, a positive integer, "
                              f"got {n!r}")
        order = n if kind == "cyclic" else math.factorial(min(n, 20))  # 20! > ceiling
    elif kind == "product":
        factors = section.get("factors")
        if not isinstance(factors, list):
            raise ConfigError("group.factors must be a list of group objects")
        if len(factors) < 2:
            raise ConfigError("product groups need at least two factors")
        order = math.prod(_group_order(f, f"{where}.factors[{i}]")
                          for i, f in enumerate(factors))
    else:
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
    return min(order, _ORDER_CEILING + 1)


def _check_group(section: dict, cap: int) -> dict:
    """A group section of order at most `cap` (TooLarge, before any table is
    built) whose tables are groups, and its generating_set against that order;
    a product keeps its factors' values, a table its mult, identity and inverse."""
    order = _group_order(section)
    if order > cap:
        shown = order if order <= _ORDER_CEILING else "above 10^18"
        raise TooLarge(f"group order {shown} exceeds the cap {cap}")
    values = {"group": section, "order": order}
    if section["kind"] == "product":  # each factor passed _group_order
        values["factors"] = [_check_group(factor, cap) for factor in section["factors"]]
    if section["kind"] == "table":  # order^3 work, so after the cap
        try:
            values["axioms"] = _group_axioms(section["mult"])
        except FreedimError as exc:
            raise ConfigError(str(exc)) from None
    gen_set = section.get("generating_set")
    if "generating_set" in section and not (isinstance(gen_set, list) and all(
            _is_int(g) and 0 <= g < order for g in gen_set)):
        raise ConfigError(f"group.generating_set must be a list of element indices below {order}")
    return dict(values, generating_set=gen_set)


# beta1 = rank - 1 is reported as a float, exact up to 2^53 (and a rank past
# 1e308 would overflow it)
_FREE_MAX_RANK = 2**53


def _check_group_free(raw: dict, params: dict) -> dict:
    """The rank, and with images a group section and one image per free
    generator: an element index or 1-based cycle notation."""
    rank = params["rank"]
    if not _is_int(rank):
        raise ConfigError(f"parameters.rank must be an integer, got {rank!r}")
    if rank < 1:
        raise ConfigError("parameters.rank must be at least 1")
    if rank > _FREE_MAX_RANK:
        raise ConfigError("parameters.rank must be at most 2^53")
    if "images" not in params:
        return {"rank": rank}
    section = raw["group"]
    values = dict(_check_group(section, TABLE_ORDER_CAP), rank=rank, images=[])
    if "generating_set" in section:
        raise ConfigError("group: keys ['generating_set'] are not read by scenario 'group_free'")
    if not isinstance(params["images"], list):
        raise ConfigError("parameters.images must be a list")
    for k, im in enumerate(params["images"]):
        if isinstance(im, str) and section["kind"] != "symmetric":
            raise ConfigError("cycle-notation images require a symmetric group section")
        if isinstance(im, str):
            try:
                im = symmetric_element_index(permutation_from_cycles(im, section["n"]),
                                             section["n"])
            except FreedimError as exc:
                raise ConfigError(f"parameters.images[{k}]: {exc}") from None
        elif not (_is_int(im) and 0 <= im < values["order"]):
            raise ConfigError(f"parameters.images: {im!r} is not an element index below "
                              f"{values['order']}")
        values["images"].append(im)
    if len(values["images"]) != rank:
        raise ConfigError(f"parameters.images must hold {rank} images, one per free generator, "
                          f"got {len(values['images'])}")
    return values


def _check_counterexample(raw: dict, params: dict) -> dict:
    k_values = params.get("k_values", list(COUNTEREXAMPLE_K_VALUES))
    if not (isinstance(k_values, list) and all(_is_int(k) and k > 0 for k in k_values)):
        raise ConfigError("parameters.k_values must be a list of positive integers")
    return {"k_values": k_values}


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

def _delta_results(rep, block_sizes: tuple[int, ...]) -> dict:
    """The report of a DeltaReport: each float is float() of its fraction,
    beta0 is 1 - Delta, and dim H0..H2, delta* and delta# are Delta (H2 is H0)."""
    blocks = []
    b = len(block_sizes)
    for i in range(b):
        for j in range(b):
            blocks.append({
                "i": i,
                "j": j,
                "size_i": block_sizes[i],
                "size_j": block_sizes[j],
                "multiplicity": int(rep.multiplicities[i, j]),
            })
    delta = float(rep.Delta)
    return {
        "Delta": delta,
        "Delta_fraction": rep.Delta,
        "beta0": float(1 - rep.Delta),
        "beta0_fraction": 1 - rep.Delta,
        "closed_form_beta0": float(rep.closed_form_beta0),
        "dim_H0": delta,
        "dim_H1": delta,
        "dim_H2": delta,
        "pinned": {
            "delta_star": delta,
            "delta_blackstar": delta,
            "status": "pinned, not computed: the dimension chain collapses "
                      "in finite dimensions",
        },
        "blocks": blocks,
        "block_sizes": list(block_sizes),
        "weights": list(rep.weights),
        "agreement": dict(rep.agreement, weak_equals_norm=True),
        "subspace_distances": dict(rep.distances, H1_H2=rep.distances["H0_H1"]),
    }


# A runner returns (results, provenance, residuals); run_scenario stamps the
# scenario, seed and config hash onto the report.
Outcome = tuple[dict, dict, dict]


def _algebra(values: dict):
    """The config's algebra, or in subalgebra mode the one its tuple generates."""
    build = blockify_subalgebra if values["subalgebra_mode"] else build_algebra
    return build(values["blocks"], values["weights"], values["generators"],
                 labels=values["labels"])


def _group_table(values: dict) -> FiniteGroupTable:
    """The multiplication table of a group section, from _check_group's values."""
    kind = values["group"]["kind"]
    if kind == "product":
        return functools.reduce(direct_product, map(_group_table, values["factors"]))
    if kind == "table":
        return _known_group(*values["axioms"])
    return (cyclic_group if kind == "cyclic" else symmetric_group)(values["group"]["n"])


def _run_delta(config: ScenarioConfig) -> Outcome:
    algebra = _algebra(config.values)
    rep = delta_report(algebra, seed=config.seed)
    provenance = {
        "Delta": "computed (trace-weighted dimension of the weak-limit "
                 "cocycle space)",
        "delta_star": "pinned",
        "delta_blackstar": "pinned",
        "beta0": "defined as 1 - Delta; closed form is a cross-check",
    }
    results = _delta_results(rep, algebra.block_sizes)
    return results, provenance, results["subspace_distances"]


def _run_dual_system(config: ScenarioConfig) -> Outcome:
    values = config.values
    algebra = _algebra(values)
    if values["subalgebra_mode"]:
        _dual_shapes(values, algebra.dim)
    gns = gns_structure(algebra)
    kind = values["dual"]

    if kind == "fisher":
        rep = fisher_report(gns)
        results = {"mode": "fisher", "value": rep.value,
                   "slots": [asdict(s) for s in rep.slots]}
        return results, {"value": "sum of squared conjugate-vector norms, "
                                  "+inf when a slot fails to descend"}, {}

    if kind == "inner":
        targets = inner_spec(gns, values["matrices"][0][1])
    elif kind == "free_difference_quotient":
        targets = fdq_targets(gns, values["slot"])
    else:
        targets = [mat for _, mat in values["matrices"]]

    fit = derivation_well_defined(gns, targets)
    results = {"mode": kind, "well_defined": fit.well_defined, "defect": fit.defect}
    residuals = {"well_definedness_defect": fit.defect}
    if fit.well_defined:
        rep = construct_dual_operator(gns, fit)
        residuals.update({
            "Y1": rep.residual_Y1,
            "commutators": rep.residual_commutators,
            "adjoint": rep.residual_adjoint,
        })
        results["xi_norm"] = float(np.linalg.norm(rep.xi))
        if config.verbose:
            results["Y"] = rep.Y
            results["xi"] = rep.xi
    return results, {"construction": "operator assembled on the cyclic basis "
                                     "from the induced derivative map"}, residuals


def _run_cutoff(config: ScenarioConfig) -> Outcome:
    values = config.values
    grid, smooth = values["r_grid"], values["smooth"]
    if "A" in values:
        A, Xs = values["A"], values["X"]
    else:
        rng = np.random.default_rng(config.seed)

        def herm(d):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (m + m.conj().T) / 2.0

        A = herm(values["dim"])
        Xs = [herm(values["dim"]) for _ in range(values["n_ops"])]

    rows = convergence_sweep(A, Xs, grid, smooth=smooth)
    rho = spectral_radius(A)
    results = {
        "spectral_radius": rho,
        "smooth": smooth,
        "sweep": [{"R": r, "hs_error": e} for r, e in rows],
        "zero_beyond_radius": bool(
            all(e <= OPERATOR_TOL for r, e in rows if r >= rho)
        ),
        # both profiles meet them at every admitted radius (CutoffFamily)
        "conditions": {"fixes_inner_interval": True, "bounded_by_R_plus_1": True,
                       "quotient_bounded_by_2": True},
    }
    return results, {"sweep": "computed from the eigendecomposition of A"}, {}


def _run_group_finite(config: ScenarioConfig) -> Outcome:
    values = config.values
    algebra = regular_rep_algebra(_group_table(values),
                                  generating_set=values["generating_set"],
                                  seed=config.seed)
    rep = delta_report(algebra, seed=config.seed)
    order = values["order"]
    formula = betti_delta_formula(BettiInput.finite_group(order))
    results = _delta_results(rep, algebra.block_sizes)
    results.update({
        "group_order": order,
        "formula_delta": formula,
        "formula_abs_error": abs(formula - results["Delta"]),
        "generators": list(algebra.labels),
    })
    provenance = {
        "Delta": "computed from the regular representation",
        "formula_delta": "1 - 1/|G| from the Betti inputs of a finite group",
    }
    return results, provenance, {"formula_abs_error": results["formula_abs_error"]}


def _run_group_free(config: ScenarioConfig) -> Outcome:
    values = config.values
    rank = values["rank"]
    delta = betti_delta_formula(BettiInput.free_group(rank))
    results = {"rank": rank, "delta": delta}
    if "images" in values:
        graph = schreier_graph(rank, values["images"], _group_table(values))
        results["kernel"] = {
            "index": graph.index,
            "rank": graph.rank,
            "generators": [word_str(w, graph.names)
                           for w in graph.subgroup_generators],
            "kernel_verified": True,  # by construction (schreier_graph)
            "kernel_delta": betti_delta_formula(BettiInput.free_group(graph.rank)),
        }
    return results, {"delta": "Betti formula for a free group (pinned)"}, {}


def _run_counterexample(config: ScenarioConfig) -> Outcome:
    report = counterexample_report(config.values["k_values"])
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
    """What one scenario accepts, how it checks and runs, and what its text
    report says."""

    needs: tuple                 # sections it requires
    takes: dict                  # optional section -> the parameter it comes with
    keys: set                    # parameter keys it accepts
    required: set                # parameter keys it requires
    check: Callable[[dict, dict], dict]  # (config, parameters) -> checked values
    run: Callable[[ScenarioConfig], Outcome]
    text: Callable[[dict, dict], list[str]]
    sweeps: bool = False         # whether its report has a csv form


# The one place that knows each scenario; the CLI offers them in this order.
SCENARIOS = {
    "delta": Scenario(("algebra",), {}, {"seed"}, set(),
                      functools.partial(_check_algebra, max_dim=_DELTA_MAX_DIM),
                      _run_delta, _delta_text),
    "dual_system": Scenario(("algebra",), {}, {"seed", "dual"}, {"dual"},
                            _check_dual_system, _run_dual_system, _dual_system_text),
    "cutoff": Scenario((), {}, {"seed", "r_grid", "dim", "n_ops", "A", "X", "smooth"},
                       {"r_grid"}, _check_cutoff, _run_cutoff, _cutoff_text, sweeps=True),
    "group_finite": Scenario(("group",), {}, {"seed"}, set(),
                             lambda raw, params: _check_group(raw["group"], ORDER_CAP),
                             _run_group_finite, _group_finite_text),
    "group_free": Scenario((), {"group": "images"}, {"rank", "images"}, {"rank"},
                           _check_group_free, _run_group_free, _group_free_text),
    "counterexample": Scenario((), {}, {"k_values"}, set(), _check_counterexample,
                               _run_counterexample, _counterexample_text),
}


def run_scenario(config: ScenarioConfig) -> dict:
    """Dispatch to the owning module and return the schema-1 report."""
    results, provenance, residuals = SCENARIOS[config.scenario].run(config)
    return {"schema": 1, "tool": "freedim", "tool_version": __version__,
            "scenario": config.scenario, "seed": config.seed,
            "config_hash": config.config_hash, "results": results,
            "provenance": provenance, "residuals": residuals}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _check_format(scenario: str, fmt: str) -> None:
    """Refuse csv for a scenario without a sweep before it runs."""
    if fmt == "csv" and not SCENARIOS[scenario].sweeps:
        raise UnsupportedFormat(f"csv output is only available for sweep scenarios, "
                                f"not {scenario!r}")


def emit_report(report: dict, fmt: str) -> bytes:
    """Serialize a report as json, csv (sweeps only) or a text summary."""
    scenario = report["scenario"]
    _check_format(scenario, fmt)
    if fmt == "json":
        return (json.dumps(_clean(report), sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        lines = ["R,hs_error"]
        lines += [f"{row['R']!r},{row['hs_error']!r}"
                  for row in report["results"]["sweep"]]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "text":
        lines = [f"scenario: {scenario}", f"seed: {report['seed']}"]
        lines += SCENARIOS[scenario].text(report["results"], report["residuals"])
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


# Built once per process; parse_args keeps no state between calls.
_PARSER = argparse.ArgumentParser(
    prog="freedim",
    description="dimension workbench for finite tracial matrix algebras",
)
_PARSER.add_argument("scenario", choices=SCENARIOS)
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--format", default="json", choices=("json", "csv", "text"))
_PARSER.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
_PARSER.add_argument("--verbose", action="store_true",
                     help="include matrices in dual-system reports")
_PARSER.add_argument("--output", default=None,
                     help="write the report to this file (atomically)")


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)

    start = time.perf_counter()
    try:
        config = load_config(args.config, args.scenario, args.seed, args.verbose)
        _check_format(args.scenario, args.format)
        report = run_scenario(config)
        payload = emit_report(report, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FreedimError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.output:
        try:
            _write_atomic(args.output, payload)
        except OSError as exc:
            print(f"config error: cannot write report to {args.output}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    elapsed = time.perf_counter() - start
    print(f"freedim {args.scenario}: completed in {elapsed:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
