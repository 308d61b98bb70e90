"""The paper's invariances of Delta, through the CLI.

Delta is a function of the tracial algebra (M, tau) alone, so every
certified field of a report (the exact fractions, the block sizes and
multiplicities, `closed_form_matches` and the exit code) must not move when
the input changes without changing (M, tau): the seed (also at random trace
weights), the order of the generators, a redundant self-adjoint word added
to them, the order of the blocks, a unitary inside the blocks, the
generators' scale, and, for a finite group, its presentation by name or by a
relabelled table and its generating set.  Measured floats (residuals,
distances, Delta as a float) are not compared.  Each example runs `cli.main`
on a rewritten config.  Whether a derivation descends is a property of
(M, tau) too, so `derivation_well_defined`'s verdict must not move with the
generators' scale.
"""

import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from conftest import section_algebra
from freedim.algebra import gns_structure
from freedim.cli import main
from freedim.derivations import (construct_dual_operator, derivation_well_defined,
                                 fdq_targets, inner_spec)
from freedim.errors import ResidualTooLarge
from freedim.tolerances import RESIDUAL_TOL
from freedim.groups import closure, symmetric_group
from test_cli_fuzz import SHIPPED

DELTA_CONFIGS = ["delta_direct_sum", "delta_full_2x2", "delta_two_point"]
invariance = settings(derandomize=True, max_examples=15, deadline=None, database=None)


def _report(cfg, seed=0):
    """(exit code, results or None) of `cfg`'s scenario at `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "config.json"), Path(tmp, "report.json")
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([cfg["scenario"], "--config", str(path), "--seed", str(seed),
                         "--output", str(out)])
        return code, json.loads(out.read_text())["results"] if code == 0 else None


def _certified(cfg, seed=0):
    """(exit code, certified fields) of `cfg`'s scenario at `seed`."""
    code, results = _report(cfg, seed)
    if code != 0:
        return code, None
    return code, {
        "Delta_fraction": results["Delta_fraction"],
        "beta0_fraction": results["beta0_fraction"],
        "block_sizes": results["block_sizes"],
        "multiplicities": np.array([b["multiplicity"] for b in results["blocks"]]
                                   ).reshape(len(results["block_sizes"]), -1),
        "closed_form_matches": results["agreement"]["closed_form_matches"],
    }


@lru_cache(maxsize=None)
def _shipped(name):
    """The certified fields of a shipped config at seed 0."""
    return _certified(SHIPPED[name])


def _assert_same(got, want):
    (code, fields), (want_code, want_fields) = got, want
    assert code == want_code == 0
    for key, value in want_fields.items():
        assert np.array_equal(fields[key], value), key


def _generators(cfg):
    return [np.array([[complex(*x) for x in row] for row in g])
            for g in cfg["algebra"]["generators"]]


def _pairs(mat):
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def _with_generators(cfg, mats):
    """`cfg` with generators `mats` and no labels."""
    cfg = json.loads(json.dumps(cfg))
    cfg["algebra"].pop("labels", None)
    cfg["algebra"]["generators"] = [_pairs(g) for g in mats]
    return cfg


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _block_unitary(shape, seed):
    """A random unitary inside the blocks of `shape`."""
    rng = np.random.default_rng(seed)
    U = np.zeros((sum(shape),) * 2, dtype=complex)
    start = 0
    for n in shape:
        U[start:start + n, start:start + n] = _unitary(rng, n)
        start += n
    return U


def _block_algebra(shape, weights, seed):
    """A delta config of two Hermitian generators with random blocks, which
    generate the full direct sum with probability one."""
    rng = np.random.default_rng(seed)
    N = sum(shape)
    mats = []
    for _ in range(2):
        g = np.zeros((N, N), dtype=complex)
        start = 0
        for n in shape:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g[start:start + n, start:start + n] = (m + m.conj().T) / 2
            start += n
        mats.append(g)
    cfg = {"scenario": "delta", "algebra": {"blocks": list(shape),
                                            "weights": list(weights)}}
    return _with_generators(cfg, mats)


@lru_cache(maxsize=None)
def _block_fields(shape, weights, seed):
    return _certified(_block_algebra(shape, weights, seed))


@invariance
@given(name=st.sampled_from(DELTA_CONFIGS + ["group_finite_s3"]),
       seed=st.integers(1, 2**31 - 1))
def test_seed(name, seed):
    _assert_same(_certified(SHIPPED[name], seed), _shipped(name))


@invariance
@given(seed=st.integers(1, 2**31 - 1),
       weights=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3))
def test_seed_at_random_weights(seed, weights):
    cfg = _block_algebra((1, 1, 2), tuple(w / sum(weights) for w in weights), 0)
    _assert_same(_certified(cfg, seed), _certified(cfg))


@invariance
@given(name=st.sampled_from(DELTA_CONFIGS), data=st.data())
def test_generator_order(name, data):
    mats = _generators(SHIPPED[name])
    order = data.draw(st.permutations(range(len(mats))), label="order")
    cfg = _with_generators(SHIPPED[name], [mats[k] for k in order])
    _assert_same(_certified(cfg), _shipped(name))


@invariance
@given(name=st.sampled_from(["delta_direct_sum", "delta_full_2x2"]), data=st.data())
def test_redundant_self_adjoint_word(name, data):
    X1, X2 = _generators(SHIPPED[name])
    at = data.draw(st.integers(0, 2), label="position")
    mats = [X1, X2]
    mats.insert(at, X1 @ X2 + X2 @ X1)
    cfg = _with_generators(SHIPPED[name], mats)
    _assert_same(_certified(cfg), _shipped(name))


@invariance
@given(k=st.integers(-40, 40), name=st.sampled_from(DELTA_CONFIGS))
def test_generator_scale_power_of_two(k, name):
    cfg = _with_generators(SHIPPED[name], [g * 2.0**k for g in _generators(SHIPPED[name])])
    _assert_same(_certified(cfg), _shipped(name))


@invariance
@given(k=st.integers(-40, 40))
@example(k=10)
@example(k=-30)
@example(k=-40)
def test_dual_verdict_scale_power_of_two(k):
    # inner derivations descend and free difference quotients never do, at
    # every scale; the dual operator built from the inner derivation's fit is
    # refused or meets its commutator gate relative to ||T||, so a Y whose
    # commutators miss T (as at 2^-32 and below) is never returned
    cfg = SHIPPED["dual_inner"]
    gns = gns_structure(section_algebra(
        _with_generators(cfg, [g * 2.0**k for g in _generators(cfg)])["algebra"]))
    B = np.array([[complex(*x) for x in row] for row in cfg["parameters"]["dual"]["matrix"]])
    fit = derivation_well_defined(gns, inner_spec(gns, B))
    assert fit.well_defined
    try:
        dual = construct_dual_operator(gns, fit)
    except ResidualTooLarge:
        pass
    else:
        assert dual.residual_commutators <= RESIDUAL_TOL * np.linalg.norm(fit.targets)
    for slot in range(len(gns.generator_left_mult)):
        assert not derivation_well_defined(gns, fdq_targets(gns, slot)).well_defined


@invariance
@given(case=st.sampled_from([((1, 2, 2), (0.2, 0.3, 0.5)), ((2, 3), (0.35, 0.65))]),
       seed=st.integers(0, 2), data=st.data())
def test_block_reorder(case, seed, data):
    shape, weights = case
    cfg = _block_algebra(shape, weights, seed)
    perm = data.draw(st.permutations(range(len(shape))), label="block order")
    starts = np.cumsum((0,) + shape)
    rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in perm])
    moved = _with_generators(cfg, [g[np.ix_(rows, rows)] for g in _generators(cfg)])
    moved["algebra"]["blocks"] = [shape[i] for i in perm]
    moved["algebra"]["weights"] = [weights[i] for i in perm]
    code, fields = _block_fields(shape, weights, seed)
    want = dict(fields, block_sizes=[shape[i] for i in perm],
                multiplicities=fields["multiplicities"][np.ix_(perm, perm)])
    _assert_same(_certified(moved), (code, want))


@invariance
@given(case=st.sampled_from([((1, 2, 2), (0.2, 0.3, 0.5)), ((2, 3), (0.35, 0.65))]),
       seed=st.integers(0, 2), unitary_seed=st.integers(0, 2**31 - 1),
       k=st.integers(0, 8))
def test_block_unitary(case, seed, unitary_seed, k):
    # generic generators generate the whole direct sum, so one fraction per
    # shape and weights, whichever instance, unitary and scale 10^k; the
    # conjugation leaves an asymmetry of rounding size relative to the
    # entries (4e-12 at 1e4), which the input check must accept
    shape, weights = case
    cfg = _block_algebra(shape, weights, seed)
    U = _block_unitary(shape, unitary_seed)
    mats = [10.0**k * (U @ g @ U.conj().T) for g in _generators(cfg)]
    _assert_same(_certified(_with_generators(cfg, mats)), _block_fields(shape, weights, 0))


@invariance
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(0, 6))
def test_cutoff_operator_scale(seed, k):
    # A = c Q diag(lam) Q* swept at radii c R: every verdict of the clamp
    # sweep is the same for all c, though A's asymmetry grows with c
    rng = np.random.default_rng(seed)
    c, Q = 10.0**k, _unitary(rng, 6)
    A = c * (Q * np.linspace(-1.0, 0.9, 6)) @ Q.conj().T
    X = rng.standard_normal((6, 6))
    cfg = {"scenario": "cutoff", "parameters": {
        "A": _pairs(A), "X": [_pairs(X + X.T)], "r_grid": [c / 4, c / 2, c]}}
    code, results = _report(cfg)
    assert code == 0
    assert results["zero_beyond_radius"] and all(results["conditions"].values())


def _s3_table_relabelled(perm):
    table = symmetric_group(3)
    relabelled = np.empty_like(table.mult)
    relabelled[np.ix_(perm, perm)] = np.asarray(perm)[table.mult]
    return relabelled.tolist()


@invariance
@given(perm=st.permutations(range(6)))
def test_group_table_relabelled(perm):
    cfg = {"scenario": "group_finite", "group": {"kind": "table",
                                                 "mult": _s3_table_relabelled(perm)}}
    _assert_same(_certified(cfg), _shipped("group_finite_s3"))


@invariance
@given(generating_set=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
def test_group_generating_set(generating_set):
    assume(len(closure(symmetric_group(3), generating_set)) == 6)
    cfg = {"scenario": "group_finite",
           "group": {"kind": "symmetric", "n": 3, "generating_set": generating_set}}
    _assert_same(_certified(cfg), _shipped("group_finite_s3"))
