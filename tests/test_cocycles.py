import dataclasses
import itertools
import json
import math
import sys
import traceback
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conftest
import freedim as fd
import freedim.cocycles as cocycles_module
import freedim.vndim as vndim
import freedim.wedderburn as wedderburn
from conftest import (SX, SY, SZ, _span_with_spectrum, _unit_commutators, basis_left_mults,
                      cocycle_map, commutator_bound, dense_H0, embed_c_m2, generated_dim,
                      hermitian_H1, left_mults, make_c1m2, make_c2, make_m2,
                      random_block_algebra, random_hermitian, section_algebra, svd_block_ranks)
import freedim.algebra as algebra_module
from freedim.algebra import (_pair_ranges, _rowspace_residual, block_offsets,
                             block_pair_operators, unit_scaled)
from freedim.cli import _delta_results, main
from freedim.groups import left_regular_matrices, minimal_generating_set
from freedim.tolerances import INVARIANCE_TOL, RANK_TOL, SUBSPACE_TOL
from freedim.vndim import invariance_residual, to_fraction
from freedim.wedderburn import commutant_basis

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

from test_vndim import joint_commutator_nullity


# ---------------------------------------------------------------------------
# the cocycle map
# ---------------------------------------------------------------------------

def test_cocycle_map_identity_vanishes(m2):
    gns = fd.gns_structure(m2)
    out = cocycle_map(gns, m2.generators, np.eye(gns.dim, dtype=complex))
    assert np.abs(out).max() < 1e-14


def test_cocycle_map_kills_commutant(m2):
    # conjugated left multiplications span the commutant of the action
    gns = fd.gns_structure(m2)
    for Lp in basis_left_mults(gns):
        Y = np.conj(Lp)
        out = cocycle_map(gns, m2.generators, Y)
        assert np.abs(out).max() < 1e-10


def test_cocycle_map_off_diagonal_unit(c2):
    # oracle: [Y, L_X]_{kl} = Y_{kl} (lambda_l - lambda_k) in the eigenbasis
    gns = fd.gns_structure(c2)
    Y = np.zeros((2, 2), dtype=complex)
    Y[0, 1] = 1.0
    out = cocycle_map(gns, c2.generators, Y)
    expected = Y * (1.0 - 0.0)  # lambda_1 - lambda_0 at entry (0, 1)
    np.testing.assert_allclose(out[0], expected, atol=1e-12)
    assert np.linalg.norm(out[0]) > 0.9


# ---------------------------------------------------------------------------
# H0 / H1 / H2
# ---------------------------------------------------------------------------

def test_h0_two_point(c2):
    gns = fd.gns_structure(c2)
    H0 = fd.compute_H0(gns)
    assert H0.complex_dim == 2
    assert fd.vn_dimension_report(H0, gns.algebra).fraction == Fraction(1, 2)


def test_h0_m2_pair(m2):
    gns = fd.gns_structure(m2)
    H0 = fd.compute_H0(gns)
    assert H0.complex_dim == 12
    assert fd.vn_dimension_report(H0, gns.algebra).fraction == Fraction(3, 4)


def test_h0_rank_nullity_exact():
    for alg in (make_c2(), make_m2(), make_c1m2()):
        gns = fd.gns_structure(alg)
        H0 = fd.compute_H0(gns)
        Ls = left_mults(gns, alg.generators)
        D = gns.dim
        assert H0.complex_dim == D * D - joint_commutator_nullity(Ls)


def test_h0_zero_padding_leaves_dimension(m2):
    gns = fd.gns_structure(m2)
    base = fd.vn_dimension_report(fd.compute_H0(gns), m2).fraction
    padded_gens = list(m2.generators) + [np.zeros((2, 2), dtype=complex)]
    padded_gns = fd.gns_structure(fd.build_algebra([2], [1.0], padded_gens))
    padded = fd.vn_dimension_report(fd.compute_H0(padded_gns), m2).fraction
    assert base == padded


def test_h1_equals_h0(c2, m2):
    for alg in (c2, m2):
        gns = fd.gns_structure(alg)
        H0 = fd.compute_H0(gns)
        H1 = fd.compute_H1(gns)
        assert fd.subspace_distance(H0, H1) <= 1e-10


def test_h1_empty_generator_tuple():
    gns = fd.gns_structure(fd.build_algebra([1], [1.0], []))
    H1 = fd.compute_H1(gns)
    assert H1.complex_dim == 0


def test_h_spaces_invariance_certificates(c1m2):
    gns = fd.gns_structure(c1m2)
    for builder in (fd.compute_H0, hermitian_H1):
        K = builder(gns)
        assert K.invariance_residual <= 1e-8


# ---------------------------------------------------------------------------
# the commutator invariance certificate against the dense oracle
# ---------------------------------------------------------------------------

WORKED = sorted(p.stem for p in CONFIG_DIR.glob("delta_*.json")) + ["S3", "C2xS3"]


def _worked_algebra(name):
    """A shipped delta_* config, a group algebra (S3, C2xS3, S4), or a
    generic pair on random blocks named like "random4x5"."""
    if name.startswith("delta_"):
        section = json.loads((CONFIG_DIR / f"{name}.json").read_text())["algebra"]
        return section_algebra(section)
    if name.startswith("random"):
        shape = tuple(int(n) for n in name[len("random"):].split("x"))
        return random_block_algebra(shape, seed=sum(shape))
    if name == "S4":
        return fd.regular_rep_algebra(fd.symmetric_group(4))
    s3 = fd.symmetric_group(3)
    table = s3 if name == "S3" else fd.direct_product(fd.cyclic_group(2), s3)
    return fd.regular_rep_algebra(table)


# every shipped delta and group_finite algebra (group_finite_s3 is S3), S4,
# and random pairs up to D = 25, some with pairs of blocks of one shape
CROSS_CHECKED = WORKED + ["S4", "random3x4", "random5", "random1x2x2x4", "random1x1x2x3x3",
                          "random1x1x1", "random2x2", "random1x2x2"]


# compute_H1 returns H0, by theorem; the Hermitian span, built whole by the
# oracle hermitian_H1, checks the theorem
@pytest.mark.parametrize("name", CROSS_CHECKED)
def test_hermitian_span_is_h0(name):
    alg = _worked_algebra(name)
    gns = fd.gns_structure(alg)
    H0, H1 = fd.compute_H0(gns), hermitian_H1(gns)
    r0, r1 = fd.vn_dimension_report(H0, alg), fd.vn_dimension_report(H1, alg)
    assert r1.fraction == r0.fraction
    np.testing.assert_array_equal(r1.multiplicities, r0.multiplicities)
    assert fd.subspace_distance(H0, H1) <= SUBSPACE_TOL
    library = fd.compute_H1(gns)
    assert _bitwise_equal(library.basis, H0.basis)
    assert library.invariance_residual == H0.invariance_residual


def _union_spectrum(alg):
    """The spectrum of the whole matrix-unit family, sorted descending: each
    value of each phi_ik, repeated n_i n_k times (phi_ik (x) 1)."""
    sizes = alg.block_sizes
    return np.sort(np.concatenate([
        np.repeat(np.linalg.svd(_block_pair_operator_inline(alg, i, k), compute_uv=False),
                  sizes[i] * sizes[k])
        for i, k in itertools.product(range(len(sizes)), repeat=2)]))[::-1]


def _union_rule_counts(alg):
    """Each pair's kept count under the rule `_pair_ranges` used before it
    cut at the largest pair value: the stacked SVDs by shape, their union
    with each value repeated n_i n_k times, sorted, and the cut RANK_TOL
    times its first entry."""
    sizes = alg.block_sizes
    by_shape = {}
    for i, k in itertools.product(range(len(sizes)), repeat=2):
        by_shape.setdefault((sizes[i], sizes[k]), []).append((i, k))
    spans = [(pairs, shape, np.linalg.svd(np.array([_block_pair_operator_inline(alg, i, k)
                                                    for i, k in pairs]), full_matrices=False)[1])
             for shape, pairs in by_shape.items()]
    family = np.sort(np.concatenate([np.repeat(s, n_i * n_k)
                                     for _, (n_i, n_k), s in spans]))[::-1]
    cut = RANK_TOL * family[0] if family.size else 0.0
    return {pair: int(c) for pairs, _, s in spans for pair, c in zip(pairs, (s > cut).sum(axis=1))}


@pytest.mark.parametrize("name", CROSS_CHECKED)
def test_pair_spans_are_the_dense_h0(name):
    alg = _worked_algebra(name)
    gns = fd.gns_structure(alg)
    H0, (dense, s_dense) = fd.compute_H0(gns), dense_H0(gns)
    r0, rd = fd.vn_dimension_report(H0, alg), fd.vn_dimension_report(dense, alg)
    assert r0.fraction == rd.fraction
    np.testing.assert_array_equal(r0.multiplicities, rd.multiplicities)
    assert fd.subspace_distance(H0, dense) <= SUBSPACE_TOL  # the lift spans the dense H0
    assert fd.subspace_distance(H0, H0) <= SUBSPACE_TOL  # the self-gap that left the report
    # the phi_ik spectra, each value repeated n_i n_k times, are the family's
    s = _union_spectrum(alg)
    assert s.shape == s_dense.shape
    assert np.abs(s - s_dense).max() <= 1e-12 * s_dense[0]
    # delta_report, which builds no span, certifies what the dense H0 does
    rep = fd.delta_report(alg)
    assert rep.Delta == rd.fraction
    np.testing.assert_array_equal(rep.multiplicities, rd.multiplicities)


def _scaled_tuple(shape, n, scale):
    """build_algebra on n random Hermitian generators of the given blocks,
    generator j scaled by scale, or by 2^60 and 2^-60 in turn for "mixed"."""
    rng, N = np.random.default_rng(sum(shape) + n), sum(shape)
    gens = []
    for j in range(n):
        g = np.zeros((N, N), dtype=complex)
        for s, t in block_offsets(shape):
            g[s:t, s:t] = random_hermitian(rng, t - s)
        gens.append(g * (2.0 ** (60 * (-1) ** j) if scale == "mixed" else scale))
    return fd.build_algebra(shape, [1 / len(shape)] * len(shape), gens)


WEYL_SCALED = {f"{'x'.join(map(str, shape))}_{n}gens_{label}": (shape, n, scale)
               for shape in [(10,), (6, 8), (1,) * 100] for n in (2, 8)
               for label, scale in (("2^60", 2.0 ** 60), ("2^-60", 2.0 ** -60),
                                    ("mixed", "mixed"))}


@pytest.mark.parametrize("name", CROSS_CHECKED + ["random4x5", "random1x2x6"]
                         + sorted(WEYL_SCALED))
def test_weyl_perturbation_stays_below_the_rank_cut(name):
    # the computed SVD of the unit-scaled phi_ik is exact for phi_ik + E,
    # ||E|| <= n n_i n_k u s_1, and forming phi_ik adds at most sqrt(n_i n_k)
    # u s_1 (build_algebra): every kept value clears that bound by 10^3, the
    # dropped values (the kernel) stay below it, and the counts are Schur's,
    # up to D = 100 (random [10], [6, 8] and 100 blocks of size 1, with 2 and
    # 8 generators at scales 2^60 and 2^-60)
    alg = _scaled_tuple(*WEYL_SCALED[name]) if name in WEYL_SCALED else _worked_algebra(name)
    n, sizes, u = len(alg.generators), alg.block_sizes, np.finfo(float).eps / 2
    assert alg.dim <= 100
    for pairs, stack in block_pair_operators(sizes, unit_scaled(alg.generators)).values():
        for (i, k), s in zip(pairs, np.linalg.svd(stack, compute_uv=False)):
            m = sizes[i] * sizes[k]
            bound = (n * m + np.sqrt(m)) * u * s[0]
            kept = s > RANK_TOL * s[0]
            assert bound < RANK_TOL * s[0] or s[0] == 0.0
            assert np.all(s[kept] >= 1e3 * bound) and np.all(s[~kept] <= bound)
            assert kept.sum() == m - (i == k)


@pytest.mark.parametrize("name", CROSS_CHECKED + ["random4x5", "random1x2x6", "scalar_phi",
                                  "no_generators", "random" + "x".join(["1"] * 41)])
def test_pair_ranges_cut_at_the_largest_pair_value_is_the_union_rule(name):
    # the union rule, which cut every pair at the largest value over the
    # pair spectra, stays the reference: on these algebras the per-pair cut
    # keeps what it kept; phi = 0 for a scalar generator on one 1 x 1 block,
    # and phi has no rows without one
    alg = {"scalar_phi": lambda: fd.build_algebra([1], [1.0], [np.array([[0.7]])]),
           "no_generators": lambda: fd.build_algebra([1], [1.0], [])}.get(
        name, lambda: _worked_algebra(name))()
    counts = {pair: len(w) for pair, w in _pair_ranges(alg.block_sizes, alg.generators).items()}
    assert counts == _union_rule_counts(alg)


def _svds_outside_the_center(monkeypatch, alg):
    """The callers of each np.linalg.svd that delta_report takes outside
    central_decomposition, read from the stack."""
    callers, svd = [], np.linalg.svd

    def spied(a, *args, **kw):
        names = [f.f_code.co_name for f, _ in traceback.walk_stack(sys._getframe(1))]
        if "central_decomposition" not in names:
            callers.append(names[0])
        return svd(a, *args, **kw)
    monkeypatch.setattr(np.linalg, "svd", spied)
    fd.delta_report(alg)
    monkeypatch.undo()
    return callers


def test_s4_h0_takes_no_svd_above_its_largest_block_pair(monkeypatch):
    # the constructors proved S4's multiplicities by the Sylvester ranks, so
    # delta_report takes no SVD, of a block pair or any other, but the center
    # certificate's
    assert _svds_outside_the_center(monkeypatch, _worked_algebra("S4")) == []


@pytest.mark.parametrize("name", WORKED + ["random2x3", "random1x1x3", "random1x2x2"])
def test_commutator_bound_dominates_dense_residual(name):
    alg = _worked_algebra(name)
    gns = fd.gns_structure(alg)
    assert gns.dim <= 13
    for builder in (fd.compute_H0, hermitian_H1):
        K = builder(gns)
        dense = invariance_residual(K.basis, gns)
        assert K.complex_dim > 0
        assert K.invariance_residual <= INVARIANCE_TOL
        assert dense <= INVARIANCE_TOL
        assert K.invariance_residual >= dense - 1e-13


@pytest.mark.parametrize("name", ["S3", "C2xS3", "S4", "random1x1x2",
                                  "random2x3", "random4"])
def test_block_multiplicities_match_svd_rank_oracle(name):
    alg = _worked_algebra(name)
    gns = fd.gns_structure(alg)
    sizes = np.array(gns.algebra.block_sizes)
    for builder in (fd.compute_H0, hermitian_H1):
        K = builder(gns)
        rep = fd.vn_dimension_report(K, gns.algebra)
        np.testing.assert_array_equal(
            rep.multiplicities * np.outer(sizes, sizes), svd_block_ranks(K, gns.algebra)
        )


def _c_c_m2(gap):
    """C (+) C (+) M2 whose first generator has eigenvalues 1 and 1 + gap on C (+) C."""
    g1 = np.zeros((4, 4), dtype=complex)
    g1[0, 0], g1[1, 1], g1[2:, 2:] = 1.0, 1.0 + gap, SX
    g2 = np.zeros((4, 4), dtype=complex)
    g2[2:, 2:] = SZ
    return fd.build_algebra([1, 1, 2], [0.25, 0.25, 0.5], [g1, g2])


def _c_m2(weight):
    return fd.build_algebra([1, 2], [weight, 1 - weight],
                            [embed_c_m2(1.0, SX), embed_c_m2(0.0, SZ)])


# expect_bound: whether the oracles' commutator bound, which grows as 1/s_r,
# passes the gate; the bound of compute_H0 does not read the spectrum, so it
# passes on all three
@pytest.mark.parametrize("alg, expect_bound", [
    (_c_m2(1e-6), True),      # small trace weight: ||R|| ~ weight^(-1/2)
    (_c_c_m2(1e-4), True),    # close eigenvalues: s_r ~ gap
    (_c_c_m2(1e-6), False),   # commutator bound above the gate: the dense value is stored
], ids=["weight_1e-6", "gap_1e-4", "gap_1e-6"])
def test_ill_conditioned_spans_keep_passing_the_gate(alg, expect_bound):
    gns = fd.gns_structure(alg)
    fd.central_decomposition(alg)  # the center certificate holds here too
    for builder, bound in ((fd.compute_H0, True), (hermitian_H1, expect_bound)):
        K = builder(gns)
        dense = invariance_residual(K.basis, gns)
        assert K.invariance_residual <= INVARIANCE_TOL
        if bound:
            assert K.invariance_residual >= dense - 1e-13
            assert K.invariance_residual != dense
        else:
            assert K.invariance_residual == dense
        fd.vn_dimension_report(K, gns.algebra)
    H0 = fd.compute_H0(gns)
    assert H0.invariance_residual >= invariance_residual(H0.basis, gns)  # no slack


def _spans_on_dense_fallback(monkeypatch, alg):
    """Whether compute_H0 stored the dense residual in place of its bound
    (1) or not (0)."""
    calls, dense = [], cocycles_module.invariance_residual
    monkeypatch.setattr(cocycles_module, "invariance_residual",
                        lambda basis, gns: calls.append(1) or dense(basis, gns))
    fd.compute_H0(fd.gns_structure(alg))
    return len(calls)


def _d11(weight):
    return fd.build_algebra([1, 1], [weight, 1 - weight], [np.diag([1.0, 2.0]).astype(complex)])


# the weights at which each input leaves the bound for the dense certificate:
# the bound grows as ||R_p|| = sqrt(n / alpha) while the dense residual stays
# at rounding level, below the bound
@pytest.mark.parametrize("make, weight, expect_bound",
                         [(_c_m2, 10.0 ** -k, k <= 12) for k in range(6, 14)]
                         + [(_d11, 10.0 ** -k, k <= 12) for k in range(6, 14)],
                         ids=[f"c_m2_1e-{k}" for k in range(6, 14)]
                         + [f"d11_1e-{k}" for k in range(6, 14)])
def test_small_weight_ladder_keeps_its_certificate_path(monkeypatch, make, weight,
                                                        expect_bound):
    alg = make(weight)
    assert _spans_on_dense_fallback(monkeypatch, alg) == (0 if expect_bound else 1)
    if expect_bound:
        gns = fd.gns_structure(alg)
        H0 = fd.compute_H0(gns)
        assert H0.invariance_residual >= cocycles_module.invariance_residual(H0.basis, gns)


def test_s4_bounds_stay_far_below_the_gate(monkeypatch):
    # the group_s4 benchmark input is certified by the bound alone, with
    # two orders of magnitude to spare
    gns = fd.gns_structure(_worked_algebra("S4"))

    def dense(basis, gns):
        raise AssertionError("S4 took the dense fallback")
    for module in (cocycles_module, conftest):  # compute_H0's, the oracles'
        monkeypatch.setattr(module, "invariance_residual", dense)
    for builder in (fd.compute_H0, hermitian_H1):
        assert 0.0 < builder(gns).invariance_residual <= 1e-10
    monkeypatch.undo()
    H0 = fd.compute_H0(gns)
    assert H0.invariance_residual >= invariance_residual(H0.basis, gns)


def test_commutator_bound_takes_no_svd(monkeypatch, capsys):
    # ||R_p|| has a closed form and the commutators are measured in
    # Frobenius norm, so the oracles' bound factors nothing, and compute_H0's
    # bound reads only the block sizes and weights; the Sylvester operators'
    # SVDs and the oracle family's do.  Each stack is read from the SVD's
    # immediate caller up, so a direct call and a call through
    # np.linalg.norm both show
    callers = []
    for module in (np.linalg, np.linalg._linalg):  # norm(., 2) calls the latter's svd
        svd = module.svd

        def spied(*args, _svd=svd, **kwargs):
            caller = sys._getframe(1)
            callers.append([f.f_code.co_name for f, _ in traceback.walk_stack(caller)])
            return _svd(*args, **kwargs)
        monkeypatch.setattr(module, "svd", spied)
    assert main(["delta", "--config", str(CONFIG_DIR / "delta_full_2x2.json")]) == 0
    capsys.readouterr()
    assert any(names[0] == "_pair_ranges" for names in callers)
    gns = fd.gns_structure(make_m2())
    callers.clear()
    fd.compute_H0(gns)
    assert callers and all(names[0] == "_pair_ranges" for names in callers)
    dense_H0(gns)
    assert any(names[0] == "_span_with_spectrum" for names in callers)
    assert not any("commutator_bound" in names for names in callers)


def test_dense_fallback_searches_no_einsum_path(monkeypatch):
    # the per-block action is a two-operand contraction, given its one path
    optimize = []
    einsum = np.einsum

    def spied(*operands, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "freedim.vndim":
            optimize.append(kwargs.get("optimize", False))
        return einsum(*operands, **kwargs)
    monkeypatch.setattr(np, "einsum", spied)
    for alg in (_c_m2(1e-13), _d11(1e-13)):
        assert _spans_on_dense_fallback(monkeypatch, alg) == 1
    assert optimize and all(isinstance(p, list) for p in optimize)


# ---------------------------------------------------------------------------
# the per-block commutant action against the dense D x D x D stack
# ---------------------------------------------------------------------------

def _dense_actions(gns):
    """The action generators R_p = L_{b_p}^T as one dense (D, D, D) stack."""
    return basis_left_mults(gns).transpose(0, 2, 1)


def _dense_commutator_maxima(gns):
    """max_p (sum_j ||[L_j, R_p]||^2)^(1/2) and max_p ||R_p|| over the dense stack."""
    R, Ls = _dense_actions(gns), gns.generator_left_mult
    comm = Ls[None] @ R[:, None] - R[:, None] @ Ls[None]
    comm_norm = np.sqrt((np.linalg.norm(comm, 2, axis=(-2, -1)) ** 2).sum(axis=1))
    return comm_norm.max(), np.linalg.norm(R, 2, axis=(-2, -1)).max()


@pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 2, 3, 3),
                                   (4, 5), (1, 2, 6), (3, 4, 4)], ids=str)
def test_per_block_commutator_maxima_match_dense_oracle(shape):
    # up to D = 41; with s = (1,) and r = 1 the bound is the commutator maximum
    # plus eps_fp = 2 n D^2 u times the largest ||R_p||, and s = (1, 2^60)
    # adds 2^60 times ||R_p||
    gns = fd.gns_structure(random_block_algebra(shape, seed=sum(shape)))
    bound = commutator_bound(gns, np.array([1.0]), 1)
    R_max = (commutator_bound(gns, np.array([1.0, 2.0**60]), 1) - bound) / 2.0**60
    n = gns.generator_left_mult.shape[0]
    comm = bound - 2 * n * gns.dim**2 * np.finfo(float).eps * R_max
    dense_comm, dense_R = _dense_commutator_maxima(gns)
    tol = 4 * gns.dim * np.finfo(float).eps / 2 * dense_R
    assert abs(comm - dense_comm) <= tol
    assert abs(R_max - dense_R) <= tol


def _dense_invariance_residual(basis, gns):
    R, flat = _dense_actions(gns), basis.reshape(len(basis), -1)
    moved = [np.einsum("pab,rnbc->prnac", R, basis, optimize=True),
             np.einsum("rnab,pbc->prnac", basis, R, optimize=True)]
    return _rowspace_residual(np.concatenate([m.reshape(-1, flat.shape[1]) for m in moved]),
                              flat)


def _dense_invariant_closure(gns, vectors):
    n, D = vectors.shape[1], gns.dim
    flat = fd.numerical_span(vectors.reshape(len(vectors), -1))
    while True:
        basis = flat.reshape(-1, n, D, D)
        rows = [flat]
        for R in _dense_actions(gns):
            rows += [np.einsum("ab,rnbc->rnac", R, basis).reshape(len(flat), -1),
                     np.einsum("rnab,bc->rnac", basis, R).reshape(len(flat), -1)]
        grown = fd.numerical_span(np.vstack(rows))
        if grown.shape[0] == flat.shape[0]:
            return grown
        flat = grown


@pytest.mark.parametrize("shape", [(1, 1), (1, 1, 2), (2, 2), (1, 2, 3)], ids=str)
def test_per_block_invariance_matches_dense_oracle(shape):
    gns = fd.gns_structure(random_block_algebra(shape, seed=3))
    rng = np.random.default_rng(3)
    D = gns.dim
    random = fd.hs_subspace(gns, rng.standard_normal((3, 2, D, D)))
    for K in (fd.compute_H0(gns), random):  # invariant, then not
        dense = _dense_invariance_residual(K.basis, gns)
        assert abs(invariance_residual(K.basis, gns) - dense) <= 1e-13
    seed = np.zeros((1, 1, D, D), dtype=complex)
    seed[0, 0, 0, -1] = 1.0  # first block to last
    closure, dense = fd.invariant_closure(gns, seed), _dense_invariant_closure(gns, seed)
    assert closure.flat().shape == dense.shape
    assert _rowspace_residual(dense, closure.flat()) <= 1e-12


def test_invariant_closure_reads_one_tuple_as_a_family_of_one(m2):
    gns = fd.gns_structure(m2)
    T = np.random.default_rng(5).standard_normal((2, gns.dim, gns.dim))
    one, family = fd.invariant_closure(gns, T), fd.invariant_closure(gns, T[None])
    assert np.array_equal(one.basis, family.basis)
    assert one.invariance_residual == family.invariance_residual


def test_commutator_bound_rejects_non_commuting_operator(m2, monkeypatch):
    # a Hermitian "L" outside the algebra does not commute with the action
    gns = fd.gns_structure(m2)
    Ls = random_hermitian(np.random.default_rng(3), gns.dim)[None]
    faulty = dataclasses.replace(gns, generator_left_mult=Ls)
    A = _unit_commutators(Ls, Ls).reshape(gns.dim ** 2, -1)
    kept, s = _span_with_spectrum(A)
    assert commutator_bound(faulty, s, kept.shape[0]) > INVARIANCE_TOL
    calls, dense = [], invariance_residual
    monkeypatch.setattr(conftest, "invariance_residual",
                        lambda basis, gns: calls.append(1) or dense(basis, gns))
    # the dense unit family, then the Hermitian family; compute_H0 forms its
    # span from the algebra's generators, not from these left multiplications,
    # so only the oracles see the fault
    for builder in (lambda g: dense_H0(g)[0], hermitian_H1):
        K = builder(faulty)
        assert K.invariance_residual > INVARIANCE_TOL
        with pytest.raises(fd.NotInvariant):
            fd.vn_dimension_report(K, gns.algebra)
    assert len(calls) == 2  # the bound failed its gate, so each took the dense residual


# ---------------------------------------------------------------------------
# index-built families against the per-entry loops they replaced
# ---------------------------------------------------------------------------

def _with_negative_zeros(rng, shape):
    """Random complex entries, about a third of the real and of the imaginary
    parts replaced by -0.0."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x.real[rng.random(shape) < 0.3] = -0.0
    x.imag[rng.random(shape) < 0.3] = -0.0
    return x


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _unit_commutators_loop(Li, Lk):
    n, di, _ = Li.shape
    dk = Lk.shape[-1]
    rows = np.zeros((di, dk, n, di, dk), dtype=complex)
    for p in range(di):
        for q in range(dk):
            rows[p, q, :, p, :] += Lk[:, q, :]
            rows[p, q, :, :, q] -= Li[:, :, p]
    return rows.reshape(di * dk, n, di, dk)


def _block_pair_operator_inline(algebra, i, k):
    """phi_ik as the Sylvester residual formed it inline, one generator at a
    time, its rows stacked onto an empty start: no generators give no rows."""
    (s_i, t_i), (s_k, t_k) = (block_offsets(algebra.block_sizes)[b] for b in (i, k))
    n_i, n_k = t_i - s_i, t_k - s_k
    return np.vstack([np.zeros((0, n_i * n_k), dtype=complex)] + [
        (np.eye(n_i)[:, None, :, None] * X[s_k:t_k, s_k:t_k].T[:, None]
         - X[s_i:t_i, None, s_i:t_i, None] * np.eye(n_k)[:, None, :]).reshape(n_i * n_k, -1)
        for X in algebra.generators])


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("shape", [(1,), (2, 3), (1, 2, 6), (3, 1, 3), (1,) * 41], ids=str)
def test_block_pair_operator_matches_the_inline_expression_bitwise(n, shape):
    # the operators take block sizes and any tuple on the blocks, here
    # random block-diagonal entries, a third of them -0.0, which need not
    # make an algebra; each shape's pairs come in row-major order, every
    # pair once
    rng = np.random.default_rng(10 * n + sum(shape))
    N, b = sum(shape), len(shape)
    gens = []
    for _ in range(n):
        g = np.zeros((N, N), dtype=complex)
        for s, t in block_offsets(shape):
            g[s:t, s:t] = _with_negative_zeros(rng, (t - s, t - s))
        gens.append(g)
    algebra = types.SimpleNamespace(block_sizes=shape, generators=tuple(gens))
    seen = []
    for (n_i, n_k), (pairs, stack) in block_pair_operators(shape, tuple(gens)).items():
        assert pairs == [(i, k) for i, k in itertools.product(range(b), repeat=2)
                         if (shape[i], shape[k]) == (n_i, n_k)]
        assert stack.shape == (len(pairs), n * n_i * n_k, n_i * n_k)
        for (i, k), phi in zip(pairs, stack):
            assert _bitwise_equal(phi, _block_pair_operator_inline(algebra, i, k))
        seen += pairs
        pairs_empty, stack_empty = block_pair_operators(shape, ())[n_i, n_k]
        assert pairs_empty == pairs and stack_empty.shape == (len(pairs), 0, n_i * n_k)
    assert sorted(seen) == list(itertools.product(range(b), repeat=2))


def test_pair_ranges_slice_the_blocks_once(monkeypatch):
    # one block_offsets call builds every phi_ik: on 41 one-by-one blocks a
    # builder per pair made 41^2 = 1681 calls
    alg, calls = _worked_algebra("random" + "x".join(["1"] * 41)), []
    offsets = algebra_module.block_offsets
    monkeypatch.setattr(algebra_module, "block_offsets",
                        lambda sizes: calls.append(1) or offsets(sizes))
    assert len(_pair_ranges(alg.block_sizes, alg.generators)) == 41 ** 2
    assert len(calls) <= 1


def _commutator_stack_loop(mats, within, N):
    r = within.shape[0]
    stacked = np.empty((len(mats), N * N, r), dtype=complex)
    for i, m in enumerate(mats):
        for k in range(r):
            B = within[k].reshape(N, N)
            stacked[i, :, k] = (B @ m - m @ B).ravel()
    return stacked.reshape(-1, r)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("D", [3, 6, 9])
def test_cocycle_families_match_reference_loops_bitwise(n, D):
    rng = np.random.default_rng(10 * n + D)
    Ls = _with_negative_zeros(rng, (n, D, D))
    units = _unit_commutators(Ls, Ls)  # the full form: every D x D unit
    assert _bitwise_equal(units, _unit_commutators_loop(Ls, Ls))
    # the pair form, stacked over three pairs of one shape (D and 4 coordinates)
    Li, Lk = _with_negative_zeros(rng, (3, n, D, D)), _with_negative_zeros(rng, (3, n, 4, 4))
    for a, b in ((Li, Lk), (Lk, Li)):
        assert _bitwise_equal(_unit_commutators(a, b),
                              np.stack([_unit_commutators_loop(x, y) for x, y in zip(a, b)]))


@pytest.mark.parametrize("n, N, r", [(1, 1, 1), (1, 2, 4), (2, 3, 5), (3, 4, 16),
                                     (2, 24, 576)])
def test_commutant_stack_matches_reference_loop_bitwise(n, N, r, monkeypatch):
    # the stack is the matrix commutant_basis hands to its first QR (a family
    # of at least 2r rows) or else to its first SVD
    rng = np.random.default_rng(N * r)
    mats = [_with_negative_zeros(rng, (N, N)) for _ in range(n)]
    within = _with_negative_zeros(rng, (r, N * N))
    seen, qr, svd = [], np.linalg.qr, np.linalg.svd
    monkeypatch.setattr(np.linalg, "qr", lambda a, **kw: seen.append(("qr", a)) or qr(a, **kw))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: seen.append(("svd", a)) or svd(a, **kw))
    commutant_basis(mats, within)
    assert seen[0][0] == ("qr" if n * N * N >= 2 * r else "svd")
    assert _bitwise_equal(seen[0][1], _commutator_stack_loop(mats, within, N))


def _commutant_searches(monkeypatch, run):
    """The (mats, within) of every commutant_basis call that run() makes."""
    seen = []

    def spy(mats, within):
        seen.append((mats, within))
        return commutant_basis(mats, within)

    monkeypatch.setattr(wedderburn, "commutant_basis", spy)
    monkeypatch.setattr(vndim, "commutant_basis", spy)
    run()
    return seen


def _group_families(monkeypatch):
    """Each commutant family of the group and block algebras named below,
    built by the reference loop, which the test above holds bitwise equal
    to the family commutant_basis factors."""
    s3, s4 = fd.symmetric_group(3), fd.symmetric_group(4)
    c2s3 = fd.direct_product(fd.cyclic_group(2), s3)
    s4_blocks = fd.regular_rep_algebra(s4)  # unspied: each spy records until the test ends
    s4_mats = [left_regular_matrices(s4)[g] for g in minimal_generating_set(s4)]
    searches = {name: _commutant_searches(monkeypatch, lambda g=g: fd.regular_rep_algebra(g))
                for name, g in (("S3", s3), ("S4", s4), ("C2xS3", c2s3))}
    searches["S4 blocks"] = _commutant_searches(
        monkeypatch, lambda: fd.central_decomposition(s4_blocks, seed=0))
    searches["S4 in M_24"] = _commutant_searches(
        monkeypatch, lambda: wedderburn.commutant_basis(s4_mats, np.eye(576, dtype=complex)))
    return {f"{name} #{k}": _commutator_stack_loop(mats, within, math.isqrt(within.shape[1]))
            for name, seen in searches.items() for k, (mats, within) in enumerate(seen)}


def test_r_svd_of_each_tall_commutant_family_is_its_svd_bitwise(monkeypatch):
    # A = QR with orthonormal Q: the same singular values and right singular
    # vectors, and zgesdd factors A by QR itself at 17/9 as many rows as columns
    families = _group_families(monkeypatch)
    assert sorted(families) == ["C2xS3 #0", "S3 #0", "S4 #0", "S4 blocks #0", "S4 in M_24 #0"]
    assert families["S4 in M_24 #0"].shape == (2 * 576, 576)  # the full commutant in M_24
    rng = np.random.default_rng(7)
    for cols in (3, 16, 40):
        for ratio in (2, 3, 4):
            families[f"random {ratio}x{cols}"] = _with_negative_zeros(rng, (ratio * cols, cols))
    for name, family in families.items():
        assert family.shape[0] >= 2 * family.shape[1], name
        _, s, vh = np.linalg.svd(family, full_matrices=False)
        _, s_r, vh_r = np.linalg.svd(np.linalg.qr(family, mode="r"), full_matrices=False)
        assert _bitwise_equal(s_r, s) and _bitwise_equal(vh_r, vh), name


def test_commutant_family_below_twice_its_columns_keeps_the_plain_svd(monkeypatch):
    # C12 with one generator: its full commutant family is 144 x 144
    qrs, svds, svd = [], [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "qr", lambda a, **kw: qrs.append(a))
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(a) or svd(a, **kw))
    c12 = fd.cyclic_group(12)
    mats = [left_regular_matrices(c12)[g] for g in minimal_generating_set(c12)]
    within = np.eye(144, dtype=complex)
    commutant_basis(mats, within)
    assert qrs == []
    assert _bitwise_equal(svds[0], _commutator_stack_loop(mats, within, 12))
    assert svds[0].shape == (144, 144)


@pytest.mark.parametrize("group", [
    fd.cyclic_group(12),
    fd.direct_product(fd.cyclic_group(4), fd.cyclic_group(6)),
    fd.symmetric_group(3),
    fd.symmetric_group(4),
    fd.direct_product(fd.cyclic_group(2), fd.symmetric_group(3)),
], ids=["C12", "C4xC6", "S3", "S4", "C2xS3"])
def test_blockify_searches_only_the_center(group, monkeypatch):
    # a block of multiplicity above one (S3's 2 x 2 block has two) finds its
    # irreducible subspace from the algebra, so the one search is the
    # center's, inside the group algebra, and none runs in all of M_N
    seen = _commutant_searches(monkeypatch, lambda: fd.regular_rep_algebra(group))
    assert len(seen) == 1
    assert seen[0][1].shape == (group.order, group.order ** 2)


# ---------------------------------------------------------------------------
# the dimension report
# ---------------------------------------------------------------------------

def test_delta_report_two_point(c2):
    rep = fd.delta_report(c2)
    assert rep.Delta == Fraction(1, 2)
    assert _delta_results(rep, c2.block_sizes)["beta0_fraction"] == Fraction(1, 2)
    assert rep.closed_form_beta0 == Fraction(1, 2)  # (1/2)^2 + (1/2)^2


def test_delta_report_m2(m2):
    rep = fd.delta_report(m2)
    assert rep.Delta == Fraction(3, 4)
    assert _delta_results(rep, m2.block_sizes)["beta0_fraction"] == Fraction(1, 4)
    assert rep.closed_form_beta0 == Fraction(1, 4)  # 1 / 2^2


def test_delta_report_direct_sum(c1m2):
    rep = fd.delta_report(c1m2)
    assert rep.Delta == Fraction(7, 9)
    # closed form (1/3)^2 + (2/3)^2 / 4 = 2/9
    assert rep.closed_form_beta0 == Fraction(2, 9)


@pytest.mark.parametrize("name", ["delta_direct_sum", "delta_full_2x2", "delta_two_point",
                                  "S3"])
def test_dimension_report_of_h0_on_the_algebra_is_delta_report(name):
    # vn_dimension_report reads the declared blocks and exact weights from the algebra
    alg = _worked_algebra(name)
    rep = fd.vn_dimension_report(fd.compute_H0(fd.gns_structure(alg)), alg)
    delta = fd.delta_report(alg)
    assert rep.fraction == delta.Delta
    np.testing.assert_array_equal(rep.multiplicities, delta.multiplicities)


def test_delta_chain_and_pinning(c1m2):
    rep = fd.delta_report(c1m2)
    results = _delta_results(rep, c1m2.block_sizes)
    pinned = results["pinned"]
    assert pinned["delta_star"] == float(rep.Delta) == pinned["delta_blackstar"]
    assert results["dim_H0"] <= results["dim_H2"] + 1e-9
    assert abs(float(1 - rep.Delta) - float(rep.closed_form_beta0)) <= SUBSPACE_TOL
    assert results["agreement"]["spaces_coincide"] and results["agreement"]["weak_equals_norm"]


def _rank_shortfall(monkeypatch):
    """Make `algebra._pair_ranges` keep one vector fewer on the last pair,
    a rank one short of Schur's, which refutes generation."""
    ranges = algebra_module._pair_ranges

    def short(block_sizes, generators):
        kept = ranges(block_sizes, generators)
        pair = max(kept)
        kept[pair] = kept[pair][1:]
        return kept

    monkeypatch.setattr(algebra_module, "_pair_ranges", short)


@pytest.mark.parametrize("build", [fd.build_algebra, fd.blockify_subalgebra],
                         ids=["build_algebra", "blockify_subalgebra"])
def test_rank_shortfall_refuses_the_tuple(monkeypatch, build):
    # the tuple generates C (+) M2, whose ranks are n_i n_k - delta_ik by
    # Schur: a rank that falls short leaves generation unproved, and neither
    # constructor builds the algebra
    gens = [embed_c_m2(1.0, SX), embed_c_m2(0.0, SZ)]
    assert fd.delta_report(build([1, 2], [1 / 3, 2 / 3], gens)).multiplicities.tolist() == [
        [0, 2], [2, 3]]
    _rank_shortfall(monkeypatch)
    with pytest.raises(fd.NotGenerating):
        build([1, 2], [1 / 3, 2 / 3], gens)


@pytest.mark.parametrize("subalgebra_mode", [False, True])
def test_cli_rank_shortfall_is_one_stderr_line(monkeypatch, capsys, tmp_path, subalgebra_mode):
    _rank_shortfall(monkeypatch)
    config = json.loads((CONFIG_DIR / "delta_full_2x2.json").read_text())
    config["algebra"]["subalgebra_mode"] = subalgebra_mode
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["delta", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("computation error: NotGenerating: generators span a ")
    assert "Traceback" not in captured.err and len(captured.err.strip().splitlines()) == 1


def test_generator_independence_same_algebra():
    # different generating tuples (and lengths) of M_2 give the same Delta
    tuples = [
        [SX.copy(), SZ.copy()],
        [SY.copy(), SZ.copy()],
        [SX.copy(), SY.copy(), SZ.copy()],
        [(SX + SZ) / np.sqrt(2), SY.copy()],
    ]
    values = []
    for gens in tuples:
        alg = fd.build_algebra([2], [1.0], gens)
        values.append(fd.delta_report(alg).Delta)
    for v in values[1:]:
        assert abs(v - values[0]) <= 1e-9


def test_delta_bounds(c2, m2, c1m2):
    for alg in (c2, m2, c1m2):
        rep = fd.delta_report(alg)
        n = len(alg.generators)
        assert -1e-12 <= rep.Delta <= min(n, 1) + 1e-12


def test_subalgebra_mode_delta():
    # a non-generating tuple works through its generated subalgebra
    sub = fd.blockify_subalgebra([2], [1.0], [SX.copy()])
    rep = fd.delta_report(sub)
    assert abs(rep.Delta - 0.5) <= 1e-9  # effective algebra is C^2, w = (1/2, 1/2)


def test_subalgebra_mode_with_multiplicity():
    # the diagonal copy {a (+) a} inside M_2 (+) M_2 sits with multiplicity 2;
    # its own block form is a single 2x2 block of full weight
    def dbl(m):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = m
        out[2:, 2:] = m
        return out

    assert generated_dim([2, 2], [dbl(SX), dbl(SZ)]) == 4
    eff = fd.blockify_subalgebra([2, 2], [0.3, 0.7], [dbl(SX), dbl(SZ)])
    assert eff.block_sizes == (2,)
    np.testing.assert_allclose(eff.trace_weights, [1.0], atol=1e-12)
    rep = fd.delta_report(eff)
    assert rep.Delta == Fraction(3, 4)


def test_delta_report_extreme_weights():
    g1 = np.zeros((3, 3), dtype=complex)
    g1[0, 0] = 1.0
    g1[1:, 1:] = SX
    g2 = np.zeros((3, 3), dtype=complex)
    g2[1:, 1:] = SZ
    alg = fd.build_algebra([1, 2], [0.999, 0.001], [g1, g2])
    rep = fd.delta_report(alg)
    expected = 1.0 - (0.999**2 + 0.001**2 / 4.0)
    assert abs(rep.Delta - expected) <= 1e-9
    assert abs(float(1 - rep.Delta) - float(rep.closed_form_beta0)) <= SUBSPACE_TOL


def _delta_config(blocks, weights):
    """A delta config with weights `weights` on the generic pair of
    `random_block_algebra`."""
    gens = random_block_algebra(tuple(blocks), seed=sum(blocks)).generators
    return {"scenario": "delta", "algebra": {
        "blocks": blocks, "weights": weights,
        "generators": [np.stack([g.real, g.imag], axis=-1).tolist() for g in gens]}}


# weight sums at the edge of _validated's check, a weight of 1e-300, 41
# blocks, and two groups whose measured weights to_fraction keeps as binary
# fractions; group_finite sums Delta and the closed form at the exact weights
# n_i^2/|G|, not at those, so the groups' gap is exactly 0
CLOSED_FORM_EDGES = {
    "sum_above": (lambda: _delta_config([1, 2], [0.5, 0.5 + 9.9e-13]), 0),
    "sum_below": (lambda: _delta_config([1, 2], [0.5 - 9.9e-13, 0.5]), 0),
    "thirds": (lambda: _delta_config([1, 1, 2], [1 / 3, 1 / 3, 1 / 3 + 9e-13]), 0),
    "tiny": (lambda: _delta_config([1, 2], [1e-300, 1 - 1e-300]), 0),
    "41_above": (lambda: _delta_config([1] * 41, [1 / 41 + 1e-14] * 41), 0),
    "41_below": (lambda: _delta_config([1] * 41, [1 / 41 - 1e-14] * 41), 0),
    "C3xC2xC3": (lambda: {"scenario": "group_finite", "group": {"kind": "product", "factors": [
        {"kind": "cyclic", "n": 3}, {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]}}, 0),
    "C16": (lambda: {"scenario": "group_finite", "group": {"kind": "cyclic", "n": 16}}, 1),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_EDGES))
def test_closed_form_gap_stays_within_the_schur_bound(name, tmp_path, capsys):
    # at the Schur multiplicities 1 - Delta - closed_form_beta0 = 1 - (sum a_i)^2,
    # at most 4.1e-12 over up to 41 blocks (delta_report), so the CLI writes
    # closed_form_matches true without measuring the gap
    make, seed = CLOSED_FORM_EDGES[name]
    config = make()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([config["scenario"], "--config", str(path), "--seed", str(seed)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["agreement"]["closed_form_matches"] is True
    gap = abs(results["beta0"] - results["closed_form_beta0"])
    assert gap == 0 if config["scenario"] == "group_finite" else gap <= 4.1e-12


@pytest.mark.parametrize("name", [n for n in sorted(CLOSED_FORM_EDGES) if n[0] != "C"])
def test_closed_form_gap_is_one_minus_the_squared_weight_sum(name):
    # the identity behind the bound, in exact arithmetic
    alg = section_algebra(CLOSED_FORM_EDGES[name][0]()["algebra"])
    rep = fd.delta_report(alg)
    total = sum(map(to_fraction, alg.trace_weights))
    assert 1 - rep.Delta - rep.closed_form_beta0 == 1 - total * total


def test_delta_report_builds_each_space_once(c1m2, monkeypatch):
    # H1 and H2 are H0, whose multiplicities are the ranks of the pairs'
    # Sylvester operators, which the constructors proved: delta_report
    # factors none of them, builds no GNS structure, no span and no
    # dimension report of one, measures no distance, and takes no SVD but
    # the center certificate's; each is counted by its code object,
    # whatever name binds it
    watched = {f.__code__: f.__name__ for f in (
        fd.gns_structure, fd.compute_H0, fd.compute_H1, fd.vn_dimension_report,
        fd.subspace_distance, _pair_ranges, algebra_module.word_span)}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls.append(watched[frame.f_code])
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fd.delta_report(c1m2)
    finally:
        sys.setprofile(previous)
    assert calls == []
    assert _svds_outside_the_center(monkeypatch, c1m2) == []


def test_delta_fraction_does_not_depend_on_the_center_seed():
    # random weights: the exact weights are the declared ones, not the
    # numeric tau(z_i), whose last bits depend on the seed
    alg = random_block_algebra([1, 1, 2], 0)
    assert len({fd.delta_report(alg, seed=s).Delta for s in range(8)}) == 1


@pytest.mark.parametrize("sizes", [[1], [2], [1, 2]])
def test_delta_report_empty_generator_tuple(sizes):
    # no generators: the algebra generated is C 1, whose cocycle spaces are zero
    build = fd.blockify_subalgebra if sizes != [1] else fd.build_algebra
    alg = build(sizes, [1 / len(sizes)] * len(sizes), [])
    rep = fd.delta_report(alg)
    assert rep.Delta == 0 and _delta_results(rep, alg.block_sizes)["beta0_fraction"] == 1
    assert alg.block_sizes == (1,)
