import dataclasses
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import freedim as fd
from conftest import (SX, SY, SZ, basis_left_mults, coords, dense_basis, diag_weights, element,
                      embed_c_m2, generated_dim, generates, left_mults, random_block_algebra,
                      random_hermitian)
import freedim.algebra as algebra_module
import freedim.wedderburn as wedderburn_module
from freedim.algebra import (_flatten, _frame, _orthonormal_selfadjoint_basis,
                             _unflatten, _unit_map, _verify_gns, block_offsets)
from freedim.tolerances import OPERATOR_TOL
from test_cocycles import WORKED, _bitwise_equal, _with_negative_zeros, _worked_algebra


def local_tau(x, block_sizes, weights):
    """Independent trace oracle: weighted normalized block traces."""
    out = 0.0 + 0.0j
    start = 0
    for n, a in zip(block_sizes, weights):
        out += a * np.trace(x[start : start + n, start : start + n]) / n
        start += n
    return out


def left_mult(gns, x):
    """Left multiplication by one algebra element on the trace representation."""
    return left_mults(gns, [x])[0]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_two_point_algebra_valid(c2):
    assert c2.dim == 2
    assert generates(c2)
    assert c2.matrix_size == 2


def test_full_matrix_algebra_valid(m2):
    assert m2.dim == 4
    assert generates(m2)


def test_weight_error_sum():
    with pytest.raises(fd.WeightError):
        fd.build_algebra([1, 1], [0.5, 0.4], [np.diag([0.0, 1.0]).astype(complex)])


def test_weight_error_nonpositive():
    with pytest.raises(fd.WeightError):
        fd.build_algebra([1, 1], [1.5, -0.5], [np.diag([0.0, 1.0]).astype(complex)])


def test_not_self_adjoint():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(fd.NotSelfAdjoint):
        fd.build_algebra([2], [1.0], [bad])


def test_shape_mismatch_wrong_size():
    with pytest.raises(fd.ShapeMismatch):
        fd.build_algebra([1, 1], [0.5, 0.5], [np.zeros((3, 3), dtype=complex)])


def test_shape_checked_before_block_mask():
    # the N x N block mask of blocks [10**6] would take 931 GiB
    tracemalloc.start()
    try:
        with pytest.raises(fd.ShapeMismatch, match="shape"):
            fd.build_algebra([10**6], [1.0], [np.eye(1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_shape_mismatch_off_block_support():
    g = np.array([[0, 1], [1, 0]], dtype=complex)  # crosses the 1+1 block cut
    with pytest.raises(fd.ShapeMismatch):
        fd.build_algebra([1, 1], [0.5, 0.5], [g])


def test_not_generating_without_flag():
    with pytest.raises(fd.NotGenerating):
        fd.build_algebra([2], [1.0], [SX.copy()])


def test_subalgebra_mode_effective_algebra():
    assert generated_dim([2], [SX]) == 2    # so SX does not generate M_2
    eff = fd.blockify_subalgebra([2], [1.0], [SX.copy()])
    assert eff.block_sizes == (1, 1)
    assert generates(eff)
    np.testing.assert_allclose(eff.trace_weights, [0.5, 0.5], atol=1e-12)


def test_gns_structure_never_calls_blockify(monkeypatch):
    # the generated subalgebra is formed once, where it is declared; the
    # trace representation takes the algebra as it is
    alg = fd.blockify_subalgebra([2, 2], [0.3, 0.7], _doubled(SX, SZ))

    def refuse(*args, **kwargs):
        raise AssertionError("gns_structure called blockify")

    monkeypatch.setattr(wedderburn_module, "blockify", refuse)
    gns = fd.gns_structure(alg)
    assert gns.algebra is alg and alg.block_sizes == (2,) and gns.dim == 4


# ---------------------------------------------------------------------------
# generation check
# ---------------------------------------------------------------------------

def test_generation_check_m2_single_pauli():
    # oracle: the span of all words in sigma_x alone stabilizes at {I, sigma_x}
    words = [np.eye(2, dtype=complex), SX, SX @ SX, SX @ SX @ SX]
    oracle_dim = np.linalg.matrix_rank(np.array([w.ravel() for w in words]))
    assert oracle_dim == 2

    dim = generated_dim([2], [SX.copy()])
    assert (dim, dim == 4) == (2, False)
    with pytest.raises(fd.NotGenerating, match="a 2-dimensional subalgebra"):
        fd.build_algebra([2], [1.0], [SX.copy()])


def test_generation_check_m2_pair(m2):
    # oracle: words of length <= 2 in sigma_x, sigma_z already span M_2
    words = [np.eye(2, dtype=complex), SX, SZ, SX @ SZ, SZ @ SX, SX @ SX]
    assert np.linalg.matrix_rank(np.array([w.ravel() for w in words])) == 4

    dim = generated_dim(m2.block_sizes, m2.generators)
    assert (dim, generates(m2)) == (4, True)


def test_generation_check_scalars():
    alg = fd.build_algebra([1], [1.0], [np.array([[1.0]], dtype=complex)])
    assert (generated_dim(alg.block_sizes, alg.generators), generates(alg)) == (1, True)


def test_generation_check_keeps_generators_as_given():
    # the span is counted on rescaled copies; the algebra keeps the input
    X = 1e10 * SX
    alg = fd.build_algebra([2], [1.0], [X, 1e10 * SZ])
    assert generates(alg)
    assert np.array_equal(alg.generators[0], X)


def test_tracial_algebra_is_built_only_through_the_validated_path():
    # sigma_x alone generates C (+) C, not M_2; this construction used to
    # succeed, and gns_structure and the dual path accepted the algebra
    with pytest.raises(TypeError, match="build_algebra or blockify_subalgebra"):
        fd.TracialAlgebra((2,), (1.0,), (SX.copy(),), ("X1",))
    alg = fd.build_algebra([2], [1.0], [SX.copy(), SZ.copy()])
    with pytest.raises(TypeError):
        dataclasses.replace(alg, generators=(SX.copy(),))
    assert fd.blockify_subalgebra([2], [1.0], [SX.copy()]).block_sizes == (1, 1)


@pytest.mark.parametrize("build", [fd.build_algebra, fd.blockify_subalgebra],
                         ids=["build_algebra", "blockify_subalgebra"])
def test_generating_tuple_is_spanned_once(monkeypatch, build):
    # the block pairs' Sylvester ranks prove generation, so an accepted
    # build spans no words: word_span runs only when the ranks fall short
    calls, span = [], algebra_module.word_span

    def spied(sizes, gens):
        calls.append(tuple(sizes))
        return span(sizes, gens)

    for module in (algebra_module, wedderburn_module):
        monkeypatch.setattr(module, "word_span", spied)
    alg = build([1, 2], [0.4, 0.6], [embed_c_m2(1.0, SX), embed_c_m2(-1.0, SZ)])
    assert (alg.block_sizes, calls) == ((1, 2), [])


# the rank verdict against word_span, the oracle: seeded random tuples on
# shapes up to D = 41, plus [10], [6, 8] and 100 x [1], with 1 to 4
# generators, generator j scaled by 2^(60 (-1)^j) and every other block's
# part by one of BLOCK_SCALES
SWEEP_SHAPES = [(1,), (2,), (1, 1), (1, 2), (2, 2), (3,), (1, 1, 2), (2, 3), (3, 3), (4, 5),
                (1, 2, 6), (6,), (2, 3, 4), (1,) * 41, (10,), (6, 8), (1,) * 100]
BLOCK_SCALES = [1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15]


def _generation_verdicts(sizes, gens):
    """(the ranks' verdict, word_span's) on the unit-scaled tuple."""
    unit = algebra_module.unit_scaled([np.asarray(g, dtype=complex) for g in gens])
    span = algebra_module.word_span(tuple(sizes), unit).shape[0]
    return algebra_module._generates(tuple(sizes), unit), span == sum(n * n for n in sizes)


def _swept_tuple(shape, n, block_scale, rng):
    N, gens = sum(shape), []
    for j in range(n):
        g = np.zeros((N, N), dtype=complex)
        for b, (s, t) in enumerate(block_offsets(shape)):
            g[s:t, s:t] = (block_scale if b % 2 == 0 else 1.0) * random_hermitian(rng, t - s)
        gens.append(g * 2.0 ** (60 * (-1) ** j))
    return gens


@pytest.mark.parametrize("shape", SWEEP_SHAPES,
                         ids=lambda s: f"{len(s)}x1" if len(s) > 6 else "x".join(map(str, s)))
def test_rank_verdict_matches_word_span_but_on_unequal_block_scales(shape):
    # random blocks are pairwise inequivalent, so the tuple generates exactly
    # when each block's part does: always on 1 x 1 blocks, else with two or
    # more generators.  The ranks give that verdict everywhere.  word_span
    # gives it too, but for two families whose blocks differ in scale: it
    # refuses the spanning tuples of blocks scaled by 1e-9 or less, and it
    # accepts a single generator, which generates a commutative algebra
    rng = np.random.default_rng(sum(shape))
    for n, c in itertools.product(range(1, 5), BLOCK_SCALES if len(shape) > 1 else [1.0]):
        truth = n >= 2 or max(shape) == 1
        ranks, span = _generation_verdicts(shape, _swept_tuple(shape, n, c, rng))
        assert ranks == truth, (n, c)
        if not (truth and c <= 1e-9 or n == 1 and c < 1.0):
            assert span == truth, (n, c)


def _on_blocks(*parts):
    out = np.zeros((sum(len(p) for p in parts),) * 2, dtype=complex)
    for (s, t), p in zip(block_offsets([len(p) for p in parts]), parts):
        out[s:t, s:t] = p
    return out


def _non_generating_tuples():
    """Tuples that generate a proper subalgebra: commuting pairs, equivalent
    and unitarily equivalent blocks, and reducible blocks."""
    rng = np.random.default_rng(7)
    h = [random_hermitian(rng, 3) for _ in range(3)]
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
    red = [_on_blocks(random_hermitian(rng, 2), rng.standard_normal((1, 1))) for _ in range(2)]
    return {
        "commuting_3": ((3,), [np.diag(rng.standard_normal(3)) for _ in range(2)]),
        "commuting_2x2": ((2, 2), [np.diag(rng.standard_normal(4)) for _ in range(3)]),
        "equivalent_2x2": ((2, 2), [_on_blocks(a, a), _on_blocks(b, b)]),
        "equivalent_3x3": ((3, 3), [_on_blocks(x, x) for x in h]),
        "unitarily_equivalent_3x3": ((3, 3), [_on_blocks(x, U @ x @ U.conj().T) for x in h]),
        "reducible_3": ((3,), red),
        "reducible_2x3": ((2, 3), [_on_blocks(a, r) for r in red]),
    }


@pytest.mark.parametrize("name", sorted(_non_generating_tuples()))
@pytest.mark.parametrize("exponent", [0, 60, -60])
def test_rank_verdict_refuses_what_word_span_refuses(name, exponent):
    shape, gens = _non_generating_tuples()[name]
    assert _generation_verdicts(shape, [g * 2.0 ** exponent for g in gens]) == (False, False)


@pytest.mark.parametrize("name", ["S3", "S4", "C12", "C2xS3"])
def test_rank_verdict_accepts_group_algebras_after_blockify(name):
    table = {"S3": lambda: fd.symmetric_group(3), "S4": lambda: fd.symmetric_group(4),
             "C12": lambda: fd.cyclic_group(12),
             "C2xS3": lambda: fd.direct_product(fd.cyclic_group(2), fd.symmetric_group(3))}[name]()
    alg = fd.regular_rep_algebra(table)
    assert _generation_verdicts(alg.block_sizes, alg.generators) == (True, True)


def test_non_finite_generator_entry_rejected():
    for bad in (np.nan, np.inf):
        X = np.array([[0.0, 1.0], [1.0, bad]], dtype=complex)
        with pytest.raises(fd.ShapeMismatch, match="non-finite"):
            fd.build_algebra([2], [1.0], [X, SZ.copy()])


# ---------------------------------------------------------------------------
# trace representation
# ---------------------------------------------------------------------------

def test_gns_trace_vector_and_p1_two_point(c2):
    gns = fd.gns_structure(c2)
    # oracle: direct inner products <1, b_m> = tau(b_m) with a local tau
    expected = np.array(
        [local_tau(b, c2.block_sizes, c2.trace_weights) for b in dense_basis(gns)]
    )
    np.testing.assert_allclose(gns.trace_vector, expected.real, atol=1e-12)
    np.testing.assert_allclose(gns.trace_vector, [1 / np.sqrt(2)] * 2, atol=1e-12)
    # the rank-one projection onto the trace vector, as fdq_targets builds it
    np.testing.assert_allclose(fd.fdq_targets(gns, 0)[0], np.full((2, 2), 0.5), atol=1e-12)


def test_gns_left_mult_two_point(c2):
    gns = fd.gns_structure(c2)
    X, basis = c2.generators[0], dense_basis(gns)
    # oracle: multiply basis elements by X and re-expand with the local trace
    expected = np.zeros((2, 2), dtype=complex)
    for m in range(2):
        for q in range(2):
            expected[m, q] = local_tau(
                basis[m] @ X @ basis[q], c2.block_sizes, c2.trace_weights
            )
    np.testing.assert_allclose(left_mult(gns, X), expected, atol=1e-12)
    np.testing.assert_allclose(left_mult(gns, X), np.diag([0.0, 1.0]), atol=1e-12)


def test_conjugation_fixes_trace_vector(c2, m2, c1m2):
    for alg in (c2, m2, c1m2):
        gns = fd.gns_structure(alg)
        np.testing.assert_allclose(
            np.conj(gns.trace_vector), gns.trace_vector, atol=1e-12
        )


def test_conjugation_is_involutive(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    np.testing.assert_array_equal(np.conj(np.conj(v)), v)
    # conjugation implements the adjoint on coordinates
    a = element(gns, v)
    np.testing.assert_allclose(
        coords(gns, a.conj().T), np.conj(coords(gns, a)), atol=1e-12
    )


def test_gns_cyclicity(m2, c1m2):
    rng = np.random.default_rng(0)
    for alg in (m2, c1m2):
        gns = fd.gns_structure(alg)
        for _ in range(5):
            coeff = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            a = element(gns, coeff)
            np.testing.assert_allclose(
                left_mult(gns, a) @ gns.trace_vector, coords(gns, a), atol=1e-10
            )


def test_right_mult_is_right_multiplication(m2):
    # <J L_{a*} J x_hat, y_hat> = <(x a)_hat, y_hat> on all basis pairs
    gns = fd.gns_structure(m2)
    D, basis = gns.dim, dense_basis(gns)
    for a_idx in range(D):
        a = basis[a_idx]
        R = left_mult(gns, a).T
        for x_idx in range(D):
            direct = coords(gns, basis[x_idx] @ a)
            np.testing.assert_allclose(R[:, x_idx], direct, atol=1e-10)


def test_left_mult_is_star_homomorphism(m2, c1m2):
    rng = np.random.default_rng(1)
    for alg in (m2, c1m2):
        gns = fd.gns_structure(alg)
        for _ in range(4):
            a = element(gns, rng.standard_normal(alg.dim)
                             + 1j * rng.standard_normal(alg.dim))
            b = element(gns, rng.standard_normal(alg.dim)
                             + 1j * rng.standard_normal(alg.dim))
            np.testing.assert_allclose(
                left_mult(gns, a @ b), left_mult(gns, a) @ left_mult(gns, b), atol=1e-10
            )
            np.testing.assert_allclose(
                left_mult(gns, a.conj().T), left_mult(gns, a).conj().T, atol=1e-10
            )


def test_traciality_on_basis_pairs(c1m2):
    basis = dense_basis(fd.gns_structure(c1m2))
    for p in range(c1m2.dim):
        for q in range(c1m2.dim):
            ab = c1m2.trace(basis[p] @ basis[q])
            ba = c1m2.trace(basis[q] @ basis[p])
            assert abs(ab - ba) <= 1e-12


def test_coordinates_reproduce_inner_product(c1m2):
    rng = np.random.default_rng(2)
    gns = fd.gns_structure(c1m2)
    for _ in range(5):
        a = element(gns, rng.standard_normal(c1m2.dim)
                         + 1j * rng.standard_normal(c1m2.dim))
        b = element(gns, rng.standard_normal(c1m2.dim)
                         + 1j * rng.standard_normal(c1m2.dim))
        lhs = np.vdot(coords(gns, b), coords(gns, a))  # <a, b> in coordinates
        rhs = c1m2.trace(b.conj().T @ a)
        assert abs(lhs - rhs) <= 1e-10


def test_pauli_pair_with_y_also_generates():
    alg = fd.build_algebra([2], [1.0], [SX.copy(), SY.copy(), SZ.copy()])
    assert generates(alg)


def test_random_hermitian_helper_shape():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    assert np.abs(h - h.conj().T).max() < 1e-14


# ---------------------------------------------------------------------------
# the closed-form left multiplications against the trace formula
# ---------------------------------------------------------------------------

def trace_left_mult(gns):
    """The oracle L_p[m, q] = tau(b_m b_p b_q) = <b_p b_q, b_m>, contracted
    pairwise: for several blocks optimize=True picks one three-operand
    contraction, about 100x slower at D = 100."""
    b = dense_basis(gns)
    return np.einsum("mab,pbc,qca,a->pmq", b, b, b, diag_weights(gns),
                     optimize=["einsum_path", (0, 3), (0, 1), (0, 1)])


def all_at_once_identity_gaps(L):
    """The multiplicativity and commutant defects as dense D^4 tensors."""
    lhs = np.einsum("pmq,mrs->pqrs", L, L, optimize=True)
    rhs = np.einsum("prt,qts->pqrs", L, L, optimize=True)
    mult = np.abs(lhs - rhs).max()
    R = np.conj(L)
    lhs = np.einsum("pab,qbc->pqac", R, L, optimize=True)
    rhs = np.einsum("qab,pbc->pqac", L, R, optimize=True)
    return mult, np.abs(lhs - rhs).max()


def dense_identity_gaps(L):
    """max |sum_m L_p[m, q] L_m - L_p L_q| and max |R_p L_q - L_q R_p| with
    R_p = conj(L_p), dense, one p at a time (D^3 memory)."""
    flat = L.reshape(len(L), -1)
    mult = comm = 0.0
    for Lp in L:
        mult = max(mult, float(np.abs((Lp.T @ flat).reshape(L.shape) - Lp @ L).max()))
        Rp = np.conj(Lp)
        comm = max(comm, float(np.abs(Rp @ L - L @ Rp).max()))
    return mult, comm


def frame_gap_bound(n, alpha):
    """The identity-gap bound that `algebra._frame` states for one block:
    4 k c eps + 2 n^2 eps^2, eps = 20 u c, c = sqrt(n/alpha), k = min(n, sqrt 8);
    0 for a 1 x 1 block."""
    if n == 1:
        return 0.0
    c = np.sqrt(n / alpha)
    eps = 20 * np.finfo(float).eps / 2 * c
    return 4 * min(n, np.sqrt(8)) * c * eps + 2 * n * n * eps**2


def check_blocks(gns):
    """Per block, check L against the trace oracle and return (measured
    gaps, bound).  L must be exactly zero off its blocks, and within 8 u c of
    the oracle on them."""
    L = basis_left_mults(gns)
    oracle = trace_left_mult(gns)
    alg = gns.algebra
    out = []
    for (S, T), n, alpha in zip(block_offsets([n * n for n in alg.block_sizes]),
                                alg.block_sizes, alg.trace_weights):
        rows = L[S:T]
        assert not (rows[:, :S].any() or rows[:, T:].any()
                    or rows[:, S:T, :S].any() or rows[:, S:T, T:].any())
        c = np.sqrt(n / alpha)
        assert np.abs(rows - oracle[S:T]).max() <= 8 * np.finfo(float).eps / 2 * c
        out.append((dense_identity_gaps(rows[:, S:T, S:T]), frame_gap_bound(n, alpha)))
    return out


GAP_CASES = WORKED + ["S4", "random2x3", "random4x5"]


@pytest.mark.parametrize("name", GAP_CASES)
def test_pattern_gaps_match_dense_oracle(name):
    # the gaps measured block by block over L's block pattern are those of
    # the whole L, and each block's stay within its stated bound
    gns = fd.gns_structure(_worked_algebra(name))
    blocks = check_blocks(gns)
    for (mult, comm), bound in blocks:
        assert max(mult, comm) <= bound <= OPERATOR_TOL
    whole = dense_identity_gaps(basis_left_mults(gns))
    for k in range(2):
        assert abs(max(gaps[k] for gaps, _ in blocks) - whole[k]) <= 1e-14


@pytest.mark.parametrize("name", GAP_CASES)
def test_pattern_gaps_match_dense_oracle_one_index_per_run(name):
    # dense_identity_gaps takes one first index p per pass, so that D = 64
    # and 100 fit; on these sizes it agrees with the all-at-once D^4 tensors
    L = basis_left_mults(fd.gns_structure(_worked_algebra(name)))
    for looped, at_once in zip(dense_identity_gaps(L), all_at_once_identity_gaps(L)):
        assert abs(looped - at_once) <= 1e-14


@pytest.mark.parametrize("shape", [(8,), (6, 8)])
def test_frame_bound_dominates_measured_gaps_large(shape):
    gns = fd.gns_structure(random_block_algebra(shape, seed=0))
    for (mult, comm), bound in check_blocks(gns):
        assert max(mult, comm) <= bound <= OPERATOR_TOL


def test_frame_bound_is_per_block():
    # blocks [1, 2, 3]: 1 x 1 blocks obey both identities for any entry
    gns = fd.gns_structure(random_block_algebra((1, 2, 3), seed=0))
    blocks = check_blocks(gns)
    assert blocks[0] == ((0.0, 0.0), 0.0)
    for (mult, comm), bound in blocks[1:]:
        assert max(mult, comm) <= bound <= OPERATOR_TOL


def test_small_weight_block_gaps_within_bound():
    # the gaps and their bound grow as n / alpha: at weight 1e-8 on M_2 the
    # bound exceeds OPERATOR_TOL, so an absolute gate on the gaps could
    # refuse this valid input; they hold by construction and are not gated
    g = np.zeros((3, 3), dtype=complex)
    g[1:, 1:] = SX
    h = np.diag([1.0, 1.0, -1.0]).astype(complex)
    gns = fd.gns_structure(fd.build_algebra([1, 2], [1 - 1e-8, 1e-8], [g, h]))
    (_, (gaps, bound)) = check_blocks(gns)
    assert max(gaps) <= bound
    assert bound > OPERATOR_TOL


def test_gns_structure_memory_bounded_at_d64():
    # the whole GNS structure at D = 64: neither the 4 MB stack L of the
    # basis elements' left multiplications nor one of their frames is built
    alg = random_block_algebra((8,), 0)
    tracemalloc.start()
    try:
        fd.gns_structure(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("shape", [(1, 1, 2, 3, 3), (1, 2, 3)])
def test_gns_structure_never_builds_basis_left_mults(monkeypatch, shape):
    # a whole delta report, S4's block shape first, allocates no D x D x D
    # array: the commutant acts one block at a time
    shapes = []
    for name in ("zeros", "empty"):
        def record(shape, *args, _alloc=getattr(np, name), **kwargs):
            shapes.append(tuple(np.atleast_1d(shape)))
            return _alloc(shape, *args, **kwargs)
        monkeypatch.setattr(np, name, record)
    alg = random_block_algebra(shape, seed=0)
    fd.delta_report(alg)
    D = sum(n * n for n in shape)
    assert alg.block_sizes == shape and shapes
    assert (D, D, D) not in shapes


def test_gns_structure_retains_no_d_cubed_array():
    # at D = 64 the basis left multiplications alone are 4 MB; the structure
    # keeps the trace vector and the generators' L, not them
    gns = fd.gns_structure(random_block_algebra((8,), 0))
    held = sum(v.nbytes for v in vars(gns).values() if isinstance(v, np.ndarray))
    assert held < 2**20


def _swap_rows(U):
    U[[0, 1]] = U[[1, 0]]
    return U


def _scale_row(U):
    U[1] *= 1 + 1e-6
    return U


@pytest.mark.parametrize("shape", [(2, 3), (1, 2)])
@pytest.mark.parametrize("wrong", [_swap_rows, np.transpose, _scale_row],
                         ids=["swap_rows", "transpose", "scale_row"])
def test_wrong_unit_map_fails_generator_check(monkeypatch, shape, wrong):
    # L is built from _unit_map unchecked; the generators' left
    # multiplications from the trace formula are what refuse a wrong one
    alg = random_block_algebra(shape, seed=5)
    unit_map = algebra_module._unit_map
    monkeypatch.setattr(algebra_module, "_unit_map",
                        lambda n: wrong(unit_map(n)) if n > 1 else unit_map(n))
    with pytest.raises(fd.FreedimError,
                       match=r"generator \d+ does not match the matrix-unit frame"):
        fd.gns_structure(alg)


def test_perturbed_generator_left_mult_fails_frame_check():
    gns = fd.gns_structure(random_block_algebra((2, 3), seed=5))
    _verify_gns(gns)
    gns.generator_left_mult[1][6, 9] += 1e-6
    with pytest.raises(fd.FreedimError, match="generator 1 does not match"):
        _verify_gns(gns)


U_ROUND = np.finfo(float).eps / 2


def tau_gram(gns):
    """tau(b_m b_q), summed as sum_ab (b_m[b, a] w[b]) b_q[a, b]: the
    evaluation whose distance from the identity `_verify_gns` bounds by 10 u.
    Weighting first keeps it finite at the smallest admitted weights."""
    D, b = gns.dim, dense_basis(gns)
    return (b * diag_weights(gns)[:, None]).reshape(D, -1) @ b.transpose(0, 2, 1).reshape(D, -1).T


def cyclicity_gap(gns):
    """max |L_{b_p} xi - e_p| over the basis elements, with L_{b_p} xi
    computed without a frame as conj(U) vec(b_p V), V = U^T xi as an n x n
    matrix of units: the evaluation that `_verify_gns` bounds by 12 u."""
    gaps, basis = [0.0], dense_basis(gns)
    for s, t, S, T, n, U in gns.blocks:
        V = (U.T @ gns.trace_vector[S:T]).reshape(n, n)
        hats = (basis[S:T, s:t, s:t] @ V).reshape(T - S, T - S) @ np.conj(U).T
        gaps.append(np.abs(hats - np.eye(T - S)).max())
    return max(gaps)


def smallest_admitted_weight(n):
    """The least double alpha for which sqrt(n / alpha) is finite."""
    alpha = n / sys.float_info.max
    while math.isinf(n / alpha):
        alpha = math.nextafter(alpha, 1.0)
    while not math.isinf(n / math.nextafter(alpha, 0.0)):
        alpha = math.nextafter(alpha, 0.0)
    return alpha


def test_frames_and_closed_form_recover_coordinates_from_trace_vector():
    # each basis element's frame applied to the trace vector gives its
    # coordinates e_p, and so does the closed form that builds no frame
    gns = fd.gns_structure(random_block_algebra((1, 2, 3), seed=5))
    basis = dense_basis(gns)
    for (s, t), (S, T), n in algebra_module._block_ranges(gns.algebra.block_sizes):
        U = _unit_map(n)
        hats = [_frame(b, U) @ gns.trace_vector[S:T] for b in basis[S:T, s:t, s:t]]
        assert np.abs(np.array(hats) - np.eye(T - S)).max() <= 1e-13
    assert cyclicity_gap(gns) <= 12 * U_ROUND


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 1), (1, 1, 2, 3, 3)], ids=str)
@pytest.mark.parametrize("alpha", [1e-3, 1e-8, 1e-16, 1e-100, 1e-300, None],
                         ids=["1e-3", "1e-8", "1e-16", "1e-100", "1e-300", "smallest"])
def test_orthonormality_and_cyclicity_within_bound_down_to_smallest_weight(shape, alpha):
    # the last block at weight alpha, the others at random weights summing
    # to 1 - alpha; just below the smallest admitted weight the scale
    # sqrt(n / alpha) overflows, and _validated refuses it
    n = shape[-1]
    alpha = smallest_admitted_weight(n) if alpha is None else alpha
    rest = np.random.default_rng(len(shape)).uniform(0.5, 1.5, len(shape) - 1)
    rest /= rest.sum()
    gens = random_block_algebra(shape, seed=0).generators
    gns = fd.gns_structure(fd.build_algebra(shape, [*rest * (1 - alpha), alpha], gens))
    assert np.abs(tau_gram(gns) - np.eye(gns.dim)).max() <= 10 * U_ROUND
    assert cyclicity_gap(gns) <= 12 * U_ROUND
    below = math.nextafter(smallest_admitted_weight(n), 0.0)
    with pytest.raises(fd.WeightError, match=rf"block {len(shape) - 1} \(size {n}\)"):
        fd.build_algebra(shape, [*rest * (1 - below), below], gens)


def test_gns_check_scales_to_d100():
    alg = random_block_algebra((6, 8), seed=1)
    gns = fd.gns_structure(alg)
    assert gns.dim == 100


@pytest.mark.parametrize("name", ["S4", "random4x5"])
def test_block_frames_equal_element_frames(name):
    # one `_frame` call on a block's whole stack gives each element's frame
    # bit for bit
    gns = fd.gns_structure(_worked_algebra(name))
    L, basis = basis_left_mults(gns), dense_basis(gns)
    for (s, t), (S, T), n in algebra_module._block_ranges(gns.algebra.block_sizes):
        U = algebra_module._unit_map(n)
        for p in range(S, T):
            frame = algebra_module._frame(basis[p, s:t, s:t], U)
            assert np.array_equal(L[p, S:T, S:T], frame)


# ---------------------------------------------------------------------------
# index-built block coordinates against the per-entry loops they replaced
# ---------------------------------------------------------------------------

def _selfadjoint_basis_loop(sizes, weights):
    N = sum(sizes)
    mats = []
    for (start, _), n, alpha in zip(block_offsets(sizes), sizes, weights):
        diag_scale, pair_scale = np.sqrt(n / alpha), np.sqrt(n / (2.0 * alpha))
        for k in range(n):
            b = np.zeros((N, N), dtype=complex)
            b[start + k, start + k] = diag_scale
            mats.append(b)
        for k in range(n):
            for l in range(k + 1, n):
                b = np.zeros((N, N), dtype=complex)
                b[start + k, start + l] = b[start + l, start + k] = pair_scale
                c = np.zeros((N, N), dtype=complex)
                c[start + k, start + l] = 1j * pair_scale
                c[start + l, start + k] = -1j * pair_scale
                mats += [b, c]
    return np.array(mats)


@pytest.mark.parametrize("sizes", [(1,), (3,), (1, 2), (2, 3, 1), (4, 1, 1)])
def test_block_coordinates_match_reference_loops_bitwise(sizes):
    rng = np.random.default_rng(sum(sizes))
    N, D = sum(sizes), sum(n * n for n in sizes)
    x, v = _with_negative_zeros(rng, (3, N, N)), _with_negative_zeros(rng, (3, D))
    flat = np.array([np.concatenate([m[s:t, s:t].ravel() for s, t in block_offsets(sizes)])
                     for m in x])
    unflat = np.zeros((3, N, N), dtype=complex)
    pos = 0
    for (s, t), n in zip(block_offsets(sizes), sizes):
        unflat[:, s:t, s:t] = v[:, pos:pos + n * n].reshape(3, n, n)
        pos += n * n
    assert _bitwise_equal(_flatten(x, sizes), flat)
    assert _bitwise_equal(_flatten(x[0], sizes), flat[0])
    assert _bitwise_equal(_unflatten(v, sizes), unflat)
    assert _bitwise_equal(_unflatten(v[0], sizes), unflat[0])
    alg = random_block_algebra(sizes, seed=sum(sizes))
    assert _bitwise_equal(_orthonormal_selfadjoint_basis(alg),
                          _selfadjoint_basis_loop(sizes, alg.trace_weights))
    for n in sizes:
        U, blocks = _unit_map(n), _with_negative_zeros(rng, (2, n, n))
        want = np.array([np.conj(U) @ np.kron(b, np.eye(n)) @ U.T for b in blocks])
        assert _bitwise_equal(_frame(blocks, U), want)
        assert _bitwise_equal(_frame(blocks[0], U), want[0])


def _unit_map_loop(n):
    U = np.zeros((n * n, n * n), dtype=complex)
    s = np.sqrt(0.5)
    row = n
    for k in range(n):
        U[k, k * n + k] = 1.0
        for l in range(k + 1, n):
            U[row, [k * n + l, l * n + k]] = s
            U[row + 1, [k * n + l, l * n + k]] = 1j * s, -1j * s
            row += 2
    return U


def test_unit_map_matches_reference_loop_bitwise():
    for n in range(1, 16):
        assert _bitwise_equal(_unit_map(n), _unit_map_loop(n))


def _word_span_loop(block_sizes, generators):
    """`word_span` as it was: one more round of products past a full span."""
    sizes = tuple(block_sizes)
    ambient = sum(n * n for n in sizes)
    span = algebra_module.numerical_span
    basis = span(_flatten(np.array([np.eye(sum(sizes)), *generators], dtype=complex), sizes))
    for _ in range(ambient):
        if not generators:
            break
        products = _unflatten(basis, sizes)[:, None] @ np.array(generators)
        grown = span(np.vstack([basis, _flatten(products, sizes).reshape(-1, ambient)]))
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown
    return basis


def _doubled(*mats):
    """Each 2 x 2 matrix twice, as the generator of M2 inside M2 (+) M2."""
    out = []
    for m in mats:
        g = np.zeros((4, 4), dtype=complex)
        g[:2, :2] = g[2:, 2:] = m
        out.append(g)
    return out


WORD_SPAN_CASES = [((2,), [SX, SZ]), ((1, 1), [np.diag([0.0, 1.0])]), ((2,), [SX]),
                   ((2, 2), _doubled(SX, SZ)), ((2,), [])] + [
    (shape, list(random_block_algebra(shape, seed).generators))
    for seed, shape in enumerate([(1,), (1, 2), (3,), (1, 2, 3), (3, 3), (2, 2, 1)])]


@pytest.mark.parametrize("sizes, gens", WORD_SPAN_CASES)
def test_word_span_stops_at_full_span(sizes, gens, monkeypatch):
    # a full span is returned without the round that would confirm it; a
    # span short of the algebra, which blockify reads, is unchanged bit for bit
    calls, span = [], algebra_module.numerical_span
    monkeypatch.setattr(algebra_module, "numerical_span",
                        lambda a: calls.append(len(a)) or span(a))
    gens = algebra_module.unit_scaled([np.asarray(g, dtype=complex) for g in gens])
    got, got_calls = algebra_module.word_span(sizes, gens), len(calls)
    want, want_calls = _word_span_loop(sizes, gens), len(calls) - got_calls
    full = sum(n * n for n in sizes)
    assert got.shape[0] == want.shape[0]
    if got.shape[0] == full and gens:
        assert got_calls == want_calls - 1
    else:
        assert got_calls == want_calls and _bitwise_equal(got, want)


# ---------------------------------------------------------------------------
# contractions without a per-call path search against the searched einsums
# ---------------------------------------------------------------------------

BITWISE_SHAPES = [(1,), (2,), (5,), (10,), (1, 1, 2, 3, 3), (1, 2, 3, 4), (4, 5), (6, 8)]


def _bare_gns(sizes, seed):
    """The trace representation of a generic pair on `sizes` at random
    weights (no check here reads the generators), and a generator seeded
    with `seed`."""
    return fd.gns_structure(random_block_algebra(sizes, seed)), np.random.default_rng(seed)


@pytest.mark.parametrize("sizes", BITWISE_SHAPES, ids=str)
def test_trace_vector_matches_searched_einsum_bitwise(sizes):
    for seed in range(5):
        gns, _ = _bare_gns(sizes, seed)
        basis = dense_basis(gns)
        searched = np.einsum("mab,ba,b->m", basis, np.eye(basis.shape[1]), diag_weights(gns),
                             optimize=True)
        assert _bitwise_equal(gns.trace_vector, searched.real)


def _selfadjoint_with_negative_zeros(rng, sizes):
    """A self-adjoint matrix on the blocks `sizes` with -0.0 among the real
    and imaginary parts of its entries, on the blocks and off them."""
    N = sum(sizes)
    x = _with_negative_zeros(rng, (N, N))
    upper = np.triu_indices(N, 1)
    x.T[upper] = x[upper].conj()
    x.imag[np.diag_indices(N)] = -0.0
    off = np.ones((N, N), dtype=bool)
    for s, t in block_offsets(sizes):
        off[s:t, s:t] = False
    x.real[off] = x.imag[off] = -0.0
    return x


@pytest.mark.parametrize("sizes", BITWISE_SHAPES, ids=str)
def test_left_mults_share_one_path_bitwise(sizes):
    # the generators' left multiplications, contracted along one path, are
    # one search per element, on generators with -0.0 entries
    rng = np.random.default_rng(11)
    xs = [_selfadjoint_with_negative_zeros(rng, sizes) for _ in range(3)]
    w = rng.uniform(0.5, 1.5, len(sizes))
    gns = fd.gns_structure(fd.build_algebra(sizes, list(w / w.sum()), xs))
    assert _bitwise_equal(gns.generator_left_mult, left_mults(gns, xs))
    empty = fd.gns_structure(fd.build_algebra([1], [1.0], []))
    assert empty.generator_left_mult.shape == (0, 1, 1)


@pytest.mark.parametrize("sizes", [(1, 2), (1, 1), (2, 2)], ids=str)
def test_second_structure_of_a_shape_searches_no_path(monkeypatch, sizes):
    # the left multiplications' path depends on the operand shapes only
    searches, einsum_path = [], np.einsum_path
    monkeypatch.setattr(np, "einsum_path",
                        lambda *a, **kw: searches.append(1) or einsum_path(*a, **kw))
    first = fd.gns_structure(random_block_algebra(sizes, seed=1))
    searches.clear()
    second = fd.gns_structure(random_block_algebra(sizes, seed=2))
    assert searches == []
    assert first.generator_left_mult.shape == second.generator_left_mult.shape


@pytest.mark.parametrize("sizes", BITWISE_SHAPES, ids=str)
def test_gram_matches_searched_einsum(sizes):
    # at random weights the Gram matrix is within the 10 u of the identity
    # that `_verify_gns` states, and so is the searched contraction
    for seed in range(3):
        gns, _ = _bare_gns(sizes, seed)
        gram = tau_gram(gns)
        basis = dense_basis(gns)
        searched = np.einsum("qab,mba,b->mq", basis, basis, diag_weights(gns), optimize=True)
        assert np.abs(gram - searched).max() <= 1e-15
        assert np.abs(gram - np.eye(gns.dim)).max() <= 10 * U_ROUND


# ---------------------------------------------------------------------------
# the structure without its dense basis against the dense-basis references
# ---------------------------------------------------------------------------

ONES20 = "random" + "x".join(["1"] * 20)
# the shipped shapes, S4's block form, and 20 blocks of size 1
STRUCTURE_CASES = WORKED + ["S4", ONES20]


def _case_id(name):
    return "ones20" if name == ONES20 else name


@pytest.mark.parametrize("name", STRUCTURE_CASES, ids=_case_id)
def test_commutant_actions_are_the_dense_basis_frames_bitwise(name):
    # each block's basis built alone frames as the block's slice of the dense basis
    gns = fd.gns_structure(_worked_algebra(name))
    basis = dense_basis(gns)
    want = [(S, T, _frame(basis[S:T, s:t, s:t], U).transpose(0, 2, 1))
            for s, t, S, T, _, U in gns.blocks]
    got = gns.commutant_actions
    assert [(S, T) for S, T, _ in got] == [(S, T) for S, T, _ in want]
    assert all(_bitwise_equal(a, b) for (_, _, a), (_, _, b) in zip(got, want))


@pytest.mark.parametrize("name", STRUCTURE_CASES, ids=_case_id)
def test_generator_left_mult_is_the_trace_formula_bitwise(name):
    gns = fd.gns_structure(_worked_algebra(name))
    assert _bitwise_equal(gns.generator_left_mult, left_mults(gns, gns.algebra.generators))


@pytest.mark.parametrize("name", STRUCTURE_CASES, ids=_case_id)
def test_gns_structure_keeps_no_dense_basis(name):
    # the one array of three axes it keeps is the generators' (n, D, D) stack;
    # the dense (D, N, N) basis lives only inside gns_structure
    gns = fd.gns_structure(_worked_algebra(name))
    gns.commutant_actions
    held = {k: v.shape for k, v in vars(gns).items() if isinstance(v, np.ndarray) and v.ndim >= 3}
    assert held == {"generator_left_mult": (len(gns.algebra.generators), gns.dim, gns.dim)}
