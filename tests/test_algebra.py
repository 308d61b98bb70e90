import tracemalloc

import numpy as np
import pytest

import freedim as fd
from conftest import SX, SY, SZ, random_block_algebra, random_hermitian
from freedim.algebra import _frame_gaps, _verify_gns
from freedim.tolerances import OPERATOR_TOL
from test_cocycles import WORKED, _worked_algebra


def local_tau(x, block_sizes, weights):
    """Independent trace oracle: weighted normalized block traces."""
    out = 0.0 + 0.0j
    start = 0
    for n, a in zip(block_sizes, weights):
        out += a * np.trace(x[start : start + n, start : start + n]) / n
        start += n
    return out


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_two_point_algebra_valid(c2):
    assert c2.dim == 2
    assert c2.generates
    assert c2.matrix_size == 2


def test_full_matrix_algebra_valid(m2):
    assert m2.dim == 4
    assert m2.generates


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
    sub = fd.build_algebra([2], [1.0], [SX.copy()], subalgebra_mode=True)
    assert not sub.generates
    assert sub.generated_dim == 2
    eff = sub.effective_algebra()
    assert eff.block_sizes == (1, 1)
    assert eff.generates
    np.testing.assert_allclose(eff.trace_weights, [0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# generation check
# ---------------------------------------------------------------------------

def test_generation_check_m2_single_pauli():
    # oracle: the span of all words in sigma_x alone stabilizes at {I, sigma_x}
    words = [np.eye(2, dtype=complex), SX, SX @ SX, SX @ SX @ SX]
    oracle_dim = np.linalg.matrix_rank(np.array([w.ravel() for w in words]))
    assert oracle_dim == 2

    alg = fd.build_algebra([2], [1.0], [SX.copy()], subalgebra_mode=True)
    dim, generates = fd.generation_check(alg)
    assert (dim, generates) == (2, False)


def test_generation_check_m2_pair(m2):
    # oracle: words of length <= 2 in sigma_x, sigma_z already span M_2
    words = [np.eye(2, dtype=complex), SX, SZ, SX @ SZ, SZ @ SX, SX @ SX]
    assert np.linalg.matrix_rank(np.array([w.ravel() for w in words])) == 4

    dim, generates = fd.generation_check(m2)
    assert (dim, generates) == (4, True)


def test_generation_check_scalars():
    alg = fd.build_algebra([1], [1.0], [np.array([[1.0]], dtype=complex)])
    assert fd.generation_check(alg) == (1, True)


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
        [local_tau(b, c2.block_sizes, c2.trace_weights) for b in gns.basis]
    )
    np.testing.assert_allclose(gns.trace_vector, expected.real, atol=1e-12)
    np.testing.assert_allclose(gns.trace_vector, [1 / np.sqrt(2)] * 2, atol=1e-12)
    np.testing.assert_allclose(gns.p1, np.full((2, 2), 0.5), atol=1e-12)


def test_gns_left_mult_two_point(c2):
    gns = fd.gns_structure(c2)
    X = c2.generators[0]
    # oracle: multiply basis elements by X and re-expand with the local trace
    expected = np.zeros((2, 2), dtype=complex)
    for m in range(2):
        for q in range(2):
            expected[m, q] = local_tau(
                gns.basis[m] @ X @ gns.basis[q], c2.block_sizes, c2.trace_weights
            )
    np.testing.assert_allclose(gns.left_mult(X), expected, atol=1e-12)
    np.testing.assert_allclose(gns.left_mult(X), np.diag([0.0, 1.0]), atol=1e-12)


def test_conjugation_fixes_trace_vector(c2, m2, c1m2):
    for alg in (c2, m2, c1m2):
        gns = fd.gns_structure(alg)
        np.testing.assert_allclose(
            gns.conjugation(gns.trace_vector), gns.trace_vector, atol=1e-12
        )


def test_conjugation_is_involutive(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    np.testing.assert_array_equal(gns.conjugation(gns.conjugation(v)), v)
    # conjugation implements the adjoint on coordinates
    a = gns.element(v)
    np.testing.assert_allclose(
        gns.coords(a.conj().T), gns.conjugation(gns.coords(a)), atol=1e-12
    )


def test_gns_cyclicity(m2, c1m2):
    rng = np.random.default_rng(0)
    for alg in (m2, c1m2):
        gns = fd.gns_structure(alg)
        for _ in range(5):
            coeff = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            a = gns.element(coeff)
            np.testing.assert_allclose(
                gns.left_mult(a) @ gns.trace_vector, gns.coords(a), atol=1e-10
            )


def test_right_mult_is_right_multiplication(m2):
    # <J L_{a*} J x_hat, y_hat> = <(x a)_hat, y_hat> on all basis pairs
    gns = fd.gns_structure(m2)
    D = gns.dim
    for a_idx in range(D):
        a = gns.basis[a_idx]
        R = gns.right_mult(a)
        for x_idx in range(D):
            direct = gns.coords(gns.basis[x_idx] @ a)
            np.testing.assert_allclose(R[:, x_idx], direct, atol=1e-10)


def test_left_mult_is_star_homomorphism(m2, c1m2):
    rng = np.random.default_rng(1)
    for alg in (m2, c1m2):
        gns = fd.gns_structure(alg)
        for _ in range(4):
            a = gns.element(rng.standard_normal(alg.dim)
                            + 1j * rng.standard_normal(alg.dim))
            b = gns.element(rng.standard_normal(alg.dim)
                            + 1j * rng.standard_normal(alg.dim))
            np.testing.assert_allclose(
                gns.left_mult(a @ b), gns.left_mult(a) @ gns.left_mult(b), atol=1e-10
            )
            np.testing.assert_allclose(
                gns.left_mult(a.conj().T), gns.left_mult(a).conj().T, atol=1e-10
            )


def test_traciality_on_basis_pairs(c1m2):
    gns = fd.gns_structure(c1m2)
    for p in range(c1m2.dim):
        for q in range(c1m2.dim):
            ab = c1m2.trace(gns.basis[p] @ gns.basis[q])
            ba = c1m2.trace(gns.basis[q] @ gns.basis[p])
            assert abs(ab - ba) <= 1e-12


def test_coordinates_reproduce_inner_product(c1m2):
    rng = np.random.default_rng(2)
    gns = fd.gns_structure(c1m2)
    for _ in range(5):
        a = gns.element(rng.standard_normal(c1m2.dim)
                        + 1j * rng.standard_normal(c1m2.dim))
        b = gns.element(rng.standard_normal(c1m2.dim)
                        + 1j * rng.standard_normal(c1m2.dim))
        lhs = np.vdot(gns.coords(b), gns.coords(a))  # <a, b> in coordinates
        rhs = c1m2.inner(a, b)
        assert abs(lhs - rhs) <= 1e-10


def test_pauli_pair_with_y_also_generates():
    alg = fd.build_algebra([2], [1.0], [SX.copy(), SY.copy(), SZ.copy()])
    assert alg.generates


def test_random_hermitian_helper_shape():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    assert np.abs(h - h.conj().T).max() < 1e-14


# ---------------------------------------------------------------------------
# the GNS identity check in the matrix-unit frame, against measured gaps
# ---------------------------------------------------------------------------

def dense_identity_gaps(L):
    """The multiplicativity and commutant defects as dense D^4 tensors."""
    lhs = np.einsum("pmq,mrs->pqrs", L, L, optimize=True)
    rhs = np.einsum("prt,qts->pqrs", L, L, optimize=True)
    mult = np.abs(lhs - rhs).max()
    R = np.conj(L)
    lhs = np.einsum("pab,qbc->pqac", R, L, optimize=True)
    rhs = np.einsum("qab,pbc->pqac", L, R, optimize=True)
    return mult, np.abs(lhs - rhs).max()


def _join(left, right):
    """All index pairs (i, j) with left[i] == right[j]."""
    order = np.argsort(right)
    ranked = right[order]
    lo = np.searchsorted(ranked, left, side="left")
    counts = np.searchsorted(ranked, left, side="right") - lo
    i = np.repeat(np.arange(left.size), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    j = order[np.repeat(lo, counts) + np.arange(i.size) - starts]
    return i, j


def _max_gap(D, plus, minus):
    """max over 4-index keys of |sum of `plus` terms - sum of `minus` terms|;
    `plus` and `minus` are (four index arrays, values)."""
    keys = np.concatenate(
        [np.ravel_multi_index(idx, (D, D, D, D)) for idx, _ in (plus, minus)]
    )
    vals = np.concatenate([plus[1], -minus[1]])
    uniq, slot = np.unique(keys, return_inverse=True)
    gap = np.hypot(np.bincount(slot, vals.real, uniq.size),
                   np.bincount(slot, vals.imag, uniq.size))
    return float(gap.max(initial=0.0))


_PAIR_BUDGET = 1 << 15


def _identity_gaps(L, budget=_PAIR_BUDGET):
    """The two gaps measured over the nonzero pattern of L: the products of
    two nonzero entries, from the nonzero triplets (p, m, q) joined on their
    shared index, summed per 4-index key, in runs of consecutive first
    indices that form about `budget` joined pairs each.  Every left-out term
    has an exact-zero factor, so these are the dense maxima up to summation
    order, without the D^4 tensors."""
    D = L.shape[0]
    p, m, q = np.nonzero(L)  # p ascending
    v = L[p, m, q]
    per_triplet = (np.bincount(p, minlength=D)[m] + np.bincount(m, minlength=D)[q]
                   + np.bincount(q, minlength=D)[m])
    cuts, load = [0], 0
    for first, pairs in enumerate(np.bincount(p, per_triplet, D)):
        if load and load + pairs > budget:
            cuts.append(first)
            load = 0
        load += pairs
    ends = np.searchsorted(p, cuts + [D])
    mult = comm = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        # i's last index meets j's middle index: (L_p L_q), R_p L_q
        i, j = _join(q[lo:hi], m)
        i += lo
        outer = (p[i], p[j], m[i], q[j])
        # s's middle index meets t's first index: sum_m L_p[m, q] L_m
        s, t = _join(m[lo:hi], p)
        s += lo
        mult = max(mult, _max_gap(
            D, ((p[s], q[s], m[t], q[t]), v[s] * v[t]), (outer, v[i] * v[j])
        ))
        # the same join with p of the right triplet in the run: L_q R_p
        j2, i2 = _join(m[lo:hi], q)
        j2 += lo
        comm = max(comm, _max_gap(
            D,
            (outer, np.conj(v[i]) * v[j]),
            ((p[j2], p[i2], m[i2], q[j2]), v[i2] * np.conj(v[j2])),
        ))
    return mult, comm


GAP_CASES = WORKED + ["S4", "random2x3", "random4x5"]


def _check_pattern_gaps(name, budget=_PAIR_BUDGET):
    gns = fd.gns_structure(_worked_algebra(name))
    L = gns.basis_left_mult
    mult, comm = _identity_gaps(L, budget)
    dense_mult, dense_comm = dense_identity_gaps(L)
    assert abs(mult - dense_mult) <= 1e-14
    assert abs(comm - dense_comm) <= 1e-14
    bound = max(_frame_gaps(gns)[0])
    assert max(mult, comm, dense_mult, dense_comm) <= bound <= OPERATOR_TOL


@pytest.mark.parametrize("name", GAP_CASES)
def test_pattern_gaps_match_dense_oracle(name):
    _check_pattern_gaps(name)


@pytest.mark.parametrize("name", GAP_CASES)
def test_pattern_gaps_match_dense_oracle_one_index_per_run(name):
    # a budget of one pair puts every first index in a run of its own
    _check_pattern_gaps(name, budget=1)


@pytest.mark.parametrize("shape", [(8,), (6, 8)])
def test_frame_bound_dominates_measured_gaps_large(shape):
    gns = fd.gns_structure(random_block_algebra(shape, seed=0))
    bounds, gen_gaps = _frame_gaps(gns)
    assert max(_identity_gaps(gns.basis_left_mult)) <= max(bounds) <= OPERATOR_TOL
    assert max(gen_gaps) <= OPERATOR_TOL


def test_frame_bound_is_per_block():
    # blocks [1, 2, 3]: 1 x 1 blocks obey both identities for any entry
    gns = fd.gns_structure(random_block_algebra((1, 2, 3), seed=0))
    bounds, _ = _frame_gaps(gns)
    assert bounds[0] == 0.0
    assert 0.0 < bounds[1] <= OPERATOR_TOL and 0.0 < bounds[2] <= OPERATOR_TOL


def test_small_weight_block_falls_back_to_measured_gaps():
    # the bound grows as n / alpha: at weight 1e-5 on M_2 it exceeds the
    # gate, the measured gaps (about 3e-11) do not, and the input passes
    g = np.zeros((3, 3), dtype=complex)
    g[1:, 1:] = SX
    h = np.diag([1.0, 1.0, -1.0]).astype(complex)
    alg = fd.build_algebra([1, 2], [1 - 1e-5, 1e-5], [g, h])
    gns = fd.gns_structure(alg)
    assert max(_frame_gaps(gns)[0]) > OPERATOR_TOL
    assert max(_identity_gaps(gns.basis_left_mult)) <= OPERATOR_TOL


def test_identity_gaps_memory_bounded_at_d64():
    # the whole GNS check at D = 64; the identity joins alone peaked at
    # 46 MB when all 365 k joined pairs were formed at once
    gns = fd.gns_structure(random_block_algebra((8,), 0))
    tracemalloc.start()
    try:
        _verify_gns(gns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("where", ["structural_zero", "nonzero"])
def test_perturbed_left_mult_fails_identity_check(where):
    gns = fd.gns_structure(random_block_algebra((2, 3), seed=5))
    L = gns.basis_left_mult
    p = 7
    zero = (L[p] == 0) & (L[p].T == 0)
    m, q = np.argwhere(np.triu(zero if where == "structural_zero" else ~zero, 1))[0]
    # a real symmetric bump keeps L_p Hermitian, so only the product
    # identities can catch it
    L[p, m, q] += 1e-6
    L[p, q, m] += 1e-6
    assert np.abs(L - L.conj().transpose(0, 2, 1)).max() <= OPERATOR_TOL
    assert max(dense_identity_gaps(L)) > OPERATOR_TOL
    assert max(_identity_gaps(L)) > OPERATOR_TOL
    with pytest.raises(fd.FreedimError, match="multiplicativity|commutant"):
        _verify_gns(gns)


def test_perturbed_generator_left_mult_fails_frame_check():
    gns = fd.gns_structure(random_block_algebra((2, 3), seed=5))
    _verify_gns(gns)
    gns.generator_left_mult[1][6, 9] += 1e-6
    with pytest.raises(fd.FreedimError, match="generator 1 does not match"):
        _verify_gns(gns)


def test_gns_check_scales_to_d100():
    alg = random_block_algebra((6, 8), seed=1)
    gns = fd.gns_structure(alg)
    assert gns.dim == 100
