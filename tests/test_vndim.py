import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import freedim as fd
import freedim.vndim as vndim
import freedim.wedderburn as wedderburn
from conftest import (SX, SZ, basis_left_mults, central_block_size, embed_c_m2,
                      invariant_complement, isometries_by_full_commutant, left_mults,
                      make_c1m2, make_c2, make_m2, random_block_algebra, random_hermitian,
                      svd_block_ranks)
from freedim.algebra import _unflatten, block_offsets
from freedim.groups import left_regular_matrices, minimal_generating_set
from freedim.tolerances import INVARIANCE_TOL, OPERATOR_TOL, SUBSPACE_TOL
from freedim.vndim import to_fraction


def joint_commutator_nullity(Ls):
    """Independent oracle: nullity of Y -> ([Y, L_j])_j via a Kron stack."""
    D = Ls[0].shape[0]
    eye = np.eye(D)
    blocks = [np.kron(eye, L.T) - np.kron(L, eye) for L in Ls]  # row-major vec
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    return D * D - rank


def all_unit_cocycles(gns, generators):
    """Test-side construction of {([Y, L_j])_j : Y matrix unit}."""
    Ls = left_mults(gns, generators)
    D = gns.dim
    out = []
    for p in range(D):
        for q in range(D):
            Y = np.zeros((D, D), dtype=complex)
            Y[p, q] = 1.0
            out.append([Y @ L - L @ Y for L in Ls])
    return np.array(out)


# ---------------------------------------------------------------------------
# numerical span
# ---------------------------------------------------------------------------

def test_numerical_span_scaled_pair():
    v = np.array([1.0, 2.0, 3.0], dtype=complex)
    basis = fd.numerical_span(np.array([v, 2 * v]))
    assert basis.shape[0] == 1


def test_numerical_span_empty():
    basis = fd.numerical_span(np.zeros((0, 5)))
    assert basis.shape == (0, 5)


def test_numerical_span_overcomplete_random():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    assert np.linalg.matrix_rank(vecs) == 8  # oracle
    assert fd.numerical_span(vecs).shape[0] == 8


def test_numerical_span_orthonormal_rows():
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((6, 10))
    basis = fd.numerical_span(vecs)
    gram = basis @ basis.conj().T
    np.testing.assert_allclose(gram, np.eye(basis.shape[0]), atol=1e-10)


# ---------------------------------------------------------------------------
# central decomposition
# ---------------------------------------------------------------------------

def d_coordinate_center(gns, seed=0):
    """Oracle: the central projections z_i, resolved as central_decomposition
    resolves them, checked through their left multiplications Z_i on L2.

    Returns (sizes, weights, Z).  AssertionError unless the sizes (from the
    SVD rank of z_i A) and the weights are the declared ones, and the Z_i
    sum to the identity, are orthogonal projections, are each the 0/1
    indicator of their block's coordinates and commute with every basis
    element's left multiplication.
    """
    alg = gns.algebra
    N = alg.matrix_size
    units = np.array([_unflatten(e, alg.block_sizes) for e in np.eye(alg.dim)])
    center = wedderburn.commutant_basis(list(alg.generators),
                                        within=units.reshape(-1, N * N))
    zs = wedderburn.minimal_central_projections(units, center,
                                                np.random.default_rng(seed))
    sizes = tuple(central_block_size(z, units) for z in zs)
    weights = tuple(alg.trace(z).real for z in zs)
    assert sizes == alg.block_sizes
    assert all(abs(w - a) <= 1e-8 for w, a in zip(weights, alg.trace_weights))

    Z = left_mults(gns, zs)
    D = gns.dim
    assert np.abs(Z.sum(axis=0) - np.eye(D)).max() <= OPERATOR_TOL
    for i in range(len(zs)):
        for j in range(len(zs)):
            expect = Z[i] if i == j else 0.0
            assert np.abs(Z[i] @ Z[j] - expect).max() <= OPERATOR_TOL
    for Zi, (start, stop) in zip(Z, block_offsets([n * n for n in sizes])):
        indicator = np.zeros(D)
        indicator[start:stop] = 1.0
        assert np.abs(Zi - np.diag(indicator)).max() <= 1e-10
    L = basis_left_mults(gns)
    for Zi in Z:
        comm = np.einsum("ab,pbc->pac", Zi, L) - np.einsum("pab,bc->pac", L, Zi)
        assert np.abs(comm).max() <= OPERATOR_TOL
    return sizes, weights, Z


def _s3_regular():
    return fd.regular_rep_algebra(fd.symmetric_group(3))


CENTER_CASES = [("c2", make_c2), ("m2", make_m2), ("c1m2", make_c1m2),
                ("S3_regular", _s3_regular)] + [
    (f"random{shape}_{seed}", lambda shape=shape, seed=seed:
     random_block_algebra(shape, seed))
    for shape in [(1, 1), (1, 2), (2, 3), (1, 1, 2), (4,)] for seed in range(4)]


@pytest.mark.parametrize("build", [b for _, b in CENTER_CASES],
                         ids=[name for name, _ in CENTER_CASES])
def test_center_certificate_matches_d_coordinate_oracle(build):
    gns = fd.gns_structure(build())
    for seed in range(4):
        _, weights, _ = d_coordinate_center(gns, seed)
        assert fd.central_decomposition(gns.algebra, seed=seed) == weights  # bitwise


def test_central_decomposition_two_point(c2):
    gns = fd.gns_structure(c2)
    weights = fd.central_decomposition(c2)
    sizes, _, Zs = d_coordinate_center(gns)
    assert sizes == (1, 1)
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)
    for Z in Zs:
        assert abs(np.trace(Z).real - 1.0) < 1e-9  # rank one on L2


def test_central_decomposition_factor(m2):
    gns = fd.gns_structure(m2)
    weights = fd.central_decomposition(m2)
    sizes, _, Zs = d_coordinate_center(gns)
    assert sizes == (2,)
    np.testing.assert_allclose(weights, [1.0], atol=1e-12)
    np.testing.assert_allclose(Zs[0], np.eye(4), atol=1e-10)


def test_central_decomposition_s3_regular():
    table = fd.symmetric_group(3)
    alg = fd.regular_rep_algebra(table)
    gns = fd.gns_structure(alg)
    weights = fd.central_decomposition(alg)
    sizes = d_coordinate_center(gns)[0]
    assert sorted(sizes) == [1, 1, 2]
    assert abs(sum(weights) - 1.0) < 1e-12
    assert sum(n * n for n in sizes) == 6
    np.testing.assert_allclose(sorted(weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-9)


def test_recovered_matches_declared(c1m2):
    gns = fd.gns_structure(c1m2)
    weights = fd.central_decomposition(c1m2)
    assert d_coordinate_center(gns)[0] == c1m2.block_sizes
    np.testing.assert_allclose(weights, c1m2.trace_weights, atol=1e-9)


def test_center_resolution_error_after_retries(m2):
    # a degenerate "random" element never separates two central blocks
    from freedim.wedderburn import minimal_central_projections

    class ZeroRng:
        def standard_normal(self, n):
            return np.zeros(n)

    N = 2
    center = np.array([np.eye(N, dtype=complex),
                       np.diag([1.0, -1.0]).astype(complex)])
    units = []
    for a in range(N):
        for b in range(N):
            E = np.zeros((N, N), dtype=complex)
            E[a, b] = 1.0
            units.append(E)
    with pytest.raises(fd.CenterResolutionError):
        minimal_central_projections(np.array(units), center, ZeroRng())


def _diagonal_units(N):
    units = np.zeros((N, N, N), dtype=complex)
    units[np.arange(N), np.arange(N), np.arange(N)] = 1.0
    return units


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


# Eigenvectors whose 1-column clusters leave the diagonal algebra of M_4 at
# columns 0 and 1 (residual sin(0.2) / sqrt 2 = 1.40e-01) and at columns 2
# and 3 (residual 1 / sqrt 2 = 7.07e-01).
_TILTED = np.block([[_rotation(0.1), np.zeros((2, 2))],
                    [np.zeros((2, 2)), _rotation(np.pi / 4)]]).astype(complex)
_SINGLETONS = [(0, 1), (1, 2), (2, 3), (3, 4)]
_LEFT = "spectral projection left the algebra (residual 1.40e-01)"
_FOUND = "found 2 eigenvalue clusters, expected 4"


@pytest.mark.parametrize("draws,problem", [
    ([(np.eye(4), [(0, 2), (2, 4)])] * 5, _FOUND),
    ([(_TILTED, _SINGLETONS)] * 5, _LEFT),
    ([(np.eye(4), [(0, 2), (2, 4)])] * 4 + [(_TILTED, _SINGLETONS)], _LEFT),
    ([(_TILTED, _SINGLETONS)] * 4 + [(np.eye(4), [(0, 2), (2, 4)])], _FOUND),
], ids=["wrong_count", "off_algebra", "last_off_algebra", "last_wrong_count"])
def test_central_projection_failures_name_the_last_draw(monkeypatch, draws, problem):
    # every retry draws once from the rng; the message names the last draw's
    # problem, and for a projection off the algebra its first failing residual
    seen = []

    def split(family, rng):
        seen.append(rng)
        return draws[len(seen) - 1]

    monkeypatch.setattr(wedderburn, "_random_split", split)
    units = _diagonal_units(4)
    rng = np.random.default_rng(0)
    with pytest.raises(fd.CenterResolutionError) as info:
        wedderburn.minimal_central_projections(units, units, rng)
    assert str(info.value) == ("could not separate the central blocks after 5 attempts: "
                               + problem)
    assert seen == [rng] * 5


def test_central_projections_pass_on_the_first_good_draw(monkeypatch):
    draws = [(np.eye(4), [(0, 2), (2, 4)]), (np.eye(4), _SINGLETONS)]
    monkeypatch.setattr(wedderburn, "_random_split", lambda family, rng: draws.pop(0))
    units = _diagonal_units(4)
    zs = wedderburn.minimal_central_projections(units, units, np.random.default_rng(0))
    np.testing.assert_array_equal(np.array(zs), units)
    assert draws == []


def _resolution_error(call, *args):
    with pytest.raises(fd.CenterResolutionError) as info:
        call(*args)
    return str(info.value)


def test_irreducible_isometry_refuses_a_non_square_block_dimension():
    # the identity compresses the diagonal algebra of M_2 to dimension 2
    assert (_resolution_error(wedderburn._irreducible_isometry, np.eye(2),
                              _diagonal_units(2), np.random.default_rng(0))
            == "central block has dimension 2, not a perfect square")


def test_irreducible_isometry_refuses_a_range_off_the_block_size():
    # the matrix units of the top-left 2 x 2 corner of M_3 span dimension 4
    # = 2^2 inside a range of dimension 3
    corner = np.zeros((4, 3, 3), dtype=complex)
    corner[np.arange(4), [0, 0, 1, 1], [0, 1, 0, 1]] = 1.0
    assert (_resolution_error(wedderburn._irreducible_isometry, np.eye(3), corner,
                              np.random.default_rng(0))
            == "central range has dimension 3, not a multiple of block size 2")


def test_irreducible_isometry_fails_without_a_splitting_commutant():
    # the diagonal algebra of M_4 has dimension 4 = 2^2, but leaves range(z)
    # four eigenvalue clusters at every draw, not the two of a 2 x 2 block of
    # multiplicity two
    assert (_resolution_error(wedderburn._irreducible_isometry, np.eye(4),
                              _diagonal_units(4), np.random.default_rng(0))
            == "could not isolate an irreducible subspace of dimension 2")


_C2_GENERATOR = np.diag([0.0, 1.0]).astype(complex)


def _blockify_c2():
    """blockify on the diagonal algebra of M_2, generated by diag(0, 1)."""
    return wedderburn.blockify(_diagonal_units(2), [_C2_GENERATOR], np.ones(2),
                               [_C2_GENERATOR], ["X1"], np.random.default_rng(0))


def test_blockify_refuses_a_subspace_the_generators_move(monkeypatch):
    # (e_1 + e_2) / sqrt 2 is moved by diag(0, 1) with residual 1/2
    tilted = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
    monkeypatch.setattr(wedderburn, "_irreducible_isometry", lambda z, a, rng: (1, tilted))
    assert (_resolution_error(_blockify_c2)
            == "extracted subspace is not invariant (residual 5.00e-01)")


def test_blockify_refuses_block_sizes_off_the_algebra_dimension(monkeypatch):
    # a split that finds one of the two central blocks
    monkeypatch.setattr(wedderburn, "minimal_central_projections",
                        lambda basis, center, rng: [np.diag([1.0, 0.0]).astype(complex)])
    assert (_resolution_error(_blockify_c2)
            == "block sizes [1] are inconsistent with algebra dimension 2")


def test_blockify_of_the_diagonal_algebra():
    # the inputs the tests above break: unbroken, they give C^2 at equal weights
    alg = _blockify_c2()
    assert (alg.block_sizes, alg.trace_weights) == ((1, 1), (0.5, 0.5))


def _repeated_block_algebra(shape, seed):
    """The span (identity first) and two random self-adjoint elements of
    U (+)_i (M_{n_i} (x) 1_{m_i}) U*, for (n_i, m_i) in `shape` and a random
    unitary U."""
    rng = np.random.default_rng(seed)
    N = sum(n * m for n, m in shape)
    U, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    span, gens = [np.eye(N, dtype=complex)], np.zeros((2, N, N), dtype=complex)
    for (n, m), (start, stop) in zip(shape, block_offsets([n * m for n, m in shape])):
        for x in [np.outer(np.eye(n)[a], np.eye(n)[b]) for a in range(n) for b in range(n)]:
            span.append(np.zeros((N, N), dtype=complex))
            span[-1][start:stop, start:stop] = np.kron(x, np.eye(m))
        for g in gens:
            g[start:stop, start:stop] = np.kron(random_hermitian(rng, n), np.eye(m))
    return [U @ x @ U.conj().T for x in span], [U @ g @ U.conj().T for g in gens]


def _blockify_against_oracle(monkeypatch, build, commuting_set, acting):
    """(algebra, largest invariance residual of its isometries under `acting`)
    from `build()`, first as it runs, then with every isometry found by the
    full-commutant oracle of `commuting_set`."""
    runs = []
    for oracle in (False, True):
        found = []
        with monkeypatch.context() as patch:
            if oracle:
                isometries_by_full_commutant(patch, commuting_set)
            isometry = wedderburn._irreducible_isometry
            patch.setattr(wedderburn, "_irreducible_isometry",
                          lambda *args: found.append(isometry(*args)) or found[-1])
            alg = build()
        runs.append((alg, max(np.linalg.norm(g @ V - V @ (V.conj().T @ g @ V))
                              for _, V in found for g in acting)))
    return runs


def _assert_matches_oracle(runs):
    (alg, resid), (want, want_resid) = runs
    assert alg.block_sizes == want.block_sizes
    rep, want_rep = fd.delta_report(alg, seed=0), fd.delta_report(want, seed=0)
    assert rep.Delta == want_rep.Delta
    np.testing.assert_array_equal(rep.multiplicities, want_rep.multiplicities)
    np.testing.assert_allclose(alg.trace_weights, want.trace_weights, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rep.weights, want_rep.weights, rtol=0, atol=1e-14)
    assert max(resid, want_resid) <= INVARIANCE_TOL


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", [[(1, 3)], [(2, 2)], [(3, 2)], [(2, 1), (1, 2)]],
                         ids=["1x3", "2x2", "3x2", "2x1+1x2"])
def test_repeated_blocks_of_a_random_subalgebra_match_the_full_commutant_oracle(
        shape, seed, monkeypatch):
    span, gens = _repeated_block_algebra(shape, seed)
    N = gens[0].shape[0]
    runs = _blockify_against_oracle(
        monkeypatch, lambda: wedderburn.blockify(span, gens, np.full(N, 1.0 / N), gens,
                                                 ["X1", "X2"], np.random.default_rng(seed)),
        gens, gens)
    alg = runs[0][0]
    assert sorted(alg.block_sizes) == sorted(n for n, _ in shape)
    # tau(z_i) = n_i m_i / N at the normalised trace
    assert sorted(alg.trace_weights) == pytest.approx(sorted(n * m / N for n, m in shape),
                                                      abs=1e-14)
    _assert_matches_oracle(runs)


@pytest.mark.parametrize("group", [
    fd.symmetric_group(3),
    fd.symmetric_group(4),
    fd.direct_product(fd.cyclic_group(2), fd.symmetric_group(3)),
    fd.direct_product(fd.symmetric_group(3), fd.cyclic_group(4)),
], ids=["S3", "S4", "C2xS3", "S3xC4"])
def test_repeated_blocks_of_a_group_algebra_match_the_full_commutant_oracle(group, monkeypatch):
    lam = left_regular_matrices(group)
    runs = _blockify_against_oracle(
        monkeypatch, lambda: fd.regular_rep_algebra(group, seed=1),
        [lam[g] for g in minimal_generating_set(group)], lam)
    _assert_matches_oracle(runs)


def _block_sizes_against_oracle(monkeypatch, build):
    """(size read from the compression to range(z), size `central_block_size`
    reads from the (s, N^2) family zA) for each central projection z that
    `build()` decomposes."""
    isometry, sizes = wedderburn._irreducible_isometry, []

    def spied(z, alg_basis, rng):
        n, V = isometry(z, alg_basis, rng)
        sizes.append((n, central_block_size(z, alg_basis)))
        return n, V

    monkeypatch.setattr(wedderburn, "_irreducible_isometry", spied)
    build()
    return sizes


@pytest.mark.parametrize("group", [
    fd.symmetric_group(3),
    fd.symmetric_group(4),
    fd.direct_product(fd.cyclic_group(2), fd.symmetric_group(3)),
    fd.direct_product(fd.symmetric_group(3), fd.cyclic_group(4)),
    fd.cyclic_group(24),
], ids=["S3", "S4", "C2xS3", "S3xC4", "C24"])
def test_group_block_sizes_match_the_full_family_oracle(group, monkeypatch):
    sizes = _block_sizes_against_oracle(monkeypatch, lambda: fd.regular_rep_algebra(group))
    assert sum(n * n for n, _ in sizes) == group.order
    assert all(n == want for n, want in sizes)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", [[(1, 3)], [(2, 2)], [(3, 2)], [(2, 1), (1, 2)]],
                         ids=["1x3", "2x2", "3x2", "2x1+1x2"])
def test_repeated_block_sizes_match_the_full_family_oracle(shape, seed, monkeypatch):
    span, gens = _repeated_block_algebra(shape, seed)
    N = gens[0].shape[0]
    sizes = _block_sizes_against_oracle(monkeypatch, lambda: wedderburn.blockify(
        span, gens, np.full(N, 1.0 / N), gens, ["X1", "X2"], np.random.default_rng(seed)))
    assert sorted(n for n, _ in sizes) == sorted(n for n, _ in shape)
    assert all(n == want for n, want in sizes)


def test_s4_regular_rep_algebra_takes_two_svds_across_all_of_m24(monkeypatch):
    # the algebra span and the center; each block size comes from the
    # compression to range(z), at most 9^2 columns, not from zA's 24^2
    svd, widths = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: widths.append(np.shape(a)[-1]) or svd(a, **kw))
    fd.regular_rep_algebra(fd.symmetric_group(4))
    assert widths.count(24 * 24) == 2


def test_blockify_subalgebra_on_a_hundred_repeated_points_stays_small():
    # one two-valued diagonal generator on 100 one-by-one blocks generates
    # C (+) C, each of multiplicity 50: no search runs in all of M_100,
    # whose commutant family would take gigabytes.  The peak is VmHWM, the
    # child's own high-water mark: its ru_maxrss also holds the peak of the
    # test process that spawned it, which the kernel records at exec
    code = ("import numpy as np, freedim as fd; "
            "g = np.diag(np.tile([1.0, -1.0], 50)); "
            "alg = fd.blockify_subalgebra([1] * 100, [0.01] * 100, [g]); "
            "print(alg.block_sizes, next(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    sizes, peak_kb = done.stdout.rsplit(maxsplit=1)
    assert sizes == "(1, 1)"
    assert int(peak_kb) < 150 * 1024


def test_central_projections_partition_identity(c1m2):
    gns = fd.gns_structure(c1m2)
    np.testing.assert_allclose(
        d_coordinate_center(gns)[2].sum(axis=0), np.eye(gns.dim), atol=1e-10
    )


def _swap_first_two(zs):
    zs[0], zs[1] = zs[1], zs[0]
    return zs


def _bump(row, col):
    def bump(zs):
        zs[row] = zs[row].copy()
        zs[row][row, col] += 1e-9
        return zs
    return bump


@pytest.mark.parametrize("make,change", [
    (make_c2, _swap_first_two),        # equal weights: only the blocks differ
    (make_c1m2, _swap_first_two),
    (make_c1m2, lambda zs: zs[:1]),    # one projection for two blocks
    (make_c1m2, _bump(1, 2)),          # inside block 1, off its diagonal
    (make_c1m2, _bump(0, 1)),          # outside block 0
], ids=["c2_swap", "c1m2_swap", "c1m2_drop", "bump_inside", "bump_outside"])
def test_center_certificate_refuses_wrong_projections(monkeypatch, make, change):
    gns = fd.gns_structure(make())
    original = vndim.minimal_central_projections
    monkeypatch.setattr(vndim, "minimal_central_projections",
                        lambda *args: change(list(original(*args))))
    with pytest.raises(fd.CenterResolutionError):
        fd.central_decomposition(gns.algebra)


def test_small_weight_block_center_is_accepted():
    # left multiplications of the weight-1e-12 block have entries of size
    # sqrt(n / alpha), so an absolute gate on their products with the
    # central projections refuses this valid input; the certificate against
    # the declared blocks does not read them
    alg = fd.build_algebra([1, 2], [1 - 1e-12, 1e-12],
                           [embed_c_m2(1.0, SX), embed_c_m2(0.0, SZ)])
    rep = fd.delta_report(alg)
    np.testing.assert_array_equal(rep.multiplicities, [[0, 2], [2, 3]])
    assert abs(float(1 - rep.Delta) - float(rep.closed_form_beta0)) <= SUBSPACE_TOL


# ---------------------------------------------------------------------------
# dimension engine
# ---------------------------------------------------------------------------

def full_hs_subspace(gns, n):
    D = gns.dim
    vecs = []
    for slot in range(n):
        for p in range(D):
            for q in range(D):
                tup = np.zeros((n, D, D), dtype=complex)
                tup[slot, p, q] = 1.0
                vecs.append(tup)
    return fd.hs_subspace(gns, np.array(vecs))


@pytest.mark.parametrize("n", [1, 2])
def test_normalization_full_hs(c2, m2, n):
    for alg in (c2, m2):
        gns = fd.gns_structure(alg)
        K = full_hs_subspace(gns, n)
        rep = fd.vn_dimension_report(K, gns.algebra)
        assert rep.fraction == Fraction(n)  # exact: the weight convention is pinned here


def test_two_point_commutator_space(c2):
    # oracle: commutators with diag(0,1) are exactly the off-diagonal
    # matrices in the eigenbasis; two 1-dim cross blocks, each weighted 1/4
    gns = fd.gns_structure(c2)
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    K = fd.hs_subspace(gns, np.array([[e12], [e12.T]]))
    assert K.complex_dim == 2
    assert fd.vn_dimension_report(K, gns.algebra).fraction == Fraction(1, 2)


def test_m2_pair_commutator_space(m2):
    gns = fd.gns_structure(m2)
    vecs = all_unit_cocycles(gns, m2.generators)
    K = fd.hs_subspace(gns, vecs)
    # oracle: kernel of the joint commutator map is the 4-dim commutant
    Ls = left_mults(gns, m2.generators)
    assert joint_commutator_nullity(Ls) == 4
    assert K.complex_dim == 16 - 4
    assert fd.vn_dimension_report(K, gns.algebra).fraction == Fraction(3, 4)


def test_not_invariant_raises(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((1, 1, 4, 4)) + 1j * rng.standard_normal((1, 1, 4, 4))
    K = fd.hs_subspace(gns, v)
    assert K.invariance_residual > 1e-8
    with pytest.raises(fd.NotInvariant):
        fd.vn_dimension_report(K, gns.algebra)


def test_integrality_error_on_forged_subspace(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4))
    v /= np.linalg.norm(v)
    forged = fd.HsSubspace(basis=v[None, :, :, :], invariance_residual=0.0)
    with pytest.raises(fd.IntegralityError):
        fd.vn_dimension_report(forged, gns.algebra)


def test_split_unit_tuple_is_not_an_integer_block_dimension(c2):
    # one unit tuple split evenly over the cross coordinates (0, 1) and
    # (1, 0): each cross block holds half of it, which the per-block SVD rank
    # read as [[0, 1], [1, 0]] and a dimension of 1/2 for a line
    gns = fd.gns_structure(c2)
    v = np.zeros((1, 1, 2, 2), dtype=complex)
    v[0, 0, 0, 1] = v[0, 0, 1, 0] = np.sqrt(0.5)
    forged = fd.HsSubspace(basis=v, invariance_residual=0.0)
    assert svd_block_ranks(forged, gns.algebra).tolist() == [[0, 1], [1, 0]]
    with pytest.raises(fd.IntegralityError, match=r"block \(0,1\) has mass 0.5"):
        fd.vn_dimension_report(forged, gns.algebra)


@pytest.mark.parametrize("make", [make_m2, make_c1m2], ids=["m2", "c1m2"])
def test_closure_multiplicities_match_svd_rank_oracle(make):
    gns = fd.gns_structure(make())
    sizes = np.array(gns.algebra.block_sizes)
    rng = np.random.default_rng(11)
    D = gns.dim
    for _ in range(6):
        v = rng.standard_normal((2, 2, D, D)) + 1j * rng.standard_normal((2, 2, D, D))
        # a sparse seed tuple reaches only some block pairs
        v[:, :, rng.random((D, D)) < 0.7] = 0.0
        K = fd.invariant_closure(gns, v)
        rep = fd.vn_dimension_report(K, gns.algebra)
        np.testing.assert_array_equal(
            rep.multiplicities * np.outer(sizes, sizes), svd_block_ranks(K, gns.algebra)
        )
    # as for hs_subspace, an empty family spans the zero subspace
    K = fd.invariant_closure(gns, np.zeros((0, 2, D, D)))
    assert K.basis.shape == (0, 2, D, D)
    assert fd.vn_dimension_report(K, gns.algebra).fraction == 0


def test_monotonicity_and_additivity(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(7)
    D = gns.dim
    for _ in range(20):
        v = rng.standard_normal((1, 2, D, D)) + 1j * rng.standard_normal((1, 2, D, D))
        w = rng.standard_normal((1, 2, D, D)) + 1j * rng.standard_normal((1, 2, D, D))
        K1 = fd.invariant_closure(gns, v)
        K2 = fd.invariant_closure(gns, np.vstack([v, w]))
        d1 = fd.vn_dimension_report(K1, gns.algebra).fraction
        d2 = fd.vn_dimension_report(K2, gns.algebra).fraction
        assert d1 <= d2  # monotone under inclusion

        # complement of K1 inside K2 is invariant; dimensions add
        coeff = K1.flat() @ K2.flat().conj().T
        resid = K1.flat() - coeff @ K2.flat()
        assert np.linalg.norm(resid) < 1e-9  # K1 inside K2
        Kc = invariant_complement(gns, K1, K2, 2)
        dc = fd.vn_dimension_report(Kc, gns.algebra).fraction
        assert d1 + dc == d2


def test_vn_value_matches_fraction(c1m2):
    gns = fd.gns_structure(c1m2)
    K = full_hs_subspace(gns, 1)
    rep = fd.vn_dimension_report(K, gns.algebra)
    # the value is its exact fraction; a report's float copy is float() of it
    assert type(rep.fraction) is Fraction and float(rep.fraction) == 1.0


@pytest.mark.parametrize("sizes, weights", [
    ((1, 2), (0.4, 0.6)), ((1, 1, 2), (1e-12, 0.3, 0.7 - 1e-12)),
    ((2, 3), (1e-7, 1 - 1e-7)), ((1, 1, 1), (0.1, 0.2, 0.7)),
], ids=str)
def test_vn_fraction_matches_pairwise_sum(sizes, weights):
    # one exact sum over a common denominator against the per-pair Fraction loop
    rng = np.random.default_rng(len(sizes))
    gens = [np.zeros((sum(sizes),) * 2, dtype=complex) for _ in range(2)]
    for (s, t), n in zip(block_offsets(sizes), sizes):
        for g in gens:
            g[s:t, s:t] = random_hermitian(rng, n)
    gns = fd.gns_structure(fd.build_algebra(sizes, weights, gens))
    wfr = [to_fraction(w) for w in gns.algebra.trace_weights]
    for K in (fd.compute_H0(gns), full_hs_subspace(gns, 2)):
        rep = fd.vn_dimension_report(K, gns.algebra)
        want = sum((wfr[i] * wfr[j] * Fraction(int(rep.multiplicities[i, j]), ni * nj)
                    for i, ni in enumerate(sizes) for j, nj in enumerate(sizes)), Fraction(0))
        assert type(rep.fraction) is Fraction and rep.fraction == want


def test_subspace_distance_detects_difference(c2):
    gns = fd.gns_structure(c2)
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    K1 = fd.hs_subspace(gns, np.array([[e12]]))
    K2 = fd.hs_subspace(gns, np.array([[e12.T]]))
    assert fd.subspace_distance(K1, K1) <= 1e-12
    assert fd.subspace_distance(K1, K2) > 0.9
