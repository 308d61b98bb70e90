import contextlib
import functools
import math
import re
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

import freedim as fd
from freedim.algebra import (_block_ranges, _diag_weights, _frame, _orthonormal_selfadjoint_basis,
                             _unit_map, unit_scaled, word_span)
from freedim.errors import CenterResolutionError
from freedim.tolerances import (CENTER_RETRIES, INVARIANCE_TOL, PROJECTION_SPLIT, RANK_TOL,
                                RESIDUAL_TOL, WELLDEF_TOL)
from freedim.vndim import HsSubspace, invariance_residual
from freedim.wedderburn import _random_split, commutant_basis

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def embed_c_m2(c, m):
    """c (+) m inside the 3x3 carrier of C (+) M2."""
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = c
    out[1:, 1:] = m
    return out


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2.0


def section_algebra(section):
    """build_algebra on a config's algebra section (matrices of [re, im] pairs),
    read as the CLI reads it."""
    gens = [np.asarray(g, dtype=float) for g in section["generators"]]
    return fd.build_algebra(section["blocks"], section["weights"],
                            [g[:, :, 0] + 1j * g[:, :, 1] for g in gens],
                            labels=section.get("labels"))


def random_block_algebra(shape, seed):
    """A generic self-adjoint pair on the given blocks, with random weights."""
    rng = np.random.default_rng(seed)
    N = sum(shape)
    gens = []
    for _ in range(2):
        g = np.zeros((N, N), dtype=complex)
        start = 0
        for n in shape:
            g[start:start + n, start:start + n] = random_hermitian(rng, n)
            start += n
        gens.append(g)
    w = rng.uniform(0.5, 1.5, len(shape))
    return fd.build_algebra(shape, list(w / w.sum()), gens)


def svd_block_ranks(K, algebra):
    """Reference rule for dim_C(z_i K z_j): the numerical rank of each block
    slice of the basis rows, with the relative cutoff RANK_TOL floored at the
    ambient scale, so that an all-noise block has rank zero."""
    from freedim.algebra import block_offsets

    ranges = block_offsets([n * n for n in algebra.block_sizes])
    r = K.complex_dim
    ranks = np.zeros((len(ranges), len(ranges)), dtype=int)
    if r == 0:
        return ranks
    for i, (si, ti) in enumerate(ranges):
        for j, (sj, tj) in enumerate(ranges):
            comp = K.basis[:, :, si:ti, sj:tj].reshape(r, -1)
            s = np.linalg.svd(comp, compute_uv=False)
            cut = RANK_TOL * max(1.0, float(s[0])) if s.size else RANK_TOL
            ranks[i, j] = int(np.sum(s > cut))
    return ranks


def generated_dim(block_sizes, generators):
    """Dimension of the span of the words in the generators, counted as
    `build_algebra` and `blockify_subalgebra` count it."""
    mats = [np.asarray(g, dtype=complex) for g in generators]
    return word_span(tuple(block_sizes), unit_scaled(mats)).shape[0]


def generates(alg):
    """Whether the words in the algebra's generators span all of it."""
    return generated_dim(alg.block_sizes, alg.generators) == alg.dim


def evaluate_word(word, images, table):
    """Image of a free word under the homomorphism sending generator k to
    images[k-1]: the oracle for the kernel membership that `schreier_graph`
    states for its generators."""
    out = table.identity
    for letter in word:
        g = images[abs(letter) - 1]
        out = table.mul(out, table.inv(g) if letter < 0 else g)
    return out


def dense_basis(gns):
    """The (D, N, N) orthonormal self-adjoint basis b_m, which `gns_structure`
    builds and does not keep."""
    return _orthonormal_selfadjoint_basis(gns.algebra)


def diag_weights(gns):
    """w with tau(x) = sum_a x[a, a] w[a]."""
    return _diag_weights(gns.algebra.block_sizes, gns.algebra.trace_weights)


def left_mults(gns, xs):
    """(n, D, D) left multiplications by the elements, from the trace formula
    L_x[m, q] = tau(b_m x b_q), one searched contraction per element."""
    b, w = dense_basis(gns), diag_weights(gns)
    Ls = [np.einsum("mab,bc,qca,a->mq", b, np.asarray(x, dtype=complex), b, w, optimize=True)
          for x in xs]
    return np.asarray(Ls, dtype=complex).reshape(-1, gns.dim, gns.dim)


def coords(gns, x):
    """Coordinates <x, b_m> of an algebra element in the orthonormal basis."""
    return np.einsum("mab,ba,b->m", dense_basis(gns), x, diag_weights(gns), optimize=True)


def element(gns, v):
    """Algebra element with the given coordinates."""
    return np.einsum("m,mab->ab", v, dense_basis(gns))


def basis_left_mults(gns):
    """(D, D, D) left multiplications by the basis elements, from the
    matrix-unit frame and zero off each element's block: the dense stack
    that the package no longer builds (`GnsStructure.commutant_actions`
    gives it block by block, transposed)."""
    D, basis = gns.dim, dense_basis(gns)
    out = np.zeros((D, D, D), dtype=complex)
    for (s, t), (S, T), n in _block_ranges(gns.algebra.block_sizes):
        out[S:T, S:T, S:T] = _frame(basis[S:T, s:t, s:t], _unit_map(n))
    return out


def cocycle_map(gns, generators, Y):
    """([Y, L_{X_1}], ..., [Y, L_{X_n}]) as an (n, D, D) array."""
    return np.array([Y @ L - L @ Y for L in left_mults(gns, generators)])


def _span_with_spectrum(A):
    """Kept rows vh[:r] (s > RANK_TOL * s[0]) of a 2-D array's SVD, the
    rank rule of `numerical_span`, and all of s."""
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, A.shape[1]), dtype=complex), s
    return vh[: int(np.sum(s > RANK_TOL * s[0]))], s


def _unit_commutators(Li, Lk):
    """Cocycle tuples of the matrix units E_pq, p a coordinate of Li's block
    and q of Lk's, as (..., di*dk, n, di, dk) for Li (..., n, di, di) and Lk
    (..., n, dk, dk), stacked over the leading axes.

    With L_j block-diagonal, [E_pq, L_j] lives in the (i, k) sub-block; with
    Li = Lk = Ls the full (D, D) blocks give all D*D units.
    """
    *batch, n, di, _ = Li.shape
    dk = Lk.shape[-1]
    pairs = math.prod(batch)
    Li, Lk = Li.reshape(pairs, n, di, di), Lk.reshape(pairs, n, dk, dk)
    rows = np.zeros((pairs, di, dk, n, di, dk), dtype=complex)
    b, p, q = np.arange(pairs)[:, None, None], np.arange(di)[:, None], np.arange(dk)
    rows[b, p, q, :, p, :] += Lk.transpose(0, 2, 1, 3)[:, None]     # E_pq L_j: row p is Lk_j[q]
    rows[b, p, q, :, :, q] -= Li.transpose(0, 3, 1, 2)[:, :, None]  # L_j E_pq: col q is Li_j[:, p]
    return rows.reshape(*batch, di * dk, n, di, dk)


def commutator_bound(gns, s, r):
    """Bound on how far the commutant action moves the span of the first r
    rows of a matrix-unit cocycle family's SVD, `s` its descending spectrum;
    the certificate of `dense_H0` and `hermitian_H1`.

    Each action generator R = R_p satisfies R Phi(Y) = Phi(RY) + ([L_j, R] Y)_j
    and Phi(Y) R = Phi(YR) + (Y [L_j, R])_j, each kept row v_k = Phi(Y'_k)
    has ||Y'_k||_HS <= 1 / s_k, and Phi(RY) lies within s_{r+1} ||RY||_HS of
    the kept span.  So both actions move every row at most

        (max_p (sum_j ||[L_j, R_p]||_F^2)^(1/2)
         + (s_{r+1} + eps_fp) * max_p ||R_p||) / s_r

    (s_{r+1} = 0 at full rank).  The Frobenius norm bounds the operator norm
    the argument needs, max_p ||R_p|| = max_i sqrt(n_i/alpha_i) exactly
    (`_block_basis`), and a computed SVD is the exact SVD of some A + E with
    ||E|| taken as max(rows, cols) u s_1 (n D^2 u s_1 here), which enters
    twice, so eps_fp = 2 ||E||.  No norm here takes an SVD.
    """
    if r == 0:
        return 0.0
    comm_max = 0.0
    # R_p is zero off its block and L_j block-diagonal (see _verify_gns): so is [L_j, R_p]
    for S, T, R in gns.commutant_actions:
        Ls = gns.generator_left_mult[:, S:T, S:T]
        comm = Ls[None] @ R[:, None] - R[:, None] @ Ls[None]    # (p, j, n^2, n^2)
        comm_max = max(comm_max, np.linalg.norm(comm.reshape(len(R), -1), axis=1).max())
    alg = gns.algebra
    R_max = max(np.sqrt(n / a) for n, a in zip(alg.block_sizes, alg.trace_weights))
    s_next = s[r] if r < s.size else 0.0
    cells = gns.generator_left_mult.shape[0] * gns.dim * gns.dim
    eps_fp = 2.0 * cells * np.finfo(float).eps * s[0]
    return float((comm_max + (s_next + eps_fp) * R_max) / s[r - 1])


def dense_H0(gns):
    """H0 from one SVD of the whole (D^2, n D^2) matrix-unit family, the
    construction that the per-block-pair spans replaced, with the same
    certificate; and the family's spectrum."""
    Ls = gns.generator_left_mult
    n, D = Ls.shape[0], gns.dim
    kept, s = _span_with_spectrum(_unit_commutators(Ls, Ls).reshape(D * D, n * D * D))
    basis = kept.reshape(len(kept), n, D, D)
    residual = commutator_bound(gns, s, len(kept))
    if residual > INVARIANCE_TOL:
        residual = invariance_residual(basis, gns)
    return HsSubspace(basis, residual), s


def _hermitian_family_loop(units):
    """Cocycles of E_pp, E_pq + E_qp and i(E_pq - E_qp), p < q, from the
    (D^2, ...) unit cocycles."""
    D = units.shape[-1]
    units = units.reshape(D, D, *units.shape[1:])
    rows = np.empty((D * D, *units.shape[2:]), dtype=complex)
    k = 0
    for p in range(D):
        rows[k] = units[p, p]
        k += 1
        for q in range(p + 1, D):
            np.add(units[p, q], units[q, p], out=rows[k])
            rows[k + 1] = 1j * (units[p, q] - units[q, p])
            k += 2
    return rows


def hermitian_H1(gns):
    """H1 from one SVD of the cocycles of the Hermitian family, the
    construction that H1 = H0 replaced.  The family's operators have HS norm
    1 or sqrt 2, not 1, so the commutator bound carries a factor sqrt 2."""
    Ls = gns.generator_left_mult
    n, D = Ls.shape[0], gns.dim
    family = _hermitian_family_loop(_unit_commutators(Ls, Ls))
    kept, s = _span_with_spectrum(family.reshape(D * D, n * D * D))
    basis = kept.reshape(len(kept), n, D, D)
    residual = np.sqrt(2.0) * commutator_bound(gns, s, len(kept))
    if residual > INVARIANCE_TOL:
        residual = invariance_residual(basis, gns)
    return HsSubspace(basis, residual)


# ---------------------------------------------------------------------------
# the word fit: the engine that built the dual operator before the block-pair
# Sylvester solve, kept as its oracle
# ---------------------------------------------------------------------------

WORD_GROWTH_TOL = 1e-9  # a word's vector grows the fit's span (relative to max(1, |v|))


def word_system(gns, targets):
    """The words in the generators that pin down the derivation with values
    `targets`, in one breadth-first walk from the empty word: their vectors
    L_w 1 and their free derivatives d(w).

    Each child w X_j of an expanded word gets L_w L_j, its vector and
    d(w X_j) = d(w) L_j + L_w T_j together.  A word is expanded only if its
    vector grew the span, that is left the span of the earlier growing words
    by more than WORD_GROWTH_TOL max(1, |v|); the span is kept as an
    orthonormal basis that gains one row per growing word (Gram-Schmidt with
    one re-orthogonalization) and stops growing when full, so at most D
    words are expanded, the empty word first, and all n children of each are
    evaluated: one full round past stabilization, so that every relation
    among the retained words is in the system.
    """
    Ls = gns.generator_left_mult
    D = gns.dim
    t = gns.trace_vector.astype(complex)
    size = 1 + len(Ls) * D
    vecs = np.empty((size, D), dtype=complex)
    vals = np.empty((size, D, D), dtype=complex)
    vecs[0], vals[0] = t, 0.0
    basis = np.empty((D, D), dtype=complex)  # rows [:r] orthonormal
    basis[0] = t / np.linalg.norm(t)
    r, k = 1, 1
    parents = deque([(np.eye(D, dtype=complex), 0)])
    while parents:
        L_w, w = parents.popleft()
        for L_j, T_j in zip(Ls, targets):
            L_new = L_w @ L_j
            v = vecs[k] = L_new @ t
            vals[k] = vals[w] @ L_j
            vals[k] += L_w @ T_j
            resid = v - basis[:r].T @ (basis[:r].conj() @ v)
            if r < D and (np.linalg.norm(resid)
                          > WORD_GROWTH_TOL * max(1.0, np.linalg.norm(v))):
                resid -= basis[:r].T @ (basis[:r].conj() @ resid)
                basis[r] = resid / np.linalg.norm(resid)
                r += 1
                parents.append((L_new, k))
            k += 1
    return vecs[:k], vals[:k]


@dataclass
class WordFit:
    """The least-squares fit of a prescribed derivation over its words: its
    own verdict (defect <= WELLDEF_TOL), the worst residual over the
    evaluated words, the (D*D, D) matrix of the induced map from L2 into HS,
    and the values T_j on the generators."""

    well_defined: bool
    defect: float
    map: np.ndarray
    targets: tuple


def word_fit(gns, targets):
    """The least-squares fit over the words of `word_system`."""
    targets = tuple(np.asarray(t, dtype=complex) for t in targets)
    vecs, vals = word_system(gns, targets)
    K, D = vecs.shape
    Wm = vals.reshape(K, D * D).T   # (D^2, K)
    dhat = np.linalg.lstsq(vecs, Wm.T, rcond=None)[0].T  # (D^2, D)
    defect = float(np.linalg.norm(dhat @ vecs.T - Wm, axis=0).max())
    return WordFit(defect <= WELLDEF_TOL, defect, dhat, targets)


def word_fit_xi(gns, dhat):
    """xi_m = <dhat(e_m), P1>_HS: the conjugate vector of the induced map."""
    p1 = np.outer(gns.trace_vector, gns.trace_vector)  # P1, onto the trace vector
    return np.array([np.vdot(dhat[:, m].reshape(p1.shape), p1) for m in range(gns.dim)])


def word_fit_dual(gns, fit):
    """(Y, xi, passes) of the fit: Y acts on the cyclic vector of a polynomial
    by the derivative of that polynomial applied to the trace vector, and
    `passes` is whether the fit's verdict and the three residual gates of
    `construct_dual_operator` accept it."""
    D = gns.dim
    t = gns.trace_vector.astype(complex)
    # the one path numpy can choose for two operands, without the search
    Y = np.einsum("ijm,j->im", fit.map.reshape(D, D, D), t, optimize=["einsum_path", (0, 1)])
    xi = word_fit_xi(gns, fit.map)
    commutators = max((float(np.linalg.norm(Y @ L - L @ Y - T))
                       for L, T in zip(gns.generator_left_mult, fit.targets)), default=0.0)
    Y_norm = float(np.linalg.norm(Y))
    passes = (fit.well_defined
              and commutators <= RESIDUAL_TOL * float(np.linalg.norm(fit.targets))
              and max(float(np.linalg.norm(Y @ t)), float(np.linalg.norm(Y.conj().T @ t - xi)))
              <= RESIDUAL_TOL * Y_norm)
    return Y, xi, passes


def conjugate_variable(gns, targets):
    """The vector xi with <xi, Q 1> = <P1, dT(Q)>_HS from the word fit, or
    None when the fit finds that the derivation does not descend."""
    fit = word_fit(gns, targets)
    return word_fit_xi(gns, fit.map) if fit.well_defined else None


def make_c2():
    return fd.build_algebra([1, 1], [0.5, 0.5], [np.diag([0.0, 1.0]).astype(complex)])


def make_m2():
    return fd.build_algebra([2], [1.0], [SX.copy(), SZ.copy()])


def make_c1m2():
    return fd.build_algebra(
        [1, 2], [1 / 3, 2 / 3], [embed_c_m2(1.0, SX), embed_c_m2(0.0, SZ)]
    )


def invariant_complement(gns, K_small, K_big, n):
    """Orthogonal complement of K_small inside K_big (drops noise rows)."""
    rows = K_big.flat() - (K_big.flat() @ K_small.flat().conj().T) @ K_small.flat()
    norms = np.linalg.norm(rows, axis=1)
    rows = rows[norms > 1e-8]
    if rows.shape[0] == 0:
        return fd.hs_subspace(gns, np.zeros((0, n, gns.dim, gns.dim)))
    flat = fd.numerical_span(rows)
    return fd.hs_subspace(gns, flat.reshape(-1, n, gns.dim, gns.dim))


@pytest.fixture
def c2():
    return make_c2()


@pytest.fixture
def m2():
    return make_m2()


@pytest.fixture
def c1m2():
    return make_c1m2()


def central_block_size(z, algebra_basis):
    """Oracle for the block size that `wedderburn._irreducible_isometry`
    reads from A compressed to range(z): n with dim_C(z A) = n^2, from the
    rank of the (s, N^2) family zA, for a central projection z of the
    algebra A spanned by the (s, N, N) basis; CenterResolutionError unless
    a square."""
    compressed = np.array([(z @ B).ravel() for B in algebra_basis])
    block_dim = fd.numerical_span(compressed).shape[0]
    n = int(round(np.sqrt(block_dim)))
    if n * n != block_dim:
        raise CenterResolutionError(
            f"central block has dimension {block_dim}, not a perfect square"
        )
    return n


def full_commutant_isometry(z, commutant, n, rng):
    """Oracle for `wedderburn._irreducible_isometry`: the search it replaced.

    A random self-adjoint element of the compressed commutant z A' z splits
    range(z) into mult eigenspaces of dimension n each, and any one of them is
    an irreducible module for the block.  `commutant()` returns the (s, N, N)
    basis of A' and is called only for a multiplicity above one."""
    lam, vec = np.linalg.eigh(z)
    W = vec[:, lam > PROJECTION_SPLIT]
    mult = W.shape[1] // n
    if mult == 1:
        return W
    comp = np.array([W.conj().T @ C @ W for C in commutant()])
    for _ in range(CENTER_RETRIES):
        vec_b, clusters = _random_split(comp, rng)
        if len(clusters) == mult and all(hi - lo == n for lo, hi in clusters):
            lo, hi = clusters[0]
            return W @ vec_b[:, lo:hi]
    raise CenterResolutionError(f"could not isolate an irreducible subspace of dimension {n}")


def isometries_by_full_commutant(monkeypatch, commuting_set):
    """Route `wedderburn._irreducible_isometry` through the oracles above,
    with the commutant of `commuting_set` in M_N searched at most once."""
    import freedim.wedderburn as wedderburn

    N = commuting_set[0].shape[0]
    commutant = functools.cache(
        lambda: commutant_basis(commuting_set, within=np.eye(N * N, dtype=complex)))
    def isometry(z, alg_basis, rng):
        n = central_block_size(z, alg_basis)
        return n, full_commutant_isometry(z, commutant, n, rng)

    monkeypatch.setattr(wedderburn, "_irreducible_isometry", isometry)


# The numerical builders that the CLI calls.  A config error raised after the
# first of them is a check that ran after numerical work had started.
NUMERICAL_BUILDERS = ("build_algebra", "blockify_subalgebra", "gns_structure", "cyclic_group",
                      "symmetric_group", "direct_product", "_known_group",
                      "regular_rep_algebra", "convergence_sweep", "schreier_graph",
                      "counterexample_report")
# the one check that waits: a subalgebra-mode dual's matrices are D x D for
# the D of the algebra that blockify_subalgebra builds
_SUBALGEBRA_SHAPE = re.compile(r"parameters\.dual\.(matrix|targets\[\d+\]) must be "
                               r"\d+ x \d+ on this algebra$")


@contextlib.contextmanager
def late_config_errors():
    """Spy on `freedim.cli`: yields a list that collects (builders called,
    message) for each ConfigError raised inside `cli.main` after a call into
    one of NUMERICAL_BUILDERS, but for the subalgebra-mode shape check."""
    import freedim.cli as cli
    from freedim.errors import ConfigError

    calls, late = [], []
    load_config, init = cli.load_config, ConfigError.__init__

    def fresh_load(*args, **kwargs):
        calls.clear()
        return load_config(*args, **kwargs)

    def spied(name, builder):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return builder(*args, **kwargs)
        return wrapper

    def spied_init(self, *args):
        init(self, *args)
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not cli.main.__code__:
            frame = frame.f_back
        waits = calls == ["blockify_subalgebra"] and _SUBALGEBRA_SHAPE.match(str(self))
        if frame is not None and calls and not waits:
            late.append((tuple(calls), str(self)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_config", fresh_load)
        patch.setattr(ConfigError, "__init__", spied_init)
        for name in NUMERICAL_BUILDERS:
            patch.setattr(cli, name, spied(name, getattr(cli, name)))
        yield late
