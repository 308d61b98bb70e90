"""Finite tracial multi-matrix *-algebras and their trace representations.

An algebra here is a direct sum of full matrix blocks M = ⊕_i M_{n_i}(C)
carried as block-diagonal N x N matrices (N = sum n_i), with the tracial
state tau(x) = sum_i alpha_i * tr_i(x_i), tr_i the normalized trace on the
i-th block.  The trace representation endows the algebra with the inner
product <a, b> = tau(b* a); its completion is a D-dimensional Hilbert space
(D = sum n_i^2) on which the algebra acts by left multiplication.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    FreedimError,
    NotGenerating,
    NotSelfAdjoint,
    ShapeMismatch,
    WeightError,
)
from .tolerances import OPERATOR_TOL, RANK_TOL, SCALAR_TOL


def numerical_span(vectors) -> np.ndarray:
    """Orthonormal basis (rows) of the row span of a 2-D array: the rows
    vh[:r] of its SVD with s > RANK_TOL * s[0]; a (0, cols) array for an
    empty family."""
    A = np.asarray(vectors, dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, A.shape[1]), dtype=complex)
    return vh[: int(np.sum(s > RANK_TOL * s[0]))]


def _rowspace_residual(rows: np.ndarray, basis_flat: np.ndarray) -> float:
    """Largest distance from a row to the span of the orthonormal basis rows."""
    coeff = rows @ basis_flat.conj().T
    resid = rows - coeff @ basis_flat
    return float(np.linalg.norm(resid, axis=1).max(initial=0.0))


def unit_scaled(generators: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each nonzero generator divided (exactly) by the power of two nearest its
    largest entry: the algebra generated does not depend on the scale, but the
    relative cutoffs of the span and commutant computations do.  ldexp scales
    the real and imaginary parts: complex division by a subnormal overflows."""
    peaks = [float(np.abs(g).max()) for g in generators]
    return [np.ldexp(np.ascontiguousarray(g, dtype=complex).view(np.float64),
                     -round(math.log2(m))).view(complex) if m else g
            for g, m in zip(generators, peaks)]


def block_offsets(block_sizes: Sequence[int]) -> list[tuple[int, int]]:
    """(start, stop) index ranges of the diagonal blocks."""
    spans, start = [], 0
    for n in block_sizes:
        spans.append((start, start + n))
        start += n
    return spans


def _diag_weights(block_sizes, trace_weights) -> np.ndarray:
    """w[a] = alpha_i / n_i for row a in block i, so tau(M) = sum_a M[a,a] w[a]."""
    w = np.zeros(sum(block_sizes))
    for (start, stop), n, alpha in zip(
        block_offsets(block_sizes), block_sizes, trace_weights
    ):
        w[start:stop] = alpha / n
    return w


@functools.lru_cache(maxsize=None)
def _block_entries(block_sizes: tuple[int, ...]) -> np.ndarray:
    """(2, D) rows and columns of the block entries, in coordinate order;
    built once per block shape, read-only."""
    out = np.concatenate([s + np.indices((n, n)).reshape(2, -1)
                          for (s, _), n in zip(block_offsets(block_sizes), block_sizes)],
                         axis=1)
    out.flags.writeable = False
    return out


def _flatten(x: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Concatenate the block entries of x (or of each matrix of a stack) into
    a vector of length D."""
    rows, cols = _block_entries(tuple(block_sizes))
    return x[..., rows, cols]


def _unflatten(v: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Block-diagonal matrix (or stack of them) whose block entries are v."""
    N = sum(block_sizes)
    out = np.zeros((*v.shape[:-1], N, N), dtype=complex)
    rows, cols = _block_entries(tuple(block_sizes))
    out[..., rows, cols] = v
    return out


_GENERATED = object()  # the token of the two constructors that check generation


@dataclass
class TracialAlgebra:
    """A finite multi-matrix *-algebra generated by a distinguished tuple,
    built only by `build_algebra` or `wedderburn.blockify_subalgebra`, which
    validate the data and check that the tuple generates the algebra."""

    block_sizes: tuple[int, ...]
    trace_weights: tuple[float, ...]
    generators: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    checked: InitVar[object] = None

    def __post_init__(self, checked) -> None:
        if checked is not _GENERATED:
            raise TypeError("a TracialAlgebra is built by build_algebra or "
                            "blockify_subalgebra, which check that its tuple generates it")

    @property
    def matrix_size(self) -> int:
        return sum(self.block_sizes)

    @property
    def dim(self) -> int:
        """Complex dimension D = sum n_i^2 of the algebra (and of its L2 space)."""
        return sum(n * n for n in self.block_sizes)

    def trace(self, x: np.ndarray) -> complex:
        """tau(x) = sum_i alpha_i * tr(x_i) / n_i."""
        w = _diag_weights(self.block_sizes, self.trace_weights)
        return complex(np.sum(np.diag(x) * w))


def word_span(
    block_sizes: Sequence[int], generators: Sequence[np.ndarray]
) -> np.ndarray:
    """Orthonormal basis (flattened rows) of the span of all words in the
    generators and the identity.

    Iterates right-multiplication by the generators until the span
    stabilizes or fills the algebra; the span grows by at least one per
    round, so D rounds always suffice.
    """
    sizes = tuple(block_sizes)
    ambient = sum(n * n for n in sizes)
    basis = numerical_span(_flatten(np.array([np.eye(sum(sizes)), *generators],
                                             dtype=complex), sizes))
    while generators and basis.shape[0] < ambient:
        # rows basis-major, then generator-major
        products = _unflatten(basis, sizes)[:, None] @ np.array(generators)
        new_rows = _flatten(products, sizes).reshape(-1, ambient)
        grown = numerical_span(np.vstack([basis, new_rows]))
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown
    return basis


def block_pair_operators(block_sizes: Sequence[int], generators: Sequence[np.ndarray]
                         ) -> dict[tuple[int, int], tuple[list, np.ndarray]]:
    """The Sylvester operators phi_ik(z) = (z X_j^(k) - X_j^(i) z)_j on n_i x n_k
    matrices z, stacked by block shape: {(n_i, n_k): (pairs, stack)}, pairs the
    (i, k) of that shape in row-major order and stack[p] the (n n_i n_k, n_i n_k)
    operator of pairs[p], generator-major rows, z flattened row-major; the
    stack is (p, 0, n_i n_k) when there are no generators.  For an algebra's
    generators (not their `unit_scaled` copies) the cocycle map restricted to
    block pair (i, k) is phi_ik (x) 1, as every L_j is X_j (x) 1 on each block
    in the matrix-unit frame.
    """
    sizes = tuple(block_sizes)
    X = [np.array([g[s:t, s:t] for g in generators], dtype=complex)
         .reshape(-1, t - s, t - s) for s, t in block_offsets(sizes)]
    by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, k in itertools.product(range(len(sizes)), repeat=2):
        by_shape.setdefault((sizes[i], sizes[k]), []).append((i, k))
    ops = {}
    for (n_i, n_k), pairs in by_shape.items():
        Xi, Xk = (np.array([X[b] for b in side]) for side in zip(*pairs))
        # 1 (x) X^(k)T - X^(i) (x) 1 per pair and generator, each as the product np.kron forms
        phi = (np.eye(n_i)[:, None, :, None] * Xk.swapaxes(-1, -2)[..., None, :, None, :]
               - Xi[..., :, None, :, None] * np.eye(n_k)[:, None, :])
        ops[n_i, n_k] = pairs, phi.reshape(len(pairs), -1, n_i * n_k)
    return ops


def _pair_ranges(block_sizes: Sequence[int], generators: Sequence[np.ndarray]
                 ) -> dict[tuple[int, int], np.ndarray]:
    """Kept left singular vectors of each block pair's Sylvester operator
    phi_ik, as {(i, k): the (m_ik, n, n_i, n_k) kept vectors}: one stacked
    SVD per block shape of `block_pair_operators`, each pair cut by the rank
    rule of `numerical_span`, at RANK_TOL times its own largest value."""
    n, kept = len(generators), {}
    for shape, (pairs, stack) in block_pair_operators(block_sizes, generators).items():
        u, s = np.linalg.svd(stack, full_matrices=False)[:2]
        for pair, v, c in zip(pairs, u, (s > RANK_TOL * s[:, :1]).sum(axis=1).tolist()):
            kept[pair] = v[:, :c].T.reshape(c, n, *shape)
    return kept


def _generates(block_sizes: Sequence[int], generators: Sequence[np.ndarray]) -> bool:
    """Whether each phi_ik has its Schur rank, a proof of generation (`build_algebra`)."""
    return all(len(w) == block_sizes[i] * block_sizes[k] - (i == k)
               for (i, k), w in _pair_ranges(block_sizes, generators).items())


def _validated(block_sizes: Sequence[int], trace_weights: Sequence[float],
               generators: Sequence[np.ndarray], labels: Optional[Sequence[str]]):
    """The declared block sizes, weights, generators and labels as tuples,
    checked; WeightError / ShapeMismatch / NotSelfAdjoint on malformed input."""
    sizes = tuple(int(n) for n in block_sizes)
    weights = tuple(float(w) for w in trace_weights)
    if len(sizes) == 0 or any(n <= 0 for n in sizes):
        raise ShapeMismatch(f"block sizes must be positive integers, got {sizes}")
    if len(weights) != len(sizes):
        raise WeightError(f"{len(weights)} weights for {len(sizes)} blocks")
    if any(not w > 0 for w in weights):
        raise WeightError(f"weights must be positive, got {weights}")
    if not abs(sum(weights) - 1.0) <= SCALAR_TOL:
        raise WeightError(f"weights sum to {sum(weights)!r}, expected 1")
    for i, (n, w) in enumerate(zip(sizes, weights)):  # sqrt(n / w) scales `_block_basis`
        if math.isinf(n / w):
            raise WeightError(f"weight {w!r} of block {i} (size {n}) is too small: "
                              f"sqrt({n} / {w!r}) overflows")

    total = sum(sizes)
    mats = tuple(np.asarray(g, dtype=complex) for g in generators)
    # shapes first: the support mask below takes N^2 bytes
    for k, g in enumerate(mats):
        if g.shape != (total, total):
            raise ShapeMismatch(
                f"generator {k} has shape {g.shape}, expected {(total, total)}"
            )
    support = np.zeros((total, total), dtype=bool)
    for start, stop in block_offsets(sizes):
        support[start:stop, start:stop] = True

    for k, g in enumerate(mats):
        if not np.isfinite(g).all():
            raise ShapeMismatch(f"generator {k} has non-finite entries")
        off = np.abs(g[~support])
        if off.size and off.max() > SCALAR_TOL:
            raise ShapeMismatch(
                f"generator {k} has entries of size {off.max():.3e} outside the blocks"
            )
        if np.abs(g - g.conj().T).max() > SCALAR_TOL * max(1.0, float(np.abs(g).max())):
            raise NotSelfAdjoint(f"generator {k} is not self-adjoint")

    if labels is None:
        labels = tuple(f"X{j + 1}" for j in range(len(mats)))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(mats):
            raise ShapeMismatch("one label per generator required")
    return sizes, weights, mats, labels


def build_algebra(
    block_sizes: Sequence[int],
    trace_weights: Sequence[float],
    generators: Sequence[np.ndarray],
    labels: Optional[Sequence[str]] = None,
) -> TracialAlgebra:
    """Validate the block data and the generating tuple, and package them.

    Raises WeightError / ShapeMismatch / NotSelfAdjoint on malformed input,
    and NotGenerating, naming `word_span`'s dimension, unless the ranks of
    the Sylvester operators phi_ik on the `unit_scaled` generators prove that
    the tuple generates the declared algebra (`wedderburn.blockify_subalgebra`
    builds the algebra it does generate).  Schur: the tuple's commutant in
    M_N is the sum of the ker phi_ik and holds the block identities, so
    rank phi_ik <= n_i n_k - delta_ik, with equality at every pair exactly
    when that commutant is the declared algebra's, that is, by the double
    commutant theorem, when the tuple generates it; the ranks are then the
    multiplicities that `cocycles.delta_report` reads.  Weyl: the computed
    SVD of phi_ik is exact for phi_ik + E, ||E|| <= n n_i n_k u s_1 (its rows
    times u, the unit roundoff, as numpy's matrix_rank assumes), and forming
    phi_ik rounds only diagonal entries, adding at most sqrt(n_i n_k) u s_1.
    As n_i n_k <= D, up to D = 100 and 9 10^4 generators both stay below the
    per-pair cut RANK_TOL s_1: each kept value proves rank >= m, and the
    kernel stays below the cut.  Dividing by a power of two scales a
    generator's rows exactly and keeps every rank.
    """
    sizes, weights, mats, labels = _validated(block_sizes, trace_weights, generators, labels)
    unit = unit_scaled(mats)
    if not _generates(sizes, unit):
        generated, dim = word_span(sizes, unit).shape[0], sum(n * n for n in sizes)
        raise NotGenerating(
            f"generators span a {generated}-dimensional subalgebra of the "
            f"{dim}-dimensional declared algebra; set algebra.subalgebra_mode, or "
            "call blockify_subalgebra, to work inside the generated subalgebra"
        )
    return TracialAlgebra(sizes, weights, mats, labels, _GENERATED)


@dataclass
class GnsStructure:
    """Orthonormal coordinates for the trace representation of an algebra.

    The basis (`_orthonormal_selfadjoint_basis`) consists of self-adjoint
    algebra elements, so the conjugation a -> a* acts on coordinates as
    entrywise complex conjugation.
    """

    algebra: TracialAlgebra
    trace_vector: np.ndarray     # (D,) coordinates of 1, unit norm
    generator_left_mult: np.ndarray  # (n, D, D), from the trace formula
    # per block: row range (s, t), coordinate range (S, T), size n, unit map U
    blocks: list[tuple[int, int, int, int, int, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.blocks = [(s, t, S, T, n, _unit_map(n))
                       for (s, t), (S, T), n in _block_ranges(self.algebra.block_sizes)]

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @functools.cached_property
    def commutant_actions(self) -> list[tuple[int, int, np.ndarray]]:
        """Per block: its coordinate range (S, T) and the (n^2, n^2, n^2) stack
        of its basis elements' commutant action generators R_p = L_{b_p}^T
        there, from the frame (see `_frame`) in O(n^6) work, once per
        structure; each R_p is exactly zero off its block."""
        return [(S, T, _frame(_block_basis(n, alpha), U).transpose(0, 2, 1))
                for (_, _, S, T, n, U), alpha in zip(self.blocks, self.algebra.trace_weights)]


@functools.lru_cache(maxsize=None)
def _contraction_path(spec: str, *shapes: tuple[int, ...]) -> list:
    """np.einsum's greedy path for operands of these shapes; the search reads
    only the shapes, so it runs once per shape in a process."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(spec, *operands, optimize=True)[0]


def _block_basis(n: int, alpha: float) -> np.ndarray:
    """The (n^2, n, n) Hermitian basis of an n x n block of weight alpha,
    orthonormal for tau: sqrt(n/alpha) e_kk for each k, then for k < l in order
    sqrt(n/(2 alpha)) (e_kl + e_lk) and sqrt(n/(2 alpha)) i (e_kl - e_lk)."""
    pair_scale = np.sqrt(n / (2.0 * alpha))
    values = np.array([0.0, np.sqrt(n / alpha), pair_scale, 1j * pair_scale,
                       -1j * pair_scale], dtype=complex)
    return values[_basis_pattern(n)]


@functools.lru_cache(maxsize=None)
def _basis_pattern(n: int) -> np.ndarray:
    """Which value of `_block_basis` each entry holds: 0 for zero, 1 for the
    diagonal units, 2 for the real pairs, 3 and 4 for the i and -i entries
    of the imaginary pairs.  Built once per size, read-only."""
    out = np.zeros((n * n, n, n), dtype=np.int8)
    d = np.arange(n)
    out[d, d, d] = 1
    k, l = np.triu_indices(n, 1)
    p = n + 2 * np.arange(k.size)
    out[p, k, l] = out[p, l, k] = 2
    out[p + 1, k, l] = 3
    out[p + 1, l, k] = 4
    out.flags.writeable = False
    return out


def _orthonormal_selfadjoint_basis(algebra: TracialAlgebra) -> np.ndarray:
    """Each block's `_block_basis`, in block order on the block's rows."""
    out = np.zeros((algebra.dim, algebra.matrix_size, algebra.matrix_size),
                   dtype=complex)
    for ((s, t), (S, T), n), alpha in zip(_block_ranges(algebra.block_sizes),
                                          algebra.trace_weights):
        out[S:T, s:t, s:t] = _block_basis(n, alpha)
    return out


def gns_structure(algebra: TracialAlgebra) -> GnsStructure:
    """Build the trace representation of the algebra.

    Forms the generators' left multiplications and the trace vector from
    the dense (D, N, N) orthonormal self-adjoint basis, which lives only
    here: the structure does not keep it.  The basis consists of
    Hermitian combinations of scaled matrix units, so in
    each block left multiplication has a closed form, the matrix-unit frame
    conj(U) (x (x) 1) U^T (see `_frame`).  `GnsStructure.commutant_actions`
    builds the basis elements' left multiplications from it block by block,
    the first time they are asked for; they are multiplicative and commute
    with their conjugates up to the rounding bound stated there.
    `_verify_gns` ties the frame to the input: each generator's left
    multiplication from the trace formula matches its frame.
    """
    basis = _orthonormal_selfadjoint_basis(algebra)
    wvec = _diag_weights(algebra.block_sizes, algebra.trace_weights)

    # one nonzero term per coordinate at most, so no summation order matters;
    # _block_basis puts only real values on the diagonal, so the imaginary part is 0
    trace_vector = np.einsum("maa,a->m", basis, wvec).real

    # L_X[m, q] = tau(b_m X b_q); every generator has one shape, so one path
    # serves them all, searched once per shape
    spec, xs = "mab,bc,qca,a->mq", algebra.generators
    path = xs and _contraction_path(spec, basis.shape, xs[0].shape, basis.shape, wvec.shape)
    Ls = np.asarray([np.einsum(spec, basis, x, basis, wvec, optimize=path) for x in xs],
                    dtype=complex).reshape(-1, algebra.dim, algebra.dim)
    gns = GnsStructure(algebra=algebra, trace_vector=trace_vector, generator_left_mult=Ls)
    _verify_gns(gns)
    return gns


def _block_ranges(block_sizes: Sequence[int]):
    """Per block: its row range (s, t), its coordinate range (S, T) and its size n."""
    return zip(block_offsets(block_sizes),
               block_offsets([n * n for n in block_sizes]), block_sizes)


def _unit_map(n: int) -> np.ndarray:
    """The map U of one n x n block from its Hermitian basis to its units.

    Row p holds the coordinates of the block's p-th basis element in the
    scaled units sqrt(n/alpha) e_kl, unit (k, l) at column k n + l: the
    rows of `_block_basis(n, n)`, whose scales are exactly 1 and sqrt(1/2).
    U is unitary, and left multiplication by a block element x reads
    conj(U) (x (x) 1) U^T in the basis, since x sqrt(n/alpha) e_kl =
    sum_j x_jk sqrt(n/alpha) e_jl.
    """
    return _block_basis(n, n).reshape(n * n, n * n)


def _frame(x: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Left multiplication by the n x n block element x in the block's
    Hermitian basis: the matrix-unit frame conj(U) (x (x) 1) U^T, U from
    `_unit_map(n)`.

    For the exact frames of the basis elements b_p of a block (size n,
    weight alpha, c = sqrt(n/alpha) >= ||b_p||), left multiplication is
    exactly multiplicative, sum_m L_p[m, q] L_m = L_p L_q, and commutes with
    its conjugates, conj(L_p) L_q = L_q conj(L_p).  The computed frame of a
    stored b_p is within eps = 20 u c of the exact one entrywise (u the unit
    roundoff): every term of the two matrix products but at most four
    products conj(U[m, a]) b_p[j, k] U[q, b] has an exact-zero factor, those
    four have sizes summing to at most 2c, their factors are each within a
    relative 1.5 u of their exact values, and forming and summing them adds
    at most four roundings.  Each term of either identity's gap that is
    linear in the entry errors sums them against a row or column of some
    L_p or a vector (L_m[r, s])_m: the coordinates of a product of two basis
    elements, of 2-norm at most c and with at most min(n^2, 8) nonzeros.
    The two quadratic terms are at most n^2 eps^2 each.  So on the block
        multiplicativity gap, commutant gap <= 4 k c eps + 2 n^2 eps^2,
    k = min(n, sqrt 8), about 230 u n / alpha.  A 1 x 1 block satisfies both
    identities for any value of its one entry, and terms across blocks
    have an exact-zero factor.  A stack of block elements gives the stack of
    their frames.
    """
    n = x.shape[-1]
    # x (x) 1 as the one broadcast product that np.kron forms
    kron = x[..., :, None, :, None] * np.eye(n)[:, None, :]
    return np.conj(U) @ kron.reshape(*x.shape[:-2], n * n, n * n) @ U.T


def _verify_gns(gns: GnsStructure) -> None:
    """Raise FreedimError unless each generator's left multiplication from
    the trace formula is zero off the blocks and within OPERATOR_TOL (times
    its largest entry when that exceeds 1) of its frame built with the same
    U: the gap that ties the closed form (see `_frame`) to the algebra.

    Two more identities hold by construction, for every admitted weight.  Per
    block the stored c = sqrt(n/alpha), p = sqrt(n/(2 alpha)) and U's sqrt(1/2)
    are within a relative 1.5 u + u^2, and w = alpha/n within 4 u (u if normal;
    an admitted alpha/n exceeds 2^-1024), u the unit roundoff.  tau(b_m b_q),
    summed as sum_ab (b_m[b, a] w[b]) b_q[a, b], is within 10 u of delta_mq:
    c^2 w or 2 p^2 w with two roundings on the diagonal; off it, a product with
    a zero diagonal or two terms equal but for sign.  L_{b_p} xi, xi the trace
    vector, as conj(U) vec(b_p V) with V = U^T xi = diag(fl(c w)), is within
    12 u of e_p: c fl(c w) or 2 sqrt(1/2) fl(p fl(c w)), three roundings.
    """
    Ls = gns.generator_left_mult
    N = gns.algebra.matrix_size
    X = np.asarray(gns.algebra.generators, dtype=complex).reshape(len(Ls), N, N)
    tol = OPERATOR_TOL * np.maximum(1.0, np.abs(X).max(axis=(1, 2), initial=0.0))
    for s, t, S, T, _, U in gns.blocks:
        rows = Ls[:, S:T]
        gaps = np.abs(rows[:, :, S:T] - _frame(X[:, s:t, s:t], U)).max(axis=(1, 2), initial=0.0)
        wrong = rows[:, :, :S].any(axis=(1, 2)) | rows[:, :, T:].any(axis=(1, 2)) | ~(gaps <= tol)
        if wrong.any():
            raise FreedimError(f"left multiplication by generator {wrong.argmax()} does "
                               "not match the matrix-unit frame")
