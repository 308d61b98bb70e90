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
import math
from dataclasses import dataclass, field
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
    """Orthonormal basis (rows) of the row span of a 2-D array, with relative
    SVD cutoff RANK_TOL; a (0, cols) array for an empty family."""
    A = np.asarray(vectors, dtype=complex)
    if A.size == 0:
        return np.zeros((0, A.shape[1]), dtype=complex)
    return span_with_spectrum(A)[0]


def span_with_spectrum(A: np.ndarray):
    """Kept rows vh[:r] (s > RANK_TOL * s[0]) of a 2-D array's SVD, and all of s.

    The rank rule of `numerical_span`; the singular values are returned for
    callers that certify properties of the span from its spectrum.
    """
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, A.shape[1]), dtype=complex), s
    return vh[: int(np.sum(s > RANK_TOL * s[0]))], s


def _rowspace_residual(rows: np.ndarray, basis_flat: np.ndarray) -> float:
    """Largest distance from a row to the span of the orthonormal basis rows."""
    if rows.shape[0] == 0:
        return 0.0
    if basis_flat.shape[0] == 0:
        norms = np.linalg.norm(rows, axis=1)
        return float(norms.max()) if norms.size else 0.0
    coeff = rows @ basis_flat.conj().T
    resid = rows - coeff @ basis_flat
    return float(np.linalg.norm(resid, axis=1).max())


def unit_scaled(generators: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each nonzero generator divided (exactly) by the power of two nearest its
    largest entry: the algebra generated does not depend on the scale, but the
    relative cutoffs of the span and commutant computations do."""
    peaks = [float(np.abs(g).max()) for g in generators]
    return [g / 2.0 ** round(math.log2(m)) if m else g
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


@dataclass
class TracialAlgebra:
    """A finite multi-matrix *-algebra with a distinguished generating tuple."""

    block_sizes: tuple[int, ...]
    trace_weights: tuple[float, ...]
    generators: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    generated_dim: int

    @property
    def matrix_size(self) -> int:
        return sum(self.block_sizes)

    @property
    def dim(self) -> int:
        """Complex dimension D = sum n_i^2 of the algebra (and of its L2 space)."""
        return sum(n * n for n in self.block_sizes)

    @property
    def generates(self) -> bool:
        """Whether the words in the generators span the whole algebra."""
        return self.generated_dim == self.dim

    def trace(self, x: np.ndarray) -> complex:
        """tau(x) = sum_i alpha_i * tr(x_i) / n_i."""
        w = _diag_weights(self.block_sizes, self.trace_weights)
        return complex(np.sum(np.diag(x) * w))

    def unflatten(self, v: np.ndarray) -> np.ndarray:
        return _unflatten(v, self.block_sizes)

    def effective_algebra(self) -> "TracialAlgebra":
        """The algebra actually generated by the tuple.

        Equal to self when the tuple generates; in subalgebra mode the
        generated *-subalgebra is re-expressed in its own block form (same
        trace), and that re-expression is what every representation-level
        computation operates on.
        """
        if self.generates:
            return self
        # wedderburn builds TracialAlgebras, so it imports this module
        from .wedderburn import blockify_subalgebra

        return blockify_subalgebra(self)


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


def build_algebra(
    block_sizes: Sequence[int],
    trace_weights: Sequence[float],
    generators: Sequence[np.ndarray],
    labels: Optional[Sequence[str]] = None,
    subalgebra_mode: bool = False,
) -> TracialAlgebra:
    """Validate the block data and the generating tuple, and package them.

    Raises WeightError / ShapeMismatch / NotSelfAdjoint on malformed input,
    and NotGenerating when the tuple fails to generate and subalgebra mode
    was not requested.
    """
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

    total = sum(sizes)
    mats = [np.asarray(g, dtype=complex) for g in generators]
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

    algebra = TracialAlgebra(
        block_sizes=sizes,
        trace_weights=weights,
        generators=tuple(mats),
        labels=labels,
        generated_dim=word_span(sizes, unit_scaled(mats)).shape[0],
    )
    if not algebra.generates and not subalgebra_mode:
        raise NotGenerating(
            f"generators span a {algebra.generated_dim}-dimensional subalgebra "
            f"of the {algebra.dim}-dimensional declared algebra; "
            "pass subalgebra_mode=True to work inside the generated subalgebra"
        )
    return algebra


@dataclass
class GnsStructure:
    """Orthonormal coordinates for the trace representation of an algebra.

    The basis consists of self-adjoint algebra elements, so the conjugation
    a -> a* acts on coordinates as entrywise complex conjugation.
    """

    algebra: TracialAlgebra
    dim: int
    basis: np.ndarray            # (D, N, N) self-adjoint elements
    trace_vector: np.ndarray     # (D,) coordinates of 1, unit norm
    p1: np.ndarray               # (D, D) rank-one projection onto the trace vector
    generator_left_mult: np.ndarray  # (n, D, D): left_mults (trace formula)
    _wvec: np.ndarray = field(repr=False, default=None)
    # per block: row range (s, t), coordinate range (S, T), size n, unit map U
    blocks: list[tuple[int, int, int, int, int, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.blocks = [(s, t, S, T, n, _unit_map(n))
                       for (s, t), (S, T), n in _block_ranges(self.algebra.block_sizes)]

    def left_mults(self, generators: Sequence[np.ndarray]) -> np.ndarray:
        """(n, D, D) stack of the left multiplications by the generators, all
        of one shape and so contracted along one path, searched once per shape."""
        xs = [np.asarray(X, dtype=complex) for X in generators]
        spec, b, w = "mab,bc,qca,a->mq", self.basis, self._wvec
        path = xs and _contraction_path(spec, b.shape, xs[0].shape, b.shape, w.shape)
        Ls = [np.einsum(spec, b, x, b, w, optimize=path) for x in xs]
        return np.asarray(Ls, dtype=complex).reshape(-1, self.dim, self.dim)

    @functools.cached_property
    def commutant_actions(self) -> list[tuple[int, int, np.ndarray]]:
        """Per block: its coordinate range (S, T) and the (n^2, n^2, n^2) stack
        of its basis elements' commutant action generators R_p = L_{b_p}^T
        there, from the frame (see `_frame`) in O(n^6) work, once per
        structure; each R_p is exactly zero off its block."""
        return [(S, T, _frame(self.basis[S:T, s:t, s:t], U).transpose(0, 2, 1))
                for s, t, S, T, _, U in self.blocks]


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
    """Build the trace representation of the (effective) algebra.

    Populates the orthonormal self-adjoint basis, the generators' left
    multiplications, the trace vector and its rank-one projection.  The
    basis consists of Hermitian combinations of scaled matrix units, so in
    each block left multiplication has a closed form, the matrix-unit frame
    conj(U) (x (x) 1) U^T (see `_frame`).  `GnsStructure.commutant_actions`
    builds the basis elements' left multiplications from it block by block,
    the first time they are asked for; they are multiplicative and commute
    with their conjugates up to the rounding bound stated there.
    `_verify_gns` ties the frame to the input: the basis is orthonormal,
    each generator's left multiplication from the trace formula matches its
    frame, and the trace vector is cyclic.
    """
    algebra = algebra.effective_algebra()
    basis = _orthonormal_selfadjoint_basis(algebra)
    D = algebra.dim
    wvec = _diag_weights(algebra.block_sizes, algebra.trace_weights)

    # one nonzero term per coordinate at most, so no summation order matters
    trace_vector = np.einsum("maa,a->m", basis, wvec)
    if np.abs(trace_vector.imag).max() > SCALAR_TOL:
        raise FreedimError("trace vector acquired an imaginary part")
    trace_vector = trace_vector.real
    p1 = np.outer(trace_vector, trace_vector)

    gns = GnsStructure(
        algebra=algebra,
        dim=D,
        basis=basis,
        trace_vector=trace_vector,
        p1=p1,
        generator_left_mult=None,
        _wvec=wvec,
    )
    gns.generator_left_mult = gns.left_mults(algebra.generators)
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


def _gram(basis: np.ndarray, wvec: np.ndarray) -> np.ndarray:
    """gram[m, q] = tau(b_m b_q) = sum_ab b_m[b, a] b_q[a, b] w[b], one matrix product."""
    D = basis.shape[0]
    return (basis * wvec[:, None]).reshape(D, -1) @ basis.transpose(0, 2, 1).reshape(D, -1).T


def _verify_gns(gns: GnsStructure) -> None:
    """Raise FreedimError unless the matrix-unit frame agrees with the input.

    The product identities hold for the basis elements' frames by
    construction (see `_frame`).  What ties the closed form to the algebra
    is checked here: the basis is orthonormal for tau; each generator's
    left multiplication, computed from the trace formula, is zero off the
    blocks and matches the frame of the generator built with the same U,
    to OPERATOR_TOL relative to the generator's largest entry when that
    exceeds 1; and the trace vector is cyclic, L_{b_p} applied to it
    recovering the coordinates e_p, computed as conj(U) vec(b_p V) with
    V = U^T 1 as an n x n matrix of units, so that no frame is built.
    """
    D = gns.dim
    basis = gns.basis

    if np.abs(_gram(basis, gns._wvec) - np.eye(D)).max() > OPERATOR_TOL:
        raise FreedimError("trace-representation basis failed orthonormality")

    Ls = gns.generator_left_mult
    X = np.asarray(gns.algebra.generators, dtype=complex).reshape(len(Ls), *basis.shape[1:])
    tol = OPERATOR_TOL * np.maximum(1.0, np.abs(X).max(axis=(1, 2), initial=0.0))
    for s, t, S, T, n, U in gns.blocks:
        rows = Ls[:, S:T]
        gaps = np.abs(rows[:, :, S:T] - _frame(X[:, s:t, s:t], U)).max(axis=(1, 2), initial=0.0)
        wrong = rows[:, :, :S].any(axis=(1, 2)) | rows[:, :, T:].any(axis=(1, 2)) | ~(gaps <= tol)
        if wrong.any():
            raise FreedimError(f"left multiplication by generator {wrong.argmax()} does "
                               "not match the matrix-unit frame")
        units = (U.T @ gns.trace_vector[S:T]).reshape(n, n)
        hats = (basis[S:T, s:t, s:t] @ units).reshape(T - S, T - S) @ np.conj(U).T
        if np.abs(hats - np.eye(T - S)).max() > OPERATOR_TOL:
            raise FreedimError("trace vector is not cyclic for the basis")
