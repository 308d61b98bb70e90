"""Finite tracial multi-matrix *-algebras and their trace representations.

An algebra here is a direct sum of full matrix blocks M = ⊕_i M_{n_i}(C)
carried as block-diagonal N x N matrices (N = sum n_i), with the tracial
state tau(x) = sum_i alpha_i * tr_i(x_i), tr_i the normalized trace on the
i-th block.  The trace representation endows the algebra with the inner
product <a, b> = tau(b* a); its completion is a D-dimensional Hilbert space
(D = sum n_i^2) on which the algebra acts by left multiplication.
"""

from __future__ import annotations

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


def _flatten(x: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Concatenate the block entries of x into a vector of length D."""
    return np.concatenate([x[s:t, s:t].ravel() for s, t in block_offsets(block_sizes)])


def _unflatten(v: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Block-diagonal matrix whose block entries are the vector v."""
    N = sum(block_sizes)
    out = np.zeros((N, N), dtype=complex)
    pos = 0
    for (start, stop), n in zip(block_offsets(block_sizes), block_sizes):
        out[start:stop, start:stop] = v[pos : pos + n * n].reshape(n, n)
        pos += n * n
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
    stabilizes; the span grows by at least one per round, so D rounds
    always suffice.
    """
    sizes = tuple(block_sizes)
    ambient = sum(n * n for n in sizes)
    seed = [_flatten(np.eye(sum(sizes), dtype=complex), sizes)]
    seed += [_flatten(g, sizes) for g in generators]
    basis = numerical_span(np.array(seed))
    for _ in range(ambient):
        if not generators:
            break
        mats = [_unflatten(row, sizes) for row in basis]
        new_rows = np.array([_flatten(m @ g, sizes) for m in mats for g in generators])
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

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by x on the trace representation."""
        return np.einsum(
            "mab,bc,qca,a->mq", self.basis, x, self.basis, self._wvec, optimize=True
        )

    def left_mults(self, generators: Sequence[np.ndarray]) -> np.ndarray:
        """(n, D, D) stack of the left multiplications by the generators."""
        Ls = [self.left_mult(np.asarray(X, dtype=complex)) for X in generators]
        return np.asarray(Ls, dtype=complex).reshape(-1, self.dim, self.dim)

    def basis_left_mults(self) -> np.ndarray:
        """(D, D, D) left multiplications by the basis elements, built anew on
        each call from the matrix-unit frame: L_p = conj(U) (b_p (x) 1) U^T on
        the coordinates of b_p's block, zero off it (see `_frame`), one block
        at a time in O(n^6) work."""
        D = self.dim
        out = np.zeros((D, D, D), dtype=complex)
        for (s, t), (S, T), n in _block_ranges(self.algebra.block_sizes):
            out[S:T, S:T, S:T] = _frame(self.basis[S:T, s:t, s:t], _unit_map(n))
        return out


def _orthonormal_selfadjoint_basis(algebra: TracialAlgebra) -> np.ndarray:
    """Hermitian combinations of scaled matrix units, orthonormal for tau.

    Per block of size n and weight alpha: sqrt(n/alpha) e_kk on the diagonal
    and, for k < l, sqrt(n/(2 alpha)) (e_kl + e_lk) and
    sqrt(n/(2 alpha)) i (e_kl - e_lk).
    """
    N = algebra.matrix_size
    mats = []
    for (start, _), n, alpha in zip(
        block_offsets(algebra.block_sizes), algebra.block_sizes, algebra.trace_weights
    ):
        diag_scale = np.sqrt(n / alpha)
        pair_scale = np.sqrt(n / (2.0 * alpha))
        for k in range(n):
            b = np.zeros((N, N), dtype=complex)
            b[start + k, start + k] = diag_scale
            mats.append(b)
        for k in range(n):
            for l in range(k + 1, n):
                b = np.zeros((N, N), dtype=complex)
                b[start + k, start + l] = pair_scale
                b[start + l, start + k] = pair_scale
                mats.append(b)
                c = np.zeros((N, N), dtype=complex)
                c[start + k, start + l] = 1j * pair_scale
                c[start + l, start + k] = -1j * pair_scale
                mats.append(c)
    return np.array(mats)


def gns_structure(algebra: TracialAlgebra) -> GnsStructure:
    """Build the trace representation of the (effective) algebra.

    Populates the orthonormal self-adjoint basis, the generators' left
    multiplications, the trace vector and its rank-one projection.  The
    basis consists of Hermitian combinations of scaled matrix units, so in
    each block left multiplication has a closed form, the matrix-unit frame
    conj(U) (x (x) 1) U^T (see `_frame`).  `GnsStructure.basis_left_mults`
    builds the basis elements' left multiplications from it on demand; they
    are multiplicative and commute with their conjugates up to the rounding
    bound stated there.
    `_verify_gns` ties the frame to the input: the basis is orthonormal,
    each generator's left multiplication from the trace formula matches its
    frame, and the trace vector is cyclic.
    """
    algebra = algebra.effective_algebra()
    basis = _orthonormal_selfadjoint_basis(algebra)
    D = algebra.dim
    wvec = _diag_weights(algebra.block_sizes, algebra.trace_weights)

    trace_vector = np.einsum("mab,ba,b->m", basis, np.eye(basis.shape[1]), wvec,
                             optimize=True)
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

    Row p holds the coordinates of the block's p-th basis element (the order
    of _orthonormal_selfadjoint_basis) in the scaled units sqrt(n/alpha)
    e_kl, unit (k, l) at column k n + l: 1 at (k, k); 1/sqrt 2 at (k, l) and
    (l, k); i/sqrt 2 at (k, l) and -i/sqrt 2 at (l, k).  U is unitary, and
    left multiplication by a block element x reads conj(U) (x (x) 1) U^T in
    the basis, since x sqrt(n/alpha) e_kl = sum_j x_jk sqrt(n/alpha) e_jl.
    """
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
    return np.conj(U) @ np.kron(x, np.eye(n)) @ U.T


def _verify_gns(gns: GnsStructure) -> None:
    """Raise FreedimError unless the matrix-unit frame agrees with the input.

    The product identities hold for `basis_left_mults` by construction (see
    `_frame`).  What ties the closed form to the algebra is checked here:
    the basis is orthonormal for tau; each generator's left multiplication,
    computed from the trace formula, is zero off the blocks and matches the
    frame of the generator built with the same U, to OPERATOR_TOL relative
    to the generator's largest entry when that exceeds 1; and the trace
    vector is cyclic, L_{b_p} applied to it recovering the coordinates e_p,
    one frame at a time so that no D x D x D stack is built.
    """
    D = gns.dim
    basis = gns.basis

    gram = np.einsum("qab,mba,b->mq", basis, basis, gns._wvec, optimize=True)
    if np.abs(gram - np.eye(D)).max() > OPERATOR_TOL:
        raise FreedimError("trace-representation basis failed orthonormality")

    generators = gns.algebra.generators
    for (s, t), (S, T), n in _block_ranges(gns.algebra.block_sizes):
        U = _unit_map(n)
        for j, (X, rows) in enumerate(zip(generators, gns.generator_left_mult[:, S:T])):
            gap = np.abs(rows[:, S:T] - _frame(X[s:t, s:t], U)).max()
            if (rows[:, :S].any() or rows[:, T:].any()
                    or not gap <= OPERATOR_TOL * max(1.0, float(np.abs(X).max()))):
                raise FreedimError(f"left multiplication by generator {j} does not "
                                   "match the matrix-unit frame")
        hats = np.array([_frame(b, U) @ gns.trace_vector[S:T]
                         for b in basis[S:T, s:t, s:t]])
        if np.abs(hats - np.eye(T - S)).max() > OPERATOR_TOL:
            raise FreedimError("trace vector is not cyclic for the basis")
