"""Finite tracial multi-matrix *-algebras and their trace representations.

An algebra here is a direct sum of full matrix blocks M = ⊕_i M_{n_i}(C)
carried as block-diagonal N x N matrices (N = sum n_i), with the tracial
state tau(x) = sum_i alpha_i * tr_i(x_i), tr_i the normalized trace on the
i-th block.  The trace representation endows the algebra with the inner
product <a, b> = tau(b* a); its completion is a D-dimensional Hilbert space
(D = sum n_i^2) on which the algebra acts by left multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import (
    FreedimError,
    NotGenerating,
    NotSelfAdjoint,
    ShapeMismatch,
    WeightError,
)
from .tolerances import OPERATOR_TOL, SCALAR_TOL

if TYPE_CHECKING:  # pragma: no cover
    from .derivations import WordTree


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
    """A finite multi-matrix *-algebra with a distinguished generating tuple.

    Not modified after construction, except that `effective_algebra` fills
    `_effective` on first use of a non-generating tuple.
    """

    block_sizes: tuple[int, ...]
    trace_weights: tuple[float, ...]
    generators: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    generated_dim: int
    _effective: Optional["TracialAlgebra"] = field(default=None, repr=False)

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

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def trace(self, x: np.ndarray) -> complex:
        """tau(x) = sum_i alpha_i * tr(x_i) / n_i."""
        w = _diag_weights(self.block_sizes, self.trace_weights)
        return complex(np.sum(np.diag(x) * w))

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        """<a, b> = tau(b* a)."""
        return self.trace(b.conj().T @ a)

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
        if self._effective is None:
            from .wedderburn import blockify_subalgebra

            self._effective = blockify_subalgebra(self)
        return self._effective


def word_span(
    block_sizes: Sequence[int], generators: Sequence[np.ndarray]
) -> np.ndarray:
    """Orthonormal basis (flattened rows) of the span of all words in the
    generators and the identity.

    Iterates right-multiplication by the generators until the span
    stabilizes; the span grows by at least one per round, so D rounds
    always suffice.
    """
    from .vndim import numerical_span

    sizes = tuple(block_sizes)
    ambient = sum(n * n for n in sizes)
    seed = [_flatten(np.eye(sum(sizes), dtype=complex), sizes)]
    seed += [_flatten(g, sizes) for g in generators]
    basis = numerical_span(np.array(seed), dim=ambient)
    for _ in range(ambient):
        if not generators:
            break
        mats = [_unflatten(row, sizes) for row in basis]
        new_rows = np.array([_flatten(m @ g, sizes) for m in mats for g in generators])
        grown = numerical_span(np.vstack([basis, new_rows]), dim=ambient)
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown
    return basis


def generation_check(algebra: TracialAlgebra) -> tuple[int, bool]:
    """Span dimension of all generator words, and whether it exhausts the algebra."""
    dim = word_span(algebra.block_sizes, algebra.generators).shape[0]
    return dim, dim == algebra.dim


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
        if np.abs(g - g.conj().T).max() > SCALAR_TOL:
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
        generated_dim=word_span(sizes, mats).shape[0],
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
    basis_left_mult: np.ndarray  # (D, D, D): left multiplication by each basis element
    generator_left_mult: np.ndarray  # (n, D, D): left_mults of the generators
    _wvec: np.ndarray = field(repr=False, default=None)
    _words: Optional[WordTree] = field(repr=False, default=None)

    @property
    def words(self) -> WordTree:
        """The word tree of the generators that derivation fits replay
        (derivations.enumerate_words), enumerated on first use."""
        if self._words is None:
            from .derivations import enumerate_words

            self._words = enumerate_words(self)
        return self._words

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates <x, b_m> of an algebra element in the orthonormal basis."""
        return np.einsum("mab,ba,b->m", self.basis, x, self._wvec, optimize=True)

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by x on the trace representation."""
        return np.einsum(
            "mab,bc,qca,a->mq", self.basis, x, self.basis, self._wvec, optimize=True
        )

    def left_mults(self, generators: Sequence[np.ndarray]) -> np.ndarray:
        """(n, D, D) stack of the left multiplications by the generators."""
        Ls = [self.left_mult(np.asarray(X, dtype=complex)) for X in generators]
        return np.asarray(Ls, dtype=complex).reshape(-1, self.dim, self.dim)

    def right_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of right multiplication by x; equals J L_{x*} J."""
        return self.left_mult(x).T

    def conjugation(self, v: np.ndarray) -> np.ndarray:
        """The conjugation J: entrywise complex conjugation of coordinates."""
        return np.conj(v)

    def element(self, v: np.ndarray) -> np.ndarray:
        """Algebra element with the given coordinates."""
        return np.einsum("m,mab->ab", v, self.basis)


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

    Populates the orthonormal self-adjoint basis, left multiplications, the
    trace vector and its rank-one projection, and verifies the structural
    identities: coordinates reproduce the inner product, left multiplication
    is a *-homomorphism, conjugated left multiplications commute with left
    multiplications, and the trace vector is cyclic.

    The basis consists of Hermitian combinations of scaled matrix units, so
    in each block left multiplication has a closed form, the matrix-unit
    frame conj(U) (x (x) 1) U^T (see `_unit_map`), in which the two product
    identities hold exactly.  They are certified by a bound from the
    distance of basis_left_mult to that frame, in O(D^3) work (see
    `_frame_gaps`), and generator_left_mult is checked against the frame
    too.
    """
    algebra = algebra.effective_algebra()
    basis = _orthonormal_selfadjoint_basis(algebra)
    D = algebra.dim
    wvec = _diag_weights(algebra.block_sizes, algebra.trace_weights)

    # L_p[m, q] = tau(b_m b_p b_q) = <b_p b_q, b_m>, contracted pairwise:
    # for several blocks optimize=True picks one three-operand contraction,
    # about 100x slower at D = 100
    basis_left_mult = np.einsum(
        "mab,pbc,qca,a->pmq", basis, basis, basis, wvec,
        optimize=["einsum_path", (0, 3), (0, 1), (0, 1)],
    )
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
        basis_left_mult=basis_left_mult,
        generator_left_mult=None,
        _wvec=wvec,
    )
    gns.generator_left_mult = gns.left_mults(algebra.generators)
    _verify_gns(gns)
    return gns


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


def _frame_terms(B: np.ndarray, U: np.ndarray, n: int) -> tuple:
    """Nonzero terms (p, m, q, value) of the frames F_p = conj(U) (b_p (x) 1)
    U^T of a block's basis elements, each (n^2, 2n, 2, 2) with p leading.

    B holds the blocks b_p as rows (unit (j, k) at column j n + k).  A term
    is b_p[j, k] times conj(U[m, a]) U[q, b] for a = (j, l), b = (k, l): at
    most two units (j, k) per b_p, n values of l and two rows of U per unit.
    A single nonzero in a row of B or a column of U is padded with a zero.
    """
    d = n * n
    bpos = np.argsort(B == 0, axis=1, kind="stable")[:, :2]
    upos = np.argsort(U == 0, axis=0, kind="stable")[:2].T        # (d, 2)
    uval = np.take_along_axis(U, upos.T, 0).T
    jj, kk = np.divmod(bpos, n)
    a = (jj[..., None] * n + np.arange(n)).reshape(d, 2 * n)
    b = (kk[..., None] * n + np.arange(n)).reshape(d, 2 * n)
    bval = np.repeat(np.take_along_axis(B, bpos, 1), n, axis=1)
    shape = (d, 2 * n, 2, 2)
    p = np.broadcast_to(np.arange(d)[:, None, None, None], shape)
    m = np.broadcast_to(upos[a][..., :, None], shape)
    q = np.broadcast_to(upos[b][..., None, :], shape)
    vals = (np.conj(uval[a])[..., :, None] * bval[..., None, None]
            * uval[b][..., None, :])
    return p, m, q, vals


def _off_block(rows: np.ndarray, S: int, T: int) -> bool:
    """Whether some L_p in rows has a nonzero entry L_p[m, q] with m or q
    outside the coordinate range [S, T)."""
    return bool(rows[:, :S].any() or rows[:, T:].any()
                or rows[:, S:T, :S].any() or rows[:, S:T, T:].any())


# Frame entries compared with L at once, per chunk of basis elements.
_CHUNK_ENTRIES = 1 << 16


def _frame_gaps(gns: GnsStructure) -> tuple[list[float], list[float]]:
    """Compare L and the generators' left multiplications with the
    matrix-unit frame, block by block.

    Returns, per block, a bound on the multiplicativity and commutant gaps
    of basis_left_mult restricted to the block, and per generator the
    largest entry of generator_left_mult minus its frame.  Raises
    FreedimError if some L_p has a nonzero entry off its block or is not
    self-adjoint.

    Per block (size n, weight alpha, c = sqrt(n/alpha) >= ||b_p||), the
    frame of b_p is F_p = conj(U) (b_p (x) 1) U^T, U from _unit_map and b_p
    the stored block.  An entry of F_p sums at most four products
    conj(U[m, a]) b_p[j, k] U[q, b], of sizes summing to at most 2c, whose
    factors are each within a relative 1.5 u (u the unit roundoff) of their
    exact values; so the computed frame is within eps = 20 u c of the exact
    one (exact c and U), which satisfies both identities exactly.  Write
    L = F + Delta over the block, with |Delta| <= delta = g + eps entrywise,
    g the largest entry of the computed L - F.  Each of the four terms of
    either defect that is linear in Delta sums Delta entries against a row
    or column of some F_p or a vector (F_m[r, s])_m: the coordinates of a
    product of two basis elements, of 2-norm at most c and with at most
    min(n^2, 8) nonzeros, so the term is at most k c delta with
    k = min(n, sqrt 8).  The two quadratic terms are at most n^2 delta^2
    each:
        multiplicativity gap, commutant gap <= 4 k c delta + 2 n^2 delta^2.
    A 1 x 1 block satisfies both identities for any value of its one entry
    (bound 0), and terms across blocks have an exact-zero factor.

    O(D^3) work; the frame is formed for at most _CHUNK_ENTRIES entries of
    L at a time.
    """
    algebra = gns.algebra
    L = gns.basis_left_mult
    u = np.finfo(float).eps / 2
    bounds = []
    gen_gaps = [0.0] * len(algebra.generators)
    for (s, t), (S, T), n, alpha in zip(
        block_offsets(algebra.block_sizes),
        block_offsets([n * n for n in algebra.block_sizes]),
        algebra.block_sizes, algebra.trace_weights,
    ):
        d = n * n
        rows = L[S:T]
        if _off_block(rows, S, T):
            raise FreedimError("left multiplication failed multiplicativity: "
                               "a basis element acts outside its block")
        U = _unit_map(n)
        for j, X in enumerate(algebra.generators):
            Lx = gns.generator_left_mult[j]
            frame = np.conj(U) @ np.kron(X[s:t, s:t], np.eye(n)) @ U.T
            gap = (float("inf") if Lx[S:T, :S].any() or Lx[S:T, T:].any()
                   else float(np.abs(Lx[S:T, S:T] - frame).max()))
            gen_gaps[j] = max(gen_gaps[j], gap)

        if n == 1:
            bounds.append(0.0)
            if np.abs(rows.imag).max() > OPERATOR_TOL:
                raise FreedimError("left multiplication by a self-adjoint "
                                   "element is not self-adjoint")
            continue
        p, m, q, vals = _frame_terms(gns.basis[S:T, s:t, s:t].reshape(d, d), U, n)
        gap = 0.0
        step = max(1, _CHUNK_ENTRIES // (d * d))
        for lo in range(0, d, step):
            chunk = rows[lo:lo + step, S:T, S:T]
            if np.abs(chunk - chunk.conj().transpose(0, 2, 1)).max() > OPERATOR_TOL:
                raise FreedimError("left multiplication by a self-adjoint "
                                   "element is not self-adjoint")
            frame = np.zeros(chunk.shape, dtype=complex)
            hi = lo + len(chunk)
            np.add.at(frame, (p[lo:hi] - lo, m[lo:hi], q[lo:hi]), vals[lo:hi])
            gap = max(gap, float(np.abs(chunk - frame).max()))
        c = np.sqrt(n / alpha)
        delta = gap + 20 * u * c
        bounds.append(4 * min(n, np.sqrt(8)) * c * delta + 2 * n * n * delta**2)
    return bounds, gen_gaps


def _block_identity_gaps(Lb: np.ndarray) -> tuple[float, float]:
    """The multiplicativity and commutant gaps of one block of L, measured:
    max |sum_m L_p[m, q] L_m - L_p L_q| and max |R_p L_q - L_q R_p| with
    R_p = conj(L_p), one p at a time."""
    mult = comm = 0.0
    for Lp in Lb:
        mult = max(mult, float(np.abs(np.tensordot(Lp.T, Lb, 1) - Lp @ Lb).max()))
        Rp = np.conj(Lp)
        comm = max(comm, float(np.abs(Rp @ Lb - Lb @ Rp).max()))
    return mult, comm


def _verify_gns(gns: GnsStructure) -> None:
    """Raise FreedimError unless the structural identities hold to OPERATOR_TOL.

    The product identities (left multiplication is multiplicative, and
    conjugated left multiplications commute with it) hold exactly in the
    matrix-unit frame; `_frame_gaps` bounds their gaps per block from the
    distance of L to that frame, and the bound is gated.  The bound grows
    as c^2 = n/alpha while the gaps are rounding noise of about u c^2, so
    on a block of weight below about 3e-4 n (n >= 2) the bound can exceed
    the gate while the gaps do not; only there are the block's gaps
    measured, with O(n^10) work (1.6-1.9 s for n = 8 on 2 cores), and gated
    instead, so that an input passes exactly when its measured gaps do.  Each
    generator's left multiplication must match its frame to OPERATOR_TOL,
    relative to the generator's largest entry when that exceeds 1.
    """
    D = gns.dim
    basis = gns.basis
    L = gns.basis_left_mult

    gram = np.einsum("qab,mba,b->mq", basis, basis, gns._wvec, optimize=True)
    if np.abs(gram - np.eye(D)).max() > OPERATOR_TOL:
        raise FreedimError("trace-representation basis failed orthonormality")

    bounds, gen_gaps = _frame_gaps(gns)
    sizes = [n * n for n in gns.algebra.block_sizes]
    for (S, T), bound in zip(block_offsets(sizes), bounds):
        if bound <= OPERATOR_TOL:
            continue
        mult_gap, comm_gap = _block_identity_gaps(L[S:T, S:T, S:T])
        if mult_gap > OPERATOR_TOL:
            raise FreedimError("left multiplication failed multiplicativity")
        if comm_gap > OPERATOR_TOL:
            raise FreedimError("conjugated left multiplication left the commutant")
    for j, (gap, X) in enumerate(zip(gen_gaps, gns.algebra.generators)):
        if not gap <= OPERATOR_TOL * max(1.0, float(np.abs(X).max())):
            raise FreedimError(f"left multiplication by generator {j} does not "
                               "match the matrix-unit frame")

    # cyclicity: L_{b_p} applied to the trace vector recovers coordinates e_p
    hats = L @ gns.trace_vector
    if np.abs(hats - np.eye(D)).max() > OPERATOR_TOL:
        raise FreedimError("trace vector is not cyclic for the basis")
