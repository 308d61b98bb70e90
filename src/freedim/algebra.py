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

    The basis consists of scaled matrix units, so most entries of
    basis_left_mult are exact zeros (99 % at D = 64), and the two product
    identities are checked over its nonzero pattern only: a left-out term
    has an exact-zero factor and a finite other factor, so it is an exact
    zero, and the gaps equal those of the dense D^4 tensors up to summation
    order.
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


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, j) with left[i] == right[j]."""
    order = np.argsort(right)
    ranked = right[order]
    lo = np.searchsorted(ranked, left, side="left")
    counts = np.searchsorted(ranked, left, side="right") - lo
    i = np.repeat(np.arange(left.size), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    j = order[np.repeat(lo, counts) + np.arange(i.size) - starts]
    return i, j


def _max_gap(D: int, plus: tuple, minus: tuple) -> float:
    """max over 4-index keys of |sum of `plus` terms - sum of `minus` terms|.

    `plus` and `minus` are (indices, values) with indices a tuple of four
    index arrays; keys that no term reaches are exact zeros on both sides.
    """
    keys = np.concatenate(
        [np.ravel_multi_index(idx, (D, D, D, D)) for idx, _ in (plus, minus)]
    )
    vals = np.concatenate([plus[1], -minus[1]])
    uniq, slot = np.unique(keys, return_inverse=True)
    gap = np.hypot(np.bincount(slot, vals.real, uniq.size),
                   np.bincount(slot, vals.imag, uniq.size))
    return float(gap.max(initial=0.0))


# Joined pairs formed at once by _identity_gaps; a larger group of first
# indices is split into consecutive runs that stay under it.
_PAIR_BUDGET = 1 << 15


def _identity_gaps(L: np.ndarray) -> tuple[float, float]:
    """Largest entries of the multiplicativity and commutant defects of L.

    With R_p = conj(L_p) these are
        max |sum_m L_p[m, q] L_m[r, s] - (L_p L_q)[r, s]|   over p, q, r, s,
        max |(R_p L_q)[a, c] - (L_q R_p)[a, c]|             over p, q, a, c.
    Dense, both are D^4 tensors built with D^5 flops; here only the
    products of two nonzero entries of L are formed, from the nonzero
    triplets (p, m, q) of L joined on their shared index, and equal 4-index
    keys are summed.  Every term left out has an exact-zero factor and, the
    entries of L being finite, is an exact zero, so each summed key equals
    the dense entry up to summation order and each key never reached is an
    exact zero on both sides: the gaps are the dense maxima.

    The keys are processed in runs of consecutive first indices (about
    _PAIR_BUDGET joined pairs each).  A key's first index is p of the
    triplet on the left of its term, except for the L_q R_p terms, where it
    is p of the triplet on the right; each run joins exactly those
    triplets, so every term of a key lands in the run of its first index
    and the argument above holds run by run.
    """
    D = L.shape[0]
    p, m, q = np.nonzero(L)  # p ascending
    v = L[p, m, q]
    # pairs each triplet forms as the left factor (both joins) and as the
    # right factor of an L_q R_p term
    per_triplet = (np.bincount(p, minlength=D)[m] + np.bincount(m, minlength=D)[q]
                   + np.bincount(q, minlength=D)[m])
    cuts, load = [0], 0
    for first, pairs in enumerate(np.bincount(p, per_triplet, D)):
        if load and load + pairs > _PAIR_BUDGET:
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


def _verify_gns(gns: GnsStructure) -> None:
    """Raise FreedimError unless the structural identities hold to OPERATOR_TOL.

    The product identities go through `_identity_gaps`, which visits only
    the nonzero entries of L; every skipped term is an exact zero because
    the entries of L are finite (L depends only on the blocks and on the
    weights, which build_algebra admits only finite and positive), so the
    check certifies exactly what the dense einsums did.
    """
    D = gns.dim
    basis = gns.basis
    L = gns.basis_left_mult

    gram = np.einsum("qab,mba,b->mq", basis, basis, gns._wvec, optimize=True)
    if np.abs(gram - np.eye(D)).max() > OPERATOR_TOL:
        raise FreedimError("trace-representation basis failed orthonormality")

    # self-adjointness of L_b for self-adjoint b
    if np.abs(L - L.conj().transpose(0, 2, 1)).max() > OPERATOR_TOL:
        raise FreedimError("left multiplication by a self-adjoint element "
                           "is not self-adjoint")

    # multiplicativity: L_{b_p b_q} = sum_m L_p[m, q] L_m must equal L_p L_q;
    # conjugated left multiplications land in the commutant
    mult_gap, comm_gap = _identity_gaps(L)
    if mult_gap > OPERATOR_TOL:
        raise FreedimError("left multiplication failed multiplicativity")
    if comm_gap > OPERATOR_TOL:
        raise FreedimError("conjugated left multiplication left the commutant")

    # cyclicity: L_{b_p} applied to the trace vector recovers coordinates e_p
    hats = np.einsum("pmq,q->pm", L, gns.trace_vector, optimize=True)
    if np.abs(hats - np.eye(D)).max() > OPERATOR_TOL:
        raise FreedimError("trace vector is not cyclic for the basis")
