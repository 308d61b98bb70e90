"""Numerical block decomposition of *-closed matrix algebras.

Given a *-closed unital algebra A of N x N matrices together with a faithful
tracial state on it, these routines locate the minimal central projections
and their trace weights, read each block's size and one irreducible invariant
subspace from A compressed to the block's range, and re-express A as a
validated TracialAlgebra in block-diagonal coordinates.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .algebra import (_GENERATED, TracialAlgebra, _diag_weights, _generates,
                      _rowspace_residual, _unflatten, _validated, block_offsets, build_algebra,
                      numerical_span, unit_scaled, word_span)
from .errors import CenterResolutionError
from .tolerances import (CENTER_RETRIES, CLUSTER_GAP, COMMUTANT_ZERO_TOL, INVARIANCE_TOL,
                         PROJECTION_DIGITS, PROJECTION_SPLIT, RANK_TOL, SUPPORT_TOL)


def commutant_basis(mats: Sequence[np.ndarray], within: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {x : [x, m] = 0 for all m}, as (s, N, N).

    The search runs inside the row span of `within`, a nonempty orthonormal
    family of flattened matrices (the identity of size N^2 searches all of
    M_N): each caller searches an algebra, which holds the identity, for its center.

    A family with at least twice as many rows as columns is replaced by the R
    of its QR factorisation first (Chan's R-SVD).  A = QR with orthonormal Q,
    so both have the same singular values and right singular vectors, and
    here bit for bit: for rows >= int(17 cols / 9), which the 2x bound
    clears, LAPACK's zgesdd itself runs zgeqrf and then bidiagonalises R, as
    it does a square R.  The tall left factor is never formed.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    N = math.isqrt(within.shape[1])
    r = within.shape[0]
    # column k of block i is [B_k, m_i]: coefficient vectors c with
    # sum_k c_k [B_k, m] = 0 for every m span the null space
    Bs = within.reshape(r, N, N)
    family = np.array([(Bs @ m - m @ Bs).reshape(r, N * N).T for m in mats]).reshape(-1, r)
    if family.shape[0] >= 2 * r:
        family = np.linalg.qr(family, mode="r")
    # at least N^2 >= r rows, so the thin vh is square; the commutators scale
    # with the mats, and so does the cutoff below which all of them are zero
    _, s, vh = np.linalg.svd(family, full_matrices=False)
    if s.size == 0 or s[0] <= COMMUTANT_ZERO_TOL * max(float(np.abs(m).max()) for m in mats):
        coeffs = np.eye(r, dtype=complex)
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
        coeffs = vh[rank:].conj()
    return numerical_span(coeffs @ within).reshape(-1, N, N)


def _canonical_order(projections: list[np.ndarray]) -> list[np.ndarray]:
    """Deterministic block order: first support position, then rank, then entries."""

    def key(p):
        diag = p.diagonal().real
        sig = np.flatnonzero(diag > SUPPORT_TOL)
        first = int(sig[0]) if sig.size else p.shape[0]
        rank = int(round(np.trace(p).real))
        entries = np.round(p, PROJECTION_DIGITS)
        return (first, rank, tuple(entries.real.ravel()), tuple(entries.imag.ravel()))

    return sorted(projections, key=key)


def _random_split(family, rng: np.random.Generator):
    """Eigenvectors of a random self-adjoint combination of `family`, and the
    (lo, hi) column ranges of its eigenvalue clusters (gaps over CLUSTER_GAP
    times the spread, at least 1)."""
    k = len(family)
    coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = np.einsum("k,kab->ab", coeff, family)
    x = (x + x.conj().T) / 2.0
    lam, vec = np.linalg.eigh(x)
    gap = CLUSTER_GAP * max(lam[-1] - lam[0], 1.0)
    cuts = [0] + [i for i in range(1, len(lam)) if lam[i] - lam[i - 1] > gap]
    return vec, list(zip(cuts, cuts[1:] + [len(lam)]))


def minimal_central_projections(
    algebra_basis: np.ndarray,
    center: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Split the center into its minimal projections.

    Diagonalizes a random self-adjoint central element and groups spectral
    projections by eigenvalue cluster; the number of clusters must equal the
    center dimension, otherwise the draw is retried.
    """
    b = center.shape[0]
    flat_alg = algebra_basis.reshape(algebra_basis.shape[0], -1)

    for _ in range(CENTER_RETRIES):
        vec, clusters = _random_split(center, rng)
        if len(clusters) != b:
            problem = f"found {len(clusters)} eigenvalue clusters, expected {b}"
            continue
        projections = [vec[:, lo:hi] @ vec[:, lo:hi].conj().T for lo, hi in clusters]
        resids = [_rowspace_residual(P.reshape(1, -1), flat_alg) for P in projections]
        left = [r for r in resids if r > INVARIANCE_TOL]
        if not left:
            return _canonical_order(projections)
        problem = f"spectral projection left the algebra (residual {left[0]:.2e})"
    raise CenterResolutionError(
        f"could not separate the central blocks after {CENTER_RETRIES} attempts: "
        + problem
    )


def _block_image(x: np.ndarray, sizes, isometries) -> np.ndarray:
    """Block-diagonal matrix with the blocks V_i* x V_i."""
    out = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    for (start, stop), V in zip(block_offsets(sizes), isometries):
        out[start:stop, start:stop] = V.conj().T @ x @ V
    return out


def blockify(
    span_mats: Sequence[np.ndarray],
    commuting_set: Sequence[np.ndarray],
    trace_diag: np.ndarray,
    generators: Sequence[np.ndarray],
    labels: Sequence[str],
    rng: np.random.Generator,
) -> TracialAlgebra:
    """Re-express the algebra spanned by `span_mats` as a TracialAlgebra.

    `commuting_set` is any family generating the same algebra (for the cheaper
    center search and invariance gates), `trace_diag` the diagonal weights w of
    the faithful tracial state tau(x) = sum_a x[a, a] w[a], and `generators`
    the elements whose images become the generating tuple.
    The span must hold the identity, and both callers put it there exactly:
    lambda(e) among the regular representation, the seed of `word_span`.
    A block's weight is the real part of tau(z): both traces are faithful
    (w the indicator of e, and the positive `_diag_weights`), so tau(z) > 0
    and its imaginary part is rounding.
    """
    mats = [np.asarray(m, dtype=complex) for m in span_mats]
    N = mats[0].shape[0]
    flat = numerical_span(np.array([m.ravel() for m in mats]))
    alg_basis = flat.reshape(-1, N, N)
    alg_dim = alg_basis.shape[0]

    center = commutant_basis(commuting_set, within=flat)
    zs = minimal_central_projections(alg_basis, center, rng)

    sizes, weights, isometries = [], [], []
    for z in zs:
        n, V = _irreducible_isometry(z, alg_basis, rng)
        for g in commuting_set:
            resid = np.linalg.norm(g @ V - V @ (V.conj().T @ g @ V))
            if resid > INVARIANCE_TOL:
                raise CenterResolutionError(
                    f"extracted subspace is not invariant (residual {resid:.2e})"
                )
        sizes.append(n)
        weights.append(float(np.sum(np.diag(z) * trace_diag).real))
        isometries.append(V)

    if sum(n * n for n in sizes) != alg_dim:
        raise CenterResolutionError(
            f"block sizes {sizes} are inconsistent with algebra dimension {alg_dim}"
        )

    total = sum(weights)
    weights = [w / total for w in weights]

    images = [_block_image(g, sizes, isometries) for g in generators]
    return build_algebra(sizes, weights, [(x + x.conj().T) / 2.0 for x in images],
                         labels=labels)


def _irreducible_isometry(
    z: np.ndarray, alg_basis: np.ndarray, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Block size n and an isometry onto one irreducible invariant subspace
    inside range(z), for a minimal central projection z of the algebra A
    spanned by the (s, N, N) basis `alg_basis`.

    One eigh of z gives W with range(W) = range(z) = C^n (x) C^mult = C^r, and
    comp = W* A W.  As z is central, zB = zBz, and x -> W* x W is a
    Hilbert-Schmidt isometry of z M_N z onto M_r: comp's singular values are
    those of zA up to the rounding of W, by Weyl's inequality within the norm
    of the difference, a few ulps of the largest, so its rank is dim zA = n^2.
    comp is M_n (x) 1, so a random self-adjoint element of it is h (x) 1 with
    n eigenvalues of multiplicity mult each, and a vector w of the first
    eigenspace is e (x) u.  As z is central, A w = z A z w = C^n (x) u:
    invariant, of dimension n, and irreducible.
    """
    lam, vec = np.linalg.eigh(z)
    W = vec[:, lam > PROJECTION_SPLIT]
    r = W.shape[1]
    comp = np.array([W.conj().T @ B @ W for B in alg_basis])
    block_dim = numerical_span(comp.reshape(len(comp), r * r)).shape[0]
    n = math.isqrt(block_dim)
    if n * n != block_dim:
        raise CenterResolutionError(
            f"central block has dimension {block_dim}, not a perfect square"
        )
    if r % n != 0:
        raise CenterResolutionError(
            f"central range has dimension {r}, not a multiple of block size {n}"
        )
    if r == n:
        return n, W

    for _ in range(CENTER_RETRIES):
        vec_b, clusters = _random_split(comp, rng)
        if len(clusters) == n and all(hi - lo == r // n for lo, hi in clusters):
            span = numerical_span(comp @ vec_b[:, 0])
            if span.shape[0] == n:
                return n, W @ span.T
    raise CenterResolutionError(
        f"could not isolate an irreducible subspace of dimension {n}"
    )


def blockify_subalgebra(block_sizes: Sequence[int], trace_weights: Sequence[float],
                        generators: Sequence[np.ndarray],
                        labels: Optional[Sequence[str]] = None) -> TracialAlgebra:
    """The algebra that the tuple generates inside the declared blocks, with
    the declared trace: the declared algebra when the ranks of `build_algebra`
    prove that the tuple generates it, else the block form of the generated
    *-subalgebra, found from the `word_span` of the unit-scaled generators,
    whose generators are the originals' images.  Validates as
    `build_algebra` does."""
    sizes, weights, mats, labels = _validated(block_sizes, trace_weights, generators, labels)
    unit = unit_scaled(mats)
    if _generates(sizes, unit):
        return TracialAlgebra(sizes, weights, mats, labels, _GENERATED)
    return blockify(_unflatten(word_span(sizes, unit), sizes), commuting_set=unit,
                    trace_diag=_diag_weights(sizes, weights), generators=mats, labels=labels,
                    rng=np.random.default_rng(0))
