"""Numerical block decomposition of *-closed matrix algebras.

Given a *-closed unital algebra A of N x N matrices together with a faithful
tracial state on it, these routines locate the minimal central projections,
read off the block sizes and trace weights, extract one irreducible
invariant subspace per block through the commutant, and re-express A as a
validated TracialAlgebra in block-diagonal coordinates.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (_GENERATED, TracialAlgebra, _diag_weights, _rowspace_residual,
                      _unflatten, _validated, block_offsets, build_algebra, numerical_span,
                      unit_scaled, word_span)
from .errors import CenterResolutionError
from .tolerances import (CENTER_RETRIES, CLUSTER_GAP, COMMUTANT_ZERO_TOL, INVARIANCE_TOL,
                         PROJECTION_DIGITS, PROJECTION_SPLIT, PROJECTION_TRACE_TOL, RANK_TOL,
                         SUPPORT_TOL)


def commutant_basis(mats: Sequence[np.ndarray], within: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {x : [x, m] = 0 for all m}, as (s, N, N).

    The search runs inside the row span of `within`, a nonempty orthonormal
    family of flattened matrices (the identity of size N^2 searches all of
    M_N): every caller searches an algebra, which holds the identity, or M_N.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    N = math.isqrt(within.shape[1])
    r = within.shape[0]
    # column k of block i is [B_k, m_i]: coefficient vectors c with
    # sum_k c_k [B_k, m] = 0 for every m span the null space
    Bs = within.reshape(r, N, N)
    stacked = np.array([(Bs @ m - m @ Bs).reshape(r, N * N).T for m in mats])
    # at least N^2 >= r rows, so the thin vh is square; the commutators scale
    # with the mats, and so does the cutoff below which all of them are zero
    _, s, vh = np.linalg.svd(stacked.reshape(-1, r), full_matrices=False)
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


def central_block_size(z: np.ndarray, algebra_basis: np.ndarray) -> int:
    """n with dim_C(z A) = n^2, for a central projection z of the algebra A
    spanned by the (s, N, N) basis; CenterResolutionError unless a square."""
    compressed = np.array([(z @ B).ravel() for B in algebra_basis])
    block_dim = numerical_span(compressed).shape[0]
    n = int(round(np.sqrt(block_dim)))
    if n * n != block_dim:
        raise CenterResolutionError(
            f"central block has dimension {block_dim}, not a perfect square"
        )
    return n


def blockify(
    span_mats: Sequence[np.ndarray],
    commuting_set: Sequence[np.ndarray],
    trace_fn: Callable[[np.ndarray], complex],
    generators: Sequence[np.ndarray],
    labels: Sequence[str],
    rng: np.random.Generator,
) -> TracialAlgebra:
    """Re-express the algebra spanned by `span_mats` as a TracialAlgebra.

    `commuting_set` is any family generating the same algebra (used for the
    cheaper commutant computation), `trace_fn` the faithful tracial state,
    and `generators` the elements whose images become the generating tuple.
    The span must hold the identity, and both callers put it there exactly:
    lambda(e) among the regular representation, the seed of `word_span`.
    """
    mats = [np.asarray(m, dtype=complex) for m in span_mats]
    N = mats[0].shape[0]
    flat = numerical_span(np.array([m.ravel() for m in mats]))
    alg_basis = flat.reshape(-1, N, N)
    alg_dim = alg_basis.shape[0]

    center = commutant_basis(commuting_set, within=flat)
    zs = minimal_central_projections(alg_basis, center, rng)

    commutant = commutant_basis(commuting_set, within=np.eye(N * N, dtype=complex))

    sizes, weights, isometries = [], [], []
    for z in zs:
        n = central_block_size(z, alg_basis)
        alpha = trace_fn(z)
        if abs(alpha.imag) > PROJECTION_TRACE_TOL or alpha.real <= 0:
            raise CenterResolutionError(f"central projection has trace {alpha!r}")
        V = _irreducible_isometry(z, commutant, n, rng)
        for g in commuting_set:
            resid = np.linalg.norm(g @ V - V @ (V.conj().T @ g @ V))
            if resid > INVARIANCE_TOL:
                raise CenterResolutionError(
                    f"extracted subspace is not invariant (residual {resid:.2e})"
                )
        sizes.append(n)
        weights.append(alpha.real)
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
    z: np.ndarray, commutant: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Isometry onto one irreducible invariant subspace inside range(z).

    A random self-adjoint element of the compressed commutant z A' z splits
    range(z) into eigenspaces of dimension n each; any single eigenspace is
    an irreducible module for the block.
    """
    lam, vec = np.linalg.eigh(z)
    W = vec[:, lam > PROJECTION_SPLIT]
    r = W.shape[1]
    if r % n != 0:
        raise CenterResolutionError(
            f"central range has dimension {r}, not a multiple of block size {n}"
        )
    mult = r // n
    if mult == 1:
        return W

    comp = np.array([W.conj().T @ C @ W for C in commutant])
    for _ in range(CENTER_RETRIES):
        vec_b, clusters = _random_split(comp, rng)
        if len(clusters) == mult and all(hi - lo == n for lo, hi in clusters):
            lo, hi = clusters[0]
            return W @ vec_b[:, lo:hi]
    raise CenterResolutionError(
        f"could not isolate an irreducible subspace of dimension {n}"
    )


def blockify_subalgebra(block_sizes: Sequence[int], trace_weights: Sequence[float],
                        generators: Sequence[np.ndarray],
                        labels: Optional[Sequence[str]] = None) -> TracialAlgebra:
    """The algebra that the tuple generates inside the declared blocks, with
    the declared trace: the declared algebra when the tuple generates it,
    else the block form of the generated *-subalgebra, found from the
    unit-scaled generators, whose generators are the originals' images.
    Validates as `build_algebra` does."""
    sizes, weights, mats, labels = _validated(block_sizes, trace_weights, generators, labels)
    unit = unit_scaled(mats)
    span = word_span(sizes, unit)
    if span.shape[0] == sum(n * n for n in sizes):
        return TracialAlgebra(sizes, weights, mats, labels, _GENERATED)
    w = _diag_weights(sizes, weights)
    return blockify(_unflatten(span, sizes), commuting_set=unit,
                    trace_fn=lambda z: complex(np.sum(np.diag(z) * w)),
                    generators=mats, labels=labels,
                    rng=np.random.default_rng(0))
