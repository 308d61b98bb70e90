"""Trace-weighted dimension of invariant subspaces of Hilbert-Schmidt tuples.

A subspace K of HS(L2)^n that is invariant under the commutant bimodule
action (composition on either side with conjugated left multiplications)
decomposes along the minimal central projections z_i of the algebra; its
dimension over the algebra and its opposite is

    sum_{i,j} alpha_i alpha_j dim_C(z_i K z_j) / (n_i n_j)^2,

with every dim_C(z_i K z_j) an integer multiple of n_i n_j.  The weights are
pinned by the normalization dim(full HS^n) = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (GnsStructure, TracialAlgebra, _rowspace_residual, _unflatten,
                      block_offsets, numerical_span)
from .errors import CenterResolutionError, IntegralityError, NotInvariant
from .tolerances import (CENTER_WEIGHT_TOL, FRACTION_DENOMINATOR, FRACTION_TOL, INVARIANCE_TOL,
                         OPERATOR_TOL)
from .wedderburn import commutant_basis, minimal_central_projections


def to_fraction(x: float) -> Fraction:
    """Exact rational form of a float that is morally a small fraction: the
    nearest fraction with denominator at most 10^6 if within FRACTION_TOL
    relative to x, else the float's exact binary fraction."""
    fr = Fraction(x).limit_denominator(FRACTION_DENOMINATOR)
    if abs(float(fr) - x) > FRACTION_TOL * abs(x):
        fr = Fraction(x)
    return fr


def central_decomposition(algebra: TracialAlgebra, seed: int = 0) -> tuple[float, ...]:
    """Numerically resolve the center, certify it and return the measured
    weights tau(z_i) of its minimal projections, in declared block order.

    The center is computed as the kernel of x -> ([x, X_j])_j inside the
    algebra and split by diagonalizing a random self-adjoint central element
    (deterministic for a fixed seed).  The result must be the declared
    blocks: one projection z_i per block, in declared order, each within
    OPERATOR_TOL entrywise of the identity of block i and zero elsewhere,
    with tau(z_i) within CENTER_WEIGHT_TOL of the declared weight.  So the
    declared sizes and weights, which vn_dimension_report reads from the
    algebra, are certified.
    """
    N = algebra.matrix_size
    # the matrix units of the blocks, in GNS coordinate order
    units = _unflatten(np.eye(algebra.dim), algebra.block_sizes)

    center = commutant_basis(list(algebra.generators), within=units.reshape(-1, N * N))
    zs = minimal_central_projections(units, center, np.random.default_rng(seed))
    weights = [algebra.trace(z).real for z in zs]

    sizes = algebra.block_sizes
    identities = [np.diag(ind) for ind in np.repeat(np.eye(len(sizes)), sizes, axis=1)]
    if len(zs) != len(sizes) or any(
        np.abs(z - e).max() > OPERATOR_TOL for z, e in zip(zs, identities)
    ) or any(abs(w - a) > CENTER_WEIGHT_TOL
             for w, a in zip(weights, algebra.trace_weights)):
        raise CenterResolutionError(
            f"recovered {len(zs)} central projections with weights {weights}, "
            f"not the identities of the declared blocks {sizes} with weights "
            f"{algebra.trace_weights}"
        )
    return tuple(weights)


@dataclass
class HsSubspace:
    """An invariant subspace of HS(L2)^n with an orthonormal spanning set.

    `invariance_residual` bounds the distance from R.v and v.R to the span,
    over the basis rows v and the commutant action generators R: measured by
    `invariance_residual`, or the rounding bound of `cocycles.compute_H0`.
    """

    basis: np.ndarray            # (r, n, D, D)
    invariance_residual: float

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return math.prod(self.basis.shape[1:])

    @property
    def complex_dim(self) -> int:
        return self.basis.shape[0]

    def flat(self) -> np.ndarray:
        return self.basis.reshape(self.basis.shape[0], self.ambient_dim)


def _block_action(R: np.ndarray, S: int, T: int, basis: np.ndarray) -> np.ndarray:
    """(p, 2, r, n, D, D): R_p v and v R_p for each action generator R_p of
    one block (coordinates S:T, where R_p lives) and each basis tuple v."""
    out = np.zeros((R.shape[0], 2, *basis.shape), dtype=complex)
    # the one contraction numpy's path search finds for two operands
    pair = ["einsum_path", (0, 1)]
    out[:, 0, ..., S:T, :] = np.einsum("pab,rnbc->prnac", R, basis[..., S:T, :], optimize=pair)
    out[:, 1, ..., S:T] = np.einsum("rnab,pbc->prnac", basis[..., S:T], R, optimize=pair)
    return out


def invariance_residual(basis: np.ndarray, gns: GnsStructure) -> float:
    """Certificate that the span is stable under the commutant bimodule action."""
    r = basis.shape[0]
    if r == 0:
        return 0.0
    flat = basis.reshape(r, -1)
    worst = 0.0
    # batched over action generators to keep the projections in large GEMMs
    chunk = max(1, int(2**23 // max(1, 2 * r * flat.shape[1])))
    for S, T, R in gns.commutant_actions:
        for lo in range(0, R.shape[0], chunk):
            rows = _block_action(R[lo:lo + chunk], S, T, basis).reshape(-1, flat.shape[1])
            worst = max(worst, _rowspace_residual(rows, flat))
    return worst


def hs_subspace(gns: GnsStructure, vectors) -> HsSubspace:
    """Orthonormal span of a (k, n, D, D) family of HS tuples, certified invariant."""
    D = gns.dim
    A = np.asarray(vectors, dtype=complex)
    k, n = A.shape[:2]
    flat = numerical_span(A.reshape(k, n * D * D))
    basis = flat.reshape(flat.shape[0], n, D, D)
    return HsSubspace(basis, invariance_residual(basis, gns))


def invariant_closure(gns: GnsStructure, vectors) -> HsSubspace:
    """Smallest invariant subspace containing the given HS tuples."""
    A = np.asarray(vectors, dtype=complex)
    if A.ndim == 3:
        A = A[None, :, :, :]
    k, n = A.shape[0], A.shape[1]
    D = gns.dim
    flat = numerical_span(A.reshape(k, n * D * D))
    actions = gns.commutant_actions
    for _ in range(n * D * D + 1):
        basis = flat.reshape(-1, n, D, D)
        # rows generator-major, R_p v before v R_p
        rows = [flat] + [_block_action(R, S, T, basis).reshape(-1, n * D * D)
                         for S, T, R in actions]
        r, flat = flat.shape[0], numerical_span(np.vstack(rows))
        if flat.shape[0] == r:
            break
    basis = flat.reshape(-1, n, D, D)
    return HsSubspace(basis, invariance_residual(basis, gns))


@dataclass
class VnDimensionReport:
    """Exact dimension and per-block multiplicities."""

    fraction: Fraction
    multiplicities: np.ndarray   # (b, b) integers m_ij


def vn_dimension_report(K: HsSubspace, algebra: TracialAlgebra) -> VnDimensionReport:
    """Evaluate the trace-weighted dimension of an invariant subspace over
    the algebra's declared blocks, with the exact weights `to_fraction` of
    its declared ones.

    dim_C(z_i K z_j) is certified as the trace of a projection.  With V the r
    basis rows and P the 0/1 slice of block pair (i, j) (Z_i, the left
    multiplication by the identity of block i, is exactly that indicator in
    the matrix-unit frame), mu = ||V P||_HS^2 = tr G, G = V P V*, and
    G - G^2 = (V P Pi')(V P Pi')*, Pi' the projection off K.  Z_i = Z_i^T =
    sum_p c_p R_p over the action generators R_p = L_{b_p}^T, with sum |c_p| =
    sqrt(n_i alpha_i) <= sqrt n_i, and each R_p moves a basis row at most
    rho = K.invariance_residual off K; so eta = ||G - G^2|| <= r (sqrt n_i +
    sqrt n_j)^2 rho^2, each eigenvalue of G lies within 2 eta of {0, 1}, and
    |mu - rank| <= 2 min(r, c) eta, c = n (n_i n_j)^2 the slice size.  The
    floor 2 r N u (N the ambient size, u the unit roundoff) covers the rows'
    departure from unit norm and the rounding of the sum.
    """
    rho = K.invariance_residual
    if rho > INVARIANCE_TOL:
        raise NotInvariant(f"subspace has invariance residual {rho:.3e} "
                           f"(threshold {INVARIANCE_TOL:.0e})")
    sizes = algebra.block_sizes
    r = K.complex_dim
    blocks = [slice(*span) for span in block_offsets([n * n for n in sizes])]
    mass = (np.abs(K.basis) ** 2).sum(axis=(0, 1))
    floor = 2.0 * r * K.ambient_dim * np.finfo(float).eps

    mult = np.zeros((len(sizes), len(sizes)), dtype=int)
    for i, ni in enumerate(sizes):
        for j, nj in enumerate(sizes):
            mu = float(mass[blocks[i], blocks[j]].sum())
            rank = round(mu)
            eta = r * (math.sqrt(ni) + math.sqrt(nj)) ** 2 * rho**2
            bound = 2 * min(r, K.n * (ni * nj) ** 2) * eta + floor
            if not abs(mu - rank) <= bound < 0.5 or rank % (ni * nj):
                raise IntegralityError(f"block ({i},{j}) has mass {mu!r}, not a "
                                       f"certified multiple of {ni * nj}")
            mult[i, j] = rank // (ni * nj)
    return weighted_dimension(mult, algebra)


def weighted_dimension(mult: np.ndarray, algebra: TracialAlgebra) -> VnDimensionReport:
    """sum_ij alpha_i alpha_j m_ij / (n_i n_j) for the (b, b) multiplicities
    m_ij, exactly, over the algebra's declared blocks and the exact weights
    `to_fraction` of its declared ones."""
    sizes = algebra.block_sizes
    wfr = [to_fraction(w) for w in algebra.trace_weights]
    # sum_ij m_ij u_i u_j, u_i = alpha_i / n_i, exactly over one denominator of the u_i
    den = math.lcm(*(w.denominator * n for w, n in zip(wfr, sizes)))
    u = [w.numerator * (den // (w.denominator * n)) for w, n in zip(wfr, sizes)]
    total = Fraction(sum(int(m) * ui * uj for ui, row in zip(u, mult) for uj, m in zip(u, row)),
                     den * den)
    return VnDimensionReport(fraction=total, multiplicities=mult)


def subspace_distance(a: HsSubspace, b: HsSubspace) -> float:
    """Symmetric gap between two subspaces given by orthonormal spanning rows."""
    return max(_rowspace_residual(a.flat(), b.flat()), _rowspace_residual(b.flat(), a.flat()))
