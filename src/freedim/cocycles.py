"""Commutator cocycle spaces over the trace representation.

For a self-adjoint tuple X_1..X_n, the map Y -> ([Y, L_{X_1}], ..., [Y, L_{X_n}])
sends an operator on L2 to a tuple of Hilbert-Schmidt operators.  Three
subspaces of HS^n are built from it: the image over all bounded Y (H0), the
span of the image over self-adjoint Y (H1), and the weak-limit closure of
the image over Hilbert-Schmidt Y (H2).  In finite dimensions the three are
one space: H1 = H0, since the Hermitian family is an invertible transform of
the matrix units, and H2 = H0, since every operator on L2 is Hilbert-Schmidt
and every subspace weakly closed.  In the matrix-unit frame every L_j is
X_j (x) 1 on each block, so the map on the (i, k) pair of central blocks is
phi_ik (x) 1, phi_ik the Sylvester operator that `algebra.block_pair_operators`
stacks by block shape: `compute_H0` takes one SVD of phi_ik per pair, and
`delta_report` reads H0's multiplicities as the Schur values those ranks proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GnsStructure, TracialAlgebra, _pair_ranges
from .tolerances import INVARIANCE_TOL
from .vndim import HsSubspace, central_decomposition, invariance_residual, weighted_dimension


def compute_H0(gns: GnsStructure) -> HsSubspace:
    """Image of the cocycle map Phi(Y) = ([Y, L_j])_j over all bounded
    operators on L2, L_j the generators' left multiplications, with an
    invariance certificate.

    In the matrix-unit frame conj(U_i) (.) U_i^T of each block L_j is
    X_j^(i) (x) 1 (see `_frame`), so on block pair (i, k) Phi is
    phi_ik (x) 1, whose image the rows conj(U_i) (w (x) e_bd) U_k^T span:
    w over the kept left singular vectors of phi_ik (`_pair_ranges`), e_bd
    over the units of M_{n_i x n_k}, one slot per generator.

    The exact span is bimodule-invariant whatever w is: an action generator
    R_p = L_{b_p}^T acts on block i as 1 (x) c_p, the factor w does not
    touch, with ||c_p|| = ||R_p|| <= max_i sqrt(n_i/alpha_i) (`_block_basis`),
    so it maps the lift of w (x) e_bd to that of w (x) c_p e_bd, at most n_i
    rows with coefficients at most ||R_p||; so too on the right.  A stored
    row is within delta = 20 u (u the unit roundoff) of its exact lift: each
    entry sums at most four products conj(U_i[m, .]) w U_k[q, .], counted as
    `_frame` counts its four, whose sizes over a row have 2-norm at most
    ||w|| = 1 times sqrt 2 = || |U| || on each side.  So both actions move
    every row at most rho = max_i sqrt(n_i/alpha_i) (1 + max_i n_i) delta
    off the span, whatever the spectrum; rho is stored as
    `invariance_residual`, which `vn_dimension_report` gates.  With trace
    weights below about 1e-12 rho exceeds INVARIANCE_TOL, and the dense
    `invariance_residual` is measured and stored instead.
    """
    alg = gns.algebra
    kept = _pair_ranges(alg.block_sizes, alg.generators)
    n, D = len(alg.generators), gns.dim
    sizes = alg.block_sizes
    basis = np.zeros((sum(len(w) * sizes[i] * sizes[k] for (i, k), w in kept.items()), n, D, D),
                     dtype=complex)
    r = 0
    for (i, k), w in sorted(kept.items()):
        (_, _, S_i, T_i, n_i, U_i), (_, _, S_k, T_k, n_k, U_k) = gns.blocks[i], gns.blocks[k]
        # row (m, b, d): slot j is conj(U_i) (w_m[j] (x) e_bd) U_k^T, U's columns (a, b), (c, d)
        rows = np.einsum("pab,mjac,qcd->mbdjpq", np.conj(U_i).reshape(-1, n_i, n_i), w,
                         U_k.reshape(-1, n_k, n_k), optimize=True)
        m = len(w) * n_i * n_k
        basis[r:r + m, :, S_i:T_i, S_k:T_k] = rows.reshape(m, n, n_i**2, n_k**2)
        r += m
    R_max = max(np.sqrt(b / a) for b, a in zip(sizes, alg.trace_weights))
    residual = float(R_max * (1 + max(sizes)) * 10 * np.finfo(float).eps)  # delta = 20 u
    if residual > INVARIANCE_TOL:
        residual = invariance_residual(basis, gns)
    return HsSubspace(basis, residual)


def compute_H1(gns: GnsStructure) -> HsSubspace:
    """Span of the cocycle images of self-adjoint operators, which is H0.

    The Hermitian family E_pp, H = E_pq + E_qp and K = i(E_pq - E_qp),
    p < q, is an invertible transform of the matrix units: E_pq = (H - iK)/2
    and E_qp = (H + iK)/2.  So over C both families span the same operators,
    and the cocycle map, being linear, has the same image on both.
    """
    return compute_H0(gns)


@dataclass
class DeltaReport:
    """Dimension report for a generating self-adjoint tuple, with exact Delta.

    The chain dim H0 <= delta* <= delta# <= Delta collapses because its
    endpoints coincide in finite dimensions, and H1 and H2 are H0: the CLI
    report derives those values, beta0 = 1 - Delta and every float from
    Delta, and writes the agreement flags true, each by theorem (the closed
    form's in `delta_report`).
    """

    Delta: Fraction
    closed_form_beta0: Fraction
    multiplicities: np.ndarray
    weights: tuple[float, ...]


def delta_report(algebra: TracialAlgebra, seed: int = 0) -> DeltaReport:
    """Assemble dim H0 = dim H1 = dim H2 = Delta and beta0 = 1 - Delta.

    H1 = H0 (see `compute_H1`), and H2 = H0 in finite dimensions.  H0 meets
    block pair (i, k) in the range of phi_ik (x) 1 (see `compute_H0`), of
    dimension m_ik n_i n_k, m_ik = rank phi_ik; so Delta is the
    trace-weighted sum of the m_ik (`weighted_dimension`), and no span is
    built.  The TracialAlgebra constructors proved m_ik = n_i n_k - delta_ik,
    the Schur value, when they certified that the tuple generates the
    algebra (see `build_algebra`), so the multiplicities are read from the
    block sizes, and the only SVDs here certify the center.

    Closed form: Delta and closed_form_beta0 are one exact weighted sum,
    sum_ik a_i a_k m_ik / (n_i n_k) (a_i the exact weights), at m = n n^T - I
    and at m = I, so 1 - Delta - closed_form_beta0 = 1 - (sum a_i)^2.
    `_validated`'s weight-sum check (SCALAR_TOL) and `to_fraction`
    (FRACTION_TOL) give |sum a_i - 1| <= 2e-12 + b u over b blocks: the gap
    is at most 4.1e-12 for b <= 41, far below SUBSPACE_TOL.
    """
    weights = central_decomposition(algebra, seed=seed)
    sizes = np.array(algebra.block_sizes)
    mult = np.outer(sizes, sizes) - np.eye(len(sizes), dtype=int)
    return DeltaReport(
        Delta=weighted_dimension(mult, algebra).fraction,
        closed_form_beta0=weighted_dimension(np.eye(len(sizes), dtype=int), algebra).fraction,
        multiplicities=mult,
        weights=weights,
    )
