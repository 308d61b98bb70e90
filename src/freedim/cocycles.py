"""Commutator cocycle spaces over the trace representation.

For a self-adjoint tuple X_1..X_n, the map Y -> ([Y, L_{X_1}], ..., [Y, L_{X_n}])
sends an operator on L2 to a tuple of Hilbert-Schmidt operators.  Three
subspaces of HS^n are built from it: the image over all bounded Y (H0), the
span of the image over self-adjoint Y (H1), and the weak-limit closure of
the image over Hilbert-Schmidt Y (H2).  In finite dimensions the three are
one space: H1 = H0, since the Hermitian family is an invertible transform of
the matrix units, and H2 = H0, since every operator on L2 is Hilbert-Schmidt
and every subspace weakly closed.  So `delta_report` builds H0 alone, one
pair of central blocks at a time, since each matrix unit's cocycle lives in
its pair's sub-block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GnsStructure, TracialAlgebra, gns_structure
from .errors import ChainViolation
from .tolerances import INVARIANCE_TOL, RANK_TOL, SUBSPACE_TOL
from .vndim import (
    HsSubspace,
    central_decomposition,
    invariance_residual,
    to_fraction,
    vn_dimension_report,
)


def _unit_commutators(Li: np.ndarray, Lk: np.ndarray) -> np.ndarray:
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


def commutator_bound(gns: GnsStructure, s: np.ndarray, r: int) -> float:
    """Bound on how far the commutant action moves the span of `compute_H0`.

    `s` is the descending spectrum of the spanning family, of which the
    first r rows are kept; its larger side is its n D^2 columns.  See
    `compute_H0`.  No norm here takes an SVD: the commutators are measured
    in Frobenius norm, and max_p ||R_p|| is max_i sqrt(n_i / alpha_i) in
    closed form.
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


def _pair_spans(gns: GnsStructure) -> tuple[np.ndarray, np.ndarray]:
    """Kept rows of the matrix-unit family, one SVD per ordered block pair.

    Returns the (r, n, D, D) basis, each pair's kept rows on its (i, k)
    sub-block, pairs in order, and the union of the pair spectra, sorted
    descending.  Pairs of one shape share one stacked SVD call; the rank rule
    of `numerical_span` is applied to the union (s > RANK_TOL max s).
    """
    Ls = gns.generator_left_mult
    n, D = Ls.shape[0], gns.dim
    ranges = [(S, T) for _, _, S, T, _, _ in gns.blocks]
    diag = [Ls[:, S:T, S:T] for S, T in ranges]
    by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, (Si, Ti) in enumerate(ranges):
        for k, (Sk, Tk) in enumerate(ranges):
            by_shape.setdefault((Ti - Si, Tk - Sk), []).append((i, k))
    spans = []
    for (di, dk), pairs in by_shape.items():
        family = _unit_commutators(np.array([diag[i] for i, _ in pairs]),
                                   np.array([diag[k] for _, k in pairs]))
        _, s, vh = np.linalg.svd(family.reshape(len(pairs), di * dk, n * di * dk),
                                 full_matrices=False)
        spans.append((pairs, s, vh))
    s = np.sort(np.concatenate([sp.ravel() for _, sp, _ in spans]))[::-1]
    cut = RANK_TOL * s[0] if s.size else 0.0
    kept = {pair: v[:c] for pairs, sp, vh in spans
            for pair, v, c in zip(pairs, vh, (sp > cut).sum(axis=1).tolist())}
    basis = np.zeros((sum(map(len, kept.values())), n, D, D), dtype=complex)
    r = 0
    for (i, k), v in sorted(kept.items()):
        (Si, Ti), (Sk, Tk) = ranges[i], ranges[k]
        basis[r:r + len(v), :, Si:Ti, Sk:Tk] = v.reshape(len(v), n, Ti - Si, Tk - Sk)
        r += len(v)
    return basis, s


def compute_H0(gns: GnsStructure) -> HsSubspace:
    """Image of the cocycle map Phi(Y) = ([Y, L_j])_j over all bounded
    operators on L2, with a commutator certificate.

    L_j are the left multiplications by the generators of `gns`.

    The spanning family is Phi(Y_m) over the matrix units Y_m, an
    orthonormal family of operators.  Its SVD A = U S V* uses the rank rule
    of `numerical_span`; each kept row v_k = Phi(Y'_k) has
    ||Y'_k||_HS <= 1 / s_k.

    The family is block-diagonal up to a permutation of its rows and
    columns: every L_j is block-diagonal (see `_verify_gns`), so Phi(E_pq),
    p in block i and q in block k, lives in the (i, k) sub-block.  So it is
    spanned one ordered block pair at a time (`_pair_spans`), one SVD of a
    (d_i d_k, n d_i d_k) family per pair (d_i = n_i^2), which costs
    sum_ik n (d_i d_k)^3 in place of n D^6; the rank rule and the bound below
    read the union of the pair spectra, which is the spectrum of the whole
    family.

    Each commutant action generator R = R_p satisfies
    R Phi(Y) = Phi(RY) + ([L_j, R] Y)_j and Phi(Y) R = Phi(YR) + (Y [L_j, R])_j,
    and Phi(RY) lies within s_{r+1} ||RY||_HS of the kept span.  So both
    actions move every basis row at most

        (max_p (sum_j ||[L_j, R_p]||_F^2)^(1/2)
         + (s_{r+1} + eps_fp) * max_p ||R_p||) / s_r

    from the span (s_{r+1} = 0 at full rank); `commutator_bound` computes
    it.  The commutator term is a Frobenius norm, which is at least the
    operator norm the argument needs.
    R_p = L_{b_p}^T has the operator norm of b_p, which is its largest
    entry: sqrt(n/alpha) for the diagonal units of a block of size n and
    weight alpha and sqrt(n/(2 alpha)) for the pairs (see `_block_basis`),
    so max_p ||R_p|| = max_i sqrt(n_i/alpha_i) exactly.  A computed SVD is
    the exact SVD of some A + E; with ||E|| taken as max(rows, cols) u s_1
    (u the unit roundoff, the noise level numpy's matrix_rank assumes), E
    enters twice, once in v_k and once in Phi(RY), so eps_fp = 2 ||E||.
    Per block pair the computed SVD is exact for A_ik + E_ik, and permuting
    rows and columns is exact, so the assembled one is exact for A + E with
    E = (+)_ik E_ik and ||E|| = max ||E_ik|| <= n d_i d_k u s_1(A_ik) <=
    n D^2 u s_1(A): the same eps_fp as for one SVD of the whole family.
    Rounding in the commutator products, each formed on R_p's block, is
    measured rather than bounded.  The bound costs at most O(n D^4) and is
    stored as `invariance_residual`, which `vn_dimension_report` gates.

    The eps_fp term makes the bound about 10^2-10^3 times the measured
    residual, and it grows as 1/s_r: with trace weights of order 1e-10, or two
    generator eigenvalues within about 1e-5 of each other, it exceeds
    INVARIANCE_TOL while the span is invariant to rounding.  When the bound
    fails the gate, the dense `invariance_residual` is measured and stored
    instead, so such inputs are accepted exactly when the dense certificate
    accepts them.
    """
    basis, s = _pair_spans(gns)
    residual = commutator_bound(gns, s, basis.shape[0])
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
    Delta.
    """

    Delta: Fraction
    closed_form_beta0: Fraction
    multiplicities: np.ndarray
    weights: tuple[float, ...]
    closed_form_matches: bool


def delta_report(algebra: TracialAlgebra, seed: int = 0) -> DeltaReport:
    """Assemble dim H0 = dim H1 = dim H2 = Delta and beta0 = 1 - Delta.

    One span is built, H0.  H1 = H0: the Hermitian family E_pp, E_pq + E_qp,
    i(E_pq - E_qp) is an invertible transform of the matrix units (see
    `compute_H1`).  H2 = H0 in finite dimensions.

    The second witness is exact.  The algebra is the one its tuple generates
    (the TracialAlgebra constructors check it), the direct sum of the
    pairwise inequivalent blocks M_{n_i}.  The kernel of the cocycle map is
    the commutant of the left action, the right multiplications, which meets
    block pair (i, k) in dimension delta_ik n_i^2 of n_i^2 n_k^2; so by
    Schur the certified multiplicities are m_ik = n_i n_k - delta_ik, and
    ChainViolation signals that H0's differ.  The closed form
    sum_i alpha_i^2 / n_i^2 for beta0 cross-checks the pipeline.
    """
    gns = gns_structure(algebra)
    weights = central_decomposition(gns, seed=seed)
    H0 = compute_H0(gns)
    r0 = vn_dimension_report(H0, algebra)

    sizes = np.array(algebra.block_sizes)
    schur = np.outer(sizes, sizes) - np.eye(len(sizes), dtype=int)
    if not np.array_equal(r0.multiplicities, schur):
        raise ChainViolation(
            f"H0 has multiplicities {r0.multiplicities.tolist()}, not the "
            f"Schur values {schur.tolist()} of blocks {list(algebra.block_sizes)}"
        )

    closed = sum(
        (to_fraction(w) ** 2 / (n * n)
         for w, n in zip(algebra.trace_weights, algebra.block_sizes)),
        Fraction(0),
    )
    return DeltaReport(
        Delta=r0.fraction,
        closed_form_beta0=closed,
        multiplicities=r0.multiplicities,
        weights=weights,
        closed_form_matches=abs(float(1 - r0.fraction) - float(closed)) <= SUBSPACE_TOL,
    )
