"""Derivations with prescribed Hilbert-Schmidt values and their dual operators.

A tuple T = (T_1..T_n) of Hilbert-Schmidt operators prescribes a derivation
on the free polynomial algebra in the generators: it sends X_j to T_j and
extends by the Leibniz rule, with HS a bimodule over left multiplications
through operator composition.  Whether that free assignment descends through
the relations of the algebra is decided by one Sylvester solve per pair of
blocks; a fit over words gives the induced map, and when T descends, the
adjoint relation <xi, Q 1> = <P1, dT(Q)>_HS determines a conjugate vector xi,
and an operator Y with Y 1 = 0, [Y, L_{X_j}] = T_j and Y* 1 = xi is
assembled column by column on the cyclic basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import GnsStructure, TracialAlgebra, gns_structure
from .errors import IllDefined, ResidualTooLarge
from .tolerances import RESIDUAL_TOL, WELLDEF_TOL, WORD_GROWTH_TOL


def inner_spec(gns: GnsStructure, B: np.ndarray) -> tuple[np.ndarray, ...]:
    """The inner assignment T_j = [B, L_{X_j}] induced by an operator B."""
    return tuple(B @ L - L @ B for L in gns.generator_left_mult)


def fdq_targets(gns: GnsStructure, slot: int) -> tuple[np.ndarray, ...]:
    """The free difference quotient in `slot`: the trace-vector projection
    P1 there and zero in the other slots.

    It never descends, by a margin: each [Y, L_j] has trace 0 on every
    diagonal block of L2 (L_j maps each to itself), where P1 has trace
    alpha_i, and ||P1|| = 1, so `_sylvester_residual` is at least
    sqrt(sum_i alpha_i^2 / n_i^2) >= 1/sqrt(D) (Cauchy-Schwarz), far
    above WELLDEF_TOL."""
    n = len(gns.generator_left_mult)
    if not 0 <= slot < n:
        raise IllDefined(f"slot {slot} out of range for {n} generators")
    out = [np.zeros((gns.dim, gns.dim), dtype=complex) for _ in range(n)]
    out[slot] = np.outer(gns.trace_vector, gns.trace_vector).astype(complex)
    return tuple(out)


def _word_system(gns: GnsStructure, targets: Sequence[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The words in the generators that pin down the derivation with values
    `targets`, in one breadth-first walk from the empty word: their vectors
    L_w 1 and their free derivatives d(w).

    Each child w X_j of an expanded word gets L_w L_j, its vector and
    d(w X_j) = d(w) L_j + L_w T_j together.  A word is expanded only if its
    vector grew the span, that is left the span of the earlier growing words
    by more than WORD_GROWTH_TOL max(1, |v|); the span is kept as an
    orthonormal basis that gains one row per growing word (Gram-Schmidt with
    one re-orthogonalization) and stops growing when full, so at most D
    words are expanded, the empty word first, and all n children of each are
    evaluated: one full round past stabilization, so that every relation
    among the retained words is in the system.  Only the expanded words
    awaiting their children keep L_w.
    """
    Ls = gns.generator_left_mult
    D = gns.dim
    t = gns.trace_vector.astype(complex)
    size = 1 + len(Ls) * D
    vecs = np.empty((size, D), dtype=complex)
    vals = np.empty((size, D, D), dtype=complex)
    vecs[0], vals[0] = t, 0.0
    basis = np.empty((D, D), dtype=complex)  # rows [:r] orthonormal
    basis[0] = t / np.linalg.norm(t)
    r, k = 1, 1
    parents = deque([(np.eye(D, dtype=complex), 0)])
    while parents:
        L_w, w = parents.popleft()
        for L_j, T_j in zip(Ls, targets):
            L_new = L_w @ L_j
            v = vecs[k] = L_new @ t
            vals[k] = vals[w] @ L_j
            vals[k] += L_w @ T_j
            resid = v - basis[:r].T @ (basis[:r].conj() @ v)
            if r < D and (np.linalg.norm(resid)
                          > WORD_GROWTH_TOL * max(1.0, np.linalg.norm(v))):
                resid -= basis[:r].T @ (basis[:r].conj() @ resid)
                basis[r] = resid / np.linalg.norm(resid)
                r += 1
                parents.append((L_new, k))
            k += 1
    return vecs[:k], vals[:k]


@dataclass
class DerivationFit:
    """The least-squares fit of a prescribed derivation over the words.

    `map` is the (D*D, D) matrix of the induced linear map from L2 into HS,
    `defect` the worst residual over the evaluated words (see
    `derivation_well_defined`) and `targets` the values T_j on the generators.
    """

    well_defined: bool
    defect: float
    map: np.ndarray
    targets: tuple[np.ndarray, ...]


def _sylvester_residual(gns: GnsStructure, targets: Sequence[np.ndarray]) -> float:
    """dist(T, {([Y, L_j])_j : Y}) / ||T||, Frobenius norms (0 for T = 0).

    In the matrix-unit frame W = (+)_i conj(U_i), U_i from `gns.blocks`,
    L_j = W ((+)_i X_j^(i) (x) 1) W*, so block (i, k) of W* T_j W, that is
    U_i^T T_j[S_i:T_i, S_k:T_k] conj(U_k), holds n_i n_k right-hand sides of
    phi_ik(z) = (z X_j^(k) - X_j^(i) z)_j on n_i x n_k matrices z: one lstsq
    per block pair, whose residuals add in squares since W is unitary.
    Rounding (u the unit roundoff, m the largest n_i n_k, z the solutions):
    the frame moves each right-hand side by at most 4 u ||T|| and phi z - rhs
    is formed explicitly, so the exact value is at most the computed one plus
    eps = u (5 + m ||phi|| ||z|| / ||T||); lstsq's SVD solver is backward
    stable, which keeps the computed value within about eps of the least.
    """
    norm = float(np.sqrt(sum(np.vdot(Tj, Tj).real for Tj in targets)))
    if norm == 0.0:
        return 0.0
    blocks = gns.blocks
    sq = 0.0
    for s_i, t_i, S_i, T_i, n_i, U_i in blocks:
        for s_k, t_k, S_k, T_k, n_k, U_k in blocks:
            # 1 (x) X^(k)T - X^(i) (x) 1, each as the product np.kron forms
            phi = np.vstack([(np.eye(n_i)[:, None, :, None] * X[s_k:t_k, s_k:t_k].T[:, None]
                              - X[s_i:t_i, None, s_i:t_i, None] * np.eye(n_k)[:, None, :]
                              ).reshape(n_i * n_k, -1) for X in gns.algebra.generators])
            rhs = np.vstack([(U_i.T @ Tj[S_i:T_i, S_k:T_k] @ np.conj(U_k))
                             .reshape(n_i, n_i, n_k, n_k).transpose(0, 2, 1, 3)
                             .reshape(n_i * n_k, -1) for Tj in targets])
            z = np.linalg.lstsq(phi, rhs, rcond=None)[0]
            sq += float(np.linalg.norm(phi @ z - rhs)) ** 2
    return float(np.sqrt(sq)) / norm


def derivation_well_defined(gns: GnsStructure, targets: Sequence[np.ndarray]
                            ) -> DerivationFit:
    """Decide whether the derivation with values `targets` on the generators
    of gns descends to the algebra, by a least-squares fit over its words.

    M is semisimple, so T descends exactly when T_j = [Y, L_{X_j}] for some
    Y; `_sylvester_residual` against WELLDEF_TOL is the verdict.  The defect
    is the fit's where the fit agrees, else the solve's relative residual.
    Inconsistency is a result, not an error.
    """
    n = len(gns.generator_left_mult)
    if len(targets) != n:
        raise IllDefined(f"{len(targets)} target operators for {n} generators")
    targets = tuple(np.asarray(t, dtype=complex) for t in targets)
    vecs, vals = _word_system(gns, targets)
    K, D = vecs.shape

    Wm = vals.reshape(K, D * D).T   # (D^2, K)
    sol, *_ = np.linalg.lstsq(vecs, Wm.T, rcond=None)
    dhat = sol.T                    # (D^2, D)
    resid = dhat @ vecs.T
    resid -= Wm
    # column norms summed as np.linalg.norm(resid, axis=0) sums them; the
    # word values are spent, so their buffer holds the squares
    sq = np.conjugate(resid, out=vals.reshape(D * D, K))
    sq *= resid
    defect = float(np.sqrt(np.add.reduce(sq.real, axis=0)).max())
    relative = _sylvester_residual(gns, targets)
    if (relative <= WELLDEF_TOL) != (defect <= WELLDEF_TOL):
        defect = relative
    return DerivationFit(relative <= WELLDEF_TOL, defect, dhat, targets)


def _xi(gns: GnsStructure, dhat: np.ndarray) -> np.ndarray:
    """xi_m = <dhat(e_m), P1>_HS: the conjugate vector of the induced map."""
    p1 = np.outer(gns.trace_vector, gns.trace_vector)  # P1, onto the trace vector
    return np.array([np.vdot(dhat[:, m].reshape(p1.shape), p1) for m in range(gns.dim)])


@dataclass
class FisherSlot:
    """Well-definedness data for one distinguished-derivation slot."""

    slot: int
    well_defined: bool
    defect: float
    xi_norm_sq: Optional[float]


@dataclass
class FisherReport:
    value: float
    slots: list[FisherSlot]


def _fisher_slot(gns: GnsStructure, j: int) -> FisherSlot:
    """Slot j's verdict; its fit's (D^2, D) map is released on return."""
    fit = derivation_well_defined(gns, fdq_targets(gns, j))
    xi_norm_sq = float(np.linalg.norm(_xi(gns, fit.map)) ** 2) if fit.well_defined else None
    return FisherSlot(j, fit.well_defined, fit.defect, xi_norm_sq)


def fisher_report(gns: GnsStructure) -> FisherReport:
    """Sum of |xi_j|^2 over the distinguished derivations, or +inf.

    Infinite whenever some slot's derivation fails to descend (the defect
    records how decisively) or lacks a conjugate vector.
    """
    slots = [_fisher_slot(gns, j) for j in range(len(gns.generator_left_mult))]
    if not all(s.well_defined for s in slots):
        return FisherReport(value=float("inf"), slots=slots)
    return FisherReport(value=sum((s.xi_norm_sq for s in slots), 0.0), slots=slots)


def phi_star(algebra: TracialAlgebra) -> float:
    """Free Fisher information of the generating tuple (+inf when undefined)."""
    return fisher_report(gns_structure(algebra)).value


@dataclass
class DualOperatorReport:
    """The operator dual to a prescribed derivation, with its residuals."""

    Y: np.ndarray
    xi: np.ndarray
    residual_Y1: float
    residual_commutators: float
    residual_adjoint: float


def construct_dual_operator(gns: GnsStructure, fit: DerivationFit
                            ) -> DualOperatorReport:
    """Build Y with Y 1 = 0, [Y, L_{X_j}] = T_j and Y* 1 = xi from a fit.

    Y acts on the cyclic vector of a polynomial by the derivative of that
    polynomial applied to the trace vector.  The report holds the three
    identities' absolute residuals, and ResidualTooLarge is raised unless
    max_j ||[Y, L_j] - T_j|| <= RESIDUAL_TOL ||T|| and ||Y 1||, ||Y* 1 - xi||
    <= RESIDUAL_TOL ||Y|| (Frobenius norms, ||T||^2 = sum_j ||T_j||^2).
    """
    if not fit.well_defined:
        raise IllDefined(
            f"derivation does not descend to the algebra (defect {fit.defect:.3e})"
        )
    D = gns.dim
    t = gns.trace_vector.astype(complex)
    # the one path numpy can choose for two operands, without the search
    Y = np.einsum("ijm,j->im", fit.map.reshape(D, D, D), t, optimize=["einsum_path", (0, 1)])
    xi = _xi(gns, fit.map)

    report = DualOperatorReport(
        Y=Y,
        xi=xi,
        residual_Y1=float(np.linalg.norm(Y @ t)),
        residual_commutators=max(
            (float(np.linalg.norm(Y @ L - L @ Y - T))
             for L, T in zip(gns.generator_left_mult, fit.targets)),
            default=0.0,
        ),
        residual_adjoint=float(np.linalg.norm(Y.conj().T @ t - xi)),
    )
    T_norm, Y_norm = float(np.linalg.norm(fit.targets)), float(np.linalg.norm(Y))
    if not (report.residual_commutators <= RESIDUAL_TOL * T_norm
            and max(report.residual_Y1, report.residual_adjoint) <= RESIDUAL_TOL * Y_norm):
        raise ResidualTooLarge(
            f"dual operator residuals {report.residual_commutators:.3e} (commutators), "
            f"{report.residual_Y1:.3e} (Y1), {report.residual_adjoint:.3e} (adjoint) exceed "
            f"{RESIDUAL_TOL:.0e} times ||T|| = {T_norm:.3e} or ||Y|| = {Y_norm:.3e}")
    return report
