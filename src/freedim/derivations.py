"""Derivations with prescribed Hilbert-Schmidt values and their dual operators.

A tuple T = (T_1..T_n) of Hilbert-Schmidt operators prescribes a derivation
on the free polynomial algebra in the generators: it sends X_j to T_j and
extends by the Leibniz rule, with HS a bimodule over left multiplications
through operator composition.  M is semisimple, so T descends through the
relations of the algebra exactly when T_j = [Y, L_{X_j}] for some Y, and Y
is unique once Y 1 = 0: the Y that commute with every L_j are the right
multiplications R_b, and R_b 1 = b.  One least-squares solve of the
block-pair Sylvester equations decides whether T descends and gives that Y;
the conjugate vector xi of the adjoint relation <xi, Q 1> = <P1, dT(Q)>_HS
is read from Y, and Y* 1 = xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import GnsStructure, TracialAlgebra, block_pair_operators, gns_structure
from .errors import IllDefined, ResidualTooLarge
from .tolerances import RESIDUAL_TOL, WELLDEF_TOL


def inner_spec(gns: GnsStructure, B: np.ndarray) -> tuple[np.ndarray, ...]:
    """The inner assignment T_j = [B', L_{X_j}], B' = B minus its projection
    onto the commutant, 1 (x) C_i on block (i, i) of the frame of
    `_sylvester_solve` with C_i its partial trace over the first factor
    over n_i.  T is [B, L_j] in exact arithmetic, but formed from B' it
    loses no digits to a large central part of B (B L_j - L_j B at
    B = 7 + eps B_0 keeps an error of about u 7 ||L_j|| against ||T|| ~ eps).
    """
    B = np.array(B, dtype=complex)
    for _, _, S, T, n, U in gns.blocks:
        C = np.einsum("abad->bd", (U.T @ B[S:T, S:T] @ np.conj(U)).reshape((n,) * 4)) / n
        B[S:T, S:T] -= np.conj(U) @ np.kron(np.eye(n), C) @ U.T
    return tuple(B @ L - L @ B for L in gns.generator_left_mult)


def fdq_targets(gns: GnsStructure, slot: int) -> tuple[np.ndarray, ...]:
    """The free difference quotient in `slot`: the trace-vector projection
    P1 there and zero in the other slots.

    It never descends, by a margin: each [Y, L_j] has trace 0 on every
    diagonal block of L2 (L_j maps each to itself), where P1 has trace
    alpha_i, and ||P1|| = 1, so `_sylvester_solve`'s residual is at least
    sqrt(sum_i alpha_i^2 / n_i^2) >= 1/sqrt(D) (Cauchy-Schwarz), far
    above WELLDEF_TOL."""
    n = len(gns.generator_left_mult)
    if not 0 <= slot < n:
        raise IllDefined(f"slot {slot} out of range for {n} generators")
    out = [np.zeros((gns.dim, gns.dim), dtype=complex) for _ in range(n)]
    out[slot] = np.outer(gns.trace_vector, gns.trace_vector).astype(complex)
    return tuple(out)


def _stacked_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq's solution for each matrix of a stack, which lstsq
    does not take: z = V S^+ U* b from one SVD, with the singular values at
    or below eps max(rows, cols) s_1 cut as lstsq cuts them."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape[-2:]) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return vh.conj().swapaxes(-1, -2) @ (inv[..., None] * (u.conj().swapaxes(-1, -2) @ b))


def _sylvester_solve(gns: GnsStructure, targets: Sequence[np.ndarray]
                     ) -> tuple[float, np.ndarray]:
    """dist(T, {([Y, L_j])_j : Y}) / ||T|| (Frobenius norms), and the
    least-squares Y with Y 1 = 0 (0 and Y = 0 for T = 0).

    In the matrix-unit frame W = (+)_i conj(U_i), U_i from `gns.blocks`,
    L_j = W ((+)_i X_j^(i) (x) 1) W*, so block (i, k) of W* T_j W, that is
    U_i^T T_j[S_i:T_i, S_k:T_k] conj(U_k) with rows (a, b) and columns
    (c, d), holds n_i n_k right-hand sides, one per (b, d), of
    phi_ik(z) = (z X_j^(k) - X_j^(i) z)_j on n_i x n_k matrices z indexed
    (a, c), read from `block_pair_operators`.  One SVD per shape stack
    solves every pair of that shape (`_stacked_lstsq`); the pairs' residuals
    add in squares, in (i, k) order, since W is unitary.  z, reshuffled to
    rows (a, b) and columns (c, d), is block (i, k) of W* Y W.  ker phi_ik
    is 0 off the diagonal and the scalars on it, the commutant elements
    1 (x) C of block i; the one added on each block makes Y 1 = 0.
    Rounding (u the unit roundoff, m the largest n_i n_k, z the solutions):
    the frame moves each right-hand side by at most 4 u ||T|| and phi z - rhs
    is formed explicitly, so the exact value is at most the computed one plus
    eps = u (5 + m ||phi|| ||z|| / ||T||); the SVD is backward stable, which
    keeps the computed value within about eps of the least.
    """
    D, t = gns.dim, gns.trace_vector
    Ts = np.asarray(targets, dtype=complex).reshape(-1, D, D)
    norm, Y = float(np.linalg.norm(Ts)), np.zeros((D, D), dtype=complex)
    if norm == 0.0:
        return 0.0, Y
    units, starts = {n: U for *_, n, U in gns.blocks}, np.array([b[2] for b in gns.blocks])
    sq = np.zeros((len(starts),) * 2)
    ops = block_pair_operators(gns.algebra.block_sizes, gns.algebra.generators)
    for (n_i, n_k), (pairs, phi) in ops.items():
        i, k = np.array(pairs).T
        rows = (starts[i, None] + np.arange(n_i * n_i))[:, :, None]  # (p, n_i^2, 1)
        cols = (starts[k, None] + np.arange(n_k * n_k))[:, None, :]  # (p, 1, n_k^2)
        U_i, U_k = units[n_i], units[n_k]
        # (j, p, a, b, c, d) -> (p, j, a, c, b, d): rows (j, a, c), columns (b, d)
        rhs = (U_i.T @ Ts[:, rows, cols] @ np.conj(U_k)).reshape(len(Ts), -1, n_i, n_i, n_k, n_k)
        rhs = rhs.transpose(1, 0, 2, 4, 3, 5).reshape(len(pairs), -1, n_i * n_k)
        z = _stacked_lstsq(phi, rhs)
        sq[i, k] = np.linalg.norm(phi @ z - rhs, axis=(1, 2)) ** 2
        z = z.reshape(-1, n_i, n_k, n_i, n_k).transpose(0, 1, 3, 2, 4)
        Y[rows, cols] = np.conj(U_i) @ z.reshape(-1, n_i * n_i, n_k * n_k) @ U_k.T
    r = Y @ t
    for _, _, S, T, n, U in gns.blocks:
        # U^T t, the block's unit coordinates of 1, is exactly v vec(1) (one
        # nonzero term per entry), and (1 (x) C) v vec(1) = v vec(C^T)
        C = (U.T @ r[S:T]).reshape(n, n).T / -(U.T @ t[S:T])[0]
        Y[S:T, S:T] += np.conj(U) @ np.kron(np.eye(n), C) @ U.T
    return float(np.sqrt(sq.sum())) / norm, Y


@dataclass
class DerivationFit:
    """A prescribed derivation solved on the block pairs (`_sylvester_solve`):
    whether it descends, its defect (the solve's relative residual), the
    least-squares Y with Y 1 = 0 and the values T_j on the generators."""

    well_defined: bool
    defect: float
    Y: np.ndarray
    targets: tuple[np.ndarray, ...]


def derivation_well_defined(gns: GnsStructure, targets: Sequence[np.ndarray]
                            ) -> DerivationFit:
    """Decide whether the derivation with values `targets` on the generators
    of gns descends to the algebra, and solve for its dual operator.

    M is semisimple, so T descends exactly when T_j = [Y, L_{X_j}] for some
    Y: the defect is the relative residual of the block-pair solve
    (`_sylvester_solve`, one SVD per block shape), and the verdict is the
    defect against WELLDEF_TOL.  Inconsistency is a result, not an error.
    """
    n = len(gns.generator_left_mult)
    if len(targets) != n:
        raise IllDefined(f"{len(targets)} target operators for {n} generators")
    targets = tuple(np.asarray(t, dtype=complex) for t in targets)
    defect, Y = _sylvester_solve(gns, targets)
    return DerivationFit(defect <= WELLDEF_TOL, defect, Y, targets)


def _conjugate_vector(gns: GnsStructure, Y: np.ndarray) -> np.ndarray:
    """xi_m = <[Y, L_{b_m}], P1>_HS (np.vdot's order), P1 = t t^T for the
    trace vector t: conj((Y^T t) . L_{b_m} t - L_{b_m}^T t . (Y t)).  On a
    block, b_m is sqrt(n / alpha) times row m of U as an n x n matrix, and
    the frame gives L_{b_m} t = conj(U) vec(b_m V) and L_{b_m}^T t =
    U vec(b_m^T V), V = U^T t as an n x n matrix: n^4 work per block."""
    t = gns.trace_vector
    left, right = Y.T @ t, Y @ t
    xi = np.empty(gns.dim, dtype=complex)
    for (_, _, S, T, n, U), alpha in zip(gns.blocks, gns.algebra.trace_weights):
        b, V = np.sqrt(n / alpha) * U.reshape(n * n, n, n), (U.T @ t[S:T]).reshape(n, n)
        xi[S:T] = np.conj((b @ V).reshape(n * n, -1) @ (np.conj(U).T @ left[S:T])
                          - (b.swapaxes(1, 2) @ V).reshape(n * n, -1) @ (U.T @ right[S:T]))
    return xi


@dataclass
class FisherSlot:
    """Well-definedness data for one distinguished-derivation slot; no slot
    descends (`fdq_targets`), so none has a conjugate vector: `xi_norm_sq` is None."""

    slot: int
    well_defined: bool
    defect: float
    xi_norm_sq: Optional[float]


@dataclass
class FisherReport:
    value: float
    slots: list[FisherSlot]


def fisher_report(gns: GnsStructure) -> FisherReport:
    """Sum of |xi_j|^2 over the distinguished derivations, +inf when some
    slot fails to descend (its defect records how decisively).  Every slot
    fails, as `fdq_targets` bounds its residual below by 1/sqrt(D) >>
    WELLDEF_TOL, so the value is +inf, or 0.0, the empty sum, for no generators.
    """
    fits = [derivation_well_defined(gns, fdq_targets(gns, j))
            for j in range(len(gns.generator_left_mult))]
    slots = [FisherSlot(j, fit.well_defined, fit.defect, None) for j, fit in enumerate(fits)]
    return FisherReport(float("inf") if slots else 0.0, slots)


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
    """The fit's Y, with Y 1 = 0 and [Y, L_{X_j}] = T_j, and xi = Y* 1 read
    from Y by its definition (`_conjugate_vector`).

    The report holds the three identities' absolute residuals, and
    ResidualTooLarge is raised unless max_j ||[Y, L_j] - T_j|| <=
    RESIDUAL_TOL ||T|| and ||Y 1||, ||Y* 1 - xi|| <= RESIDUAL_TOL ||Y||
    (Frobenius norms, ||T||^2 = sum_j ||T_j||^2).  L_{b_m} t and L_{b_m}^T t
    are e_m in exact arithmetic, so xi = Y* 1 - conj(Y 1): the adjoint
    residual is ||Y 1|| again, plus the frame's rounding of L_{b_m} 1 = e_m
    (within 12 u, see `algebra._verify_gns`) times ||Y||.
    """
    if not fit.well_defined:
        raise IllDefined(f"derivation does not descend to the algebra (defect {fit.defect:.3e})")
    Y, t = fit.Y, gns.trace_vector
    xi = _conjugate_vector(gns, Y)
    commutators = max((float(np.linalg.norm(Y @ L - L @ Y - T))
                       for L, T in zip(gns.generator_left_mult, fit.targets)), default=0.0)
    report = DualOperatorReport(Y, xi, float(np.linalg.norm(Y @ t)), commutators,
                                float(np.linalg.norm(Y.conj().T @ t - xi)))
    T_norm, Y_norm = float(np.linalg.norm(fit.targets)), float(np.linalg.norm(Y))
    if not (report.residual_commutators <= RESIDUAL_TOL * T_norm
            and max(report.residual_Y1, report.residual_adjoint) <= RESIDUAL_TOL * Y_norm):
        raise ResidualTooLarge(
            f"dual operator residuals {report.residual_commutators:.3e} (commutators), "
            f"{report.residual_Y1:.3e} (Y1), {report.residual_adjoint:.3e} (adjoint) exceed "
            f"{RESIDUAL_TOL:.0e} times ||T|| = {T_norm:.3e} or ||Y|| = {Y_norm:.3e}")
    return report
