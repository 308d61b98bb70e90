"""Spectral clamp families and the commutator difference-quotient identity.

A clamp family f_R fixes [-R, R] pointwise, stays bounded by R + 1, and has
difference quotient bounded by 2.  Applied to a self-adjoint matrix through
the eigendecomposition, it satisfies [f(A), X] = g(A)·[A, X] entrywise in
the eigenbasis of A, with g the two-variable difference quotient; once R
clears the spectral radius the clamp is the identity on the spectrum and
the commutators match exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotSelfAdjoint
from .tolerances import DIAG_SWITCH, OPERATOR_TOL


def _phi(u: np.ndarray) -> np.ndarray:
    """Smooth excess profile: flat-matches the identity at 0, bounded by 1.

    phi(u) = u * exp(-u^2 exp(-1/u)); every derivative of phi(u) - u
    vanishes at u = 0, |phi| < 1 and |phi'| <= 1.03 on [0, inf).
    """
    u = np.asarray(u, dtype=float)
    safe = np.where(u > 0, u, 1.0)
    s = safe * safe * np.exp(-1.0 / safe)
    return np.where(u > 0, safe * np.exp(-s), 0.0)


def _phi_prime(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    safe = np.where(u > 0, u, 1.0)
    damp = np.exp(-1.0 / safe)
    s = safe * safe * damp
    sprime = damp * (2.0 * safe + 1.0)
    return np.where(u > 0, np.exp(-s) * (1.0 - safe * sprime), 1.0)


@dataclass
class CutoffFamily:
    """One member of the clamp family, at scale R.

    The default profile clamps with an exponential tail
    sign(x) (R + 1 - exp(R - |x|)); it is once continuously differentiable
    at |x| = R and 1-Lipschitz, which is all the three defining conditions
    use.  `smooth=True` swaps in an everywhere-smooth profile at the price
    of a slightly larger (still < 2) quotient bound.
    """

    R: float
    smooth: bool = False

    def f(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        if self.smooth:
            tail = self.R + _phi(a - self.R)
        else:
            # min(., 0): inside [-R, R] the tail is discarded and must not overflow
            tail = self.R + 1.0 - np.exp(np.minimum(self.R - a, 0.0))
        return np.where(a <= self.R, x, np.sign(x) * tail)

    def fprime(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        if self.smooth:
            tail = _phi_prime(a - self.R)
        else:
            tail = np.exp(np.minimum(self.R - a, 0.0))
        return np.where(a <= self.R, 1.0, tail)

    def g(self, s, t) -> np.ndarray:
        """Two-variable difference quotient, with the derivative on the diagonal."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        s, t = np.broadcast_arrays(s, t)
        close = np.abs(s - t) < DIAG_SWITCH
        denom = np.where(close, 1.0, s - t)
        quotient = (self.f(s) - self.f(t)) / denom
        return np.where(close, self.fprime((s + t) / 2.0), quotient)


def _check_self_adjoint(A: np.ndarray, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if np.abs(A - A.conj().T).max() > OPERATOR_TOL * max(1.0, float(np.abs(A).max())):
        raise NotSelfAdjoint(f"{name} is not self-adjoint")
    return A


def _clamp(A: np.ndarray, lam: np.ndarray, U: np.ndarray, R: float,
           smooth: bool) -> np.ndarray:
    """f_R(A) from A's eigendecomposition A = U diag(lam) U*."""
    shift = CutoffFamily(R, smooth=smooth).f(lam) - lam
    if not np.any(shift):
        return A.copy()
    return A + (U * shift) @ U.conj().T


def apply_cutoff(A: np.ndarray, R: float, smooth: bool = False) -> np.ndarray:
    """f_R(A) through the eigendecomposition of a self-adjoint matrix.

    Computed as A + U diag(f(lam) - lam) U*, so the result is bitwise A
    whenever the whole spectrum sits inside [-R, R].
    """
    A = _check_self_adjoint(A, "A")
    return _clamp(A, *np.linalg.eigh(A), R, smooth)


def commutator_identity_check(A: np.ndarray, X: np.ndarray, family) -> float:
    """Entrywise residual of [f(A), X] = g(lam_k, lam_l) [A, X] in A's eigenbasis.

    `family` is a real clamp scale R (any `numbers.Real`), or any object
    with `f` and `g`, such as a CutoffFamily.
    """
    if isinstance(family, numbers.Real):
        family = CutoffFamily(float(family))
    A = _check_self_adjoint(A, "A")
    X = _check_self_adjoint(X, "X")
    lam, U = np.linalg.eigh(A)
    Xt = U.conj().T @ X @ U
    F = family.f(lam)
    lhs = F[:, None] * Xt - Xt * F[None, :]
    G = family.g(lam[:, None], lam[None, :])
    rhs = G * (lam[:, None] * Xt - Xt * lam[None, :])
    return float(np.abs(lhs - rhs).max())


def spectral_radius(A: np.ndarray) -> float:
    A = _check_self_adjoint(A, "A")
    return float(np.abs(np.linalg.eigvalsh(A)).max())


def convergence_sweep(
    A: np.ndarray,
    X_tuple: Sequence[np.ndarray],
    R_grid: Sequence[float],
    smooth: bool = False,
) -> list[tuple[float, float]]:
    """Aggregate HS error between clamped and unclamped commutators per R.

    T_j = [A, X_j] and T_j^(R) = [f_R(A), X_j]; the error vanishes exactly
    once R reaches the spectral radius of A and never increases with R.
    Every radius clamps one eigendecomposition of A.
    """
    A = _check_self_adjoint(A, "A")
    lam, U = np.linalg.eigh(A)
    Xs = [np.asarray(X, dtype=complex) for X in X_tuple]
    T = [A @ X - X @ A for X in Xs]
    out = []
    for R in R_grid:
        AR = _clamp(A, lam, U, float(R), smooth)
        err_sq = 0.0
        for X, Tj in zip(Xs, T):
            diff = AR @ X - X @ AR - Tj
            err_sq += float(np.linalg.norm(diff) ** 2)
        out.append((float(R), float(np.sqrt(err_sq))))
    return out
