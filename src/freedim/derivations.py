"""Derivations with prescribed Hilbert-Schmidt values and their dual operators.

A tuple T = (T_1..T_n) of Hilbert-Schmidt operators prescribes a derivation
on the free polynomial algebra in the generators: it sends X_j to T_j and
extends by the Leibniz rule, with HS a bimodule over left multiplications
through operator composition.  Whether that free assignment descends through
the relations of the algebra is decided by a least-squares fit over words;
when it does, the adjoint relation <xi, Q 1> = <P1, dT(Q)>_HS determines a
conjugate vector xi, and an operator Y with Y 1 = 0, [Y, L_{X_j}] = T_j and
Y* 1 = xi is assembled column by column on the cyclic basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import GnsStructure, TracialAlgebra, gns_structure
from .errors import IllDefined, ResidualTooLarge
from .tolerances import RESIDUAL_TOL, WELLDEF_TOL


def inner_spec(gns: GnsStructure, B: np.ndarray) -> tuple[np.ndarray, ...]:
    """The inner assignment T_j = [B, L_{X_j}] induced by an operator B."""
    return tuple(B @ L - L @ B for L in gns.generator_left_mult)


def fdq_targets(gns: GnsStructure, slot: int) -> tuple[np.ndarray, ...]:
    """The free difference quotient in `slot`: the trace-vector projection
    there and zero in the other slots."""
    n = len(gns.generator_left_mult)
    if not 0 <= slot < n:
        raise IllDefined(f"slot {slot} out of range for {n} generators")
    out = [np.zeros((gns.dim, gns.dim), dtype=complex) for _ in range(n)]
    out[slot] = gns.p1.astype(complex)
    return tuple(out)


@dataclass
class WordTree:
    """The words in the generators that pin down a derivation on them.

    Words are enumerated breadth-first from the empty word; a word is
    expanded further only if its vector grew the span, and one full round
    past stabilization is evaluated so that every relation among the
    retained words is present in the system.  An expanded word's children
    append each generator in turn, and the children of the k-th expanded
    word (the empty word is the 0-th) are the words 1 + k n .. (k + 1) n.
    """

    vecs: np.ndarray      # (K, D) vectors L_w 1, the empty word first
    expanded: np.ndarray  # (K,) bool, whether each word was expanded


def enumerate_words(gns: GnsStructure) -> WordTree:
    """The word tree of gns's generators.

    A word grows the span when its vector leaves the span of the earlier
    growing words by more than 1e-9 max(1, |v|); the span is kept as an
    orthonormal basis that gains one row per growing word (Gram-Schmidt
    with one re-orthogonalization).
    """
    D = gns.dim
    t = gns.trace_vector.astype(complex)
    vecs, expanded = [t], [True]
    frontier = [np.eye(D, dtype=complex)]
    basis = np.empty((D, D), dtype=complex)  # rows [:r] orthonormal
    basis[0] = t / np.linalg.norm(t)
    r = 1
    for _ in range(D + 1):
        new_frontier = []
        for L_w in frontier:
            for L_j in gns.generator_left_mult:
                L_new = L_w @ L_j
                v = L_new @ t
                resid = v - basis[:r].T @ (basis[:r].conj() @ v)
                grows = bool(np.linalg.norm(resid) > 1e-9 * max(1.0, np.linalg.norm(v)))
                if grows:
                    if r < D:  # the span is full at r = D
                        resid -= basis[:r].T @ (basis[:r].conj() @ resid)
                        basis[r] = resid / np.linalg.norm(resid)
                        r += 1
                    new_frontier.append(L_new)
                vecs.append(v)
                expanded.append(grows)
        if not new_frontier:
            break
        frontier = new_frontier
    return WordTree(np.array(vecs), np.array(expanded))


def _word_values(gns: GnsStructure, tree: WordTree,
                 targets: Sequence[np.ndarray]) -> np.ndarray:
    """(K, D, D) free derivatives of the words of the tree, in order.

    Replays the tree with d(w X_j) = d(w) L_j + L_w T_j; only the left
    multiplications of expanded words awaiting their children are kept.
    """
    K, D = tree.vecs.shape
    vals = np.empty((K, D, D), dtype=complex)
    vals[0] = 0.0
    parents = deque([(np.eye(D, dtype=complex), 0)])
    k = 1
    while k < K:
        L_w, w = parents.popleft()
        for L_j, T_j in zip(gns.generator_left_mult, targets):
            vals[k] = vals[w] @ L_j
            vals[k] += L_w @ T_j
            if tree.expanded[k]:
                parents.append((L_w @ L_j, k))
            k += 1
    return vals


@dataclass
class DerivationFit:
    """The least-squares fit of a prescribed derivation over the words.

    `map` is the (D*D, D) matrix of the induced linear map from L2 into HS,
    `defect` the worst residual over the evaluated words and `targets` the
    values T_j on the generators.
    """

    well_defined: bool
    defect: float
    map: np.ndarray
    targets: tuple[np.ndarray, ...]


def derivation_well_defined(gns: GnsStructure, targets: Sequence[np.ndarray]
                            ) -> DerivationFit:
    """Decide whether the derivation with values `targets` on the generators
    of gns descends to the algebra.

    Inconsistency is a result, not an error.
    """
    n = len(gns.generator_left_mult)
    if len(targets) != n:
        raise IllDefined(f"{len(targets)} target operators for {n} generators")
    targets = tuple(np.asarray(t, dtype=complex) for t in targets)
    return _fit(gns, enumerate_words(gns), targets)


def _fit(gns: GnsStructure, tree: WordTree,
         targets: tuple[np.ndarray, ...]) -> DerivationFit:
    """The least-squares fit of the derivation over the words of the tree."""
    vecs = tree.vecs
    vals = _word_values(gns, tree, targets)
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
    return DerivationFit(defect <= WELLDEF_TOL, defect, dhat, targets)


def _xi(gns: GnsStructure, dhat: np.ndarray) -> np.ndarray:
    """xi_m = <dhat(e_m), P1>_HS: the conjugate vector of the induced map."""
    D = gns.dim
    return np.array([np.vdot(dhat[:, m].reshape(D, D), gns.p1) for m in range(D)])


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


def fisher_report(gns: GnsStructure) -> FisherReport:
    """Sum of |xi_j|^2 over the distinguished derivations, or +inf.

    Infinite whenever some slot's derivation fails to descend (the defect
    records how decisively) or lacks a conjugate vector.
    """
    tree = enumerate_words(gns)
    slots = []
    for j in range(len(gns.generator_left_mult)):
        fit = _fit(gns, tree, fdq_targets(gns, j))
        xi_norm_sq = (float(np.linalg.norm(_xi(gns, fit.map)) ** 2)
                      if fit.well_defined else None)
        slots.append(FisherSlot(j, fit.well_defined, fit.defect, xi_norm_sq))
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

    @property
    def max_residual(self) -> float:
        return max(self.residual_Y1, self.residual_commutators,
                   self.residual_adjoint)


def construct_dual_operator(gns: GnsStructure, fit: DerivationFit
                            ) -> DualOperatorReport:
    """Build Y with Y 1 = 0, [Y, L_{X_j}] = T_j and Y* 1 = xi from a fit.

    Y acts on the cyclic vector of a polynomial by the derivative of that
    polynomial applied to the trace vector; the report verifies all three
    identities and raises ResidualTooLarge if any exceeds RESIDUAL_TOL.
    """
    if not fit.well_defined:
        raise IllDefined(
            f"derivation does not descend to the algebra (defect {fit.defect:.3e})"
        )
    D = gns.dim
    t = gns.trace_vector.astype(complex)
    Y = np.einsum("ijm,j->im", fit.map.reshape(D, D, D), t, optimize=True)
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
    if report.max_residual > RESIDUAL_TOL:
        raise ResidualTooLarge(f"dual operator residual {report.max_residual:.3e} "
                               f"exceeds {RESIDUAL_TOL:.0e}")
    return report
