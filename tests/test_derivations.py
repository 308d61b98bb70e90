import json
from types import SimpleNamespace

import numpy as np
import pytest

import freedim as fd
import freedim.derivations as derivations_module
from conftest import (conjugate_variable, make_c1m2, make_c2, make_m2, random_block_algebra,
                      random_hermitian, section_algebra)
from freedim.algebra import GnsStructure, _block_ranges, _unit_map
from freedim.derivations import _word_system
from test_algebra import BITWISE_SHAPES, _bare_gns
from test_cocycles import CONFIG_DIR, WORKED, _bitwise_equal, _with_negative_zeros, _worked_algebra


def commutator_norm(Y, L):
    return float(np.linalg.norm(Y @ L - L @ Y))


def word_system_oracle(gns, Ls, targets):
    """The word enumeration as one pass per derivation: every product kept,
    and the span decided again for every set of targets."""
    from freedim.vndim import numerical_span

    D = gns.dim
    t = gns.trace_vector.astype(complex)
    vecs = [t]
    vals = [np.zeros((D, D), dtype=complex)]
    frontier = [(np.eye(D, dtype=complex), vals[0])]
    span = numerical_span(np.array([t]))
    for _ in range(D + 1):
        new_frontier = []
        for L_w, val_w in frontier:
            for L_j, T_j in zip(Ls, targets):
                L_new = L_w @ L_j
                val_new = val_w @ L_j + L_w @ T_j
                v = L_new @ t
                vecs.append(v)
                vals.append(val_new)
                resid = v - span.T @ (span.conj() @ v)
                if np.linalg.norm(resid) > 1e-9 * max(1.0, np.linalg.norm(v)):
                    span = numerical_span(np.vstack([span, v[None, :]]))
                    new_frontier.append((L_new, val_new))
        if not new_frontier:
            break
        frontier = new_frontier
    return np.array(vecs), np.array(vals)


def svd_word_tree(gns):
    """The word enumeration with the span re-decided by an SVD
    (numerical_span) after each growing word: (vecs, expanded)."""
    from freedim.vndim import numerical_span

    D = gns.dim
    t = gns.trace_vector.astype(complex)
    vecs, expanded = [t], [True]
    frontier = [np.eye(D, dtype=complex)]
    span = numerical_span(np.array([t]))
    for _ in range(D + 1):
        new_frontier = []
        for L_w in frontier:
            for L_j in gns.generator_left_mult:
                L_new = L_w @ L_j
                v = L_new @ t
                resid = v - span.T @ (span.conj() @ v)
                grows = bool(np.linalg.norm(resid) > 1e-9 * max(1.0, np.linalg.norm(v)))
                if grows:
                    span = numerical_span(np.vstack([span, v[None, :]]))
                    new_frontier.append(L_new)
                vecs.append(v)
                expanded.append(grows)
        if not new_frontier:
            break
        frontier = new_frontier
    return np.array(vecs), np.array(expanded)


def _word_tree_algebra(case):
    if isinstance(case, str):  # a shipped dual_* config
        section = json.loads((CONFIG_DIR / f"{case}.json").read_text())["algebra"]
        return section_algebra(section)
    shape, seed = case
    return random_block_algebra(shape, seed)


# the shipped dual configs, the dual-ladder shapes [6], [4, 5], [7], [8]
# and larger ones up to D = 100
WORD_TREE_CASES = ["dual_fisher", "dual_inner"] + [
    (shape, seed)
    for shape in [(4, 5), (6,), (7,), (8,), (10,), (3, 4, 4), (5, 5, 5, 5)]
    for seed in range(3)
]


def _case_id(case):
    if isinstance(case, str):
        return case
    shape, seed = case
    return "x".join(map(str, shape)) + f"-seed{seed}"


@pytest.mark.parametrize("case", WORD_TREE_CASES, ids=_case_id)
def test_word_tree_matches_svd_oracle(case):
    gns = fd.gns_structure(_word_tree_algebra(case))
    vecs, expanded = svd_word_tree(gns)
    walked, _ = _word_system(gns, fd.fdq_targets(gns, 0))
    # all n children of exactly the words the oracle expands
    assert len(walked) == 1 + len(gns.generator_left_mult) * int(expanded.sum())
    assert np.array_equal(walked, vecs)


# ---------------------------------------------------------------------------
# the word walk, one per derivation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", WORKED + ["random4x5", "random7"])
def test_word_tree_replay_matches_oracle(name):
    gns = fd.gns_structure(_worked_algebra(name))
    Ls = gns.generator_left_mult
    rng = np.random.default_rng(1)
    B = rng.standard_normal((gns.dim,) * 2) + 1j * rng.standard_normal((gns.dim,) * 2)
    for targets in [fd.inner_spec(gns, B)] + [fd.fdq_targets(gns, j)
                                              for j in range(len(Ls))]:
        vecs, vals = word_system_oracle(gns, Ls, targets)
        walked, walked_vals = _word_system(gns, targets)
        assert np.array_equal(walked, vecs)
        assert np.array_equal(walked_vals, vals)


# ---------------------------------------------------------------------------
# well-definedness
# ---------------------------------------------------------------------------

def test_inner_specs_are_well_defined(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        targets = fd.inner_spec(gns, B)
        fit = fd.derivation_well_defined(gns, targets)
        ok, defect = fit.well_defined, fit.defect
        assert ok
        assert defect <= 1e-12


def test_two_point_free_difference_quotient_obstructed(c2):
    gns = fd.gns_structure(c2)
    # oracle: X^2 = X would force P1 L_X + L_X P1 = P1, which fails
    Lx = gns.left_mults(c2.generators)[0]
    p1 = np.outer(gns.trace_vector, gns.trace_vector)
    obstruction = np.abs(p1 @ Lx + Lx @ p1 - p1).max()
    assert obstruction > 1e-2

    targets = fd.fdq_targets(gns, 0)
    fit = fd.derivation_well_defined(gns, targets)
    ok, defect = fit.well_defined, fit.defect
    assert not ok
    assert defect >= 1e-2  # decisively obstructed


def test_well_defined_map_reproduces_targets(m2):
    # the induced map sends each generator vector to its prescribed value
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(13)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    targets = fd.inner_spec(gns, B)
    fit = fd.derivation_well_defined(gns, targets)
    ok, dhat = fit.well_defined, fit.map
    assert ok
    t = gns.trace_vector.astype(complex)
    for L, T in zip(gns.left_mults(m2.generators), targets):
        xhat = L @ t
        assert np.linalg.norm((dhat @ xhat).reshape(4, 4) - T) <= 1e-10


def test_zero_targets_give_zero_map(c2):
    gns = fd.gns_structure(c2)
    targets = ([np.zeros((2, 2))])
    fit = fd.derivation_well_defined(gns, targets)
    ok, defect, dhat = fit.well_defined, fit.defect, fit.map
    assert ok
    assert defect <= 1e-14
    assert np.abs(dhat).max() <= 1e-14


# ---------------------------------------------------------------------------
# conjugate vectors
# ---------------------------------------------------------------------------

def test_conjugate_inner_hermitian_matches_conjugation_formula(m2):
    # for self-adjoint B the conjugate vector is (B - J B* J) applied to 1
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(1)
    t = gns.trace_vector.astype(complex)
    for _ in range(5):
        B = random_hermitian(rng, 4)
        targets = fd.inner_spec(gns, B)
        xi = conjugate_variable(gns, targets)
        formula = (B - B.T) @ t  # J B* J acts as the transpose matrix
        assert np.linalg.norm(xi - formula) <= 1e-10


def test_conjugate_inner_general_is_adjoint_solution(m2):
    # general B: xi solves the defining property, equivalently (B* - J B J) 1
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(2)
    t = gns.trace_vector.astype(complex)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    targets = fd.inner_spec(gns, B)
    xi = conjugate_variable(gns, targets)
    assert np.linalg.norm(xi - (B.conj().T - B.conj()) @ t) <= 1e-10


def test_conjugate_zero_target(c2):
    gns = fd.gns_structure(c2)
    targets = ([np.zeros((2, 2))])
    xi = conjugate_variable(gns, targets)
    assert np.linalg.norm(xi) <= 1e-14


def test_conjugate_not_defined_for_obstructed(c2):
    gns = fd.gns_structure(c2)
    targets = fd.fdq_targets(gns, 0)
    assert conjugate_variable(gns, targets) is None


def test_defining_property_on_word_vectors(m2):
    # <xi, Q 1> = <P1, dT(Q)>_HS checked against an independent word list
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(3)
    B = random_hermitian(rng, 4)
    targets = fd.inner_spec(gns, B)
    xi = conjugate_variable(gns, targets)
    t = gns.trace_vector.astype(complex)
    Ls = gns.left_mults(m2.generators)
    words = [np.eye(4, dtype=complex)]
    for L in Ls:
        words += [L, L @ L]
    words += [Ls[0] @ Ls[1], Ls[1] @ Ls[0], Ls[0] @ Ls[1] @ Ls[0]]
    for LQ in words:
        lhs = np.vdot(LQ @ t, xi)            # <xi, Q 1>
        value = B @ LQ - LQ @ B              # dT(Q) for the inner derivation
        rhs = np.vdot(value, np.outer(t, t))  # <P1, dT(Q)>_HS
        assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def test_phi_star_infinite_on_test_algebras():
    for alg in (make_c2(), make_m2(), make_c1m2()):
        assert fd.phi_star(alg) == float("inf")


def test_phi_star_defects_decisive(m2):
    rep = fd.fisher_report(fd.gns_structure(m2))
    assert rep.value == float("inf")
    for slot in rep.slots:
        assert not slot.well_defined
        assert slot.defect >= 1e-2


def test_phi_star_single_generator_always_infinite():
    # one self-adjoint generator: the minimal polynomial obstructs the slot
    alg = fd.build_algebra(
        [1, 1, 1], [1 / 3, 1 / 3, 1 / 3], [np.diag([0.0, 1.0, 2.0]).astype(complex)]
    )
    assert fd.phi_star(alg) == float("inf")


def test_phi_star_regular_representation_decisive():
    alg = fd.regular_rep_algebra(fd.symmetric_group(3))
    rep = fd.fisher_report(fd.gns_structure(alg))
    assert rep.value == float("inf")
    assert all(s.defect >= 1e-2 for s in rep.slots if not s.well_defined)
    assert any(not s.well_defined for s in rep.slots)


def _fisher_margin_algebras():
    """(id, algebra): the shipped dual configs, the perfbench dual ladder's
    shapes (D = 36, 41, 49, 64) and random block algebras."""
    for name in ("dual_fisher", "dual_inner"):
        with open(CONFIG_DIR / f"{name}.json") as fh:
            yield name, section_algebra(json.load(fh)["algebra"])
    for shape in ((6,), (4, 5), (7,), (8,)):
        yield f"ladder{shape}", random_block_algebra(shape, 0)
    for shape in ((1, 2), (2, 3), (1, 1, 2), (3,)):
        for seed in range(3):
            yield f"random{shape}-{seed}", random_block_algebra(shape, seed)


_FISHER_MARGIN = list(_fisher_margin_algebras())


@pytest.mark.parametrize("alg", [a for _, a in _FISHER_MARGIN],
                         ids=[i for i, _ in _FISHER_MARGIN])
def test_free_difference_quotient_misses_by_the_trace_bound(alg):
    # fdq_targets: P1 has trace alpha_i on the diagonal block i, every
    # commutator trace 0, so the relative residual is at least this bound
    gns = fd.gns_structure(alg)
    bound = np.sqrt(sum((a / n) ** 2 for a, n in zip(alg.trace_weights, alg.block_sizes)))
    assert bound >= 1.0 / np.sqrt(gns.dim) * (1 - 1e-12)
    for j in range(len(alg.generators)):
        residual = derivations_module._sylvester_residual(gns, fd.fdq_targets(gns, j))
        assert residual >= bound * (1 - 1e-12)


# ---------------------------------------------------------------------------
# dual operator construction
# ---------------------------------------------------------------------------

def test_dual_operator_zero_target(c2):
    gns = fd.gns_structure(c2)
    targets = ([np.zeros((2, 2))])
    rep = fd.construct_dual_operator(gns, fd.derivation_well_defined(gns, targets))
    assert np.abs(rep.Y).max() <= 1e-14
    assert max(rep.residual_Y1, rep.residual_commutators, rep.residual_adjoint) <= 1e-14


def test_dual_operator_recovers_b_when_b_kills_trace_vector(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(4)
    t = gns.trace_vector.astype(complex)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    B = B - np.outer(B @ t, t.conj())  # now B annihilates the trace vector
    assert np.linalg.norm(B @ t) <= 1e-12
    targets = fd.inner_spec(gns, B)
    rep = fd.construct_dual_operator(gns, fd.derivation_well_defined(gns, targets))
    assert np.linalg.norm(rep.Y - B) <= 1e-10


def test_dual_operator_general_inner(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(5)
    Ls = gns.left_mults(m2.generators)
    for _ in range(5):
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        targets = fd.inner_spec(gns, B)
        rep = fd.construct_dual_operator(gns, fd.derivation_well_defined(gns, targets))
        assert max(rep.residual_Y1, rep.residual_commutators, rep.residual_adjoint) <= 1e-9
        # Y - B commutes with every left multiplication (rank-one correction)
        for L in Ls:
            assert commutator_norm(rep.Y - B, L) <= 1e-9


def test_dual_operator_round_trip(c1m2):
    # any Y0 with Y0 1 = 0 is recovered up to the commutant
    gns = fd.gns_structure(c1m2)
    rng = np.random.default_rng(6)
    t = gns.trace_vector.astype(complex)
    D = gns.dim
    Ls = gns.left_mults(c1m2.generators)
    for _ in range(5):
        Y0 = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        Y0 = Y0 - np.outer(Y0 @ t, t.conj())
        targets = ([Y0 @ L - L @ Y0 for L in Ls])
        rep = fd.construct_dual_operator(gns, fd.derivation_well_defined(gns, targets))
        for L in Ls:
            assert commutator_norm(rep.Y - Y0, L) <= 1e-9


def test_dual_operator_bilinear_adjoint_identity(m2):
    # <Y Q 1, R 1> = <Q 1, Y* R 1> over all basis pairs
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(7)
    B = random_hermitian(rng, 4)
    targets = fd.inner_spec(gns, B)
    rep = fd.construct_dual_operator(gns, fd.derivation_well_defined(gns, targets))
    D = gns.dim
    for q in range(D):
        for r in range(D):
            eq = np.eye(D)[q]
            er = np.eye(D)[r]
            lhs = np.vdot(er, rep.Y @ eq)
            rhs = np.vdot(rep.Y.conj().T @ er, eq)
            assert abs(lhs - rhs) <= 1e-12


def test_dual_operator_adjoint_equals_conjugate_vector(m2):
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(8)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    targets = fd.inner_spec(gns, B)
    rep = fd.construct_dual_operator(gns, fd.derivation_well_defined(gns, targets))
    xi = conjugate_variable(gns, targets)
    assert np.linalg.norm(rep.Y.conj().T @ gns.trace_vector - xi) <= 1e-10
    assert rep.residual_adjoint <= 1e-10


def test_dual_operator_ill_defined_raises(c2):
    gns = fd.gns_structure(c2)
    targets = fd.fdq_targets(gns, 0)
    with pytest.raises(fd.IllDefined):
        fd.construct_dual_operator(gns, fd.derivation_well_defined(gns, targets))


def test_dual_operator_residual_gate(m2, monkeypatch):
    monkeypatch.setattr(derivations_module, "RESIDUAL_TOL", 1e-30)
    gns = fd.gns_structure(m2)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    targets = fd.inner_spec(gns, B)
    fit = fd.derivation_well_defined(gns, targets)
    with pytest.raises(fd.ResidualTooLarge):
        fd.construct_dual_operator(gns, fit)


def test_adjoint_commutator_sign_rule():
    # [Y*, L_X] = -[Y, L_X]* for self-adjoint X
    rng = np.random.default_rng(12)
    for _ in range(10):
        Y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        Lx = random_hermitian(rng, 6)
        lhs = Y.conj().T @ Lx - Lx @ Y.conj().T
        rhs = -(Y @ Lx - Lx @ Y).conj().T
        assert np.abs(lhs - rhs).max() <= 1e-12


# ---------------------------------------------------------------------------
# operands built without a per-call path search or np.kron, against the forms
# they replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", BITWISE_SHAPES, ids=str)
def test_dual_operator_matches_searched_einsum_bitwise(sizes, monkeypatch):
    # a random map with -0.0 entries; the gate is lifted so that Y is returned
    monkeypatch.setattr(derivations_module, "RESIDUAL_TOL", 1e300)
    gns, rng = _bare_gns(sizes, 5)
    D = gns.dim
    fit = derivations_module.DerivationFit(True, 0.0, _with_negative_zeros(rng, (D * D, D)), ())
    searched = np.einsum("ijm,j->im", fit.map.reshape(D, D, D),
                         gns.trace_vector.astype(complex), optimize=True)
    assert _bitwise_equal(fd.construct_dual_operator(gns, fit).Y, searched)


def _sylvester_residual_kron(gns, targets):
    """`derivations._sylvester_residual` as it was, its operators from np.kron
    one generator at a time."""
    norm = float(np.sqrt(sum(np.vdot(Tj, Tj).real for Tj in targets)))
    if norm == 0.0:
        return 0.0
    blocks = [(s, t, S, T, n, _unit_map(n))
              for (s, t), (S, T), n in _block_ranges(gns.algebra.block_sizes)]
    sq = 0.0
    for s_i, t_i, S_i, T_i, n_i, U_i in blocks:
        for s_k, t_k, S_k, T_k, n_k, U_k in blocks:
            phi = np.vstack([np.kron(np.eye(n_i), X[s_k:t_k, s_k:t_k].T)
                             - np.kron(X[s_i:t_i, s_i:t_i], np.eye(n_k))
                             for X in gns.algebra.generators])
            rhs = np.vstack([(U_i.T @ Tj[S_i:T_i, S_k:T_k] @ np.conj(U_k))
                             .reshape(n_i, n_i, n_k, n_k).transpose(0, 2, 1, 3)
                             .reshape(n_i * n_k, -1) for Tj in targets])
            z = np.linalg.lstsq(phi, rhs, rcond=None)[0]
            sq += float(np.linalg.norm(phi @ z - rhs)) ** 2
    return float(np.sqrt(sq)) / norm


@pytest.mark.parametrize("sizes", BITWISE_SHAPES, ids=str)
def test_sylvester_operands_match_kron_bitwise(sizes, monkeypatch):
    # every (operator, right-hand side) pair handed to lstsq, on generators
    # and targets with -0.0 entries
    rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
    N, D = sum(sizes), sum(n * n for n in sizes)
    # the solve reads only the blocks and the generators of the structure
    gns = GnsStructure(SimpleNamespace(block_sizes=sizes, generators=tuple(
        _with_negative_zeros(rng, (3, N, N)))), D, None, None, None)
    targets = tuple(_with_negative_zeros(rng, (3, D, D)))
    seen, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda a, b, **kw: seen.append((a, b)) or lstsq(a, b, **kw))
    relative = derivations_module._sylvester_residual(gns, targets)
    operands = seen[:]
    seen.clear()
    assert relative == _sylvester_residual_kron(gns, targets)
    assert len(operands) == len(seen) == len(sizes) ** 2
    for (phi, rhs), (phi_kron, rhs_kron) in zip(operands, seen):
        assert _bitwise_equal(phi, phi_kron) and _bitwise_equal(rhs, rhs_kron)
