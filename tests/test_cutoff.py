import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freedim as fd
from conftest import random_hermitian
from freedim.cli import main
from freedim.tolerances import CLAMP_SLACK


# ---------------------------------------------------------------------------
# scalar family
# ---------------------------------------------------------------------------

def test_clamp_fixes_inner_interval():
    assert fd.CutoffFamily(1.0).f(0.5) == 0.5
    xs = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_array_equal(fd.CutoffFamily(1.0).f(xs), xs)


def test_clamp_tail_value():
    val = fd.CutoffFamily(1.0).f(10.0)
    assert abs(val - (2.0 - np.exp(-9.0))) <= 1e-15
    assert val <= 2.0  # R + 1


def test_quotient_grid_bound():
    s = np.linspace(-20.0, 20.0, 512)
    G = fd.CutoffFamily(1.0).g(s[:, None], s[None, :])
    assert np.abs(G).max() <= 1.0 + 1e-12  # 1-Lipschitz profile


@settings(max_examples=40, deadline=None)
@given(R=st.floats(min_value=0.05, max_value=50.0),
       smooth=st.booleans())
def test_family_conditions_random_scale(R, smooth):
    fam = fd.CutoffFamily(R, smooth=smooth)
    inner = np.linspace(-R, R, 41)
    np.testing.assert_array_equal(fam.f(inner), inner)  # condition 1
    wide = np.linspace(-30 * R, 30 * R, 301)
    assert np.abs(fam.f(wide)).max() <= R + 1.0 + 1e-12  # condition 2
    grid = np.linspace(-8 * R, 8 * R, 81)
    G = fam.g(grid[:, None], grid[None, :])
    assert np.abs(G).max() <= 2.0 + 1e-12  # condition 3


def _sampled_conditions(fam):
    """The three conditions on the grids the `cutoff` report once sampled at
    R = max(r_grid): 101 points of [-R, R], 201 of [-10R, 10R] and a 101 x 101
    quotient grid over [-5R, 5R]."""
    R = fam.R
    sample = np.linspace(-R, R, 101)
    inside = sample[np.abs(sample) <= R]
    axis = np.linspace(-5 * R, 5 * R, 101)
    return {
        "fixes_inner_interval": bool(np.array_equal(fam.f(inside), inside)),
        "bounded_by_R_plus_1": bool(np.abs(fam.f(np.linspace(-10 * R, 10 * R, 201))).max()
                                    <= R + 1.0 + CLAMP_SLACK),
        "quotient_bounded_by_2": bool(np.abs(fam.g(*np.meshgrid(axis, axis))).max()
                                      <= 2.0 + CLAMP_SLACK),
    }


# up to 1e300: the [-10R, 10R] grid overflows past about 1.8e307
_ADMITTED_RADII = sorted({*np.geomspace(5e-324, 1e300, 1000).tolist(),
                          5e-324, 1e-310, 1e-300, 1e-9, 1e-8, 0.5, 1.0, 8.0, 1e6, 1e7,
                          1e300})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("smooth", [False, True], ids=["default", "smooth"])
def test_family_conditions_at_every_admitted_radius(smooth):
    # the `cutoff` report states these conditions; CutoffFamily proves them
    for R in _ADMITTED_RADII:
        conditions = _sampled_conditions(fd.CutoffFamily(R, smooth=smooth))
        assert all(conditions.values()), (R, conditions)


def test_smooth_profile_is_continuous_at_the_knee():
    fam = fd.CutoffFamily(1.0, smooth=True)
    eps = np.array([1e-9, 1e-7, 1e-5])
    np.testing.assert_allclose(fam.f(1.0 + eps), 1.0 + eps, atol=1e-10)
    np.testing.assert_allclose(fam.fprime(1.0 + eps), 1.0, atol=1e-4)


def test_quotient_diagonal_uses_derivative():
    fam = fd.CutoffFamily(2.0)
    assert fam.g(0.5, 0.5) == 1.0
    assert abs(fam.g(3.0, 3.0) - np.exp(2.0 - 3.0)) <= 1e-12
    # near-diagonal switch
    assert abs(fam.g(3.0, 3.0 + 1e-10) - np.exp(-1.0)) <= 1e-8


# ---------------------------------------------------------------------------
# matrix clamp
# ---------------------------------------------------------------------------

def test_apply_cutoff_identity_inside_radius():
    rng = np.random.default_rng(0)
    A = random_hermitian(rng, 6)
    R = float(np.abs(np.linalg.eigvalsh(A)).max())
    out = fd.apply_cutoff(A, R + 0.5)
    np.testing.assert_array_equal(out, A)  # bitwise: clamp is exact inside


def test_apply_cutoff_scalar_evaluation():
    R = 1.5
    A = np.diag([0.0, 3 * R]).astype(complex)
    out = fd.apply_cutoff(A, R)
    expected = np.diag([0.0, R + 1.0 - np.exp(-2.0 * R)])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_apply_cutoff_zero():
    out = fd.apply_cutoff(np.zeros((4, 4)), 2.0)
    np.testing.assert_array_equal(out, np.zeros((4, 4)))


def test_apply_cutoff_rejects_non_self_adjoint():
    with pytest.raises(fd.NotSelfAdjoint):
        fd.apply_cutoff(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


# ---------------------------------------------------------------------------
# the commutator identity
# ---------------------------------------------------------------------------

def test_commutator_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        A = random_hermitian(rng, 8)
        X = random_hermitian(rng, 8)
        assert fd.commutator_identity_check(A, X, 2.0) <= 1e-9


def test_commutator_identity_cubic_polynomial():
    rng = np.random.default_rng(2)
    A = random_hermitian(rng, 6)
    X = random_hermitian(rng, 6)
    fam = SimpleNamespace(f=lambda x: x**3, g=lambda s, t: s * s + s * t + t * t)
    assert fd.commutator_identity_check(A, X, fam) <= 1e-9


@pytest.mark.parametrize("scale", [np.int64(2), np.float32(2.0), Fraction(3, 2), 2, 2.0],
                         ids=["int64", "float32", "Fraction", "int", "float"])
def test_commutator_identity_accepts_any_real_scale(scale):
    rng = np.random.default_rng(7)
    A, X = random_hermitian(rng, 6), random_hermitian(rng, 6)
    want = fd.commutator_identity_check(A, X, fd.CutoffFamily(float(scale)))
    assert fd.commutator_identity_check(A, X, scale) == want


def test_commutator_identity_degenerate_spectrum():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((6, 6))
                     + 1j * rng.standard_normal((6, 6)))[0]
    lam = np.array([1.0, 1.0, 2.0, 2.0, 2.0, -3.0])
    A = (Q * lam) @ Q.conj().T
    X = random_hermitian(rng, 6)
    assert fd.commutator_identity_check(A, X, 1.5) <= 1e-9


# ---------------------------------------------------------------------------
# the convergence sweep
# ---------------------------------------------------------------------------

def _with_radius(rng, d, rho):
    lam = rng.uniform(-rho, rho, size=d)
    lam[0] = rho
    lam[1] = -rho if d > 1 else rho
    Q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return (Q * lam) @ Q.conj().T


def test_sweep_zero_beyond_spectral_radius():
    rng = np.random.default_rng(4)
    A = _with_radius(rng, 8, 5.0)
    X = [random_hermitian(rng, 8)]
    rows = fd.convergence_sweep(A, X, list(range(1, 9)))
    for R, err in rows:
        if R >= 5.0:
            assert err <= 1e-10
        else:
            assert err > 1e-6


def test_sweep_zero_input():
    rows = fd.convergence_sweep(np.zeros((4, 4)), [np.eye(4)], [1.0, 2.0])
    assert all(err == 0.0 for _, err in rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("smooth", [False, True], ids=["default", "smooth"])
def test_sweep_at_the_largest_radius(smooth):
    # R + 1 rounds to R and R - |lam| stays finite, so nothing overflows
    rng = np.random.default_rng(4)
    A = _with_radius(rng, 8, 5.0)
    X = [random_hermitian(rng, 8)]
    grid = [1.0, 8.0, 1e300, sys.float_info.max]
    rows = fd.convergence_sweep(A, X, grid, smooth=smooth)
    radius = fd.spectral_radius(A)
    assert [R for R, _ in rows] == grid
    assert rows[0][1] > 0.0
    assert all(err == 0.0 for R, err in rows if R >= radius)


def test_sweep_threshold_scales_with_dilation():
    rng = np.random.default_rng(5)
    A = _with_radius(rng, 6, 2.0)
    X = [random_hermitian(rng, 6)]
    grid = [0.5 * k for k in range(1, 13)]

    def first_zero(rows):
        return min(R for R, err in rows if err <= 1e-10)

    base = first_zero(fd.convergence_sweep(A, X, grid))
    doubled = first_zero(fd.convergence_sweep(2.0 * A, X, [2 * r for r in grid]))
    assert abs(doubled - 2.0 * base) <= 1e-9


def test_sweep_errors_non_increasing():
    rng = np.random.default_rng(6)
    A = _with_radius(rng, 7, 4.0)
    X = [random_hermitian(rng, 7), random_hermitian(rng, 7)]
    grid = np.linspace(0.25, 6.0, 24)
    rows = fd.convergence_sweep(A, X, grid)
    errs = [e for _, e in rows]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def _sweep_by_apply_cutoff(A, X_tuple, R_grid, smooth=False):
    """`convergence_sweep` as it was: one `apply_cutoff`, so one validation
    and one eigendecomposition of A, per radius."""
    A = np.asarray(A, dtype=complex)
    Xs = [np.asarray(X, dtype=complex) for X in X_tuple]
    T = [A @ X - X @ A for X in Xs]
    out = []
    for R in R_grid:
        AR = fd.apply_cutoff(A, float(R), smooth=smooth)
        err_sq = 0.0
        for X, Tj in zip(Xs, T):
            diff = AR @ X - X @ AR - Tj
            err_sq += float(np.linalg.norm(diff) ** 2)
        out.append((float(R), float(np.sqrt(err_sq))))
    return out


def _explicit_pair():
    # a fixed pair whose spectrum the grid straddles
    A = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, 0.5]])
    return A, [np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 1.0]])]


@pytest.mark.parametrize("smooth", [False, True], ids=["default", "smooth"])
@pytest.mark.parametrize("case", ["random", "explicit"])
def test_sweep_matches_per_radius_cutoff_bitwise(case, smooth):
    if case == "random":
        rng = np.random.default_rng(8)
        A, X = random_hermitian(rng, 8), [random_hermitian(rng, 8) for _ in range(2)]
        grid = list(range(1, 9))
    else:
        (A, X), grid = _explicit_pair(), [0.5, 1.0, 2.5, 3.5, 4.0]
    got = fd.convergence_sweep(A, X, grid, smooth=smooth)
    want = _sweep_by_apply_cutoff(A, X, grid, smooth=smooth)
    assert [(R, e.hex()) for R, e in got] == [(R, e.hex()) for R, e in want]


@pytest.mark.filterwarnings("error")
def test_smooth_clamp_at_subnormal_radius_runs_without_overflow_warning(tmp_path, capsys):
    # exp(-1/u) at a subnormal excess u: -1/u overflows to -inf and exp gives
    # the exact 0, which numpy used to report on stderr
    A, X = np.diag([2e-310, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    rows = fd.convergence_sweep(A, [X], [1e-310], smooth=True)
    assert rows[0][0] == 1e-310 and rows[0][1] > 0.0
    pairs = [[[[float(x), 0.0] for x in row] for row in M] for M in (A, X)]
    config = tmp_path / "cutoff.json"
    config.write_text(json.dumps({"scenario": "cutoff", "parameters": {
        "r_grid": [1e-310], "smooth": True, "A": pairs[0], "X": [pairs[1]]}}))
    assert main(["cutoff", "--config", str(config)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["sweep"] == [{"R": 1e-310, "hs_error": rows[0][1]}]
    assert err.startswith("freedim cutoff: completed in ") and len(err.splitlines()) == 1


def test_sweep_diagonalizes_once(monkeypatch, capsys):
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape)
                        or eigh(a, *args, **kw))
    config = Path(__file__).resolve().parents[1] / "configs" / "cutoff_sweep.json"
    assert main(["cutoff", "--config", str(config)]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["sweep"]) == 8
    assert calls == [(8, 8)]
