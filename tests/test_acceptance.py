"""Acceptance gate: every contract criterion as one pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion.  Tolerances here are the contract values and must not be
loosened; the shared session fixtures in conftest.py supply the heavy
direct solves and roundtrips.
"""

import numpy as np
import pytest

import zsscatter as zs
from zsscatter.numerics import (
    UniformGrid,
    cumulative_integral_from_left,
    cumulative_integral_from_right,
    integrate_linear_ode2,
    least_squares_solve,
    polynomial_roots,
)
from tests.conftest import MU2, MU3


# --------------------------------------------------------------------------
# Criterion 1: q = pi sech(pi x)
# --------------------------------------------------------------------------

def test_criterion1_single_eigenvalue_at_i_pi_half(ex1_direct):
    _, sd = ex1_direct
    assert sd.M == 1
    assert abs(sd.eigenvalues[0].rho - 1j * np.pi / 2.0) <= 1e-9


def test_criterion1_reflectionless_b(ex1_direct):
    _, sd = ex1_direct
    assert np.max(np.abs(sd.b_values)) <= 1e-6


def test_criterion1_roundtrip_error(ex1_roundtrip):
    _, _, _, err = ex1_roundtrip
    assert err <= 1e-5


# --------------------------------------------------------------------------
# Criterion 2: q = (5 + pi/7) sech(x)
# --------------------------------------------------------------------------

def test_criterion2_five_eigenvalues_match_closed_form(ex2_direct):
    _, sd = ex2_direct
    assert sd.M == 5
    expected = np.array([1j * (MU2 - m + 0.5) for m in range(1, 6)])
    found = np.array([ev.rho for ev in sd.eigenvalues])
    worst = max(np.min(np.abs(found - e)) for e in expected)
    assert worst <= 1e-6


def test_criterion2_b_matches_closed_form(ex2_direct):
    _, sd = ex2_direct
    closed = -np.sin(np.pi * MU2) / np.cosh(np.pi * sd.rho_grid)
    assert np.max(np.abs(sd.b_values - closed)) <= 1e-8


def test_criterion2_roundtrip_error(ex2_roundtrip):
    _, _, _, err = ex2_roundtrip
    assert err <= 0.5


# --------------------------------------------------------------------------
# Criterion 3: q = (pi/7) cosh(x)^(-pi/3) - exp(-(x-2)^2)
# --------------------------------------------------------------------------

def test_criterion3_two_eigenvalues_at_reference_values(ex3_direct):
    _, sd = ex3_direct
    assert sd.M == 2
    ref = 0.424731737929926 + 0.0340968987198153j
    found = np.array([ev.rho for ev in sd.eigenvalues])
    for target in (ref, -np.conj(ref)):
        assert np.min(np.abs(found - target)) <= 1e-6


def test_criterion3_unitarity_defect(ex3_direct):
    _, sd = ex3_direct
    assert zs.validate_scattering(sd)["unitarity_defect"] <= 1e-6


def test_criterion3_roundtrip_error(ex3_roundtrip):
    _, _, _, err = ex3_roundtrip
    assert err <= 1e-2


# --------------------------------------------------------------------------
# Criterion 4: the two-exponential single-soliton profile
# --------------------------------------------------------------------------

def test_criterion4_single_eigenvalue_at_i_sqrt2(ex4_direct):
    _, sd = ex4_direct
    assert sd.M == 1
    assert abs(sd.eigenvalues[0].rho - 1j * np.sqrt(2.0)) <= 1e-9


def test_criterion4_roundtrip_error(ex4_roundtrip):
    _, _, _, err = ex4_roundtrip
    assert err <= 1e-5


# --------------------------------------------------------------------------
# Criterion 5: property suite
# --------------------------------------------------------------------------

def test_criterion5_zero_potential_chain_exact(zero_direct):
    p, sd = zero_direct
    table = zs.compute_coefficients(zs.compute_basis(p), p, 10)
    assert np.max(np.abs(table.a)) <= 1e-12
    assert np.max(np.abs(table.b)) <= 1e-12
    assert np.max(np.abs(sd.a_values - 1.0)) <= 1e-12
    assert np.max(np.abs(sd.b_values)) <= 1e-12
    cfg = zs.InverseConfig(x_half_width=4.0, x_points=41, K=200, N=5)
    rec, _, _ = zs.solve_inverse(sd, cfg)
    assert np.max(np.abs(rec.chosen)) <= 1e-12


@pytest.mark.parametrize("fixture", ["zero_direct", "ex1_direct", "ex2_direct",
                                     "ex3_direct", "ex4_direct"])
def test_criterion5_unitarity_all_presets(fixture, request):
    _, sd = request.getfixturevalue(fixture)
    assert zs.validate_scattering(sd)["unitarity_defect"] <= 1e-6


@pytest.mark.parametrize("fixture", ["ex1_direct", "ex2_direct",
                                     "ex3_direct", "ex4_direct"])
def test_criterion5_parity_all_presets(fixture, request):
    _, sd = request.getfixturevalue(fixture)
    report = zs.validate_scattering(sd)
    assert report["a_parity_defect"] <= 1e-10
    assert report["b_parity_defect"] <= 1e-10


def test_criterion5_wronskian_constancy(ex1_full_table):
    table = ex1_full_table
    b0 = table.b[0]
    a0 = table.a[0]
    w = (1.0 + b0.real) * (1.0 + a0.real) + b0.imag * a0.imag
    assert np.max(np.abs(w - w[table.grid.center_index])) <= 1e-6


def test_criterion5_oracle_agreement(ex1_direct):
    p, sd = ex1_direct
    mask = np.abs(sd.rho_grid) <= 10.0
    rho = sd.rho_grid[mask][::20]
    a_o, b_o = zs.oracle_scatter(p, rho)
    assert np.max(np.abs(sd.a_values[mask][::20] - a_o)) <= 1e-5
    assert np.max(np.abs(sd.b_values[mask][::20] - b_o)) <= 1e-5


def test_criterion5_sum_rules_at_chosen_n(ex1_direct):
    p, sd = ex1_direct
    series = sd.series
    N = sd.n_terms
    g = p.grid
    c = g.center_index
    half_right = cumulative_integral_from_right(g, p.q1)[c] / 2.0
    half_left = cumulative_integral_from_left(g, p.q1)[c] / 2.0
    assert abs(np.sum(series.a[: N + 1]) - half_right) <= 1e-5
    assert abs(np.sum(series.b[: N + 1]) - half_left) <= 1e-5


def test_criterion5_no_spurious_eigenvalues(ex1_direct, ex2_direct,
                                            ex3_direct, ex4_direct,
                                            zero_direct):
    counts = {
        "ex1": ex1_direct[1].M,
        "ex2": ex2_direct[1].M,
        "ex3": ex3_direct[1].M,
        "ex4": ex4_direct[1].M,
        "zero": zero_direct[1].M,
    }
    assert counts == {"ex1": 1, "ex2": 5, "ex3": 2, "ex4": 1, "zero": 0}


# --------------------------------------------------------------------------
# Criterion 6: kernel suite (quadrature, ODE, roots, least squares)
# --------------------------------------------------------------------------

def test_criterion6_quadrature_cubic_exact():
    g = UniformGrid(3.0, 301)
    f = g.nodes**3 - 2.0 * g.nodes**2 + 0.5
    exact = (g.nodes**4 / 4.0 - 2.0 * g.nodes**3 / 3.0 + 0.5 * g.nodes)
    exact -= exact[0]
    assert np.max(np.abs(cumulative_integral_from_left(g, f) - exact)) <= 1e-10


def test_criterion6_ode_fourth_order():
    # w'' = 2 w with w = exp(x*sqrt(2)); halving h must shrink the error
    # by close to 2^4
    errs = []
    for n in (201, 401):
        g = UniformGrid(1.0, n)
        Q = np.full(n, 2.0)
        w, _ = integrate_linear_ode2(g, Q, 0.0, 0, np.exp(-np.sqrt(2.0)),
                                     np.sqrt(2.0) * np.exp(-np.sqrt(2.0)), 1)
        errs.append(np.max(np.abs(w - np.exp(np.sqrt(2.0) * g.nodes))))
    assert errs[0] / errs[1] >= 12.0


def test_criterion6_polynomial_roots():
    roots = polynomial_roots([6.0, -5.0, 1.0])  # (z-2)(z-3)
    assert np.min(np.abs(roots - 2.0)) <= 1e-10
    assert np.min(np.abs(roots - 3.0)) <= 1e-10


def test_criterion6_least_squares():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(40, 6))
    b = rng.normal(size=40)
    x, res, _ = least_squares_solve(A, b)
    x_ref, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.max(np.abs(x - x_ref)) <= 1e-10
    assert abs(res - np.linalg.norm(A @ x_ref - b)) <= 1e-10


# --------------------------------------------------------------------------
# Matrix-shape regressions
# --------------------------------------------------------------------------

def test_shape_regression_example1(ex1_direct):
    A, _ = zs.assemble_system(0.0, ex1_direct[1], 25)
    assert A.shape == (16004, 104)


def test_shape_regression_example2(ex2_direct):
    A, _ = zs.assemble_system(0.0, ex2_direct[1], 65)
    assert A.shape == (16020, 264)


def test_shape_regression_example3(ex3_direct):
    A, _ = zs.assemble_system(0.0, ex3_direct[1], 64)
    assert A.shape == (16008, 260)
