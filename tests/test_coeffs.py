"""Coefficient recurrences: zero chain, sum rules, symmetry, truncation."""

import dataclasses

import numpy as np
import pytest

import zsscatter as zs
from zsscatter.errors import NonFiniteValue
from zsscatter.numerics import cumulative_integral_from_left, cumulative_integral_from_right


@pytest.fixture(scope="module")
def ex1_table():
    p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}),
                    zs.UniformGrid(15.0, 8001))
    basis = zs.compute_basis(p)
    return p, zs.compute_coefficients(basis, p, 80)


def test_zero_potential_annihilation():
    p = zs.evaluate(zs.PotentialSpec(preset="zero", params={}),
                    zs.UniformGrid(10.0, 1001))
    table = zs.compute_coefficients(zs.compute_basis(p), p, 20)
    assert np.max(np.abs(table.a)) < 1e-10
    assert np.max(np.abs(table.b)) < 1e-10
    report = zs.select_truncation_direct(table.center, p)
    assert report.chosen_N == 0
    assert zs.tail_estimate(table, 5, table.grid.center_index) < 1e-10


def test_sum_rule_at_center(ex1_table):
    p, table = ex1_table
    g = table.grid
    c = g.center_index
    half_right = cumulative_integral_from_right(g, p.q1)[c] / 2.0
    half_left = cumulative_integral_from_left(g, p.q1)[c] / 2.0
    report = zs.select_truncation_direct(table.center, p)
    N = report.chosen_N
    gap_a = abs(np.sum(table.a[: N + 1, c]) - half_right)
    gap_b = abs(np.sum(table.b[: N + 1, c]) - half_left)
    assert gap_a < 1e-6
    assert gap_b < 1e-6


def test_sum_rule_off_center(ex1_table):
    p, table = ex1_table
    g = table.grid
    right = cumulative_integral_from_right(g, p.q1) / 2.0
    for x_target in (-g.half_width / 2.0, 0.0, g.half_width / 2.0):
        j = int(np.argmin(np.abs(g.nodes - x_target)))
        gap = abs(np.sum(table.a[:, j]) - right[j])
        assert gap < 1e-5


def test_conjugate_potential_conjugates_coefficients(ex1_table):
    p, table = ex1_table
    p_conj = dataclasses.replace(p, q1=p.q2, q2=p.q1)
    table_conj = zs.compute_coefficients(zs.compute_basis(p_conj), p_conj, 20)
    assert np.max(np.abs(table_conj.a[:21] - np.conj(table.a[:21]))) < 1e-8
    assert np.max(np.abs(table_conj.b[:21] - np.conj(table.b[:21]))) < 1e-8


def test_translation_covariance():
    # shifting the potential by a grid multiple shifts a0 and b0
    g = zs.UniformGrid(15.0, 4001)
    h = g.step
    shift_steps = 160
    delta = shift_steps * h

    def build(offset):
        q = np.pi / np.cosh(np.pi * (g.nodes - offset))
        qp = -np.pi ** 2 * np.tanh(np.pi * (g.nodes - offset)) * q
        q1 = -1j * qp - q ** 2
        base = zs.evaluate(zs.PotentialSpec(preset="zero", params={}), g)
        return dataclasses.replace(base, q=q, q_prime=qp, q1=q1, q2=np.conj(q1))

    t0 = zs.compute_coefficients(zs.compute_basis(build(0.0)), build(0.0), 0)
    t1 = zs.compute_coefficients(zs.compute_basis(build(delta)), build(delta), 0)
    inner = slice(shift_steps + 200, g.n_points - 200)
    shifted = np.roll(t0.a[0], shift_steps)
    assert np.max(np.abs(t1.a[0][inner] - shifted[inner])) < 1e-6
    shifted_b = np.roll(t0.b[0], shift_steps)
    assert np.max(np.abs(t1.b[0][inner] - shifted_b[inner])) < 1e-6


def test_parseval_partial_sums_settle(ex1_table):
    _, table = ex1_table
    c = table.grid.center_index
    partial = np.cumsum(np.abs(table.a[:, c]) ** 2)
    assert partial[-1] - partial[-10] < 1e-8


def test_tail_estimate_decreases(ex1_table):
    _, table = ex1_table
    c = table.grid.center_index
    tails = [zs.tail_estimate(table, N, c) for N in (10, 20, 40, 60)]
    assert all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))
    assert zs.tail_estimate(table, table.N_max, c) == 0.0


def test_example4_truncation_choice(ex4_direct):
    _, sd = ex4_direct
    assert 37 <= sd.meta["n_terms"] <= 57


def _reference_table(basis, p, N_max):
    """The recurrence as whole-array expressions, one new array per step.

    The streamed loop updates its arrays in place; it must perform the same
    operations in the same order, so its table matches this one bit for bit.
    """
    grid = p.grid
    exp_half = np.exp(grid.nodes / 2.0)
    e, g, eta, xi = basis.e, basis.g, basis.eta, basis.xi
    a = np.empty((N_max + 1, grid.n_points), dtype=complex)
    b = np.empty_like(a)
    a[0] = e * exp_half - 1.0
    b[0] = g / exp_half - 1.0
    w_e = (basis.e_prime - 0.5 * e) / exp_half
    w_eta = (basis.eta_prime - 0.5 * eta) / exp_half
    w_g = (basis.g_prime + 0.5 * g) * exp_half
    w_xi = (basis.xi_prime + 0.5 * xi) * exp_half
    J1 = J2 = I1 = I2 = np.zeros(grid.n_points, dtype=complex)
    for n in range(1, N_max + 1):
        ap, bp = a[n - 1], b[n - 1]
        J1 = J1 - e / exp_half * ap - cumulative_integral_from_right(grid, w_e * ap)
        J2 = J2 - eta / exp_half * ap - cumulative_integral_from_right(grid, w_eta * ap)
        I1 = I1 + g * exp_half * bp - cumulative_integral_from_left(grid, w_g * bp)
        I2 = I2 + xi * exp_half * bp - cumulative_integral_from_left(grid, w_xi * bp)
        a[n] = a[0] - 2.0 * exp_half * (eta * J1 - e * J2)
        b[n] = b[0] + 2.0 * (xi * I1 - g * I2) / exp_half
    return a, b


def test_table_matches_expression_reference(ex1_table):
    p, table = ex1_table
    a, b = _reference_table(zs.compute_basis(p), p, table.N_max)
    assert np.array_equal(table.a, a)
    assert np.array_equal(table.b, b)


def test_center_series_is_the_table_column(ex1_table):
    p, table = ex1_table
    series = zs.center_series(zs.compute_basis(p), p, table.N_max)
    assert np.array_equal(series.a, table.center.a)
    assert np.array_equal(series.b, table.center.b)
    zero = zs.evaluate(zs.PotentialSpec(preset="zero", params={}), zs.UniformGrid(10.0, 1001))
    basis = zs.compute_basis(zero)
    series = zs.center_series(basis, zero, 20)
    table = zs.compute_coefficients(basis, zero, 20)
    assert series.N_max == 20
    assert np.array_equal(series.a, table.center.a)
    assert np.array_equal(series.b, table.center.b)


def test_recurrence_overflow_raises():
    # a large amplitude on a coarse grid drives the recurrence to inf
    p = zs.evaluate(zs.PotentialSpec(preset="sech_amplitude", params={"mu": 20.0}),
                    zs.UniformGrid(30.0, 301))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue, match="recurrence overflowed"):
            zs.compute_coefficients(zs.compute_basis(p), p)
        with pytest.raises(NonFiniteValue, match="recurrence overflowed"):
            zs.solve_direct(p, rho_count=200)
