"""Coefficient recurrences: zero chain, sum rules, symmetry, truncation."""

import dataclasses

import numpy as np
import pytest

import zsscatter as zs
from zsscatter.coeffs import (
    STOP_FACTOR,
    STOP_WINDOW,
    center_series,
    select_truncation_direct,
    settled_series,
)
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
    report = select_truncation_direct(table.center, p)
    assert report.chosen_N == 0


def test_sum_rule_at_center(ex1_table):
    p, table = ex1_table
    g = table.grid
    c = g.center_index
    half_right = cumulative_integral_from_right(g, p.q1)[c] / 2.0
    half_left = cumulative_integral_from_left(g, p.q1)[c] / 2.0
    report = select_truncation_direct(table.center, p)
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


def test_example4_truncation_choice(ex4_direct):
    _, sd = ex4_direct
    assert 37 <= sd.n_terms <= 57


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
    series = center_series(zs.compute_basis(p), p, table.N_max)
    assert np.array_equal(series.a, table.center.a)
    assert np.array_equal(series.b, table.center.b)
    zero = zs.evaluate(zs.PotentialSpec(preset="zero", params={}), zs.UniformGrid(10.0, 1001))
    basis = zs.compute_basis(zero)
    series = center_series(basis, zero, 20)
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


_A_SIDE = ("e", "e_prime", "eta", "eta_prime")
_B_SIDE = ("g", "g_prime", "xi", "xi_prime")


def _scaled_at(basis, names, nodes, factor):
    """A copy of ``basis`` whose arrays ``names`` are multiplied by ``factor`` at ``nodes``."""
    changed = {}
    for name in names:
        arr = getattr(basis, name).copy()
        arr[nodes] *= factor
        changed[name] = arr
    return dataclasses.replace(basis, **changed)


@pytest.fixture(scope="module", params=["sech_scaled", "zero"])
def small_case(request):
    params = {"mu": np.pi} if request.param == "sech_scaled" else {}
    p = zs.evaluate(zs.PotentialSpec(preset=request.param, params=params),
                    zs.UniformGrid(4.0, 101))
    basis = zs.compute_basis(p)
    return p, basis, zs.compute_coefficients(basis, p, 250)


def test_windowed_series_is_the_table_column(small_case):
    p, _, table = small_case
    c = p.grid.center_index
    # c - 1 and beyond clip the windows to the grid
    for N_max in (0, 1, c - 2, c - 1, c, c + 1, 250):
        series = center_series(zs.compute_basis(p, reach=N_max), p, N_max)
        assert np.array_equal(series.a, table.a[: N_max + 1, c]), N_max
        assert np.array_equal(series.b, table.b[: N_max + 1, c]), N_max


def test_series_ignores_nodes_outside_the_windows(small_case):
    p, basis, table = small_case
    c = p.grid.center_index
    for N_max in (0, 1, 5, c - 1):
        poisoned = _scaled_at(basis, _A_SIDE, slice(0, c - N_max), np.nan)
        poisoned = _scaled_at(poisoned, _B_SIDE, slice(c + N_max + 1, None), np.nan)
        series = center_series(poisoned, p, N_max)
        assert np.array_equal(series.a, table.a[: N_max + 1, c]), N_max
        assert np.array_equal(series.b, table.b[: N_max + 1, c]), N_max


def test_window_bound_is_tight():
    # a_n(0) reads the basis on nodes >= c - n: doubling it at c - N changes
    # a_N(0) but no lower order, so a window one node narrower is wrong
    p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}),
                    zs.UniformGrid(4.0, 101))
    basis = zs.compute_basis(p)
    c = p.grid.center_index
    for N in (1, 2, 3):
        ref = center_series(basis, p, N)
        a_side = center_series(_scaled_at(basis, _A_SIDE, c - N, 2.0), p, N)
        b_side = center_series(_scaled_at(basis, _B_SIDE, c + N, 2.0), p, N)
        assert np.array_equal(a_side.a[:N], ref.a[:N]) and a_side.a[N] != ref.a[N], N
        assert np.array_equal(b_side.b[:N], ref.b[:N]) and b_side.b[N] != ref.b[N], N
        assert np.array_equal(a_side.b, ref.b) and np.array_equal(b_side.a, ref.a), N


def test_short_reach_is_rejected(small_case):
    p, _, _ = small_case
    with pytest.raises(ValueError, match="reaches 9 nodes"):
        center_series(zs.compute_basis(p, reach=9), p, 10)
    with pytest.raises(ValueError, match="reaches 10 nodes"):
        zs.compute_coefficients(zs.compute_basis(p, reach=10), p, 5)
    # a reach past the centre index is the whole grid
    assert zs.compute_basis(p, reach=10**6).reach == p.grid.center_index


def _reference_stop(report):
    """The sum-rule stop read off whole eps curves, as the rule is stated: the
    first n at which, for eps_L and eps_R, the argmin over 0..n lies at least
    STOP_WINDOW orders back and the last STOP_WINDOW values stay within
    STOP_FACTOR of the minimum; the last order if there is none."""
    for n in range(report.eps_L.size):
        if all(n - np.argmin(eps[: n + 1]) >= STOP_WINDOW
               and eps[n + 1 - STOP_WINDOW: n + 1].max() <= STOP_FACTOR * eps[: n + 1].min()
               for eps in (report.eps_L, report.eps_R)):
            return n
    return report.eps_L.size - 1


@pytest.mark.parametrize("preset,params,grid,stops", [
    ("sech_scaled", {"mu": np.pi}, (15.0, 4001), True),
    ("sech_amplitude", {"mu": 2.3}, (30.0, 6001), True),
    ("sech_amplitude", {"mu": 1.2}, (30.0, 6001), True),
    ("example4", {}, (15.0, 4001), False),
])
def test_settled_series_stops_where_the_rule_says(preset, params, grid, stops):
    p = zs.evaluate(zs.PotentialSpec(preset=preset, params=params), zs.UniformGrid(*grid))
    basis = zs.compute_basis(p, reach=250)
    full = center_series(basis, p, 250)
    stop = _reference_stop(select_truncation_direct(full, p))
    assert (stop < 250) == stops
    series = settled_series(basis, p, 250)
    assert series.N_max == stop
    assert np.array_equal(series.a, full.a[: stop + 1])
    assert np.array_equal(series.b, full.b[: stop + 1])
    # below the window no stop can fire
    assert settled_series(basis, p, STOP_WINDOW - 1).N_max == STOP_WINDOW - 1


def test_direct_solve_sweeps_only_the_windows(monkeypatch):
    steps = []
    original = zs.basis.integrate_linear_ode2

    def spy(*args, **kwargs):
        w, wp = original(*args, **kwargs)
        # the nodes a sweep did not reach hold NaN
        steps.append(np.count_nonzero(~np.isnan(w)) - 1)
        return w, wp

    monkeypatch.setattr(zs.basis, "integrate_linear_ode2", spy)
    p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}),
                    zs.UniformGrid(15.0, 16001))
    n, N_max = p.grid.n_points, 250
    zs.compute_basis(p)
    assert sum(steps) == 4 * (n - 1)
    steps.clear()
    zs.solve_direct(p, rho_count=400, N_max=N_max)
    assert sum(steps) <= 2 * (n - 1) + 4 * (N_max + 1)
    # a fixed order bounds the sweeps and the recurrence
    for k in (25, 40):
        steps.clear()
        sd = zs.solve_direct(p, rho_count=400, N_max=N_max, n_terms=k)
        assert sum(steps) <= 2 * (n - 1) + 4 * (k + 1)
        assert sd.series.a.shape == sd.series.b.shape == (k + 1,)
