"""Kernel tests: quadrature, ODE sweeps, roots, least squares, derivatives."""

import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import zsscatter as zs
from zsscatter import basis as basis_module, direct as direct_module, numerics
from zsscatter.errors import DegreeZero, NoConvergence, NonFiniteValue, RankDeficient
from zsscatter.jost import JostFactors, z_of_rho
from zsscatter.numerics import (
    CumulativeIntegrator,
    UniformGrid,
    cumulative_integral_from_left,
    cumulative_integral_from_right,
    differentiate,
    horner,
    integrate_linear_ode2,
    least_squares_solve,
    midpoint_values,
    polynomial_roots,
    qr_stage_one,
    qr_stage_two,
)


class TestUniformGrid:
    def test_basic_layout(self):
        g = UniformGrid(1.0, 5)
        assert np.allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.step == 0.5
        assert g.nodes[g.center_index] == 0.0

    def test_zero_is_exact_node(self):
        g = UniformGrid(15.0, 16001)
        assert g.nodes[g.center_index] == 0.0

    @pytest.mark.parametrize("n", [2, 4, 1, 3])
    def test_rejects_even_or_tiny_counts(self, n):
        with pytest.raises(ValueError):
            UniformGrid(1.0, n)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            UniformGrid(0.0, 5)

    @pytest.mark.parametrize("width", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_width(self, width):
        with pytest.raises(ValueError, match="finite"):
            UniformGrid(width, 5)

    def test_shape_mismatch(self):
        g = UniformGrid(1.0, 5)
        with pytest.raises(ValueError):
            g.require_same(np.zeros(4))


def _reference_cumulative(grid, f, from_right):
    """The allocating quadrature the integrator replaced, kept as a reference."""
    h = grid.step
    inc = np.empty(grid.n_points - 1, dtype=np.result_type(f.dtype, np.float64))
    inc[1:-1] = (-f[:-3] + 13.0 * f[1:-2] + 13.0 * f[2:-1] - f[3:]) * (h / 24.0)
    inc[0] = (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3]) * (h / 24.0)
    inc[-1] = (f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1]) * (h / 24.0)
    out = np.empty(grid.n_points, dtype=inc.dtype)
    if from_right:
        out[-1] = 0.0
        out[:-1] = np.cumsum(inc[::-1])[::-1]
    else:
        out[0] = 0.0
        np.cumsum(inc, out=out[1:])
    return out


class TestCumulativeIntegrals:
    @pytest.mark.parametrize("n", [5, 7, 2001])
    def test_matches_allocating_reference_bit_for_bit(self, n):
        g = UniformGrid(3.0, n)
        rng = np.random.default_rng(n)
        samples = [rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n),
                   rng.integers(-5, 5, size=n)]
        quad = CumulativeIntegrator(g.n_points, g.step)
        out = np.empty(n, dtype=complex)
        for f in samples:
            for from_right, func in ((False, cumulative_integral_from_left),
                                     (True, cumulative_integral_from_right)):
                ref = _reference_cumulative(g, f, from_right)
                got = func(g, f)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
                # one integrator reused across calls, as the recurrence does
                method = quad.from_right if from_right else quad.from_left
                assert np.array_equal(method(f, out), ref)

    @pytest.mark.parametrize("start", [1, 4, 1000])
    def test_node_run_matches_whole_grid_past_its_first_interval(self, start):
        # on the nodes start..n-1 only the first subinterval takes the
        # one-sided cubic; every later cumulative integral is the same
        g = UniformGrid(3.0, 2001)
        f = np.random.default_rng(start).normal(size=g.n_points) * (1.0 + 0.5j)
        quad = CumulativeIntegrator(g.n_points - start, g.step)
        run = quad.from_right(f[start:], np.empty(g.n_points - start, dtype=complex))
        whole = cumulative_integral_from_right(g, f)
        assert np.array_equal(run[1:], whole[start + 1:])
        quad = CumulativeIntegrator(start + 4, g.step)
        run = quad.from_left(f[: start + 4], np.empty(start + 4, dtype=complex))
        assert np.array_equal(run[:-1], cumulative_integral_from_left(g, f)[: start + 3])

    def test_constant_from_left(self):
        g = UniformGrid(1.0, 5)
        F = cumulative_integral_from_left(g, np.ones(5))
        assert np.allclose(F, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_zero_integrand(self):
        g = UniformGrid(1.0, 5)
        assert np.all(cumulative_integral_from_left(g, np.zeros(5)) == 0.0)
        assert np.all(cumulative_integral_from_right(g, np.zeros(5)) == 0.0)

    def test_odd_integrand_cancels(self):
        g = UniformGrid(1.0, 5)
        F = cumulative_integral_from_left(g, g.nodes.copy())
        assert abs(F[-1]) < 1e-12

    def test_constant_from_right(self):
        g = UniformGrid(1.0, 5)
        F = cumulative_integral_from_right(g, np.ones(5))
        assert abs(F[0] - 2.0) < 1e-14
        assert F[-1] == 0.0

    def test_exponential_from_right(self):
        g = UniformGrid(1.0, 2001)
        F = cumulative_integral_from_right(g, np.exp(g.nodes))
        exact = np.e - np.exp(g.nodes)
        assert np.max(np.abs(F - exact)) < 1e-8

    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_cubic_exactness(self, coeffs):
        g = UniformGrid(1.3, 11)
        poly = np.polynomial.Polynomial(coeffs)
        F = cumulative_integral_from_left(g, poly(g.nodes))
        anti = poly.integ()
        exact = anti(g.nodes) - anti(g.nodes[0])
        assert np.max(np.abs(F - exact)) < 1e-12

    @given(st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_direction_consistency(self, samples):
        g = UniformGrid(1.0, 7)
        f = np.asarray(samples)
        left = cumulative_integral_from_left(g, f)
        right = cumulative_integral_from_right(g, f)
        assert abs(left[-1] - right[0]) < 1e-12


class TestOdeIntegration:
    def test_constant_solution_with_drift(self):
        g = UniformGrid(2.0, 101)
        w, wp = integrate_linear_ode2(g, np.zeros(101), drift=-1.0,
                                      start_index=100, start_value=1.0,
                                      start_slope=0.0, direction=-1)
        assert np.max(np.abs(w - 1.0)) < 1e-12
        assert np.max(np.abs(wp)) < 1e-12

    def test_linear_solution(self):
        g = UniformGrid(2.0, 101)
        c = g.center_index
        w, wp = integrate_linear_ode2(g, np.zeros(101), drift=0.0,
                                      start_index=c, start_value=0.0,
                                      start_slope=1.0, direction=1)
        assert np.max(np.abs(w[c:] - g.nodes[c:])) < 1e-12

    def test_constant_q_closed_form(self):
        # w'' = 4w with w(-1)=1, w'(-1)=0 has solution cosh(2(x+1))
        g = UniformGrid(1.0, 2001)
        w, wp = integrate_linear_ode2(g, np.full(2001, 4.0), drift=0.0,
                                      start_index=0, start_value=1.0,
                                      start_slope=0.0, direction=1)
        exact = np.cosh(2.0 * (g.nodes + 1.0))
        assert np.max(np.abs(w - exact)) < 1e-8

    def test_fourth_order_convergence(self):
        # halving h should shrink the error by a factor >= 12
        def max_err(n):
            g = UniformGrid(1.0, n)
            w, _ = integrate_linear_ode2(g, np.full(n, 4.0), drift=0.0,
                                         start_index=0, start_value=1.0,
                                         start_slope=0.0, direction=1)
            return np.max(np.abs(w - np.cosh(2.0 * (g.nodes + 1.0))))

        assert max_err(101) / max_err(201) >= 12.0

    @pytest.mark.parametrize("direction,start,stop", [(1, 0, 60), (-1, 100, 30), (1, 50, 50)])
    def test_stop_index_ends_the_sweep(self, direction, start, stop):
        g = UniformGrid(1.0, 101)
        Q = 4.0 + np.sin(g.nodes)
        args = (g, Q, 0.3, start, 1.0, 0.5, direction)
        w_full, wp_full = integrate_linear_ode2(*args)
        w, wp = integrate_linear_ode2(*args, stop_index=stop)
        swept = slice(min(start, stop), max(start, stop) + 1)
        assert np.array_equal(w[swept], w_full[swept])
        assert np.array_equal(wp[swept], wp_full[swept])
        rest = np.ones(101, dtype=bool)
        rest[swept] = False
        assert np.all(np.isnan(w[rest])) and np.all(np.isnan(wp[rest]))

    @pytest.mark.parametrize("lo,hi", [(0, 100), (0, 1), (99, 100), (1, 99), (0, 50),
                                       (50, 100), (30, 60), (2, 3)])
    def test_window_midpoints_are_the_whole_grid_bits(self, lo, hi, monkeypatch):
        # a sweep interpolates Q at its own half-steps only, with the
        # one-sided cubics at the true grid ends, the same bits as over the
        # whole grid
        g = UniformGrid(1.0, 101)
        Q = 4.0 + np.sin(3.0 * g.nodes) + 1j * np.cos(g.nodes)
        assert np.array_equal(numerics._midpoints(Q, lo, hi), midpoint_values(g, Q)[lo:hi])
        windows = []

        midpoints = numerics._midpoints

        def spy(f, a, b):
            windows.append((a, b))
            return midpoints(f, a, b)

        monkeypatch.setattr(numerics, "_midpoints", spy)
        integrate_linear_ode2(g, Q, 0.3, hi, 1.0, 0.5, -1, lo)
        integrate_linear_ode2(g, Q, 0.3, lo, 1.0, 0.5, +1, hi)
        assert windows == [(lo, hi), (lo, hi)]

    def test_stop_index_behind_start_rejected(self):
        g = UniformGrid(1.0, 11)
        with pytest.raises(ValueError):
            integrate_linear_ode2(g, np.zeros(11), drift=0.0, start_index=5,
                                  start_value=1.0, start_slope=0.0, direction=1,
                                  stop_index=4)

    def test_overflow_beyond_stop_index_is_not_reached(self):
        g = UniformGrid(1.0, 101)
        Q = np.where(g.nodes > 0.5, 1e8, 1.0)
        w, _ = integrate_linear_ode2(g, Q, drift=0.0, start_index=0, start_value=1.0,
                                     start_slope=0.0, direction=1, stop_index=70)
        assert np.all(np.isfinite(w[:71]))
        with pytest.raises(NonFiniteValue):
            integrate_linear_ode2(g, Q, drift=0.0, start_index=0, start_value=1.0,
                                  start_slope=0.0, direction=1)

    def test_overflow_raises(self):
        g = UniformGrid(1.0, 101)
        with pytest.raises(NonFiniteValue):
            integrate_linear_ode2(g, np.full(101, 1e8), drift=0.0,
                                  start_index=0, start_value=1.0,
                                  start_slope=0.0, direction=1)

    def test_bad_direction(self):
        g = UniformGrid(1.0, 5)
        with pytest.raises(ValueError):
            integrate_linear_ode2(g, np.zeros(5), drift=0.0, start_index=0,
                                  start_value=1.0, start_slope=0.0, direction=2)


def _reference_ode2(grid, Q, drift, start_index, start_value, start_slope, direction,
                    stop_index=None):
    """The scalar step-by-step loop the scan replaced, kept as a reference."""
    n = grid.n_points
    if stop_index is None:
        stop_index = n - 1 if direction == 1 else 0
    h = grid.step * direction
    Qh = midpoint_values(grid, Q)
    w = np.full(n, np.nan, dtype=complex)
    wp = np.full(n, np.nan, dtype=complex)
    u = complex(start_value)
    v = complex(start_slope)
    w[start_index] = u
    wp[start_index] = v
    for j in range(start_index, stop_index, direction):
        q0 = complex(Q[j])
        qm = complex(Qh[j]) if direction == 1 else complex(Qh[j - 1])
        q1 = complex(Q[j + direction])
        k1u = v
        k1v = q0 * u - drift * v
        u2 = u + 0.5 * h * k1u
        v2 = v + 0.5 * h * k1v
        k2u = v2
        k2v = qm * u2 - drift * v2
        u3 = u + 0.5 * h * k2u
        v3 = v + 0.5 * h * k2v
        k3u = v3
        k3v = qm * u3 - drift * v3
        u4 = u + h * k3u
        v4 = v + h * k3v
        k4u = v4
        k4v = q1 * u4 - drift * v4
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (abs(u) < 1e200 and abs(v) < 1e200):
            raise NonFiniteValue("ODE sweep overflowed or produced NaN")
        w[j + direction] = u
        wp[j + direction] = v
    return w, wp


def _exact_ode2(grid, Q, drift, start_index, start_value, start_slope, direction,
                stop_index=None):
    """The recurrence of ``_reference_ode2`` in 40-digit decimal arithmetic on
    the same float inputs (Q, its midpoint values, h and the start state),
    rounded to floats only at the end: the sweep without rounding errors."""
    n = grid.n_points
    if stop_index is None:
        stop_index = n - 1 if direction == 1 else 0
    Qh = midpoint_values(grid, Q)
    w = np.full(n, np.nan, dtype=complex)
    wp = np.full(n, np.nan, dtype=complex)

    def dec(z):
        return Decimal(float(np.real(z))), Decimal(float(np.imag(z)))

    def add(a, b):
        return a[0] + b[0], a[1] + b[1]

    def scale(s, a):
        return s * a[0], s * a[1]

    def rhs(u, v, q):  # (w', Q w - drift w')
        return v, add((q[0] * u[0] - q[1] * u[1], q[0] * u[1] + q[1] * u[0]), scale(-drift, v))

    with localcontext() as ctx:
        ctx.prec = 40
        h = Decimal(grid.step * direction)
        drift = Decimal(drift)
        u, v = dec(start_value), dec(start_slope)
        w[start_index] = start_value
        wp[start_index] = start_slope
        for j in range(start_index, stop_index, direction):
            qm = dec(Qh[j] if direction == 1 else Qh[j - 1])
            k1 = rhs(u, v, dec(Q[j]))
            k2 = rhs(add(u, scale(h / 2, k1[0])), add(v, scale(h / 2, k1[1])), qm)
            k3 = rhs(add(u, scale(h / 2, k2[0])), add(v, scale(h / 2, k2[1])), qm)
            k4 = rhs(add(u, scale(h, k3[0])), add(v, scale(h, k3[1])), dec(Q[j + direction]))
            u, v = (add(y, scale(h / 6, add(add(a, scale(2, b)), add(scale(2, c), d))))
                    for y, a, b, c, d in zip((u, v), k1, k2, k3, k4))
            w[j + direction] = complex(float(u[0]), float(u[1]))
            wp[j + direction] = complex(float(v[0]), float(v[1]))
    return w, wp


def _reference_scattering_coefficients(series, N, rho_grid):
    """a and b with the factors at conj(z) evaluated, not conjugated, kept as a reference."""
    rho = np.asarray(rho_grid, dtype=float)
    z = z_of_rho(rho.astype(complex))
    zb = np.conj(z)
    factors = JostFactors.from_series(series, N)
    Pb, Sb, Pa, Sa = factors.evaluate(z)
    _, _, Pa_c, Sa_c = factors.evaluate(zb)
    a_vals = Pb * Pa + (z + 1.0) ** 2 * Sb * Sa
    b_vals = Pa_c * (z + 1.0) * Sb - (zb + 1.0) * Sa_c * Pb
    return a_vals, b_vals


_EPS = np.finfo(float).eps


class TestDirectLayerBits:
    """The scanned sweep against exact arithmetic and the scalar loop, and
    the conjugated factors against the evaluated ones."""

    @pytest.mark.parametrize("direction,start,stop", [(1, 0, None), (-1, 100, None),
                                                      (1, 20, 70), (-1, 80, 3), (1, 50, 50)])
    def test_sweep_matches_reference_loop(self, direction, start, stop):
        # the scalar loop itself is within 3.1 eps of the exact recurrence here
        g = UniformGrid(1.0, 101)
        for Q in (4.0 + np.sin(g.nodes), np.exp(1j * g.nodes) - 0.5):
            args = (g, Q, 0.3, start, 1.0 - 0.5j, 0.5, direction, stop)
            for got, exact in zip(integrate_linear_ode2(*args), _exact_ode2(*args)):
                assert np.array_equal(np.isnan(got), np.isnan(exact))
                swept = ~np.isnan(exact)
                err = np.max(np.abs(got[swept] - exact[swept]))
                assert err <= 4 * _EPS * np.max(np.abs(exact[swept]))

    def test_long_growing_sweep_near_exact(self):
        # eta of ex1 from x = 0 to 15, 8000 steps over which it grows like e^(x/2);
        # the scalar loop's pointwise error reached 22.8 eps
        g = UniformGrid(15.0, 16001)
        p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}), g)
        c = g.center_index
        args = (g, p.q1 + 0.25, 0.0, c, 0.0, 1.0, 1)
        for got, exact in zip(integrate_linear_ode2(*args), _exact_ode2(*args)):
            rel = np.abs(got[c + 1:] - exact[c + 1:]) / np.abs(exact[c + 1:])
            assert np.max(rel) <= 8 * _EPS

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "sech_2.31", "sech_2", "zero"])
    def test_direct_solve_matches_reference_loops(self, name, request, monkeypatch):
        if name.startswith("sech_"):
            mu = float(name[len("sech_"):])
            p = zs.evaluate(zs.PotentialSpec(preset="sech_amplitude", params={"mu": mu}),
                            UniformGrid(30.0, 12001))
            sd = zs.solve_direct(p)
        else:
            p, sd = request.getfixturevalue(f"{name}_direct")
        rho_count = sd.rho_grid.size
        # the conjugated factors change no bit
        with monkeypatch.context() as m:
            m.setattr(direct_module, "scattering_coefficients", _reference_scattering_coefficients)
            ref = zs.solve_direct(p, rho_count=rho_count)
        assert sd.n_terms == ref.n_terms
        assert np.array_equal(sd.series.a, ref.series.a)
        assert np.array_equal(sd.series.b, ref.series.b)
        assert np.array_equal(sd.a_values, ref.a_values)
        assert np.array_equal(sd.b_values, ref.b_values)
        assert [ev.rho for ev in sd.eigenvalues] == [ev.rho for ev in ref.eigenvalues]
        assert np.array_equal(sd.norming_constants, ref.norming_constants)
        # the scan rounds otherwise than the scalar loop: the same data to
        # 1e-11 at the loop's order, and the same order where the sum rules
        # do not end on a flat tail (ex2, ex3 and sech_2 do)
        with monkeypatch.context() as m:
            m.setattr(basis_module, "integrate_linear_ode2", _reference_ode2)
            ref = zs.solve_direct(p, rho_count=rho_count)
        if name in ("ex1", "ex4", "sech_2.31", "zero"):
            assert sd.n_terms == ref.n_terms
        if sd.n_terms != ref.n_terms:
            sd = zs.solve_direct(p, rho_count=rho_count, n_terms=ref.n_terms)
        assert np.max(np.abs(sd.a_values - ref.a_values)) < 1e-11
        assert np.max(np.abs(sd.b_values - ref.b_values)) < 1e-11
        assert len(sd.eigenvalues) == len(ref.eigenvalues)
        for ev, ev_ref in zip(sd.eigenvalues, ref.eigenvalues):
            assert abs(ev.rho - ev_ref.rho) < 1e-11
        assert np.all(np.abs(sd.norming_constants - ref.norming_constants) < 1e-11)


class TestHorner:
    # p(z) = (1+2i) - 3z + (0.5-1j) z^2 + 2i z^3
    coeffs = np.array([1.0 + 2.0j, -3.0, 0.5 - 1.0j, 2.0j])

    @staticmethod
    def exact(z):
        p = (1.0 + 2.0j) - 3.0 * z + (0.5 - 1.0j) * z**2 + 2.0j * z**3
        dp = -3.0 + 2.0 * (0.5 - 1.0j) * z + 6.0j * z**2
        return p, dp

    def test_cubic_scalar(self):
        z = 0.5 + 0.1j
        p, dp = horner(self.coeffs, z)
        p_ref, dp_ref = self.exact(z)
        assert np.shape(p) == () and np.shape(dp) == ()
        assert abs(p - p_ref) < 1e-14
        assert abs(dp - dp_ref) < 1e-14

    def test_cubic_array(self):
        z = np.array([[0.0, 1.0, -1.0], [0.3 - 0.7j, 2.0j, -1.5 + 0.25j]])
        p, dp = horner(self.coeffs, z)
        p_ref, dp_ref = self.exact(z)
        assert p.shape == z.shape and dp.shape == z.shape
        assert np.max(np.abs(p - p_ref)) < 1e-13
        assert np.max(np.abs(dp - dp_ref)) < 1e-13


def _polish_one_root_at_a_time(c, roots):
    """Scalar reference for the Newton polish of polynomial_roots."""
    out = np.empty_like(roots)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, r in enumerate(roots):
            for _ in range(2):
                p = dp = np.complex128(0.0)
                for a in c[::-1]:
                    dp = dp * r + p
                    p = p * r + a
                if not (np.isfinite(p) and np.isfinite(dp)) or dp == 0:
                    break
                step = p / dp
                if not (np.isfinite(step) and abs(step) < 1.0):
                    continue
                trial = r - step
                p_trial = np.complex128(0.0)
                for a in c[::-1]:
                    p_trial = p_trial * trial + a
                if np.isfinite(p_trial) and abs(p_trial) <= abs(p):
                    r = trial
            out[i] = r
    return out


class TestPolynomialRoots:
    def test_polish_matches_scalar_loop(self):
        # random coefficients put the roots near the unit circle; the
        # factors with roots at |z| = 40 make Horner overflow there, where
        # the polish must leave the roots alone
        rng = np.random.default_rng(7)
        outer = 40.0 * np.exp(2j * np.pi * rng.uniform(size=4))
        c = np.convolve(rng.normal(size=200), np.polynomial.polynomial.polyfromroots(outer))
        expected = _polish_one_root_at_a_time(c.astype(complex), np.roots(c[::-1].astype(complex)))
        roots = polynomial_roots(c)
        assert roots.shape == expected.shape
        assert np.all(np.abs(roots - expected) <= 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(expected)))

    def test_quadratic(self):
        roots = sorted(polynomial_roots([-1.0, 0.0, 1.0]), key=lambda r: r.real)
        assert abs(roots[0] + 1.0) < 1e-12
        assert abs(roots[1] - 1.0) < 1e-12

    def test_triple_zero(self):
        roots = polynomial_roots([0.0, 0.0, 0.0, 1.0])
        assert roots.shape == (3,)
        assert np.max(np.abs(roots)) < 1e-8

    def test_known_factors(self):
        factors = np.array([0.3, 0.7j, -2.0])
        coeffs = np.polynomial.polynomial.polyfromroots(factors)
        roots = polynomial_roots(coeffs)
        for f in factors:
            assert np.min(np.abs(roots - f)) < 1e-10

    def test_real_coefficients_give_conjugate_pairs(self):
        factors = np.array([0.5, -1.2, 0.3 + 0.8j, 0.3 - 0.8j, -0.6 + 0.2j, -0.6 - 0.2j])
        coeffs = np.polynomial.polynomial.polyfromroots(factors).real
        roots = polynomial_roots(coeffs)
        assert roots.dtype == complex and roots.shape == (6,)
        for f in factors:
            assert np.min(np.abs(roots - f)) < 1e-12
        # the real QR iteration returns exact conjugates and exactly real roots
        assert np.count_nonzero(roots.imag == 0.0) == 2
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(np.conj(roots)))

    def test_complex_coefficients_keep_complex_roots(self):
        factors = np.array([0.3, 0.7j, -2.0, 1.0 - 0.5j])
        coeffs = np.polynomial.polynomial.polyfromroots(factors)
        assert np.iscomplexobj(coeffs)
        roots = polynomial_roots(coeffs)
        for f in factors:
            assert np.min(np.abs(roots - f)) < 1e-10
        # not closed under conjugation: -0.7j and 1 + 0.5j are not roots
        assert np.min(np.abs(roots + 0.7j)) > 0.5
        assert np.min(np.abs(roots - (1.0 + 0.5j))) > 0.5

    def test_constant_rejected(self):
        with pytest.raises(DegreeZero):
            polynomial_roots([3.0])
        with pytest.raises(DegreeZero):
            polynomial_roots([3.0, 0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_leading_coefficients_past_the_float_range_dropped(self):
        # a(z) of q = 8.5e-158 sech(2x): its roots lie past the float range,
        # and the companion matrix overflowed (NoConvergence)
        with pytest.raises(DegreeZero):
            polynomial_roots([1.0, -3.40445957e-315, -1.70222978e-315])
        assert np.array_equal(polynomial_roots([2.0, 1.0, 0.0, 1e-320]), [-2.0])
        # a NaN passes the overflow guard (np.isinf(nan) is False); it is
        # refused before np.roots can warn "overflow encountered in divide"
        for bad in ([np.nan, 1.0, 1e-320], [1.0, np.inf, 2.0], [1.0, 2.0, complex(0, np.nan)]):
            with pytest.raises(NonFiniteValue, match="finite"):
                polynomial_roots(bad)

    def test_failed_qr_iteration_raises_no_convergence(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.linalg.LinAlgError("eig algorithm did not converge")

        monkeypatch.setattr(scipy.linalg, "eigvals", no_convergence)
        with pytest.raises(NoConvergence, match="did not converge"):
            polynomial_roots([1.0, 2.0, 3.0])

    @given(st.lists(st.complex_numbers(max_magnitude=2.0), min_size=2, max_size=8))
    # a double root: p' there is rounding noise, and an unchecked Newton
    # step threw one root 0.015 away (residual 2.2e-4)
    @example(factors=[0.6057345012716051 * (1 + 1j)] * 2)
    @settings(max_examples=50, deadline=None)
    def test_residual_bound(self, factors):
        coeffs = np.polynomial.polynomial.polyfromroots(factors)
        roots = polynomial_roots(coeffs)
        scale = np.max(np.abs(coeffs))
        for r in roots:
            p = np.polynomial.polynomial.polyval(r, coeffs)
            assert abs(p) <= 1e-8 * scale * max(1.0, abs(r)) ** len(factors)

    @given(st.complex_numbers(max_magnitude=1.5))
    @settings(max_examples=30, deadline=None)
    def test_appending_a_factor(self, c):
        base = np.polynomial.polynomial.polyfromroots([0.5, -0.25 + 0.5j])
        grown = np.convolve(base, [-c, 1.0])
        roots = polynomial_roots(grown)
        assert np.min(np.abs(roots - c)) < 1e-8


def _reference_lsq(A, b, rank_tol=1e-12, on_deficient="raise"):
    """Single-stage reference: column-pivoted QR of the equilibrated A itself."""
    dtype = np.result_type(np.asarray(A).dtype, np.asarray(b).dtype, np.float64)
    A = np.asarray(A, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    col_scale = np.linalg.norm(A, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    A_s = A / col_scale
    Q, R, perm = scipy.linalg.qr(A_s, mode="economic", pivoting=True)
    diag = np.abs(np.diagonal(R))
    dmax = diag.max()
    rank = int(np.count_nonzero(diag >= rank_tol * dmax)) if dmax > 0 else 0
    if rank < A.shape[1]:
        if on_deficient == "raise" or rank == 0:
            raise RankDeficient("triangular factor has a near-zero diagonal entry")
        y = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T.conj() @ b)
        x = np.zeros(A.shape[1], dtype)
        x[perm[:rank]] = y
    else:
        y = scipy.linalg.solve_triangular(R, Q.T.conj() @ b)
        x = np.empty_like(y)
        x[perm] = y
    x /= col_scale
    residual = float(np.linalg.norm(A @ x - b))
    return x, residual, float(dmax / diag[:rank].min())


def _reference_stage_two(factor, n, rank_tol=1e-12):
    """The stage two that formed Q explicitly, kept as a reference.

    Pivots below ``rank_tol`` times the largest are dropped and their
    entries of x set to 0.  Returns (x, cond, R, perm), cond over all pivots.
    """
    Q, R, perm = scipy.linalg.qr(np.triu(factor[:n, :n]), pivoting=True)
    diag = np.abs(np.diagonal(R))
    rank = int(np.count_nonzero(diag >= rank_tol * diag.max()))
    x = np.zeros(n, factor.dtype)
    x[perm[:rank]] = scipy.linalg.solve_triangular(
        R[:rank, :rank], (Q.T.conj() @ factor[:n, -1])[:rank])
    with np.errstate(divide="ignore"):
        return x, float(diag.max() / diag.min()), R, perm


def _matvec_error_bound(A, x):
    """Rounding bound of ||A x - b|| evaluated in floating point: the
    componentwise bound n u |A| |x| of the product (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.5)."""
    return A.shape[1] * np.finfo(float).eps * np.linalg.norm(np.abs(A) @ np.abs(x))


def _spread_system(n, log_ratio, seed, extra_rows=40, dtype=float):
    """A seeded (n + extra_rows) x n system with singular values 1 .. 10^-log_ratio."""
    rng = np.random.default_rng(seed)
    m = n + extra_rows

    def normal(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    U = np.linalg.qr(normal(m, n))[0]
    V = np.linalg.qr(normal(n, n))[0]
    return (U * np.logspace(0.0, -log_ratio, n)) @ V.T.conj(), normal(m)


class TestLeastSquares:
    def test_identity(self):
        x, res, cond = least_squares_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0])
        assert res < 1e-14
        assert cond == pytest.approx(1.0)

    def test_mean_of_two_points(self):
        x, res, _ = least_squares_solve(np.ones((2, 1)), np.array([0.0, 2.0]))
        assert abs(x[0] - 1.0) < 1e-14
        assert abs(res - np.sqrt(2.0)) < 1e-12

    def test_against_normal_equations(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((40, 10))
        b = rng.standard_normal(40)
        x, _, _ = least_squares_solve(A, b)
        ref = np.linalg.solve(A.T @ A, A.T @ b)
        assert np.max(np.abs(x - ref)) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((30, 6))
        b = rng.standard_normal(30)
        x, _, _ = least_squares_solve(A, b)
        r = A @ x - b
        assert np.max(np.abs(A.T @ r)) < 1e-8 * np.linalg.norm(b)

    def test_rank_deficient_raises(self):
        # a deficient system is truncated; only one with no pivot left raises
        A = np.ones((4, 2))  # identical columns
        x, _, cond = least_squares_solve(A, np.ones(4))
        assert np.count_nonzero(x == 0.0) == 1 and cond > 1e12
        with pytest.raises(RankDeficient):
            least_squares_solve(np.zeros((4, 2)), np.ones(4))
        with pytest.raises(RankDeficient):
            qr_stage_two(qr_stage_one(np.zeros((4, 2)), np.ones(4))[0], 2)

    def test_zero_pivot_gives_infinite_condition_without_a_warning(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((10, 3))
        A[:, 1] = 0.0
        b = rng.standard_normal(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, res, cond = least_squares_solve(A, b)
        assert cond == np.inf and x[1] == 0.0
        x_ref = np.linalg.lstsq(A[:, [0, 2]], b, rcond=None)[0]
        np.testing.assert_allclose(x[[0, 2]], x_ref, rtol=1e-12, atol=0.0)
        assert res == pytest.approx(np.linalg.norm(A @ x - b), rel=1e-12)

    def test_rank_deficient_truncates_on_request(self):
        A = np.zeros((4, 3))
        A[:, 0] = [1.0, 1.0, 0.0, 0.0]
        A[:, 1] = [0.0, 0.0, 1.0, 1.0]
        A[:, 2] = A[:, 0]  # duplicate column
        b = np.array([2.0, 2.0, 4.0, 4.0])
        x, res, cond = least_squares_solve(A, b)
        assert np.count_nonzero(x == 0.0) == 1 and cond > 1e12
        assert res < 1e-12
        assert np.allclose(A @ x, b)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            least_squares_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="does not match"):
            least_squares_solve(np.ones((4, 3)), np.ones(3))

    def test_scaled_tall_system_matches_reference(self):
        rng = np.random.default_rng(400)
        A = rng.standard_normal((400, 60)) * np.logspace(-6.0, 0.0, 60)
        b = rng.standard_normal(400)
        x, res, cond = least_squares_solve(A, b)
        x_ref, res_ref, cond_ref = _reference_lsq(A, b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0.0)
        assert res == pytest.approx(res_ref, rel=1e-12)
        assert cond == pytest.approx(cond_ref, rel=1e-2)

    def test_near_rank_edge_is_the_reference_solve(self):
        # a pivot ratio between 1e9 and 1e12 is above rank_tol: the
        # two-stage solve keeps every pivot
        rng = np.random.default_rng(9)
        U = np.linalg.qr(rng.standard_normal((300, 40)))[0]
        V = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        A = (U * np.logspace(0.0, -10.5, 40)) @ V.T
        b = rng.standard_normal(300)
        x_ref, res_ref, cond_ref = _reference_lsq(A, b)
        assert 1e9 < cond_ref < 1e12
        x, res, cond = least_squares_solve(A, b)
        assert 1e9 < cond < 1e12 and np.all(x != 0.0)
        assert res == pytest.approx(res_ref, rel=1e-6)

    def test_leading_blocks_match_each_leading_system(self):
        # one stage-one factor of [A | b] serves the systems of A's leading
        # columns; equilibrated, this matrix is well conditioned
        rng = np.random.default_rng(81)
        A = rng.standard_normal((200, 24)) * np.logspace(-3.0, 2.0, 24)
        b = rng.standard_normal(200)
        factor, col_scale = qr_stage_one(A, b)
        for n in range(1, 25):
            x, cond, _ = qr_stage_two(factor, n)
            x_ref, _, cond_ref = least_squares_solve(A[:, :n], b)
            np.testing.assert_allclose(x / col_scale[:n], x_ref, rtol=1e-12, atol=0.0)
            assert cond == pytest.approx(cond_ref, rel=1e-12)

    def test_leading_block_guard_fails_past_a_near_dependent_column(self):
        rng = np.random.default_rng(82)
        A = rng.standard_normal((200, 24))
        A[:, 16] = 2.0 * A[:, 3] + 10.0**-10.5 * rng.standard_normal(200)
        b = rng.standard_normal(200)
        factor, col_scale = qr_stage_one(A, b)
        for n in range(1, 17):
            x, _, _ = qr_stage_two(factor, n)
            np.testing.assert_allclose(x / col_scale[:n], least_squares_solve(A[:, :n], b)[0],
                                       rtol=1e-12, atol=0.0)
        for n in range(17, 25):
            # the pivot ratio lies between 1e9 and the rank tolerance, so
            # every pivot is kept
            x, cond, _ = qr_stage_two(factor, n)
            assert 1e9 < cond < 1e12 and np.all(x != 0.0)
            assert 1e9 < least_squares_solve(A[:, :n], b)[2] < 1e12

    def test_factored_stage_two_matches_explicit_q(self, monkeypatch):
        # geqp3 sees the same triangle as in the explicit-Q reference, so R,
        # the pivots and the condition are the same bits, on both sides of
        # 1e9; only applying the reflectors to Q^T b moves x, at rounding
        # level
        geqp3 = numerics._pivoted_qr_raw
        raw = []

        def spy(a):
            h, tau, perm = geqp3(a)
            raw.append((np.diagonal(h).copy(), perm.copy()))
            return h, tau, perm

        monkeypatch.setattr(numerics, "_pivoted_qr_raw", spy)
        outcomes = set()
        for n in (1, 2, 3, 8, 31, 64, 127, 200, 250):
            for log_ratio in (0.0, 4.0, 8.0, 9.1, 9.5, 10.0, 10.5):
                A, b = _spread_system(n, log_ratio, seed=1000 * n + int(10 * log_ratio))
                factor, _ = qr_stage_one(A, b)
                ref = _reference_stage_two(factor, n)
                raw.clear()
                x, cond, _ = qr_stage_two(factor, n)
                assert len(raw) == 1
                diag, perm = raw[0]
                x_ref, cond_ref, R_ref, perm_ref = ref
                assert np.array_equal(diag, np.diagonal(R_ref))
                assert np.array_equal(perm, perm_ref)
                assert cond == cond_ref < 1e12
                outcomes.add(cond < 1e9)
                assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
        # both sides of the guard were taken
        assert outcomes == {True, False}

    def test_layout_of_a_does_not_change_the_bits(self):
        # near the rank edge last-bit changes of the column norms can move
        # the answer, so a real A is solved as its row-major copy and a
        # complex one as its column-major copy: any layout of A, or a gather
        # of its columns, gives the same bits
        rng = np.random.default_rng(10)
        for dtype in (float, complex):
            A, b = _spread_system(40, 10.5, seed=9, extra_rows=260, dtype=dtype)
            wide = rng.standard_normal((300, 70)).astype(dtype)
            cols = rng.permutation(70)[:40]
            wide[:, cols] = A
            x, res, cond = least_squares_solve(A, b)
            assert 1e9 < cond < 1e12
            for other in (np.ascontiguousarray(A), np.asfortranarray(A), wide[:, cols]):
                x_o, res_o, cond_o = least_squares_solve(other, b)
                assert np.array_equal(x_o, x)
                assert res_o == res
                assert cond_o == cond

    def test_geqp3_call_matches_scipy_qr(self):
        # stage two calls LAPACK geqp3 itself, with SciPy's workspace query,
        # so R, tau and the pivots are the bits of scipy.linalg.qr(mode="raw")
        rng = np.random.default_rng(250)
        for n in range(1, 251):
            for dtype in (float, complex) if n % 10 == 1 else (float,):
                tri = np.triu(rng.standard_normal((n, n)))
                if dtype is complex:
                    tri = tri + 1j * np.triu(rng.standard_normal((n, n)))
                (h_ref, tau_ref), _, perm_ref = scipy.linalg.qr(
                    tri.copy(), pivoting=True, mode="raw")
                h, tau, perm = numerics._pivoted_qr_raw(np.asfortranarray(tri))
                assert np.array_equal(h, h_ref), (n, dtype)
                assert np.array_equal(tau, tau_ref), (n, dtype)
                assert np.array_equal(perm, perm_ref), (n, dtype)

    def test_stage_one_takes_a_as_laid_out(self):
        # stage one sums the column norms in A's memory order: it does not
        # copy A into the row-major layout the solves take
        A, b = _spread_system(60, 3.0, seed=39, extra_rows=500)
        F = np.asfortranarray(A)
        assert not np.array_equal(np.sqrt(np.add.reduce(A * A, axis=0)),
                                  np.sqrt(np.add.reduce(F * F, axis=0)))
        for other in (A, F):
            _, col_scale = qr_stage_one(other, b)
            assert np.array_equal(col_scale, np.sqrt(np.add.reduce(other * other, axis=0)))

    def test_stage_one_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            qr_stage_one(np.array([[1.0], [np.nan]]), np.ones(2))
        with pytest.raises(ValueError, match="m >= n"):
            qr_stage_one(np.ones((2, 3)), np.ones(2))

    def test_square_system(self):
        rng = np.random.default_rng(30)
        A = rng.standard_normal((30, 30)) + 8.0 * np.eye(30)
        b = rng.standard_normal(30)
        x, res, cond = least_squares_solve(A, b)
        x_ref, _, cond_ref = _reference_lsq(A, b)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-14)
        assert res == 0.0
        assert cond == pytest.approx(cond_ref, rel=1e-2)

    def test_duplicate_column_truncates_like_reference(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((50, 8))
        A[:, 5] = 3.0 * A[:, 2]
        b = rng.standard_normal(50)
        x, res, cond = least_squares_solve(A, b)
        assert cond > 1e12 and np.count_nonzero(x == 0.0) == 1
        # either column of the pair may be dropped; the fit is unique
        x_ref, res_ref, _ = _reference_lsq(A, b, on_deficient="truncate")
        np.testing.assert_allclose(A @ x, A @ x_ref, rtol=1e-10, atol=0.0)
        assert res == pytest.approx(res_ref, rel=1e-10)

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, where, bad):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 4))
        b = rng.standard_normal(20)
        if where == "A":
            A[3, 1] = bad
        else:
            b[7] = bad
        with pytest.raises(ValueError):
            least_squares_solve(A, b)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_residual_from_the_factor(self, dtype):
        # the residual is the last diagonal entry of the stage-one factor of
        # [A | b], not a product with A, so it agrees with one to rounding
        for n, log_ratio, seed in ((6, 0.0, 31), (40, 4.0, 32), (120, 8.0, 33)):
            A, b = _spread_system(n, log_ratio, seed=seed, dtype=dtype)
            x, res, _ = least_squares_solve(A, b)
            assert res == pytest.approx(np.linalg.norm(A @ x - b), rel=1e-8)
        A, b = _spread_system(12, 2.0, seed=34, extra_rows=0, dtype=dtype)
        x, res, _ = least_squares_solve(A, b)
        assert res == 0.0
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_truncating_stage_two(self, dtype):
        # seeded spread systems past the rank tolerance and a duplicate column
        duplicate, _ = _spread_system(30, 2.0, seed=36, dtype=dtype)
        duplicate[:, 17] = (1.5 - 0.5j if dtype is complex else 1.5) * duplicate[:, 4]
        rng = np.random.default_rng(40)
        systems = [_spread_system(40, 14.0, seed=38, dtype=dtype),
                   _spread_system(40, 16.0, seed=39, dtype=dtype),
                   (duplicate, rng.standard_normal(70).astype(dtype))]
        dropped = []
        for A, b in systems:
            fixed = np.asfortranarray(A) if dtype is complex else A
            factor, col_scale = qr_stage_one(fixed, b)
            n = A.shape[1]
            # stage two is the explicit-Q reference on the same triangle:
            # the same pivots and rank decision, x to rounding
            x, cond, _ = qr_stage_two(factor, n)
            x_ref, cond_ref, _, _ = _reference_stage_two(factor, n)
            assert cond == cond_ref > 1e12
            assert np.array_equal(x == 0.0, x_ref == 0.0)
            assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))
            # the whole solve drops as many pivots as one pivoted QR of A
            x, res, cond = least_squares_solve(A, b)
            assert np.array_equal(x == 0.0, x_ref == 0.0)
            dropped.append(np.count_nonzero(x == 0.0))
            x_single, _, _ = _reference_lsq(fixed, b, on_deficient="truncate")
            assert dropped[-1] == np.count_nonzero(x_single == 0.0)
            # and its residual is that of the returned x, to the rounding of
            # the product that checks it
            assert abs(res - np.linalg.norm(A @ x - b)) <= 1e-8 * res + _matvec_error_bound(A, x)
        # on the duplicate column, where the fit is unique, it is the
        # reference's; which column of the pair is dropped is not
        np.testing.assert_allclose(A @ x, A @ x_single, rtol=1e-10, atol=0.0)
        assert dropped == [3, 8, 1]


class TestComplexLeastSquares:
    """The same two-stage solve in complex arithmetic (zgeqrt, zgeqp3, zunmqr)."""

    def test_against_lstsq(self):
        A, b = _spread_system(12, 3.0, seed=21, extra_rows=48, dtype=complex)
        x, res, cond = least_squares_solve(A, b)
        x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert x.dtype == complex
        np.testing.assert_allclose(x, x_ref, rtol=1e-10, atol=0.0)
        assert res == pytest.approx(np.linalg.norm(A @ x_ref - b), rel=1e-12)
        assert 1.0 <= cond < 1e5

    def test_residual_orthogonality(self):
        A, b = _spread_system(8, 2.0, seed=22, dtype=complex)
        x, _, _ = least_squares_solve(A, b)
        r = A @ x - b
        assert np.max(np.abs(A.conj().T @ r)) < 1e-12 * np.linalg.norm(b)

    def test_matches_single_stage_reference(self):
        rng = np.random.default_rng(23)
        A = (rng.standard_normal((300, 50)) + 1j * rng.standard_normal((300, 50))) \
            * np.logspace(-6.0, 0.0, 50)
        b = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        x, res, cond = least_squares_solve(A, b)
        x_ref, res_ref, cond_ref = _reference_lsq(A, b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0.0)
        assert res == pytest.approx(res_ref, rel=1e-12)
        assert cond == pytest.approx(cond_ref, rel=1e-2)

    def test_leading_blocks_match_each_leading_system(self):
        rng = np.random.default_rng(24)
        A = (rng.standard_normal((150, 20)) + 1j * rng.standard_normal((150, 20))) \
            * np.logspace(-3.0, 2.0, 20)
        b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
        factor, col_scale = qr_stage_one(A, b)
        assert factor.dtype == complex
        for n in range(1, 21):
            x, cond, _ = qr_stage_two(factor, n)
            x_ref, _, cond_ref = least_squares_solve(A[:, :n], b)
            np.testing.assert_allclose(x / col_scale[:n], x_ref, rtol=1e-12, atol=0.0)
            # equilibrated columns all have norm 1, so rounding picks among
            # near-tied pivots and the estimate moves by a few percent
            assert cond == pytest.approx(cond_ref, rel=5e-2)

    def test_real_system_in_complex_dtype(self):
        # a real system passed as complex gives the real solution
        A, b = _spread_system(10, 2.0, seed=25)
        x, res, _ = least_squares_solve(A.astype(complex), b.astype(complex))
        x_ref, res_ref, _ = least_squares_solve(A, b)
        np.testing.assert_allclose(x.real, x_ref, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(x.imag)) <= 1e-14 * np.max(np.abs(x_ref))
        assert res == pytest.approx(res_ref, rel=1e-10)

    def test_rank_deficient_truncates(self):
        rng = np.random.default_rng(28)
        A = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
        A[:, 4] = (2.0 - 1.0j) * A[:, 1]
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        x_ref, res_ref, _ = _reference_lsq(np.asfortranarray(A), b, on_deficient="truncate")
        assert np.count_nonzero(x_ref == 0.0) == 1
        x, res, cond = least_squares_solve(A, b)
        assert cond > 1e12 and np.count_nonzero(x == 0.0) == 1
        np.testing.assert_allclose(A @ x, A @ x_ref, rtol=1e-10, atol=0.0)
        assert res == pytest.approx(res_ref, rel=1e-10)

    def test_non_finite_input_rejected(self):
        A = np.ones((5, 2), dtype=complex)
        A[2, 1] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="finite"):
            qr_stage_one(A, np.ones(5))
        with pytest.raises(ValueError, match="finite"):
            least_squares_solve(np.ones((5, 2)), np.full(5, complex(np.inf, 0.0)))


class TestDifferentiate:
    def test_constant(self):
        g = UniformGrid(1.0, 11)
        assert np.max(np.abs(differentiate(g, np.full(11, 3.7)))) < 1e-12

    def test_square_exact(self):
        g = UniformGrid(2.0, 21)
        d = differentiate(g, g.nodes ** 2)
        assert np.max(np.abs(d - 2.0 * g.nodes)) < 1e-10

    def test_sine(self):
        g = UniformGrid(1.0, 2001)
        d = differentiate(g, np.sin(g.nodes))
        assert np.max(np.abs(d - np.cos(g.nodes))) < 1e-10


def _lse_system(m, n, p, seed, dtype=complex, row_spread=8.0):
    """A random least-squares problem with p equality constraints whose rows
    span 10^(+-row_spread) in scale, as the sweep's eigenvalue rows do."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if dtype is complex else x

    A, b, E, d = draw(m, n), draw(m), draw(p, n), draw(p)
    scale = 10.0 ** rng.uniform(-row_spread, row_spread, size=p)
    return A, b, E * scale[:, None], d * scale


def _gglse(A, b, E, d):
    """LAPACK ?gglse: min ||A x - b|| subject to E x = d, the reference."""
    gglse = scipy.linalg.lapack.zgglse if np.iscomplexobj(A) else scipy.linalg.lapack.dgglse
    *_, x, info = gglse(A.copy(), E.copy(), b.copy(), d.copy())
    assert info == 0
    return x


class TestConstrainedLeastSquares:
    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_gglse(self, seed, dtype):
        # x agrees with LAPACK's generalized-RQ solve within n u kappa of the
        # reduced system (kappa its pivot ratio); the constraints hold to
        # rounding relative to |E| |x| + |d|
        m, n, p = 60, 12, 1 + seed % 4
        A, b, E, d = _lse_system(m, n, p, seed, dtype)
        x_ref = _gglse(A, b, E, d)
        work = np.asfortranarray(A.copy())
        x, res, cond = numerics.constrained_least_squares(work, b, E, d)
        assert x.dtype == np.result_type(A, np.float64)
        bound = n * np.finfo(float).eps * cond
        assert np.max(np.abs(x - x_ref)) <= bound * np.max(np.abs(x_ref))
        assert res == pytest.approx(np.linalg.norm(A @ x - b), rel=1e-10)
        defect = np.abs(E @ x - d) / (np.abs(E) @ np.abs(x) + np.abs(d))
        assert defect.max() <= 1e-12

    def test_overwrites_a_only(self):
        A, b, E, d = _lse_system(30, 8, 2, 1)
        work = np.asfortranarray(A.copy())
        copies = [b.copy(), E.copy(), d.copy()]
        numerics.constrained_least_squares(work, b, E, d)
        assert not np.array_equal(work, A)
        for kept, before in zip((b, E, d), copies):
            assert np.array_equal(kept, before)

    def test_no_constraints_is_the_least_squares_solve(self):
        A, b, E, d = _lse_system(30, 8, 0, 2)
        got = numerics.constrained_least_squares(np.asfortranarray(A), b, E, d)
        want = least_squares_solve(A, b)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_reduced_solve_goes_through_the_given_solver(self):
        A, b, E, d = _lse_system(30, 8, 3, 3)
        seen = []

        def solve(A2, b2):
            seen.append(A2.shape)
            return least_squares_solve(A2, b2)

        numerics.constrained_least_squares(np.asfortranarray(A), b, E, d, solve=solve)
        assert seen == [(30, 5)]

    def test_dependent_constraints_raise(self):
        A, b, E, d = _lse_system(30, 8, 2, 4)
        twice = np.vstack([E, 1e6 * E[:1]])
        with pytest.raises(RankDeficient, match="dependent"):
            numerics.constrained_least_squares(
                np.asfortranarray(A), b, twice, np.append(d, 1e6 * d[0]))
        with pytest.raises(RankDeficient, match="9 constraints on 8 unknowns"):
            numerics.constrained_least_squares(
                np.asfortranarray(A), b, np.ones((9, 8), complex), np.ones(9, complex))

    def test_a_must_be_column_major_in_the_solve_dtype(self):
        A, b, E, d = _lse_system(30, 8, 2, 5)
        for bad in (np.ascontiguousarray(A), np.asfortranarray(A.real)):
            with pytest.raises(ValueError, match="column-major"):
                numerics.constrained_least_squares(bad, b, E, d)


def _eliminated_solve(A, b, E, d, n_lead):
    """min ||Ax - b|| subject to E x = d by direct elimination: the reduced
    system's two-stage solve, then the pivot unknowns.  Returns (x, cond)."""
    m, n = A.shape
    p = E.shape[0]
    out = np.empty((m, n - p + 1), np.result_type(A, E, np.float64), order="F")
    P, R, Gg = numerics.eliminate_constraints(A, b, E, d, n_lead, out)
    y, _, cond = least_squares_solve(out[:, :-1], out[:, -1])
    x = np.empty(n, out.dtype)
    x[R] = y
    x[P] = numerics.pivot_unknowns(Gg, y)
    return x, cond


class TestDirectElimination:
    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_gglse(self, seed, dtype):
        # the constrained minimizer of LAPACK's generalized-RQ solve, within
        # 10 n u kappa of the reduced system (the factor 10 leaves room for
        # the LU solve with E_P, on pivot columns chosen by a pivoted QR of
        # the unit-norm rows); the constraints hold to rounding relative to
        # |E| |x| + |d|
        m, n, p = 60, 12, 1 + seed % 4
        A, b, E, d = _lse_system(m, n, p, seed, dtype)
        x_ref = _gglse(A, b, E, d)
        x, cond = _eliminated_solve(A, b, E, d, n)
        assert x.dtype == np.result_type(A, np.float64)
        bound = 10.0 * n * np.finfo(float).eps * cond
        assert np.max(np.abs(x - x_ref)) <= bound * np.max(np.abs(x_ref))
        defect = np.abs(E @ x - d) / (np.abs(E) @ np.abs(x) + np.abs(d))
        assert defect.max() <= 1e-12

    def test_leading_columns_reduce_to_leading_columns(self):
        # pivots among the first n_lead columns: the problem on A's leading
        # n' columns reduces to the leading n' - p columns of the reduced system
        m, n, p, n_lead = 50, 16, 3, 6
        A, b, E, d = _lse_system(m, n, p, 7)
        out = np.empty((m, n - p + 1), complex, order="F")
        P, R, Gg = numerics.eliminate_constraints(A, b, E, d, n_lead, out)
        assert np.all(P < n_lead) and np.array_equal(R, np.setdiff1d(np.arange(n), P))
        for k in range(n_lead, n + 1):
            part = np.empty((m, k - p + 1), complex, order="F")
            P_k, R_k, Gg_k = numerics.eliminate_constraints(A[:, :k], b, E[:, :k], d, n_lead, part)
            assert np.array_equal(P_k, P) and np.array_equal(R_k, R[: k - p])
            scale = np.max(np.abs(out))
            assert np.max(np.abs(part[:, :-1] - out[:, : k - p])) <= 1e-14 * scale
            assert np.max(np.abs(part[:, -1] - out[:, -1])) <= 1e-14 * scale
            np.testing.assert_allclose(Gg_k[:, :-1], Gg[:, : k - p], rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(Gg_k[:, -1], Gg[:, -1], rtol=1e-13, atol=0.0)

    def test_inputs_are_not_overwritten(self):
        # one constraint row is column-major already: its pivoted QR must
        # work on a copy
        A, b, E, d = _lse_system(30, 8, 1, 8)
        copies = [v.copy() for v in (A, b, E, d)]
        _eliminated_solve(A, b, E, d, 8)
        for kept, before in zip((A, b, E, d), copies):
            assert np.array_equal(kept, before)

    def test_no_constraints_is_the_least_squares_solve(self):
        A, b, E, d = _lse_system(30, 8, 0, 2)
        out = np.empty((30, 9), complex, order="F")
        P, R, Gg = numerics.eliminate_constraints(A, b, E, d, 4, out)
        assert P.size == 0 and np.array_equal(R, np.arange(8)) and Gg.shape == (0, 9)
        assert np.array_equal(out[:, :-1], A) and np.array_equal(out[:, -1], b)
        assert numerics.pivot_unknowns(Gg, np.ones(8, complex)).size == 0

    def test_dependent_constraints_raise(self):
        A, b, E, d = _lse_system(30, 8, 2, 4)
        out = np.empty((30, 7), complex, order="F")
        twice = np.vstack([E, 1e6 * E[:1]])
        with pytest.raises(RankDeficient, match="dependent"):
            numerics.eliminate_constraints(A, b, twice, np.append(d, 1e6 * d[0]), 8, out[:, :6])
        with pytest.raises(RankDeficient, match="3 constraints on 2 unknowns"):
            numerics.eliminate_constraints(A, b, twice, np.append(d, d[0]), 2, out[:, :6])
        # independent rows, dependent on the leading columns
        E[:, :2] = 0.0
        with pytest.raises(RankDeficient, match="dependent"):
            numerics.eliminate_constraints(A, b, E, d, 2, out)

    def test_out_must_be_column_major(self):
        # the gemm writes the reduced system in place, which a row-major
        # out would silently lose
        A, b, E, d = _lse_system(30, 8, 2, 5)
        with pytest.raises(ValueError, match="column-major"):
            numerics.eliminate_constraints(A, b, E, d, 8, np.empty((30, 7), complex))


class TestChebyshev:
    def test_points(self):
        for n in (4, 16, 64):
            x = numerics.chebyshev_points(3.0, n)
            assert x.size == n + 1 and np.all(np.diff(x) > 0)
            assert x[0] == -3.0 and x[-1] == 3.0 and x[n // 2] == 0.0
            assert np.array_equal(x, -x[::-1])
            np.testing.assert_allclose(x, -3.0 * np.cos(np.pi * np.arange(n + 1) / n),
                                       atol=1e-15)
            # a level is every other point of the next one
            assert np.array_equal(numerics.chebyshev_points(3.0, 2 * n)[::2], x)

    def test_coefficients_of_chebyshev_polynomials(self):
        n = 16
        t = numerics.chebyshev_points(1.0, n)
        for k in (0, 3, n):
            c = numerics.chebyshev_coefficients(np.cos(k * np.arccos(t)))
            np.testing.assert_allclose(c, np.eye(n + 1)[k], atol=1e-14)
        values = np.column_stack([np.exp(t), np.sin(3 * t)])
        back = numerics.chebyshev_values(numerics.chebyshev_coefficients(values))
        assert np.max(np.abs(back - values)) <= 1e-15

    def test_derivative(self):
        half_width = 2.5
        x = numerics.chebyshev_points(half_width, 48)
        f = np.column_stack([np.exp(np.sin(x)), x ** 5])
        c = numerics.chebyshev_coefficients(f)
        d = numerics.chebyshev_values(numerics.chebyshev_derivative(c, half_width))
        assert np.max(np.abs(d[:, 0] - np.cos(x) * np.exp(np.sin(x)))) <= 1e-11
        assert np.max(np.abs(d[:, 1] - 5 * x ** 4)) <= 1e-10

    def test_standard_chop_examples_of_the_paper(self):
        # Aurentz & Trefethen, ACM TOMS 43 (2017), and Chebfun's standardChop
        k = np.arange(1, 51)
        coeffs, noise = 10.0 ** -k, np.cos(k ** 2.0)
        eps = np.finfo(float).eps
        assert numerics.standard_chop(coeffs, eps) == 18
        assert numerics.standard_chop(coeffs + 1e-16 * noise, eps) == 15
        assert numerics.standard_chop(coeffs + 1e-13 * noise, eps) == 13
        assert numerics.standard_chop(coeffs + 1e-10 * noise, eps) == 50
        assert numerics.standard_chop(coeffs + 1e-10 * noise, 1e-10) == 10
        # too short to judge, and all zero
        assert numerics.standard_chop(coeffs[:16], eps) == 16
        assert numerics.standard_chop(np.zeros(20), eps) == 1

    def test_barycentric_interpolation(self):
        x = numerics.chebyshev_points(2.0, 20)
        out = np.linspace(-2.0, 2.0, 41)
        poly = np.column_stack([out ** k for k in (0, 7, 20)])
        got = numerics.barycentric_interpolate(x, np.column_stack([x ** k for k in (0, 7, 20)]),
                                               out)
        assert np.max(np.abs(got - poly)) <= 1e-12 * np.max(np.abs(poly))
        # a point on a node takes its value exactly
        values = np.sin(x)
        at_nodes = numerics.barycentric_interpolate(x, values, x)
        assert np.array_equal(at_nodes, values)
