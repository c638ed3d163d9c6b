"""Inverse problem: system assembly, sweeps, N selection, recovery."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import zsscatter as zs
from zsscatter.direct import Eigenvalue, ScatteringData
from zsscatter.errors import DenominatorNearZero, MissingSpectrumData
from zsscatter import inverse
from zsscatter.inverse import RecoveredCoefficients
from test_numerics import _reference_lsq


def _trivial_data(n_rho=400):
    rho = np.linspace(-30.0, 30.0, n_rho)
    return ScatteringData(
        rho_grid=rho,
        a_values=np.ones(n_rho, dtype=complex),
        b_values=np.zeros(n_rho, dtype=complex),
        eigenvalues=(),
        norming_constants=np.zeros(0, dtype=complex),
        meta={},
    )


class TestAssembly:
    def test_trivial_rhs_is_zero(self):
        A, B = zs.assemble_system(0.7, _trivial_data(), 8)
        assert A.shape == (4 * 400, 4 * 9)
        assert np.max(np.abs(B)) == 0.0

    def test_example1_shape(self, ex1_direct):
        _, sd = ex1_direct
        A, B = zs.assemble_system(0.0, sd, 25)
        assert A.shape == (16004, 104)
        assert B.shape == (16004,)

    def test_example2_shape(self, ex2_direct):
        _, sd = ex2_direct
        A, B = zs.assemble_system(0.0, sd, 65)
        assert A.shape == (16020, 264)

    def test_example3_shape(self, ex3_direct):
        _, sd = ex3_direct
        A, B = zs.assemble_system(0.0, sd, 64)
        assert A.shape == (16008, 260)

    def test_missing_norming_constants(self):
        sd = _trivial_data()
        ev = Eigenvalue(rho=1.0j, z=zs.z_of_rho(1.0j), residual=0.0)
        broken = ScatteringData(
            rho_grid=sd.rho_grid,
            a_values=sd.a_values,
            b_values=sd.b_values,
            eigenvalues=(ev,),
            norming_constants=np.zeros(0, dtype=complex),
            meta={},
        )
        with pytest.raises(MissingSpectrumData):
            zs.assemble_system(0.0, broken, 5)

    def test_forward_coefficients_satisfy_system(self, ex4_direct, ex4_full_table):
        _, sd = ex4_direct
        table = ex4_full_table
        g = table.grid
        N = 25
        for x_target in (-3.0, 0.0, 2.0):
            j = int(np.argmin(np.abs(g.nodes - x_target)))
            bv = table.b[: N + 1, j]
            av = table.a[: N + 1, j]
            X = np.concatenate([bv.real, bv.imag, av.real, av.imag])
            A, B = zs.assemble_system(float(g.nodes[j]), sd, N)
            assert np.linalg.norm(A @ X - B) < 1e-4 * max(1.0, np.linalg.norm(B))


class TestTrivialPipeline:
    def test_solution_is_zero(self):
        sd = _trivial_data()
        cfg = zs.InverseConfig(x_half_width=4.0, x_points=41, K=200, N=5)
        _, coeffs, _ = zs.solve_inverse(sd, cfg)
        assert np.max(np.abs(coeffs.X)) < 1e-12

    def test_recovered_zero_potential(self):
        sd = _trivial_data()
        cfg = zs.InverseConfig(x_half_width=4.0, x_points=41, K=200, N=5)
        rec, _, _ = zs.solve_inverse(sd, cfg)
        assert np.max(np.abs(rec.chosen)) < 1e-12
        assert np.max(np.abs(rec.q_from_a0)) < 1e-12

    def test_collocation_count_is_what_the_solve_uses(self, monkeypatch):
        rows = []
        original = inverse.least_squares_solve

        def spy(A, B, **kwargs):
            rows.append(A.shape[0])
            return original(A, B, **kwargs)

        monkeypatch.setattr(inverse, "least_squares_solve", spy)
        sd = _trivial_data()
        for K in (200, 400):
            cfg = zs.InverseConfig(x_half_width=4.0, x_points=11, K=K, N=5)
            _, _, info = zs.solve_inverse(sd, cfg)
            # two complex equations per rho node, split into real and imaginary rows
            assert info["collocation_count"] == rows[-1] // 4
        # theta-uniform subsampling merges targets near rho = 0
        _, _, info = zs.solve_inverse(sd, zs.InverseConfig(x_half_width=4.0, x_points=11, K=200, N=5))
        assert info["collocation_count"] < 200
        assert rows[-1] // 4 < 200

    def test_selection_ties_to_smallest(self):
        sd = _trivial_data()
        cfg = zs.InverseConfig(x_half_width=4.0, K=200,
                               candidates=(5, 10, 15),
                               selection_x_points=21, selection_K=150)
        N, eps = zs.select_truncation_inverse(sd, cfg)
        assert N == 5
        assert max(eps.values()) < 1e-12


class TestSelection:
    def test_example1_chosen_n(self, ex1_direct):
        _, sd = ex1_direct
        N, eps = zs.select_truncation_inverse(sd, zs.InverseConfig())
        assert 15 <= N <= 35
        assert eps[N] <= min(eps.values()) + 1e-30

    def test_example2_chosen_n(self, ex2_direct):
        _, sd = ex2_direct
        N, eps = zs.select_truncation_inverse(
            sd, zs.InverseConfig(x_half_width=7.0))
        assert 50 <= N <= 80
        assert eps[N] <= min(eps.values()) + 1e-30


class TestSweepKernel:
    def test_two_stage_solve_matches_single_stage_sweep(self, ex1_direct, monkeypatch):
        _, sd = ex1_direct
        tables = inverse._FactorTables(sd, 25, zs.InverseConfig().K)
        grid = zs.UniformGrid(0.25, 21)
        fast = inverse._solve_sweep(tables, grid)
        monkeypatch.setattr(inverse, "least_squares_solve", _reference_lsq)
        ref = inverse._solve_sweep(tables, grid)
        assert np.max(np.abs(fast.X - ref.X)) <= 1e-12
        assert fast.conditions.max() == pytest.approx(ref.conditions.max(), rel=5e-4)


class TestRoundtrips:
    @pytest.mark.parametrize("fixture,tol", [
        ("ex1_roundtrip", 1e-5),
        ("ex2_roundtrip", 0.5),
        ("ex3_roundtrip", 1e-2),
        ("ex4_roundtrip", 1e-5),
    ])
    def test_error_within_tolerance(self, fixture, tol, request):
        _, _, _, err = request.getfixturevalue(fixture)
        assert err <= tol

    @pytest.mark.parametrize("fixture,bound", [
        ("ex1_roundtrip", 1e-3),
        ("ex2_roundtrip", 1e-3),
        # the example-3 coefficients decay like 0.92^n, which floors the
        # series-fit residual near 3e-3 at any N that still recovers q well
        ("ex3_roundtrip", 5e-3),
        ("ex4_roundtrip", 1e-3),
    ])
    def test_relative_residuals_small(self, fixture, bound, request):
        _, coeffs, _, _ = request.getfixturevalue(fixture)
        rel = coeffs.residuals / np.maximum(coeffs.rhs_norms, 1e-30)
        assert np.max(rel) <= bound

    @pytest.mark.parametrize("fixture", [
        "ex1_roundtrip", "ex2_roundtrip", "ex3_roundtrip", "ex4_roundtrip",
    ])
    def test_cross_formula_consistency(self, fixture, request):
        rec, _, _, err = request.getfixturevalue(fixture)
        assert rec.discrepancy <= 10.0 * max(err, 1e-12)

    def test_coefficient_curves_smooth(self, ex1_roundtrip):
        rec, coeffs, _, _ = ex1_roundtrip
        g = coeffs.x_grid
        slope = zs.differentiate(g, coeffs.re_b0)
        # b0 varies on the scale of the potential itself
        assert np.max(np.abs(slope)) < 4.0 * np.pi

    def test_self_consistency_example4(self, ex4_full_table, ex4_roundtrip):
        _, coeffs, _, _ = ex4_roundtrip
        table = ex4_full_table
        spline_r = CubicSpline(table.grid.nodes, table.b[0].real)
        spline_i = CubicSpline(table.grid.nodes, table.b[0].imag)
        x = coeffs.x_grid.nodes
        err = np.hypot(coeffs.re_b0 - spline_r(x), coeffs.im_b0 - spline_i(x))
        assert np.max(err) < 1e-4


class TestRecovery:
    def test_denominator_guard(self):
        g = zs.UniformGrid(2.0, 41)
        X = np.zeros((41, 8))
        X[:, 2] = 1.0  # Im b0 == 1 makes the b-side denominator vanish
        coeffs = RecoveredCoefficients(
            x_grid=g, N=1, X=X,
            residuals=np.zeros(41), rhs_norms=np.ones(41),
            conditions=np.ones(41),
        )
        with pytest.raises(DenominatorNearZero):
            zs.recover_potential(coeffs)

    @pytest.mark.parametrize("candidates", [(), (0,), (5, -10), (5, 2.5), ("10",)])
    def test_invalid_candidates_rejected(self, candidates):
        with pytest.raises(ValueError, match="candidates"):
            zs.InverseConfig(candidates=candidates)

    def test_underdetermined_config_rejected(self):
        sd = _trivial_data(n_rho=20)
        cfg = zs.InverseConfig(x_points=11, K=10, N=40)
        with pytest.raises(ValueError):
            zs.solve_inverse(sd, cfg)
