"""Inverse problem: system assembly, sweeps, N selection, recovery."""

import json

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import CubicSpline

import zsscatter as zs
from zsscatter.direct import Eigenvalue, ScatteringData
from zsscatter.errors import (
    DenominatorNearZero,
    MissingSpectrumData,
    RankDeficient,
    UnderdeterminedSystem,
    ZSScatterError,
)
from zsscatter import inverse
from zsscatter.inverse import RecoveredCoefficients, recover_potential, select_truncation_inverse
from zsscatter.jost import z_of_rho
from zsscatter.numerics import (
    chebyshev_coefficients,
    chebyshev_derivative,
    chebyshev_points,
    chebyshev_values,
    constrained_least_squares,
    differentiate,
    least_squares_solve,
    pivoted_qr_solve,
    qr_stage_one,
    standard_chop,
)
from test_numerics import _gglse, _matvec_error_bound, _reference_stage_two


def _trivial_data(n_rho=400):
    rho = np.linspace(-30.0, 30.0, n_rho)
    return ScatteringData(
        rho_grid=rho,
        a_values=np.ones(n_rho, dtype=complex),
        b_values=np.zeros(n_rho, dtype=complex),
        eigenvalues=(),
        norming_constants=np.zeros(0, dtype=complex),
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
        ev = Eigenvalue(rho=1.0j, z=z_of_rho(1.0j), residual=0.0)
        broken = ScatteringData(
            rho_grid=sd.rho_grid,
            a_values=sd.a_values,
            b_values=sd.b_values,
            eigenvalues=(ev,),
            norming_constants=np.zeros(0, dtype=complex),
        )
        with pytest.raises(MissingSpectrumData):
            zs.assemble_system(0.0, broken, 5)
        # and norming constants without eigenvalues
        stray = ScatteringData(rho_grid=sd.rho_grid, a_values=sd.a_values,
                               b_values=sd.b_values, eigenvalues=(),
                               norming_constants=np.ones(2, dtype=complex))
        with pytest.raises(MissingSpectrumData, match="2 norming constants for 0"):
            zs.assemble_system(0.0, stray, 5)

    def test_forward_coefficients_satisfy_system(self, ex4_direct, ex4_full_table):
        _, sd = ex4_direct
        table = ex4_full_table
        g = table.grid
        N = 25
        for x_target in (-3.0, 0.0, 2.0):
            j = int(np.argmin(np.abs(g.nodes - x_target)))
            bv = table.b[: N + 1, j]
            av = table.a[: N + 1, j]
            X = np.column_stack([bv.real, bv.imag, av.real, av.imag]).ravel()
            A, B = zs.assemble_system(float(g.nodes[j]), sd, N)
            assert np.linalg.norm(A @ X - B) < 1e-4 * max(1.0, np.linalg.norm(B))


def _reference_rows(tables, x, block_order=False):
    """The allocating assembly of the complex rows s1, s2 (and s3, s4) over the
    real unknowns Re b_n, Im b_n, Re a_n, Im a_n, with their right-hand sides,
    as the real sweep built them: in degree order (unknown k of degree n in
    column 4 n + k) or, with ``block_order``, one block of N + 1 columns per
    unknown, as the selection's fallback takes them."""
    n1 = tables.N + 1

    def row(*blocks):
        if block_order:
            return np.hstack(blocks)
        return np.stack(blocks, axis=2).reshape(blocks[0].shape[0], 4 * n1)

    em = np.exp(-1j * tables.rho * x)
    ep = np.conj(em)
    zero = np.zeros((tables.K, n1), dtype=complex)
    s1 = row(em[:, None] * tables.Pz, zero, -em[:, None] * tables.aPzb,
             ep[:, None] * tables.bPz)
    r1 = (tables.a - 1.0) * em
    s2 = row(zero, em[:, None] * tables.Pz, -ep[:, None] * tables.bPz,
             -em[:, None] * tables.aPzb)
    r2 = tables.b * ep
    rows = [s1, s2]
    rhs = [r1, r2]
    if tables.M:
        emm = np.exp(-1j * tables.rho_m * x)
        cep = tables.c * np.exp(1j * tables.rho_m * x)
        zm0 = np.zeros((tables.M, n1), dtype=complex)
        rows += [row(emm[:, None] * tables.Pzm, zm0, zm0, cep[:, None] * tables.Pzm),
                 row(zm0, emm[:, None] * tables.Pzm, -cep[:, None] * tables.Pzm, zm0)]
        rhs += [-emm, cep]
    return rows, rhs


def _reference_assemble(tables, x, block_order=False):
    """The allocating real split the per-sweep matrix replaced, kept as a
    reference; row-major, its columns as ``_reference_rows`` orders them."""
    rows, rhs = _reference_rows(tables, x, block_order)
    C = np.vstack(rows)
    r = np.concatenate(rhs)
    return np.vstack([C.real, C.imag]), np.concatenate([r.real, r.imag])


def _reference_complex(tables, x):
    """The complex form from the reference rows: s1 + i s2 and conj(s1 - i s2)
    per pair, read off on the columns Re b_n and Re a_n, in degree order.

    Also returns the largest violation of complex linearity: on these rows
    the Im b_n and Im a_n columns are i times the Re b_n and Re a_n ones.
    """
    rows, rhs = _reference_rows(tables, x)
    W, w = [], []
    for s, t, p, q in zip(rows[::2], rows[1::2], rhs[::2], rhs[1::2]):
        W += [s + 1j * t, np.conj(s - 1j * t)]
        w += [p + 1j * q, np.conj(p - 1j * q)]
    W = np.vstack(W)
    re_b, im_b, re_a, im_a = (W[:, k::4] for k in range(4))
    C = np.empty((W.shape[0], W.shape[1] // 2), dtype=complex)
    C[:, 0::2] = re_b
    C[:, 1::2] = re_a
    defect = max(np.max(np.abs(im_b - 1j * re_b)), np.max(np.abs(im_a - 1j * re_a)))
    return C, np.concatenate(w), defect / np.max(np.abs(W))


@pytest.fixture(scope="module", params=[(0.4, 0), (1.3, 1)], ids=["M0", "M1"])
def sech_data(request):
    # mu = 0.4 has no eigenvalue, mu = 1.3 one, at 0.8i
    mu, M = request.param
    p = zs.evaluate(zs.PotentialSpec(preset="sech_amplitude", params={"mu": mu}),
                    zs.UniformGrid(20.0, 4001))
    sd = zs.solve_direct(p, rho_count=1000)
    assert sd.M == M
    return sd


def _node_system(tables, x):
    """Copies of the tables' complex system at x: (C, r, E, d), E and d cut
    to the M constraint rows s3 + i s4."""
    C, r, E, d = tables.assemble(x)
    return C.copy(order="F"), r.copy(), E[: tables.M].copy(), d[: tables.M].copy()


class TestSweepBuffers:
    def test_matches_allocating_assembly(self, sech_data):
        sd = sech_data
        for K in (None, 400):
            tables = inverse._FactorTables(sd, 25, K)
            two_k = 2 * tables.K
            for x in (-2.0, 0.0, 1.3):
                C, r, E, d = tables.assemble(x)
                C_ref, r_ref, defect = _reference_complex(tables, x)
                # the collocation rows, then the eigenvalue rows and their
                # conjugates, in buffers of their own
                assert C.flags.f_contiguous and C.shape == (two_k, 2 * 26)
                assert np.array_equal(C, C_ref[:two_k]) and np.array_equal(r, r_ref[:two_k])
                assert np.array_equal(E, C_ref[two_k:]) and np.array_equal(d, r_ref[two_k:])
                assert defect <= 1e-15
                A, B = tables.assemble_real(x)
                A_ref, B_ref = _reference_assemble(tables, x)
                assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)
        # assemble_system hands out arrays no later call overwrites
        A0, B0 = zs.assemble_system(-2.0, sd, 25)
        zs.assemble_system(1.3, sd, 25)
        A_ref, B_ref = _reference_assemble(inverse._FactorTables(sd, 25), -2.0)
        assert np.array_equal(A0, A_ref) and np.array_equal(B0, B_ref)

    def test_no_real_split_without_a_fallback(self, sech_data):
        # the sweep has no fallback: it never builds the real split
        tables = inverse._FactorTables(sech_data, 20)
        inverse._solve_sweep(tables, zs.UniformGrid(1.0, 11))
        assert tables._A is None

    def test_sweep_equals_fresh_per_node_solves(self, sech_data):
        # one constrained solve per node on fresh tables gives the same bits
        sd = sech_data
        coeffs = inverse._solve_sweep(inverse._FactorTables(sd, 20), zs.UniformGrid(1.0, 11))
        assert np.array_equal(coeffs.nodes, chebyshev_points(1.0, coeffs.nodes.size - 1))
        for j, x in enumerate(coeffs.nodes):
            C, r, E, d = inverse._FactorTables(sd, 20).assemble(float(x))
            sol, _, _ = constrained_least_squares(C, r, E[: sd.M], d[: sd.M])
            assert np.array_equal(coeffs.X[j], sol.view(float))


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
            # two complex rows per rho node: s1 + i s2 and conj(s1 - i s2)
            assert info["collocation_count"] == rows[-1] // 2
        # theta-uniform subsampling merges targets near rho = 0
        _, _, info = zs.solve_inverse(sd, zs.InverseConfig(x_half_width=4.0, x_points=11, K=200, N=5))
        assert info["collocation_count"] < 200
        assert rows[-1] // 2 < 200

    def test_selection_ties_to_smallest(self):
        sd = _trivial_data()
        for candidates in [(5, 10, 15), (15, 10, 5)]:
            cfg = zs.InverseConfig(x_half_width=4.0, K=200,
                                   candidates=candidates,
                                   selection_x_points=21, selection_K=150)
            N, eps, _, _ = select_truncation_inverse(sd, cfg)
            assert N == 5
            assert list(eps) == [5, 10, 15]
            assert max(eps.values()) < 1e-12


class TestSelection:
    def test_example1_chosen_n(self, ex1_direct):
        _, sd = ex1_direct
        N, eps, _, _ = select_truncation_inverse(sd, zs.InverseConfig())
        assert 15 <= N <= 35
        assert eps[N] <= min(eps.values()) + 1e-30

    def test_example2_chosen_n(self, ex2_direct):
        _, sd = ex2_direct
        N, eps, _, _ = select_truncation_inverse(
            sd, zs.InverseConfig(x_half_width=7.0))
        assert 50 <= N <= 80
        assert eps[N] <= min(eps.values()) + 1e-30


def _real_node_solve(A, B):
    """The real solve of a node, kept as a reference: the two-stage solve,
    and at condition 1e9 or more, the selection's guard, the pivoted one."""
    solved = least_squares_solve(A, B)
    return solved if solved[2] < 1e9 else pivoted_qr_solve(A, B)[:3]


def _real_sweep(sd, N, K, grid, block_order=False):
    """The real sweep, kept as a reference: one ``_real_node_solve`` of the
    reference real split per node, its unknowns in degree or block order.
    Returns (X, residuals, conditions)."""
    tables = inverse._FactorTables(sd, N, K)
    solves = [_real_node_solve(*_reference_assemble(tables, float(x), block_order))
              for x in grid.nodes]
    X, res, cond = zip(*solves)
    return np.array(X), np.array(res), np.array(cond)


def _reference_select(sd, cfg):
    """The per-candidate selection on real sweeps in block order, kept as a
    reference.

    Returns (N, eps_table, order-zero entries of shape (candidates, nodes, 4)).
    """
    grid = cfg.selection_grid()
    eps_table, zero = {}, []
    for N in cfg.candidates:
        X, _, _ = _real_sweep(sd, N, cfg.selection_K, grid, block_order=True)
        entries = X[:, :: N + 1]
        eps_table[N] = float(np.max(np.abs(differentiate(
            grid, inverse._wronskian_curve(*entries.T)))))
        zero.append(entries)
    return min(eps_table, key=eps_table.get), eps_table, np.array(zero)


def _count_factorizations(monkeypatch):
    """Record every factorization the solves make, as (kind, dtype char):
    geqrt and geqp3 through ``get_lapack_funcs``, and ``scipy.linalg.qr``."""
    calls = []
    get_funcs, qr = scipy.linalg.lapack.get_lapack_funcs, scipy.linalg.qr

    def get_funcs_spy(names, arrays=(), *args, **kwargs):
        calls.append((names, arrays[0].dtype.char))
        return get_funcs(names, arrays, *args, **kwargs)

    def qr_spy(a, *args, **kwargs):
        calls.append(("qr", a.dtype.char))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", get_funcs_spy)
    monkeypatch.setattr(scipy.linalg, "qr", qr_spy)
    return calls


# ex1 on [-8, 8]: from N = 75 on every selection node is past the two-stage
# guard, so this config takes both the nested and the per-candidate path
_MIXED = dict(candidates=(10, 25, 50, 75, 90), selection_x_points=11)
# the benchmark's well-conditioned selection: candidates up to 50 on [-1/8, 1/8]
_NESTED = dict(candidates=tuple(range(5, 51, 5)), selection_x_points=21,
               x_half_width=0.125, x_points=11)


class TestNestedSelection:
    def test_matches_per_candidate_selection(self, ex1_direct):
        _, sd = ex1_direct
        cfg = zs.InverseConfig(**_MIXED)
        N_ref, eps_ref, zero_ref = _reference_select(sd, cfg)
        zero, fell_back, _ = inverse._selection_order_zero(
            sd, list(cfg.candidates), cfg.selection_grid(), cfg.selection_K)
        assert fell_back.any() and not fell_back.all()
        # per node, the candidates past the first failure fall back too
        assert np.all(np.diff(fell_back.astype(int), axis=0) >= 0)
        # the fallbacks are the per-candidate solves bit for bit, the nested
        # solves agree with them to rounding
        assert np.array_equal(zero[fell_back], zero_ref[fell_back])
        assert np.max(np.abs(zero[~fell_back] - zero_ref[~fell_back])) <= 1e-10
        N, eps, fallbacks, _ = select_truncation_inverse(sd, cfg)
        assert N == N_ref
        assert fallbacks == np.count_nonzero(fell_back)
        for n in cfg.candidates:
            assert abs(eps[n] - eps_ref[n]) <= 1e-9 + 1e-6 * eps_ref[n]

    def test_fallbacks_as_with_explicit_q_stage_two(self, ex1_direct, monkeypatch):
        # the factored stage two takes the guard decisions of the explicit-Q one
        _, sd = ex1_direct
        cfg = zs.InverseConfig(**_MIXED)
        args = (sd, list(cfg.candidates), cfg.selection_grid(), cfg.selection_K)
        _, fell_back, _ = inverse._selection_order_zero(*args)

        def explicit_q(factor, n):
            x, cond, _, _ = _reference_stage_two(factor, n)
            return x, cond, None  # the selection does not read the dropped norm

        monkeypatch.setattr(inverse, "qr_stage_two", explicit_q)
        _, fell_back_ref, _ = inverse._selection_order_zero(*args)
        assert fell_back_ref.any() and not fell_back_ref.all()
        assert np.array_equal(fell_back, fell_back_ref)

    def test_each_fallback_factors_its_system_once(self, ex1_direct, monkeypatch):
        # one real stage one per node serves the nested candidates; a
        # candidate past the guard gets one pivoted QR and no stage one or
        # stage two of its own
        _, sd = ex1_direct
        cfg = zs.InverseConfig(**_MIXED)
        calls = _count_factorizations(monkeypatch)
        _, fell_back, _ = inverse._selection_order_zero(
            sd, list(cfg.candidates), cfg.selection_grid(), cfg.selection_K)
        n_nodes = cfg.selection_x_points
        assert fell_back.any() and not fell_back.all()
        stage_twos = np.count_nonzero(~fell_back) + np.count_nonzero(fell_back.any(axis=0))
        assert calls.count(("geqrt", "d")) == n_nodes
        assert calls.count(("geqp3", "d")) == stage_twos
        assert calls.count(("qr", "d")) == np.count_nonzero(fell_back)
        assert len(calls) == n_nodes + stage_twos + np.count_nonzero(fell_back)

    def test_candidate_columns_are_the_leading_block(self, sech_data):
        sd = sech_data
        top = inverse._FactorTables(sd, 30, 400)
        n1 = top.N + 1
        degree_order = np.arange(4 * n1).reshape(4, n1).T.ravel()
        for x in (-2.0, 0.0, 1.3):
            A_top, B_top = top.assemble_real(x)
            # the selection's stage one is, bit for bit, that of the row-major
            # block-order split gathered into degree order: a column-major
            # gather, summed in the same order for the column norms
            gathered = _reference_assemble(top, x, block_order=True)[0][:, degree_order]
            for got, want in zip(qr_stage_one(A_top, B_top), qr_stage_one(gathered, B_top)):
                assert np.array_equal(got, want)
            for N in (0, 7, 29, 30):
                tables = inverse._FactorTables(sd, N, 400)
                A, B = tables.assemble_real(x)
                # the candidate's system is the leading 4(N + 1) columns ...
                assert np.array_equal(A_top[:, : 4 * (N + 1)], A)
                assert np.array_equal(B_top, B)
                # ... and the fallback's gather of them in block order is the
                # row-major block-order split
                own = np.take(A_top, (np.arange(4)[:, None] + 4 * np.arange(N + 1)).ravel(), axis=1)
                A_blocks, _ = _reference_assemble(tables, x, block_order=True)
                assert own.flags.c_contiguous and np.array_equal(own, A_blocks)

    def test_fallbacks_reported(self, ex1_direct):
        _, sd = ex1_direct
        _, _, info = zs.solve_inverse(sd, zs.InverseConfig(**_NESTED))
        assert info["selection_fallbacks"] == info["selection_rank_truncated"] == 0
        _, _, info = zs.solve_inverse(sd, zs.InverseConfig(**_MIXED, N="auto", x_points=11))
        # some of the per-candidate solves drop rank, some keep it
        assert info["selection_fallbacks"] > info["selection_rank_truncated"] > 0
        _, _, info = zs.solve_inverse(sd, zs.InverseConfig(N=25, x_points=11, x_half_width=0.1))
        assert "selection_fallbacks" not in info and "eps_table" not in info
        assert "selection_rank_truncated" not in info


def _spy_reduced_solves(monkeypatch):
    """Record every reduced system the sweep hands to ``least_squares_solve``
    through ``zsscatter.inverse``, with the solve's result: (A, b, result)."""
    calls = []
    original = inverse.least_squares_solve

    def spy(A, b):
        result = original(A, b)
        calls.append((A.copy(order="K"), b.copy(), result))
        return result

    monkeypatch.setattr(inverse, "least_squares_solve", spy)
    return calls


class TestSweepKernel:
    def test_two_stage_solve_matches_single_stage_sweep(self, ex1_direct):
        # each node's constrained solve agrees with LAPACK zgglse on the same
        # complex system, within n u kappa of the reduced system
        _, sd = ex1_direct
        tables = inverse._FactorTables(sd, 25, zs.InverseConfig().K)
        fast = inverse._solve_sweep(tables, zs.UniformGrid(0.25, 21))
        assert fast.nodes.size == 17
        for j, x in enumerate(fast.nodes):
            C, r, E, d = _node_system(tables, float(x))
            x_ref = _gglse(C, r, E, d).view(float)
            bound = C.shape[1] * np.finfo(float).eps * fast.conditions[j]
            assert np.max(np.abs(fast.X[j] - x_ref)) <= bound * np.max(np.abs(x_ref))

    def test_complex_form_matches_real_two_stage_solves(self, ex1_direct):
        # the benchmark's ex1 sweep: the complex constrained solve agrees
        # with the same solve of the real split, whose 2M real constraint
        # rows are the real and imaginary parts of s3 + i s4
        _, sd = ex1_direct
        tables = inverse._FactorTables(sd, 25, 1000)
        fast = inverse._solve_sweep(tables, zs.UniformGrid(0.25, 21))
        assert not fast.truncated.any() and fast.conditions.max() < 1e3
        for j, x in enumerate(fast.nodes):
            rows, rhs = _reference_rows(tables, float(x))
            S, t = np.vstack(rows[:2]), np.concatenate(rhs[:2])
            A, B = np.vstack([S.real, S.imag]), np.concatenate([t.real, t.imag])
            W, w = rows[2] + 1j * rows[3], rhs[2] + 1j * rhs[3]
            X_ref, res_ref, cond_ref = constrained_least_squares(
                np.asfortranarray(A), B, np.vstack([W.real, W.imag]),
                np.concatenate([w.real, w.imag]))
            assert np.max(np.abs(fast.X[j] - X_ref)) <= 1e-12 * np.max(np.abs(X_ref))
            # pivot ratios of pivoted QRs of two reduced systems, whose
            # null-space bases differ: estimates of one condition number
            assert fast.conditions[j] == pytest.approx(cond_ref, rel=0.1)
            assert fast.residuals[j] == pytest.approx(res_ref, rel=1e-6)
            assert fast.rhs_norms[j] == pytest.approx(np.linalg.norm(B), rel=1e-14)

    def test_truncated_nodes_are_the_truncating_solves(self, ex1_direct, monkeypatch):
        # N = 90 on ex1 is past the rank tolerance at these nodes of
        # [-4.8, 4.8] even once the eigenvalue rows are eliminated; the
        # reduced solve drops pivots in stage two there, as the explicit-Q
        # reference stage two on the same factor does
        _, sd = ex1_direct
        cfg = zs.InverseConfig(N=90, K=400, x_half_width=4.8, x_points=5)
        calls = _spy_reduced_solves(monkeypatch)
        _, coeffs, info = zs.solve_inverse(sd, cfg)
        # 5 nodes cannot resolve the window, so the sweep climbs to 9
        assert len(calls) == coeffs.nodes.size == 9
        assert np.array_equal(coeffs.truncated, coeffs.conditions > 1e12)
        assert info["sweep_rank_truncated"] == np.count_nonzero(coeffs.truncated) > 0
        assert info["constraint_residual"] <= 1e-12
        # the solves in the order they were made, the nodes in ascending order
        assert sorted(cond for _, _, (_, _, cond) in calls) == sorted(coeffs.conditions)
        for A, b, (y, res, cond) in calls:
            factor, col_scale = qr_stage_one(A, b)
            sol, cond_ref, R, _ = _reference_stage_two(factor, A.shape[1])
            y_ref = sol / col_scale
            assert cond == cond_ref
            # the dropped unknowns are exactly zero
            assert np.array_equal(y == 0.0, y_ref == 0.0)
            # the two ways of applying Q^H differ by rounding, n u |c|, which
            # the kept triangle amplifies by up to its condition
            pivots = np.abs(np.diagonal(R))
            kept = pivots[pivots >= 1e-12 * pivots.max()]
            bound = A.shape[1] * np.finfo(float).eps * kept.max() / kept.min()
            assert np.max(np.abs(y - y_ref)) <= bound * np.max(np.abs(y_ref))
            # the residual is that of the returned solution
            assert abs(res - np.linalg.norm(A @ y - b)) <= (
                1e-8 * res + _matvec_error_bound(A, y))

    def test_fallback_node_is_factored_once(self, ex1_direct, monkeypatch):
        # a node near the rank edge gets its constraint QR, its reduced stage
        # one and stage two, and nothing else: no real split, no second solve
        _, sd = ex1_direct
        tables = inverse._FactorTables(sd, 90, 400)
        calls = _count_factorizations(monkeypatch)
        coeffs = inverse._solve_sweep(tables, zs.UniformGrid(4.8, 5))
        assert coeffs.truncated.any() and coeffs.conditions.min() > 1e9
        assert calls == [("geqrf", "D"), ("geqrt", "D"), ("geqp3", "D")] * coeffs.nodes.size
        assert tables._A is None

    def test_no_fallbacks_on_the_benchmark_sweep(self, ex1_direct):
        # no benchmark node comes near the selection's 1e9 guard
        _, sd = ex1_direct
        cfg = zs.InverseConfig(N=25, x_half_width=0.25, x_points=101)
        _, coeffs, info = zs.solve_inverse(sd, cfg)
        assert info["sweep_rank_truncated"] == 0
        assert not coeffs.truncated.any() and coeffs.conditions.max() < 1e9

    def test_solve_does_not_depend_on_the_layout_of_a(self, ex1_direct):
        # past the two-stage guard, a column-major A or a slice of the
        # columns of a larger table gives the bits of the row-major system
        _, sd = ex1_direct
        x = 4.8
        A_top, B = inverse._FactorTables(sd, 90, 400).assemble_real(x)
        for N in (80, 90):
            A, _ = inverse._FactorTables(sd, N, 400).assemble_real(x)
            x_ref, res_ref, cond_ref, _ = pivoted_qr_solve(np.ascontiguousarray(A), B)
            assert cond_ref > 1e9
            for other in (A, A_top[:, : 4 * (N + 1)]):
                sol, res, cond, _ = pivoted_qr_solve(other, B)
                assert np.array_equal(sol, x_ref)
                assert res == res_ref and cond == cond_ref


class TestConstrainedNodeSolve:
    def test_ex2_node_matches_gglse(self, ex2_direct):
        # an edge node of the ex2 fixture's window at N = 60, where the
        # eigenvalue rows grow like exp(+-35)
        _, sd = ex2_direct
        tables = inverse._FactorTables(sd, 60, 1000)
        for x in (-7.0, 0.0, 7.0):
            C, r, E, d = _node_system(tables, x)
            x_ref = _gglse(C, r, E, d)
            sol, res, cond = constrained_least_squares(C.copy(order="F"), r, E, d)
            # the reduced system's condition; the LSE solution moves by
            # n u kappa of it (Golub & Van Loan, section 6.2)
            bound = C.shape[1] * np.finfo(float).eps * cond
            assert np.max(np.abs(sol - x_ref)) <= bound * np.max(np.abs(x_ref))
            assert res == pytest.approx(np.linalg.norm(C @ sol - r), rel=1e-8)
            # both conjugate eigenvalue blocks hold
            _, _, E2, d2 = tables.assemble(x)
            defect = np.abs(E2 @ sol - d2) / (np.abs(E2) @ np.abs(sol) + np.abs(d2))
            assert E2.shape[0] == 2 * sd.M and defect.max() <= 1e-12

    def test_equal_eigenvalues_raise_naming_x(self, ex1_direct):
        # two equal eigenvalues read from JSON give two equal constraint rows
        _, sd = ex1_direct
        payload = json.loads(zs.scattering_to_json(sd))
        payload["eigenvalues"] *= 2
        payload["norming"] *= 2
        twice = zs.scattering_from_json(json.dumps(payload))
        assert twice.M == 2
        cfg = zs.InverseConfig(N=25, x_half_width=0.5, x_points=21)
        with pytest.raises(RankDeficient, match=r"at x = -0\.5.*dependent"):
            zs.solve_inverse(twice, cfg)


def _spy_nodes(monkeypatch):
    """Record the x of every node the sweep solves."""
    xs = []
    original = inverse._solve_node

    def spy(tables, x):
        xs.append(x)
        return original(tables, x)

    monkeypatch.setattr(inverse, "_solve_node", spy)
    return xs


class TestNodeLadder:
    @pytest.mark.parametrize("x_points,first", [(5, 5), (7, 5), (11, 9), (17, 17), (31, 17),
                                                (2001, 17)])
    def test_first_level(self, x_points, first, monkeypatch):
        # the first level is 17 nodes, or the largest 2^k + 1 within
        # x_points; q = 0 is resolved at once, but standardChop needs 17
        # coefficients to call a series resolved
        xs = _spy_nodes(monkeypatch)
        coeffs = inverse._solve_sweep(inverse._FactorTables(_trivial_data(), 5, 200),
                                      zs.UniformGrid(3.0, x_points))
        assert np.array_equal(coeffs.nodes, chebyshev_points(3.0, first - 1))
        assert np.array_equal(xs, coeffs.nodes)
        assert coeffs.x_resolved is (first == 17)

    def test_climbs_while_unresolved_and_solves_each_node_once(self, ex1_direct, monkeypatch):
        # the benchmark's ex1 sweep climbs 17 -> 33 -> 65 within 101 points
        _, sd = ex1_direct
        xs = _spy_nodes(monkeypatch)
        _, coeffs, info = zs.solve_inverse(
            sd, zs.InverseConfig(N=25, x_half_width=0.25, x_points=101))
        assert info["x_nodes"] == coeffs.nodes.size == len(xs) == 65
        assert info["x_resolved"] and coeffs.x_resolved
        assert np.array_equal(coeffs.nodes, chebyshev_points(0.25, 64))
        # every node solved once, the levels nested
        assert np.array_equal(np.sort(xs), coeffs.nodes)
        assert np.array_equal(xs[:17], chebyshev_points(0.25, 16))
        assert np.array_equal(np.sort(xs[:33]), chebyshev_points(0.25, 32))
        # each level below was unresolved, the last is resolved
        for step in (4, 2, 1):
            bound = np.max(np.abs(chebyshev_coefficients(coeffs.X[::step, :4])), axis=1)
            assert (standard_chop(bound, np.finfo(float).eps) < bound.size) == (step == 1)

    def test_cap_stops_the_climb_unresolved(self, ex2_direct):
        # the benchmark's ex2 sweep: 65 nodes fit within 101 points, 129 do not
        _, sd = ex2_direct
        _, coeffs, info = zs.solve_inverse(
            sd, zs.InverseConfig(N=60, x_half_width=5.0, x_points=101))
        assert info["x_nodes"] == 65 and not info["x_resolved"]
        assert 0.0 < info["chop_level"] < 1e-3
        assert info["constraint_residual"] <= 1e-12


class TestEx2Window:
    # the ex2 selection picks N = 60 at default BLAS threads and N = 65 at
    # one thread (eps 11.8 against 6.66); either must recover q on the
    # fixture's window and grid
    @pytest.mark.parametrize("N", [60, 65])
    def test_either_selection_recovers_q(self, ex2_direct, N):
        _, sd = ex2_direct
        rec, _, info = zs.solve_inverse(sd, zs.InverseConfig(N=N, x_half_width=7.0))
        g = rec.x_grid
        lo = int(0.05 * g.n_points)
        inner = slice(lo, g.n_points - lo)
        err = np.max(np.abs(rec.chosen[inner] - (5.0 + np.pi / 7.0) / np.cosh(g.nodes[inner])))
        assert err <= 0.5
        assert info["constraint_residual"] <= 1e-12


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
        slope = chebyshev_values(chebyshev_derivative(
            chebyshev_coefficients(coeffs.re_b0), coeffs.x_grid.half_width))
        # b0 varies on the scale of the potential itself
        assert np.max(np.abs(slope)) < 4.0 * np.pi

    @pytest.mark.parametrize("fixture", [
        "ex1_roundtrip", "ex2_roundtrip", "ex3_roundtrip", "ex4_roundtrip",
    ])
    def test_constraints_hold_on_resolved_nodes(self, fixture, request):
        # both conjugate eigenvalue blocks hold to rounding at every node,
        # and the ladder resolved b0, a0 within the output grid's count
        _, coeffs, info, _ = request.getfixturevalue(fixture)
        assert info["constraint_residual"] == np.max(coeffs.constraint_residuals) <= 1e-12
        assert info["x_resolved"] and info["x_nodes"] == coeffs.nodes.size
        assert coeffs.nodes.size <= coeffs.x_grid.n_points
        assert info["chop_level"] < 1e-10

    def test_self_consistency_example4(self, ex4_full_table, ex4_roundtrip):
        _, coeffs, _, _ = ex4_roundtrip
        table = ex4_full_table
        spline_r = CubicSpline(table.grid.nodes, table.b[0].real)
        spline_i = CubicSpline(table.grid.nodes, table.b[0].imag)
        x = coeffs.nodes
        err = np.hypot(coeffs.re_b0 - spline_r(x), coeffs.im_b0 - spline_i(x))
        assert np.max(err) < 1e-4


def _coefficients(X, half_width=2.0, x_points=41):
    """RecoveredCoefficients of given order-zero rows at Chebyshev nodes."""
    n = X.shape[0]
    return RecoveredCoefficients(
        x_grid=zs.UniformGrid(half_width, x_points), nodes=chebyshev_points(half_width, n - 1),
        N=1, X=X, residuals=np.zeros(n), rhs_norms=np.ones(n), conditions=np.ones(n),
        truncated=np.zeros(n, dtype=bool), constraint_residuals=np.zeros(n),
        x_resolved=True, chop_level=0.0,
    )


class TestRecovery:
    def test_denominator_guard(self):
        X = np.zeros((17, 8))
        X[:, 1] = 1.0  # Im b0 == 1 makes the b-side denominator vanish
        with pytest.raises(DenominatorNearZero):
            recover_potential(_coefficients(X))
        # at one node only, the window's edge, it still poisons the interpolant
        X[:, 1] = 0.0
        X[0, 2] = -1.0  # 1 + Re a0 + Im a0 == 0 there
        with pytest.raises(DenominatorNearZero):
            recover_potential(_coefficients(X))

    def test_recovery_is_spectral_and_interpolates_to_the_output_grid(self):
        # order-zero curves of a known q: with b0 = f(x) real and Im b0 = 0,
        # q_b = (1/2 (1 + f) + f') / (-1 - f) + 1/2 = -f' / (1 + f)
        half_width = 2.0
        x = chebyshev_points(half_width, 32)
        f = 0.3 * np.tanh(x)
        X = np.zeros((33, 8))
        X[:, 0] = f
        rec = recover_potential(_coefficients(X, half_width, 41))
        g = np.linspace(-half_width, half_width, 41)
        exact = -0.3 / np.cosh(g) ** 2 / (1.0 + 0.3 * np.tanh(g))
        assert np.array_equal(rec.x_grid.nodes, zs.UniformGrid(half_width, 41).nodes)
        assert np.max(np.abs(rec.chosen - exact)) <= 1e-8

    @pytest.mark.parametrize("candidates", [(), (0,), (5, -10), (5, 2.5), ("10",), (5, True)])
    def test_invalid_candidates_rejected(self, candidates):
        with pytest.raises(ValueError, match="candidates"):
            zs.InverseConfig(candidates=candidates)

    @pytest.mark.parametrize("field,value", [
        ("N", 0), ("N", -3), ("N", 2.0), ("N", True), ("N", "Auto"), ("N", None),
        ("K", 0), ("K", -5), ("K", 2.5), ("K", False),
        ("selection_K", 0), ("selection_K", -5), ("selection_K", 2.5),
    ])
    def test_invalid_orders_and_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            zs.InverseConfig(**{field: value})

    def test_numpy_integer_n_is_used_as_given(self, ex1_direct, monkeypatch):
        def no_selection(*args):
            raise AssertionError("a fixed N must not run the selection")

        monkeypatch.setattr(inverse, "select_truncation_inverse", no_selection)
        _, sd = ex1_direct
        _, coeffs, info = zs.solve_inverse(
            sd, zs.InverseConfig(N=np.int64(5), x_points=11, x_half_width=0.1))
        assert info["chosen_N"] == 5 and type(info["chosen_N"]) is int
        assert coeffs.N == 5 and coeffs.X.shape == (9, 24)
        assert zs.InverseConfig(K=np.int32(300), selection_K=np.int64(200)).K == 300

    @pytest.mark.parametrize("field", ["x_points", "selection_x_points"])
    def test_tiny_grids_rejected(self, field):
        # the five-point derivative of the recovery needs five nodes
        with pytest.raises(ValueError, match=">= 5"):
            zs.InverseConfig(**{field: 3})

    def test_underdetermined_config_rejected(self):
        sd = _trivial_data(n_rho=20)
        cfg = zs.InverseConfig(x_points=11, K=10, N=40)
        with pytest.raises(ValueError) as err:
            zs.solve_inverse(sd, cfg)
        # a ValueError for library callers, a ZSScatterError (exit 2) for the CLI
        assert isinstance(err.value, ZSScatterError)

    def test_underdetermined_sweep_rejected(self, sech_data):
        # K = N = 10: with an eigenvalue, K + M >= N + 1 holds and the tables
        # are built, but the sweep's reduced system has 2K rows for
        # 2(N + 1) - M unknowns; without one, the tables refuse already
        if sech_data.M == 0:
            with pytest.raises(UnderdeterminedSystem, match="K \\+ M >= N \\+ 1"):
                inverse._FactorTables(sech_data, 10, 10)
            return
        tables = inverse._FactorTables(sech_data, 10, 10)
        assert tables.K == 10
        with pytest.raises(UnderdeterminedSystem, match=r"2K \+ M >= 2\(N \+ 1\)"):
            inverse._solve_sweep(tables, zs.UniformGrid(1.0, 11))

    @pytest.mark.parametrize("N", [3000, "auto"])
    def test_underdetermined_rejected_before_the_tables(self, N, monkeypatch):
        # the tables grow with K N, so the count is checked before they exist
        def no_tables(z, N):
            raise AssertionError("the tables were built")

        monkeypatch.setattr(inverse.JostFactors, "collocation_columns", staticmethod(no_tables))
        cfg = zs.InverseConfig(N=N, x_points=11, candidates=(5, 3000))
        with pytest.raises(UnderdeterminedSystem, match="M = 0 and N = 3000"):
            zs.solve_inverse(_trivial_data(n_rho=4000), cfg)
