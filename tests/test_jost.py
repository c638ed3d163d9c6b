"""Spectral map and truncated Jost-solution evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zsscatter as zs
from zsscatter.errors import PoleAtMinusOne
from zsscatter.jost import eval_jost, rho_of_z, z_of_rho


def test_map_landmarks():
    assert z_of_rho(0.5j) == 0.0
    assert z_of_rho(0.0) == 1.0
    with pytest.raises(PoleAtMinusOne):
        rho_of_z(-1.0)


@given(st.floats(-50.0, 50.0), st.floats(0.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_map_roundtrip(re, im):
    rho = complex(re, im)
    z = z_of_rho(rho)
    assert abs(z) <= 1.0 + 1e-12
    assert abs(rho_of_z(z) - rho) < 1e-12 * max(1.0, abs(rho))


@given(st.floats(-30.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_real_rho_on_circle(rho):
    assert abs(abs(z_of_rho(rho)) - 1.0) < 1e-12


def test_zero_potential_plane_waves():
    p = zs.evaluate(zs.PotentialSpec(preset="zero", params={}),
                    zs.UniformGrid(5.0, 501))
    table = zs.compute_coefficients(zs.compute_basis(p), p, 10)
    rho = 1.3 + 0.4j
    j = 120
    x = p.grid.nodes[j]
    pair = eval_jost(rho, j, table, 10)
    assert abs(pair.phi1 - np.exp(-1j * rho * x)) < 1e-10
    assert abs(pair.phi2) < 1e-10
    assert abs(pair.psi1) < 1e-10
    assert abs(pair.psi2 - np.exp(1j * rho * x)) < 1e-10


@pytest.fixture(scope="module")
def ex1_table(ex1_direct, ex1_full_table):
    _, sd = ex1_direct
    return ex1_full_table, sd.n_terms


def test_left_edge_asymptotics(ex1_table):
    table, N = ex1_table
    rho = 0.7 + 1.1j
    pair = eval_jost(rho, 0, table, N)
    x = table.grid.nodes[0]
    factor = np.exp(1j * rho * x)
    assert abs(pair.phi1 * factor - 1.0) < 1e-6
    assert abs(pair.phi2 * factor) < 1e-6


def test_proportionality_at_eigenvalue(ex1_direct, ex1_table):
    _, sd = ex1_direct
    table, N = ex1_table
    rho = sd.eigenvalues[0].rho
    c = sd.norming_constants[0]
    g = table.grid
    lo, hi = g.n_points // 4, 3 * g.n_points // 4
    pairs = [eval_jost(rho, j, table, N)
             for j in range(lo, hi, (hi - lo) // 16)]
    scale = max(max(abs(p.phi1), abs(p.phi2)) for p in pairs)
    for pair in pairs:
        assert abs(pair.phi1 - c * pair.psi1) <= 1e-5 * scale
        assert abs(pair.phi2 - c * pair.psi2) <= 1e-5 * scale


def test_wronskian_identity_constant(ex1_table):
    table, _ = ex1_table
    b0 = table.b[0]
    a0 = table.a[0]
    w = (1.0 + b0.real) * (1.0 + a0.real) + b0.imag * a0.imag
    assert np.max(np.abs(w - w[table.grid.center_index])) < 1e-6


def test_conjugation_symmetry_real_rho(ex1_table):
    table, N = ex1_table
    j = table.grid.center_index + 1234
    for rho in (0.3, 1.7, 12.0):
        plus = eval_jost(rho, j, table, N)
        minus = eval_jost(-rho, j, table, N)
        assert abs(minus.phi1 - np.conj(plus.phi1)) < 1e-12
        assert abs(minus.phi2 - np.conj(plus.phi2)) < 1e-12


def test_hardy_square_summability(ex1_table):
    table, _ = ex1_table
    j = table.grid.center_index
    seq = np.abs(table.b[:, j]) ** 2
    partial = np.cumsum(seq)
    assert partial[-1] - partial[-10] < 1e-8
