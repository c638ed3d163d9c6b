"""Schrödinger basis solves at rho = i/2: e, g, eta, xi and their couplings."""

import numpy as np
import pytest

import zsscatter as zs
from zsscatter.errors import BasisDegenerate
from zsscatter.numerics import cumulative_integral_from_left, differentiate


def _zero_basis(n=2001, a=8.0):
    p = zs.evaluate(zs.PotentialSpec(preset="zero", params={}),
                    zs.UniformGrid(a, n))
    return p.grid, zs.compute_basis(p)


def test_zero_potential_closed_forms():
    g, basis = _zero_basis()
    x = g.nodes
    assert np.max(np.abs(basis.e - np.exp(-x / 2.0))) < 1e-10
    assert np.max(np.abs(basis.g - np.exp(x / 2.0))) < 1e-10
    assert np.max(np.abs(basis.eta - 2.0 * np.sinh(x / 2.0))) < 1e-8
    assert np.max(np.abs(basis.xi - (np.exp(-x / 2.0) - np.exp(x / 2.0)))) < 1e-8


def test_zero_potential_wronskians():
    _, basis = _zero_basis()
    w_e = basis.e * basis.eta_prime - basis.e_prime * basis.eta
    w_g = basis.g * basis.xi_prime - basis.g_prime * basis.xi
    assert np.max(np.abs(w_e - 1.0)) < 1e-8
    assert np.max(np.abs(w_g + 1.0)) < 1e-8


@pytest.fixture(scope="module")
def example1_basis():
    p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}),
                    zs.UniformGrid(15.0, 15001))
    return p, zs.compute_basis(p)


def test_wronskian_constancy_example1(example1_basis):
    _, basis = example1_basis
    w_e = basis.e * basis.eta_prime - basis.e_prime * basis.eta
    w_g = basis.g * basis.xi_prime - basis.g_prime * basis.xi
    assert np.max(np.abs(w_e - 1.0)) < 1e-8
    assert np.max(np.abs(w_g + 1.0)) < 1e-8


def test_asymptotic_normalization(example1_basis):
    p, basis = example1_basis
    x = p.grid.nodes
    w_e = basis.e * np.exp(x / 2.0)
    w_g = basis.g * np.exp(-x / 2.0)
    assert abs(w_e[-1] - 1.0) < 1e-12
    assert abs(w_g[0] - 1.0) < 1e-12


def test_schrodinger_residual(example1_basis):
    # -e'' + q1 e + e/4 = 0, checked with a finite-difference second derivative
    p, basis = example1_basis
    h = p.grid.step
    e = basis.e
    d2 = (-e[:-4] + 16.0 * e[1:-3] - 30.0 * e[2:-2] + 16.0 * e[3:-1]
          - e[4:]) / (12.0 * h ** 2)
    res = -d2 + (p.q1[2:-2] + 0.25) * e[2:-2]
    scale = np.abs(e[2:-2])
    assert np.max(np.abs(res) / np.maximum(scale, 1.0)) < 1e-6


def test_eta_matches_quadrature(example1_basis):
    # eta = e * int_0^x dt/e^2 wherever e is comfortably nonzero
    p, basis = example1_basis
    g = p.grid
    c = g.center_index
    integrand = 1.0 / basis.e ** 2
    F = cumulative_integral_from_left(g, integrand)
    F = F - F[c]
    mask = np.abs(basis.e) > 1e-3
    expected = basis.e * F
    rel = np.abs(basis.eta[mask] - expected[mask]) / np.maximum(
        np.abs(expected[mask]), 1e-6)
    assert np.max(rel) < 1e-6


def test_degenerate_normalization_detected():
    # a potential contrived to push e(i/2, 0) through zero is hard to build;
    # instead check the guard directly by feeding a potential so large the
    # basis oscillates through zero at the origin
    g = zs.UniformGrid(6.0, 4001)
    q = 40.0 / np.cosh(g.nodes) ** 2
    import dataclasses
    p0 = zs.evaluate(zs.PotentialSpec(preset="zero", params={}), g)
    qp = differentiate(g, q)
    q1 = -1j * qp - q ** 2
    p = dataclasses.replace(p0, q=q, q_prime=qp, q1=q1, q2=np.conj(q1))
    try:
        basis = zs.compute_basis(p)
    except BasisDegenerate:
        return
    assert abs(basis.e[g.center_index]) >= 1e-10


def test_reach_stops_the_sweeps(example1_basis):
    p, full = example1_basis
    c, n = p.grid.center_index, p.grid.n_points
    reach = 40
    basis = zs.compute_basis(p, reach=reach)
    assert basis.reach == reach and full.reach == c
    for names, reached in ((("e", "e_prime", "eta", "eta_prime"), slice(c - reach, n)),
                           (("g", "g_prime", "xi", "xi_prime"), slice(0, c + reach + 1))):
        for name in names:
            got, ref = getattr(basis, name), getattr(full, name)
            assert np.array_equal(got[reached], ref[reached]), name
            outside = np.ones(n, dtype=bool)
            outside[reached] = False
            assert np.all(np.isnan(got[outside])), name
    with pytest.raises(ValueError):
        zs.compute_basis(p, reach=-1)
