"""Scattering coefficients, eigenvalues, norming constants, oracle checks."""

import json

import numpy as np
import pytest

import zsscatter as zs
from zsscatter.direct import Eigenvalue, ScatteringData
from zsscatter.errors import DivisionNearZero
from zsscatter.jost import JostFactors


def test_zero_potential_scattering(zero_direct):
    _, sd = zero_direct
    assert np.max(np.abs(sd.a_values - 1.0)) < 1e-12
    assert np.max(np.abs(sd.b_values)) < 1e-12
    assert sd.M == 0


def test_zero_potential_a_polynomial(zero_direct):
    p, _ = zero_direct
    table = zs.compute_coefficients(zs.compute_basis(p), p, 10)
    poly = zs.a_polynomial(table, 10)
    assert abs(poly[0] - 1.0) < 1e-12
    assert np.max(np.abs(poly[1:])) < 1e-10


def _a_from_factors(factors, z):
    """a = P_b P_a + (z+1)^2 S_b S_a from the factor values."""
    Pb, Sb, Pa, Sa = factors.evaluate(z)
    return Pb * Pa + (z + 1.0) ** 2 * Sb * Sa


def test_polynomial_matches_series(ex1_direct):
    _, sd = ex1_direct
    table = sd.meta["table"]
    N = sd.meta["n_terms"]
    poly = zs.a_polynomial(table, N)
    factors = JostFactors.from_table(table, N)
    rng = np.random.default_rng(3)
    for rho in rng.uniform(-20.0, 20.0, size=50):
        z = zs.z_of_rho(complex(rho))
        direct = _a_from_factors(factors, z)
        horner = 0.0j
        for c in poly[::-1]:
            horner = horner * z + c
        assert abs(horner - direct) < 1e-10


def test_a_parity_off_axis(ex1_direct):
    _, sd = ex1_direct
    table = sd.meta["table"]
    N = sd.meta["n_terms"]
    factors = JostFactors.from_table(table, N)
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = complex(rng.uniform(-3, 3), rng.uniform(0.01, 2.0))
        a_plus = _a_from_factors(factors, zs.z_of_rho(rho))
        a_minus = _a_from_factors(factors, zs.z_of_rho(-np.conj(rho)))
        assert abs(a_minus - np.conj(a_plus)) < 1e-10


@pytest.mark.parametrize("fixture", ["ex1_direct", "ex2_direct",
                                     "ex3_direct", "ex4_direct"])
def test_unitarity_and_parity(fixture, request):
    _, sd = request.getfixturevalue(fixture)
    report = zs.validate_scattering(sd)
    assert report["unitarity_defect"] <= 1e-6
    assert report["a_parity_defect"] <= 1e-10
    assert report["b_parity_defect"] <= 1e-10
    assert report["eigenvalue_pairing_defect"] <= 1e-8
    assert report["norming_symmetry_defect"] <= 1e-6


def test_root_set_conjugation_closure(ex3_direct):
    _, sd = ex3_direct
    zvals = np.array([ev.z for ev in sd.eigenvalues])
    for z in zvals:
        assert np.min(np.abs(zvals - np.conj(z))) < 1e-8


def test_eigenvalue_counts(ex1_direct, ex2_direct, ex3_direct, ex4_direct,
                           zero_direct):
    assert ex1_direct[1].M == 1
    assert ex2_direct[1].M == 5
    assert ex3_direct[1].M == 2
    assert ex4_direct[1].M == 1
    assert zero_direct[1].M == 0


def test_norming_constant_symmetry_example3(ex3_direct):
    _, sd = ex3_direct
    rhos = np.array([ev.rho for ev in sd.eigenvalues])
    partner = int(np.argmin(np.abs(rhos + np.conj(rhos[0]))))
    assert abs(sd.norming_constants[partner]
               - np.conj(sd.norming_constants[0])) < 1e-6


def test_oracle_zero_potential(zero_direct):
    p, _ = zero_direct
    rho = np.linspace(-5.0, 5.0, 21)
    a_vals, b_vals = zs.oracle_scatter(p, rho)
    assert np.max(np.abs(a_vals - 1.0)) < 1e-10
    assert np.max(np.abs(b_vals)) < 1e-10


def test_oracle_agreement_example1(ex1_direct):
    p, sd = ex1_direct
    mask = np.abs(sd.rho_grid) <= 10.0
    rho = sd.rho_grid[mask][::20]
    a_o, b_o = zs.oracle_scatter(p, rho)
    a_s = sd.a_values[mask][::20]
    b_s = sd.b_values[mask][::20]
    assert np.max(np.abs(a_s - a_o)) < 1e-5
    assert np.max(np.abs(b_s - b_o)) < 1e-5


def test_oracle_agreement_example3(ex3_direct):
    p, sd = ex3_direct
    mask = np.abs(sd.rho_grid) <= 10.0
    rho = sd.rho_grid[mask][::20]
    a_o, b_o = zs.oracle_scatter(p, rho)
    assert np.max(np.abs(sd.a_values[mask][::20] - a_o)) < 1e-6
    assert np.max(np.abs(sd.b_values[mask][::20] - b_o)) < 1e-6


def test_reflection_transmission(ex3_direct):
    _, sd = ex3_direct
    R = zs.reflection(sd)
    T = zs.transmission(sd)
    assert np.allclose(R * sd.a_values, sd.b_values)
    assert np.allclose(T * sd.a_values, 1.0)


def test_reflection_near_zero_a():
    sd = ScatteringData(
        rho_grid=np.array([0.0]),
        a_values=np.array([1e-14 + 0j]),
        b_values=np.array([1.0 + 0j]),
        eigenvalues=(),
        norming_constants=np.zeros(0, dtype=complex),
        meta={},
    )
    with pytest.raises(DivisionNearZero):
        zs.reflection(sd)


def test_json_roundtrip(ex1_direct):
    _, sd = ex1_direct
    text = zs.scattering_to_json(sd)
    sd2 = zs.scattering_from_json(text)
    assert np.array_equal(sd2.rho_grid, sd.rho_grid)
    assert np.array_equal(sd2.a_values, sd.a_values)
    assert np.array_equal(sd2.b_values, sd.b_values)
    assert sd2.M == sd.M
    assert np.array_equal(sd2.norming_constants, sd.norming_constants)
    # deterministic: serializing the parsed copy is byte-identical
    assert zs.scattering_to_json(sd2) == text


def test_json_field_order(ex4_direct):
    _, sd = ex4_direct
    payload = json.loads(zs.scattering_to_json(sd))
    assert list(payload.keys()) == ["rho", "a_re", "a_im", "b_re", "b_im",
                                    "eigenvalues", "norming", "n_terms",
                                    "potential_desc"]


def test_csv_export(tmp_path, zero_direct):
    _, sd = zero_direct
    path = tmp_path / "scattering.csv"
    zs.write_scattering_csv(str(path), sd)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,re_a,im_a,re_b,im_b"
    assert len(lines) == sd.rho_grid.size + 1


def test_truncation_at_cap_is_recorded(ex1_direct):
    p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": 1.5}),
                    zs.UniformGrid(8.0, 801))
    sd = zs.solve_direct(p, rho_count=200, N_max=10)
    assert sd.meta["n_terms"] == 10
    assert sd.meta["truncation"]["at_cap"] is True
    assert ex1_direct[1].meta["truncation"]["at_cap"] is False
