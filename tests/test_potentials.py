"""Potential presets, derived Schrödinger potentials, and CSV ingestion."""

import numpy as np
import pytest

import zsscatter as zs
from zsscatter.errors import DomainTooSmall, NonRealPotential
from zsscatter.numerics import differentiate
from zsscatter.potentials import write_potential_csv


def test_preset_names():
    names = zs.preset_names()
    for expected in ("zero", "sech_scaled", "sech_amplitude",
                     "example3", "example4"):
        assert expected in names


def test_zero_potential():
    p = zs.evaluate(zs.PotentialSpec(preset="zero", params={}),
                    zs.UniformGrid(5.0, 101))
    assert np.all(p.q == 0.0)
    assert np.all(p.q1 == 0.0)
    assert np.all(p.q2 == 0.0)


def test_sech_scaled_center_value():
    # q(x) = pi sech(pi x) is even, so q'(0)=0 and q1(0) = -q(0)^2 = -pi^2
    p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}),
                    zs.UniformGrid(5.0, 101))
    c = p.grid.center_index
    assert abs(p.q[c] - np.pi) < 1e-14
    assert abs(p.q_prime[c]) < 1e-14
    assert abs(p.q1[c] + np.pi ** 2) < 1e-12


def test_example4_center_value():
    s2 = np.sqrt(2.0)
    expected = -4.0 * s2 * (s2 - 1.0) / ((s2 - 1.0) ** 2 + 1.0)
    p = zs.evaluate(zs.PotentialSpec(preset="example4", params={}),
                    zs.UniformGrid(5.0, 101))
    assert abs(p.q[p.grid.center_index] - expected) < 1e-14


def test_conjugacy_and_identity():
    p = zs.evaluate(zs.PotentialSpec(preset="example3", params={"mu": np.pi / 7}),
                    zs.UniformGrid(10.0, 501))
    assert np.array_equal(p.q2, np.conj(p.q1))
    assert np.max(np.abs(p.q1 + p.q2 + 2.0 * p.q ** 2)) < 1e-12


@pytest.mark.parametrize("preset,params", [
    ("sech_scaled", {"mu": np.pi}),
    ("sech_amplitude", {"mu": 2.3}),
])
def test_even_presets(preset, params):
    p = zs.evaluate(zs.PotentialSpec(preset=preset, params=params),
                    zs.UniformGrid(8.0, 801))
    assert abs(p.q_prime[p.grid.center_index]) < 1e-12
    assert np.max(np.abs(p.q1[::-1] - np.conj(p.q1))) < 1e-12


def test_derivative_matches_finite_differences():
    g = zs.UniformGrid(10.0, 4001)
    p = zs.evaluate(zs.PotentialSpec(preset="example4", params={}), g)
    fd = differentiate(g, p.q)
    assert np.max(np.abs(fd - p.q_prime)) < 1e-6


def test_csv_roundtrip(tmp_path):
    g = zs.UniformGrid(8.0, 1601)
    p = zs.evaluate(zs.PotentialSpec(preset="sech_amplitude", params={"mu": 1.5}), g)
    path = tmp_path / "q.csv"
    fine = zs.UniformGrid(9.0, 3601)
    write_potential_csv(str(path),
                           fine,
                           1.5 / np.cosh(fine.nodes))
    p2 = zs.evaluate(zs.PotentialSpec(path=str(path)), g)
    assert np.max(np.abs(p2.q1 - p.q1)) < 1e-8


def test_csv_domain_too_small(tmp_path):
    path = tmp_path / "q.csv"
    small = zs.UniformGrid(2.0, 101)
    write_potential_csv(str(path), small, np.exp(-small.nodes ** 2))
    with pytest.raises(DomainTooSmall):
        zs.evaluate(zs.PotentialSpec(path=str(path)), zs.UniformGrid(5.0, 101))


def test_csv_rejects_complex(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("x,q\n-1.0,0.0\n0.0,1j\n1.0,0.0\n")
    with pytest.raises((NonRealPotential, ValueError)):
        zs.evaluate(zs.PotentialSpec(path=str(path)), zs.UniformGrid(1.0, 11))


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", [0, 1])
def test_csv_rejects_non_finite_samples(tmp_path, column, value):
    # float() parses both, and a NaN x passes the ordering check
    rows = [[f"{x:.2f}", f"{np.exp(-x * x):.6f}"] for x in np.linspace(-2.0, 2.0, 41)]
    rows[20][column] = value
    path = tmp_path / "q.csv"
    path.write_text("x,q\n" + "".join(f"{x},{q}\n" for x, q in rows))
    with pytest.raises(NonRealPotential, match="x and q must be finite numbers"):
        zs.evaluate(zs.PotentialSpec(path=str(path)), zs.UniformGrid(1.0, 11))


def test_decay_check_clean_for_zero():
    p = zs.evaluate(zs.PotentialSpec(preset="zero", params={}),
                    zs.UniformGrid(15.0, 301))
    assert zs.decay_check(p) == []


def test_decay_check_clean_for_example1():
    p = zs.evaluate(zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}),
                    zs.UniformGrid(15.0, 2001))
    assert zs.decay_check(p) == []


def test_decay_check_warns_for_slow_decay(tmp_path):
    g = zs.UniformGrid(15.0, 2001)
    path = tmp_path / "lorentz.csv"
    wide = zs.UniformGrid(16.0, 3201)
    write_potential_csv(str(path), wide, 1.0 / (1.0 + wide.nodes ** 2))
    p = zs.evaluate(zs.PotentialSpec(path=str(path)), g)
    warnings = zs.decay_check(p)
    assert len(warnings) == 2
