"""Shared fixtures: the four reference potentials and their pipelines.

The direct solves and roundtrips are expensive, so they are computed once
per session and shared by the module tests and the acceptance suite.  The
direct solve keeps only the x = 0 series; tests that look at a_n(x), b_n(x)
away from x = 0 use the full coefficient tables built here.
"""

import numpy as np
import pytest

import zsscatter as zs

MU2 = 5.0 + np.pi / 7.0
MU3 = np.pi / 7.0
SQRT2 = np.sqrt(2.0)


def q_example1(x):
    return np.pi / np.cosh(np.pi * x)


def q_example2(x):
    return MU2 / np.cosh(x)


def q_example3(x):
    return MU3 * np.cosh(x) ** (-np.pi / 3.0) - np.exp(-((x - 2.0) ** 2))


def q_example4(x):
    return -4.0 * SQRT2 * (SQRT2 - 1.0) / (
        (SQRT2 - 1.0) ** 2 * np.exp(-2.0 * SQRT2 * x) + np.exp(2.0 * SQRT2 * x)
    )


EXAMPLES = {
    "ex1": {
        "spec": zs.PotentialSpec(preset="sech_scaled", params={"mu": np.pi}),
        "grid": (15.0, 16001),
        "q": q_example1,
        "inverse": dict(N=25, x_points=4001),
        "roundtrip_tol": 1e-5,
    },
    "ex2": {
        "spec": zs.PotentialSpec(preset="sech_amplitude", params={"mu": MU2}),
        "grid": (30.0, 32001),
        "q": q_example2,
        "inverse": dict(N="auto", x_half_width=7.0),
        "roundtrip_tol": 0.5,
    },
    "ex3": {
        "spec": zs.PotentialSpec(preset="example3", params={"mu": MU3}),
        "grid": (25.0, 26669),
        "q": q_example3,
        "inverse": dict(N=64),
        "roundtrip_tol": 1e-2,
    },
    "ex4": {
        "spec": zs.PotentialSpec(preset="example4", params={}),
        "grid": (15.0, 16001),
        "q": q_example4,
        "inverse": dict(N=25, x_points=4001),
        "roundtrip_tol": 1e-5,
    },
}


def _direct(name):
    cfg = EXAMPLES[name]
    half_width, n_points = cfg["grid"]
    p = zs.evaluate(cfg["spec"], zs.UniformGrid(half_width, n_points))
    return p, zs.solve_direct(p)


def _roundtrip(name, sd):
    cfg = EXAMPLES[name]
    rec, coeffs, info = zs.solve_inverse(sd, zs.InverseConfig(**cfg["inverse"]))
    g = rec.x_grid
    lo = int(0.05 * g.n_points)
    inner = slice(lo, g.n_points - lo)
    err = float(np.max(np.abs(rec.chosen[inner] - cfg["q"](g.nodes)[inner])))
    return rec, coeffs, info, err


@pytest.fixture(scope="session")
def ex1_direct():
    return _direct("ex1")


@pytest.fixture(scope="session")
def ex2_direct():
    return _direct("ex2")


@pytest.fixture(scope="session")
def ex3_direct():
    return _direct("ex3")


@pytest.fixture(scope="session")
def ex4_direct():
    return _direct("ex4")


def _full_table(direct):
    p, _ = direct
    return zs.compute_coefficients(zs.compute_basis(p), p)


@pytest.fixture(scope="session")
def ex1_full_table(ex1_direct):
    return _full_table(ex1_direct)


@pytest.fixture(scope="session")
def ex4_full_table(ex4_direct):
    return _full_table(ex4_direct)


@pytest.fixture(scope="session")
def ex1_roundtrip(ex1_direct):
    return _roundtrip("ex1", ex1_direct[1])


@pytest.fixture(scope="session")
def ex2_roundtrip(ex2_direct):
    return _roundtrip("ex2", ex2_direct[1])


@pytest.fixture(scope="session")
def ex3_roundtrip(ex3_direct):
    return _roundtrip("ex3", ex3_direct[1])


@pytest.fixture(scope="session")
def ex4_roundtrip(ex4_direct):
    return _roundtrip("ex4", ex4_direct[1])


@pytest.fixture(scope="session")
def zero_direct():
    p = zs.evaluate(zs.PotentialSpec(preset="zero", params={}),
                    zs.UniformGrid(15.0, 2001))
    return p, zs.solve_direct(p, rho_count=400)
