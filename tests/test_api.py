"""The top-level package: what it exports and what importing it loads."""

import os
import subprocess
import sys

import zsscatter as zs

PUBLIC = [
    "UniformGrid", "PotentialSpec", "SampledPotential", "evaluate", "decay_check",
    "preset_names", "compute_basis", "compute_coefficients", "solve_direct",
    "ScatteringData", "Eigenvalue", "oracle_scatter", "validate_scattering",
    "scattering_to_json", "scattering_from_json", "write_scattering_csv",
    "InverseConfig", "solve_inverse", "assemble_system", "RecoveredPotential",
    "RecoveredCoefficients",
]


def test_all_is_the_public_api():
    assert sorted(zs.__all__) == sorted(PUBLIC)
    assert len(zs.__all__) == len(set(zs.__all__)) == 21


def test_every_public_name_resolves():
    namespace = {}
    exec("from zsscatter import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(zs, name)
        assert getattr(zs, name).__module__.startswith("zsscatter.")


def test_import_leaves_out_scipy_interpolate():
    # only sampled potentials need the spline, and scipy.interpolate pulls in
    # scipy.optimize; a fresh interpreter, since other tests import it
    src = os.path.dirname(os.path.dirname(zs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, zsscatter; assert 'scipy.interpolate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
