"""Direct and inverse Zakharov-Shabat scattering via mapped-parameter power series.

The top level holds what the command line and a typical script need; the
lower-level pieces live in the submodules (``zsscatter.coeffs``,
``zsscatter.jost``, ``zsscatter.numerics``, ...).
"""

from .basis import compute_basis
from .coeffs import compute_coefficients
from .direct import (
    Eigenvalue,
    ScatteringData,
    oracle_scatter,
    scattering_from_json,
    scattering_to_json,
    solve_direct,
    validate_scattering,
    write_scattering_csv,
)
from .inverse import (
    InverseConfig,
    RecoveredCoefficients,
    RecoveredPotential,
    assemble_system,
    solve_inverse,
)
from .numerics import UniformGrid
from .potentials import PotentialSpec, SampledPotential, decay_check, evaluate, preset_names

__version__ = "0.1.0"

__all__ = [
    "UniformGrid",
    "PotentialSpec",
    "SampledPotential",
    "evaluate",
    "decay_check",
    "preset_names",
    "compute_basis",
    "compute_coefficients",
    "solve_direct",
    "ScatteringData",
    "Eigenvalue",
    "oracle_scatter",
    "validate_scattering",
    "scattering_to_json",
    "scattering_from_json",
    "write_scattering_csv",
    "InverseConfig",
    "solve_inverse",
    "assemble_system",
    "RecoveredPotential",
    "RecoveredCoefficients",
]
