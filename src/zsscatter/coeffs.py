"""Recurrent integration producing the power-series coefficient tables.

The tables hold a_n(x), b_n(x) for n = 0..N_max; everything downstream
(scattering coefficients, eigenvalue polynomial, inverse solves) is built
from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import JostBasis
from .errors import NonFiniteValue
from .numerics import (
    UniformGrid,
    cumulative_integral_from_left,
    cumulative_integral_from_right,
)
from .potentials import SampledPotential

__all__ = [
    "CoefficientTable",
    "TruncationReport",
    "compute_coefficients",
    "select_truncation_direct",
    "tail_estimate",
]

DEFAULT_N_MAX = 250


@dataclass(frozen=True)
class CoefficientTable:
    grid: UniformGrid
    N_max: int
    a: np.ndarray  # (N_max+1, n_points) complex
    b: np.ndarray  # (N_max+1, n_points) complex

    @property
    def a0(self) -> np.ndarray:
        return self.a[0]

    @property
    def b0(self) -> np.ndarray:
        return self.b[0]


@dataclass(frozen=True)
class TruncationReport:
    N_L: int
    N_R: int
    eps_L: np.ndarray
    eps_R: np.ndarray

    @property
    def chosen_N(self) -> int:
        return max(self.N_L, self.N_R)


def compute_coefficients(
    basis: JostBasis, p: SampledPotential, N_max: int = DEFAULT_N_MAX
) -> CoefficientTable:
    """Run the coefficient recurrence up to order N_max.

    The integrands use the analytically expanded derivatives of the
    basis-times-exponential products, e.g. (e*exp(-t/2))' = (e' - e/2)exp(-t/2),
    so no numerical differentiation enters the recurrence.
    """
    if basis.grid is not p.grid and basis.grid != p.grid:
        raise ValueError("basis and potential must share the grid")
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    grid = p.grid
    exp_half = np.exp(grid.nodes / 2.0)
    e, g, eta, xi = basis.e, basis.g, basis.eta, basis.xi

    a = np.empty((N_max + 1, grid.n_points), dtype=complex)
    b = np.empty_like(a)
    a[0] = e * exp_half - 1.0
    b[0] = g / exp_half - 1.0

    # derivative weights for the recurrence integrands
    w_e = (basis.e_prime - 0.5 * e) / exp_half  # (e exp(-t/2))'
    w_eta = (basis.eta_prime - 0.5 * eta) / exp_half  # (eta exp(-t/2))'
    w_g = (basis.g_prime + 0.5 * g) * exp_half  # (g exp(t/2))'
    w_xi = (basis.xi_prime + 0.5 * xi) * exp_half  # (xi exp(t/2))'

    e_m = e / exp_half
    eta_m = eta / exp_half
    g_p = g * exp_half
    xi_p = xi * exp_half

    J1 = np.zeros(grid.n_points, dtype=complex)
    J2 = np.zeros_like(J1)
    I1 = np.zeros_like(J1)
    I2 = np.zeros_like(J1)
    for n in range(1, N_max + 1):
        ap = a[n - 1]
        bp = b[n - 1]
        J1 = J1 - e_m * ap - cumulative_integral_from_right(grid, w_e * ap)
        J2 = J2 - eta_m * ap - cumulative_integral_from_right(grid, w_eta * ap)
        I1 = I1 + g_p * bp - cumulative_integral_from_left(grid, w_g * bp)
        I2 = I2 + xi_p * bp - cumulative_integral_from_left(grid, w_xi * bp)
        a[n] = a[0] - 2.0 * exp_half * (eta * J1 - e * J2)
        b[n] = b[0] + 2.0 * (xi * I1 - g * I2) / exp_half
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NonFiniteValue(
            "coefficient recurrence overflowed; reduce N_max or refine the grid"
        )
    return CoefficientTable(grid=grid, N_max=N_max, a=a, b=b)


def select_truncation_direct(
    table: CoefficientTable, p: SampledPotential
) -> TruncationReport:
    """Pick the direct-problem truncation order from the sum rules.

    eps_L(N) and eps_R(N) measure how far the partial sums of b_n(0) and
    a_n(0) sit from the half-line integrals of q1; the report keeps the two
    argmins (ties to smaller N) and exposes their maximum as chosen_N.
    """
    grid = table.grid
    mid = grid.center_index
    F = cumulative_integral_from_left(grid, p.q1)
    int_left = F[mid]  # integral of q1 over [-a, 0]
    int_right = F[-1] - F[mid]  # integral over [0, a]
    b_partial = np.cumsum(table.b[:, mid])
    a_partial = np.cumsum(table.a[:, mid])
    eps_L = np.abs(b_partial - 0.5 * int_left)
    eps_R = np.abs(a_partial - 0.5 * int_right)
    return TruncationReport(
        N_L=int(np.argmin(eps_L)),
        N_R=int(np.argmin(eps_R)),
        eps_L=eps_L,
        eps_R=eps_R,
    )


def tail_estimate(table: CoefficientTable, N: int, x_index: int) -> float:
    """Truncated Parseval tail (sum_{n>N} |b_n(x)|^2)^(1/2) at one node."""
    if not 0 <= N <= table.N_max:
        raise ValueError("N out of range")
    tail = table.b[N + 1 :, x_index]
    return float(np.sqrt(np.sum(np.abs(tail) ** 2)))

