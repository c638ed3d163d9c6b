"""Recurrent integration producing the power-series coefficients.

The recurrence yields a_n(x), b_n(x) on the whole grid one order at a time,
n = 0..N_max.  The direct problem needs only their values at x = 0
(``center_series``); ``compute_coefficients`` stacks every order into the
full x-table for diagnostics and tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import JostBasis
from .errors import NonFiniteValue
from .numerics import CumulativeIntegrator, UniformGrid, cumulative_integral_from_left
from .potentials import SampledPotential

__all__ = [
    "CoefficientSeries",
    "CoefficientTable",
    "TruncationReport",
    "center_series",
    "compute_coefficients",
    "select_truncation_direct",
    "tail_estimate",
]

DEFAULT_N_MAX = 250


@dataclass(frozen=True)
class CoefficientSeries:
    """a_n and b_n at one x node for n = 0..N_max."""

    a: np.ndarray  # (N_max+1,) complex
    b: np.ndarray  # (N_max+1,) complex

    @property
    def N_max(self) -> int:
        return self.a.size - 1


@dataclass(frozen=True)
class CoefficientTable:
    grid: UniformGrid
    N_max: int
    a: np.ndarray  # (N_max+1, n_points) complex
    b: np.ndarray  # (N_max+1, n_points) complex

    def series_at(self, x_index: int) -> CoefficientSeries:
        return CoefficientSeries(a=self.a[:, x_index], b=self.b[:, x_index])

    @property
    def center(self) -> CoefficientSeries:
        """The series at x = 0."""
        return self.series_at(self.grid.center_index)


@dataclass(frozen=True)
class TruncationReport:
    N_L: int
    N_R: int
    eps_L: np.ndarray
    eps_R: np.ndarray

    @property
    def chosen_N(self) -> int:
        return max(self.N_L, self.N_R)


def _recurrence(
    basis: JostBasis, p: SampledPotential, N_max: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(a_n, b_n) on the grid for n = 0..N_max, one order at a time.

    The arguments are checked at once; the orders are computed as they are
    drawn, and a non-finite order raises NonFiniteValue when it is reached.
    The yielded arrays are reused for the next order: copy what you keep.
    """
    if basis.grid is not p.grid and basis.grid != p.grid:
        raise ValueError("basis and potential must share the grid")
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    return _orders(basis, p.grid, N_max)


def _orders(
    basis: JostBasis, grid: UniformGrid, N_max: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The recurrence loop.

    The integrands use the analytically expanded derivatives of the
    basis-times-exponential products, e.g. (e*exp(-t/2))' = (e' - e/2)exp(-t/2),
    so no numerical differentiation enters the recurrence.  The four running
    integrals, the previous order and two scratch arrays are updated in
    place, so the loop allocates nothing per order and each yielded pair is
    overwritten by the next order.  Each update performs the operations of
    the expression in its comment, in that order.
    """
    exp_half = np.exp(grid.nodes / 2.0)
    e, g, eta, xi = basis.e, basis.g, basis.eta, basis.xi

    a0 = e * exp_half - 1.0
    b0 = g / exp_half - 1.0

    # derivative weights for the recurrence integrands
    w_e = (basis.e_prime - 0.5 * e) / exp_half  # (e exp(-t/2))'
    w_eta = (basis.eta_prime - 0.5 * eta) / exp_half  # (eta exp(-t/2))'
    w_g = (basis.g_prime + 0.5 * g) * exp_half  # (g exp(t/2))'
    w_xi = (basis.xi_prime + 0.5 * xi) * exp_half  # (xi exp(t/2))'

    e_m = e / exp_half
    eta_m = eta / exp_half
    g_p = g * exp_half
    xi_p = xi * exp_half
    two_exp_half = 2.0 * exp_half

    quad = CumulativeIntegrator(grid)
    J1, J2, I1, I2 = (np.zeros(grid.n_points, dtype=complex) for _ in range(4))
    ap, bp = a0.copy(), b0.copy()
    t = np.empty(grid.n_points, dtype=complex)
    u = np.empty_like(t)
    for n in range(N_max + 1):
        if n > 0:
            # J1 = J1 - e_m ap - (integral of w_e ap from x to +a); J2 likewise
            for J, m, w in ((J1, e_m, w_e), (J2, eta_m, w_eta)):
                J -= np.multiply(m, ap, out=t)
                J -= quad.from_right(np.multiply(w, ap, out=t), out=u)
            # I1 = I1 + g_p bp - (integral of w_g bp from -a to x); I2 likewise
            for I, m, w in ((I1, g_p, w_g), (I2, xi_p, w_xi)):
                I += np.multiply(m, bp, out=t)
                I -= quad.from_left(np.multiply(w, bp, out=t), out=u)
            # ap = a0 - (2 exp_half) (eta J1 - e J2)
            np.multiply(eta, J1, out=t)
            t -= np.multiply(e, J2, out=u)
            np.subtract(a0, np.multiply(two_exp_half, t, out=t), out=ap)
            # bp = b0 + 2 (xi I1 - g I2) / exp_half
            np.multiply(xi, I1, out=t)
            t -= np.multiply(g, I2, out=u)
            np.multiply(2.0, t, out=t)
            np.add(b0, np.divide(t, exp_half, out=t), out=bp)
        if not (np.all(np.isfinite(ap)) and np.all(np.isfinite(bp))):
            raise NonFiniteValue(
                "coefficient recurrence overflowed; reduce N_max or refine the grid"
            )
        yield ap, bp


def center_series(
    basis: JostBasis, p: SampledPotential, N_max: int = DEFAULT_N_MAX
) -> CoefficientSeries:
    """Run the coefficient recurrence up to order N_max, keeping only x = 0."""
    rows = _recurrence(basis, p, N_max)
    c = p.grid.center_index
    a = np.empty(N_max + 1, dtype=complex)
    b = np.empty_like(a)
    for n, (a_n, b_n) in enumerate(rows):
        a[n] = a_n[c]
        b[n] = b_n[c]
    return CoefficientSeries(a=a, b=b)


def compute_coefficients(
    basis: JostBasis, p: SampledPotential, N_max: int = DEFAULT_N_MAX
) -> CoefficientTable:
    """Run the coefficient recurrence up to order N_max, keeping every x node.

    The table takes (N_max + 1) x n_points complex numbers for each of a and
    b; it serves diagnostics away from x = 0 (``eval_jost``, ``tail_estimate``).
    """
    rows = _recurrence(basis, p, N_max)
    a = np.empty((N_max + 1, p.grid.n_points), dtype=complex)
    b = np.empty_like(a)
    for n, (a_n, b_n) in enumerate(rows):
        a[n] = a_n
        b[n] = b_n
    return CoefficientTable(grid=p.grid, N_max=N_max, a=a, b=b)


def select_truncation_direct(
    series: CoefficientSeries, p: SampledPotential
) -> TruncationReport:
    """Pick the direct-problem truncation order from the sum rules.

    eps_L(N) and eps_R(N) measure how far the partial sums of b_n(0) and
    a_n(0) sit from the half-line integrals of q1; the report keeps the two
    argmins (ties to smaller N) and exposes their maximum as chosen_N.
    """
    grid = p.grid
    mid = grid.center_index
    F = cumulative_integral_from_left(grid, p.q1)
    int_left = F[mid]  # integral of q1 over [-a, 0]
    int_right = F[-1] - F[mid]  # integral over [0, a]
    b_partial = np.cumsum(series.b)
    a_partial = np.cumsum(series.a)
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

