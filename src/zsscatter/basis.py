"""Jost solutions of the Schroedinger equation with potential q1 at rho = i/2.

This is the single ODE solve the whole method rests on: e and g with their
derivatives, plus the companion solutions eta and xi fixing the Wronskians
W[e, eta] = 1 and W[g, xi] = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisDegenerate
from .numerics import UniformGrid, integrate_linear_ode2
from .potentials import SampledPotential

__all__ = ["JostBasis", "compute_basis"]


@dataclass(frozen=True)
class JostBasis:
    """The basis functions on a grid, computed ``reach`` nodes past x = 0.

    e, eta and their derivatives hold values on the nodes c - reach ... n - 1,
    g, xi and theirs on 0 ... c + reach (c the centre index); the other nodes
    hold NaN.  ``reach`` = c is the whole grid.
    """

    grid: UniformGrid
    e: np.ndarray
    e_prime: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    eta: np.ndarray
    eta_prime: np.ndarray
    xi: np.ndarray
    xi_prime: np.ndarray
    reach: int


def _two_sided(grid, Q, center, value, slope, left_stop, right_stop):
    wl, wpl = integrate_linear_ode2(grid, Q, 0.0, center, value, slope, -1, left_stop)
    wr, wpr = integrate_linear_ode2(grid, Q, 0.0, center, value, slope, +1, right_stop)
    w = np.concatenate([wl[:center], wr[center:]])
    wp = np.concatenate([wpl[:center], wpr[center:]])
    return w, wp


def compute_basis(p: SampledPotential, reach: int | None = None) -> JostBasis:
    """Compute e(i/2,.), g(i/2,.), eta, xi and derivatives on the grid.

    e and g are obtained through the substitutions w = e*exp(x/2) and
    w = g*exp(-x/2), which turn the boundary normalizations into plain
    initial conditions w = 1, w' = 0 at the respective grid ends.  eta and
    xi are grown from x = 0 with the initial slopes 1/e(0) and -1/g(0),
    which reproduces the standard reduction-of-order solutions without
    dividing by e^2 or g^2 anywhere.

    The coefficient recurrence integrates e and eta only towards +a and g
    and xi only towards -a, so the series at x = 0 up to order N_max needs
    e and eta only down to N_max nodes left of x = 0, and g and xi only up
    to N_max nodes right of it (see ``coeffs.center_series``).  With
    ``reach`` given, the sweeps of e and eta stop ``reach`` nodes left of
    x = 0 and those of g and xi ``reach`` nodes right of it; the nodes
    beyond hold NaN.  The default, or any reach of at least the centre
    index, is the whole grid.  Every value on a reached node is the same,
    bit for bit, as on a whole-grid basis.  The sweeps' overflow checks
    cover the reached nodes only, so an overflow beyond the reach does not
    raise.
    """
    grid = p.grid
    mid = grid.center_index
    if reach is None:
        reach = mid
    elif reach < 0:
        raise ValueError("reach must be >= 0")
    reach = min(int(reach), mid)
    x = grid.nodes
    exp_half = np.exp(x / 2.0)

    # e: w'' - w' = q1 w, leftward sweep from x = +a
    w, wp = integrate_linear_ode2(
        grid, p.q1, -1.0, grid.n_points - 1, 1.0, 0.0, -1, mid - reach
    )
    e = w / exp_half
    e_prime = (wp - 0.5 * w) / exp_half

    # g: w'' + w' = q1 w, rightward sweep from x = -a
    w, wp = integrate_linear_ode2(grid, p.q1, +1.0, 0, 1.0, 0.0, +1, mid + reach)
    g = w * exp_half
    g_prime = (wp + 0.5 * w) * exp_half

    if abs(e[mid]) < 1e-10 or abs(g[mid]) < 1e-10:
        raise BasisDegenerate("e(i/2,0) or g(i/2,0) is numerically zero")

    Q_eff = p.q1 + 0.25  # eta'' = (q1 + 1/4) eta, and likewise xi
    last = grid.n_points - 1
    eta, eta_prime = _two_sided(grid, Q_eff, mid, 0.0, 1.0 / e[mid], mid - reach, last)
    xi, xi_prime = _two_sided(grid, Q_eff, mid, 0.0, -1.0 / g[mid], 0, mid + reach)

    return JostBasis(
        grid=grid,
        e=e,
        e_prime=e_prime,
        g=g,
        g_prime=g_prime,
        eta=eta,
        eta_prime=eta_prime,
        xi=xi,
        xi_prime=xi_prime,
        reach=reach,
    )
