"""Recurrent integration producing the power-series coefficients.

The recurrence yields a_n(x), b_n(x) one order at a time, n = 0..N_max.
a_n is integrated from x towards +a and b_n from -a towards x, so the
series at x = 0 (all the direct problem needs) depends on a window of N_max
nodes on either side of x = 0 only: the a-chain runs on the nodes from
N_max left of x = 0 to +a, the b-chain on the nodes from -a to N_max right
of x = 0.  ``center_series`` runs it to a given order; ``settled_series``
stops it where the sum rules have settled.  ``compute_coefficients`` runs
both chains on the whole grid and stacks every order into the full x-table,
which the tests use to check the series away from x = 0.
"""

from __future__ import annotations

import math
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
    "settled_series",
]

DEFAULT_N_MAX = 250

# The sum-rule stop of ``settled_series``: the recurrence ends at order n once
# neither sum-rule defect has set a new minimum over the last STOP_WINDOW
# orders and every one of those orders lies within STOP_FACTOR of that
# defect's minimum.  Both rest on 408 eps curves of full N_max runs: the
# reference examples 1-4, sech_amplitude at mu = 2.25, 2.31 and 2.37 and the
# CLI default, 100 sech amplitudes in [0.6, 3.4] on [-30, 30] and 300 real
# bump sums drawn as the direct tests draw them.  The rule moved N on none;
# it stops examples 1 and 4 at orders 84 and 104, the three sech members at
# 131 and 26 of the bump sums before N_max.  Without the plateau condition
# (no new minimum for STOP_WINDOW orders as the whole rule) it moved N on 39
# of the bump sums, whose defect falls again after a spell above its
# minimum, and raised their unitarity defect up to 7000-fold (2.1e-10 to
# 1.5e-6) and to as much as 3.6e-3.
STOP_WINDOW = 50
STOP_FACTOR = 3.0


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

    @property
    def at_cap(self) -> bool:
        """Whether chosen_N is the highest order computed: the sum rules had
        not settled below it.

        eps_L and eps_R cover the orders computed.  ``settled_series`` stops
        at least STOP_WINDOW orders past both argmins, so for its series
        this holds only when no stop fired and chosen_N is N_max.
        """
        return self.chosen_N == self.eps_L.size - 1


def _recurrence(
    basis: JostBasis, p: SampledPotential, N_max: int, reach: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(a_n, b_n) on the windows ``reach`` nodes past x = 0, for n = 0..N_max.

    The arguments are checked at once; the orders are computed as they are
    drawn, and a non-finite order raises NonFiniteValue when it is reached.
    The yielded arrays are reused for the next order: copy what you keep.
    """
    if basis.grid is not p.grid and basis.grid != p.grid:
        raise ValueError("basis and potential must share the grid")
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    if basis.reach < reach:
        raise ValueError(
            f"the basis reaches {basis.reach} nodes past x = 0; "
            f"the recurrence needs {reach}"
        )
    return _orders(basis, p.grid, N_max, reach)


def _orders(
    basis: JostBasis, grid: UniformGrid, N_max: int, reach: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The recurrence loop.

    The a-chain (J1, J2, e, eta) runs on the nodes c - reach ... n - 1 and
    the b-chain (I1, I2, g, xi) on 0 ... c + reach, c the centre index; the
    yielded a_n and b_n cover those windows.  The integrands use the
    analytically expanded derivatives of the basis-times-exponential
    products, e.g. (e*exp(-t/2))' = (e' - e/2)exp(-t/2), so no numerical
    differentiation enters the recurrence.  The four running integrals, the
    previous order and scratch arrays are updated in place, so the loop
    allocates nothing per order and each yielded pair is overwritten by the
    next order.  Each update performs the operations of the expression in
    its comment, in that order, on every node of its window.
    """
    c = grid.center_index
    exp_half = np.exp(grid.nodes / 2.0)
    win_a = slice(c - reach, grid.n_points)
    win_b = slice(0, c + reach + 1)

    ex_a = exp_half[win_a]
    e, eta = basis.e[win_a], basis.eta[win_a]
    a0 = e * ex_a - 1.0
    w_e = (basis.e_prime[win_a] - 0.5 * e) / ex_a  # (e exp(-t/2))'
    w_eta = (basis.eta_prime[win_a] - 0.5 * eta) / ex_a  # (eta exp(-t/2))'
    e_m = e / ex_a
    eta_m = eta / ex_a
    two_ex_a = 2.0 * ex_a

    ex_b = exp_half[win_b]
    g, xi = basis.g[win_b], basis.xi[win_b]
    b0 = g / ex_b - 1.0
    w_g = (basis.g_prime[win_b] + 0.5 * g) * ex_b  # (g exp(t/2))'
    w_xi = (basis.xi_prime[win_b] + 0.5 * xi) * ex_b  # (xi exp(t/2))'
    g_p = g * ex_b
    xi_p = xi * ex_b

    quad_a = CumulativeIntegrator(a0.size, grid.step)
    quad_b = CumulativeIntegrator(b0.size, grid.step)
    J1, J2 = np.zeros(a0.size, dtype=complex), np.zeros(a0.size, dtype=complex)
    I1, I2 = np.zeros(b0.size, dtype=complex), np.zeros(b0.size, dtype=complex)
    ap, bp = a0.copy(), b0.copy()
    ta, ua = np.empty_like(ap), np.empty_like(ap)
    tb, ub = np.empty_like(bp), np.empty_like(bp)
    for n in range(N_max + 1):
        if n > 0:
            # J1 = J1 - e_m ap - (integral of w_e ap from x to +a); J2 likewise
            for J, m, w in ((J1, e_m, w_e), (J2, eta_m, w_eta)):
                J -= np.multiply(m, ap, out=ta)
                J -= quad_a.from_right(np.multiply(w, ap, out=ta), out=ua)
            # I1 = I1 + g_p bp - (integral of w_g bp from -a to x); I2 likewise
            for I, m, w in ((I1, g_p, w_g), (I2, xi_p, w_xi)):
                I += np.multiply(m, bp, out=tb)
                I -= quad_b.from_left(np.multiply(w, bp, out=tb), out=ub)
            # ap = a0 - (2 exp_half) (eta J1 - e J2)
            np.multiply(eta, J1, out=ta)
            ta -= np.multiply(e, J2, out=ua)
            np.subtract(a0, np.multiply(two_ex_a, ta, out=ta), out=ap)
            # bp = b0 + 2 (xi I1 - g I2) / exp_half
            np.multiply(xi, I1, out=tb)
            tb -= np.multiply(g, I2, out=ub)
            np.multiply(2.0, tb, out=tb)
            np.add(b0, np.divide(tb, ex_b, out=tb), out=bp)
        if not (np.all(np.isfinite(ap)) and np.all(np.isfinite(bp))):
            raise NonFiniteValue(
                "coefficient recurrence overflowed; reduce N_max or refine the grid"
            )
        yield ap, bp


def center_series(
    basis: JostBasis, p: SampledPotential, N_max: int = DEFAULT_N_MAX
) -> CoefficientSeries:
    """Run the coefficient recurrence up to order N_max, keeping only x = 0.

    Window bound (c the centre index, n_points >= 5): the order-n update of
    J1, J2 at node j adds the integral from x_j to +a.  Its subinterval
    [x_j, x_{j+1}] reads the nodes j - 1 ... j + 2, the other subintervals
    lie further right, and the one-sided last one reads n_points - 4 ...
    n_points - 1, right of c - 1.  So a_n on the nodes >= c - k (k >= 0)
    reads a_{n-1} only on nodes >= c - k - 1, and a_n(0) reads the basis
    only on nodes >= c - n.  Mirrored, b_n(0) reads only nodes <= c + n.  The a-chain
    therefore runs on the nodes c - N_max ... n_points - 1 and the b-chain
    on 0 ... c + N_max, clipped to the grid, and ``basis.reach`` must be at
    least min(N_max, c), else ValueError.  At a window's cut the first
    subinterval takes the one-sided cubic instead, so order n differs from
    a whole-grid run only on the n nodes next to the cut, never at x = 0
    for n <= N_max: the series is bit for bit the centre column of
    ``compute_coefficients``.

    The per-order finiteness check covers the two windows, exactly the
    nodes the series depends on: an overflow confined to nodes that cannot
    reach x = 0 within N_max orders does not raise.
    """
    a = np.empty(N_max + 1, dtype=complex)
    b = np.empty_like(a)
    for n, (a_n, b_n) in enumerate(_center_orders(basis, p, N_max)):
        a[n] = a_n
        b[n] = b_n
    return CoefficientSeries(a=a, b=b)


def _center_orders(
    basis: JostBasis, p: SampledPotential, N_max: int
) -> Iterator[tuple[complex, complex]]:
    """(a_n(0), b_n(0)) for n = 0..N_max, computed as they are drawn.

    The arguments are checked at once, as by ``_recurrence``.
    """
    c = p.grid.center_index
    reach = min(N_max, c)
    rows = _recurrence(basis, p, N_max, reach)
    # x = 0 is node reach of the a-window, which starts at c - reach
    return ((a_n[reach], b_n[c]) for a_n, b_n in rows)


def settled_series(
    basis: JostBasis, p: SampledPotential, N_max: int = DEFAULT_N_MAX
) -> CoefficientSeries:
    """The series at x = 0 up to the order where the sum rules settle.

    Draws orders from the recurrence as ``center_series`` does and tracks
    the sum-rule defects eps_L and eps_R of ``select_truncation_direct``.
    It stops at the first order n at which, for both defects, the minimum
    over orders 0..n lies at least STOP_WINDOW orders back and each of the
    last STOP_WINDOW values is within STOP_FACTOR of it; otherwise it runs
    to N_max.  The series holds orders 0..n, each bit for bit as in
    ``center_series(basis, p, N_max)``, so the argmins that
    ``select_truncation_direct`` takes over it lie at least STOP_WINDOW
    orders below a stop.  The basis must reach min(N_max, c) nodes, as for
    ``center_series``.
    """
    orders = _center_orders(basis, p, N_max)
    # the two scalars are taken before the recurrence allocates its windows,
    # so the whole-grid integral is not alive beside them
    half_left, half_right = _half_line_integrals(p)
    eps_L, eps_R = _SettlingDefect(half_left), _SettlingDefect(half_right)
    a = np.empty(N_max + 1, dtype=complex)
    b = np.empty_like(a)
    for n, (a_n, b_n) in enumerate(orders):
        a[n] = a_n
        b[n] = b_n
        eps_L.add(n, b_n)
        eps_R.add(n, a_n)
        if n - max(eps_L.last_event, eps_R.last_event) >= STOP_WINDOW:
            # views: nothing is allocated beside the recurrence's windows
            return CoefficientSeries(a=a[: n + 1], b=b[: n + 1])
    return CoefficientSeries(a=a, b=b)


class _SettlingDefect:
    """One sum-rule defect, fed one order at a time, for the stop rule.

    ``last_event`` is the last order at which the defect set a new minimum
    (its first order at that value, as argmin takes it) or rose above
    STOP_FACTOR times its minimum.  A window of STOP_WINDOW orders without a
    new minimum holds only orders after the minimum, so the window ending at
    order n meets both conditions exactly when n - last_event >= STOP_WINDOW.
    """

    def __init__(self, target: complex):
        self.target = target
        self.partial = 0.0
        self.low = math.inf
        self.last_event = 0

    def add(self, n: int, coefficient: complex) -> None:
        # partial sums in cumsum's order, so each defect is the report's
        self.partial += coefficient
        eps = abs(self.partial - self.target)
        if eps < self.low or eps > STOP_FACTOR * self.low:
            self.last_event = n
        self.low = min(self.low, eps)


def compute_coefficients(
    basis: JostBasis, p: SampledPotential, N_max: int = DEFAULT_N_MAX
) -> CoefficientTable:
    """Run the coefficient recurrence up to order N_max, keeping every x node.

    Needs a whole-grid basis (``compute_basis`` without ``reach``), else
    ValueError.  The table takes (N_max + 1) x n_points complex numbers for
    each of a and b; it serves checks of the series away from x = 0
    (``jost.eval_jost``).  The finiteness check covers the whole grid.
    """
    rows = _recurrence(basis, p, N_max, p.grid.center_index)
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
    a_n(0) sit from half the half-line integrals of q1, for N = 0..N_max of
    the series; the report keeps the two argmins (ties to smaller N) and
    exposes their maximum as chosen_N.
    """
    half_left, half_right = _half_line_integrals(p)
    eps_L = np.abs(np.cumsum(series.b) - half_left)
    eps_R = np.abs(np.cumsum(series.a) - half_right)
    return TruncationReport(
        N_L=int(np.argmin(eps_L)),
        N_R=int(np.argmin(eps_R)),
        eps_L=eps_L,
        eps_R=eps_R,
    )


def _half_line_integrals(p: SampledPotential) -> tuple[complex, complex]:
    """Half the integrals of q1 over [-a, 0] and over [0, a]: the sums of
    b_n(0) and of a_n(0) over all n."""
    mid = p.grid.center_index
    F = cumulative_integral_from_left(p.grid, p.q1)
    return 0.5 * F[mid], 0.5 * (F[-1] - F[mid])
