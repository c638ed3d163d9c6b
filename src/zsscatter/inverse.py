"""Inverse scattering: per-node constrained least-squares solves at Chebyshev
nodes, the N-selection, and potential recovery."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DenominatorNearZero, MissingSpectrumData, RankDeficient, UnderdeterminedSystem
from .jost import JostFactors, z_of_rho
from .numerics import (
    _RANK_TOL,
    UniformGrid,
    barycentric_interpolate,
    chebyshev_coefficients,
    chebyshev_derivative,
    chebyshev_points,
    chebyshev_values,
    constrained_least_squares,
    eliminate_constraints,
    least_squares_solve,
    pivot_unknowns,
    qr_stage_one,
    qr_stage_two,
    standard_chop,
)
from .direct import ScatteringData, validate_scattering

__all__ = [
    "InverseConfig",
    "RecoveredCoefficients",
    "RecoveredPotential",
    "assemble_system",
    "select_truncation_inverse",
    "recover_potential",
    "solve_inverse",
]

DEFAULT_CANDIDATES = tuple(range(5, 101, 5))


def _is_count(n) -> bool:
    """An integer >= 1 of any integral type but bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1


@dataclass(frozen=True)
class InverseConfig:
    """Settings for the inverse sweep.

    ``K`` bounds the distinct rho points the solve uses: ``K`` targets
    evenly spaced in theta = arg z(rho) go to the nearest grid node, and
    targets on one node count once (K = 1000 gives 397 on the default
    4000-point rho grid).  Since q is real, the sweep and the N-selection
    read the chosen nodes of one half line only, each standing for itself
    and its mirror -rho (199 of the 397).  ``info["collocation_count"]``
    reports the number the sweep reads.  ``N`` may be an integer >= 1 (any
    ``numbers.Integral`` but ``bool``) or "auto", in which case the
    order-zero step delta(N) picks it from ``candidates`` (integers >= 1,
    in any order, repeats counted once) on the coarser selection grid with
    ``selection_K`` collocation targets (see
    :func:`select_truncation_inverse`).  ``K`` and ``selection_K``
    are integers >= 1.  Invalid values raise ``ValueError``.
    """

    x_half_width: float = 8.0
    x_points: int = 2001
    K: int = 1000
    N: int | str = "auto"
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES
    selection_x_points: int = 81
    selection_K: int = 400

    def __post_init__(self):
        if self.N != "auto" and not _is_count(self.N):
            raise ValueError(f'N must be "auto" or an integer >= 1, got {self.N!r}')
        for name in ("K", "selection_K"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not self.candidates:
            raise ValueError("candidates must name at least one truncation order")
        bad = [n for n in self.candidates if not _is_count(n)]
        if bad:
            raise ValueError(f"candidates must be integers >= 1, got {bad}")
        # both grids are checked now, before any solve
        self.x_grid()
        self.selection_grid()

    def x_grid(self) -> UniformGrid:
        return UniformGrid(self.x_half_width, self.x_points)

    def selection_grid(self) -> UniformGrid:
        return UniformGrid(self.x_half_width, self.selection_x_points)


@dataclass(frozen=True)
class RecoveredCoefficients:
    """Per-node solutions of the inverse sweep.

    The sweep solves at ``nodes``, Chebyshev points of the second kind on
    the window of ``x_grid`` (ascending), and the recovery interpolates q to
    ``x_grid``, the uniform output grid.  ``X`` holds, per node, Re b_n,
    Im b_n, Re a_n, Im a_n for n = 0..N (degree order).  ``residuals`` and
    ``rhs_norms`` are norms over the collocation rows of the rho nodes the
    sweep reads, one half line of the chosen ones: those of the real split,
    or of the complex form divided by sqrt 2, the same number in exact
    arithmetic.  ``conditions`` holds each node's ratio of largest to
    smallest pivot of the system left once the eigenvalue rows are
    eliminated, and ``truncated`` marks the nodes whose solve dropped
    pivots below 1e-12 of the largest, which are those with a condition
    above 1e12.  ``constraint_residuals`` is each node's largest relative
    defect |e x - d| / (|e| |x| + |d|) over the 2M eigenvalue rows, the
    conjugate ones included.  ``x_resolved`` tells whether the Chebyshev
    coefficients of the order-zero columns reached a plateau (standardChop
    at machine precision), and ``chop_level`` is the size, relative to the
    largest, of the largest coefficient past the chop (the last one when
    not resolved).
    """

    x_grid: UniformGrid
    nodes: np.ndarray
    N: int
    X: np.ndarray  # (n_nodes, 4(N+1)) real
    residuals: np.ndarray
    rhs_norms: np.ndarray
    conditions: np.ndarray
    truncated: np.ndarray
    constraint_residuals: np.ndarray
    x_resolved: bool
    chop_level: float

    @property
    def re_b0(self) -> np.ndarray:
        return self.X[:, 0]

    @property
    def im_b0(self) -> np.ndarray:
        return self.X[:, 1]

    @property
    def re_a0(self) -> np.ndarray:
        return self.X[:, 2]

    @property
    def im_a0(self) -> np.ndarray:
        return self.X[:, 3]


@dataclass(frozen=True)
class RecoveredPotential:
    x_grid: UniformGrid
    q_from_a0: np.ndarray
    chosen: np.ndarray
    discrepancy: float


_SQRT2 = np.sqrt(2.0)


def _half_line(rho: np.ndarray) -> np.ndarray:
    """Mask of the half line with more of the points: rho >= 0, or rho <= 0
    when more points lie below 0.  A point at rho = 0 goes with either."""
    if np.count_nonzero(rho > 0.0) >= np.count_nonzero(rho < 0.0):
        return rho >= 0.0
    return rho <= 0.0


def _pair_rows(r1: np.ndarray, r2: np.ndarray, out: np.ndarray) -> None:
    """out = [r1 + i r2, conj(r1 - i r2)], the complex form of a pair of rows."""
    n = r1.size
    np.add(r1, 1j * r2, out=out[:n])
    np.conjugate(r1 - 1j * r2, out=out[n:])


class _FactorTables:
    """x-independent pieces of the collocation rows for a fixed N.

    At each x node the collocation equations are complex rows s1, s2 (one
    pair per rho point) and s3, s4 (one pair per eigenvalue) acting on the
    real unknowns Re b_n, Im b_n, Re a_n, Im a_n, taken in degree order:
    unknown k of degree n is column 4 n + k.  ``assemble_real`` writes
    their real split, 4(K + M) x 4(N + 1).  The rows are complex-linear in
    b_n and a_n, so ``assemble`` writes them in complex form instead:
    unknowns b_0, a_0, b_1, a_1, ..., b_N, a_N and, per pair, the rows
    s1 + i s2 and conj(s1 - i s2) with right-hand sides to match.  Since
    |U|^2 + |V|^2 = (|U + iV|^2 + |U - iV|^2) / 2, this 2(K + M) x 2(N + 1)
    system has the least-squares minimizer of the real split, and its
    solution read as reals is that split's unknowns in the same order.
    ``assemble`` keeps its 2K collocation rows and its 2M eigenvalue rows
    in separate buffers, since the sweep takes the rows s3 + i s4 as
    equality constraints.

    Both forms are packed from one set of per-node products.  The tables
    own both forms' matrices and reuse them for every node, so a sweep
    allocates no matrix-sized array per node; each form's buffers are
    allocated at its first use.

    With ``half_line`` the tables keep the chosen nodes of one half line
    only: rho >= 0, or rho <= 0 when more of the chosen nodes lie below 0.
    For real q, a(-rho) = conj a(rho) and b(-rho) = conj b(rho), so the row
    s1 + i s2 at -rho, right-hand side included, is the row
    conj(s1 - i s2) at rho: the complex form at the K nodes kept is the
    complex form at {+-rho_k} with every row counted once instead of
    twice, and has its least-squares minimizer.  The sweep and the
    N-selection read one half line; ``assemble_system`` keeps every chosen
    node.
    """

    def __init__(self, sd: ScatteringData, N: int, K: int | None = None,
                 half_line: bool = False):
        if len(sd.norming_constants) != sd.M:
            raise MissingSpectrumData(
                f"{len(sd.norming_constants)} norming constants for {sd.M} eigenvalues")
        rho_full = sd.rho_grid
        if K is None or K >= rho_full.size:
            idx = np.arange(rho_full.size)
        else:
            # the polynomial columns are Fourier modes in theta = arg z(rho);
            # subsample uniformly in theta, not in rho, so the modes up to
            # degree N stay resolved with modest K
            theta = 2.0 * np.arctan(2.0 * rho_full)
            targets = np.linspace(theta[0], theta[-1], K)
            idx = np.unique(np.searchsorted(theta, targets).clip(0, rho_full.size - 1))
        # on every chosen node, before the tables, which grow with K N, exist
        if idx.size + sd.M < N + 1:
            raise UnderdeterminedSystem(f"system must be overdetermined: K + M >= N + 1, "
                                        f"got K = {idx.size}, M = {sd.M} and N = {N}")
        if half_line:
            idx = idx[_half_line(rho_full[idx])]
        self.K = idx.size
        self.M = sd.M
        self.N = N
        self.rho = rho_full[idx]
        self.a = sd.a_values[idx]
        self.b = sd.b_values[idx]
        z = z_of_rho(self.rho.astype(complex))
        # column-major, as the complex system is: the per-node products then
        # run down contiguous columns (the values do not depend on the layout)
        self.Pz = np.asfortranarray(JostFactors.collocation_columns(z, N))
        self.aPzb = self.a[:, None] * np.conj(self.Pz)
        self.bPz = self.b[:, None] * self.Pz
        self.rho_m = np.array([ev.rho for ev in sd.eigenvalues], dtype=complex)
        zm = np.array([ev.z for ev in sd.eigenvalues], dtype=complex)
        self.Pzm = JostFactors.collocation_columns(zm, N)
        self.c = sd.norming_constants.astype(complex)
        self._rows = 2 * (self.K + self.M)
        self._C = None  # complex form, column-major as LAPACK factors it
        self._A = None  # real split

    def _products(self, x: float, em_pz=None, pa=None, pb=None):
        """The products the rows at x are packed from: em Pz, pa = -em aPzb
        and pb = ep bPz (into the arrays given, else new ones), pm = emm Pzm,
        qm = cep Pzm and the right-hand sides of s1, s2, s3, s4.  On
        Re b_n, Im b_n, Re a_n, Im a_n the rows are s1 = [em Pz, 0, pa, pb],
        s2 = [0, em Pz, -pb, pa], s3 = [pm, 0, 0, qm], s4 = [0, pm, -qm, 0]."""
        em = np.exp(-1j * self.rho * x)
        ep = np.conj(em)  # rho is real on the collocation grid
        emm = np.exp(-1j * self.rho_m * x)
        cep = self.c * np.exp(1j * self.rho_m * x)
        return (np.multiply(em[:, None], self.Pz, out=em_pz),
                np.multiply(-em[:, None], self.aPzb, out=pa),
                np.multiply(ep[:, None], self.bPz, out=pb),
                emm[:, None] * self.Pzm, cep[:, None] * self.Pzm,
                [(self.a - 1.0) * em, self.b * ep, -emm, cep])

    def assemble(self, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The complex system at x: the 2K collocation rows (C, r) and the
        2M eigenvalue rows (E, d), E holding the M rows s3 + i s4, then
        their conjugate rows conj(s3 - i s4).  All four are the tables'
        buffers, overwritten by the next call; C is column-major."""
        K, M = self.K, self.M
        if self._C is None:
            n = 2 * (self.N + 1)
            self._C = np.empty((2 * K, n), dtype=complex, order="F")
            self._r = np.empty(2 * K, dtype=complex)
            self._E = np.empty((2 * M, n), dtype=complex)
            self._d = np.empty(2 * M, dtype=complex)
            self._pa = np.empty_like(self.Pz)
            self._pb = np.empty_like(self.Pz)
        C, r, E, d = self._C, self._r, self._E, self._d
        # on (b_n, a_n): s1 + i s2 = [em Pz, pa - i pb] and
        # conj(s1 - i s2) = conj[em Pz, pa + i pb]
        u, v = C[:K], C[K:]
        em_pz, pa, pb, pm, qm, rhs = self._products(x, u[:, 0::2], self._pa, self._pb)
        np.conjugate(em_pz, out=v[:, 0::2])
        np.multiply(pb, 1j, out=v[:, 1::2])
        np.subtract(pa, v[:, 1::2], out=u[:, 1::2])
        np.add(pa, v[:, 1::2], out=v[:, 1::2])
        np.conjugate(v[:, 1::2], out=v[:, 1::2])
        _pair_rows(*rhs[:2], out=r)
        # s3 + i s4 = [pm, -i qm], likewise conjugated
        u3, v3 = E[:M], E[M:]
        u3[:, 0::2] = pm
        np.multiply(qm, -1j, out=u3[:, 1::2])
        np.conjugate(pm, out=v3[:, 0::2])
        np.multiply(np.conj(qm), -1j, out=v3[:, 1::2])
        _pair_rows(*rhs[2:], out=d)
        return C, r, E, d

    def assemble_real(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """The real split (A, B) at x; A is the tables' matrix, overwritten by
        the next call.

        A holds the real parts of rows s1 (K), s2 (K), s3 (M), s4 (M), then
        their imaginary parts, on the unknowns in degree order.  The zero
        blocks are never written.
        """
        K, M, rows = self.K, self.M, self._rows
        if self._A is None:
            self._A = np.zeros((2 * rows, 4 * (self.N + 1)), order="F")
        A = self._A
        em_pz, pa, pb, pm, qm, rhs = self._products(x)
        # (first row, unknown k, product, sign) of each nonzero block
        blocks = [(0, 0, em_pz, 1.0), (K, 1, em_pz, 1.0), (0, 2, pa, 1.0),
                  (K, 3, pa, 1.0), (0, 3, pb, 1.0), (K, 2, pb, -1.0),
                  (2 * K, 0, pm, 1.0), (2 * K + M, 1, pm, 1.0),
                  (2 * K, 3, qm, 1.0), (2 * K + M, 2, qm, -1.0)]
        for row, k, product, sign in blocks:
            n = product.shape[0]
            np.multiply(product.real, sign, out=A[row : row + n, k::4])
            np.multiply(product.imag, sign, out=A[rows + row : rows + row + n, k::4])
        r = np.concatenate(rhs)
        B = np.concatenate([r.real, r.imag])
        return A, B


def assemble_system(x: float, sd: ScatteringData, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Real collocation system A X = B at one x; A is 4(K+M) x 4(N+1).

    The unknowns are in degree order, Re b_n, Im b_n, Re a_n, Im a_n for
    n = 0..N, as in ``RecoveredCoefficients.X``.  The arrays are the
    caller's: no later call overwrites them.
    """
    return _FactorTables(sd, N).assemble_real(x)


# The sweep's node ladder: nested Chebyshev points of the second kind, 17,
# 33, 65, ... (2^k + 1), or fewer when the output grid has fewer points
_FIRST_LEVEL = 16
# standardChop tolerance for the order-zero columns
_CHOP_TOL = np.finfo(float).eps
# Largest gap between the b- and the a-side quotients, relative to max |q|,
# at which an unresolved sweep stops at the x_points cap; past it the sweep
# solves one level more.  Spectral differentiation of an unresolved series
# can be far worse than the finite differences it replaced: ex1 on [-8, 8]
# gave q errors of 3.9 at 65 nodes and 0.15 at 129 (gaps 69 % and 4.6 %),
# against 0.16 and 0.020 from 101 and 201 uniform nodes, and 1.0e-4 at 257.
_GAP_MAX = 0.01


def _solve_node(tables: _FactorTables, x: float):
    """(solution, residual, rhs norm, condition, constraint residual) at x.

    The collocation rows are solved in the least-squares sense subject to
    the M eigenvalue rows s3 + i s4 as equality constraints; for real q
    their conjugate rows hold with them, and the constraint residual
    covers both.  The reduced solve is ``least_squares_solve`` as this
    module looks it up."""
    C, r, E, d = tables.assemble(x)
    rhs_norm = np.linalg.norm(r)
    try:
        sol, res, cond = constrained_least_squares(C, r, E[: tables.M], d[: tables.M],
                                                   solve=least_squares_solve)
    except RankDeficient as exc:
        raise RankDeficient(f"rank-deficient collocation system at x = {x:g}: {exc}") from exc
    if not tables.M:
        return sol, res, rhs_norm, cond, 0.0
    # |E sol - d| / (|E| |sol| + |d|) by SciPy's BLAS, as the solve: NumPy's
    # matmul would run in another OpenBLAS with its own thread pool; E is
    # row-major, so gemv takes its transpose
    defect = np.abs(scipy.linalg.blas.zgemv(1.0, E.T, sol, -1.0, d, trans=1))
    defect /= scipy.linalg.blas.dgemv(1.0, np.abs(E).T, np.abs(sol), 1.0, np.abs(d), trans=1)
    return sol, res, rhs_norm, cond, float(defect.max())


def _solve_sweep(tables: _FactorTables, grid: UniformGrid) -> RecoveredCoefficients:
    """Solve at a chopped ladder of Chebyshev nodes on the window of ``grid``.

    Each node is one constrained solve (``_solve_node``).  The sweep starts
    at 17 nodes (or the largest level of 2^k + 1 within ``grid.n_points``)
    and doubles the intervals, keeping every solve, while standardChop finds
    the Chebyshev coefficients of the four order-zero columns, on one shared
    scale, unresolved and the next level has at most ``grid.n_points``
    nodes.  A sweep that stops there unresolved solves one level more if
    the two recovery quotients at its nodes differ by more than
    ``_GAP_MAX`` = 1 % of max |q|, so it never solves more than
    2 ``grid.n_points`` - 1 nodes.  A node whose reduced solve drops pivots
    below 1e-12 of the largest is marked ``truncated`` (its condition
    exceeds 1e12).
    """
    N = tables.N
    if 2 * tables.K + tables.M < 2 * (N + 1):
        raise UnderdeterminedSystem(
            f"the sweep needs 2K + M >= 2(N + 1), got K = {tables.K}, M = {tables.M} "
            f"and N = {N}")
    n = _FIRST_LEVEL
    while n + 1 > grid.n_points:
        n //= 2
    solved = [_solve_node(tables, float(x)) for x in chebyshev_points(grid.half_width, n)]
    while True:
        # b_0, a_0, b_1, ... read as reals is the degree order of X
        X = np.array([s[0] for s in solved]).view(np.float64)
        bound = np.max(np.abs(chebyshev_coefficients(X[:, :4])), axis=1)
        cutoff = standard_chop(bound, _CHOP_TOL)
        resolved = cutoff < n + 1
        if resolved:
            break
        # past the cap, one level more at most, and only for a poor recovery
        if 2 * n + 1 > grid.n_points and (
                n + 1 > grid.n_points or _quotient_gap(X, grid.half_width) <= _GAP_MAX):
            break
        n *= 2
        new = [_solve_node(tables, float(x)) for x in chebyshev_points(grid.half_width, n)[1::2]]
        # the old level is every other node of the new one
        solved = [s for pair in zip(solved, new) for s in pair] + solved[-1:]
    _, res, rhs_norms, conditions, defects = (np.array(v) for v in zip(*solved))
    return RecoveredCoefficients(
        x_grid=grid, nodes=chebyshev_points(grid.half_width, n), N=N, X=X,
        residuals=res / _SQRT2, rhs_norms=rhs_norms / _SQRT2, conditions=conditions,
        truncated=conditions > 1.0 / _RANK_TOL, constraint_residuals=defects,
        x_resolved=resolved, chop_level=_chop_level(bound, cutoff),
    )


def _chop_level(bound: np.ndarray, cutoff: int) -> float:
    """The largest coefficient bound past the cutoff (the last one if none
    is past it), relative to the largest of all; 0 for a zero series."""
    top = bound.max()
    if top == 0.0:
        return 0.0
    return float(bound[min(cutoff, bound.size - 1):].max() / top)


# Reduced condition from which the selection skips a candidate: past
# 1/sqrt(eps) = 6.7e7 a solve keeps less than half its digits
_SELECTION_COND_MAX = 1.0 / np.sqrt(np.finfo(float).eps)


def _selection_order_zero(sd: ScatteringData, candidates, grid: UniformGrid, K: int):
    """(order_zero, passed): b_0 and a_0 of the first ``passed`` of the
    sorted, distinct ``candidates`` at the selection nodes, shape
    (passed, n_nodes, 2), where the walk stops at the first candidate whose
    half-line system has fewer rows, 2K, than unknowns, 2(N + 1) - M, or
    whose reduced condition reaches ``_SELECTION_COND_MAX`` at some node.

    The half-line tables are built once, for the largest candidate.
    At each node :func:`~zsscatter.numerics.eliminate_constraints` removes
    the M eigenvalue rows s3 + i s4 on pivot columns among the smallest
    candidate's, and the other columns keep degree order, so candidate N's
    reduced system is the leading 2(N + 1) - M columns of the largest
    one's: one complex ``qr_stage_one`` per node serves every candidate,
    with one ``qr_stage_two`` each.  The configuration is refused before
    any table is built if the full set of chosen nodes cannot hold the
    largest candidate, K + M < N + 1; dependent constraint rows raise
    RankDeficient naming x, as in the sweep.
    """
    tables = _FactorTables(sd, candidates[-1], K, half_line=True)
    M = tables.M
    widths = [2 * (N + 1) - M for N in candidates]
    reduced = np.empty((2 * tables.K, widths[-1] + 1), dtype=complex, order="F")
    order_zero = np.empty((len(candidates), grid.n_points, 2), dtype=complex)
    passed = int(np.searchsorted(widths, 2 * tables.K, side="right"))
    for j, x in enumerate(grid.nodes):
        if passed == 0:
            break
        C, r, E, d = tables.assemble(float(x))
        try:
            P, R, Gg = eliminate_constraints(C, r, E[:M], d[:M], widths[0] + M, reduced)
        except RankDeficient as exc:
            raise RankDeficient(f"rank-deficient collocation system at x = {x:g}: {exc}") from exc
        # the candidates past the guard are not solved again
        factor, col_scale = qr_stage_one(reduced[:, : widths[passed - 1]], reduced[:, -1])
        for i, n in enumerate(widths[:passed]):
            y, cond, _ = qr_stage_two(factor, n)
            if not cond < _SELECTION_COND_MAX:
                passed = i
                break
            sol = np.empty(n + M, dtype=complex)
            sol[R[:n]] = y / col_scale[:n]
            sol[P] = pivot_unknowns(Gg, sol[R[:n]])
            order_zero[i, j] = sol[:2]
    return order_zero[:passed], passed


def select_truncation_inverse(
    sd: ScatteringData, cfg: InverseConfig
) -> tuple[int, dict[int, float], list[int]]:
    """Pick N by the order-zero step delta(N).

    delta(N) = max over the selection grid of |b_0(N) - b_0(N')| and
    |a_0(N) - a_0(N')|, N' the next candidate, from the constrained solves.
    The candidates, repeats counted once, are walked upward to the first
    that fails the guard of ``_selection_order_zero`` (an underdetermined
    half-line system, or a reduced condition of 1/sqrt(eps) = 6.7e7 or
    more); it and the larger ones are skipped.  delta(N) counts where N
    and N' both pass, and N is its argmin, ties going to the smaller N, or
    the smallest candidate when fewer than two pass.

    Returns (N, delta_table, skipped), ``delta_table`` keyed by candidate
    in increasing order.
    """
    grid = cfg.selection_grid()
    candidates = sorted({int(n) for n in cfg.candidates})
    order_zero, passed = _selection_order_zero(sd, candidates, grid, cfg.selection_K)
    steps = np.abs(np.diff(order_zero, axis=0)).max(axis=(1, 2))
    delta_table = {N: float(step) for N, step in zip(candidates, steps)}
    N = min(delta_table, key=delta_table.get) if delta_table else candidates[0]
    return N, delta_table, candidates[passed:]


def _node_quotients(X: np.ndarray, half_width: float):
    """(q_b, q_a, smallest |denominator|): both recovery quotients at the
    sweep's nodes, from the order-zero columns of ``X`` and their
    x-derivatives, taken in Chebyshev coefficient space."""
    zero = X[:, :4]
    slopes = chebyshev_values(chebyshev_derivative(chebyshev_coefficients(zero), half_width))
    rb, ib, ra, ia = zero.T
    drb, dib, dra, dia = slopes.T
    den_b = ib - rb - 1.0
    den_a = 1.0 + ra + ia
    with np.errstate(divide="ignore", invalid="ignore"):
        q_b = (0.5 * (1.0 + rb + ib) + drb + dib) / den_b + 0.5
        q_a = (-0.5 * (1.0 + ra - ia) + dra - dia) / den_a + 0.5
    return q_b, q_a, min(np.min(np.abs(den_b)), np.min(np.abs(den_a)))


def _quotient_gap(X: np.ndarray, half_width: float) -> float:
    """max |q_b - q_a| over the nodes, relative to max |q_b| (0 for q = 0)."""
    q_b, q_a, _ = _node_quotients(X, half_width)
    gap = float(np.max(np.abs(q_b - q_a)))
    return gap / float(np.max(np.abs(q_b))) if gap > 0.0 else 0.0


def recover_potential(coeffs: RecoveredCoefficients) -> RecoveredPotential:
    """Rebuild q(x) from the order-zero coefficients.

    The x-derivatives of Re b0, Im b0, Re a0 and Im a0 come from their
    Chebyshev coefficients on the sweep's nodes.  Both closed-form recovery
    quotients are formed at the nodes and interpolated barycentrically to
    the output grid ``coeffs.x_grid``; the b-side one is returned as
    ``chosen`` and the sup-norm gap between the two over the inner 90 % of
    the grid is reported as a consistency diagnostic.  Every node enters
    the interpolant, so a denominator below 1e-6 at any node raises.
    """
    grid = coeffs.x_grid
    q_b, q_a, den = _node_quotients(coeffs.X, grid.half_width)
    if not den >= 1e-6:
        raise DenominatorNearZero("recovery denominator vanishes inside the window")
    q_b, q_a = barycentric_interpolate(coeffs.nodes, np.column_stack([q_b, q_a]),
                                       grid.nodes).T
    lo = int(0.05 * grid.n_points)
    inner = slice(lo, grid.n_points - lo)
    discrepancy = float(np.max(np.abs(q_b[inner] - q_a[inner])))
    return RecoveredPotential(
        x_grid=grid,
        q_from_a0=q_a,
        chosen=q_b,
        discrepancy=discrepancy,
    )


def _parity_defect(sd: ScatteringData) -> float | None:
    """The larger of the a and b parity defects of ``validate_scattering``,
    max |f(-rho) - conj f(rho)|; None when the rho grid is not
    mirror-symmetric, so that -rho is not a grid point."""
    report = validate_scattering(sd)
    if report["a_parity_defect"] is None:
        return None
    return max(report["a_parity_defect"], report["b_parity_defect"])


def solve_inverse(sd: ScatteringData, cfg: InverseConfig):
    """Full inverse pipeline; returns (potential, coefficients, info).

    The sweep reads the rho nodes of one half line and trusts parity for
    the other; ``info["parity_defect"]`` is how far the data depart from
    it (None for a rho grid that is not mirror-symmetric)."""
    info: dict = {}
    if cfg.N == "auto":
        N, info["delta_table"], info["selection_skipped"] = select_truncation_inverse(sd, cfg)
    else:
        N = int(cfg.N)
    info["chosen_N"] = N
    tables = _FactorTables(sd, N, cfg.K, half_line=True)
    # subsampling in theta can land several targets on one rho node, and
    # the sweep reads the chosen nodes of one half line
    info["collocation_count"] = tables.K
    coeffs = _solve_sweep(tables, cfg.x_grid())
    info["x_nodes"] = int(coeffs.nodes.size)
    info["x_resolved"] = coeffs.x_resolved
    info["chop_level"] = coeffs.chop_level
    info["sweep_rank_truncated"] = int(np.count_nonzero(coeffs.truncated))
    info["max_residual"] = float(np.max(coeffs.residuals))
    info["max_condition"] = float(np.max(coeffs.conditions))
    info["constraint_residual"] = float(np.max(coeffs.constraint_residuals))
    info["parity_defect"] = _parity_defect(sd)
    recovered = recover_potential(coeffs)
    info["discrepancy"] = recovered.discrepancy
    return recovered, coeffs, info
