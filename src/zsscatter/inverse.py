"""Inverse scattering: per-point least-squares solves and potential recovery."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DenominatorNearZero, MissingSpectrumData, RankDeficient, UnderdeterminedSystem
from .jost import JostFactors, z_of_rho
from .numerics import (
    _RANK_TOL,
    UniformGrid,
    differentiate,
    least_squares_solve,
    pivoted_qr_solve,
    qr_stage_one,
    qr_stage_two,
)
from .direct import ScatteringData

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

    The solve uses up to ``K`` distinct rho points of the scattering data:
    ``K`` targets evenly spaced in theta = arg z(rho) are each moved to the
    nearest grid node, and targets that land on one node count once.  The
    number actually used is reported as ``info["collocation_count"]``.  ``N``
    may be an integer >= 1 (any ``numbers.Integral`` but ``bool``) or
    "auto", in which case the Wronskian flatness criterion picks it from
    ``candidates`` (integers >= 1, in any order, repeats counted once) on
    the coarser selection grid with ``selection_K`` collocation targets
    (see :func:`select_truncation_inverse`).  ``K`` and ``selection_K``
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

    ``X`` holds, per x node, the real blocks Re b_n, Im b_n, Re a_n, Im a_n
    (n = 0..N) one after the other.  ``residuals`` and ``rhs_norms`` are
    those of the real split of the collocation system: the norms of its
    complex form divided by sqrt 2, the same number in exact arithmetic.
    ``conditions`` holds each node's ratio of largest to smallest pivot,
    and ``truncated`` marks the nodes whose solve dropped pivots below
    1e-12 of the largest, which are those with a condition above 1e12.
    """

    x_grid: UniformGrid
    N: int
    X: np.ndarray  # (n_x, 4(N+1)) real
    residuals: np.ndarray
    rhs_norms: np.ndarray
    conditions: np.ndarray
    truncated: np.ndarray

    def _block(self, i: int) -> np.ndarray:
        return self.X[:, i * (self.N + 1)]

    @property
    def re_b0(self) -> np.ndarray:
        return self._block(0)

    @property
    def im_b0(self) -> np.ndarray:
        return self._block(1)

    @property
    def re_a0(self) -> np.ndarray:
        return self._block(2)

    @property
    def im_a0(self) -> np.ndarray:
        return self._block(3)

    def wronskian_curve(self) -> np.ndarray:
        return _wronskian_curve(self.re_b0, self.im_b0, self.re_a0, self.im_a0)


def _wronskian_curve(re_b0, im_b0, re_a0, im_a0) -> np.ndarray:
    """The x-independent bilinear form of the two order-zero coefficient pairs."""
    return (1.0 + re_b0) * (1.0 + re_a0) + im_b0 * im_a0


@dataclass(frozen=True)
class RecoveredPotential:
    x_grid: UniformGrid
    q_from_a0: np.ndarray
    chosen: np.ndarray
    discrepancy: float


_SQRT2 = np.sqrt(2.0)


def _pair_rows(r1: np.ndarray, r2: np.ndarray, out: np.ndarray) -> None:
    """out = [r1 + i r2, conj(r1 - i r2)], the complex form of a pair of rows."""
    n = r1.size
    np.add(r1, 1j * r2, out=out[:n])
    np.conjugate(r1 - 1j * r2, out=out[n:])


class _FactorTables:
    """x-independent pieces of the collocation rows for a fixed N.

    At each x node the collocation equations are complex rows s1, s2 (one
    pair per rho point) and s3, s4 (one pair per eigenvalue) acting on the
    real unknowns Re b_n, Im b_n, Re a_n, Im a_n.  ``assemble_real`` writes
    their real split, 4(K + M) x 4(N + 1).  The rows are complex-linear in
    b_n and a_n, so ``assemble`` writes them in complex form instead:
    unknowns b_0, a_0, b_1, a_1, ..., b_N, a_N and, per pair, the rows
    s1 + i s2 and conj(s1 - i s2) with right-hand sides to match.  Since
    |U|^2 + |V|^2 = (|U + iV|^2 + |U - iV|^2) / 2, this 2(K + M) x 2(N + 1)
    system has the least-squares minimizer of the real split.

    The tables own the matrices of both forms and reuse them for every
    node, so a sweep allocates no matrix-sized array per node; each form's
    buffers are allocated at its first use.
    """

    def __init__(self, sd: ScatteringData, N: int, K: int | None = None):
        if sd.M > 0 and len(sd.norming_constants) != sd.M:
            raise MissingSpectrumData(
                "eigenvalues present without matching norming constants"
            )
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
        self.K = idx.size
        self.M = sd.M
        self.N = N
        # checked before the tables, which grow with K N, are built
        if self.K + self.M < N + 1:
            raise UnderdeterminedSystem(f"system must be overdetermined: K + M >= N + 1, "
                                        f"got K = {self.K}, M = {self.M} and N = {N}")
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

    def assemble(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """The complex system (C, r) at x; both are the tables' buffers,
        overwritten by the next call."""
        K, M = self.K, self.M
        if self._C is None:
            self._C = np.empty((self._rows, 2 * (self.N + 1)), dtype=complex, order="F")
            self._r = np.empty(self._rows, dtype=complex)
            self._pa = np.empty_like(self.Pz)
            self._pb = np.empty_like(self.Pz)
        C, r = self._C, self._r
        em = np.exp(-1j * self.rho * x)
        ep = np.conj(em)  # rho is real on the collocation grid
        # s1 = [em Pz, 0, pa, pb] and s2 = [0, em Pz, -pb, pa] on the real
        # blocks, with pa = -em aPzb and pb = ep bPz; so on (b_n, a_n)
        # s1 + i s2 = [em Pz, pa - i pb] and conj(s1 - i s2) = conj[em Pz, pa + i pb]
        u, v = C[:K], C[K : 2 * K]
        np.multiply(em[:, None], self.Pz, out=u[:, 0::2])
        np.conjugate(u[:, 0::2], out=v[:, 0::2])
        pa = np.multiply(-em[:, None], self.aPzb, out=self._pa)
        pb = np.multiply(ep[:, None], self.bPz, out=self._pb)
        np.multiply(pb, 1j, out=v[:, 1::2])
        np.subtract(pa, v[:, 1::2], out=u[:, 1::2])
        np.add(pa, v[:, 1::2], out=v[:, 1::2])
        np.conjugate(v[:, 1::2], out=v[:, 1::2])
        _pair_rows((self.a - 1.0) * em, self.b * ep, out=r[: 2 * K])
        if M:
            # s3 = [pm, 0, 0, qm] and s4 = [0, pm, -qm, 0], with pm = emm Pzm
            # and qm = cep Pzm: s3 + i s4 = [pm, -i qm], likewise conjugated
            emm = np.exp(-1j * self.rho_m * x)
            cep = self.c * np.exp(1j * self.rho_m * x)
            pm = emm[:, None] * self.Pzm
            qm = cep[:, None] * self.Pzm
            u3, v3 = C[2 * K : 2 * K + M], C[2 * K + M :]
            u3[:, 0::2] = pm
            np.multiply(qm, -1j, out=u3[:, 1::2])
            np.conjugate(pm, out=v3[:, 0::2])
            np.multiply(np.conj(qm), -1j, out=v3[:, 1::2])
            _pair_rows(-emm, cep, out=r[2 * K :])
        return C, r

    def _put(self, row: int, block: int, product: np.ndarray) -> None:
        """Write a complex block's real and imaginary parts into the real split."""
        rows = slice(row, row + product.shape[0])
        imag_rows = slice(self._rows + row, self._rows + row + product.shape[0])
        cols = slice(block * (self.N + 1), (block + 1) * (self.N + 1))
        self._A[rows, cols] = product.real
        self._A[imag_rows, cols] = product.imag

    def assemble_real(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """The real split (A, B) at x; A is the tables' matrix, overwritten by
        the next call.

        A holds the real parts of rows s1 (K), s2 (K), s3 (M), s4 (M), then
        their imaginary parts, on four column blocks of N + 1: Re b_n,
        Im b_n, Re a_n, Im a_n.  The zero blocks are never written.
        """
        if self._A is None:
            self._A = np.zeros((2 * self._rows, 4 * (self.N + 1)))
            self._product = np.empty((self.K, self.N + 1), dtype=complex)
        K, put, prod = self.K, self._put, self._product
        em = np.exp(-1j * self.rho * x)
        ep = np.conj(em)  # rho is real on the collocation grid
        # s1 = [em Pz, 0, -em aPzb, ep bPz], s2 = [0, em Pz, -ep bPz, -em aPzb]
        put(0, 0, np.multiply(em[:, None], self.Pz, out=prod))
        put(K, 1, prod)
        put(0, 2, np.multiply(-em[:, None], self.aPzb, out=prod))
        put(K, 3, prod)
        put(0, 3, np.multiply(ep[:, None], self.bPz, out=prod))
        put(K, 2, np.multiply(-ep[:, None], self.bPz, out=prod))
        r1 = (self.a - 1.0) * em
        r2 = self.b * ep
        rhs = [r1, r2]
        if self.M:
            # s3 = [emm Pzm, 0, 0, cep Pzm], s4 = [0, emm Pzm, -cep Pzm, 0]
            emm = np.exp(-1j * self.rho_m * x)
            cep = self.c * np.exp(1j * self.rho_m * x)
            put(2 * K, 0, emm[:, None] * self.Pzm)
            put(2 * K + self.M, 1, emm[:, None] * self.Pzm)
            put(2 * K, 3, cep[:, None] * self.Pzm)
            put(2 * K + self.M, 2, -cep[:, None] * self.Pzm)
            rhs += [-emm, cep]
        r = np.concatenate(rhs)
        B = np.concatenate([r.real, r.imag])
        return self._A, B


def assemble_system(x: float, sd: ScatteringData, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Real collocation system A X = B at one x; A is 4(K+M) x 4(N+1).

    The arrays are the caller's: no later call overwrites them.
    """
    return _FactorTables(sd, N).assemble_real(x)


def _solve_sweep(tables: _FactorTables, grid: UniformGrid) -> RecoveredCoefficients:
    """Solve every node in complex form by one ``least_squares_solve``, whose
    stage two drops the pivots below 1e-12 of the largest: such a node needs
    no second solve, and is marked ``truncated`` (its condition exceeds 1e12)."""
    N = tables.N
    X = np.empty((grid.n_points, 4, N + 1))
    residuals = np.empty(grid.n_points)
    rhs_norms = np.empty(grid.n_points)
    conditions = np.empty(grid.n_points)
    for j, x in enumerate(grid.nodes):
        C, r = tables.assemble(float(x))
        rhs_norms[j] = np.linalg.norm(r) / _SQRT2
        try:
            sol, res, conditions[j] = least_squares_solve(C, r)
        except RankDeficient as exc:
            raise RankDeficient(f"rank-deficient collocation system at x = {x:g}") from exc
        residuals[j] = res / _SQRT2
        b, a = sol[0::2], sol[1::2]
        X[j] = b.real, b.imag, a.real, a.imag
    return RecoveredCoefficients(
        x_grid=grid, N=N, X=X.reshape(grid.n_points, -1), residuals=residuals,
        rhs_norms=rhs_norms, conditions=conditions,
        truncated=conditions > 1.0 / _RANK_TOL,
    )


# Stage-two condition from which the selection solves a candidate on its own
# columns: nearer the rank edge, rounding in the shared, unpivoted stage one
# can flip the rank decision, and the chosen N rests on these bits (truncating
# in stage two everywhere picked N = 80 on ex2, against 60).
_NESTED_COND_MAX = 1e9


def _selection_order_zero(sd: ScatteringData, candidates, grid: UniformGrid, K: int):
    """Order-zero coefficients of every candidate N at every selection node.

    ``candidates`` must be sorted and distinct.  Returns ``order_zero``, of
    shape (len(candidates), n_nodes, 4) and holding Re b0, Im b0, Re a0,
    Im a0, and two boolean (len(candidates), n_nodes) arrays: the
    node-candidate solves that went to the per-candidate path, and those
    of them that dropped rank.

    One table build serves all candidates: with the columns of the real
    split taken in degree order (Re b_n, Im b_n, Re a_n, Im a_n for
    n = 0..N), the system of candidate N is the leading 4(N + 1) columns of
    the largest candidate's, bit for bit, since the power columns come from
    a sequential recurrence and the products are elementwise.  So one
    stage-one QR per node (``qr_stage_one``) serves every candidate, and
    stage two runs on each candidate's leading triangle.  Where its
    condition is not below ``_NESTED_COND_MAX`` = 1e9, that candidate and
    the larger ones at the node are solved by ``pivoted_qr_solve`` on their
    own columns in the sweep's block order, the bits of a real
    per-candidate solve.  Only the selection keeps this guard; the sweep's
    one solve per node truncates in stage two.

    The selection stays on the real split.  eps(N) on the plateau past the
    optimal N is rounding noise, and the complex form lowers it (on ex1,
    [-8, 8], N = 25..70: 9.4e-11..2.9e-10 real, 1.6e-11..8.8e-11 complex),
    which moves the argmin from 25 to 45 or 55.
    """
    top = _FactorTables(sd, candidates[-1], K)
    n1_top = top.N + 1
    # column of (block k, degree n) in the sweep's order is k (N + 1) + n
    block_cols = np.arange(4)[:, None] * n1_top + np.arange(n1_top)
    degree_order = block_cols.T.ravel()
    order_zero = np.empty((len(candidates), grid.n_points, 4))
    fell_back = np.zeros((len(candidates), grid.n_points), dtype=bool)
    truncated = np.zeros_like(fell_back)
    for j, x in enumerate(grid.nodes):
        A, B = top.assemble_real(float(x))
        factor, col_scale = qr_stage_one(A[:, degree_order], B)
        nested = True
        for i, N in enumerate(candidates):
            if nested:
                sol, cond = qr_stage_two(factor, 4 * (N + 1))
                nested = cond < _NESTED_COND_MAX
            if nested:
                order_zero[i, j] = sol[:4] / col_scale[:4]
            else:
                fell_back[i, j] = True
                # np.take gathers into the row-major layout that the solve
                # would otherwise copy the columns into
                own = np.take(A, block_cols[:, : N + 1].ravel(), axis=1)
                sol, _, _, rank = pivoted_qr_solve(own, B)
                truncated[i, j] = rank < own.shape[1]
                order_zero[i, j] = sol[:: N + 1]
    return order_zero, fell_back, truncated


def select_truncation_inverse(
    sd: ScatteringData, cfg: InverseConfig
) -> tuple[int, dict[int, float], int, int]:
    """Pick N by minimizing the Wronskian flatness defect eps(N).

    eps(N) is the max over the selection grid of |d/dx| of the
    x-independent bilinear form of the two order-zero coefficient pairs of
    the truncation-N solve.  The candidates are walked in increasing order,
    repeats counted once, and ties break toward the smaller N.  All
    candidates share one stage-one QR per node (see
    ``_selection_order_zero``); only the order-zero entries are kept.

    Returns (N, eps_table, fallbacks, truncated), ``eps_table`` keyed by
    candidate in increasing order, ``fallbacks`` the number of
    node-candidate solves whose nested stage-two condition was 1e9 or more
    and that were solved on their own by
    :func:`~zsscatter.numerics.pivoted_qr_solve`, and ``truncated`` the
    number of those that dropped rank.
    """
    grid = cfg.selection_grid()
    candidates = sorted({int(n) for n in cfg.candidates})
    order_zero, fell_back, truncated = _selection_order_zero(
        sd, candidates, grid, cfg.selection_K)
    eps_table: dict[int, float] = {}
    best_n = None
    best_eps = np.inf
    for N, entries in zip(candidates, order_zero):
        wron = _wronskian_curve(*entries.T)
        eps = float(np.max(np.abs(differentiate(grid, wron))))
        eps_table[N] = eps
        if eps < best_eps:
            best_eps = eps
            best_n = N
    return (int(best_n), eps_table, int(np.count_nonzero(fell_back)),
            int(np.count_nonzero(truncated)))


def recover_potential(coeffs: RecoveredCoefficients) -> RecoveredPotential:
    """Rebuild q(x) from the order-zero coefficients.

    Both closed-form recovery quotients are produced; the b-side one is
    returned as ``chosen`` and the sup-norm gap between the two is reported
    as a consistency diagnostic.
    """
    grid = coeffs.x_grid
    rb, ib = coeffs.re_b0, coeffs.im_b0
    ra, ia = coeffs.re_a0, coeffs.im_a0
    drb = differentiate(grid, rb).real
    dib = differentiate(grid, ib).real
    dra = differentiate(grid, ra).real
    dia = differentiate(grid, ia).real
    den_b = ib - rb - 1.0
    den_a = 1.0 + ra + ia
    lo = int(0.05 * grid.n_points)
    hi = grid.n_points - lo
    inner = slice(lo, hi)
    if np.min(np.abs(den_b[inner])) < 1e-6 or np.min(np.abs(den_a[inner])) < 1e-6:
        raise DenominatorNearZero("recovery denominator vanishes inside the window")
    q_b = (0.5 * (1.0 + rb + ib) + drb + dib) / den_b + 0.5
    q_a = (-0.5 * (1.0 + ra - ia) + dra - dia) / den_a + 0.5
    discrepancy = float(np.max(np.abs(q_b[inner] - q_a[inner])))
    return RecoveredPotential(
        x_grid=grid,
        q_from_a0=q_a,
        chosen=q_b,
        discrepancy=discrepancy,
    )


def solve_inverse(sd: ScatteringData, cfg: InverseConfig):
    """Full inverse pipeline; returns (potential, coefficients, info)."""
    info: dict = {}
    if cfg.N == "auto":
        N, eps_table, fallbacks, truncated = select_truncation_inverse(sd, cfg)
        info["eps_table"] = eps_table
        info["selection_fallbacks"] = fallbacks
        info["selection_rank_truncated"] = truncated
    else:
        N = int(cfg.N)
    info["chosen_N"] = N
    tables = _FactorTables(sd, N, cfg.K)
    # subsampling in theta can land several targets on one rho node, so
    # fewer distinct points than cfg.K may enter the solve
    info["collocation_count"] = tables.K
    coeffs = _solve_sweep(tables, cfg.x_grid())
    info["sweep_rank_truncated"] = int(np.count_nonzero(coeffs.truncated))
    info["max_residual"] = float(np.max(coeffs.residuals))
    info["max_condition"] = float(np.max(coeffs.conditions))
    recovered = recover_potential(coeffs)
    info["discrepancy"] = recovered.discrepancy
    return recovered, coeffs, info
