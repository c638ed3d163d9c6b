"""Dense numerical kernels: grid, quadrature, ODE sweeps, roots, least
squares, Chebyshev series.

The grid routines operate on samples over a :class:`UniformGrid`, the
Chebyshev ones on samples at :func:`chebyshev_points`.  All are pure
functions; the only state kept between calls is the scratch buffers of a
:class:`CumulativeIntegrator`, which its owner reuses.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import DegreeZero, NoConvergence, NonFiniteValue, RankDeficient

__all__ = [
    "UniformGrid",
    "CumulativeIntegrator",
    "cumulative_integral_from_left",
    "cumulative_integral_from_right",
    "integrate_linear_ode2",
    "horner",
    "polynomial_roots",
    "least_squares_solve",
    "constrained_least_squares",
    "eliminate_constraints",
    "pivot_unknowns",
    "qr_stage_one",
    "qr_stage_two",
    "differentiate",
    "midpoint_values",
    "chebyshev_points",
    "chebyshev_coefficients",
    "chebyshev_values",
    "chebyshev_derivative",
    "standard_chop",
    "barycentric_interpolate",
]


@dataclass(frozen=True)
class UniformGrid:
    """Uniform symmetric grid on [-a, a] with an odd node count of at least 5.

    The odd count guarantees that x = 0 is exactly a node, which anchors
    the quadratures used by the coefficient recurrences.  Five nodes is the
    widest stencil in this module (the one-sided derivative of
    ``differentiate``).
    """

    half_width: float
    n_points: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.half_width < np.inf):
            raise ValueError(f"half_width must be finite and > 0, got {self.half_width!r}")
        if self.n_points < 5 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and >= 5")
        nodes = np.linspace(-self.half_width, self.half_width, self.n_points)
        nodes[self.n_points // 2] = 0.0
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @property
    def center_index(self) -> int:
        return self.n_points // 2

    def require_same(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape != (self.n_points,):
            raise ValueError(
                f"samples of shape {f.shape} do not match grid with {self.n_points} nodes"
            )
        return f


class CumulativeIntegrator:
    """Cumulative integrals of samples on n >= 4 equally spaced nodes, into caller buffers.

    Each subinterval [x_j, x_{j+1}] is integrated exactly for cubics, from
    the cubic through the four nearest nodes (one-sided cubics at the two
    ends), and the subinterval integrals are summed from the left or from
    the right.  The nodes may be a whole ``UniformGrid`` or a run of
    consecutive nodes of one.  The integrator owns its scratch arrays, so a
    loop that keeps one integrator and its own ``out`` array allocates
    nothing per call.
    """

    def __init__(self, n_points: int, step: float, dtype=complex):
        self.n_points = n_points
        self.step = step
        self._inc = np.empty(n_points - 1, dtype=dtype)
        self._work = np.empty(n_points - 3, dtype=dtype)

    def _subinterval_integrals(self, f: np.ndarray) -> np.ndarray:
        if f.shape != (self.n_points,):
            raise ValueError(
                f"samples of shape {f.shape} do not match {self.n_points} nodes"
            )
        h24 = self.step / 24.0
        inc, mid = self._inc, self._inc[1:-1]
        # interior, nodes j-1, j, j+1, j+2: (-f + 13 f + 13 f - f) h/24,
        # added left to right
        np.multiply(13.0, f[1:-2], out=mid)
        np.subtract(mid, f[:-3], out=mid)
        np.add(mid, np.multiply(13.0, f[2:-1], out=self._work), out=mid)
        np.subtract(mid, f[3:], out=mid)
        np.multiply(mid, h24, out=mid)
        inc[0] = (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3]) * h24
        inc[-1] = (f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1]) * h24
        return inc

    def from_left(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[j] = integral of f from the first node to x_j (0 there); returns out."""
        inc = self._subinterval_integrals(f)
        out[0] = 0.0
        np.cumsum(inc, out=out[1:])
        return out

    def from_right(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[j] = integral of f from x_j to the last node (0 there); returns out."""
        inc = self._subinterval_integrals(f)
        out[-1] = 0.0
        np.cumsum(inc[::-1], out=out[-2::-1])
        return out


def cumulative_integral_from_left(grid: UniformGrid, f: np.ndarray) -> np.ndarray:
    """F(x_j) = integral of f from -a to x_j; F at the first node is 0."""
    f = grid.require_same(f)
    dtype = np.result_type(f.dtype, np.float64)
    quad = CumulativeIntegrator(grid.n_points, grid.step, dtype)
    return quad.from_left(f, np.empty(grid.n_points, dtype))


def cumulative_integral_from_right(grid: UniformGrid, f: np.ndarray) -> np.ndarray:
    """F(x_j) = integral of f from x_j to +a; F at the last node is 0."""
    f = grid.require_same(f)
    dtype = np.result_type(f.dtype, np.float64)
    quad = CumulativeIntegrator(grid.n_points, grid.step, dtype)
    return quad.from_right(f, np.empty(grid.n_points, dtype))


def midpoint_values(grid: UniformGrid, f: np.ndarray) -> np.ndarray:
    """Values of f at subinterval midpoints by cubic interpolation of samples."""
    f = grid.require_same(f)
    return _midpoints(f, 0, grid.n_points - 1)


def _midpoints(f: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``midpoint_values`` of the subintervals lo .. hi - 1 only, the same bits.

    Subinterval j lies between nodes j and j + 1.  The interior cubic reads
    nodes j - 1 .. j + 2; the first and the last subinterval of the grid use
    one-sided cubics.
    """
    n = f.shape[0]
    out = np.empty(hi - lo, dtype=np.result_type(f.dtype, np.float64))
    a, b = max(lo, 1), min(hi, n - 2)  # the interior subintervals a .. b - 1
    if b > a:
        out[a - lo : b - lo] = (-f[a - 1 : b - 1] + 9.0 * f[a:b] + 9.0 * f[a + 1 : b + 1]
                                - f[a + 2 : b + 2]) / 16.0
    if lo == 0:
        out[0] = (5.0 * f[0] + 15.0 * f[1] - 5.0 * f[2] + f[3]) / 16.0
    if hi == n - 1:
        out[-1] = (f[-4] - 5.0 * f[-3] + 15.0 * f[-2] + 5.0 * f[-1]) / 16.0
    return out


_OVERFLOW_GUARD = 1e200


def _rk4_increment(u, v, q0, qm, q1, drift: float, h: float):
    """(u_1 - u, v_1 - v) of one 4-stage step of w'' + drift*w' = Q*w from
    the state (u, v) = (w, w'), with Q = q0, qm, q1 at the step's start, middle
    and end; elementwise over arrays of steps."""
    half_h = 0.5 * h
    # k = (w', Q w - drift w')
    k1u = v
    k1v = q0 * u - drift * v
    u2 = u + half_h * k1u
    v2 = v + half_h * k1v
    k2u = v2
    k2v = qm * u2 - drift * v2
    u3 = u + half_h * k2u
    v3 = v + half_h * k2v
    k3u = v3
    k3v = qm * u3 - drift * v3
    u4 = u + h * k3u
    v4 = v + h * k3v
    k4u = v4
    k4v = q1 * u4 - drift * v4
    sixth_h = h / 6.0
    return (sixth_h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            sixth_h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def _compose_increments(D: np.ndarray) -> None:
    """Prefix products of the step maps I + D[..., k], in increment form and in place.

    D is 2 x 2 x m, step k's map I + D[..., k] in its last index, in sweep
    order.  A Hillis-Steele scan (Blelloch, *Prefix sums and their
    applications*, CMU-CS-90-190, 1990) composes, at offsets d = 1, 2, 4, ...,
    each D[..., k] with k >= d with D[..., k - d] from before the pass, by
    (I + A)(I + B) - I = A B + (A + B), A the later map; after the pass with
    offset d, D[..., k] spans steps max(0, k - 2d + 1) .. k, and at the end
    I + D[..., k] is the product of the maps of steps 0 .. k.  Entry k is
    updated only in the passes with d <= k, in the same operations whatever m
    is, so the first k + 1 entries are the same bits for every m > k.
    """
    m = D.shape[-1]
    prod = np.empty_like(D)
    term = np.empty_like(D)
    d = 1
    while d < m:
        A, B = D[..., d:], D[..., :-d]
        p, t = prod[..., d:], term[..., d:]
        # (A B)[i, j] = A[i, 0] B[0, j] + A[i, 1] B[1, j]
        np.multiply(A[:, :1], B[None, 0], out=p)
        np.multiply(A[:, 1:], B[None, 1], out=t)
        p += t
        p += np.add(A, B, out=t)
        A[...] = p
        d *= 2


def integrate_linear_ode2(
    grid: UniformGrid,
    Q: np.ndarray,
    drift: float,
    start_index: int,
    start_value: complex,
    start_slope: complex,
    direction: int,
    stop_index: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve w'' + drift*w' = Q*w by a classical 4-stage one-step sweep.

    The sweep starts at ``start_index`` and proceeds in ``direction`` (+1
    rightward, -1 leftward) to ``stop_index``, by default the grid end.  Q is
    interpolated at the swept half-steps only, by cubics through the nearest
    samples (one-sided at the grid ends, as in ``midpoint_values``).
    Returns (w, w') with the nodes the sweep did not reach left at NaN;
    callers doing two-sided sweeps merge them.

    The equation is linear, so each step maps the state y = (w, w') by a
    2 x 2 matrix, y_{k+1} = (I + D_k) y_k, and the sweep is a prefix product
    of these maps.  The increments D_k come from the 4-stage formulas applied
    to the states (1, 0) and (0, 1), for all steps at once; a Hillis-Steele
    scan composes them in ceil(log2 m) whole-array passes over the m steps,
    and y_k = y_0 + D y_0 with D the composed increment.  The scan composes
    the increments, not the maps I + D_k themselves: D_k is of the order of
    the step, and I + D_k rounded to a float keeps only its bits above the
    last place of 1: a scan of the maps ended some 100 times further from
    exact arithmetic than a scalar step-by-step loop, and this scan ends
    closer to it than that loop.  The first k steps are composed by the same
    operations for any ``stop_index`` past them, so a sweep stopped early is
    bit for bit a prefix of the whole one.  The overflow guard
    (NonFiniteValue unless every swept state past the start is below 1e200
    in modulus) and the finiteness check read the swept states after the
    scan, so they cover the swept nodes only; a composed increment that
    overflows on the way shows up as a non-finite state.
    """
    Q = grid.require_same(Q)
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    n = grid.n_points
    if stop_index is None:
        stop_index = n - 1 if direction == 1 else 0
    if not (0 <= start_index < n and 0 <= stop_index < n):
        raise ValueError("start_index and stop_index must be grid nodes")
    if (stop_index - start_index) * direction < 0:
        raise ValueError("stop_index lies behind start_index in the sweep direction")
    lo, hi = min(start_index, stop_index), max(start_index, stop_index)
    u0, v0 = complex(start_value), complex(start_slope)
    if not (cmath.isfinite(u0) and cmath.isfinite(v0)):
        raise NonFiniteValue("ODE sweep produced non-finite samples")
    # the states in sweep order: y[:, k] = (w, w') after k steps
    y = np.array([[u0], [v0]])
    if hi > lo:
        # Q at the swept nodes and at the midpoints between them, in sweep order
        Qs = np.array(Q[lo : hi + 1][::direction], dtype=complex)
        Qm = np.array(_midpoints(Q, lo, hi)[::direction], dtype=complex)
        # D[..., k] = M_k - I: column j is what step k adds to the state e_j
        D = np.empty((2, 2, hi - lo), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, state in enumerate(((1.0, 0.0), (0.0, 1.0))):
                D[0, j], D[1, j] = _rk4_increment(*state, Qs[:-1], Qm, Qs[1:], drift,
                                                  grid.step * direction)
            del Qs, Qm  # before the scan's temporaries
            _compose_increments(D)
            # allocated after the scan, whose temporaries set the peak
            y = np.empty((2, hi - lo + 1), dtype=complex)
            y[:, 0] = u0, v0
            np.multiply(D[:, 0], u0, out=y[:, 1:])
            y[:, 1:] += D[:, 1] * v0
            y[:, 1:] += y[:, :1]
            del D  # before the full-grid outputs are allocated
            past_start = np.abs(y[:, 1:])
        if not np.all(past_start < _OVERFLOW_GUARD):
            raise NonFiniteValue("ODE sweep overflowed or produced NaN")
    w = np.full(n, np.nan, dtype=complex)
    wp = np.full(n, np.nan, dtype=complex)
    w[lo : hi + 1] = y[0, ::direction]
    wp[lo : hi + 1] = y[1, ::direction]
    return w, wp


def horner(coeffs: np.ndarray, z):
    """p(z) and p'(z) for ascending coefficients, elementwise over scalar or array z."""
    p = np.zeros_like(np.asarray(z, dtype=complex))
    dp = np.zeros_like(p)
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def polynomial_roots(coeffs) -> np.ndarray:
    """All complex roots of a polynomial with ascending-degree coefficients.

    Roots come from the eigenvalues of the balanced companion matrix (QR
    iteration, LAPACK ``geev``), as ``np.roots`` finds them, with a root at
    z = 0 for each vanishing low-order coefficient.  Each is polished by up
    to two Newton steps on the polynomial.  A step is taken only if it is
    finite and shorter than 1 and |p| at the new point is finite and no
    larger than at the old one: at a multiple root p' is rounding noise,
    and an unchecked step would throw the root away from it.
    Real coefficients give a real companion matrix: its real QR iteration
    takes a third to a half of the time of the complex one at degree
    450-500 and returns the non-real roots in exact conjugate pairs.  It
    runs on SciPy's LAPACK, the one the rest of the solve uses, and gives
    NumPy's roots bit for bit at one BLAS thread.  Complex coefficients use
    the complex companion matrix on NumPy's LAPACK: with SciPy's (1.17.1),
    the complex QR iteration's last bits and root order changed with the
    BLAS thread count from degree 160 on.  A NaN or inf coefficient raises
    NonFiniteValue.
    """
    c = np.asarray(coeffs)
    c = c.astype(complex if np.iscomplexobj(c) else float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient array must be 1-D and non-empty")
    if not np.isfinite(c).all():
        raise NonFiniteValue("polynomial coefficients must be finite")
    # strip leading-coefficient zeros (highest degree)
    nz = np.nonzero(np.abs(c) > 0)[0]
    if nz.size == 0 or nz[-1] == 0:
        raise DegreeZero("polynomial is constant")
    c = c[: nz[-1] + 1]
    # a leading coefficient this small against the others puts roots past
    # the float range (a faint potential's a(z) has subnormal ones), and the
    # companion matrix would overflow: drop it, as for an exact zero
    with np.errstate(over="ignore", divide="ignore"):
        while c.size > 1 and np.isinf(np.max(np.abs(c[:-1])) / np.abs(c[-1])):
            c = c[:-1]
    if c.size == 1:
        raise DegreeZero("polynomial is constant")
    # each zero low-order coefficient is a root at z = 0; the rest of the
    # roots are the eigenvalues of the companion matrix of c[k:]
    k = int(np.argmax(c != 0))
    head = c[k:]
    d = head.size - 1
    roots = np.zeros(d + k, dtype=complex)
    if d > 0:
        companion = np.zeros((d, d), dtype=c.dtype, order="F")
        companion[0] = -head[-2::-1] / head[-1]
        companion[np.arange(1, d), np.arange(d - 1)] = 1.0
        try:
            if companion.dtype == float:
                roots[:d] = scipy.linalg.eigvals(companion, overwrite_a=True,
                                                 check_finite=False)
            else:
                roots[:d] = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError as exc:  # QR iteration cap exceeded
            raise NoConvergence("companion-matrix QR did not converge") from exc
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p, dp = horner(c, roots)
        for _ in range(2):
            # Horner overflows for high degrees well outside the unit
            # circle; those roots are left as the QR iteration found them.
            # A non-finite p or p', or p' = 0, gives a non-finite or zero
            # step, so only finite steps with |step| < 1 move a root, and
            # only to a point where |p| does not grow.
            step = p / dp
            trial = roots - step
            p_trial, dp_trial = horner(c, trial)
            take = (np.isfinite(step) & (np.abs(step) < 1.0)
                    & np.isfinite(p_trial) & (np.abs(p_trial) <= np.abs(p)))
            roots = np.where(take, trial, roots)
            p = np.where(take, p_trial, p)
            dp = np.where(take, dp_trial, dp)
    return roots


# Smallest pivot, relative to the largest, of a numerically full-rank
# (equilibrated) system.
_RANK_TOL = 1e-12
# Block size of the first-stage QR (LAPACK geqrt, recursive panels).
_QR_BLOCK = 32


def least_squares_solve(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Minimize ||Ax - b||_2 by a QR of [A | b], then pivoted QR of its triangle.

    A and b may be real or complex; a complex system is solved in complex
    arithmetic, with no real split.  Stage one (:func:`qr_stage_one`) is an
    unpivoted QR of the column-equilibrated [A | b], whose triangle R0 and
    last column Q^H b stand in for A and b; its last diagonal entry is the
    residual norm.  Stage two (:func:`qr_stage_two`) is a column-pivoted QR
    of R0, which has the column norms of A, so its pivots and condition
    estimate are those of a pivoted QR of A in exact arithmetic (T. F. Chan,
    ACM TOMS 8, 1982), and it drops rank as that would.  Neither stage
    forms its Q.

    Returns (x, residual_norm, condition_estimate), the estimate as
    :func:`qr_stage_two` gives it and the residual that of the returned x,
    read from the factors: |R0[n, n]| (0 when m == n) combined with the
    part of Q^H b on the dropped pivots.  Any layout of A gives the same
    bits.  NaN or inf in A or b raises ValueError.
    """
    factor, col_scale = qr_stage_one(*_fixed_layout(A, b))
    n = col_scale.size
    x, cond, dropped = qr_stage_two(factor, n)
    x /= col_scale
    # R of [A | b] ends in the norm of the part of b outside the range of A
    residual = float(abs(factor[n, n])) if factor.shape[0] > n else 0.0
    return x, float(np.hypot(residual, dropped)), cond


def _solve_dtype(A, b) -> np.dtype:
    """float64, or complex128 if A or b is complex."""
    return np.result_type(np.asarray(A).dtype, np.asarray(b).dtype, np.float64)


def _fixed_layout(A, b) -> tuple[np.ndarray, np.ndarray]:
    """A and b in their solve dtype, A in the one layout the solves take.

    The column norms, and with them the rank decision, depend on the
    summation order, so a real A is taken row-major, as it always was, and
    a complex A column-major, the order LAPACK factors."""
    dtype = _solve_dtype(A, b)
    layout = np.asfortranarray if dtype.kind == "c" else np.ascontiguousarray
    return layout(A, dtype=dtype), np.asarray(b, dtype=dtype)


def qr_stage_one(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage one of :func:`least_squares_solve`: (factor, col_scale).

    The columns of A are scaled to unit norm (``col_scale`` holds the norms,
    1 for a zero column), and ``factor`` is the blocked Householder QR of the
    equilibrated [A | b] in LAPACK's geqrt layout: R0 in its upper n x n
    triangle, Q^H b in its last column and the residual norm, up to sign,
    in entry (n, n) when m > n.  The factor is real (dgeqrt) for real A and
    b and complex (zgeqrt) if either is complex.  Householder reflector k
    touches rows k..m-1 only, and a column's scale does not depend on the
    others, so for every n' <= n the leading n' x n' triangle and the first
    n' entries of the last column are the stage-one factors of the system
    of A's leading n' columns.  A is factored as laid out, its column norms
    summed in memory order.  ValueError unless A is m x n with m >= n >= 1
    and b has length m, both finite.
    """
    dtype = _solve_dtype(A, b)
    A = np.asarray(A, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if A.ndim != 2 or A.shape[0] < A.shape[1] or A.shape[1] < 1:
        raise ValueError("A must be m x n with m >= n >= 1")
    if b.shape != A.shape[:1]:
        raise ValueError(f"b of shape {b.shape} does not match A with {A.shape[0]} rows")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    # equilibrate columns so the rank test is invariant to column scaling;
    # this rescales the unknowns, which leaves the minimizer unchanged
    if dtype.kind == "c":
        col_scale = np.linalg.norm(A, axis=0)
    else:
        # np.linalg.norm(A, axis=0) without its conj() copy, bit for bit
        col_scale = np.sqrt(np.add.reduce(A * A, axis=0))
    col_scale[col_scale == 0.0] = 1.0
    m, n = A.shape
    aug = np.empty((m, n + 1), A.dtype, order="F")
    np.divide(A, col_scale, out=aug[:, :n])
    aug[:, n] = b
    geqrt = scipy.linalg.lapack.get_lapack_funcs("geqrt", (aug,))
    factor, _, info = geqrt(min(_QR_BLOCK, n), aug, overwrite_a=True)
    if info != 0:
        raise ValueError(f"geqrt failed with info = {info}")
    return factor, col_scale


def _pivoted_qr_raw(a: np.ndarray):
    """(h, tau, perm) of LAPACK geqp3 on a, as ``scipy.linalg.qr(a, pivoting=True,
    mode="raw")`` gives them, but without the triangle copy that call makes.

    The workspace comes from the same query, so the blocking and the bits
    are those of the SciPy call.  A Fortran-ordered float64 or complex128
    ``a`` is overwritten in place.
    """
    geqp3 = scipy.linalg.lapack.get_lapack_funcs("geqp3", (a,))
    work = geqp3(a, lwork=-1, overwrite_a=True)[-2]
    h, jpvt, tau, _, info = geqp3(a, lwork=int(work[0].real), overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqp3")
    jpvt -= 1  # geqp3 numbers columns from 1
    return h, tau, jpvt


def qr_stage_two(factor: np.ndarray, n: int) -> tuple[np.ndarray, float, float]:
    """Stage two on the leading n columns of a :func:`qr_stage_one` factor.

    A column-pivoted QR (LAPACK geqp3, see ``_pivoted_qr_raw``) of the
    leading n x n triangle R0 leaves its Householder reflectors in factored
    form; LAPACK ormqr (unmqr for a complex factor) applies their
    (conjugate) transpose to the first n entries of the factor's last
    column, and R is solved by back substitution.  Q is never formed.
    Pivots below ``_RANK_TOL`` times the largest are dropped and their
    entries of x set to zero (a basic solution).

    Returns (x, cond, dropped) of the equilibrated system (divide x by
    the leading n entries of ``col_scale`` for the solution of A x = b),
    ``cond`` the ratio of extreme pivots of the whole triangle: above
    1 / ``_RANK_TOL`` = 1e12 exactly when pivots were dropped, inf for a
    zero pivot, and ``dropped`` the norm of the part of Q^H b on the
    dropped pivots (0 if none were).  Raises RankDeficient if every pivot
    is zero.
    """
    # the transpose of a lower triangle is a column-major upper one, which
    # geqp3 overwrites in place instead of copying
    h, tau, perm = _pivoted_qr_raw(np.tril(factor[:n, :n].T).T)
    diag = np.abs(np.diagonal(h))
    dmax = diag.max()
    if not dmax > 0.0:
        raise RankDeficient("every pivot of the triangular factor is zero")
    # pivoting pushes deficient columns to the back; keep the leading block
    rank = int(np.count_nonzero(diag >= _RANK_TOL * dmax))
    # lwork = 1 selects the unblocked reflector loop, the cheap one for one column
    if h.dtype.kind == "c":
        ormqr, trans = scipy.linalg.lapack.zunmqr, "C"
    else:
        ormqr, trans = scipy.linalg.lapack.dormqr, "T"
    qtc, _, info = ormqr("L", trans, h, tau, factor[:n, -1:], 1)
    if info != 0:
        raise ValueError(f"ormqr/unmqr failed with info = {info}")
    x = np.zeros(n, h.dtype)
    # back substitution reads only the upper triangle, R; below it lie the reflectors
    x[perm[:rank]] = scipy.linalg.solve_triangular(h[:rank, :rank], qtc[:rank, 0])
    dropped = float(np.linalg.norm(qtc[rank:, 0]))  # 0.0 if none were
    dmin = diag.min()
    return x, float(dmax / dmin) if dmin > 0.0 else np.inf, dropped


def constrained_least_squares(A: np.ndarray, b: np.ndarray, E: np.ndarray, d: np.ndarray,
                              solve=least_squares_solve) -> tuple[np.ndarray, float, float]:
    """Minimize ||Ax - b||_2 subject to E x = d, by the null-space method.

    The rows of E are scaled to unit norm (which leaves the constraints as
    they are), and a Householder QR (LAPACK geqrf) gives E^H = Q [R; 0].
    Then x = Q [y1; y2] with R^H y1 = d, and A Q = [A1 | A2] turns the
    problem into min ||A2 y2 - (b - A1 y1)||, which ``solve`` (by default
    :func:`least_squares_solve`) takes on the trailing columns of A Q.  The
    reflectors are applied to A from the right in place (LAPACK ormqr, or
    unmqr for complex A), so A, which must be column-major in the solve's
    dtype, is overwritten; b, E and d are not.  Golub & Van Loan, *Matrix
    Computations*, section 6.2.

    Returns (x, residual_norm, condition_estimate) as ``solve`` gives them
    for the reduced system.  With no constraint rows this is ``solve(A, b)``.
    Raises RankDeficient if E has more rows than columns, or if its scaled
    rows are dependent: a pivot of R below ``_RANK_TOL`` times the largest.
    """
    p, n = E.shape
    if p == 0:
        return solve(A, b)
    if p > n:
        raise RankDeficient(f"{p} constraints on {n} unknowns")
    if not (A.flags.f_contiguous and A.dtype == _solve_dtype(A, E)):
        raise ValueError("A must be column-major in the dtype of the solve")
    scale = np.linalg.norm(E, axis=1)
    scale[scale == 0.0] = 1.0
    geqrf = scipy.linalg.lapack.get_lapack_funcs("geqrf", (A,))
    h, tau, _, info = geqrf(np.asfortranarray((E.conj() / scale[:, None]).T, dtype=A.dtype),
                            overwrite_a=True)
    if info != 0:
        raise ValueError(f"geqrf failed with info = {info}")
    pivots = np.abs(np.diagonal(h))
    if not pivots.min() >= _RANK_TOL * pivots.max():
        raise RankDeficient("the constraint rows are linearly dependent")
    ormqr = scipy.linalg.lapack.zunmqr if h.dtype.kind == "c" else scipy.linalg.lapack.dormqr
    # lwork = rows of A: the unblocked loop, which LAPACK takes anyway for
    # fewer reflectors than its block size
    aq, _, info = ormqr("R", "N", h, tau, A, max(1, A.shape[0]), overwrite_c=True)
    if info != 0:
        raise ValueError(f"ormqr/unmqr failed with info = {info}")
    y = np.empty(n, h.dtype)
    y[:p] = scipy.linalg.solve_triangular(h[:p, :p], d / scale, trans="C")
    # b - A1 y1 by SciPy's BLAS, as the LAPACK calls around it: NumPy's
    # matmul would run in another OpenBLAS with its own thread pool
    gemv = scipy.linalg.blas.get_blas_funcs("gemv", (aq,))
    y[p:], residual, cond = solve(aq[:, p:], gemv(-1.0, aq[:, :p], y[:p], 1.0, b))
    x, _, info = ormqr("L", "N", h, tau, y[:, None], 1)
    if info != 0:
        raise ValueError(f"ormqr/unmqr failed with info = {info}")
    return x[:, 0], residual, cond


def eliminate_constraints(
    A: np.ndarray, b: np.ndarray, E: np.ndarray, d: np.ndarray, n_lead: int, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct elimination of E x = d from min ||Ax - b||_2 (Golub & Van Loan,
    *Matrix Computations*, section 6.2).

    A pivoted QR (geqp3) of the leading ``n_lead`` columns of E, rows scaled
    to unit norm, picks p pivot columns P; an LU solve with E_P gives
    x_P = g - G x_R, G = E_P^-1 E_R, g = E_P^-1 d, on the other columns R
    (ascending).  One BLAS gemm writes (A_R - A_P G) x_R = b - A_P g into
    ``out`` (column-major, m x (n - p + 1), the dtype of A and E), its
    right-hand side last, so the problem on A's leading n' >= ``n_lead``
    columns reduces to the leading n' - p columns of ``out``.  Returns
    (P, R, Gg), Gg = [G | g] (see :func:`pivot_unknowns`).  Raises
    RankDeficient for more rows than ``n_lead`` or rows dependent on those
    columns (a pivot below ``_RANK_TOL`` times the largest).
    """
    p, n = E.shape
    if p > n_lead:
        raise RankDeficient(f"{p} constraints on {n_lead} unknowns")
    if not out.flags.f_contiguous:
        raise ValueError("out must be column-major")
    P = np.empty(0, dtype=int)
    if p:
        scale = np.linalg.norm(E, axis=1)
        scale[scale == 0.0] = 1.0
        E = E / scale[:, None]
        # a copy: geqp3 overwrites it, and one row is already column-major
        h, _, perm = _pivoted_qr_raw(np.array(E[:, :n_lead], order="F"))
        pivots = np.abs(np.diagonal(h))
        if not pivots.min() > _RANK_TOL * pivots.max():
            raise RankDeficient("the constraint rows are linearly dependent")
        P = perm[:p]
    R = np.setdiff1d(np.arange(n), P)
    # the runs of R between the pivots, column slices: no temporary copy
    lo = 0
    for k, hi in enumerate([*np.sort(P), n]):
        out[:, lo - k : hi - k] = A[:, lo:hi]
        lo = hi + 1
    out[:, -1] = b
    if not p:
        return P, R, np.empty((0, n + 1), dtype=out.dtype)
    Gg = scipy.linalg.lu_solve(scipy.linalg.lu_factor(E[:, P]),
                               np.column_stack([E[:, R], d / scale]))
    # in place, since out is column-major in the dtype of the product
    gemm = scipy.linalg.blas.get_blas_funcs("gemm", (out,))
    gemm(-1.0, A[:, P], Gg, 1.0, out, overwrite_c=True)
    return P, R, Gg


def pivot_unknowns(Gg: np.ndarray, x_R: np.ndarray) -> np.ndarray:
    """x_P = g - G x_R (:func:`eliminate_constraints`) for x_R on R[:k], by BLAS gemv."""
    if Gg.shape[0] == 0:
        return Gg[:, -1].copy()
    gemv = scipy.linalg.blas.get_blas_funcs("gemv", (Gg,))
    return gemv(-1.0, Gg[:, : x_R.size], x_R, 1.0, Gg[:, -1])


def differentiate(grid: UniformGrid, f: np.ndarray) -> np.ndarray:
    """Fourth-order finite-difference derivative on the grid.

    Central five-point stencil in the interior, one-sided five-point stencils
    at the four boundary nodes.
    """
    f = grid.require_same(f)
    h = grid.step
    out = np.empty_like(f, dtype=np.result_type(f.dtype, np.float64))
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return out


def chebyshev_points(half_width: float, n: int) -> np.ndarray:
    """The n + 1 Chebyshev points of the second kind on [-a, a], ascending.

    x_j = -a cos(pi j / n), written as a sine so that the points are exactly
    symmetric, with x = 0 a point for even n and the ends exactly -a and a.
    """
    return half_width * np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the polynomial through real samples at the
    ``chebyshev_points`` (along axis 0), by one FFT of the even extension."""
    v = np.asarray(values, dtype=float)[::-1]  # t = cos(pi j / n), descending
    n = v.shape[0] - 1
    c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]]), axis=0).real / n
    c[0] /= 2.0
    c[n] /= 2.0
    return c


def chebyshev_values(coeffs: np.ndarray) -> np.ndarray:
    """Values at the ``chebyshev_points`` of a Chebyshev series (along axis
    0); the inverse of :func:`chebyshev_coefficients`."""
    n = coeffs.shape[0] - 1
    spectrum = n * coeffs
    spectrum[0] *= 2.0
    spectrum[n] *= 2.0
    return np.fft.irfft(spectrum, 2 * n, axis=0)[n::-1]


def chebyshev_derivative(coeffs: np.ndarray, half_width: float) -> np.ndarray:
    """Chebyshev coefficients of d/dx of a series on [-a, a] (along axis 0).

    The derivative's coefficient m is the sum of 2 k c_k over k = m + 1,
    m + 3, ..., halved for m = 0: one reverse cumulative sum per parity.
    """
    k = np.arange(coeffs.shape[0]).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    w = 2.0 * k * coeffs
    tails = np.empty_like(w)
    for parity in (0, 1):
        tails[parity::2] = np.cumsum(w[parity::2][::-1], axis=0)[::-1]
    out = np.zeros_like(coeffs)
    out[:-1] = tails[1:]
    out[0] /= 2.0
    return out / half_width


def standard_chop(coeffs: np.ndarray, tol: float) -> int:
    """How many leading Chebyshev coefficients resolve a series to ``tol``.

    The standardChop rule of Aurentz & Trefethen ("Chopping a Chebyshev
    series", ACM TOMS 43, 2017): find where the monotone envelope of |c|
    first levels off into a plateau, then cut where the envelope, tilted
    towards the left end, is least.  Returns ``len(coeffs)`` when there is
    no plateau (the series is not resolved) or fewer than 17 coefficients.
    """
    b = np.abs(coeffs)
    n = b.size
    if n < 17:
        return n
    envelope = np.maximum.accumulate(b[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    # 1-based indices, as in the paper: a plateau follows point j - 1 if
    # the envelope hardly falls from j to j2 = round(1.25 j + 5)
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = envelope[j - 1], envelope[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)))
    if not plateau.any():
        return n
    first = int(np.argmax(plateau))
    plateau_point, j2 = int(j[first]) - 1, int(j2[first])
    if envelope[plateau_point - 1] == 0.0:
        return plateau_point
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


def barycentric_interpolate(nodes: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial through ``values`` (along axis 0) at the
    ``chebyshev_points`` ``nodes``, evaluated at x.

    The barycentric formula of the second kind with the weights (-1)^j,
    halved at the ends (Berrut & Trefethen, SIAM Review 46, 2004).  One pass
    per node keeps the work arrays the size of the output; an x equal to a
    node takes that node's value.
    """
    values = np.asarray(values)
    num = np.zeros((x.size,) + values.shape[1:], np.result_type(values.dtype, np.float64))
    den = np.zeros(x.size)
    exact = np.full(x.size, -1)
    last = nodes.size - 1
    for j, xj in enumerate(nodes):
        diff = x - xj
        hit = diff == 0.0
        exact[hit] = j
        diff[hit] = 1.0
        c = (0.5 if j in (0, last) else 1.0) * (-1.0) ** j / diff
        den += c
        num += c.reshape((-1,) + (1,) * (values.ndim - 1)) * values[j]
    out = num / den.reshape((-1,) + (1,) * (values.ndim - 1))
    out[exact >= 0] = values[exact[exact >= 0]]
    return out
