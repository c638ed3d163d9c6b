"""Direct scattering: coefficients a(rho), b(rho), eigenvalues, norming constants."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from ._output import write_csv
from .basis import compute_basis
from .coeffs import (
    DEFAULT_N_MAX,
    CoefficientSeries,
    TruncationReport,
    center_series,
    select_truncation_direct,
    settled_series,
)
from .errors import (
    DegenerateNormalization,
    DegreeZero,
    DivisionNearZero,
    InvalidScatteringData,
    UnstableSpectrum,
)
from .jost import JostFactors, rho_of_z, z_of_rho
from .numerics import horner, midpoint_values, polynomial_roots
from .potentials import SampledPotential

__all__ = [
    "Eigenvalue",
    "ScatteringData",
    "scattering_coefficients",
    "a_polynomial",
    "find_eigenvalues",
    "norming_constants",
    "oracle_scatter",
    "reflection",
    "transmission",
    "check_rho_grid",
    "solve_direct",
    "validate_scattering",
    "scattering_to_json",
    "scattering_from_json",
    "write_scattering_csv",
]

DISK_MARGIN = 1e-6
RESIDUAL_TOL = 1e-6
STABILITY_TOL = 1e-4


@dataclass(frozen=True)
class Eigenvalue:
    rho: complex
    z: complex
    residual: float


@dataclass(frozen=True)
class ScatteringData:
    """Scattering data on a real rho grid, with eigenvalues and norming constants.

    ``n_terms`` is the truncation order the data were computed with and
    ``potential_desc`` describes the potential; both are serialized.
    ``truncation`` is the sum-rule report when ``solve_direct`` picked the
    order itself, and ``series`` holds the a_n(0), b_n(0) that
    ``solve_direct`` computed: orders 0..n_terms when n_terms was given,
    else up to the order where the sum rules settled (N_max if they did
    not).  Neither is serialized, so both are None for data read from JSON.
    """

    rho_grid: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray
    eigenvalues: tuple[Eigenvalue, ...]
    norming_constants: np.ndarray
    n_terms: int = 0
    potential_desc: str = ""
    truncation: TruncationReport | None = None
    series: CoefficientSeries | None = None

    @property
    def M(self) -> int:
        return len(self.eigenvalues)


def scattering_coefficients(series: CoefficientSeries, N: int, rho_grid: np.ndarray):
    """a(rho) and b(rho) on a real rho grid.

    The factors at conj(z) are the conjugates of those at z, not values
    through the circle identity conj(z) = 1/z: the polynomial coefficients
    are real, so Horner's rule at conj(z) is the exact conjugate of Horner's
    rule at z, and one evaluation serves both.
    """
    rho = np.asarray(rho_grid, dtype=float)
    z = z_of_rho(rho.astype(complex))
    zb = np.conj(z)
    Pb, Sb, Pa, Sa = JostFactors.from_series(series, N).evaluate(z)
    Pa_c = np.conj(Pa)
    Sa_c = np.conj(Sa)
    a_vals = Pb * Pa + (z + 1.0) ** 2 * Sb * Sa
    b_vals = Pa_c * (z + 1.0) * Sb - (zb + 1.0) * Sa_c * Pb
    return a_vals, b_vals


def a_polynomial(series: CoefficientSeries, N: int) -> np.ndarray:
    """Ascending coefficients of the truncated a(rho) as a polynomial in z."""
    return JostFactors.from_series(series, N).a_polynomial()


def _in_disk_roots(poly: np.ndarray, delta: float) -> np.ndarray:
    """Roots of ``poly`` in |z| < 1 - delta, from the companion matrix of its
    significant degree.

    The coefficients of a(z) decay to rounding level long before the
    truncation order (by 21 to 29 orders of magnitude on the reference
    examples), and every root that tail adds lies outside the disk.  So the
    companion matrix is built for p_m = c_0 + ... + c_{m-1} z^{m-1} only,
    with m the smallest index whose tail sum_{k >= m} |c_k| is at most
    eps * ||c||_1 (eps the float64 machine epsilon).  On |z| <= 1,
    |p(z) - p_m(z)| <= sum_{k >= m} |c_k| <= eps ||c||_1, the order of the
    coefficient error that the companion QR of the whole polynomial commits
    anyway (Edelman and Murakami, Math. Comp. 64, 1995).  Hence a simple
    root z_0 in the disk moves by about eps ||c||_1 / |p'(z_0)|, and, by
    Rouche's theorem, p and p_m have the same number of roots in
    |z| < 1 - delta wherever |p| > eps ||c||_1 on |z| = 1 - delta.  A tail
    that leaves only c_0 gives no roots, as the whole polynomial's companion
    matrix does, whose roots then all lie outside.
    """
    tail = np.cumsum(np.abs(poly[::-1]))[::-1]  # tail[k] = sum_{j >= k} |c_j|
    m = int(np.count_nonzero(tail > np.finfo(float).eps * tail[0]))
    try:
        roots = polynomial_roots(poly[: max(m, 1)])
    except DegreeZero:
        # a constant a(z) (e.g. the zero potential) has no zeros at all
        return np.zeros(0, dtype=complex)
    return roots[np.abs(roots) < 1.0 - delta]


def find_eigenvalues(
    poly: np.ndarray,
    series: CoefficientSeries,
    N: int,
    delta: float = DISK_MARGIN,
) -> tuple[Eigenvalue, ...]:
    """Roots of the a-polynomial inside the unit disk mapped back to rho.

    The candidates are the roots in |z| < 1 - ``delta`` of the polynomial's
    significant part: its coefficients up to the last whose tail is above
    eps times the polynomial's l1 norm (eps the float64 machine epsilon).  On
    the disk that part differs from the whole polynomial by at most
    eps ||c||_1, so by Rouche's theorem it has the same roots there, to
    rounding (see ``_in_disk_roots``).  The filters read the whole
    polynomial: candidates must (i) lie at least ``delta`` inside the
    circle, (ii) map to Im rho > 0, (iii) have a small residual on the whole
    polynomial, and (iv) persist when the polynomial is rebuilt with N-5
    terms: Newton's method on that polynomial, started at the candidate,
    must end within STABILITY_TOL of it and inside the disk.  Truncation
    noise concentrates near |z| = 1, and the persistence filter is what
    rejects it.
    """
    candidates = _in_disk_roots(poly, delta)
    scale = float(np.max(np.abs(poly)))
    kept = []
    rejected_unstable = 0
    reference = a_polynomial(series, N - 5) if N >= 6 else None
    for z in candidates:
        rho = rho_of_z(z)
        if rho.imag <= 0:
            continue
        residual = abs(horner(poly, z)[0])
        if residual > RESIDUAL_TOL * scale:
            continue
        if reference is not None and not _persists(reference, z, delta):
            rejected_unstable += 1
            continue
        kept.append(Eigenvalue(rho=complex(rho), z=complex(z), residual=residual))
    n_upper = sum(1 for z in candidates if rho_of_z(z).imag > 0)
    if n_upper > 0 and rejected_unstable > n_upper / 2:
        raise UnstableSpectrum(
            f"{rejected_unstable} of {n_upper} in-disk roots failed the "
            "persistence filter; increase the truncation order"
        )
    kept.sort(key=lambda ev: (round(ev.rho.real, 9), ev.rho.imag))
    return tuple(kept)


# Newton steps of the persistence test.  At degrees of 400 and more rounding
# keeps the step well above machine precision, so the test judges the final
# distance rather than waiting for the step to vanish.
_PERSISTENCE_STEPS = 8


def _persists(reference: np.ndarray, z: complex, delta: float) -> bool:
    """Whether Newton on ``reference`` from z ends within STABILITY_TOL of z, in the disk."""
    w = z
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_PERSISTENCE_STEPS):
            p, dp = horner(reference, w)
            step = p / dp
            w = w - step
            if abs(step) <= 4.0 * np.finfo(float).eps * abs(w):
                break
    # a constant reference (p' = 0) or an overflow leaves w non-finite, and
    # every comparison with it fails
    return abs(w - z) <= STABILITY_TOL and abs(w) < 1.0 - delta


def norming_constants(
    series: CoefficientSeries, N: int, eigenvalues: tuple[Eigenvalue, ...]
) -> np.ndarray:
    """c(rho_m) = phi1/psi1 at x = 0, falling back to phi2/psi2 if needed."""
    factors = JostFactors.from_series(series, N)
    out = np.empty(len(eigenvalues), dtype=complex)
    for m, ev in enumerate(eigenvalues):
        z = ev.z
        Pb, Sb, Pa, Sa = factors.evaluate(z)
        den1 = (z + 1.0) * Sa
        if abs(den1) >= 1e-10:
            out[m] = -Pb / den1
        elif abs(Pa) >= 1e-10:
            out[m] = (z + 1.0) * Sb / Pa
        else:
            raise DegenerateNormalization(
                f"both norming-constant denominators vanish at rho = {ev.rho}"
            )
    return out


def oracle_scatter(p: SampledPotential, rho_grid: np.ndarray):
    """Reference a(rho), b(rho) by direct integration of the first-order system.

    Starts from the left plane-wave state at x = -a and reads the connection
    coefficients off the state at x = +a.  Fully independent of the series
    machinery; used for cross-validation only.
    """
    grid = p.grid
    rho = np.asarray(rho_grid, dtype=float)
    h = grid.step
    q = p.q
    qh = midpoint_values(grid, q)
    irho = 1j * rho
    # envelope variables m1 = n1 e^{i rho x}, m2 = n2 e^{-i rho x} absorb the
    # free oscillation, so the step error is proportional to |q| and q = 0 is
    # integrated exactly
    m1 = np.ones_like(irho, dtype=complex)
    m2 = np.zeros_like(m1)
    x_nodes = grid.nodes
    x_mid = 0.5 * (x_nodes[:-1] + x_nodes[1:])

    def rhs(qv, x, u1, u2):
        osc = np.exp(2.0 * irho * x)
        return qv * u2 * osc, -qv * u1 / osc

    for j in range(grid.n_points - 1):
        x0 = x_nodes[j]
        xm = x_mid[j]
        x1 = x_nodes[j + 1]
        q0 = q[j]
        qm = qh[j]
        q1v = q[j + 1]
        k1a, k1b = rhs(q0, x0, m1, m2)
        k2a, k2b = rhs(qm, xm, m1 + 0.5 * h * k1a, m2 + 0.5 * h * k1b)
        k3a, k3b = rhs(qm, xm, m1 + 0.5 * h * k2a, m2 + 0.5 * h * k2b)
        k4a, k4b = rhs(q1v, x1, m1 + h * k3a, m2 + h * k3b)
        m1 = m1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        m2 = m2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return m1, m2


def reflection(sd: ScatteringData) -> np.ndarray:
    if np.min(np.abs(sd.a_values)) < 1e-12:
        raise DivisionNearZero("|a(rho)| below 1e-12 on the grid")
    return sd.b_values / sd.a_values


def transmission(sd: ScatteringData) -> np.ndarray:
    if np.min(np.abs(sd.a_values)) < 1e-12:
        raise DivisionNearZero("|a(rho)| below 1e-12 on the grid")
    return 1.0 / sd.a_values


def _is_order(n) -> bool:
    """An integer >= 0 of any integral type but bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 0


def check_rho_grid(rho_max: float, rho_count: int) -> None:
    """Raise ValueError unless :func:`solve_direct`'s rho grid, ``rho_count``
    points evenly spaced on [-rho_max, rho_max], is strictly increasing:
    ``rho_max`` finite and > 0 and ``rho_count`` an integer >= 2 of any
    ``numbers.Integral`` type but ``bool``.
    """
    if not (isinstance(rho_max, numbers.Real) and 0.0 < rho_max < np.inf):
        raise ValueError(f"rho_max must be finite and > 0, got {rho_max!r}")
    if not (_is_order(rho_count) and rho_count >= 2):
        raise ValueError(f"rho_count must be an integer >= 2, got {rho_count!r}")


def solve_direct(
    p: SampledPotential,
    rho_max: float = 30.0,
    rho_count: int = 4000,
    n_terms: int | None = None,
    N_max: int = DEFAULT_N_MAX,
) -> ScatteringData:
    """Full direct-problem pipeline for a sampled potential.

    The coefficient recurrence keeps only a_n(0), b_n(0), which up to order
    k need the basis only k nodes past x = 0 on each side.  With
    ``n_terms`` None the basis reaches N_max nodes, the recurrence runs
    until both sum-rule defects have settled (``coeffs.settled_series``),
    at most to N_max, and N is their argmin over the orders computed; the
    report is in ``truncation`` (``truncation.at_cap`` flags N = N_max,
    which only a run that did not settle can give).  With ``n_terms`` given,
    the basis sweeps and the recurrence stop at order n_terms.  The series
    is returned in ``ScatteringData.series`` and the order used in
    ``n_terms``.

    ``N_max`` must be an integer >= 0 and ``n_terms`` None (pick N from the
    sum rules) or an integer 0 <= n_terms <= N_max, each of any
    ``numbers.Integral`` type but ``bool``, and ``rho_max`` and
    ``rho_count`` as :func:`check_rho_grid` takes them; other values
    raise ValueError before any work is done.
    """
    if not _is_order(N_max):
        raise ValueError(f"N_max must be an integer >= 0, got {N_max!r}")
    if n_terms is not None and not (_is_order(n_terms) and n_terms <= N_max):
        raise ValueError(
            f"n_terms must be None or an integer from 0 to N_max = {N_max}, got {n_terms!r}"
        )
    check_rho_grid(rho_max, rho_count)
    if n_terms is None:
        basis = compute_basis(p, reach=N_max)
        series = settled_series(basis, p, N_max)
        truncation = select_truncation_direct(series, p)
        N = truncation.chosen_N
    else:
        N = int(n_terms)
        basis = compute_basis(p, reach=N)
        series = center_series(basis, p, N)
        truncation = None
    rho_grid = np.linspace(-rho_max, rho_max, rho_count)
    a_vals, b_vals = scattering_coefficients(series, N, rho_grid)
    poly = a_polynomial(series, N)
    eigenvalues = find_eigenvalues(poly, series, N)
    norming = norming_constants(series, N, eigenvalues)
    return ScatteringData(
        rho_grid=rho_grid,
        a_values=a_vals,
        b_values=b_vals,
        eigenvalues=eigenvalues,
        norming_constants=norming,
        n_terms=N,
        potential_desc=p.description,
        truncation=truncation,
        series=series,
    )


# Largest |rho_k + rho_{n-1-k}|, relative to max |rho|, at which the rho
# grid counts as mirror-symmetric
_MIRROR_TOL = 1e-12


def _parity_defect(rho: np.ndarray, values: np.ndarray) -> float | None:
    """max |f(-rho) - conj f(rho)| over the ascending grid, 0 for a and b
    of real q; None when the grid is not mirror-symmetric, so that -rho is
    not a grid point."""
    if np.max(np.abs(rho + rho[::-1])) > _MIRROR_TOL * np.max(np.abs(rho)):
        return None
    return float(np.max(np.abs(values[::-1] - np.conj(values))))


def validate_scattering(sd: ScatteringData) -> dict:
    """Unitarity, parity (None off a mirror-symmetric grid) and pairing defects."""
    unitarity = float(
        np.max(np.abs(np.abs(sd.a_values) ** 2 + np.abs(sd.b_values) ** 2 - 1.0))
    )
    b_parity = _parity_defect(sd.rho_grid, sd.b_values)
    a_parity = _parity_defect(sd.rho_grid, sd.a_values)
    rhos = np.array([ev.rho for ev in sd.eigenvalues])
    if rhos.size:
        pairing = float(
            max(np.min(np.abs(rhos + np.conj(r))) for r in rhos)
        )
        norm_pair = 0.0
        for m, r in enumerate(rhos):
            partner = int(np.argmin(np.abs(rhos + np.conj(r))))
            norm_pair = max(
                norm_pair,
                abs(sd.norming_constants[partner] - np.conj(sd.norming_constants[m])),
            )
    else:
        pairing = 0.0
        norm_pair = 0.0
    return {
        "unitarity_defect": unitarity,
        "a_parity_defect": a_parity,
        "b_parity_defect": b_parity,
        "eigenvalue_pairing_defect": pairing,
        "norming_symmetry_defect": float(norm_pair),
    }


def scattering_to_json(sd: ScatteringData) -> str:
    def floats(v):
        # one conversion per array; json.dumps writes Python floats by repr
        return np.asarray(v, dtype=float).tolist()

    payload = {
        "rho": floats(sd.rho_grid),
        "a_re": floats(sd.a_values.real),
        "a_im": floats(sd.a_values.imag),
        "b_re": floats(sd.b_values.real),
        "b_im": floats(sd.b_values.imag),
        "eigenvalues": [
            {"re": float(ev.rho.real), "im": float(ev.rho.imag)} for ev in sd.eigenvalues
        ],
        "norming": [
            {"re": float(c.real), "im": float(c.imag)} for c in sd.norming_constants
        ],
        "n_terms": int(sd.n_terms),
        "potential_desc": sd.potential_desc,
    }
    # one line per key; without indent, json.dumps takes its C encoder,
    # which an indent turns off
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                        for key, value in payload.items())
    return "{\n" + lines + "\n}"


def scattering_from_json(text: str) -> ScatteringData:
    """Parse scattering JSON; malformed or inconsistent input raises InvalidScatteringData.

    The rho grid must hold at least 2 increasing points, the eigenvalues
    must be distinct, ``n_terms`` must be an integer >= 0 (not a bool) and
    ``potential_desc`` a string; absent, they read as 0 and "".
    """
    try:
        payload = json.loads(text)
        rho, a_re, a_im, b_re, b_im = (
            np.asarray(payload[key], dtype=float)
            for key in ("rho", "a_re", "a_im", "b_re", "b_im")
        )
        ev_rho = np.array(
            [complex(ev["re"], ev["im"]) for ev in payload["eigenvalues"]], dtype=complex
        )
        norming = np.asarray(
            [complex(c["re"], c["im"]) for c in payload["norming"]], dtype=complex
        )
    except (KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        raise InvalidScatteringData(
            f"malformed scattering JSON ({type(exc).__name__}: {exc})"
        ) from exc
    if rho.ndim != 1 or any(v.shape != rho.shape for v in (a_re, a_im, b_re, b_im)):
        raise InvalidScatteringData(
            "rho, a_re, a_im, b_re and b_im must be lists of equal length"
        )
    if rho.size < 2:
        raise InvalidScatteringData(f"the rho grid needs at least 2 points, got {rho.size}")
    if not all(np.all(np.isfinite(v)) for v in (rho, a_re, a_im, b_re, b_im, ev_rho, norming)):
        raise InvalidScatteringData("scattering data holds non-finite values")
    if np.any(np.diff(rho) <= 0):
        raise InvalidScatteringData("the rho grid must be strictly increasing")
    if np.any(ev_rho.imag <= 0):
        raise InvalidScatteringData("eigenvalues must have Im rho > 0")
    if norming.size != ev_rho.size:
        raise InvalidScatteringData(
            f"{norming.size} norming constants for {ev_rho.size} eigenvalues"
        )
    # equal eigenvalues give equal eigenvalue rows, which the inverse sweep
    # cannot hold as independent constraints
    equal = np.argwhere(np.triu(ev_rho[:, None] == ev_rho, k=1))
    if equal.size:
        i, j = equal[0]
        raise InvalidScatteringData(
            f"eigenvalues {i} and {j} are equal (rho = {ev_rho[i]:g})"
        )
    n_terms = payload.get("n_terms", 0)
    if not _is_order(n_terms):
        raise InvalidScatteringData(f"n_terms must be an integer >= 0, got {n_terms!r}")
    potential_desc = payload.get("potential_desc", "")
    if not isinstance(potential_desc, str):
        raise InvalidScatteringData(
            f"potential_desc must be a string, got {type(potential_desc).__name__}"
        )
    eigenvalues = tuple(
        Eigenvalue(rho=r, z=z_of_rho(r), residual=0.0) for r in ev_rho.tolist()
    )
    return ScatteringData(
        rho_grid=rho,
        a_values=a_re + 1j * a_im,
        b_values=b_re + 1j * b_im,
        eigenvalues=eigenvalues,
        norming_constants=norming,
        n_terms=n_terms,
        potential_desc=potential_desc,
    )


def write_scattering_csv(path: str, sd: ScatteringData) -> None:
    write_csv(
        path,
        ["rho", "re_a", "im_a", "re_b", "im_b"],
        [sd.rho_grid, sd.a_values.real, sd.a_values.imag, sd.b_values.real, sd.b_values.imag],
    )
