"""Moebius map of the spectral parameter and the series form of the Jost factors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSeries, CoefficientTable
from .errors import PoleAtMinusOne
from .numerics import horner

__all__ = [
    "JostPair",
    "z_of_rho",
    "rho_of_z",
    "JostFactors",
    "eval_jost",
]


def z_of_rho(rho: complex) -> complex:
    """z = (1/2 + i rho)/(1/2 - i rho); upper half-plane -> closed unit disk."""
    return (0.5 + 1j * rho) / (0.5 - 1j * rho)


def rho_of_z(z: complex) -> complex:
    """Inverse map rho = i(1 - z)/(2(1 + z)); the pole z = -1 is rejected."""
    if z == -1:
        raise PoleAtMinusOne("z = -1 corresponds to rho at infinity")
    return 1j * (1.0 - z) / (2.0 * (1.0 + z))


@dataclass(frozen=True)
class JostPair:
    phi1: complex
    phi2: complex
    psi1: complex
    psi2: complex


@dataclass(frozen=True, eq=False)
class JostFactors:
    """The truncated Jost series at one x node as ascending polynomials in z.

    The series are sums of (-1)^n c_n z^n over n = 0..N; the four arrays hold
    (-1)^n Re b_n, (-1)^n Im b_n, (-1)^n Re a_n and (-1)^n Im a_n, so each
    series is the ordinary polynomial with those coefficients.  The factors
    are P_b = 1 + (z+1) S_rb, S_b = S_ib, P_a = 1 + (z+1) S_ra, S_a = S_ia.
    """

    re_b: np.ndarray
    im_b: np.ndarray
    re_a: np.ndarray
    im_a: np.ndarray

    @classmethod
    def from_series(cls, series: CoefficientSeries, N: int) -> "JostFactors":
        """Coefficients up to order N of the series at one x node."""
        if N > series.N_max:
            raise ValueError("N exceeds the available coefficient order")
        sign = np.ones(N + 1)
        sign[1::2] = -1.0
        b = series.b[: N + 1]
        a = series.a[: N + 1]
        return cls(sign * b.real, sign * b.imag, sign * a.real, sign * a.imag)

    def evaluate(self, z):
        """P_b, S_b, P_a, S_a at z (scalar or array)."""
        zp1 = z + 1.0
        Pb = 1.0 + zp1 * horner(self.re_b, z)[0]
        Sb = horner(self.im_b, z)[0]
        Pa = 1.0 + zp1 * horner(self.re_a, z)[0]
        Sa = horner(self.im_a, z)[0]
        return Pb, Sb, Pa, Sa

    def a_polynomial(self) -> np.ndarray:
        """Ascending coefficients of a(z) = P_b P_a + (z+1)^2 S_b S_a.

        The cross term enters with +: a = phi1 psi2 - phi2 psi1 and psi1
        carries a leading minus sign.
        """
        first = np.convolve(_one_plus_zp1_times(self.re_b), _one_plus_zp1_times(self.re_a))
        second = np.convolve(np.convolve([1.0, 2.0, 1.0], self.im_b), self.im_a)
        out = np.zeros(max(first.size, second.size))
        out[: first.size] += first
        out[: second.size] += second
        return out

    @staticmethod
    def collocation_columns(z: np.ndarray, N: int) -> np.ndarray:
        """(z+1)(-z)^n for n = 0..N, one row per entry of the 1-D array z."""
        powers = np.empty((z.size, N + 1), dtype=complex)
        powers[:, 0] = 1.0
        for n in range(1, N + 1):
            powers[:, n] = powers[:, n - 1] * (-z)
        return (z + 1.0)[:, None] * powers


def _one_plus_zp1_times(s: np.ndarray) -> np.ndarray:
    """Ascending coefficients of 1 + (z+1) S(z) given those of S."""
    out = np.zeros(s.size + 1)
    out[: s.size] += s
    out[1:] += s
    out[0] += 1.0
    return out


def eval_jost(rho: complex, x_index: int, table: CoefficientTable, N: int) -> JostPair:
    """Truncated series values of both Jost solutions at one (rho, x)."""
    rho = complex(rho)
    z = z_of_rho(rho)
    Pb, Sb, Pa, Sa = JostFactors.from_series(table.series_at(x_index), N).evaluate(z)
    x = table.grid.nodes[x_index]
    em = np.exp(-1j * rho * x)
    ep = np.exp(1j * rho * x)
    zp1 = z + 1.0
    return JostPair(
        phi1=complex(em * Pb),
        phi2=complex(em * zp1 * Sb),
        psi1=complex(-ep * zp1 * Sa),
        psi2=complex(ep * Pa),
    )
