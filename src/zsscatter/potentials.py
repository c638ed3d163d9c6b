"""Real decaying potentials q(x) and the derived complex potentials q1, q2.

Presets cover the standard benchmark family (scaled sech, sech with free
amplitude, a perturbed sech power, and a one-sided exponential well); sampled
potentials are ingested from two-column CSV files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._output import write_csv
from .errors import DomainTooSmall, NonRealPotential
from .numerics import UniformGrid, cumulative_integral_from_left, differentiate

__all__ = [
    "PotentialSpec",
    "SampledPotential",
    "evaluate",
    "decay_check",
    "preset_names",
    "write_potential_csv",
]

_SQRT2 = math.sqrt(2.0)


def _zero(x):
    return np.zeros_like(x)


def _sech(x):
    return 1.0 / np.cosh(x)


def _make_sech_scaled(mu: float):
    def q(x):
        return mu * _sech(mu * x)

    def dq(x):
        return -(mu**2) * _sech(mu * x) * np.tanh(mu * x)

    return q, dq


def _make_sech_amplitude(mu: float):
    def q(x):
        return mu * _sech(x)

    def dq(x):
        return -mu * _sech(x) * np.tanh(x)

    return q, dq


def _make_example3(mu: float):
    p = math.pi / 3.0

    def q(x):
        return mu * np.cosh(x) ** (-p) - np.exp(-((x - 2.0) ** 2))

    def dq(x):
        return -mu * p * np.cosh(x) ** (-p) * np.tanh(x) + 2.0 * (x - 2.0) * np.exp(
            -((x - 2.0) ** 2)
        )

    return q, dq


def _make_example4():
    c = 4.0 * _SQRT2 * (_SQRT2 - 1.0)
    s = (_SQRT2 - 1.0) ** 2

    def _den(x):
        return s * np.exp(-2.0 * _SQRT2 * x) + np.exp(2.0 * _SQRT2 * x)

    def q(x):
        return -c / _den(x)

    def dq(x):
        dden = 2.0 * _SQRT2 * (np.exp(2.0 * _SQRT2 * x) - s * np.exp(-2.0 * _SQRT2 * x))
        return c * dden / _den(x) ** 2

    return q, dq


_PRESETS: dict[str, Callable] = {
    "zero": lambda **kw: (_zero, _zero),
    "sech_scaled": lambda mu=math.pi, **kw: _make_sech_scaled(mu),
    "sech_amplitude": lambda mu=1.0, **kw: _make_sech_amplitude(mu),
    "example3": lambda mu=math.pi / 7.0, **kw: _make_example3(mu),
    "example4": lambda **kw: _make_example4(),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


@dataclass(frozen=True)
class PotentialSpec:
    """Either a named preset with parameters or a path to sampled data."""

    preset: str | None = None
    params: dict | None = None
    path: str | None = None

    def __post_init__(self):
        if (self.preset is None) == (self.path is None):
            raise ValueError("specify exactly one of preset or path")
        if self.preset is not None and self.preset not in _PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {preset_names()}")
        if self.params:
            for v in self.params.values():
                if not math.isfinite(v):
                    raise ValueError("preset parameters must be finite")

    def describe(self) -> str:
        if self.preset is not None:
            pieces = "".join(f", {k}={v:g}" for k, v in (self.params or {}).items())
            return f"preset:{self.preset}{pieces}"
        return f"file:{self.path}"


@dataclass(frozen=True)
class SampledPotential:
    """q, q' and the derived Schroedinger potentials on a uniform grid.

    q1 = -i q' - q^2 and q2 = conj(q1); decay_norm_left/right integrate
    (1+|x|)|q1| over the outer 10% of each tail as a truncation diagnostic.
    """

    grid: UniformGrid
    q: np.ndarray
    q_prime: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    decay_norm_left: float
    decay_norm_right: float
    description: str = ""


def _read_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    xs: list[float] = []
    qs: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise NonRealPotential(f"{path}: empty file")
        for row in reader:
            if not row:
                continue
            try:
                x = float(row[0])
                q = float(row[1])
            except (ValueError, IndexError) as exc:
                raise NonRealPotential(f"{path}: non-numeric entry {row!r}") from exc
            xs.append(x)
            qs.append(q)
    x_arr = np.asarray(xs)
    q_arr = np.asarray(qs)
    # float() parses "nan" and "inf", and a NaN passes the ordering test below
    if not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(q_arr))):
        raise NonRealPotential(f"{path}: x and q must be finite numbers")
    if x_arr.size < 4 or np.any(np.diff(x_arr) <= 0):
        raise NonRealPotential(f"{path}: x column must be strictly increasing with >= 4 rows")
    return x_arr, q_arr


def _tail_norms(grid: UniformGrid, q1: np.ndarray) -> tuple[float, float]:
    weight = (1.0 + np.abs(grid.nodes)) * np.abs(q1)
    F = cumulative_integral_from_left(grid, weight).real
    k = max(1, int(0.1 * (grid.n_points - 1)))
    left = float(F[k])
    right = float(F[-1] - F[-1 - k])
    return left, right


def evaluate(spec: PotentialSpec, grid: UniformGrid) -> SampledPotential:
    """Sample a potential spec on a grid and derive q', q1, q2."""
    if spec.preset is not None:
        qf, dqf = _PRESETS[spec.preset](**(spec.params or {}))
        q = np.asarray(qf(grid.nodes), dtype=float)
        qp = np.asarray(dqf(grid.nodes), dtype=float)
    else:
        x_arr, q_arr = _read_samples(spec.path)
        if not np.all(np.isreal(q_arr)):
            raise NonRealPotential(f"{spec.path}: potential values must be real")
        if x_arr[0] > -grid.half_width or x_arr[-1] < grid.half_width:
            raise DomainTooSmall(
                f"{spec.path}: data covers [{x_arr[0]:g}, {x_arr[-1]:g}], "
                f"needs [-{grid.half_width:g}, {grid.half_width:g}]"
            )
        # imported here: scipy.interpolate loads scipy.optimize too, which
        # would make it the dearest import of the package, and only sampled
        # potentials need it
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(x_arr, q_arr)
        q = spline(grid.nodes)
        qp = differentiate(grid, q).real
    q1 = -1j * qp - q**2
    left, right = _tail_norms(grid, q1)
    return SampledPotential(
        grid=grid,
        q=q,
        q_prime=qp,
        q1=q1,
        q2=np.conj(q1),
        decay_norm_left=left,
        decay_norm_right=right,
        description=spec.describe(),
    )


def decay_check(p: SampledPotential, threshold: float = 1e-6) -> list[str]:
    """Warnings for tails where the truncation at +-a looks too aggressive."""
    warnings = []
    if p.decay_norm_left > threshold:
        warnings.append(
            f"left tail weight {p.decay_norm_left:.3g} exceeds {threshold:g}; "
            "consider a larger half-width"
        )
    if p.decay_norm_right > threshold:
        warnings.append(
            f"right tail weight {p.decay_norm_right:.3g} exceeds {threshold:g}; "
            "consider a larger half-width"
        )
    return warnings


def write_potential_csv(path: str, grid: UniformGrid, q: np.ndarray) -> None:
    """Write a two-column 'x,q' CSV readable by PotentialSpec(path=...)."""
    write_csv(path, ["x", "q"], [grid.nodes, np.real(q)])
