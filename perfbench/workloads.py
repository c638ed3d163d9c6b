"""Inputs, workload make-up and correctness checks of the zsscatter benchmark.

Every reference used by the checks is computed apart from the series
machinery: closed forms of q, of the eigenvalues and of b, the published
reference eigenvalues of example 3, properties the scattering data must have
(unitarity, a/b parity, a bit-exact JSON round trip) and the RK4 integration
in ``oracle_scatter``.  Nothing is compared with a stored copy of an earlier
output.  The tolerances of the full profile are those of
tests/test_acceptance.py.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import zsscatter as zs

WORKLOADS = ("direct", "inverse-sweep", "inverse-select")

MU2 = 5.0 + math.pi / 7.0
MU3 = math.pi / 7.0
SQRT2 = math.sqrt(2.0)
EX3_REF = 0.424731737929926 + 0.0340968987198153j
# ex5 is a sech_amplitude member whose amplitude the seed draws from this
# range.  Both eigenvalues i(mu - 1/2) and i(mu - 3/2) stay at least 0.75
# above the real axis and |sin(pi mu)| >= 0.7, so the acceptance tolerances
# hold for every draw; and the sum rules pick N = 81 across the whole range,
# so the cost of ex5 does not move with the seed (near mu = 2, where q is
# reflectionless, they pick the cap N_max = 250 and the solve takes 6x longer)
MU5_RANGE = (2.25, 2.37)

# the oracle is compared on every 20th rho with |rho| <= 10, as in the
# acceptance suite
ORACLE_RHO_MAX = 10.0
ORACLE_STRIDE = 20


def sech_amplitude_eigenvalues(mu: float) -> tuple[complex, ...]:
    """Satsuma-Yajima: q = mu sech(x) has eigenvalues i(mu - m + 1/2)."""
    return tuple(1j * (mu - m + 0.5) for m in range(1, int(math.floor(mu + 0.5)) + 1))


def sech_amplitude_b(mu: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rho: -math.sin(math.pi * mu) / np.cosh(math.pi * rho)


@dataclass(frozen=True)
class Tolerances:
    eigenvalue: float
    b: float = 1e-8
    unitarity: float = 1e-6
    parity: float = 1e-10
    oracle: float = 1e-5


@dataclass(frozen=True)
class Example:
    """One potential with its closed-form or reference answers."""

    name: str
    spec: zs.PotentialSpec
    grid: tuple[float, int]
    q: Callable[[np.ndarray], np.ndarray]
    eigenvalues: tuple[complex, ...]
    tol: Tolerances
    b: Callable[[np.ndarray], np.ndarray] | None = None
    oracle_grid: tuple[float, int] | None = None
    direct_kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InverseCase:
    example: str
    config: zs.InverseConfig
    q_tol: float


@dataclass(frozen=True)
class Workload:
    """Examples solved directly, then inverse cases solved on their JSON.

    With ``direct_in_pass`` the direct solves are part of the timed pass;
    otherwise they are set-up that produces the scattering data of the
    inverse pass.  A pass runs its inverse cases ``inverse_repeats`` times.
    """

    name: str
    examples: tuple[Example, ...]
    inverse: tuple[InverseCase, ...]
    direct_in_pass: bool
    inverse_repeats: int = 1


def _examples(mu5: float) -> dict[str, Example]:
    pi = math.pi
    return {
        "ex1": Example(
            "ex1", zs.PotentialSpec(preset="sech_scaled", params={"mu": pi}), (15.0, 16001),
            lambda x: pi / np.cosh(pi * x), (1j * pi / 2.0,),
            Tolerances(eigenvalue=1e-9, b=1e-6), b=lambda rho: np.zeros_like(rho),
            oracle_grid=(15.0, 4001),
        ),
        "ex2": Example(
            "ex2", zs.PotentialSpec(preset="sech_amplitude", params={"mu": MU2}), (30.0, 32001),
            lambda x: MU2 / np.cosh(x), sech_amplitude_eigenvalues(MU2),
            Tolerances(eigenvalue=1e-6), b=sech_amplitude_b(MU2), oracle_grid=(30.0, 16001),
        ),
        "ex3": Example(
            "ex3", zs.PotentialSpec(preset="example3", params={"mu": MU3}), (25.0, 26669),
            lambda x: MU3 * np.cosh(x) ** (-pi / 3.0) - np.exp(-((x - 2.0) ** 2)),
            (EX3_REF, -np.conj(EX3_REF)), Tolerances(eigenvalue=1e-6),
            oracle_grid=(25.0, 6667),
        ),
        "ex4": Example(
            "ex4", zs.PotentialSpec(preset="example4", params={}), (15.0, 16001),
            lambda x: -4.0 * SQRT2 * (SQRT2 - 1.0)
            / ((SQRT2 - 1.0) ** 2 * np.exp(-2.0 * SQRT2 * x) + np.exp(2.0 * SQRT2 * x)),
            (1j * SQRT2,), Tolerances(eigenvalue=1e-9), oracle_grid=(15.0, 4001),
        ),
        "ex5": Example(
            "ex5", zs.PotentialSpec(preset="sech_amplitude", params={"mu": mu5}), (30.0, 12001),
            lambda x: mu5 / np.cosh(x), sech_amplitude_eigenvalues(mu5),
            Tolerances(eigenvalue=1e-6), b=sech_amplitude_b(mu5), oracle_grid=(30.0, 6001),
        ),
    }


def _inverse_cases() -> dict[str, InverseCase]:
    # x windows are narrow rather than thinly sampled: the recovery
    # differentiates across x, so q_err follows the node spacing (0.005 for
    # ex1/ex4), and a wide window at the same spacing costs a solve per node
    select = dict(N="auto", candidates=tuple(range(5, 51, 5)), selection_x_points=21,
                  x_half_width=0.125, x_points=51)
    return {
        "direct": InverseCase("ex1", zs.InverseConfig(N=25, x_half_width=0.1, x_points=41), 1e-5),
        "sweep-ex1": InverseCase("ex1", zs.InverseConfig(N=25, x_half_width=0.25, x_points=101), 1e-5),
        "sweep-ex2": InverseCase("ex2", zs.InverseConfig(N=60, x_half_width=5.0, x_points=101), 0.5),
        "select-ex1": InverseCase("ex1", zs.InverseConfig(**select), 1e-5),
        "select-ex4": InverseCase("ex4", zs.InverseConfig(**select), 1e-5),
    }


def _tiny(examples: dict[str, Example], cases: dict[str, InverseCase]):
    """Small grids for the self-test of the harness; not a benchmark input.

    The grids are too coarse for the acceptance tolerances, so this profile
    carries tolerances a few times above what these grids reach.  It checks
    that every workload runs end to end, not the accuracy of the program.
    """
    grids = {"ex1": (8.0, 1001), "ex2": (20.0, 2001), "ex3": (15.0, 1001),
             "ex4": (8.0, 1001), "ex5": (20.0, 1001)}
    tol = Tolerances(eigenvalue=1e-3, b=1e-3, unitarity=1e-3, oracle=1e-3)
    small = {
        name: replace(ex, grid=grids[name], oracle_grid=grids[name],
                      direct_kwargs={"N_max": 80}, tol=tol)
        for name, ex in examples.items()
    }
    shrink = dict(K=400, x_half_width=0.25, x_points=21, selection_x_points=11,
                  selection_K=200)
    tiny_cases = {}
    for key, case in cases.items():
        kw = dict(shrink, candidates=(10, 15)) if case.config.N == "auto" else shrink
        tiny_cases[key] = replace(case, config=replace(case.config, **kw), q_tol=1e-2)
    return small, tiny_cases


def make_workload(name: str, seed: int, size: str = "full") -> Workload:
    """The inputs of one run; the same seed gives the same inputs.

    The seed draws the amplitude of ex5 and the order in which a pass visits
    the examples and the inverse cases.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    mu5 = MU5_RANGE[0] + (MU5_RANGE[1] - MU5_RANGE[0]) * rng.random()
    examples, cases = _examples(mu5), _inverse_cases()
    if size == "tiny":
        examples, cases = _tiny(examples, cases)
    if name == "direct":
        ex_names, case_keys = ["ex1", "ex2", "ex3", "ex4", "ex5"], ["direct"]
    elif name == "inverse-sweep":
        ex_names, case_keys = ["ex1", "ex2"], ["sweep-ex1", "sweep-ex2"]
    else:
        ex_names, case_keys = ["ex1", "ex4"], ["select-ex1", "select-ex4"]
    rng.shuffle(ex_names)
    rng.shuffle(case_keys)
    return Workload(
        name=name,
        examples=tuple(examples[n] for n in ex_names),
        inverse=tuple(cases[k] for k in case_keys),
        direct_in_pass=(name == "direct"),
        # the one small inverse solve of a direct pass is repeated so that
        # its median over a run rests on more than two or three samples
        inverse_repeats=3 if name == "direct" and size == "full" else 1,
    )


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def oracle_reference(ex: Example, rho_grid: np.ndarray):
    """a, b from direct RK4 integration on the example's oracle grid.

    Returns (mask, a, b) with mask selecting the compared rho values.
    """
    idx = np.flatnonzero(np.abs(rho_grid) <= ORACLE_RHO_MAX)[::ORACLE_STRIDE]
    p = zs.evaluate(ex.spec, zs.UniformGrid(*ex.oracle_grid))
    a_o, b_o = zs.oracle_scatter(p, rho_grid[idx])
    return idx, a_o, b_o


def _eigenvalue_error(found: np.ndarray, expected: tuple[complex, ...]) -> float:
    if found.size == 0:
        return math.inf
    return float(max(np.min(np.abs(found - e)) for e in expected))


def _same_scattering(x, y) -> bool:
    """Bit-exact equality of everything the scattering JSON carries."""
    return (
        np.array_equal(x.rho_grid, y.rho_grid)
        and np.array_equal(x.a_values, y.a_values)
        and np.array_equal(x.b_values, y.b_values)
        and np.array_equal(np.array([ev.rho for ev in x.eigenvalues], dtype=complex),
                           np.array([ev.rho for ev in y.eigenvalues], dtype=complex))
        and np.array_equal(x.norming_constants, y.norming_constants)
    )


def check_direct(ex: Example, sd, back, oracle=None) -> tuple[list[str], dict]:
    """Failures and error figures of one direct solve and its JSON copy."""
    tol = ex.tol
    fails = []
    found = np.array([ev.rho for ev in sd.eigenvalues], dtype=complex)
    errs = {"eig": _eigenvalue_error(found, ex.eigenvalues)}
    if found.size != len(ex.eigenvalues):
        fails.append(f"{ex.name}: {found.size} eigenvalues, expected {len(ex.eigenvalues)}")
    if not errs["eig"] <= tol.eigenvalue:
        fails.append(f"{ex.name}: eigenvalue error {errs['eig']:.3g} > {tol.eigenvalue:g}")
    rho, a, b = sd.rho_grid, sd.a_values, sd.b_values
    if ex.b is not None:
        errs["b"] = float(np.max(np.abs(b - ex.b(rho))))
        if not errs["b"] <= tol.b:
            fails.append(f"{ex.name}: closed-form b error {errs['b']:.3g} > {tol.b:g}")
    errs["unitarity"] = float(np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)))
    if not errs["unitarity"] <= tol.unitarity:
        fails.append(f"{ex.name}: unitarity defect {errs['unitarity']:.3g} > {tol.unitarity:g}")
    # a(-rho) = conj a(rho) and b(-rho) = conj b(rho) on the symmetric grid
    symmetric = np.max(np.abs(rho[::-1] + rho)) <= 1e-12 * np.max(np.abs(rho))
    parity = max(float(np.max(np.abs(a[::-1] - np.conj(a)))),
                 float(np.max(np.abs(b[::-1] - np.conj(b)))))
    if not (symmetric and parity <= tol.parity):
        fails.append(f"{ex.name}: a/b parity defect {parity:.3g} > {tol.parity:g}")
    if oracle is not None:
        idx, a_o, b_o = oracle
        gap = max(float(np.max(np.abs(a[idx] - a_o))), float(np.max(np.abs(b[idx] - b_o))))
        if not gap <= tol.oracle:
            fails.append(f"{ex.name}: oracle disagreement {gap:.3g} > {tol.oracle:g}")
    if not _same_scattering(sd, back):
        fails.append(f"{ex.name}: JSON round trip is not bit-exact")
    return fails, errs


def check_inverse(case: InverseCase, ex: Example, rec) -> tuple[list[str], float]:
    """Failures and max |q_rec - q_exact| on the inner 90 % of the x window."""
    x = rec.x_grid.nodes
    lo = int(0.05 * x.size)
    inner = slice(lo, x.size - lo)
    err = float(np.max(np.abs(rec.chosen[inner] - ex.q(x[inner]))))
    fails = [] if err <= case.q_tol else [f"{case.example}: q error {err:.3g} > {case.q_tol:g}"]
    return fails, err


def geometric_mean(values) -> float:
    # an exact zero error would sink the mean to 0; count it as 1e-300
    logs = [math.log(max(v, 1e-300)) for v in values]
    return math.exp(sum(logs) / len(logs))
