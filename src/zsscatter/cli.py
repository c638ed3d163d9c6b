"""Command-line front end: direct/inverse/roundtrip/validate/presets."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._output import write_csv
from .coeffs import DEFAULT_N_MAX
from .direct import (
    check_rho_grid,
    scattering_from_json,
    scattering_to_json,
    solve_direct,
    validate_scattering,
    write_scattering_csv,
)
from .errors import ZSScatterError
from .inverse import InverseConfig, solve_inverse
from .numerics import UniformGrid
from .potentials import PotentialSpec, decay_check, evaluate, preset_names

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_direct_options(sub):
    sub.add_argument("--potential", required=True,
                     help="preset:NAME or file:PATH.csv")
    sub.add_argument("--mu", type=float, default=None,
                     help="parameter for presets that take one")
    sub.add_argument("--half-width", type=float, default=15.0)
    sub.add_argument("--grid-points", type=int, default=4001)
    sub.add_argument("--rho-max", type=float, default=30.0)
    sub.add_argument("--rho-count", type=int, default=4000)
    sub.add_argument("--n-terms", default="auto",
                     help='series truncation order, or "auto"')


def _add_inverse_options(sub):
    sub.add_argument("--x-half-width", type=float, default=8.0)
    sub.add_argument("--x-points", type=int, default=2001,
                     help="points of the uniform output grid of q; the sweep solves at "
                          "nested Chebyshev nodes (17, 33, 65, ...) until their "
                          "coefficients are resolved, at most this many, or one level "
                          "more if it would stop unresolved with its two recovered q "
                          "more than 1%% apart")
    sub.add_argument("--collocation", type=int, default=1000,
                     help="at most this many collocation points, drawn from the rho "
                          "grid; targets that land on one grid point count once (397 "
                          "for 1000 on the default 4000-point grid). For real q the "
                          "sweep reads the points of one half line, each standing for "
                          "itself and its mirror (199 of those 397), and so does the "
                          "N-selection. collocation_count reports the number the "
                          "sweep reads")
    sub.add_argument("--inverse-n", default="auto",
                     help='inverse truncation order, or "auto"')


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zsscatter",
                     description="Zakharov-Shabat direct and inverse scattering")
    subs = parser.add_subparsers(dest="command", required=True)

    d = subs.add_parser("direct", help="solve the direct problem")
    _add_direct_options(d)
    d.add_argument("--output-dir", default=".")

    i = subs.add_parser("inverse", help="recover q from scattering data")
    i.add_argument("--scattering", required=True, help="scattering JSON file")
    _add_inverse_options(i)
    i.add_argument("--output-dir", default=".")

    r = subs.add_parser("roundtrip", help="direct then inverse, with error table")
    _add_direct_options(r)
    _add_inverse_options(r)
    r.add_argument("--output-dir", default=".")

    v = subs.add_parser("validate", help="check invariants of scattering data")
    v.add_argument("--scattering", required=True)

    subs.add_parser("presets", help="list built-in potentials")
    return parser


def _parse_potential(args, parser) -> PotentialSpec:
    text = args.potential
    if text.startswith("preset:"):
        name = text[len("preset:"):]
        params = {} if args.mu is None else {"mu": args.mu}
        return PotentialSpec(preset=name, params=params)
    if text.startswith("file:"):
        return PotentialSpec(path=text[len("file:"):])
    parser.error("--potential must start with 'preset:' or 'file:'")


def _parse_n(text, parser):
    """None for "auto", else the truncation order, an integer 0..DEFAULT_N_MAX."""
    if text == "auto":
        return None
    try:
        n = int(text)
    except ValueError:
        parser.error(f"invalid truncation order: {text!r}")
    if not 0 <= n <= DEFAULT_N_MAX:
        parser.error(f"--n-terms must be \"auto\" or an integer from 0 to {DEFAULT_N_MAX}")
    return n


def _check_direct_args(args, parser):
    try:
        args.grid = UniformGrid(args.half_width, args.grid_points)
        check_rho_grid(args.rho_max, args.rho_count)
    except ValueError as exc:
        parser.error(f"invalid grid option: {exc}")
    args.n_terms = _parse_n(args.n_terms, parser)


def _direct_stage(args, parser):
    spec = _parse_potential(args, parser)
    p = evaluate(spec, args.grid)
    for message in decay_check(p):
        print(f"warning: {message}", file=sys.stderr)
    sd = solve_direct(
        p,
        rho_max=args.rho_max,
        rho_count=args.rho_count,
        n_terms=args.n_terms,
    )
    if sd.truncation is not None and sd.truncation.at_cap:
        print(
            f"warning: truncation order N = {sd.n_terms} is the cap "
            f"N_max = {sd.series.N_max}; the series may not have converged",
            file=sys.stderr,
        )
    return sd


def _inverse_config(args, parser) -> InverseConfig:
    n = args.inverse_n
    try:
        return InverseConfig(
            x_half_width=args.x_half_width,
            x_points=args.x_points,
            K=args.collocation,
            N="auto" if n == "auto" else int(n),
        )
    except ValueError as exc:
        parser.error(f"invalid inverse option: {exc}")


def _inverse_stage(sd, args):
    rec, coeffs, info = solve_inverse(sd, args.inverse_config)
    if not info["x_resolved"]:
        print(
            f"warning: the x-sweep stopped at {info['x_nodes']} nodes unresolved "
            f"(Chebyshev tail at {info['chop_level']:.1e}); raise --x-points",
            file=sys.stderr,
        )
    return rec, coeffs, info


def _write_inverse_outputs(out_dir, rec, coeffs, info):
    write_csv(
        os.path.join(out_dir, "recovered.csv"),
        ["x", "q_recovered", "q_from_a0"],
        [rec.x_grid.nodes, rec.chosen, rec.q_from_a0],
    )
    write_csv(
        os.path.join(out_dir, "sweep_nodes.csv"),
        ["x", "residual", "condition"],
        [coeffs.nodes, coeffs.residuals, coeffs.conditions],
    )
    summary = {
        "chosen_N": info["chosen_N"],
        "collocation_count": info["collocation_count"],
        "x_nodes": info["x_nodes"],
        "x_resolved": info["x_resolved"],
        "chop_level": info["chop_level"],
        "delta_table": {str(k): v for k, v in info.get("delta_table", {}).items()},
        "selection_skipped": info.get("selection_skipped", []),
        "sweep_rank_truncated": info["sweep_rank_truncated"],
        "max_residual": info["max_residual"],
        "max_condition": info["max_condition"],
        "constraint_residual": info["constraint_residual"],
        "parity_defect": info["parity_defect"],
        "discrepancy": info["discrepancy"],
    }
    with open(os.path.join(out_dir, "inverse_summary.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2))
        fh.write("\n")


def _run_direct(args, parser) -> int:
    sd = _direct_stage(args, parser)
    os.makedirs(args.output_dir, exist_ok=True)
    with open(os.path.join(args.output_dir, "scattering.json"), "w",
              encoding="utf-8") as fh:
        fh.write(scattering_to_json(sd))
        fh.write("\n")
    write_scattering_csv(os.path.join(args.output_dir, "scattering.csv"), sd)
    report = validate_scattering(sd)
    print(f"chosen N: {sd.n_terms}")
    print(f"unitarity defect: {report['unitarity_defect']:.3e}")
    print(f"eigenvalues ({sd.M}):")
    for ev in sd.eigenvalues:
        print(f"  {ev.rho.real:+.15g} {ev.rho.imag:+.15g}j")
    return EXIT_OK


def _run_inverse(args, parser) -> int:
    with open(args.scattering, encoding="utf-8") as fh:
        sd = scattering_from_json(fh.read())
    rec, coeffs, info = _inverse_stage(sd, args)
    os.makedirs(args.output_dir, exist_ok=True)
    _write_inverse_outputs(args.output_dir, rec, coeffs, info)
    print(f"chosen N: {info['chosen_N']}")
    print(f"max residual: {info['max_residual']:.3e}")
    print(f"condition estimate: {info['max_condition']:.3e}")
    return EXIT_OK


def _run_roundtrip(args, parser) -> int:
    sd = _direct_stage(args, parser)
    rec, coeffs, info = _inverse_stage(sd, args)
    os.makedirs(args.output_dir, exist_ok=True)
    _write_inverse_outputs(args.output_dir, rec, coeffs, info)
    g = rec.x_grid
    spec = _parse_potential(args, parser)
    report = {"chosen_N": info["chosen_N"], "max_residual": info["max_residual"]}
    if spec.preset is not None:
        reference = evaluate(spec, g)
        lo = int(0.05 * g.n_points)
        inner = slice(lo, g.n_points - lo)
        err = float(np.max(np.abs(rec.chosen[inner] - reference.q[inner])))
        report["max_abs_error"] = err
        print(f"max abs error (inner 90%): {err:.3e}")
    print(f"chosen N: {info['chosen_N']}")
    with open(os.path.join(args.output_dir, "roundtrip.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2))
        fh.write("\n")
    return EXIT_OK


def _run_validate(args, parser) -> int:
    with open(args.scattering, encoding="utf-8") as fh:
        sd = scattering_from_json(fh.read())
    report = validate_scattering(sd)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _run_presets(args, parser) -> int:
    for name in preset_names():
        print(name)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every option is checked before any work is done
    if args.command in ("direct", "roundtrip"):
        _check_direct_args(args, parser)
    if args.command in ("inverse", "roundtrip"):
        args.inverse_config = _inverse_config(args, parser)
    handlers = {
        "direct": _run_direct,
        "inverse": _run_inverse,
        "roundtrip": _run_roundtrip,
        "validate": _run_validate,
        "presets": _run_presets,
    }
    try:
        return handlers[args.command](args, parser)
    except ZSScatterError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
