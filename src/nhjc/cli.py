"""Command-line interface.

Subcommands: eigen, texture, winding, boundaries, sweep, verify.
Exit codes: 0 success, 1 computation error, 2 usage error (bad flags or
malformed JSON, reported with line/column), 3 invariant violation in verify.
Results go to stdout or --out; diagnostics to stderr. Every subcommand is a
pure function of its config file and flags, so repeated runs are byte-stable.

A process loads only what its subcommand computes: the modules imported here
(the closed forms, eigen and boundaries) need no numpy, and the subcommands
that sample the oscillator functions import theirs in their handlers.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict

from . import __version__
from .boundaries import FAMILIES, SOLVABLE, all_boundaries, boundary
from .errors import NhjcError, SweepSpecError, ValidationError
from .params import LevelIndex, check_level, load_params
from .spectrum import block_quantities, eigen_solution, gaps

USAGE_ERROR = 2
COMPUTE_ERROR = 1
VERIFY_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhjc",
        description="Exact spectrum and spin-winding topology of the dissipative Jaynes-Cummings model",
    )
    parser.add_argument("--version", action="version", version=f"nhjc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    eigen = sub.add_parser("eigen", help="eigen-solution of one level")
    eigen.add_argument("--params", required=True, help="parameter JSON file")
    eigen.add_argument("--n", type=int, required=True)
    eigen.add_argument("--eta", type=int, choices=(1, -1), default=-1)
    eigen.add_argument("--out", help="write JSON here instead of stdout")

    texture = sub.add_parser("texture", help="spin texture on a grid")
    texture.add_argument("--params", required=True)
    texture.add_argument("--n", type=int, required=True)
    texture.add_argument("--eta", type=int, choices=(1, -1), default=-1)
    texture.add_argument("--grid-points", type=int, default=801)
    texture.add_argument("--format", choices=("csv", "json"), default="csv")
    texture.add_argument("--out", help="write output here instead of stdout")

    winding = sub.add_parser("winding", help="winding numbers by both methods")
    winding.add_argument("--params", required=True)
    winding.add_argument("--n", type=int, required=True)
    winding.add_argument("--eta", type=int, choices=(1, -1), default=-1)
    winding.add_argument("--plane", choices=("zx", "yx", "both"), default="both")
    winding.add_argument("--method", choices=("integral", "nodes", "both"), default="both")
    winding.add_argument("--out")

    boundaries = sub.add_parser("boundaries", help="analytic special points")
    boundaries.add_argument("--params", required=True)
    boundaries.add_argument("--n", type=int, required=True)
    boundaries.add_argument("--solve-for", required=True, choices=SOLVABLE)
    boundaries.add_argument("--family", choices=(*FAMILIES, "all"), default="all")
    boundaries.add_argument("--out")

    sweep = sub.add_parser("sweep", help="grid sweep with boundary overlays")
    sweep.add_argument("--spec", required=True, help="sweep spec JSON file")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--quick", action="store_true", help="50 draws, n <= 6")
    verify.add_argument("--draws", type=int, default=200)
    verify.add_argument("--n-max", type=int, default=8)
    verify.add_argument("--seed", type=int)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _closed_form_n(args) -> int:
    """The --n of a closed-form command, which the formulas take as a float."""
    if abs(args.n) > sys.float_info.max:
        raise ValidationError(f"--n must be within float range, got {len(str(abs(args.n)))} digits")
    return args.n


def _cmd_eigen(args) -> int:
    params = load_params(args.params)
    level = LevelIndex(_closed_form_n(args), args.eta)
    sol = eigen_solution(params, level)
    payload: dict = {
        "n": level.n,
        "eta": level.eta,
        "energy": {"re": sol.energy.real, "im": sol.energy.imag},
        "norm": sol.norm,
    }
    if level.n == 0:
        payload["note"] = "isolated state: no coefficients, winding degenerate (0)"
    else:
        bq = block_quantities(params, level.n)
        gp = gaps(params, level.n)
        payload.update({
            "cUp": {"re": sol.c_up.real, "im": sol.c_up.imag},
            "cDown": {"re": sol.c_down.real, "im": sol.c_down.imag},
            "A": bq.A,
            "B": bq.B,
            "R": bq.R,
            "vartheta": bq.vartheta,
            "exceptional": bq.exceptional,
            "deltaMinus": gp.delta_minus,
            "deltaPlus": gp.delta_plus,
            "deltaPlusConvention": "nearest adjacent-block real-energy distance over both branches",
        })
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_texture(args) -> int:
    from .csvtext import csv_table
    from .texture import standard_grid, texture_closed_form

    params = load_params(args.params)
    level = LevelIndex(check_level(args.n, name="--n"), args.eta)  # it samples oscillator functions
    if not 2 <= args.grid_points <= sys.maxsize:
        raise ValidationError(f"--grid-points must be in [2, {sys.maxsize}], got {args.grid_points}")
    grid = standard_grid(level.n, args.grid_points)
    tex = texture_closed_form(params, level, grid)
    columns = {"x": tex.grid, "sx": tex.sx, "sy": tex.sy, "sz": tex.sz}
    if args.format == "json":
        _emit(json.dumps({name: column.tolist() for name, column in columns.items()}) + "\n", args.out)
    else:
        _emit(csv_table(columns).decode(), args.out)
    return 0


def _cmd_winding(args) -> int:
    from .topology import winding_report

    params = load_params(args.params)
    level = LevelIndex(check_level(args.n, name="--n"), args.eta)
    planes = ("zx", "yx") if args.plane == "both" else (args.plane,)
    reports = winding_report(params, level, planes)
    for report in reports.values():
        if args.method == "integral":
            report.pop("node_sum", None)
        elif args.method == "nodes":
            report.pop("integral", None)
            report.pop("integral_residual", None)
    payload = {"n": level.n, "eta": level.eta, "planes": reports}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_boundaries(args) -> int:
    params = load_params(args.params)
    n = _closed_form_n(args)
    # a NoBoundaryError of one --family is a computation error; "all" reports it as a point
    points = (all_boundaries(params, n, args.solve_for) if args.family == "all"
              else [boundary(params, args.family, n, args.solve_for)])
    _emit(json.dumps([asdict(p) for p in points], indent=2) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SweepSpec, run_sweep

    result = run_sweep(SweepSpec.load(args.spec))
    if args.format == "csv":
        result.to_csv(args.out)
    else:
        result.to_json(args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, run_suite

    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_suite(draws=args.draws, n_max=args.n_max, seed=seed, quick=args.quick)
    failed = 0
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        failed += not result.passed
    if failed:
        print(f"{failed} invariant check(s) failed", file=sys.stderr)
        return VERIFY_ERROR
    print(f"all {len(results)} invariant checks passed")
    return 0


_COMMANDS = {
    "eigen": _cmd_eigen,
    "texture": _cmd_texture,
    "winding": _cmd_winding,
    "boundaries": _cmd_boundaries,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():  # a warning prints as one line, as an error does
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return _COMMANDS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in input file: {exc.msg} "
              f"(line {exc.lineno}, column {exc.colno})", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, UnicodeDecodeError) as exc:  # a missing or unreadable file, or not UTF-8 text
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValidationError, SweepSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NhjcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    except MemoryError as exc:  # a request too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
