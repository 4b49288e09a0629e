"""Command-line front end.

Subcommands: ``check`` (circuit diagnostics), ``run`` (counts at the detect
path), ``scan`` (parameter sweep to CSV), ``fit`` (recover beam parameters
from fringe data) and ``verify`` (engine versus closed-form comparison).

Exit codes: 0 success, 1 validation or convergence failure or a fit whose
model the data reject, 2 I/O or format failure, 3 verification mismatch.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from .elements import BS_CONVENTIONS
from .errors import DataFormatError
from .estimation import fit, format_counts_csv, read_counts_csv, simulate_measurement
from .observables import counts, format_scan_csv, fringe_scan, visibility
from .plan import FIG1_SOURCE, CircuitPlan, PlanError, compile_text, run_plan

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_MISMATCH = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        self.code = code
        super().__init__(message)


def _parse_param(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed value in {text!r}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path} is not UTF-8 text: {exc}", EXIT_IO) from exc


def _load_plan(args: argparse.Namespace) -> CircuitPlan:
    if args.preset is not None:
        text, label = FIG1_SOURCE, f"<preset {args.preset}>"
    elif args.circuit is not None:
        text, label = _read_text(args.circuit), args.circuit
    else:
        raise _CliError("give a circuit file or --preset fig1", EXIT_FAIL)
    plan, diagnostics = compile_text(text)
    if plan is None:
        for diag in diagnostics:
            print(f"{label}:{diag}", file=sys.stderr)
        raise _CliError(f"{label}: circuit does not compile", EXIT_FAIL)
    if args.param:
        plan = plan.bind(dict(args.param))
    if args.no_merge:
        plan = plan.without_merges()
    return replace(plan, bs_convention=args.bs_convention)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc}", EXIT_IO) from exc


def _default_seed(value: int | None) -> int:
    if value is not None:
        if value < 0:
            raise _CliError(f"--seed must be a non-negative integer, got {value}", EXIT_FAIL)
        return value
    env = os.environ.get("QIUP_SEED", "").strip()
    if not env:
        return 0
    if not env.isdecimal():
        raise _CliError(f"QIUP_SEED must be a non-negative integer, got {env!r}", EXIT_FAIL)
    return int(env)


def cmd_check(args: argparse.Namespace) -> int:
    text = _read_text(args.circuit)
    _, diagnostics = compile_text(text)
    errors = warnings = 0
    for diag in diagnostics:
        print(f"{args.circuit}:{diag}")
        if diag.severity == "error":
            errors += 1
        else:
            warnings += 1
    print(f"{errors} error(s), {warnings} warning(s)")
    return EXIT_OK if errors == 0 else EXIT_FAIL


def cmd_run(args: argparse.Namespace) -> int:
    plan = _load_plan(args)
    state = run_plan(plan)
    result = counts(state, plan.detect_path, plan.detect_band)
    if args.format == "pretty":
        text = f"n_h={result.n_h:.6g} n_v={result.n_v:.6g}\n"
    else:
        text = f"n_h,n_v\n{result.n_h:.17g},{result.n_v:.17g}\n"
    _write_output(text, args.out)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise _CliError("--points must be at least 2", EXIT_FAIL)
    if args.shots is not None and args.shots < 1:
        raise _CliError(f"--shots must be a positive integer, got {args.shots}", EXIT_FAIL)
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise _CliError("--from and --to must be finite", EXIT_FAIL)
    grid = args.start + (args.stop - args.start) * np.arange(args.points) / args.points
    if not np.all(np.diff(grid) > 0):
        raise _CliError("--to must be greater than --from", EXIT_FAIL)
    seed = None if args.shots is None else _default_seed(args.seed)
    plan = _load_plan(args)
    scan = fringe_scan(plan, args.sweep, grid)
    if args.shots is not None:
        noisy = simulate_measurement(scan, args.shots, seed)
        _write_output(format_counts_csv(noisy), args.out)
    else:
        _write_output(format_scan_csv(scan), args.out)
    if args.sweep == "phi":
        vis = visibility(scan.column("v"), scan.phis)
        print(
            f"visibility={vis.value:.6g} phi_at_max={vis.phi_at_max:.6g}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    data = read_counts_csv(_read_text(args.data))
    result = fit(data, weighting=args.weighting)
    line = result.summary()
    if result.gamma_unidentifiable:
        line += " gamma_unidentifiable=true"
    if result.model_rejected:
        line += " model_rejected=true"
    print(line)
    return EXIT_OK if result.converged and not result.model_rejected else EXIT_FAIL


def cmd_verify(args: argparse.Namespace) -> int:
    # imported here: no other command needs qiup.verification
    from .verification import run_verification

    if args.grid_points < 1:
        raise _CliError("--grid-points must be at least 1", EXIT_FAIL)
    report = run_verification(
        phi_points=args.grid_points, bs_convention=args.bs_convention
    )
    for line in report.lines():
        print(line)
    if report.ok:
        print("verification: PASS")
        return EXIT_OK
    print("verification: MISMATCH (engine and reference closed forms disagree)")
    return EXIT_MISMATCH


def _add_circuit_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("circuit", nargs="?", help="circuit file (.qiup)")
    sub.add_argument("--preset", choices=["fig1"], help="use a built-in circuit")
    sub.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        metavar="NAME=VALUE",
        help="bind a free parameter (radians for angles); repeatable",
    )
    sub.add_argument("--no-merge", action="store_true",
                     help="skip indistinguishability merges")
    sub.add_argument("--bs-convention", choices=list(BS_CONVENTIONS),
                     default="symmetric", help="beamsplitter phase convention")
    sub.add_argument("--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qiup",
        description="Two-source biphoton interference simulator and estimator.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="parse and validate a circuit file")
    check.add_argument("circuit", help="circuit file (.qiup)")
    check.set_defaults(handler=cmd_check)

    run = commands.add_parser("run", help="print counts at the detect path")
    _add_circuit_options(run)
    run.add_argument("--format", choices=["pretty", "csv"], default="pretty")
    run.set_defaults(handler=cmd_run)

    scan = commands.add_parser("scan", help="sweep a parameter and emit CSV")
    _add_circuit_options(scan)
    scan.add_argument("--sweep", default="phi", help="parameter to sweep (default phi)")
    scan.add_argument("--from", dest="start", type=float, default=0.0,
                      help="sweep start in radians (default 0)")
    scan.add_argument("--to", dest="stop", type=float, default=2.0 * math.pi,
                      help="sweep end in radians, excluded (default 2*pi)")
    scan.add_argument("--points", type=int, default=64)
    scan.add_argument("--shots", type=int,
                      help="emit Poisson measurement counts instead of expectations")
    scan.add_argument("--seed", type=int, help="noise seed (default QIUP_SEED or 0)")
    scan.set_defaults(handler=cmd_scan)

    fit_cmd = commands.add_parser("fit", help="fit fringe data from a CSV file")
    fit_cmd.add_argument("data", help="measurement CSV")
    fit_cmd.add_argument("--weighting", choices=["equal", "inverse_variance"],
                         default="equal")
    fit_cmd.set_defaults(handler=cmd_fit)

    verify = commands.add_parser(
        "verify", help="compare engine counts against the closed-form reference"
    )
    verify.add_argument("--grid-points", type=int, default=64,
                        help="phi samples per fringe (default 64)")
    verify.add_argument("--bs-convention", choices=list(BS_CONVENTIONS),
                        default="symmetric")
    verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PlanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
