"""Command-line front end.

Commands: measure, sweep, slit, verify.  Exit codes: 0 success,
1 verification failure, 2 usage/parse error, 3 invalid input state,
4 I/O error, 5 failed cross-check (two forms of one measure disagree).
Diagnostics go to stderr; results go to stdout or --output.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SpecParseError, StateValidationError
from .linalg import DensityMatrix
from .measures import (
    MeasureReport,
    concurrence,
    discord_like,
    entropy,
    irreality,
    irreality_decomposition,
    mutual_information,
    nonlocality_forms,
)
from .observables import ProjectiveBasis, parse_basis_spec
from .optimize import OptimizerConfig
from .states import parse_state_spec
from .sweep import (
    SweepSpec,
    slit_rows,
    sweep_rows,
    write_plot_script,
    write_slit_csv,
    write_sweep_csv,
)
from .verify import SUITES, run_all, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_STATE = 3
EXIT_IO = 4
EXIT_CROSS_CHECK = 5


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="seed for randomized runs")
    parser.add_argument("--output", help="write results to this path instead of stdout")
    parser.add_argument("--format", choices=("human", "records", "csv"),
                        default="human", help="measure-report output format")


def _optimizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-theta", type=int, default=25,
                        help="theta grid points per optimized side")
    parser.add_argument("--grid-phi", type=int, default=24,
                        help="phi grid points per optimized side")
    parser.add_argument("--refine-starts", type=int, default=5,
                        help="grid cells seeding local refinement")
    parser.add_argument("--refine-tol", type=float, default=1e-7,
                        help="simplex refinement tolerance")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        grid_points_theta=args.grid_theta,
        grid_points_phi=args.grid_phi,
        refine_starts=args.refine_starts,
        refine_tolerance=args.refine_tol,
    )


def _parse_basis_token(token: str) -> tuple[ProjectiveBasis, int, str]:
    spec, at, sub = token.partition("@")
    subsystem = 0
    if at:
        try:
            subsystem = int(sub)
        except ValueError:
            raise SpecParseError(f"basis spec '{token}' has a malformed subsystem") from None
    return parse_basis_spec(spec), subsystem, token


def measure_reports(
    rho: DensityMatrix,
    bases: list[tuple[ProjectiveBasis, int, str]],
    state_label: str,
) -> list[MeasureReport]:
    reports = [MeasureReport("entropy", entropy(rho), state_label)]
    bipartite = len(rho.dims) == 2
    for basis, sub, label in bases:
        tag = f"{state_label}; {label}"
        reports.append(MeasureReport("irreality", irreality(basis, sub, rho), tag))
        if bipartite:
            total, local, correlated = irreality_decomposition(basis, sub, rho)
            closure = abs(total - local - correlated)
            reports.append(MeasureReport("irreality_local", local, tag))
            reports.append(MeasureReport(
                "irreality_correlated", correlated, tag, {"closure": closure}))
            reports.append(MeasureReport(
                "discord", discord_like(rho, [(basis, sub)]), tag))
    if bipartite:
        reports.append(MeasureReport(
            "mutual_information", mutual_information(rho), state_label))
    if bipartite and len(bases) == 2:
        (ba, sa, la), (bb, sb, lb) = bases
        tag = f"{state_label}; {la}; {lb}"
        reports.append(MeasureReport(
            "discord_pair", discord_like(rho, [(ba, sa), (bb, sb)]), tag))
        symmetric, sequential = nonlocality_forms(ba, bb, rho, sa, sb)
        reports.append(MeasureReport(
            "nonlocality", symmetric, tag,
            {"form_gap": abs(symmetric - sequential)}))
    if rho.dims == (2, 2):
        reports.append(MeasureReport("concurrence", concurrence(rho), state_label))
    return reports


def _render_reports(reports: list[MeasureReport], fmt: str) -> str:
    if fmt == "records":
        return "\n".join(r.record() for r in reports) + "\n"
    if fmt == "csv":
        lines = ["name,value,inputs,residuals"]
        for r in reports:
            residuals = ";".join(f"{k}={v:.12g}" for k, v in sorted(r.residuals.items()))
            lines.append(f'{r.name},{r.value:.12g},"{r.inputs}","{residuals}"')
        return "\n".join(lines) + "\n"
    width = max(len(r.name) for r in reports)
    lines = []
    for r in reports:
        note = "".join(
            f"  [{k}={v:.3g}]" for k, v in sorted(r.residuals.items()))
        lines.append(f"{r.name:<{width}}  {r.value: .12g}   ({r.inputs}){note}")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_measure(args) -> int:
    rho = parse_state_spec(args.state)
    if not 1 <= len(args.bases) <= 2:
        raise SpecParseError("measure takes one or two basis specs")
    bases = [_parse_basis_token(token) for token in args.bases]
    for basis, sub, token in bases:
        if sub < 0 or sub >= len(rho.dims):
            raise SpecParseError(f"basis '{token}' addresses a missing subsystem")
        if basis.dim != rho.dims[sub]:
            raise SpecParseError(
                f"basis '{token}' has dimension {basis.dim}, subsystem has {rho.dims[sub]}")
    if len(bases) == 2 and bases[0][1] == bases[1][1]:
        raise SpecParseError("the two bases must address distinct subsystems")
    reports = measure_reports(rho, bases, args.state)
    _emit(_render_reports(reports, args.format), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.output:
        raise SpecParseError("sweep requires --output <path>")
    spec = SweepSpec(
        family=args.family,
        start=args.start,
        stop=args.stop,
        points=args.points,
        optimizer=_config(args),
        seed=args.seed,
    )
    rows = sweep_rows(spec)
    write_sweep_csv(rows, args.output)
    if args.plot_script:
        write_plot_script(args.output, args.plot_script, args.family)
    return EXIT_OK


def cmd_slit(args) -> int:
    if not args.output:
        raise SpecParseError("slit requires --output <path>")
    rows = slit_rows(args.points)
    write_slit_csv(rows, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config(args)
    if args.suite == "all":
        results = run_all(seed=args.seed, count=args.count, cfg=cfg)
    else:
        try:
            results = [run_suite(args.suite, seed=args.seed, count=args.count, cfg=cfg)]
        except KeyError as exc:
            raise SpecParseError(exc.args[0]) from None
    lines = []
    for result in results:
        lines.append(result.summary())
        for description, residual, tol in result.failures:
            lines.append(f"  FAIL {description}: residual {residual:.6e} > tol {tol:.1e}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreality",
        description="Reality, discord-like correlation and nonlocality measures "
                    "for finite-dimensional quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="report measures for one state")
    p_measure.add_argument("state", help="state spec, e.g. werner:f=0.5 or file:rho.json")
    p_measure.add_argument("bases", nargs="+",
                           help="basis specs, e.g. zbasis@0 bloch:theta=1.57,phi=0@1")
    _common_flags(p_measure)
    p_measure.set_defaults(func=cmd_measure)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--family", choices=("werner", "alpha", "slit"), required=True)
    p_sweep.add_argument("--start", type=float, default=0.0)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--points", type=int, default=51)
    p_sweep.add_argument("--plot-script", help="also emit a gnuplot script here")
    _common_flags(p_sweep)
    _optimizer_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_slit = sub.add_parser("slit", help="slit-overlap irreality curve to CSV")
    p_slit.add_argument("--points", type=int, default=21)
    _common_flags(p_slit)
    p_slit.set_defaults(func=cmd_slit)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", help=f"one of: all, {', '.join(SUITES)}")
    p_verify.add_argument("--count", type=int, default=None,
                          help="override the suite's case count")
    _common_flags(p_verify)
    _optimizer_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateValidationError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK


if __name__ == "__main__":
    sys.exit(main())
