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
from .sweep import SweepSpec, plot_script, slit_csv, slit_rows, sweep_csv, sweep_rows
from .verify import SUITES, run_all, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_STATE = 3
EXIT_IO = 4
EXIT_CROSS_CHECK = 5


def _output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write results to this path instead of stdout")


def _optimizer_flags(parser: argparse.ArgumentParser) -> None:
    defaults = OptimizerConfig()
    parser.add_argument("--grid-theta", type=int, default=defaults.grid_points_theta,
                        help="theta grid points per optimized side")
    parser.add_argument("--grid-phi", type=int, default=defaults.grid_points_phi,
                        help="phi grid points on the equator row per optimized side")
    parser.add_argument("--refine-starts", type=int, default=defaults.refine_starts,
                        help="most refinement starts: the best grid cell of each "
                             "distinct basin, lowest first")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        grid_points_theta=args.grid_theta,
        grid_points_phi=args.grid_phi,
        refine_starts=args.refine_starts,
    )


def _parse_basis_token(token: str, dims: tuple[int, ...]) -> tuple[ProjectiveBasis, int, str]:
    spec, at, sub = token.partition("@")
    subsystem = 0
    if at:
        try:
            subsystem = int(sub)
        except ValueError:
            raise SpecParseError(f"basis spec '{token}' has a malformed subsystem") from None
    if not 0 <= subsystem < len(dims):
        raise SpecParseError(f"basis '{token}' addresses a missing subsystem")
    return parse_basis_spec(spec, dims[subsystem]), subsystem, token


def measure_reports(
    rho: DensityMatrix,
    bases: list[tuple[ProjectiveBasis, int, str]],
    state_label: str,
) -> list[MeasureReport]:
    reports = [MeasureReport("entropy", entropy(rho), state_label)]
    bipartite = len(rho.dims) == 2
    for basis, sub, label in bases:
        tag = f"{state_label}; {label}"
        if not bipartite:
            reports.append(MeasureReport("irreality", irreality(basis, sub, rho), tag))
            continue
        # The one-sided discord is the correlated part of the decomposition.
        total, local, correlated = irreality_decomposition(basis, sub, rho)
        closure = abs(total - local - correlated)
        reports.append(MeasureReport("irreality", total, tag))
        reports.append(MeasureReport("irreality_local", local, tag))
        reports.append(MeasureReport(
            "irreality_correlated", correlated, tag, {"closure": closure}))
        reports.append(MeasureReport("discord", correlated, tag))
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


def _csv_field(text: str) -> str:
    # RFC 4180: quote the field and double every quote inside it.
    return '"' + text.replace('"', '""') + '"'


def _render_reports(reports: list[MeasureReport], fmt: str) -> str:
    if fmt == "records":
        return "\n".join(r.record() for r in reports) + "\n"
    if fmt == "csv":
        lines = ["name,value,inputs,residuals"]
        for r in reports:
            residuals = ";".join(f"{k}={v:.12g}" for k, v in sorted(r.residuals.items()))
            lines.append(f"{r.name},{r.value:.12g},{_csv_field(r.inputs)},{_csv_field(residuals)}")
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
    bases = [_parse_basis_token(token, rho.dims) for token in args.bases]
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
    )
    _emit(sweep_csv(sweep_rows(spec)), args.output)
    if args.plot_script:
        _emit(plot_script(args.output, args.family), args.plot_script)
    return EXIT_OK


def cmd_slit(args) -> int:
    if not args.output:
        raise SpecParseError("slit requires --output <path>")
    _emit(slit_csv(slit_rows(args.points)), args.output)
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
    p_measure.add_argument("--format", choices=("human", "records", "csv"),
                           default="human", help="report output format")
    _output_flag(p_measure)
    p_measure.set_defaults(func=cmd_measure)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--family", choices=("werner", "alpha", "slit"), required=True)
    p_sweep.add_argument("--start", type=float, default=0.0)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--points", type=int, default=51)
    p_sweep.add_argument("--plot-script", help="also emit a gnuplot script here")
    _output_flag(p_sweep)
    _optimizer_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_slit = sub.add_parser("slit", help="slit-overlap irreality curve to CSV")
    p_slit.add_argument("--points", type=int, default=21)
    _output_flag(p_slit)
    p_slit.set_defaults(func=cmd_slit)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", help=f"one of: all, {', '.join(SUITES)}")
    p_verify.add_argument("--count", type=int, default=None,
                          help="override the suite's case count")
    p_verify.add_argument("--seed", type=int, default=7, help="seed for the suite's random cases")
    _output_flag(p_verify)
    _optimizer_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    # argparse takes a token that starts with '-' for an option unless it is
    # a plain negative decimal, so "--start -1e-3" would fail before it is
    # checked.  A number after a long option is joined to it as "--option=value".
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
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
