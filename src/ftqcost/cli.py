"""Command-line front end.

Subcommands:
    estimate <config>   one scheme, full report (with sensitivity band)
    compare  <config>   several schemes side by side with ratios
    sweep    <config>   cartesian grid over comma-separated config values
    table1   --logical Q --gates G [--p P]   minimal-footprint quick estimate

Exit codes: 0 success, 2 validation error, 3 infeasible budget. A magic-state
supply that falls short of the schedule is no error: the report's bottleneck
reads magic-limited.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import report as reporting
# perfbench's tracer wraps build_config, expand_sweep and read_sections as
# names of this module, so they stay bound here although a sweep now reaches
# its grid through sweep_configs.
from .config import (
    OUTPUT_FORMATS,
    RunConfig,
    build_config,
    expand_sweep,
    field_path,
    read_sections,
    sweep_configs,
)
from .errors import BudgetInfeasibleError, CompileError, ConfigError
from .estimator import EstimateOptions, simple_estimate
from .fermi_hubbard import SCHEMES
from .qec import PhysicalAssumptions

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftqcost",
        description="Fault-tolerant quantum computing resource estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to an INI run configuration")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config field (repeatable)",
        )
        p.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    est = sub.add_parser("estimate", help="estimate one scheme from a config")
    add_common(est)
    est.add_argument(
        "--no-sensitivity", action="store_true", help="skip the +/-5%% band"
    )

    cmp_ = sub.add_parser("compare", help="compare several schemes")
    add_common(cmp_)
    cmp_.add_argument(
        "--schemes",
        default=",".join(SCHEMES),
        help="comma-separated scheme list (default: all)",
    )

    swp = sub.add_parser("sweep", help="grid sweep over ranged config fields")
    add_common(swp)

    t1 = sub.add_parser("table1", help="minimal-footprint quick estimate")
    t1.add_argument("--logical", type=int, required=True, help="logical qubit count Q")
    t1.add_argument("--gates", type=float, required=True, help="T/Toffoli gate count G")
    t1.add_argument("--p", type=float, default=1e-3, help="physical error rate")
    t1.add_argument(
        "--e", type=float, default=EstimateOptions.e_qec, help="failure budget E"
    )
    t1.add_argument(
        "--t-se", type=float, default=PhysicalAssumptions.t_se,
        help="SE round time, seconds",
    )
    t1.add_argument("--format", choices=("table", "json"), default="table")
    t1.add_argument("--output", default=None)
    return parser


def _apply_overrides(sections: dict, overrides: list[str]) -> dict:
    out = {s: dict(f) for s, f in sections.items()}
    problems = []
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            problems.append(f"--set {item!r}: expected SECTION.KEY=VALUE")
            continue
        path, value = item.split("=", 1)
        section, key = path.split(".", 1)
        out.setdefault(section, {})[key.strip().lower()] = value.strip()
    if problems:
        raise ConfigError(problems)
    return out


def _load(args: argparse.Namespace) -> RunConfig:
    return build_config(_apply_overrides(read_sections(args.config), args.overrides))


def _emit(text: str, args: argparse.Namespace, config_path: str | None = None) -> None:
    """Write to --output, else to the config's output.path, else to stdout."""
    setting, path = (
        ("--output", args.output) if args.output else ("output.path", config_path)
    )
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        problem = f"{setting}: cannot write {path!r}: {exc.strerror or exc}"
        raise ConfigError([problem]) from exc


def _render(report: dict, fmt: str, config: RunConfig) -> str:
    if fmt == "json":
        return reporting.render_json(report)
    if fmt == "csv":
        rows = [reporting.csv_row(config, est) for est in report["estimates"]]
        return reporting.render_csv(rows)
    return reporting.render_table(report)


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _load(args)
    report = reporting.build_report(config, with_sensitivity=not args.no_sensitivity)
    fmt = args.format or config.output_format
    _emit(_render(report, fmt, config), args, config.output_path)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ConfigError(["--schemes: at least one scheme is required"])
    unknown = sorted(set(schemes) - set(SCHEMES))
    repeated = sorted({s for s in schemes if schemes.count(s) > 1})
    if unknown or repeated:
        raise ConfigError(
            [f"--schemes: unknown scheme {s!r}" for s in unknown]
            + [f"--schemes: scheme {s!r} is given more than once" for s in repeated]
        )
    config = _load(args)
    report = reporting.build_comparison(config, schemes)
    fmt = args.format or config.output_format
    _emit(_render(report, fmt, config), args, config.output_path)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _apply_overrides(read_sections(args.config), args.overrides)
    points = reporting.estimate_configs(sweep_configs(base))
    fmt = args.format or "csv"
    if fmt == "csv":
        # A row needs the estimate alone, not the report around it.
        text = reporting.render_csv(
            reporting.csv_row(config, reporting.estimate_payload(est))
            for config, est in points
        )
    else:
        reports = [reporting.nominal_report(config, est) for config, est in points]
        if fmt == "json":
            text = reporting.render_json(reports)
        else:
            text = "".join(reporting.render_table(report) for report in reports)
    _emit(text, args)
    return EXIT_OK


_TABLE1_FLAGS = {
    "q_logical": "--logical",
    "gate_count": "--gates",
    "p": "--p",
    "budget_e": "--e",
    "t_se": "--t-se",
}
"""The table1 flag behind the attribute an error message opens with."""


def _cmd_table1(args: argparse.Namespace) -> int:
    try:
        assume = PhysicalAssumptions(p=args.p, t_se=args.t_se)
        est = simple_estimate(args.logical, args.gates, assume, e_qec=args.e)
    except ValueError as exc:
        flag = _TABLE1_FLAGS.get(str(exc).split(" ", 1)[0], "table1")
        raise ConfigError([f"{flag}: {exc}"]) from exc
    payload = reporting.estimate_payload(est)
    if args.format == "json":
        text = reporting.render_json(
            {"schema_version": reporting.SCHEMA_VERSION, "estimates": [payload]}
        )
    else:
        text = (
            f"logical qubits: {args.logical}\n"
            f"gates: {args.gates:g}\n"
            f"code distance: {est.d}\n"
            f"physical qubits: {est.physical_qubits_total:.3g}\n"
            f"wall time: {est.wall_time_seconds:.3g} s\n"
        )
    _emit(text, args)
    return EXIT_OK


_COMMANDS = {
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except CompileError as exc:
        print(f"error: {field_path('algorithm', str(exc))}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
