"""Command line interface.

    eprgeo run <scenario-file> [--strict] [--format table|csv] [--out PATH]

Exit codes: 0 on success, 1 on a validation or I/O problem (an unreadable,
non-UTF-8, malformed, non-finite, spacelike, past-directed or over-cap
scenario, or an unwritable report path), 2 on a numerical failure (a leg
could not be built, or the run met an event outside the chart), 3 when
--strict is given and a diagnostic exceeded its tolerance.  Exit code 1
comes with exactly one ``error:`` line on stderr; exit code 2 comes with a
report holding at least one ``failure`` row.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import ConfigurationError, UsageError
from .report import emit_report
from .scenario import load_scenario, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_STRICT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprgeo",
        description="Spin correlations for geodesic particle pairs in curved spacetime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file and print its report")
    run.add_argument("scenario", help="path to the scenario file")
    run.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 if any diagnostic exceeds its tolerance",
    )
    run.add_argument(
        "--format",
        choices=("table", "csv"),
        default=None,
        help="output format (default: the scenario's [output] format, else table)",
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report here instead of stdout",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        sc = load_scenario(args.scenario)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        report = run_scenario(sc)
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    fmt = args.format or sc.out_format
    out_path = args.out or sc.out_path
    rendered = emit_report(report, fmt)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(rendered)

    if report.has_failures:
        return EXIT_NUMERICAL
    if args.strict and not report.diagnostics_ok:
        return EXIT_STRICT
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the subcommand is required and ``run`` is the only one
    return _cmd_run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
