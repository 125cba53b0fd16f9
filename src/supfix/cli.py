"""Command line front end: run scenario files and emit JSON reports.

    supfix run scenario.json [--json-out out.json] [--trace-dir DIR]
    supfix suite suite.json  [--json-out out.json] [--trace-dir DIR]

The process exit code follows the runner contract (0 ok, 2 flagged,
3 inconsistent input data, 4 malformed scenario).  An unreadable scenario
file and an unusable output path (a --json-out in a missing directory, a
--trace-dir that is a file) also exit with 4, after one line on stderr
naming the path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .runner import EXIT_FORMAT, run_scenario, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supfix",
        description="Fixed points of finite sup-norm isometry groups and derivation witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, help_text in (
        ("run", "run a single scenario file"),
        ("suite", "run every scenario in a suite file"),
    ):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("path", type=Path, help="scenario JSON file")
        p.add_argument("--json-out", type=Path, default=None, help="write the report here")
        p.add_argument(
            "--trace-dir", type=Path, default=None, help="write iteration CSV traces here"
        )
        p.add_argument("--quiet", action="store_true", help="suppress stdout report")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = json.loads(args.path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"supfix: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        print(f"supfix: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_FORMAT

    run = run_scenario if args.command == "run" else run_suite
    try:
        if args.trace_dir is not None:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
        report, code = run(raw, trace_dir=args.trace_dir)
    except OSError as exc:  # the traces are the only files a run writes
        return _cannot_write(args.trace_dir, exc)

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json_out is not None:
        try:
            args.json_out.write_text(text + "\n")
        except OSError as exc:
            return _cannot_write(args.json_out, exc)
    if not args.quiet:
        print(text)
    return code


def _cannot_write(path: Path, exc: OSError) -> int:
    print(f"supfix: cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
