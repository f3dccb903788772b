"""Command-line driver for the verification suites.

Exit codes: 0 all cases passed, 1 at least one failure, 2 invalid
configuration, 3 internal error while running or writing.  The canonical
JSON report goes to --out (or stdout); the human summary and timing go to
stderr so redirected reports stay byte-stable.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, SweepConfig, emit_report, list_suites, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voronoi-lab",
        description="Run a verification suite over a parameter sweep and "
        "emit a canonical JSON report.",
    )
    parser.add_argument("--suite", help="suite name (see --list-suites)")
    parser.add_argument("--config", help="TOML or JSON sweep configuration file")
    parser.add_argument("--seed", type=int, help="64-bit seed for randomized draws")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--tolerance", type=float, help="override the suite's relative tolerance"
    )
    parser.add_argument(
        "--precision",
        type=int,
        help="working precision in bits for the lfunc suite (other suites refuse it)",
    )
    parser.add_argument("--jobs", type=int, help="worker threads for independent cases")
    parser.add_argument(
        "--timing", action="store_true", help="include wall time in the report JSON"
    )
    parser.add_argument(
        "--list-suites", action="store_true", help="print the suites and exit"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_suites:
        print(list_suites())
        return 0
    try:
        if args.config:
            config = SweepConfig.from_file(args.config)
        elif args.suite:
            config = SweepConfig(suite=args.suite)
        else:
            raise ConfigError("either --suite or --config is required")
        # Flags override file values.
        for name in ("suite", "seed", "tolerance", "precision", "jobs"):
            if getattr(args, name) is not None:
                setattr(config, name, getattr(args, name))
        config.validate()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_suite(config)
        if args.out:
            emit_report(report, args.out, include_timing=args.timing)
        else:
            sys.stdout.write(report.to_canonical_json(include_timing=args.timing))
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    print(
        f"{report.suite}: {report.cases} cases, {report.failures} failures, "
        f"max rel error {report.max_rel_error:.3e}, {report.wall_time:.1f}s",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
