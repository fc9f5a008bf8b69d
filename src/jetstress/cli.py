"""Command-line scenario runner and generator.

``run`` executes a scenario's checks and emits line-delimited JSON records
plus a summary; exit status 0 means every check passed, 1 means a check
failed its tolerance, 2 means the scenario or arguments were invalid, or a
check's term or residual was not a finite number (no report is written then).
``generate`` writes a deterministic random scenario for a given seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import List, Optional

import numpy as np

from .scenarios import (
    CHECK_IDS,
    Scenario,
    ScenarioError,
    generate_scenario,
    load_scenario,
    run_checks,
    scenario_to_json,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


# Built on the first call and kept for the process: each parse starts a new
# namespace from the defaults, and the repeatable options copy their default
# list before they append to it, so one call leaks nothing into the next.
@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetstress",
        description="Run identity-check scenarios for jet-based stress analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run checks from a scenario file")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_p.add_argument(
        "--check",
        action="append",
        default=None,
        help=f"check id to run (repeatable) or 'all'; ids: {', '.join(CHECK_IDS)}",
    )
    run_p.add_argument("--quad-order", type=int, default=None, help="override quadrature order")
    run_p.add_argument(
        "--tol-override",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="override a tolerance, e.g. balance1=1e-9 (repeatable)",
    )
    run_p.add_argument("--report", default=None, help="write the report here instead of stdout")

    gen_p = sub.add_parser("generate", help="write a deterministic random scenario")
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--n", type=int, default=2, help="chart dimension (2, 3 or 4)")
    gen_p.add_argument("--d", type=int, default=1, help="fiber dimension")
    gen_p.add_argument("--degree", type=int, default=2, help="polynomial degree cap (<= 4)")
    gen_p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _apply_tolerance_overrides(scenario: Scenario, args) -> None:
    for item in args.tol_override:
        if "=" not in item:
            raise ScenarioError(f"--tol-override: expected KEY=VAL, got {item!r}")
        key, _, value = item.partition("=")
        if key not in CHECK_IDS:
            raise ScenarioError(f"--tol-override: unknown check id {key!r}")
        try:
            tolerance = float(value)
        except ValueError:
            tolerance = math.nan
        if not 0.0 <= tolerance < math.inf:
            raise ScenarioError(f"--tol-override: bad value for {key!r}: {value!r}")
        scenario.tolerances[key] = tolerance


def _selected_checks(scenario: Scenario, args) -> Optional[List[str]]:
    if args.check is None:
        return None
    if any(c == "all" for c in args.check):
        return None
    return list(args.check)


def _emit(text: str, path: Optional[str], option: str) -> bool:
    """Write ``text`` to stdout or to ``path``; False, with a message, if it cannot."""
    if path is None:
        sys.stdout.write(text)
        return True
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: {option}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        # Overflowing arithmetic makes inf and NaN without a warning: a run
        # reports them as a keyed message or as values, so stderr holds only
        # that message.
        with np.errstate(all="ignore"):
            scenario = load_scenario(text, args.quad_order)
            _apply_tolerance_overrides(scenario, args)
            selected = _selected_checks(scenario, args)
            report = run_checks(scenario, selected)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    # An input whose arithmetic overflows gives values a JSON report cannot hold.
    nonfinite = report.nonfinite()
    if nonfinite is not None:
        print(f"error: {nonfinite}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not _emit("\n".join(report.lines()) + "\n", args.report, "--report"):
        return EXIT_CONFIG_ERROR
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def _cmd_generate(args) -> int:
    try:
        doc = generate_scenario(args.seed, args.n, args.d, args.degree)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_PASS if _emit(scenario_to_json(doc), args.out, "--out") else EXIT_CONFIG_ERROR


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "generate":
        return _cmd_generate(args)
    parser.error("unknown command")  # pragma: no cover
    return EXIT_CONFIG_ERROR  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
