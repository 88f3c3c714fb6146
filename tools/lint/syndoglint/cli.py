"""Command-line interface.

Exit status: 0 clean, 1 findings, 2 usage/configuration error — the same
contract the original flat script had, so CMake/CI wiring is unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from .cache import Cache
from .engine import build_context, run
from .output import (
    explain,
    list_rules,
    render_json,
    render_sarif,
    render_text,
)

_CHECK_FAMILIES = (
    "determinism", "concurrency", "hotpath", "layering", "headers", "api"
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syndog_lint",
        description="repo-invariant static analysis for the SYN-dog tree",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[3],
        help="repository root (default: inferred from this script's location)",
    )
    parser.add_argument(
        "--checks",
        default=",".join(_CHECK_FAMILIES),
        help=f"comma list from {{{', '.join(_CHECK_FAMILIES)}}}",
    )
    parser.add_argument(
        "--cxx",
        default=os.environ.get("CXX", "c++"),
        help="C++ compiler for the header self-containment check",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 4,
        help="parallelism for header compiles",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="finding output format (sarif = SARIF 2.1.0 for code scanning)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write findings to this file instead of stdout",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        help="incremental cache file (content-hash keyed); omit to disable",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss counters to stderr",
    )
    parser.add_argument(
        "--min-header-cache-hit-rate",
        type=float,
        default=None,
        metavar="FRAC",
        help="fail (exit 2) when the header-compile cache hit rate falls "
        "below FRAC (CI regression guard for warm runs)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print the catalog entry for a rule id (or 'all') and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule and exit",
    )
    parser.add_argument(
        "--waiver-report",
        action="store_true",
        help="print the per-rule waiver inventory to stderr",
    )
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def main(argv: Sequence[str]) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0
    if args.explain is not None:
        text = explain(args.explain)
        if text is None:
            print(
                f"syndog_lint: unknown rule '{args.explain}' "
                "(see --list-rules)",
                file=sys.stderr,
            )
            return 2
        print(text)
        return 0

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"syndog_lint: no src/ under {root}", file=sys.stderr)
        return 2

    requested = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = requested - set(_CHECK_FAMILIES)
    if unknown:
        print(
            f"syndog_lint: unknown checks: {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2

    cache = Cache(args.cache) if args.cache is not None else None
    ctx = build_context(root, args.cxx, args.jobs, cache)
    result = run(ctx, requested)
    if cache is not None:
        cache.save()

    if args.format == "text":
        rendered = render_text(result)
    elif args.format == "json":
        rendered = render_json(result)
    else:
        rendered = render_sarif(result)

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            rendered + ("\n" if rendered else ""), encoding="utf-8"
        )
        if args.format == "text" and result.findings:
            # keep failures visible in the terminal too
            print(rendered)
    elif rendered:
        print(rendered)

    if args.waiver_report:
        print("syndog_lint: waiver inventory:", file=sys.stderr)
        for w in result.waivers:
            status = "used" if w.used else "UNUSED"
            just = "justified" if w.justified else "NO JUSTIFICATION"
            print(
                f"  {w.rel}:{w.line}: allow({', '.join(w.rules)}) "
                f"[{status}, {just}]",
                file=sys.stderr,
            )

    if args.cache_stats and cache is not None:
        stats = cache.stats()
        print(f"syndog_lint: cache stats: {stats}", file=sys.stderr)

    if args.min_header_cache_hit_rate is not None:
        rate = cache.header_hit_rate() if cache is not None else None
        if rate is None or rate < args.min_header_cache_hit_rate:
            shown = "n/a" if rate is None else f"{rate:.2f}"
            print(
                "syndog_lint: header cache hit rate "
                f"{shown} below required "
                f"{args.min_header_cache_hit_rate:.2f}",
                file=sys.stderr,
            )
            return 2

    if result.findings:
        print(
            f"syndog_lint: {len(result.findings)} finding(s)", file=sys.stderr
        )
        return 1
    checked = ", ".join(result.checked_families)
    print(f"syndog_lint: clean ({checked})", file=sys.stderr)
    return 0
