#!/usr/bin/env python3
"""Validates BENCH_*.json sidecars against the syndog-bench/1 schema.

Every bench binary writes a machine-readable sidecar next to its stdout
report (bench/common/sidecar.hpp). CI's bench-smoke job runs a couple of
fast benches and feeds the files through this checker so a malformed
export — or a headline number drifting out of its calibrated range —
fails the build instead of silently shipping a broken artifact.

Usage:
    check_bench_json.py FILE [FILE ...]
        [--expect name:key:lo:hi ...]

Schema (syndog-bench/1):
    name     non-empty string (matches the BENCH_<name>.json filename)
    schema   the literal "syndog-bench/1"
    scalars  object: str -> finite number
    text     object: str -> str
    series   object: str -> list of finite numbers; a series named "t_s"
             or ending in "_t_s" is a timestamp axis and must be
             monotonically non-decreasing
    metrics  object with counters / gauges / histograms:
               counters    str -> non-negative int
               gauges      str -> finite number
               histograms  str -> {bounds: [num...] strictly increasing,
                                   counts: [int...] of len(bounds)+1,
                                   count: int, sum: finite number}

--expect asserts a scalar range: "table2_unc_detection:unc_k_bar:1900:2400"
checks that the file whose name is table2_unc_detection has scalar
unc_k_bar in [1900, 2400]. Expectations naming a file not present on the
command line are an error (a vanished bench must not pass silently).

Stdlib only; exits non-zero with one line per problem.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SCHEMA = "syndog-bench/1"


def is_finite_number(v) -> bool:
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
    )


def is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_str_map(obj, where, value_check, value_desc, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object")
        return
    for key, value in obj.items():
        if not value_check(value):
            errors.append(f"{where}[{key!r}]: expected {value_desc}")


def check_histogram(name, hist, errors):
    where = f"metrics.histograms[{name!r}]"
    if not isinstance(hist, dict):
        errors.append(f"{where}: expected an object")
        return
    bounds = hist.get("bounds")
    counts = hist.get("counts")
    if not isinstance(bounds, list) or not all(
        is_finite_number(b) for b in bounds
    ):
        errors.append(f"{where}.bounds: expected a list of finite numbers")
        bounds = None
    elif any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        errors.append(f"{where}.bounds: not strictly increasing")
    if not isinstance(counts, list) or not all(is_count(c) for c in counts):
        errors.append(f"{where}.counts: expected a list of counts")
    elif bounds is not None and len(counts) != len(bounds) + 1:
        errors.append(
            f"{where}.counts: expected len(bounds)+1 = {len(bounds) + 1} "
            f"entries, got {len(counts)}"
        )
    if not is_count(hist.get("count")):
        errors.append(f"{where}.count: expected a count")
    if not is_finite_number(hist.get("sum")):
        errors.append(f"{where}.sum: expected a finite number")


def check_file(path: Path, errors: list[str]) -> dict | None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON: {e}")
        return None

    def err(msg):
        errors.append(f"{path}: {msg}")

    if not isinstance(doc, dict):
        err("top level must be an object")
        return None
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        err("name: expected a non-empty string")
    elif path.name != f"BENCH_{name}.json":
        err(f"name {name!r} does not match filename {path.name!r}")
    if doc.get("schema") != SCHEMA:
        err(f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")

    local: list[str] = []
    check_str_map(doc.get("scalars"), "scalars", is_finite_number,
                  "a finite number", local)
    check_str_map(doc.get("text"), "text",
                  lambda v: isinstance(v, str), "a string", local)
    series = doc.get("series")
    check_str_map(
        series, "series",
        lambda v: isinstance(v, list) and all(is_finite_number(x) for x in v),
        "a list of finite numbers", local)
    if isinstance(series, dict):
        for sname, values in series.items():
            if not (sname == "t_s" or sname.endswith("_t_s")):
                continue  # not a timestamp axis
            if not isinstance(values, list) or not all(
                is_finite_number(x) for x in values
            ):
                continue  # already reported above
            for i, (a, b) in enumerate(zip(values, values[1:])):
                if b < a:
                    local.append(
                        f"series[{sname!r}]: timestamps not monotonically "
                        f"non-decreasing at index {i + 1} ({b} < {a})"
                    )
                    break

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        local.append("metrics: expected an object")
    else:
        check_str_map(metrics.get("counters"), "metrics.counters", is_count,
                      "a non-negative integer", local)
        check_str_map(metrics.get("gauges"), "metrics.gauges",
                      is_finite_number, "a finite number", local)
        hists = metrics.get("histograms")
        if not isinstance(hists, dict):
            local.append("metrics.histograms: expected an object")
        else:
            for hname, hist in hists.items():
                check_histogram(hname, hist, local)

    errors.extend(f"{path}: {msg}" for msg in local)
    return doc


def parse_expectation(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected name:key:lo:hi, got {spec!r}")
    name, key, lo, hi = parts
    try:
        lo_f, hi_f = float(lo), float(hi)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad bound in {spec!r}: {e}")
    # float("nan") <= x <= float("inf") comparisons would silently pass
    # (or never fail) instead of validating anything.
    if not math.isfinite(lo_f) or not math.isfinite(hi_f):
        raise argparse.ArgumentTypeError(
            f"non-finite bound in {spec!r}: bounds must be finite numbers")
    if lo_f > hi_f:
        raise argparse.ArgumentTypeError(f"empty range in {spec!r}: lo > hi")
    return name, key, lo_f, hi_f


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Validate BENCH_*.json sidecars (syndog-bench/1).")
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument(
        "--expect", action="append", default=[], type=parse_expectation,
        metavar="NAME:KEY:LO:HI",
        help="require scalar KEY of bench NAME to lie in [LO, HI]")
    args = parser.parse_args()

    errors: list[str] = []
    docs: dict[str, dict] = {}
    for path in args.files:
        doc = check_file(path, errors)
        if doc is not None and isinstance(doc.get("name"), str):
            docs[doc["name"]] = doc

    for name, key, lo, hi in args.expect:
        doc = docs.get(name)
        if doc is None:
            errors.append(f"--expect {name}:{key}: no such bench among inputs")
            continue
        value = doc.get("scalars", {}).get(key) if isinstance(
            doc.get("scalars"), dict) else None
        if isinstance(value, float) and not math.isfinite(value):
            # json.loads accepts bare NaN/Infinity tokens, and any
            # comparison against NaN is False — call it out explicitly
            # instead of reporting a confusing range failure.
            errors.append(f"{name}: scalar {key} = {value} is not finite")
        elif not is_finite_number(value):
            errors.append(f"{name}: scalar {key!r} missing or non-numeric")
        elif not lo <= value <= hi:
            errors.append(
                f"{name}: scalar {key} = {value} outside [{lo}, {hi}]")

    if errors:
        for e in errors:
            print(f"check_bench_json: {e}", file=sys.stderr)
        return 1
    print(f"check_bench_json: {len(args.files)} file(s) valid "
          f"({len(args.expect)} expectation(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
