#!/usr/bin/env python3
"""Diff a fresh BENCH_*.json against a committed baseline; gate on regressions.

Compares the per-benchmark throughput maps (``items_per_second``) of two
artifacts produced by bench/run_bench.py and fails when any shared metric
regressed beyond tolerance:

    tools/bench_compare.py --baseline BENCH_prove.json --current fresh.json \
        --tolerance 0.15 --tolerance-for 'BM_ProveBatchParallel/.*=0.30'

Exit codes:
    0  no metric regressed beyond its tolerance
    1  at least one regression (or the artifacts share no metrics)
    2  usage / unreadable artifact / schema-version mismatch

Rules:
  * A metric regresses when current < baseline * (1 - tolerance). Tolerance is
    a fraction (0.15 = 15% slower allowed); throughput metrics only, so lower
    is always worse. Improvements never fail, however large.
  * --tolerance-for PATTERN=FRACTION overrides the default for metric names
    matching the (fullmatch) regex; repeatable, first match wins, most
    specific first.
  * Both artifacts must carry the same "schema" version (missing = 1): a
    cross-schema diff silently compares renamed metrics, which is exactly the
    failure mode the schema field exists to catch. No force override here —
    regenerate the baseline instead.
  * Metrics present on only one side are reported but never fail the gate
    (smoke runs carry fewer rows than full sweeps); an *empty* intersection is
    an error, because a gate that compared nothing would pass vacuously.

The CI job runs this non-blocking (continue-on-error) against the committed
baseline: the committed artifact was produced on different hardware, so the
job is a trend signal, not a merge gate. The ctest fixtures under
tests/data/bench_compare/ pin the gate itself: a synthetic 2x slowdown must
exit 1, a within-tolerance run must exit 0.
"""

import argparse
import json
import re
import sys


def load_artifact(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def parse_override(spec):
    pattern, sep, frac = spec.rpartition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected PATTERN=FRACTION, got {spec!r}")
    try:
        value = float(frac)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad fraction in {spec!r}")
    try:
        compiled = re.compile(pattern)
    except re.error as e:
        raise argparse.ArgumentTypeError(f"bad pattern in {spec!r}: {e}")
    return compiled, value


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json artifacts; exit 1 on regression.")
    parser.add_argument("--baseline", required=True,
                        help="committed reference artifact")
    parser.add_argument("--current", required=True,
                        help="freshly produced artifact")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="default allowed slowdown fraction (default 0.15)")
    parser.add_argument("--tolerance-for", type=parse_override, action="append",
                        default=[], metavar="PATTERN=FRACTION",
                        help="per-metric override, fullmatch regex on the "
                             "benchmark name; repeatable, first match wins")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    base = load_artifact(args.baseline)
    curr = load_artifact(args.current)

    base_schema = base.get("schema", 1)
    curr_schema = curr.get("schema", 1)
    if base_schema != curr_schema:
        print(f"bench_compare: schema mismatch — baseline {args.baseline} is "
              f"schema {base_schema}, current {args.current} is schema "
              f"{curr_schema}; regenerate the baseline", file=sys.stderr)
        sys.exit(2)

    base_rates = base.get("items_per_second", {})
    curr_rates = curr.get("items_per_second", {})
    shared = sorted(set(base_rates) & set(curr_rates))
    if not shared:
        print("bench_compare: artifacts share no items_per_second metrics — "
              "nothing to gate on", file=sys.stderr)
        sys.exit(1)

    def tolerance_of(name):
        for pattern, frac in args.tolerance_for:
            if pattern.fullmatch(name):
                return frac
        return args.tolerance

    regressions = []
    width = max(len(name) for name in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>7}  {'tol':>5}  verdict")
    for name in shared:
        b, c = base_rates[name], curr_rates[name]
        tol = tolerance_of(name)
        if not b or b <= 0:
            verdict = "skip (zero baseline)"
            ratio_s = "-"
        else:
            ratio = c / b
            ratio_s = f"{ratio:.3f}"
            if c < b * (1.0 - tol):
                verdict = "REGRESSED"
                regressions.append((name, ratio, tol))
            else:
                verdict = "ok"
        print(f"{name:<{width}}  {b:>12.1f}  {c:>12.1f}  {ratio_s:>7}  "
              f"{tol:>5.2f}  {verdict}")

    only_base = sorted(set(base_rates) - set(curr_rates))
    only_curr = sorted(set(curr_rates) - set(base_rates))
    if only_base:
        print(f"note: {len(only_base)} metric(s) only in baseline "
              f"(e.g. {only_base[0]}) — not gated")
    if only_curr:
        print(f"note: {len(only_curr)} metric(s) only in current "
              f"(e.g. {only_curr[0]}) — not gated")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond tolerance:",
              file=sys.stderr)
        for name, ratio, tol in regressions:
            print(f"  {name}: {ratio:.3f}x of baseline "
                  f"(allowed >= {1.0 - tol:.2f}x)", file=sys.stderr)
        sys.exit(1)
    print(f"\nall {len(shared)} shared metric(s) within tolerance")
    sys.exit(0)


if __name__ == "__main__":
    main()
