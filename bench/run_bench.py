#!/usr/bin/env python3
"""Runs one google-benchmark suite and records its headline numbers in
BENCH_<suite>.json at the repo root.

    bench/run_bench.py <verify|prove|incremental> [build-dir]          # default build dir: build/
    bench/run_bench.py <verify|prove|incremental> [build-dir] --smoke  # n=1024 rows (CI)

Suites and their headline metrics:
  verify       speedup of the zero-copy batched engine over the seed engine's
               per-vertex-copy loop (BM_EngineSeedCopies) on MsoTree at
               n=4096 (target 5x), plus the leaves>=4 worst-state cliff:
               per-probe rate of the canonical BoxIndex over the raw linear
               DNF sweep (target 25x). Smoke keeps the n=1024 engine rows and
               the cliff micro rows.
  prove        speedup of the batch prover (level-synchronized, memo-backed,
               arena-backed) over the seed serial assign() path on the most
               memo-friendly family at n=4096 (target 4x), per-family
               speedups, and the CompleteBinary/RandomTree cliff (target
               <= 50x). Smoke runs the n=1024 rows.
  incremental  amortized speedup of one incremental edit (period-2 subtree
               rehang through a live incr::CertifiedInstance) over a cold
               full prove_assignment of the same instance, matched-random-tree
               under perfect-matching at n=16384 (target 100x). Smoke runs
               the n=1024 rows.

Every artifact carries schema 2 and a "provenance" block (compiler, flags,
CPU count, git SHA and dirty flag, run date), so a stored BENCH_*.json can
always be traced back to the toolchain and commit that produced it.

Environment:
  LCERT_BENCH_DATE   run timestamp, for reproducible artifacts (default: now, UTC)
  LCERT_TRACE_OUT    also write the run's Chrome trace to this file
  LCERT_BENCH_FORCE  overwrite a committed artifact even from an unknown git
                     SHA, a dirty tree, or an artifact of another schema
"""

import datetime
import json
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_VERSION = 2


def verify_headline(benchmarks, rates, n):
    boxes = {b["name"]: int(b["boxes"]) for b in benchmarks if "boxes" in b}
    seed = rates.get("BM_EngineSeedCopies/4096")
    serial = rates.get("BM_EngineZeroCopySerial/4096")
    parallel = rates.get("BM_EngineZeroCopyParallel/4096")
    best_rates = [v for v in (serial, parallel) if v is not None]
    best = max(best_rates) if best_rates else None
    speedup = best / seed if seed and best else None

    # The leaves>=4 cliff (E19): per-probe throughput of the seed linear sweep
    # over the worst state's raw DNF vs the canonical DNF behind the BoxIndex.
    cliff_raw = rates.get("BM_Leaves4WorstStateRawLinear")
    cliff_indexed = rates.get("BM_Leaves4WorstStateIndexed")
    cliff_improvement = cliff_indexed / cliff_raw if cliff_raw and cliff_indexed else None

    keys = {
        "headline": {
            "seed_engine_items_per_second": seed,
            "zero_copy_serial_items_per_second": serial,
            "zero_copy_parallel_items_per_second": parallel,
            "speedup_vs_seed_engine": speedup,
            "target_speedup": 5.0,
            "meets_target": speedup is not None and speedup >= 5.0,
        },
        "leaves4_cliff": {
            "worst_state_raw_boxes": boxes.get("BM_Leaves4WorstStateRawLinear"),
            "worst_state_canonical_boxes": boxes.get("BM_Leaves4WorstStateIndexed"),
            "raw_linear_probes_per_second": cliff_raw,
            "indexed_probes_per_second": cliff_indexed,
            "per_vertex_improvement": cliff_improvement,
            "target_improvement": 25.0,
            "meets_target": cliff_improvement is not None and cliff_improvement >= 25.0,
        },
    }
    lines = []
    if speedup is not None:
        lines.append(f"speedup vs seed engine at n=4096: {speedup:.2f}x "
                     f"({'meets' if speedup >= 5.0 else 'MISSES'} the 5x target)")
    if boxes:
        lines.append(f"leaves>=4 worst state: {boxes.get('BM_Leaves4WorstStateRawLinear')} raw "
                     f"boxes -> {boxes.get('BM_Leaves4WorstStateIndexed')} canonical boxes")
    if cliff_improvement is not None:
        lines.append(f"leaves>=4 worst-state per-vertex improvement: {cliff_improvement:.1f}x "
                     f"({'meets' if cliff_improvement >= 25.0 else 'MISSES'} the 25x target)")
    return keys, lines


def prove_headline(benchmarks, rates, n):
    def rate(mode, family):
        return rates.get(f"BM_Prove{mode}/{family}/{n}")

    # Per-family speedups of the best batch configuration over the seed serial
    # assign() path. Memo-friendly families are where the cache should shine;
    # path is the adversarial case (all subtree shapes distinct) and is
    # reported honestly rather than dropped.
    speedups = {}
    for fam in ("Path", "Caterpillar", "CompleteBinary", "RandomTree"):
        seed = rate("SeedSerial", fam)
        batch = [v for v in (rate("BatchSerial", fam), rate("BatchParallel", fam))
                 if v is not None]
        if seed and batch:
            speedups[fam] = max(batch) / seed

    best_family, best_speedup = None, None
    for fam in ("CompleteBinary", "RandomTree"):
        s = speedups.get(fam)
        if s is not None and (best_speedup is None or s > best_speedup):
            best_family, best_speedup = fam, s

    # The irregular-shape gap: memo-backed serial batch throughput on random
    # trees versus complete binary trees (target: within 50x).
    binary, random_tree = rate("BatchSerial", "CompleteBinary"), rate("BatchSerial", "RandomTree")
    cliff = binary / random_tree if binary and random_tree else None
    keys = {
        "speedup_vs_seed_by_family": speedups,
        "randomtree_cliff": {
            "complete_binary_items_per_second": binary,
            "random_tree_items_per_second": random_tree,
            "ratio": cliff,
            "target_ratio": 50.0,
        },
        "headline": {
            "memo_friendly_family": best_family,
            "speedup_vs_seed_serial": best_speedup,
            "target_speedup": 4.0,
            "meets_target": best_speedup is not None and best_speedup >= 4.0,
        },
    }
    lines = [f"  {fam}: {s:.2f}x vs seed serial at n={n}" for fam, s in sorted(speedups.items())]
    if cliff is not None:
        lines.append(f"randomtree cliff: CompleteBinary/RandomTree = {cliff:.1f}x "
                     f"({'within' if cliff <= 50.0 else 'OUTSIDE'} the 50x target)")
    if best_speedup is not None:
        lines.append(f"headline ({best_family}): {best_speedup:.2f}x "
                     f"({'meets' if best_speedup >= 4.0 else 'MISSES'} the 4x target)")
    return keys, lines


def incremental_headline(benchmarks, rates, n):
    def speedup(incr_name, cold_name):
        incr, cold = rates.get(incr_name), rates.get(cold_name)
        return incr / cold if incr and cold else None

    # One speedup row per workload: amortized incremental edits/s over cold
    # full re-proves/s of the same instance. The matched-random-tree row under
    # perfect-matching is the headline; the leaves>=4 rows are breadth.
    speedups = {}
    for size in sorted({int(name.rsplit("/", 1)[-1]) for name in rates}):
        s = speedup(f"BM_IncrSubtreeSwapMatched/{size}", f"BM_ColdReproveMatched/{size}")
        if s is not None:
            speedups[f"matched-random-tree/perfect-matching/{size}"] = s
        for fam in ("CompleteBinary", "RandomTree"):
            s = speedup(f"BM_IncrSubtreeSwapLeaves/{fam}/{size}",
                        f"BM_ColdReproveLeaves/{fam}/{size}")
            if s is not None:
                speedups[f"{fam}/leaves>=4/{size}"] = s

    headline = speedups.get(f"matched-random-tree/perfect-matching/{n}")
    keys = {
        "speedup_vs_cold_reprove": speedups,
        "headline": {
            "workload": "1-edit subtree rehang, matched-random-tree, perfect-matching",
            "speedup_vs_cold_reprove": headline,
            "target_speedup": 100.0,
            "meets_target": headline is not None and headline >= 100.0,
        },
    }
    lines = [f"  {key}: {s:.1f}x vs cold full re-prove" for key, s in sorted(speedups.items())]
    if headline is not None:
        lines.append(f"headline (matched-random-tree @ n={n}): {headline:.1f}x "
                     f"({'meets' if headline >= 100.0 else 'MISSES'} the 100x target)")
    return keys, lines


# Per suite: the artifact's identity, the benchmark filter (full sweep and
# smoke), google-benchmark's --benchmark_min_time, the headline n (full,
# smoke), whether the binary records its obs rows at that n (--record-n), and
# the function deriving the suite's own artifact keys from the rates.
SUITES = {
    "verify": dict(
        binary="bench_verify_throughput", benchmark="verify_engine_throughput",
        scheme="mso-tree[path]",
        filter="BM_Engine|BM_Audit|BM_Leaves4",
        smoke_filter="BM_Engine.*/1024$|BM_Leaves4WorstState",
        min_time="0.3", n=(4096, 4096), record_n=False, headline=verify_headline),
    "prove": dict(
        binary="bench_prove_throughput", benchmark="prover_pipeline_throughput",
        scheme="mso-tree (standard automata) + treedepth + spanning-tree",
        filter="BM_Prove", smoke_filter="BM_Prove.*/1024$",
        min_time="0.2", n=(4096, 1024), record_n=True, headline=prove_headline),
    "incremental": dict(
        binary="bench_incremental", benchmark="incremental_recertification",
        scheme="mso-tree (perfect-matching headline, leaves>=4 breadth)",
        filter="BM_(Incr|Cold)", smoke_filter="BM_(Incr|Cold).*/1024$",
        min_time="0.2", n=(16384, 1024), record_n=True, headline=incremental_headline),
}


def fail(message, hint=None):
    print(f"error: {message}", file=sys.stderr)
    if hint:
        print(f"       ({hint})", file=sys.stderr)
    sys.exit(1)


def git(*args):
    """stdout of a git command in the repo, or None when it fails."""
    try:
        return subprocess.run(["git", "-C", REPO_ROOT, *args], capture_output=True,
                              text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def cache_var(build_dir, name):
    """Value of a CMakeCache entry, empty if absent."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(rf"{re.escape(name)}:[^=]*=(.*)$", line.rstrip("\n"))
                if m:
                    return m.group(1)
    except OSError:
        pass
    return ""


def check_guards(out):
    """Refuses to overwrite a committed artifact that could no longer be traced
    to a commit, or an artifact of another schema (LCERT_BENCH_FORCE=1
    overrides). Returns (git_sha, dirty)."""
    sha = (git("rev-parse", "--short", "HEAD") or "").strip() or "unknown"
    # This script's own artifacts are not dirt: refreshing all suites in one
    # checkout rewrites them one after another.
    own = [f":(exclude)BENCH_{suite}.json" for suite in SUITES]
    dirty = sha != "unknown" and bool(git("status", "--porcelain", "--", ".", *own))
    if os.environ.get("LCERT_BENCH_FORCE"):
        return sha, dirty
    committed = git("ls-files", "--error-unmatch", os.path.basename(out)) is not None
    force_hint = "set LCERT_BENCH_FORCE=1 to override"
    # A tracked artifact must stay traceable to a commit: with no SHA (no git,
    # shallow mishap, ...) the new artifact would be an orphan.
    if sha == "unknown" and committed:
        fail(f"git SHA is unknown but {out} is committed — refusing to overwrite", force_hint)
    # A committed artifact must be reproducible from the SHA in its provenance
    # block; a dirty tree would stamp dirty=true over a clean artifact.
    if dirty and committed:
        fail(f"working tree is dirty but {out} is committed — refusing to overwrite",
             f"commit or stash first, or {force_hint}")
    # A silent cross-schema overwrite corrupts the bench trajectory that the
    # EXPERIMENTS.md tables and tools/bench_compare.py read.
    if os.path.exists(out):
        try:
            with open(out) as f:
                existing = str(json.load(f).get("schema", 1))
        except (OSError, ValueError, AttributeError):
            existing = "unreadable"
        if existing != str(SCHEMA_VERSION):
            fail(f"{out} carries schema {existing} but this script writes schema "
                 f"{SCHEMA_VERSION} — refusing to overwrite", force_hint)
    return sha, dirty


def provenance(build_dir, sha, dirty, date, context):
    build_type = cache_var(build_dir, "CMAKE_BUILD_TYPE")
    compiler = cache_var(build_dir, "CMAKE_CXX_COMPILER")
    flags = [cache_var(build_dir, "CMAKE_CXX_FLAGS")]
    if build_type:
        flags.append(cache_var(build_dir, f"CMAKE_CXX_FLAGS_{build_type.upper()}"))
    try:
        version = subprocess.run([compiler or "c++", "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "git_sha": sha,
        "dirty": dirty,
        "date": date,
        # google-benchmark's own host detection at run time, so the block can
        # never disagree with the "context" block it sits next to; the CPUs
        # this process may run on (what nproc prints) only when the benchmark
        # JSON carries no context.
        "num_cpus": int(context.get("num_cpus") or len(os.sched_getaffinity(0))),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": build_type,
        "cxx_flags": " ".join(s for s in flags if s),
    }


def main(argv):
    if len(argv) < 2 or argv[1] not in SUITES:
        print(f"usage: {argv[0]} <{'|'.join(SUITES)}> [build-dir] [--smoke]", file=sys.stderr)
        return 2
    name, suite = argv[1], SUITES[argv[1]]
    build_dir = os.path.join(REPO_ROOT, "build")
    smoke = False
    for arg in argv[2:]:
        if arg == "--smoke":
            smoke = True
        else:
            build_dir = arg
    binary = os.path.join(build_dir, "bench", suite["binary"])
    out = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    if not os.access(binary, os.X_OK):
        fail(f"{binary} not found — build first: "
             f"cmake --build '{build_dir}' --target {suite['binary']}")

    sha, dirty = check_guards(out)
    date = os.environ.get("LCERT_BENCH_DATE") or \
        datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    n = suite["n"][1 if smoke else 0]

    # The obs table goes to stdout for the human; the google-benchmark JSON
    # goes straight to a file so the table cannot corrupt it. With --record-n
    # the structured record rows follow the headline size.
    with tempfile.TemporaryDirectory() as tmp:
        raw_path, metrics_path = os.path.join(tmp, "raw.json"), os.path.join(tmp, "metrics.json")
        cmd = [binary, f"--benchmark_filter={suite['smoke_filter' if smoke else 'filter']}",
               f"--benchmark_min_time={suite['min_time']}",
               f"--benchmark_out={raw_path}", "--benchmark_out_format=json"]
        if suite["record_n"]:
            cmd += ["--record-n", str(n)]
        cmd += ["--metrics-out", metrics_path]
        if os.environ.get("LCERT_TRACE_OUT"):
            cmd += ["--trace-out", os.environ["LCERT_TRACE_OUT"]]
        status = subprocess.run(cmd).returncode
        if status != 0:
            return status
        with open(raw_path) as f:
            raw = json.load(f)
        try:
            with open(metrics_path) as f:
                obs = json.load(f)
        except (OSError, ValueError):
            obs = {}

    benchmarks = raw.get("benchmarks", [])
    rates = {b["name"]: b["items_per_second"] for b in benchmarks
             if b.get("items_per_second") is not None}
    keys, lines = suite["headline"](benchmarks, rates, n)
    context = raw.get("context", {})
    result = {
        "schema": SCHEMA_VERSION,
        "written_at": date,
        "benchmark": suite["benchmark"],
        "scheme": suite["scheme"],
        "n": n,
        "smoke": smoke,
        "provenance": provenance(build_dir, sha, dirty, date, context),
        "context": context,
        "items_per_second": rates,
        "obs_records": obs.get("records", []),
        **keys,
    }
    with open(out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {out}")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
