#!/usr/bin/env python3
"""Build and run the SYN-dog benchmark for one workload at one seed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest-minframe --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (and with it the program's libraries) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
perfbench binary. Prints the machine context as one JSON line and, as the
last line, the result: {"correct", "attempted", "failed", "metrics"}. The
same record, context included, goes to .bench_out/. With --trace 1 the
span file goes there too. Exits non-zero if the build fails, a pass fails
the output gate, or the binary does not finish in time.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
OUT_DIR = ".bench_out"
# What the perfbench binary is built from; the source digest covers these.
SOURCES = ("BENCHMARK.json", "CMakeLists.txt", "cmake", "src", "perfbench")


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def cpu_ticks():
    """(steal, idle) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    idle = int(fields[4]) + int(fields[5])
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal, idle


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root):
    """sha256 over the paths and bytes of the files under SOURCES."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def source_commit(root):
    """HEAD, marked +dirty when SOURCES differ from it; None without git."""
    if not (os.path.isdir(os.path.join(root, ".git")) and shutil.which("git")):
        return None
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--", *SOURCES],
                            cwd=root, capture_output=True, text=True)
    dirty = status.returncode != 0 or status.stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def build(root, build_dir):
    deadline = time.monotonic() + BUILD_TIMEOUT_S

    def run(cmd):
        left = deadline - time.monotonic()
        return left > 0 and subprocess.run(
            cmd, stdout=sys.stderr, timeout=left).returncode == 0

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run(cmd):
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    return run(["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", "3"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src", "perfbench"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"{needed} not found: run from the root of a checkout")
            return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    t0 = time.monotonic()
    try:
        built = build(root, build_dir)
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--span-file", os.path.join(OUT_DIR, f"spans-{tag}.jsonl")]

    # Generation, the warm-up pass and the last pass run past --seconds by
    # a few seconds; a hung binary is still stopped within three minutes of
    # a run of up to 60 s.
    run_timeout = args.seconds + 120
    before = cpu_ticks()
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=run_timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench did not finish within {run_timeout:g} s")
        return 1
    wall = time.monotonic() - started
    after = cpu_ticks()

    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench exited {proc.returncode} without a result")
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    not_on_path = []
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None and args.trace:
            # This layer does not run on this workload's path.
            got = {"value": 0, "unit": m["unit"]}
            not_on_path.append(m["name"])
        if got is None or got["unit"] != m["unit"]:
            if raw["correct"]:
                log(f"metric {m['name']} missing or not in {m['unit']}")
                return 1
            continue  # a run stopped by the output gate reports what it has
        metrics[m["name"]] = got

    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "commit": source_commit(root), "source_digest": source_digest(root),
        "wall_s": round(wall, 3),
    }
    if before and after:
        context["steal_ticks"] = after[0] - before[0]
        context["idle_ticks"] = after[1] - before[1]
    if not_on_path:
        context["not_on_path"] = not_on_path
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)

    print(json.dumps({"context": context}))
    print(json.dumps(result))
    if proc.returncode != 0 or not raw["correct"]:
        log(f"perfbench exited {proc.returncode}; output gate "
            f"{'held' if raw['correct'] else 'failed'}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
