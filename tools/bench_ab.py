#!/usr/bin/env python3
"""Interleaved A/B of `bench_e2e` between a parent checkout and this tree.

Builds the frozen benchmark package twice, from the parent checkout's
sources and from the working tree's, each into its own target directory
(release, offline, `--locked`: `benchmark/Cargo.lock` is never rewritten).
Then runs N pairs of one workload, alternating which side goes first, each
run in its own process pinned to one CPU as `benchmark/run.sh` pins it, and
reads only each run's last output line, the result object.

For every end-to-end metric of BENCHMARK.json it prints both sides' median
and interquartile range, the change of the medians, and in how many pairs
the working tree was better. Per-layer metrics (with `--trace 1`) are
printed as medians. One row goes to BENCH_history.jsonl. Nothing under
`benchmark/` is written: runs get no `--out`, so a traced run's spans are
not exported.

Usage:
    git clone -q . ../parent && git -C ../parent checkout -q <parent-rev>
    tools/bench_ab.py --parent ../parent --workload steady_256v_w1 \\
        --pairs 10 --seconds 22
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(checkout, target_dir):
    """Builds `bench_e2e` from `checkout` into `target_dir`; returns its path."""
    manifest = os.path.join(checkout, "benchmark", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest, "--bin", "bench_e2e"],
        check=True, env=env)
    return os.path.join(target_dir, "release", "bench_e2e")


def pin():
    """The `taskset` prefix for the first CPU this process may use, as run.sh."""
    if shutil.which("taskset") is None:
        print("bench_ab: no taskset, so the runs are not pinned to one CPU", file=sys.stderr)
        return []
    return ["taskset", "-c", str(min(os.sched_getaffinity(0)))]


def run(binary, args):
    """One run in its own process; returns its result object (the last line)."""
    out = subprocess.run(pin() + [binary] + args, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"bench_ab: {binary} printed nothing")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_ab: {binary} reported an incorrect run: {lines[-1]}")
    return result


def quartiles(values):
    """(median, interquartile range) of `values`."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def revision(checkout):
    """The checkout's commit, marked `+dirty` with uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True).stdout.strip()
    rev = git("rev-parse", "--short", "HEAD") or "unknown"
    return rev + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--target-root", default=os.path.join(REPO, "target", "bench_ab"),
                        help="where the two builds go (default: target/bench_ab)")
    opts = parser.parse_args()

    bench = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    if opts.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"bench_ab: unknown workload {opts.workload}")

    sides = {
        "parent": build(os.path.abspath(opts.parent), os.path.join(opts.target_root, "parent")),
        "work": build(REPO, os.path.join(opts.target_root, "work")),
    }
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", opts.trace]
    results = {"parent": [], "work": []}
    for i in range(opts.pairs):
        order = ["parent", "work"] if i % 2 == 0 else ["work", "parent"]
        for side in order:
            results[side].append(run(sides[side], args)["metrics"])
        print(f"pair {i + 1}/{opts.pairs} done", file=sys.stderr)

    def values(side, name):
        return [m[name]["value"] for m in results[side] if name in m]

    names = end_to_end + sorted(n for n in results["work"][0]
                                if n not in end_to_end and n in better)
    row = {}
    print(f"{opts.workload}: {opts.pairs} interleaved pairs of {opts.seconds:g} s, "
          f"seed {opts.seed}, trace {opts.trace}")
    print(f"{'metric':<34}{'parent median (IQR)':>26}{'work median (IQR)':>26}"
          f"{'change':>9}{'wins':>7}")
    for name in names:
        parent, work = values("parent", name), values("work", name)
        if len(parent) != opts.pairs or len(work) != opts.pairs:
            continue
        (pm, piqr), (wm, wiqr) = quartiles(parent), quartiles(work)
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (w - p) > 0 for p, w in zip(parent, work))
        change = (wm - pm) / pm if pm else 0.0
        row[name] = {"parent_median": pm, "parent_iqr": piqr, "work_median": wm,
                     "work_iqr": wiqr, "wins": wins}
        shown_wins = f"{wins}/{opts.pairs}" if name in end_to_end else ""
        print(f"{name:<34}{pm:>14.4g} ({piqr:>9.3g}){wm:>14.4g} ({wiqr:>9.3g})"
              f"{change:>+9.1%}{shown_wins:>7}")

    entry = {
        "bench": "e2e_ab",
        "date": datetime.date.today().isoformat(),
        "workload": opts.workload,
        "pairs": opts.pairs,
        "seconds": opts.seconds,
        "seed": opts.seed,
        "trace": int(opts.trace),
        "parent": revision(os.path.abspath(opts.parent)),
        "work": revision(REPO),
        "metrics": row,
    }
    with open(os.path.join(REPO, "BENCH_history.jsonl"), "a") as history:
        history.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print("appended one row to BENCH_history.jsonl", file=sys.stderr)


if __name__ == "__main__":
    main()
