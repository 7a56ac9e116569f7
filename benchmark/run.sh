#!/usr/bin/env bash
# bench_e2e entry point. Builds the benchmark package (release, offline),
# then either
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run in its own process, as BENCHMARK.json's `command` is invoked:
#       every metric by name with its unit, then the result object as the
#       last line of standard output (spans go to benchmark/out/); or
#   run.sh --check [--seed <n>]
#       one plain and one traced round of every workload, verified; or
#   run.sh [--repeat N] [--seed <n>] [--seconds <s>]
#       N full sets: every workload untraced then traced, each in its own
#       process, results appended to benchmark/out/results.jsonl; with N > 1
#       it prints, per end-to-end metric and workload, the spread over the
#       sets against the bound in BENCHMARK.json, and checks that every
#       count metric is identical between the sets.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin bench_e2e >&2
bin=$target/release/bench_e2e

# Every run stays on one CPU, the first this shell may use. On the shared
# two-CPU runner the six-worker fan-out costs a third more when the scheduler
# spreads it over both CPUs than when it keeps it on one, and it flips between
# the two inside a run; ROADMAP's runner is one CPU, so that is what is timed.
run=("$bin")
if command -v taskset >/dev/null; then
    run=(taskset -c "$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')" "$bin")
else
    echo "run.sh: no taskset, so the runs are not pinned to one CPU" >&2
fi

repeat=1
pass=()
single=0
while [ $# -gt 0 ]; do
    case $1 in
    --repeat)
        repeat=$2
        shift 2
        ;;
    --workload | --check)
        single=1
        pass+=("$1")
        shift
        ;;
    *)
        pass+=("$1")
        shift
        ;;
    esac
done

if [ "$single" = 1 ]; then
    exec "${run[@]}" --out "$here/out" ${pass[@]+"${pass[@]}"}
fi

mkdir -p "$here/out"
results=$here/out/results.jsonl
: >"$results"
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$here/../BENCHMARK.json")
for set in $(seq 1 "$repeat"); do
    for workload in $workloads; do
        for trace in 0 1; do
            echo "## set $set: $workload --trace $trace"
            "${run[@]}" --out "$here/out" --workload "$workload" --trace "$trace" ${pass[@]+"${pass[@]}"} |
                tee "$here/out/last.txt"
            printf '{"set": %d, "workload": "%s", "trace": %d, "result": %s}\n' \
                "$set" "$workload" "$trace" "$(tail -n 1 "$here/out/last.txt")" >>"$results"
        done
    done
done
rm -f "$here/out/last.txt"
echo "## results written to $results"

[ "$repeat" -gt 1 ] || exit 0
python3 - "$results" "$here/../BENCHMARK.json" <<'EOF'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in rows)
print("## spread over the sets (max - min, as a share of the median) against the bound")
for w in [w["name"] for w in bench["workloads"]]:
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"]
                  for r in rows if r["workload"] == w and r["trace"] == 0]
        spread = (max(values) - min(values)) / statistics.median(values)
        verdict = "ok" if spread <= bound else "OVER"
        ok &= spread <= bound or name == "setup_s"
        print(f"{w:<20}{name:<18}median {statistics.median(values):>14.4f}"
              f"  spread {spread:7.2%}  bound {bound:4.0%}  {verdict}")
    counts = {}
    for r in rows:
        if r["workload"] == w and r["trace"] == 1:
            for name, m in r["result"]["metrics"].items():
                if m["unit"] == "count":
                    counts.setdefault(name, set()).add(m["value"])
    moved = sorted(n for n, v in counts.items() if len(v) > 1)
    print(f"{w:<20}count metrics identical between sets: {'no: ' + ', '.join(moved) if moved else 'yes'}")
    ok &= not moved
sys.exit(0 if ok else 1)
EOF
