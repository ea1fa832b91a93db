#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs two interleaved sets of N runs
# of the current tree (every run with another seed) and prints, per workload
# and end-to-end metric, both medians, how much worse the second is than the
# first, and the bound from BENCHMARK.json. Exits non-zero if a gap is over
# its bound or an operation failed. Each set's spread (interquartile range
# over median) is printed for information; one over the bound is marked
# "noisy" (the driver refuses a benchmark whose spread is over the bound)
# but does not change the exit code.
#
#   bench/repeat.sh [N] [workload ...]      (default: N = 10, all workloads)
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-10}"
shift || true
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
cargo --config bench/cargo-config.toml build --release --offline --quiet \
    --manifest-path bench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/mq-wallbench"
out="bench/out/repeat"
rm -rf "$out"
mkdir -p "$out"

seed=0
for i in $(seq "$runs"); do
    for set in first second; do
        seed=$((seed + 1))
        for w in "${workloads[@]}"; do
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 >"$out/$set.$w.$i.json"
            echo "run $i/$runs $set $w seed $seed: $(cut -c1-60 "$out/$set.$w.$i.json")…" >&2
        done
    done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import glob, json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
over = 0
print(f"{'workload':<16}{'metric':<16}{'first':>12}{'second':>12}{'worse by':>10}"
      f"{'spread 1':>10}{'spread 2':>10}{'bound':>8}")
for w in workloads:
    sets = {}
    for name in ("first", "second"):
        runs = [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{name}.{w}.*.json"))]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{w}: {len(bad)} run(s) of the {name} set had failed operations")
            over += 1
        sets[name] = runs
    for m in spec["end_to_end"]:
        values = {k: [r["metrics"][m["name"]]["value"] for r in v] for k, v in sets.items()}
        med = {k: statistics.median(v) for k, v in values.items()}
        spread = {}
        for k, v in values.items():
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread[k] = (q[2] - q[0]) / med[k]
        worse = (med["second"] - med["first"]) / med["first"]
        if m["better"] == "higher":
            worse = -worse
        flag = ""
        if worse > m["bound"]:
            flag = " <-- over"
            over += 1
        elif m["name"] != "setup_s" and max(spread.values()) > m["bound"]:
            flag = " (noisy)"
        print(f"{w:<16}{m['name']:<16}{med['first']:>12.4f}{med['second']:>12.4f}{worse:>+10.1%}"
              f"{spread['first']:>10.1%}{spread['second']:>10.1%}{m['bound']:>8.0%}{flag}")
sys.exit(1 if over else 0)
EOF
