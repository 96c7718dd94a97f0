#!/usr/bin/env bash
# Build the benchmark offline and run all six workloads, untraced then
# traced, printing every metric with unit and sample count.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat K]
#
# With --repeat 2 the whole set runs twice and the two are compared: the
# script prints, per workload and end-to-end metric, how far the worse
# run is from the better one against the metric's bound, and exits
# nonzero if any disagrees by more than its bound or bench.calib_ns
# drifted by more than 10 %.
set -euo pipefail

seed=1
seconds=10
repeat=1
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --repeat) repeat=$2; shift 2 ;;
        *) echo "usage: $0 [--seed N] [--seconds S] [--repeat K]" >&2; exit 2 ;;
    esac
done

here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --manifest-path "$here/Cargo.toml"
target=${CARGO_TARGET_DIR:-$here/target}
bin=$target/release/rvhpc-benchmark

status=0
for k in $(seq 1 "$repeat"); do
    out=$here/out/run$k
    mkdir -p "$out"
    for workload in serve_hot serve_churn serve_routed model_sweep isa_char npb_host; do
        for trace in 0 1; do
            name=$([ "$trace" = 0 ] && echo e2e || echo layers)
            log=$out/$workload.$name.log
            if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" >"$log"; then
                echo "$workload --trace $trace failed its output checks" >&2
                status=1
            fi
            # The table, then the result line on its own for --compare.
            sed '$d' "$log"
            tail -n 1 "$log" >"$out/$workload.$name.json"
        done
    done
done

if [ "$repeat" -ge 2 ]; then
    "$bin" --compare "$here/out/run1" "$here/out/run2" || status=1
fi
exit $status
