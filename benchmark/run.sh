#!/usr/bin/env bash
# The repo benchmark, one command. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--quick] [--repeat N [--agree]]
#
# Builds in release, then runs each selected workload in a process of its
# own (so that peak_rss_mb belongs to one workload), prints every metric by
# name with its unit, writes benchmark/out/<workload>.json (and
# trace-<workload>.json under --trace) and exits non-zero if a correctness
# check fails. The last line of each run is its result as one JSON object.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=() pass=() repeat=1 agree=0
while (($#)); do
    case "$1" in
        --workload) workloads+=("$2"); shift 2 ;;
        --seed | --seconds) pass+=("$1" "$2"); shift 2 ;;
        --trace)
            # Bare `--trace` means `--trace 1`.
            if [[ "${2-}" =~ ^[01]$ ]]; then pass+=(--trace "$2"); shift 2; else pass+=(--trace 1); shift; fi ;;
        --quick) pass+=(--quick); shift ;;
        --repeat) repeat="$2"; shift 2 ;;
        --agree) agree=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build inside the benchmark's own directory, wherever the caller points
# CARGO_TARGET_DIR: nothing is left behind outside benchmark/. Cargo's own
# output goes to stderr: stdout ends with the result line.
export CARGO_TARGET_DIR="$PWD/benchmark/target"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release/dsbn-benchmark"
((${#workloads[@]})) || mapfile -t workloads < <("$bin" list)

status=0
for ((set = 1; set <= repeat; set++)); do
    out=benchmark/out
    ((repeat > 1)) && out="benchmark/out/set-$set"
    for w in "${workloads[@]}"; do
        "$bin" run --workload "$w" --out "$out" ${pass[@]+"${pass[@]}"} || status=$?
    done
done
if ((agree)); then
    "$bin" agree benchmark/out "$repeat" "${workloads[@]}" || status=$?
fi
exit "$status"
