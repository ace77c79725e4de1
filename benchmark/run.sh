#!/usr/bin/env bash
# The foxq benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload: gen -> e2e -> layers, each its own process; prints
#       every metric by name with its unit, verifies every output, writes
#       benchmark/out/BENCH.json and benchmark/out/trace-<workload>.jsonl.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload: gen -> e2e (trace 0) or gen -> layers (trace 1); the
#       last line of stdout is the result as one JSON object.
#
# Exits non-zero if a build fails, an op fails or an output is wrong.
set -euo pipefail

cd "$(dirname "$0")/.."

seed=0xF0E5
seconds=6
workload=
trace=0
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --workload) workload=$2 ;;
        --trace) trace=$2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

# Both packages build offline, in release mode, from the sources of this
# checkout. With CARGO_TARGET_DIR set they share it; otherwise each uses
# the target directory beside its own manifest.
build_start=$(date +%s.%N)
cargo build --release --offline --manifest-path Cargo.toml >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
build_s=$(echo "$build_start $(date +%s.%N)" | awk '{ printf "%.3f", $2 - $1 }')
foxq=${CARGO_TARGET_DIR:-target}/release/foxq
bench=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark

out=benchmark/out
queries=benchmark/queries
mkdir -p "$out"

gen() {
    "$bench" gen --workload "$1" --seed "$seed" --dir "$out/work/$1" --queries "$queries"
}
e2e() {
    "$bench" e2e --workload "$1" --dir "$out/work/$1" --queries "$queries" \
        --foxq "$foxq" --seconds "$seconds"
}
layers() {
    "$bench" layers --workload "$1" --dir "$out/work/$1" --queries "$queries" \
        --foxq "$foxq" --seconds "$seconds" --seed "$seed" --build-s "$build_s" \
        --trace-out "$out/trace-$1.jsonl"
}

if [ -n "$workload" ]; then
    gen "$workload"
    if [ "$trace" = 0 ]; then e2e "$workload"; else layers "$workload"; fi
    exit
fi

failed=0
for w in $("$bench" workloads); do
    gen "$w"
    e2e "$w" || failed=1
    layers "$w" || failed=1
done
"$bench" report --out "$out" --spec BENCHMARK.json --seed "$seed" --seconds "$seconds" \
    --build-s "$build_s"
exit $failed
