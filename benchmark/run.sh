#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package offline,
# then runs it; every workload runs in a process of its own.
#
#   run.sh                               every workload: an end-to-end run, then a traced run
#   run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                        one run; the last stdout line is its JSON result
#   run.sh --smoke                       every workload, two units + every check + one traced unit
#   run.sh --sets K [--label L]          K end-to-end runs per workload (workloads interleaved
#                                        within a set), appended to out/sets-L.jsonl
#   run.sh --compare A.jsonl B.jsonl     same-code agreement table of two set files
#
# --seed and --seconds are passed through in every mode. Outputs land in
# benchmark/out/ (ignored by git). See README.md for the definitions.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
OUT="$HERE/out"

# No `cd`: the caller may have set a relative CARGO_TARGET_DIR.
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2
BIN="${CARGO_TARGET_DIR:-$HERE/target}/release/gsampler-benchmark"

BENCH_RUSTC="$(rustc --version)"
BENCH_COMMIT="$(git -C "$HERE" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT

mode=all
sets=0
label=A
seed=2023
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) mode=one; pass+=("$1" "$2"); shift 2 ;;
        --trace) pass+=("$1" "$2"); shift 2 ;;
        --seconds) pass+=("$1" "$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --smoke) mode=smoke; shift ;;
        --sets) mode=sets; sets="$2"; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        --compare) exec "$BIN" --compare "$2" "$3" ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

case "$mode" in
    one)
        exec "$BIN" "${pass[@]}" --seed "$seed" --out "$OUT"
        ;;
    all)
        for w in $("$BIN" --list); do
            "$BIN" --workload "$w" "${pass[@]}" --seed "$seed" --trace 0 --out "$OUT"
            "$BIN" --workload "$w" "${pass[@]}" --seed "$seed" --trace 1 --out "$OUT"
        done
        ;;
    smoke)
        mkdir -p "$OUT"
        "$BIN" --check-manifest "$HERE/../BENCHMARK.json"
        status=0
        for w in $("$BIN" --list); do
            # Timing does not matter here, so the two runs share the host.
            "$BIN" --workload "$w" --seed "$seed" --trace 0 --units 2 --quick --out "$OUT" \
                > "$OUT/$w.smoke-e2e.txt" 2>&1 &
            "$BIN" --workload "$w" --seed "$seed" --trace 1 --units 1 --quick --out "$OUT" \
                > "$OUT/$w.smoke-layers.txt" 2>&1 || status=1
            wait $! || status=1
            grep -hv '^{' "$OUT/$w.smoke-e2e.txt" "$OUT/$w.smoke-layers.txt"
        done
        [ "$status" -eq 0 ] && echo "smoke: ok" || { echo "smoke: FAILED" >&2; exit 1; }
        ;;
    sets)
        file="$OUT/sets-$label.jsonl"
        mkdir -p "$OUT"
        : > "$file"
        for ((s = 0; s < sets; s++)); do
            for w in $("$BIN" --list); do
                "$BIN" --workload "$w" "${pass[@]}" --seed $((seed + s)) --trace 0 --out "$OUT" \
                    | tail -n 1 > /dev/null
                cat "$OUT/$w.e2e.json" >> "$file"
            done
            echo "set $((s + 1))/$sets done" >&2
        done
        echo "wrote $file"
        ;;
esac
