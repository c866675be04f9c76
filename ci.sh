#!/usr/bin/env bash
# Local CI gate: formatting, lints as errors, and the tier-1 test suite
# (`cargo test -q` covers the whole workspace via `default-members`).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q
# The suite must also hold at a fixed multi-worker pool width.
GSAMPLER_THREADS=2 cargo test -q

# Differential fuzz smoke: 50 arbitrary graphs, every algorithm, every
# pass ablation and the super-batched epoch bit-exact, fixed seed.
# Failures shrink to minimal repros saved in tests/corpus/ with replay
# commands printed by the fuzzer.
cargo run -q --release -p gsampler-testkit --bin gsampler-fuzz -- --cases 50 --seed 7

# Replay committed corpus fixtures (empty/absent corpus passes).
cargo run -q --release -p gsampler-testkit --bin gsampler-fuzz -- --replay-corpus

# Harness self-test: an injected fault must be caught and shrunk.
cargo run -q --release -p gsampler-testkit --bin gsampler-fuzz -- \
    --cases 50 --seed 7 --fault fanout-plus-one --no-save

# Benches must keep compiling.
cargo bench --workspace --no-run

# --- Observability smoke -----------------------------------------------
# A traced run must produce a parseable Chrome-trace file with at least
# one event from every instrumented layer: IR passes, kernel dispatch,
# worker-pool regions, and planner decisions. GSAMPLER_THREADS=2 so pool
# regions actually dispatch on single-core CI hosts.
cargo build -q --release -p gsampler-bench
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
GSAMPLER_THREADS=2 ./target/release/gsample graphsage --dataset PD --scale 0.05 \
    --trace-out "$TRACE_TMP/trace.json" --metrics-out "$TRACE_TMP/metrics.json" >/dev/null
./target/release/trace-check "$TRACE_TMP/trace.json" --require pass,kernel,pool,plan
test -s "$TRACE_TMP/metrics.json"

# --- Chaos smoke --------------------------------------------------------
# One epoch with an injected device-OOM, a transient kernel fault, and a
# worker panic (on a fixed 2-worker pool) must recover and exit 0 well
# inside a generous deadline, and the trace must contain the fault/* fires,
# the armed deadline, plus the degrade/superbatch.factor event proving the
# memory-pressure recovery actually walked the ladder.
GSAMPLER_THREADS=2 ./target/release/gsample graphsage --dataset PD --scale 0.05 \
    --faults "seed=3;oom:at=2;kernel:at=5;worker-panic:at=1" --deadline-ms 30000 \
    --trace-out "$TRACE_TMP/chaos.json" >/dev/null
./target/release/trace-check "$TRACE_TMP/chaos.json" \
    --require pass,kernel,pool,fault,degrade \
    --require-event degrade/superbatch.factor \
    --require-event fault/oom \
    --require-event fault/kernel \
    --require-event fault/worker.panic \
    --require-event deadline/set

# Degradation ladder endpoints: an unsatisfiable super-batch budget must
# be a hard error with recovery disabled, and a degraded-but-successful
# run with recovery enabled.
if ./target/release/gsample graphsage --dataset tiny --budget 0.000001 --no-degrade \
    >/dev/null 2>&1; then
    echo "gsample accepted an unsatisfiable budget under --no-degrade" >&2
    exit 1
fi
./target/release/gsample graphsage --dataset tiny --budget 0.000001 >/dev/null

# --- Deadline smoke -----------------------------------------------------
# A 1 ms deadline must fail the epoch (exit nonzero) while still writing
# the trace, with the typed deadline/exceeded event recorded — the
# post-mortem survives the miss.
if GSAMPLER_THREADS=2 ./target/release/gsample graphsage --dataset PD --scale 0.05 \
    --deadline-ms 1 --trace-out "$TRACE_TMP/deadline.json" >/dev/null 2>&1; then
    echo "gsample finished a PD epoch inside a 1 ms deadline (gate is vacuous)" >&2
    exit 1
fi
./target/release/trace-check "$TRACE_TMP/deadline.json" \
    --require-event deadline/set \
    --require-event deadline/exceeded

# --- Cache-residency smoke ----------------------------------------------
# PP runs partially resident behind a degree-skew cache plan: a traced
# prefetch run must emit the cache/* event family — per-batch hit/miss
# counts observed at dispatch plus the prefetch overlap accounting.
GSAMPLER_THREADS=2 ./target/release/gsample graphsage --dataset PP --scale 0.05 \
    --prefetch --trace-out "$TRACE_TMP/cache.json" >/dev/null
./target/release/trace-check "$TRACE_TMP/cache.json" \
    --require pass,kernel,pool,cache \
    --require-event cache/plan \
    --require-event cache/batch \
    --require-event cache/prefetch

# --- Serve smoke --------------------------------------------------------
# Start the multi-tenant epoch server on a preset graph, fire a 3-tenant
# burst, and require the serve-layer trace events: requests were admitted,
# at least one cross-request super-batch was packed, completions were
# recorded per tenant, and the tenants (one program) shared a compile
# through the server's plan database.
cargo build -q --release -p gsampler-serve
GSAMPLER_THREADS=2 ./target/release/gsampler-serve --dataset tiny --tenants 3 \
    --requests 4 --batch 16 --trace-out "$TRACE_TMP/serve.json" >/dev/null
./target/release/trace-check "$TRACE_TMP/serve.json" \
    --require pass,kernel,serve \
    --require-event serve/request \
    --require-event serve/pack \
    --require-event serve/complete \
    --require-event plan/cache.hit

# --- Knob census ----------------------------------------------------------
# A new GSAMPLER_* variable is a new option: it fails here until this list
# (and the docs) say so.
test "$(grep -rhoE 'GSAMPLER_[A-Z_]+' crates/*/src src | sort -u | xargs)" = \
    "GSAMPLER_FAULTS GSAMPLER_THREADS"
# No stall watchdog and no infinite-stall fault: a share doing real work
# cannot be abandoned, so slow shares are only observed (pool.region spans).
test -z "$(grep -rn 'watchdog\|WorkerFault::Hang\|WorkerHang' crates/*/src src)"
test -z "$(sed -n '/^pub fn split_outputs/,$p' crates/core/src/kernels/superbatch.rs | grep -E 'slice_cols\(|compact_rows\(|global_row_ids\(')"
# Node-wise selection is one pick (`sample::pick_columns`) and one gather
# (`slice::gather_cols`): no per-column pick lists, one uniform draw loop
# with replacement and one call of Floyd's selection without (the in-place
# `fill_uniform_sample_without_replacement`; tests included, so a second
# copy anywhere trips it), and no gather loop beside the shared one.
SEL="crates/matrix/src/sample.rs crates/core/src/kernels/slice_sample.rs"
test -z "$(grep -l 'Vec<Vec<usize>>' $SEL)"
test "$(grep -rn 'gen_range(0\.\.deg)' crates/matrix/src crates/core/src | wc -l)" -eq 1
test "$(grep -rn 'uniform_sample_without_replacement(deg' crates/matrix/src crates/core/src | wc -l)" -eq 1
test "$(grep -rn 'parallel_scatter2(' crates/matrix/src/sample.rs crates/core/src/kernels | wc -l)" -le 1
test "$(grep -rn 'parallel_scatter2(' crates/matrix/src crates/core/src | wc -l)" -le 8
# The layer-wise path has one way to compact (a rename in the input's own
# format), one way to slice the index axis (a flat table, no per-id `Vec`)
# and one collective selector; the edge-map-reduce chain clones no
# structure (`Op::FusedEdgeMap`'s output *is* a matrix: the one clone);
# `gather_row_bias` hashes nothing; reduce / broadcast walk the storage
# arrays, not the boxed `iter_edges()`.
non_test() { sed '/^#\[cfg(test)\]/,$d' "$1"; }
test -z "$(grep -rn 'relabel_rows\|relabel_cols\|survivor_offsets' crates src tests)"
test -z "$(non_test crates/matrix/src/compact.rs | grep 'to_coo()\|into_format\|to_format')"
test "$(grep -c 'Vec<Vec<NodeId>>' crates/matrix/src/slice.rs)" -eq 0
test -z "$(non_test crates/core/src/kernels/eltwise.rs | grep 'HashMap')"
test "$(grep -c 'm.data.clone()' crates/core/src/kernels/eltwise.rs)" -eq 1
test -z "$(non_test crates/matrix/src/reduce.rs | grep 'iter_edges()')"
test -z "$(non_test crates/matrix/src/broadcast.rs | grep 'iter_edges()')"
test "$(grep -c 'fn collective_sample_segments' crates/matrix/src/sample.rs)" -eq 1
test "$(grep -rn 'weighted_sample_without_replacement_seeded(' crates/matrix/src crates/core/src | wc -l)" -eq 2
# The fused collective selects with that one selector and writes through
# the one gather; pre-processing does sink LADIES' `A ** 2`.
test "$(grep -rn 'fn collective_select(' crates/matrix/src crates/core/src | wc -l)" -eq 1
test "$(grep -rn 'fn gather_cols' crates/matrix/src crates/core/src | wc -l)" -eq 1
test -z "$(non_test crates/ir/src/passes/preprocess.rs | grep 'not implemented')"
# The model-driven path has one SDDMM (`spmm::sddmm_by_id`; `sddmm(pattern`
# is its identity-ID entry and `Mat::sddmm` the builder method) that walks
# no boxed edge iterator and clones no old values; a named input is a
# shared handle (`run_input` copies no table, vector or node list); the
# unfused edge-value plumbing writes slices, not `Dense::set` per element.
test "$(non_test crates/matrix/src/spmm.rs | grep -c 'fn sddmm')" -eq 2
test "$(grep -rn 'pub fn sddmm(pattern' crates/matrix/src crates/core/src | wc -l)" -eq 1
test -z "$(non_test crates/core/src/kernels/matmul.rs | grep 'fn sddmm\|iter_edges()\|data\.clone()')"
test "$(sed -n '/^pub(crate) fn run_input/,/^}/p' crates/core/src/kernels/mod.rs | grep -c 'Arc<Value>')" -eq 1
test -z "$(sed -n '/^pub(crate) fn run_input/,/^}/p' crates/core/src/kernels/mod.rs | grep 'Value::\|to_vec()')"
test -z "$(non_test crates/matrix/src/eltwise.rs | grep 'out\.set(')"

# --- Ratio floors -------------------------------------------------------
# The two in-run floors the repo benchmark cannot express (blocked SpMM
# >= 1.5x spmm_baseline; at 16 burst-submitted tenants every request
# completes, >= 50% packed with batching on and none with it off).
# Self-test first: a 1.0x SpMM pair must be refused, otherwise the ratio
# floor is not gating anything.
if cargo bench -q -p gsampler-bench --bench floors -- --self-test >/dev/null 2>&1; then
    echo "floors self-test FAILED: a 1.0x ratio passed the 1.5x floor" >&2
    exit 1
fi
cargo bench -q -p gsampler-bench --bench floors

# --- Repo benchmark smoke -------------------------------------------------
# The standalone benchmark package (benchmark/, BENCHMARK.json) at smoke
# length: all six workloads with their correctness checks, including
# compile_sweep's cold == warm sample digests and plan-database hit/miss
# counts. It refuses to run with any GSAMPLER_* variable set.
bash benchmark/run.sh --smoke
