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
# The deadline is the token in scope around the whole epoch, so it bounds
# every algorithm: a walk epoch, which never reaches the epoch driver's
# window loop, must stop too, and leave the same post-mortem (its loop runs
# under the same stop bracket). A walk epoch can finish inside 1 ms, so the
# budget is 0 ms: the first poll fires, on any host.
if GSAMPLER_THREADS=2 ./target/release/gsample deepwalk --dataset PD --scale 0.05 \
    --deadline-ms 0 --trace-out "$TRACE_TMP/walk_deadline.json" >/dev/null 2>&1; then
    echo "gsample finished a PD walk epoch inside a 0 ms deadline" >&2
    exit 1
fi
./target/release/trace-check "$TRACE_TMP/walk_deadline.json" --require pass,kernel \
    --require-event deadline/set \
    --require-event deadline/exceeded

# --- Cache-residency smoke ----------------------------------------------
# PP runs partially resident behind a degree-skew cache plan: a traced
# run must emit the cache/* event family — the plan plus per-batch
# hit/miss counts observed at dispatch.
GSAMPLER_THREADS=2 ./target/release/gsample graphsage --dataset PP --scale 0.05 \
    --trace-out "$TRACE_TMP/cache.json" >/dev/null
./target/release/trace-check "$TRACE_TMP/cache.json" \
    --require pass,kernel,pool,cache \
    --require-event cache/plan \
    --require-event cache/batch

# --- Multi-GPU verdict ----------------------------------------------------
# Sharding scales near-linearly on device-resident PD (>= 3.0x at 4 GPUs)
# and clearly sub-linearly on UVA-resident PP (<= 0.75x of PD's speedup),
# for GraphSAGE and LADIES; the bin exits 1 otherwise. Below scale 0.3 PD
# has too few mini-batches to fill a fleet.
GS_SCALE=0.3 ./target/release/multi_gpu_scaling >/dev/null

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
# Extension census: one block conversion (`train::sage::blocks_from_sample`),
# one typed-neighbourhood path (`drivers::hetgnn_neighbors`), no feature
# prefetch stage that discards its gather, one host residency variant.
test -z "$(grep -rn 'prefetch_node_feats\|charge_hidden\|Residency::Partial\|hetero::\|metapath\|to_message_flow_graph' crates/*/src src examples)"
test -z "$(sed -n '/^pub fn split_outputs/,$p' crates/core/src/kernels/superbatch.rs | grep -E 'slice_cols\(|compact_rows\(|global_row_ids\(')"
# No gather loop beside the shared one (`slice::gather_cols`). The select
# census (one draw routine, no `replace`, no per-segment lists) is
# `tests/architecture.rs`.
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
# The fused collective writes through the one gather; pre-processing does
# sink LADIES' `A ** 2`.
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
# Bias on the fly: a bias chain only the node-wise select reads is
# evaluated inside the pick (`Op::FusedBiasSelect`), so the standalone
# attention-combine kernel, its matrix routine and its fusion rule are gone;
# its dots are the one `dense::dots` the SDDMM runs, not a second dot loop.
test -z "$(grep -rn 'FusedEdgeCombine\|combine_edge_values\|combine_chain\|edge_combine' crates src tests examples)"
test "$(grep -rn 'fn dots' crates/*/src | wc -l)" -eq 1
test -z "$(non_test crates/matrix/src/bias.rs | grep 'fold(-0\|Rng\|sample_without')"
# SpMM is one plain traversal (`spmm` and `spmm_t` over `spmm_lines`): no
# cache blocking, no host cache probe, no software prefetch, and no second
# kernel kept only as a speed reference.
test "$(non_test crates/matrix/src/spmm.rs | grep -c 'fn spmm')" -eq 3
test -z "$(grep -rn 'prefetch_read\|_mm_prefetch\|calibrated_block\|spmm_with_block\|spmm_baseline' crates src)"

# One fact table per program: kind, row/column space, variance, residency
# and super-batch legality are reads of `gsampler_ir::facts`, never a walk
# of their own.
test -z "$(grep -rnE 'fn (static_set|block_space|superbatch_compatible|block_proof|graph_resident_set|check_inputs)\b' crates/*/src)"
test "$(grep -rn 'pub fn facts' crates/*/src | wc -l)" -eq 1
# One memo of hoisted values (`core::hoist::Hoist`): graph-only precompute
# is its empty-key case, so no compiled layer or plan keeps a value list
# of its own.
test -z "$(grep -rn 'precomputed: Vec<Arc<Value>>' crates/core/src)"
# One pool discipline: every parallel region claims ranges from one
# `WorkQueue` in one claim loop, nothing splits work by the thread count,
# and at most 7 `unsafe` lines remain, each directly under a `// SAFETY:`
# comment. One SplitMix64 and one counter-based draw (`Key`), no streams.
POOL_SRC=crates/runtime/src/parallel.rs
test "$(non_test $POOL_SRC | grep -c 'WorkQueue::new()')" -eq 1
test "$(non_test $POOL_SRC | grep -c '\.claim(')" -eq 1
test -z "$(non_test $POOL_SRC | grep 'div_ceil(threads)')"
non_test $POOL_SRC | awk '
    /^[[:space:]]*\/\// { if ($0 ~ /SAFETY:/) safety = 1; next }
    /unsafe/ { n++; if (!safety) bad++ }
    { safety = 0 }
    END { exit (n > 7 || bad > 0) }'
test "$(grep -rn 'fn splitmix64' crates/*/src | wc -l)" -eq 1
test -z "$(grep -rn 'StreamSource\|ColStreams\|segment_subpools\|struct RngPool\|fn subpool(' crates/*/src)"
# One window, one ladder: every recovery decision (retry, halve, one run
# per group, streaming, quarantine) lives in `core::window`; serve runs
# lone requests and packs alike as one window over one `sample_groups`
# call; `compile.rs` keeps config -> compile -> the single-batch API.
SERVE_SRC=$(for f in crates/serve/src/*.rs crates/serve/src/bin/*.rs; do non_test "$f"; done)
test -z "$(echo "$SERVE_SRC" | grep 'sample_batch_seeded(')"
test "$(echo "$SERVE_SRC" | grep -c 'sample_groups(')" -eq 1
test "$(grep -rl 'fn execute_recovering\|degrade_steps += 1' crates/*/src src)" = \
    crates/core/src/window.rs
test "$(non_test crates/core/src/compile.rs | wc -l)" -le 500
# One program identity: CSE, the plan key and hoist sharing decide "the
# same" by `gsampler_ir::identity` (the `Debug` rendering), so no operator
# byte fold, no canonical fingerprint (what is left of `fingerprint` is a
# digest of the rendering) and no collision check beside the key. No IR
# operator that nothing emits.
test -z "$(grep -rn 'fn fold_identity' crates/ir/src)"
test "$(grep -A1 'pub fn fingerprint' crates/ir/src/program.rs | grep -c 'format!("{self:?}")')" -eq 1
test "$(grep -l '[^_a-z]identity(' crates/ir/src/program.rs crates/core/src/plandb.rs crates/core/src/compile.rs | wc -l)" -eq 3
test -z "$(grep -rn 'CompactCols\|ReduceAll' crates/*/src)"
test "$(non_test crates/core/src/plandb.rs | wc -l)" -le 240
# One way to write a property test: a seeded `StdRng` case loop. No
# vendored property-testing framework, no manifest naming one, and the
# only offline stand-ins left are for `rand` and `parking_lot`.
test -z "$(find . \( -name Cargo.toml -o -name Cargo.lock \) -not -path '*/target/*' | xargs grep -l proptest)"
test "$(ls crates/compat | xargs)" = "parking_lot rand"
test -z "$(grep -rnE 'proptest!|prop_assert|prop_oneof!' crates src tests examples)"
# One way to stop a run: the caller's token installed with
# `cancel::scope`. No deadline or token in the sampler config, no token
# re-arming or time-left query, and a transient failure is retried at once
# (no backoff sleep, so no deadline-aware shed of one). `gsample` installs
# its `--deadline-ms` token once, around each epoch.
test -z "$(sed -n '/^pub struct SamplerConfig/,/^}/p' crates/core/src/compile.rs | grep 'pub deadline\|pub cancel')"
test -z "$(grep -rn 'backoff\|thread::sleep' crates/core/src)"
test -z "$(grep -rn 'arm_deadline\|fn remaining\|deadline_shed' crates/*/src)"
test "$(grep -c 'cancel::scope(' crates/bench/src/bin/gsample.rs)" -eq 1

# --- Repo benchmark smoke -------------------------------------------------
# The standalone benchmark package (benchmark/, BENCHMARK.json) at smoke
# length: all six workloads with their correctness checks, including
# compile_sweep's cold == warm sample digests and plan-database hit/miss
# counts. It refuses to run with any GSAMPLER_* variable set.
bash benchmark/run.sh --smoke
