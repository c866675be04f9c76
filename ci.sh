#!/usr/bin/env bash
# Local CI gate: formatting, lints as errors, the tier-1 test suite at the
# default pool width and at a fixed multi-worker width, and the repo
# benchmark at smoke length.
#
# `cargo test -q` covers the whole workspace via `default-members`, and it
# runs every other check: the differential fuzz smoke and its self-tests
# (crates/testkit/tests/harness.rs), the traced gsample / serve smokes
# (crates/bench/tests/smokes.rs), the multi-GPU verdict (gsampler-bench's
# unit tests) and the architecture census (tests/architecture.rs). A new
# invariant is a test or a visibility rule, not a line here.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q
# Worker-fault and width tests need a second pool thread on any host.
GSAMPLER_THREADS=2 cargo test -q

# The standalone benchmark package (benchmark/, BENCHMARK.json): all six
# workloads with their correctness checks, including compile_sweep's
# cold == warm sample digests and plan-database hit/miss counts. It
# refuses to run with any GSAMPLER_* variable set.
bash benchmark/run.sh --smoke
