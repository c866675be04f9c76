//! Arena no-leak property: recycled scratch buffers must be
//! indistinguishable from fresh allocations. Two back-to-back runs of the
//! same pipeline — the second one drawing from a pool warmed (and here
//! deliberately poisoned) by the first — must produce bit-identical
//! fingerprints, and the compaction path must actually route its scratch
//! through the arena so the property is not vacuously true.

use gsampler_core::{Bindings, OptConfig};
use gsampler_runtime::{arena_metrics, take_scratch_filled};
use gsampler_testkit::drive::{self, run_algorithm};
use gsampler_testkit::fingerprint::of_values;
use gsampler_testkit::gen::{GraphSpec, Topology};
use gsampler_testkit::oracle::oracle_hyper;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fill every per-type pool on this thread with garbage-valued buffers,
/// then drop them back — any kernel that reads recycled contents instead
/// of treating the buffer as empty will see the sentinels.
fn poison_arena() {
    let u32s: Vec<_> = (0..8)
        .map(|_| take_scratch_filled::<u32>(4096, 0xDEAD_BEEF))
        .collect();
    let u64s: Vec<_> = (0..8)
        .map(|_| take_scratch_filled::<u64>(4096, 0xDEAD_BEEF_DEAD_BEEF))
        .collect();
    let usizes: Vec<_> = (0..8)
        .map(|_| take_scratch_filled::<usize>(4096, usize::MAX - 1))
        .collect();
    let f32s: Vec<_> = (0..8)
        .map(|_| take_scratch_filled::<f32>(4096, -1234.5678))
        .collect();
    drop((u32s, u64s, usizes, f32s));
}

#[test]
fn poisoned_arena_never_leaks_into_outputs() {
    let spec = GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 48,
        edges: 220,
        weighted: true,
        self_loops: true,
        duplicate_edges: true,
        dangling: false,
        seed: 0xA7E7A,
    };
    let graph = spec.build();
    let frontiers = spec.frontiers(8);
    let h = oracle_hyper();

    // The compaction scratch really lives in the arena (non-vacuity).
    let before = arena_metrics();
    let first = graph.matrix.compact_rows();
    let after_cold = arena_metrics().since(&before);
    assert!(after_cold.takes >= 1, "compact_rows took no arena scratch");
    let second = graph.matrix.compact_rows();
    let after_warm = arena_metrics().since(&before);
    assert_eq!(first, second, "warm compact_rows diverged from cold");
    assert!(
        after_warm.hits > after_cold.hits,
        "second compact_rows did not reuse the pooled buffer"
    );

    // Back-to-back identical drives across a deliberately poisoned arena.
    for algo in drive::algorithm_names(&h).into_iter().take(4) {
        let run = || {
            let config = drive::sampler_config(OptConfig::all(), 7, frontiers.len());
            run_algorithm(&graph, algo, &h, config, &frontiers, None)
                .expect("drive failed")
                .expect("no fault, always drives")
        };
        let cold = of_values(&run());
        poison_arena();
        let warm = of_values(&run());
        assert_eq!(
            cold, warm,
            "{algo}: output changed after arena reuse — scratch state leaked"
        );
    }

    // Deterministic work check: un-blocking a super-batch takes a group's
    // diagonal block as it is, so a 16-group GraphSAGE execution draws no
    // arena scratch at all (re-deriving each group by slice + compact took
    // one graph-sized buffer per group per layer).
    let config = drive::sampler_config(OptConfig::all(), 7, 3);
    let sampler = drive::compile_algorithm(&graph, "GraphSAGE", &h, config, None)
        .expect("compile failed")
        .expect("no fault");
    let groups: Vec<Vec<u32>> = (0..16).map(|b| spec.frontiers(3 + b % 2)).collect();
    let mut rngs: Vec<StdRng> = (0..16).map(StdRng::seed_from_u64).collect();
    let before = arena_metrics();
    let samples = sampler
        .sample_groups(groups, &Bindings::new(), &mut rngs)
        .expect("super-batch failed");
    assert_eq!(samples.len(), 16);
    assert_eq!(arena_metrics().since(&before).takes, 0);
}
