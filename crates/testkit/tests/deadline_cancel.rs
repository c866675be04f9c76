//! Deadline-plane tests: a worker-side transient failure must be retried
//! bit-identically by every algorithm, epoch deadlines must fail cleanly
//! (and generous ones must be invisible), and a mid-epoch cancellation
//! must leave the worker pool and batch arenas reusable — the next clean
//! run is bit-identical and allocation-free at steady state. See
//! `DESIGN.md` §14.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use gsampler_algos::drivers::run_walk_epoch_with;
use gsampler_core::{compile, Bindings, OptConfig, Sampler};
use gsampler_runtime::{arena_metrics, CancelToken};
use gsampler_testkit::chaos::{chaos_lock, run_schedule};
use gsampler_testkit::drive::sampler_config;
use gsampler_testkit::gen::{GraphSpec, Topology};
use gsampler_testkit::oracle::oracle_hyper;

/// Big enough that kernels cross the parallelism gate and dispatch pool
/// regions (an injected worker panic only fires at a worker site).
fn pool_heavy_spec() -> GraphSpec {
    GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 600,
        edges: 30_000,
        weighted: true,
        self_loops: false,
        duplicate_edges: true,
        dangling: false,
        seed: 0x6EA1,
    }
}

fn layers_of(h: &gsampler_algos::Hyper, algo: &str) -> Vec<gsampler_core::builder::Layer> {
    gsampler_algos::all_algorithms(h)
        .into_iter()
        .find(|s| s.name == algo)
        .expect("algorithm is registered")
        .layers
}

/// Run one epoch collecting a per-batch hash of every sample.
fn epoch_prints(
    sampler: &Sampler,
    seeds: &[u32],
) -> (Vec<u64>, gsampler_core::Result<gsampler_core::EpochReport>) {
    let mut prints: Vec<u64> = Vec::new();
    let report = sampler.run_epoch_with(seeds, &Bindings::new(), 0, |idx, sample| {
        let mut hasher = DefaultHasher::new();
        (idx, format!("{:?}", sample.layers)).hash(&mut hasher);
        prints.push(hasher.finish());
    });
    (prints, report)
}

#[test]
fn worker_panic_schedule_is_transparent_across_all_algorithms() {
    if gsampler_runtime::num_threads() < 2 {
        return; // no pool regions (and thus no worker sites) without workers
    }
    let _g = chaos_lock();
    let spec = pool_heavy_spec();
    let graph = spec.build();
    let frontiers = spec.frontiers(64);
    let h = oracle_hyper();
    // A worker panic at the first worker site of every drive: the share
    // fails its region as a typed `PoolError`, the pool respawns the
    // worker, and the retry restores the RNG checkpoint — so recovery
    // must be invisible and deterministic across reruns.
    let reports = run_schedule(&graph, &h, "seed=2;worker-panic:at=1", 3, &frontiers)
        .expect("every algorithm must absorb an injected worker panic");
    assert_eq!(reports.len(), 15, "all registry algorithms must be driven");
    let mut fired = 0u64;
    for r in &reports {
        assert!(
            r.transparent(),
            "{}: worker-panic recovery must be invisible (clean {:#x}, faulted {:#x}, rerun {:#x})",
            r.algo,
            r.clean,
            r.faulted,
            r.rerun
        );
        if r.injected.worker_sites >= 1 {
            assert_eq!(
                r.injected.worker_panic, 1,
                "{}: the scheduled panic must have fired exactly once: {:?}",
                r.algo, r.injected
            );
            fired += 1;
        }
    }
    assert!(
        fired >= 1,
        "no algorithm dispatched a pool region — the panic schedule never fired"
    );
}

#[test]
fn epoch_deadline_fails_cleanly_and_a_generous_one_is_invisible() {
    let _g = chaos_lock();
    let spec = GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 48,
        edges: 200,
        weighted: true,
        self_loops: true,
        duplicate_edges: true,
        dangling: false,
        seed: 0xD3AD,
    };
    let graph = spec.build();
    let h = oracle_hyper();
    let seeds: Vec<u32> = (0..32).map(|i| i % graph.num_nodes() as u32).collect();

    // An already-expired deadline: the epoch stops at the first check
    // point with the typed error, before producing anything.
    let mut config = sampler_config(OptConfig::all(), 11, 8);
    config.deadline = Some(Duration::ZERO);
    let sampler = compile(graph.clone(), layers_of(&h, "GraphSAGE"), config).unwrap();
    let (prints, report) = epoch_prints(&sampler, &seeds);
    let err = report.expect_err("a zero deadline must fail the epoch");
    assert!(err.is_deadline() && err.is_cancelled(), "got: {err}");
    assert!(
        prints.is_empty(),
        "no batch may be delivered past an expired deadline"
    );

    // A generous deadline changes nothing: same outputs as no deadline,
    // bit for bit (the armed token is polled but never fires).
    let no_deadline = compile(
        graph.clone(),
        layers_of(&h, "GraphSAGE"),
        sampler_config(OptConfig::all(), 11, 8),
    )
    .unwrap();
    let (clean, report) = epoch_prints(&no_deadline, &seeds);
    report.expect("clean epoch");
    let mut config = sampler_config(OptConfig::all(), 11, 8);
    config.deadline = Some(Duration::from_secs(3600));
    let generous = compile(graph, layers_of(&h, "GraphSAGE"), config).unwrap();
    let (armed, report) = epoch_prints(&generous, &seeds);
    let report = report.expect("generous deadline epoch");
    assert_eq!(clean, armed, "a live (unfired) deadline must be invisible");
    assert_eq!(report.faults.deadline_shed_retries, 0);
}

#[test]
fn mid_epoch_cancel_leaves_pool_and_arenas_reusable() {
    let _g = chaos_lock();
    let spec = GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 48,
        edges: 220,
        weighted: true,
        self_loops: true,
        duplicate_edges: true,
        dangling: false,
        seed: 0xCA9CE1,
    };
    let graph = spec.build();
    let h = oracle_hyper();
    let seeds: Vec<u32> = (0..32).map(|i| i % graph.num_nodes() as u32).collect();

    // Warm to arena steady state with a clean sampler.
    let clean_sampler = compile(
        graph.clone(),
        layers_of(&h, "GraphSAGE"),
        sampler_config(OptConfig::all(), 11, 8),
    )
    .unwrap();
    let (clean, report) = epoch_prints(&clean_sampler, &seeds);
    report.expect("clean epoch");
    let (warm, report) = epoch_prints(&clean_sampler, &seeds);
    report.expect("warm epoch");
    assert_eq!(clean, warm, "warm-up epochs must agree");
    assert!(
        clean.len() >= 2,
        "need at least two batches to cancel between"
    );

    // Cancel from inside the consume callback after the first batch: the
    // epoch must stop at the next window boundary with the typed error,
    // and the batches it did deliver are a bit-identical prefix of the
    // clean run (cancellation never perturbs sampling).
    let token = CancelToken::new();
    let mut config = sampler_config(OptConfig::all(), 11, 8);
    config.cancel = Some(token.clone());
    let cancel_sampler = compile(graph.clone(), layers_of(&h, "GraphSAGE"), config).unwrap();
    let mut prints: Vec<u64> = Vec::new();
    let err = cancel_sampler
        .run_epoch_with(&seeds, &Bindings::new(), 0, |idx, sample| {
            let mut hasher = DefaultHasher::new();
            (idx, format!("{:?}", sample.layers)).hash(&mut hasher);
            prints.push(hasher.finish());
            if idx == 0 {
                token.cancel();
            }
        })
        .expect_err("a cancelled epoch must not complete");
    assert!(err.is_cancelled() && !err.is_deadline(), "got: {err}");
    assert!(
        !prints.is_empty() && prints.len() < clean.len(),
        "cancellation after batch 0 must stop the epoch mid-way ({}/{})",
        prints.len(),
        clean.len()
    );
    assert_eq!(
        prints[..],
        clean[..prints.len()],
        "delivered prefix must be bit-identical to the clean run"
    );

    // Walk epochs run on the same epoch driver, so they stop the same way:
    // cancelled after batch 0, the delivered traces are a prefix of the
    // clean walk epoch's.
    let h = gsampler_algos::Hyper { batch_size: 8, ..h };
    let walk_epoch = |cancel: Option<CancelToken>| {
        let mut config = sampler_config(OptConfig::all(), 11, h.batch_size);
        config.cancel = cancel.clone();
        let sampler = compile(graph.clone(), layers_of(&h, "DeepWalk"), config).unwrap();
        let mut traces: Vec<Vec<Vec<u32>>> = Vec::new();
        let result = run_walk_epoch_with(&sampler, &seeds, &h, false, 0, |idx, trace| {
            traces.push(trace.positions);
            if let (0, Some(token)) = (idx, &cancel) {
                token.cancel();
            }
        });
        (traces, result)
    };
    let (clean_walks, report) = walk_epoch(None);
    assert_eq!(report.expect("clean walk epoch").batches, clean.len());
    let (walks, result) = walk_epoch(Some(CancelToken::new()));
    let err = result.expect_err("a cancelled walk epoch must not complete");
    assert!(err.is_cancelled() && !err.is_deadline(), "got: {err}");
    assert!(!walks.is_empty() && walks.len() < clean_walks.len());
    assert_eq!(walks[..], clean_walks[..walks.len()]);

    // The abandoned epoch left nothing behind: the next clean run is
    // bit-identical and allocation-free at steady state (every scratch
    // take is an arena hit — no buffer was leaked or poisoned).
    let before = arena_metrics();
    let (after_cancel, report) = epoch_prints(&clean_sampler, &seeds);
    report.expect("post-cancel epoch");
    let delta = arena_metrics().since(&before);
    assert_eq!(
        clean, after_cancel,
        "post-cancel epoch diverged — cancellation leaked state"
    );
    assert_eq!(
        delta.hits, delta.takes,
        "post-cancel epoch allocated fresh scratch: {delta:?}"
    );
}
