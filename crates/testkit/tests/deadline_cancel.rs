//! Deadline-plane tests: a worker-side transient failure must be retried
//! bit-identically by every algorithm, epoch deadlines must fail cleanly
//! (and generous ones must be invisible), every entry point must obey the
//! caller's scoped token (`cancel::scope`, the one way to stop a run), and
//! a mid-epoch cancellation
//! must leave the worker pool and batch arenas reusable — the next clean
//! run is bit-identical and allocation-free at steady state. See
//! `DESIGN.md` §14.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use gsampler_algos::drivers::{run_walk_batch, run_walk_epoch, run_walk_epoch_with};
use gsampler_core::{cancel, compile, Bindings, CancelToken, OptConfig, Sampler};
use gsampler_runtime::arena_metrics;
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
    gsampler_algos::algorithm(algo, h)
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
    // worker, and the retry draws with the same keys — so recovery must
    // be invisible and deterministic across reruns.
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
    let sampler = compile(
        graph,
        layers_of(&h, "GraphSAGE"),
        sampler_config(OptConfig::all(), 11, 8),
    )
    .unwrap();
    let (prints, report) = {
        let _scope = cancel::scope(CancelToken::with_deadline(Duration::ZERO));
        epoch_prints(&sampler, &seeds)
    };
    let err = report.expect_err("a zero deadline must fail the epoch");
    assert!(err.is_deadline() && err.is_cancelled(), "got: {err}");
    assert!(
        prints.is_empty(),
        "no batch may be delivered past an expired deadline"
    );

    // A generous deadline changes nothing: same outputs as no deadline,
    // bit for bit (the token is polled but never fires).
    let (clean, report) = epoch_prints(&sampler, &seeds);
    report.expect("clean epoch");
    let (armed, report) = {
        let _scope = cancel::scope(CancelToken::with_deadline(Duration::from_secs(3600)));
        epoch_prints(&sampler, &seeds)
    };
    report.expect("generous deadline epoch");
    assert_eq!(clean, armed, "a live (unfired) deadline must be invisible");
}

#[test]
fn an_installed_token_stops_every_entry_point() {
    let _g = chaos_lock();
    let spec = GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 48,
        edges: 200,
        weighted: true,
        self_loops: true,
        duplicate_edges: true,
        dangling: false,
        seed: 0x5C0E,
    };
    let graph = spec.build();
    let h = gsampler_algos::Hyper {
        batch_size: 8,
        ..oracle_hyper()
    };
    let seeds: Vec<u32> = (0..32).map(|i| i % graph.num_nodes() as u32).collect();
    let compiled = |algo| {
        let config = sampler_config(OptConfig::all(), 11, h.batch_size);
        compile(graph.clone(), layers_of(&h, algo), config).unwrap()
    };
    let (sage, walk) = (compiled("GraphSAGE"), compiled("DeepWalk"));
    let bindings = Bindings::new();
    let entry_points = || -> Vec<(&str, gsampler_core::Result<()>)> {
        let groups = vec![seeds[..8].to_vec(), seeds[8..16].to_vec()];
        let keys = [sage.key(0), sage.key(1)];
        vec![
            (
                "sample_batch",
                sage.sample_batch(&seeds[..8], &bindings).map(drop),
            ),
            (
                "sample_groups",
                sage.sample_groups(groups, &bindings, &keys).map(drop),
            ),
            ("run_epoch", sage.run_epoch(&seeds, &bindings, 0).map(drop)),
            (
                "run_walk_batch",
                run_walk_batch(&walk, &seeds[..8], h.walk_length, false, 0.0, 0).map(drop),
            ),
            (
                "run_walk_epoch",
                run_walk_epoch(&walk, &seeds, &h, false, 0).map(drop),
            ),
        ]
    };

    let cancelled = CancelToken::new();
    cancelled.cancel();
    for (token, deadline) in [
        (CancelToken::with_deadline(Duration::ZERO), true),
        (cancelled, false),
    ] {
        let _scope = cancel::scope(token);
        for (name, result) in entry_points() {
            let err = result.expect_err(name);
            assert!(
                err.is_cancelled() && err.is_deadline() == deadline,
                "{name}: got {err}"
            );
        }
    }

    // Once the scope drops, the stopped samplers run clean epochs.
    let walk_traces = |sampler: &Sampler| {
        let mut traces = Vec::new();
        run_walk_epoch_with(sampler, &seeds, &h, false, 0, |_, t| {
            traces.push(t.positions)
        })
        .expect("walk epoch after the scope");
        traces
    };
    assert_eq!(
        epoch_prints(&sage, &seeds).0,
        epoch_prints(&compiled("GraphSAGE"), &seeds).0
    );
    assert_eq!(walk_traces(&walk), walk_traces(&compiled("DeepWalk")));
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
    let cancel_sampler = compile(
        graph.clone(),
        layers_of(&h, "GraphSAGE"),
        sampler_config(OptConfig::all(), 11, 8),
    )
    .unwrap();
    let mut prints: Vec<u64> = Vec::new();
    let result = {
        let _scope = cancel::scope(token.clone());
        cancel_sampler.run_epoch_with(&seeds, &Bindings::new(), 0, |idx, sample| {
            let mut hasher = DefaultHasher::new();
            (idx, format!("{:?}", sample.layers)).hash(&mut hasher);
            prints.push(hasher.finish());
            if idx == 0 {
                token.cancel();
            }
        })
    };
    let err = result.expect_err("a cancelled epoch must not complete");
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
    let walk_epoch = |token: Option<CancelToken>| {
        let config = sampler_config(OptConfig::all(), 11, h.batch_size);
        let sampler = compile(graph.clone(), layers_of(&h, "DeepWalk"), config).unwrap();
        let _scope = token.clone().map(cancel::scope);
        let mut traces: Vec<Vec<Vec<u32>>> = Vec::new();
        let result = run_walk_epoch_with(&sampler, &seeds, &h, false, 0, |idx, trace| {
            traces.push(trace.positions);
            if let (0, Some(token)) = (idx, &token) {
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
