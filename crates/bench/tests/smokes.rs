//! The traced smokes of `gsample` and `gsampler-serve`, in process: the
//! runs those bins make, through the library functions they are thin over,
//! with tracing on and the trace read by [`gsampler_obs::check_trace`].
//! Each run must leave at least one event in every layer it touches and
//! the events that prove what it did (a fault fired, the ladder stepped, a
//! deadline stopped the epoch, a pack was formed).
//!
//! Tracing and the fault plane are process-global, so every test holds
//! [`GLOBAL`] for its whole run, and runs at pool width 2 so `pool` regions
//! and the worker-panic fault fire on any host.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use gsampler_algos::Hyper;
use gsampler_bench::{build_gsampler, dataset, gsampler_epoch, Algo, EpochEstimate};
use gsampler_core::{cancel, CancelToken, DeviceProfile, Error, OptConfig, Result};
use gsampler_engine::faults::{self, FaultSpec};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::NodeId;
use gsampler_obs::json::Json;
use gsampler_obs::{check_trace, TraceCounts};
use gsampler_serve::{EpochServer, ServeConfig, TenantSpec};

/// Held by every test: tracing, the fault plane and the pool width are
/// process-global.
static GLOBAL: Mutex<()> = Mutex::new(());

/// Run `f` at pool width 2 with a fresh trace recording; return its output
/// and the trace.
fn traced<T>(f: impl FnOnce() -> T) -> (T, String) {
    let _global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var("GSAMPLER_THREADS").ok();
    std::env::set_var("GSAMPLER_THREADS", "2");
    gsampler_obs::reset();
    gsampler_obs::enable();
    let out = f();
    gsampler_obs::disable();
    match saved {
        Some(v) => std::env::set_var("GSAMPLER_THREADS", v),
        None => std::env::remove_var("GSAMPLER_THREADS"),
    }
    (out, gsampler_obs::export_chrome_trace())
}

/// `trace` checked to hold `categories` and `events`.
fn check(trace: &str, categories: &[&str], events: &[&str]) -> TraceCounts {
    check_trace(trace, categories, events).unwrap_or_else(|e| panic!("{e}"))
}

/// One `gsample <algo> --dataset <kind> --scale <scale>` epoch (batch 512,
/// two layers, auto super-batching, default recovery), under a
/// `--deadline-ms` token when `deadline` is given.
fn gsample(
    algo: Algo,
    kind: DatasetKind,
    scale: f64,
    deadline: Option<Duration>,
) -> Result<EpochEstimate> {
    let d = dataset(kind, scale);
    let graph = Arc::new(d.graph);
    let mut h = Hyper::paper();
    h.batch_size = 512;
    h.layers = 2;
    let device = DeviceProfile::v100();
    let sampler = build_gsampler(&graph, algo, &h, device, OptConfig::all(), true)?;
    let _deadline = deadline.map(|d| cancel::scope(CancelToken::with_deadline(d)));
    gsampler_epoch(&sampler, &graph, algo, &d.frontiers, &h)
}

#[test]
fn traced_epoch_reaches_every_layer() {
    // IR passes, kernel dispatch, worker-pool regions and planner
    // decisions, plus a metrics snapshot.
    let (epoch, trace) = traced(|| gsample(Algo::GraphSage, DatasetKind::OgbnProducts, 0.05, None));
    epoch.expect("traced epoch");
    check(&trace, &["pass", "kernel", "pool", "plan"], &[]);
    let metrics = Json::parse(&gsampler_obs::metrics_json()).expect("metrics parse");
    assert!(
        metrics.as_obj().is_some_and(|m| !m.is_empty()),
        "empty metrics"
    );
}

#[test]
fn chaos_epoch_recovers_and_leaves_its_post_mortem() {
    // A device-OOM, a transient kernel fault and a worker panic inside a
    // generous deadline: the epoch recovers, and the trace holds every
    // fire, the armed deadline and the ladder's factor step (the
    // memory-pressure recovery walked it).
    let spec = FaultSpec::parse("seed=3;oom:at=2;kernel:at=5;worker-panic:at=1").unwrap();
    let (epoch, trace) = traced(|| {
        faults::install(spec);
        let deadline = Some(Duration::from_secs(30));
        let epoch = gsample(Algo::GraphSage, DatasetKind::OgbnProducts, 0.05, deadline);
        faults::clear();
        epoch
    });
    epoch.expect("the chaos epoch recovers");
    check(
        &trace,
        &["pass", "kernel", "pool", "fault", "degrade"],
        &[
            "degrade/superbatch.factor",
            "fault/oom",
            "fault/kernel",
            "fault/worker.panic",
            "deadline/set",
        ],
    );
}

#[test]
fn missed_deadlines_stop_window_and_walk_epochs_with_their_trace() {
    // The deadline is the token in scope around the whole epoch, so it
    // stops the window loop (1 ms) and a walk epoch, which never reaches
    // it (0 ms: a walk epoch can finish inside 1 ms, and the first poll
    // fires on any host). Both leave the typed error and the same
    // post-mortem.
    for (algo, ms, layers) in [
        (Algo::GraphSage, 1, &["pass", "kernel", "pool"][..]),
        (Algo::DeepWalk, 0, &["pass", "kernel"][..]),
    ] {
        let deadline = Some(Duration::from_millis(ms));
        let (epoch, trace) = traced(|| gsample(algo, DatasetKind::OgbnProducts, 0.05, deadline));
        match epoch {
            Err(Error::DeadlineExceeded { .. }) => {}
            other => panic!("{} inside {ms} ms: {other:?}", algo.name()),
        }
        check(&trace, layers, &["deadline/set", "deadline/exceeded"]);
    }
}

#[test]
fn partially_resident_epoch_traces_its_cache() {
    // PP runs partially resident behind a degree-skew cache plan: the plan
    // and per-batch hit/miss counts observed at dispatch.
    let (epoch, trace) = traced(|| gsample(Algo::GraphSage, DatasetKind::OgbnPapers, 0.05, None));
    epoch.expect("PP epoch");
    check(
        &trace,
        &["pass", "kernel", "pool", "cache"],
        &["cache/plan", "cache/batch"],
    );
}

#[test]
fn served_burst_packs_and_shares_one_compile() {
    // `gsampler-serve --dataset tiny --tenants 3 --requests 4 --batch 16`:
    // the burst is admitted, at least one cross-request super-batch is
    // packed, completions are recorded, and the tenants (one program)
    // share a compile through the server's plan database.
    let (tenants, requests, batch) = (3, 4, 16);
    let (done, trace) = traced(|| {
        let graph = Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, 17).graph);
        let nodes = graph.num_nodes();
        let config = ServeConfig {
            budget_bytes: 1024 << 20,
            max_pack: tenants,
            ..ServeConfig::default()
        };
        let server = EpochServer::start(graph, config);
        for i in 0..tenants {
            let spec = TenantSpec::graphsage(format!("tenant-{i}"), &[4, 4], 100 + i as u64);
            server.register(spec).expect("register");
        }
        let mut burst = Vec::new();
        for r in 0..requests {
            for i in 0..tenants {
                let seeds = (0..batch).map(|j| ((r * batch + j) % nodes) as NodeId);
                burst.push((format!("tenant-{i}"), seeds.collect(), r as u64));
            }
        }
        let tickets = server.submit_burst(burst);
        let done = tickets
            .into_iter()
            .map(|t| t.and_then(|t| t.wait()))
            .collect::<Vec<_>>();
        server.shutdown();
        done
    });
    assert_eq!(done.len(), tenants * requests);
    for reply in done {
        reply.expect("request completes");
    }
    check(
        &trace,
        &["pass", "kernel", "serve"],
        &[
            "serve/request",
            "serve/pack",
            "serve/complete",
            "plan/cache.hit",
        ],
    );
}
