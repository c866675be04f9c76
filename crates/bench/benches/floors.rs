//! The two in-run ratio floors the repo benchmark (`benchmark/`) cannot
//! express, because each compares two code paths inside one process:
//!
//! - blocked SpMM >= 1.5x `spmm_baseline` on the PD preset at pool width 1;
//! - serve packing at 16 closed-loop tenants (LJ scale 0.25, batch 32):
//!   p99 with `batching: true` <= p99 with `batching: false`, with >= 50 %
//!   of the batching-on completions served from a pack.
//!
//! Exits non-zero when a floor breaks; writes nothing. `-- --self-test`
//! feeds the ratio check a synthetic 1.0x pair and must exit non-zero.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsampler_bench::dataset;
use gsampler_core::Graph;
use gsampler_engine::RngPool;
use gsampler_graphs::DatasetKind;
use gsampler_matrix::{spmm, NodeId, SparseMatrix};
use gsampler_serve::{EpochServer, ServeConfig, ServeError, TenantCounters, TenantSpec};
use rand::Rng;

const SPMM_FLOOR: f64 = 1.5;
const TENANTS: usize = 16;
const REQUESTS_PER_TENANT: usize = 24;
const BATCH: usize = 32;
/// A floor is judged on the best of this many rounds: one round can land
/// inside a degraded phase of a shared host, a real regression fails all.
const ROUNDS: usize = 3;

/// The one ratio check both floors and the self-test go through.
fn holds(what: &str, fast: f64, slow: f64, floor: f64) -> bool {
    let ratio = slow / fast.max(f64::MIN_POSITIVE);
    println!("{what}: {ratio:.2}x (floor {floor:.2}x)");
    ratio >= floor
}

/// Minimum wall seconds over `reps` runs: least noise on a shared host.
fn min_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Blocked SpMM vs the scalar reference on the full PD preset, adjacency
/// pre-converted to CSR so only the product kernel is timed. Each variant
/// runs its reps consecutively: alternating them lets every baseline rep
/// sweep the caches the blocked traversal depends on.
fn spmm_floor() -> bool {
    let d = dataset(DatasetKind::OgbnProducts, 1.0);
    let feats = d.graph.features.clone().expect("PD preset has features");
    let csr = SparseMatrix::Csr(d.graph.matrix.data.to_csr());
    std::env::set_var("GSAMPLER_THREADS", "1");
    let ok = (0..ROUNDS).any(|_| {
        let base = min_secs(9, || {
            black_box(spmm::spmm_baseline(black_box(&csr), &feats).unwrap());
        });
        let blocked = min_secs(9, || {
            black_box(spmm::spmm(black_box(&csr), &feats).unwrap());
        });
        holds("blocked spmm vs spmm_baseline", blocked, base, SPMM_FLOOR)
    });
    std::env::remove_var("GSAMPLER_THREADS");
    ok
}

/// One closed-loop round against a fresh server: `TENANTS` client threads
/// each keep exactly one request in flight. Returns the pooled p99 latency
/// in ms and the fraction of completions served from a pack.
fn serve_round(graph: &Arc<Graph>, batching: bool) -> (f64, f64) {
    let server = EpochServer::start(
        Arc::clone(graph),
        ServeConfig {
            batching,
            max_pack: TENANTS,
            default_deadline: Some(Duration::from_secs(10)),
            ..ServeConfig::default()
        },
    );
    for i in 0..TENANTS {
        let mut spec = TenantSpec::graphsage(format!("tenant-{i}"), &[4, 4], 7 + i as u64);
        spec.batch_size = BATCH;
        server.register(spec).expect("register tenant");
    }
    let num_nodes = graph.num_nodes() as NodeId;
    std::thread::scope(|scope| {
        for i in 0..TENANTS {
            let server = &server;
            scope.spawn(move || {
                let tenant = format!("tenant-{i}");
                // Seed picks are a pure function of (tenant, request), so
                // both modes and every round offer the identical workload.
                let picks = RngPool::new(7 ^ 0x5eed_10adu64.rotate_left(i as u32));
                for r in 0..REQUESTS_PER_TENANT as u64 {
                    let mut rng = picks.stream(r);
                    let seeds: Vec<NodeId> =
                        (0..BATCH).map(|_| rng.gen_range(0..num_nodes)).collect();
                    while let Err(ServeError::Backpressure { .. }) =
                        server.request_sync(&tenant, seeds.clone(), r)
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            });
        }
    });
    let metrics = server.snapshot().metrics;
    server.shutdown();
    let completed = metrics.completed();
    assert_eq!(
        completed + metrics.deadline_missed(),
        (TENANTS * REQUESTS_PER_TENANT) as u64,
        "serve round (batching={batching}) lost requests"
    );
    // Pool every tenant's latencies and reuse the server's own estimator.
    let mut pooled = TenantCounters::default();
    for t in metrics.tenants.values() {
        pooled.latencies_us.extend_from_slice(&t.latencies_us);
    }
    let packed = metrics.batched() as f64 / completed.max(1) as f64;
    (pooled.p99_ms(), packed)
}

fn serve_floor() -> bool {
    let graph = Arc::new(dataset(DatasetKind::LiveJournal, 0.25).graph);
    let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
    (0..ROUNDS).any(|_| {
        let (off, _) = serve_round(&graph, false);
        let (on, packed) = serve_round(&graph, true);
        (best_on, best_off) = (best_on.min(on), best_off.min(off));
        println!("serve t{TENANTS}: {:.0}% packed", packed * 100.0);
        holds("serve p99 off vs on", best_on, best_off, 1.0) && packed >= 0.5
    })
}

fn main() {
    if std::env::args().any(|a| a == "--self-test") {
        // A 1.0x pair against the 1.5x floor must be refused.
        std::process::exit(i32::from(!holds("self-test", 1.0, 1.0, SPMM_FLOOR)));
    }
    let (spmm_ok, serve_ok) = (spmm_floor(), serve_floor());
    std::process::exit(i32::from(!(spmm_ok && serve_ok)));
}
