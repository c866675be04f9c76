//! The server's recovery and deadline paths: a pack that fails splits
//! into one run per member whose replies still equal each tenant's solo
//! sample, a request submitted already expired is shed beside a live pack,
//! and a generous default deadline changes neither replies nor packing.
//!
//! Lives in its own test binary and holds
//! [`gsampler_testkit::chaos::chaos_lock`]: the fault plane is
//! process-global.

use std::sync::Arc;
use std::time::Duration;

use gsampler_core::{compile, Bindings, Graph, GraphSample, RecoveryPolicy, SamplerConfig, Value};
use gsampler_engine::faults::{self, FaultSpec};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::NodeId;
use gsampler_serve::{EpochServer, ServeConfig, ServeError, TenantSpec};
use gsampler_testkit::chaos::chaos_lock;
use gsampler_testkit::fingerprint;

const TENANTS: u64 = 4;

fn fp(sample: &GraphSample) -> u64 {
    let flat: Vec<Value> = sample.layers.iter().flatten().cloned().collect();
    fingerprint::of_values(&flat)
}

fn graph() -> Arc<Graph> {
    Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, 3).graph)
}

fn spec(t: u64) -> TenantSpec {
    let mut spec = TenantSpec::graphsage(format!("tenant-{t}"), &[4, 4], 100 + t);
    spec.batch_size = 32;
    spec
}

fn request(t: u64, n: usize) -> (String, Vec<NodeId>, u64) {
    let seeds = (0..24u64)
        .map(|j| ((t * 97 + j * 7) % n as u64) as NodeId)
        .collect();
    (spec(t).name, seeds, t)
}

/// Every tenant's reply from its own private sampler, no server involved.
fn solo(graph: &Arc<Graph>) -> Vec<u64> {
    (0..TENANTS)
        .map(|t| {
            let spec = spec(t);
            let config = SamplerConfig {
                seed: spec.seed,
                batch_size: spec.batch_size,
                ..SamplerConfig::new()
            };
            let sampler = compile(Arc::clone(graph), spec.algorithm.layers(), config).unwrap();
            let (_, seeds, stream) = request(t, graph.num_nodes());
            let sample = sampler.sample_batch_seeded(&seeds, &Bindings::new(), stream);
            fp(&sample.expect("solo sample"))
        })
        .collect()
}

fn server(graph: &Arc<Graph>, config: ServeConfig) -> EpochServer {
    let server = EpochServer::start(Arc::clone(graph), config);
    for t in 0..TENANTS {
        server.register(spec(t)).expect("register");
    }
    server
}

/// Submit one request per tenant as one burst and wait for every reply.
fn burst(server: &EpochServer, graph: &Graph) -> Vec<u64> {
    let requests = (0..TENANTS)
        .map(|t| request(t, graph.num_nodes()))
        .collect();
    (server.submit_burst(requests).into_iter())
        .map(|ticket| fp(&ticket.and_then(|t| t.wait()).expect("served sample")))
        .collect()
}

#[test]
fn a_pack_whose_first_kernel_faults_falls_to_solo_runs_that_match_solo() {
    let _guard = chaos_lock();
    let graph = graph();
    let want = solo(&graph);
    let recovery = RecoveryPolicy {
        max_retries: 0,
        ..RecoveryPolicy::default()
    };
    let server = server(
        &graph,
        ServeConfig {
            recovery,
            ..ServeConfig::default()
        },
    );
    faults::install(FaultSpec::parse("kernel:at=1").unwrap());
    let got = burst(&server, &graph);
    assert_eq!(
        faults::injected().kernel,
        1,
        "the pack's first kernel faults"
    );
    faults::clear();
    assert_eq!(got, want, "every member's reply equals its solo sample");
    let metrics = server.snapshot().metrics;
    assert_eq!(metrics.completed(), TENANTS);
    assert_eq!(metrics.batched(), 0, "every member was served alone");
}

#[test]
fn an_expired_request_is_shed_beside_a_live_pack() {
    let _guard = chaos_lock();
    let graph = graph();
    let want = solo(&graph);
    let server = server(&graph, ServeConfig::default());
    let (tenant, seeds, stream) = request(0, graph.num_nodes());
    let late = server
        .submit_with_deadline(&tenant, seeds, stream, Some(Duration::ZERO))
        .expect("admitted");
    let got = burst(&server, &graph);
    assert!(
        matches!(late.wait(), Err(ServeError::DeadlineExceeded { .. })),
        "a zero deadline expires before the request runs"
    );
    assert_eq!(
        got, want,
        "the co-tenants' replies equal their solo samples"
    );
    let snap = server.snapshot();
    assert_eq!(snap.metrics.shed(), 1);
    assert_eq!(snap.metrics.completed(), TENANTS);
    assert_eq!(snap.reserved_bytes, 0, "every reservation is released");
}

#[test]
fn a_generous_default_deadline_changes_neither_replies_nor_packing() {
    let _guard = chaos_lock();
    let graph = graph();
    let run = |default_deadline| {
        let server = server(
            &graph,
            ServeConfig {
                default_deadline,
                ..ServeConfig::default()
            },
        );
        let replies = burst(&server, &graph);
        (replies, server.snapshot().metrics.batched())
    };
    let unbounded = run(None);
    assert_eq!(unbounded.1, TENANTS, "the burst is served as one pack");
    assert_eq!(run(Some(Duration::from_secs(3600))), unbounded);
}
