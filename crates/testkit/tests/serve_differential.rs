//! Serve-level differential oracle: for arbitrary tenant mixes, every
//! reply from the batching epoch server must be **fingerprint-identical**
//! to the sample the tenant would get running its own private sampler
//! solo — cross-request super-batching has to be bit-invisible.

use std::sync::Arc;

use gsampler_core::{compile, Bindings, Graph, GraphSample, OptConfig, SamplerConfig, Value};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::NodeId;
use gsampler_serve::{Algorithm, EpochServer, ServeConfig, TenantSpec};
use gsampler_testkit::fingerprint;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn flat(sample: &GraphSample) -> Vec<Value> {
    sample.layers.iter().flatten().cloned().collect()
}

fn fp(sample: &GraphSample) -> u64 {
    fingerprint::of_values(&flat(sample))
}

/// One tenant's worth of a randomized mix.
struct MixTenant {
    spec: TenantSpec,
    /// (seeds, stream) per request — request sizes are deliberately
    /// heterogeneous so the packer has to handle ragged groups.
    requests: Vec<(Vec<NodeId>, u64)>,
}

fn random_mix(rng: &mut StdRng, num_nodes: usize, mix_id: usize) -> Vec<MixTenant> {
    let tenant_count = rng.gen_range(2..=5usize);
    let fanout_menu: [&[usize]; 3] = [&[4, 4], &[3, 5], &[2, 2, 2]];
    (0..tenant_count)
        .map(|t| {
            let fanouts = fanout_menu[rng.gen_range(0..fanout_menu.len())].to_vec();
            let algorithm = if rng.gen_range(0..4u32) == 0 {
                Algorithm::VrGcn { fanouts }
            } else {
                Algorithm::GraphSage { fanouts }
            };
            let spec = TenantSpec {
                name: format!("mix{mix_id}-t{t}"),
                algorithm,
                seed: rng.gen::<u64>(),
                batch_size: *[16usize, 32].get(rng.gen_range(0..2usize)).unwrap(),
            };
            let requests = (0..rng.gen_range(1..=3usize))
                .map(|r| {
                    let cols = rng.gen_range(1..=48usize);
                    let seeds = (0..cols)
                        .map(|_| rng.gen_range(0..num_nodes as NodeId))
                        .collect();
                    (seeds, r as u64)
                })
                .collect();
            MixTenant { spec, requests }
        })
        .collect()
}

/// Reference: the tenant's own private sampler, no server involved.
fn solo_fingerprints(graph: &Arc<Graph>, tenant: &MixTenant) -> Vec<u64> {
    let sampler = compile(
        Arc::clone(graph),
        tenant.spec.algorithm.layers(),
        SamplerConfig {
            opt: OptConfig::all(),
            seed: tenant.spec.seed,
            batch_size: tenant.spec.batch_size,
            ..SamplerConfig::new()
        },
    )
    .expect("solo compile");
    tenant
        .requests
        .iter()
        .map(|(seeds, stream)| {
            fp(&sampler
                .sample_batch_seeded(seeds, &Bindings::new(), *stream)
                .expect("solo sample"))
        })
        .collect()
}

#[test]
fn super_batched_replies_match_serial_solo_runs_over_randomized_mixes() {
    let data = Dataset::generate(DatasetKind::Tiny, 1.0, 3);
    let graph = Arc::new(data.graph);
    let num_nodes = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(0x5e1_fe2);

    let mut total_requests = 0u64;
    let mut total_batched = 0u64;
    for mix_id in 0..50 {
        let mix = random_mix(&mut rng, num_nodes, mix_id);
        let server = EpochServer::start(
            Arc::clone(&graph),
            ServeConfig {
                batching: true,
                max_pack: 8,
                ..ServeConfig::default()
            },
        );
        for tenant in &mix {
            server.register(tenant.spec.clone()).expect("register");
        }
        // Submit everything as one atomic burst so the scheduler sees a
        // deep queue and deterministically packs across tenants.
        let mut burst = Vec::new();
        for tenant in &mix {
            for (seeds, stream) in &tenant.requests {
                burst.push((tenant.spec.name.clone(), seeds.clone(), *stream));
            }
        }
        let tickets: Vec<_> = server
            .submit_burst(burst)
            .into_iter()
            .map(|t| t.expect("submit"))
            .collect();
        let mut served: Vec<u64> = Vec::new();
        for ticket in tickets {
            served.push(fp(&ticket.wait().expect("served sample")));
        }
        let snap = server.snapshot();
        total_requests += snap.metrics.completed();
        total_batched += snap.metrics.batched();
        server.shutdown();

        let mut solo: Vec<u64> = Vec::new();
        for tenant in &mix {
            solo.extend(solo_fingerprints(&graph, tenant));
        }
        assert_eq!(
            served, solo,
            "mix {mix_id}: served fingerprints diverge from serial solo runs"
        );
    }
    // The suite must actually exercise the packed path, not pass
    // vacuously through solo fallbacks.
    assert!(
        total_batched > total_requests / 4,
        "too few packed completions ({total_batched} of {total_requests}): packing never engaged"
    );
}

#[test]
fn batching_off_server_also_matches_solo() {
    let data = Dataset::generate(DatasetKind::Tiny, 1.0, 3);
    let graph = Arc::new(data.graph);
    let num_nodes = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(0x000a_b5ee);

    let mix = random_mix(&mut rng, num_nodes, 99);
    let server = EpochServer::start(
        Arc::clone(&graph),
        ServeConfig {
            batching: false,
            ..ServeConfig::default()
        },
    );
    for tenant in &mix {
        server.register(tenant.spec.clone()).expect("register");
    }
    for tenant in &mix {
        let solo = solo_fingerprints(&graph, tenant);
        for ((seeds, stream), want) in tenant.requests.iter().zip(solo) {
            let got = fp(&server
                .request_sync(&tenant.spec.name, seeds.clone(), *stream)
                .expect("served sample"));
            assert_eq!(got, want, "{}: solo-mode serve diverged", tenant.spec.name);
        }
    }
    assert_eq!(server.snapshot().metrics.batched(), 0);
    server.shutdown();
}

/// Sixteen tenants of one program, each burst one request per tenant and
/// drained before the next: every request completes, and at least half of
/// the completions are served from a pack with batching on, none with it
/// off. Seeds are drawn from one fixed stream, so both modes see the same
/// requests.
#[test]
fn sixteen_tenant_bursts_pack_with_batching_on_and_never_off() {
    const TENANTS: usize = 16;
    const BURSTS: u64 = 4;
    let graph = Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, 3).graph);
    let num_nodes = graph.num_nodes() as NodeId;
    let packed_fraction = |batching: bool| {
        let server = EpochServer::start(
            Arc::clone(&graph),
            ServeConfig {
                batching,
                max_pack: TENANTS,
                ..ServeConfig::default()
            },
        );
        for i in 0..TENANTS {
            let mut spec = TenantSpec::graphsage(format!("tenant-{i}"), &[4, 4], 7 + i as u64);
            spec.batch_size = 32;
            server.register(spec).expect("register");
        }
        let mut rng = StdRng::seed_from_u64(0x5eed_10ad);
        for r in 0..BURSTS {
            let burst = (0..TENANTS)
                .map(|i| {
                    let seeds = (0..32).map(|_| rng.gen_range(0..num_nodes)).collect();
                    (format!("tenant-{i}"), seeds, r)
                })
                .collect();
            for ticket in server.submit_burst(burst) {
                ticket.and_then(|t| t.wait()).expect("serve request");
            }
        }
        let metrics = server.snapshot().metrics;
        server.shutdown();
        let completed = metrics.completed();
        assert_eq!(
            completed,
            BURSTS * TENANTS as u64,
            "batching={batching} lost requests"
        );
        metrics.batched() as f64 / completed as f64
    };
    assert_eq!(packed_fraction(false), 0.0);
    let on = packed_fraction(true);
    assert!(on >= 0.5, "only {:.0}% packed with batching on", on * 100.0);
}
