//! Concurrency and chaos stress tests for the epoch server: N client
//! threads hammering one server must never blur tenant boundaries —
//! plan-database counters stay consistent under contention, per-tenant
//! RNG streams never cross regardless of interleaving, and an injected
//! OOM against one tenant leaves every co-tenant bit-identical to the
//! fault-free run.
//!
//! Lives in its own test binary: the fault-plane tests hold
//! [`gsampler_testkit::chaos::chaos_lock`] (the plane is
//! process-global), and cargo gives each test binary its own process.

use std::sync::Arc;

use gsampler_core::{Bindings, GraphSample, PlanDb, RecoveryPolicy, Value};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::NodeId;
use gsampler_serve::{EpochServer, ServeConfig, ServeError, Session, TenantSpec};
use gsampler_testkit::chaos::chaos_lock;
use gsampler_testkit::fingerprint;

fn fp(sample: &GraphSample) -> u64 {
    let flat: Vec<Value> = sample.layers.iter().flatten().cloned().collect();
    fingerprint::of_values(&flat)
}

fn tiny_graph() -> Arc<gsampler_core::Graph> {
    Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, 3).graph)
}

fn seeds_for(tenant: u64, request: u64, n: usize) -> Vec<NodeId> {
    (0..24u64)
        .map(|j| ((tenant * 97 + request * 31 + j * 7) % n as u64) as NodeId)
        .collect()
}

#[test]
fn plan_db_counters_stay_consistent_under_concurrent_registration() {
    let graph = tiny_graph();
    let server = Arc::new(EpochServer::start(graph, ServeConfig::default()));
    let threads = 8usize;
    let per_thread = 4usize;
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    server
                        .register(TenantSpec::graphsage(
                            format!("t{t}-{i}"),
                            &[4, 4],
                            (t * per_thread + i) as u64,
                        ))
                        .expect("register under contention");
                }
            });
        }
    });
    let stats = server.snapshot().plan_db;
    let total = (threads * per_thread) as u64;
    // Every compile does exactly one plan lookup; no lost updates under
    // contention. Several first-touch racers may all miss the same key
    // before any of them inserts, so misses can exceed the single
    // distinct program — but hits + misses must account for every compile.
    assert_eq!(
        stats.hits + stats.misses,
        total,
        "plan-db lookups lost or double-counted under contention: {stats:?}"
    );
    assert!(stats.misses >= 1, "same-program compiles never missed cold");
    assert!(
        stats.hits > 0,
        "same-program compiles never hit the shared plan db: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn duplicate_registration_is_rejected_once_under_race() {
    let graph = tiny_graph();
    let server = Arc::new(EpochServer::start(graph, ServeConfig::default()));
    let threads = 8usize;
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let wins: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    server
                        .register(TenantSpec::graphsage("contested", &[4, 4], t as u64))
                        .is_ok()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        wins.iter().filter(|&&w| w).count(),
        1,
        "exactly one racer may claim a tenant name"
    );
    server.shutdown();
}

/// Serve `tenant`'s fixed request sequence while `noise` co-tenant
/// threads hammer the same server, and return the tenant's fingerprints.
fn serve_with_noise(noise: usize, batching: bool) -> Vec<u64> {
    let graph = tiny_graph();
    let n = graph.num_nodes();
    let server = Arc::new(EpochServer::start(
        graph,
        ServeConfig {
            batching,
            ..ServeConfig::default()
        },
    ));
    server
        .register(TenantSpec::graphsage("alice", &[4, 4], 42))
        .unwrap();
    for i in 0..noise {
        server
            .register(TenantSpec::graphsage(
                format!("noise-{i}"),
                &[4, 4],
                1000 + i as u64,
            ))
            .unwrap();
    }
    std::thread::scope(|scope| {
        for i in 0..noise {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let name = format!("noise-{i}");
                for r in 0..6u64 {
                    let seeds = seeds_for(i as u64, r, n);
                    let _ = server.request_sync(&name, seeds, r);
                }
            });
        }
        let server = Arc::clone(&server);
        let handle = scope.spawn(move || {
            (0..6u64)
                .map(|r| {
                    let seeds = seeds_for(999, r, n);
                    fp(&server
                        .request_sync("alice", seeds, r)
                        .expect("alice request"))
                })
                .collect::<Vec<u64>>()
        });
        handle.join().unwrap()
    })
}

#[test]
fn same_tenant_seed_yields_same_output_regardless_of_interleaving() {
    // Alice's outputs are a pure function of (her seed, her streams):
    // co-tenant count, batching mode, and thread interleavings must all
    // be invisible.
    let alone = serve_with_noise(0, true);
    for trial in 0..3 {
        let crowded = serve_with_noise(7, true);
        assert_eq!(
            alone, crowded,
            "trial {trial}: co-tenant load bled into alice's RNG"
        );
    }
    let solo_mode = serve_with_noise(7, false);
    assert_eq!(alone, solo_mode, "batching mode changed alice's output");
}

struct ChaosRun {
    victim: Result<u64, ServeError>,
    cotenants: Vec<u64>,
    victim_quarantined: bool,
}

/// Run three tenants with the victim's first request optionally faulted.
fn chaos_run(fault: Option<&str>, recovery: RecoveryPolicy) -> ChaosRun {
    let graph = tiny_graph();
    let n = graph.num_nodes();
    let server = EpochServer::start(
        graph,
        ServeConfig {
            recovery,
            ..ServeConfig::default()
        },
    );
    server
        .register(TenantSpec::graphsage("victim", &[4, 4], 7))
        .unwrap();
    server
        .register(TenantSpec::graphsage("bob", &[4, 4], 8))
        .unwrap();
    server
        .register(TenantSpec::graphsage("carol", &[3, 5], 9))
        .unwrap();
    if let Some(spec) = fault {
        server.inject_fault("victim", spec).unwrap();
    }
    let victim_ticket = server
        .submit("victim", seeds_for(1, 0, n), 0)
        .expect("victim admitted");
    let mut cotenant_tickets = Vec::new();
    for (t, name) in ["bob", "carol"].iter().enumerate() {
        for r in 0..4u64 {
            cotenant_tickets.push(
                server
                    .submit(name, seeds_for(t as u64 + 2, r, n), r)
                    .expect("co-tenant admitted"),
            );
        }
    }
    let victim = victim_ticket.wait().map(|s| fp(&s));
    let cotenants: Vec<u64> = cotenant_tickets
        .into_iter()
        .map(|t| fp(&t.wait().expect("co-tenant reply")))
        .collect();
    // Probe quarantine state; if the probe is admitted, wait it out so
    // its reservation is released before the baseline check below.
    let victim_quarantined = match server.submit("victim", seeds_for(1, 9, n), 9) {
        Err(ServeError::TenantQuarantined(_)) => true,
        Ok(ticket) => {
            let _ = ticket.wait();
            false
        }
        Err(other) => panic!("unexpected probe failure: {other}"),
    };
    assert_eq!(server.snapshot().reserved_bytes, 0, "reservations leaked");
    server.shutdown();
    ChaosRun {
        victim,
        cotenants,
        victim_quarantined,
    }
}

#[test]
fn injected_oom_quarantines_only_the_victim() {
    let _guard = chaos_lock();
    let strict = RecoveryPolicy {
        max_retries: 0,
        allow_degrade: false,
        quarantine: true,
    };
    let clean = chaos_run(None, strict.clone());
    let faulted = chaos_run(Some("oom:at=1"), strict);

    assert!(clean.victim.is_ok() && !clean.victim_quarantined);
    assert!(
        matches!(faulted.victim, Err(ServeError::Execution(_))),
        "strict policy must surface the injected OOM: {:?}",
        faulted.victim
    );
    assert!(
        faulted.victim_quarantined,
        "victim must be quarantined after recovery is exhausted"
    );
    assert_eq!(
        clean.cotenants, faulted.cotenants,
        "one tenant's OOM changed a co-tenant's bits"
    );
}

#[test]
fn injected_oom_under_degrade_policy_is_bit_transparent() {
    let _guard = chaos_lock();
    let lenient = RecoveryPolicy {
        max_retries: 2,
        allow_degrade: true,
        quarantine: false,
    };
    let clean = chaos_run(None, lenient.clone());
    let faulted = chaos_run(Some("oom:at=1"), lenient);

    // Recovery (retry, then the spill ladder) absorbs the fault without
    // changing a single sampled bit — for the victim too.
    assert_eq!(
        clean.victim.as_ref().ok(),
        faulted.victim.as_ref().ok(),
        "degrade recovery must be bit-transparent for the victim"
    );
    assert!(
        faulted.victim.is_ok(),
        "lenient policy should absorb the OOM"
    );
    assert!(!faulted.victim_quarantined);
    assert_eq!(clean.cotenants, faulted.cotenants);
}

#[test]
fn a_tenant_sessions_stats_do_not_grow_with_its_requests() {
    let _guard = chaos_lock();
    // The server never resets a tenant's device session, so what a launch
    // leaves behind must be bounded by the program, not the request count.
    let graph = tiny_graph();
    let n = graph.num_nodes();
    let spec = TenantSpec::graphsage("long-lived", &[4, 4], 11);
    let session = Session::compile(
        graph,
        Arc::new(PlanDb::in_memory()),
        spec,
        &ServeConfig::default(),
    )
    .unwrap();
    let serve = |requests: std::ops::Range<u64>| {
        for r in requests {
            // A lone request's run, then a two-request pack's.
            let solo =
                session
                    .sampler
                    .sample_batch_seeded(&seeds_for(0, r, n), &Bindings::new(), r);
            solo.expect("solo request");
            let keys = [session.sampler.key(r), session.sampler.key(r + 1)];
            let groups = vec![seeds_for(1, r, n), seeds_for(2, r, n)];
            let packed = session
                .sampler
                .sample_groups(groups, &Bindings::new(), &keys);
            packed.expect("packed request");
        }
        session.sampler.device().stats()
    };
    let early = serve(0..2);
    let late = serve(2..200);
    assert!(late.kernel_launches >= 50 * early.kernel_launches);
    assert_eq!(late.per_kernel.len(), early.per_kernel.len());
}
