//! Chaos tests: seeded fault schedules driven through the registered
//! algorithms must recover, stay bit-identical across reruns, and report
//! exactly what the schedule injected. See `DESIGN.md` §9.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use gsampler_core::{Bindings, OptConfig};
use gsampler_engine::faults::{self, FaultSpec};
use gsampler_testkit::chaos::{chaos_lock, drive_fingerprint, run_schedule};
use gsampler_testkit::drive::compile_algorithm;
use gsampler_testkit::gen::{GraphSpec, Topology};
use gsampler_testkit::oracle::oracle_hyper;

fn adversarial_spec() -> GraphSpec {
    GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 48,
        edges: 200,
        weighted: true,
        self_loops: true,
        duplicate_edges: true,
        dangling: false,
        seed: 0xC7A05,
    }
}

#[test]
fn kernel_schedule_is_transparent_across_all_algorithms() {
    let _g = chaos_lock();
    let spec = adversarial_spec();
    let graph = spec.build();
    let frontiers = spec.frontiers(8);
    let h = oracle_hyper();
    // count equals the policy's max_retries, so even if every fire lands
    // in one execution the retry budget still covers it.
    let reports = run_schedule(&graph, &h, "seed=5;kernel:every=3,count=3", 11, &frontiers)
        .expect("every algorithm must absorb the kernel schedule");
    assert_eq!(reports.len(), 15, "all registry algorithms must be driven");
    for r in &reports {
        assert!(
            r.transparent(),
            "{}: retried run must equal the clean run (clean {:#x}, faulted {:#x}, rerun {:#x})",
            r.algo,
            r.clean,
            r.faulted,
            r.rerun
        );
        assert!(
            r.injected.kernel <= 3,
            "{}: count cap violated: {:?}",
            r.algo,
            r.injected
        );
        if r.injected.kernel_sites >= 3 {
            assert!(
                r.injected.kernel >= 1,
                "{}: schedule should have fired at least once over {} dispatches",
                r.algo,
                r.injected.kernel_sites
            );
        }
    }
}

#[test]
fn oom_schedule_recovers_via_the_streaming_rung() {
    let _g = chaos_lock();
    let spec = adversarial_spec();
    let graph = spec.build();
    let frontiers = spec.frontiers(8);
    let h = oracle_hyper();
    let reports = run_schedule(&graph, &h, "oom:at=2", 11, &frontiers)
        .expect("every algorithm must absorb a one-shot OOM");
    for r in &reports {
        assert!(
            r.transparent(),
            "{}: streaming fallback must not change outputs",
            r.algo
        );
        assert_eq!(
            r.injected.oom, 1,
            "{}: exactly one OOM was scheduled: {:?}",
            r.algo, r.injected
        );
    }
}

#[test]
fn worker_schedule_heals_the_pool() {
    if gsampler_runtime::num_threads() < 2 {
        return; // no pool regions without at least two workers
    }
    let _g = chaos_lock();
    // Big enough that kernels cross the parallelism gate and actually
    // dispatch pool regions.
    let spec = GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 600,
        edges: 30_000,
        weighted: true,
        self_loops: false,
        duplicate_edges: true,
        dangling: false,
        seed: 0x6EA1,
    };
    let graph = spec.build();
    let frontiers = spec.frontiers(64);
    let h = oracle_hyper();
    let parsed = FaultSpec::parse("seed=11;worker-panic:at=1;worker-stall:at=2,ms=1").unwrap();
    for algo in ["GraphSAGE", "DeepWalk", "LADIES"] {
        faults::clear();
        let clean = drive_fingerprint(&graph, algo, &h, 3, &frontiers).unwrap();
        faults::install(parsed.clone());
        let faulted = drive_fingerprint(&graph, algo, &h, 3, &frontiers)
            .expect("a worker panic must be contained and retried");
        let injected = faults::injected();
        faults::install(parsed.clone());
        let rerun = drive_fingerprint(&graph, algo, &h, 3, &frontiers).unwrap();
        faults::clear();
        assert_eq!(
            clean, faulted,
            "{algo}: pool self-healing must be invisible"
        );
        assert_eq!(faulted, rerun, "{algo}: chaos reruns must agree");
        if injected.worker_sites >= 1 {
            assert_eq!(
                injected.worker_panic, 1,
                "{algo}: the scheduled panic must have fired: {injected:?}"
            );
        }
    }
}

#[test]
fn combined_schedule_matches_the_fault_report() {
    let _g = chaos_lock();
    let spec = adversarial_spec();
    let graph = spec.build();
    let h = oracle_hyper();
    let mut opt = OptConfig::all();
    opt.super_batch = 4;
    let config = gsampler_testkit::drive::sampler_config(opt, 11, 8);
    let sampler = compile_algorithm(&graph, "GraphSAGE", &h, config, None)
        .expect("compile")
        .expect("no fault requested");
    assert_eq!(sampler.super_batch_factor(), 4);
    let seeds: Vec<u32> = (0..32).map(|i| i % graph.num_nodes() as u32).collect();

    let schedule = "seed=9;oom:at=2;kernel:at=7";
    let run = |sampler: &gsampler_core::Sampler| {
        faults::install(FaultSpec::parse(schedule).unwrap());
        let mut prints: Vec<u64> = Vec::new();
        let report = sampler
            .run_epoch_with(&seeds, &Bindings::new(), 0, |idx, sample| {
                let mut hasher = DefaultHasher::new();
                (idx, format!("{:?}", sample.layers)).hash(&mut hasher);
                prints.push(hasher.finish());
            })
            .expect("the combined schedule must be absorbed in one epoch");
        (prints, report, faults::injected())
    };

    let (prints, report, injected) = run(&sampler);
    assert_eq!(report.batches, 4);
    assert_eq!(prints.len(), 4);
    // The device-side FaultReport and the plane agree on what happened.
    assert_eq!(report.faults.injected_oom, injected.oom);
    assert_eq!(report.faults.injected_kernel, injected.kernel);
    assert_eq!(injected.oom, 1, "{injected:?}");
    assert_eq!(injected.kernel, 1, "{injected:?}");
    assert!(report.faults.kernel_retries >= 1);
    assert!(
        report.faults.degrade_steps >= 1,
        "a super-batch OOM must step down the ladder: {:?}",
        report.faults
    );

    let (prints2, report2, injected2) = run(&sampler);
    faults::clear();
    assert_eq!(prints, prints2, "recovered epochs must be bit-identical");
    assert_eq!(report.faults, report2.faults);
    assert_eq!(injected, injected2);
}

#[test]
fn quarantine_keeps_the_epoch_alive_under_unrecoverable_faults() {
    let _g = chaos_lock();
    let spec = adversarial_spec();
    let graph = spec.build();
    let h = oracle_hyper();
    let mut config = gsampler_testkit::drive::sampler_config(OptConfig::all(), 11, 8);
    config.recovery.quarantine = true;
    let layers = gsampler_algos::algorithm("GraphSAGE", &h).unwrap().layers;
    let sampler = gsampler_core::compile(graph, layers, config).unwrap();
    let seeds: Vec<u32> = (0..32).collect();

    faults::install(FaultSpec::parse("kernel:every=1").unwrap());
    let mut consumed = 0usize;
    let report = sampler
        .run_epoch_with(&seeds, &Bindings::new(), 0, |_, _| consumed += 1)
        .expect("quarantine must keep the epoch alive");
    faults::clear();
    assert_eq!(consumed, 0, "nothing recoverable was produced");
    assert_eq!(report.faults.quarantined_batches, 4);
    assert_eq!(report.batches, 4, "indices stay stable across quarantine");
}
