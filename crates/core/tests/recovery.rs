//! Fault-recovery tests for the epoch drivers: bounded retry for
//! transient kernel faults, the super-batch degradation ladder under
//! memory pressure, quarantine of unrecoverable batches, and the
//! determinism contract: a batch's RNG stream depends on its index only,
//! so retried, degraded and quarantine-surviving batches are all
//! bit-identical to the clean run's.
//!
//! The fault plane is process-global, so every test that installs a
//! schedule serializes on [`serial`] and clears the plane before and
//! after.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use gsampler_core::builder::{Layer, LayerBuilder};
use gsampler_core::{
    compile, Bindings, Error, Graph, GraphSample, OptConfig, RecoveryPolicy, SamplerConfig,
};
use gsampler_engine::faults::{self, FaultSpec};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::clear();
    g
}

fn graph() -> Arc<Graph> {
    let edges: Vec<(u32, u32, f32)> = (0..96u32)
        .flat_map(|v| (1..5u32).map(move |d| ((v + d * 11) % 96, v, 1.0)))
        .collect();
    Arc::new(Graph::from_edges("recovery", 96, &edges, true).unwrap())
}

/// A GraphSAGE-style layer: extract, sample `fanout` neighbors, chain the
/// sampled rows as the next layer's frontier.
fn sage_layer(fanout: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.slice_cols(&f);
    let s = sub.individual_sample(fanout, None);
    b.output(&s);
    let next = s.row_nodes();
    b.output_next_frontiers(&next);
    b.build()
}

fn config(recovery: RecoveryPolicy, super_batch: usize) -> SamplerConfig {
    let mut opt = OptConfig::all();
    opt.super_batch = super_batch;
    SamplerConfig {
        opt,
        batch_size: 8,
        recovery,
        ..SamplerConfig::new()
    }
}

/// Semantic fingerprint of one mini-batch's sample (the `f32` debug
/// rendering is stable, and bit-identical values produce identical text).
fn fingerprint(sample: &GraphSample) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", sample.layers).hash(&mut h);
    h.finish()
}

fn run_epoch_fingerprints(
    sampler: &gsampler_core::Sampler,
    seeds: &[u32],
    epoch: u64,
) -> (Vec<(usize, u64)>, gsampler_core::EpochReport) {
    let mut prints = Vec::new();
    let report = sampler
        .run_epoch_with(seeds, &Bindings::new(), epoch, |idx, sample| {
            prints.push((idx, fingerprint(&sample)));
        })
        .expect("epoch should recover");
    (prints, report)
}

#[test]
fn transient_kernel_fault_recovers_bit_identically() {
    let _g = serial();
    let seeds: Vec<u32> = (0..32).collect();
    let sampler = compile(
        graph(),
        vec![sage_layer(3), sage_layer(2)],
        config(RecoveryPolicy::default(), 1),
    )
    .unwrap();

    let (clean, clean_report) = run_epoch_fingerprints(&sampler, &seeds, 0);
    assert!(
        !clean_report.faults.any(),
        "clean run must report no faults"
    );

    faults::install(FaultSpec::parse("kernel:at=5").unwrap());
    let (faulted, report) = run_epoch_fingerprints(&sampler, &seeds, 0);
    assert_eq!(
        clean, faulted,
        "retried execution must be bit-identical to the clean run"
    );
    assert_eq!(report.faults.injected_kernel, 1);
    assert!(report.faults.kernel_retries >= 1);
    assert_eq!(faults::injected().kernel, 1);

    // Rerunning the same schedule reproduces the same recovery.
    faults::install(FaultSpec::parse("kernel:at=5").unwrap());
    let (again, _) = run_epoch_fingerprints(&sampler, &seeds, 0);
    assert_eq!(faulted, again, "one schedule, one output");
    faults::clear();
}

#[test]
fn exhausted_retries_fail_the_epoch_unless_quarantined() {
    let _g = serial();
    let seeds: Vec<u32> = (0..32).collect();
    let strict = compile(
        graph(),
        vec![sage_layer(3)],
        config(RecoveryPolicy::default(), 1),
    )
    .unwrap();
    let lenient = compile(
        graph(),
        vec![sage_layer(3)],
        config(
            RecoveryPolicy {
                quarantine: true,
                ..RecoveryPolicy::default()
            },
            1,
        ),
    )
    .unwrap();

    // Every dispatch faults: retries cannot help.
    faults::install(FaultSpec::parse("kernel:every=1").unwrap());
    let err = strict
        .run_epoch(&seeds, &Bindings::new(), 0)
        .expect_err("unrecoverable faults must fail a strict epoch");
    assert!(err.is_transient(), "got {err}");

    faults::install(FaultSpec::parse("kernel:every=1").unwrap());
    let mut consumed = 0usize;
    let report = lenient
        .run_epoch_with(&seeds, &Bindings::new(), 0, |_, _| consumed += 1)
        .expect("quarantine keeps the epoch alive");
    assert_eq!(consumed, 0, "all batches were quarantined");
    assert_eq!(report.batches, 4, "batch numbering stays stable");
    assert_eq!(report.faults.quarantined_batches, 4);
    assert!(report.faults.kernel_retries >= 4);
    faults::clear();

    // One unrecoverable batch: the window of two fails, each of its
    // batches reruns alone, and the first fails again. The survivors are
    // exactly the clean run's batches, under their clean-run indices.
    let fail_fast = compile(
        graph(),
        vec![sage_layer(3)],
        config(
            RecoveryPolicy {
                max_retries: 0,
                quarantine: true,
                ..RecoveryPolicy::default()
            },
            2,
        ),
    )
    .unwrap();
    let (clean, _) = run_epoch_fingerprints(&fail_fast, &seeds, 0);
    faults::install(FaultSpec::parse("kernel:every=1,count=2").unwrap());
    let (survivors, report) = run_epoch_fingerprints(&fail_fast, &seeds, 0);
    assert_eq!(report.faults.quarantined_batches, 1, "the first batch");
    assert_eq!(survivors, clean[1..], "survivors must equal the clean run");
    faults::clear();
}

#[test]
fn injected_oom_walks_the_superbatch_ladder_deterministically() {
    let _g = serial();
    let seeds: Vec<u32> = (0..32).collect();
    let sampler = compile(
        graph(),
        vec![sage_layer(3)],
        config(RecoveryPolicy::default(), 4),
    )
    .unwrap();
    assert_eq!(sampler.super_batch_factor(), 4);
    let (clean, _) = run_epoch_fingerprints(&sampler, &seeds, 0);

    faults::install(FaultSpec::parse("oom:at=1").unwrap());
    let (first, report) = run_epoch_fingerprints(&sampler, &seeds, 0);
    assert_eq!(first, clean, "a degraded epoch must equal its clean run");
    assert_eq!(report.faults.injected_oom, 1);
    assert_eq!(report.faults.degrade_steps, 1, "one rung: factor 4 -> 2");
    assert_eq!(report.faults.batch_retries, 1);
    assert_eq!(report.batches, 4, "no batch was lost to degradation");
    assert_eq!(first.len(), 4);

    // Same schedule, same output — the recovery path itself is seeded.
    faults::install(FaultSpec::parse("oom:at=1").unwrap());
    let (second, report2) = run_epoch_fingerprints(&sampler, &seeds, 0);
    assert_eq!(first, second, "degraded reruns must be bit-identical");
    assert_eq!(report2.faults, report.faults);
    faults::clear();
}

#[test]
fn budget_pressure_takes_the_streaming_rung() {
    let _g = serial();
    let sampler = compile(
        graph(),
        vec![sage_layer(3)],
        config(RecoveryPolicy::default(), 1),
    )
    .unwrap();
    // A budget far below one batch's working set: the first allocation
    // over it raises a real (non-injected) OOM, and the single-group
    // recovery path falls back to the streaming (spill) layout.
    sampler.device().set_memory_budget(Some(64));
    assert!(!sampler.device().spill_enabled());
    let sample = sampler
        .sample_batch(&[0, 1, 2, 3, 4, 5, 6, 7], &Bindings::new())
        .expect("streaming rung must absorb the pressure");
    assert!(!sample.layers.is_empty());
    assert!(sampler.device().spill_enabled());
    let f = sampler.device().stats().faults;
    assert!(f.degrade_steps >= 1);
    assert!(f.spill_events >= 1, "spilled allocations must be counted");
    assert!(f.spilled_bytes > 0);
    assert_eq!(f.injected_oom, 0, "this was real pressure, not injection");
}

#[test]
fn unsatisfiable_budget_is_a_hard_error_without_degradation() {
    let _g = serial();
    let mut cfg = config(RecoveryPolicy::disabled(), 1);
    cfg.auto_super_batch_budget = Some(1.0);
    let err = match compile(graph(), vec![sage_layer(3)], cfg) {
        Err(e) => e,
        Ok(_) => panic!("1-byte budget must not compile with degradation off"),
    };
    assert!(matches!(err, Error::MemoryBudget(_)), "got {err}");
    assert!(err.to_string().contains("degradation is disabled"));

    // Same budget with degradation allowed: compiles straight onto the
    // streaming rung.
    let mut cfg = config(RecoveryPolicy::default(), 1);
    cfg.auto_super_batch_budget = Some(1.0);
    let sampler = compile(graph(), vec![sage_layer(3)], cfg).unwrap();
    assert!(sampler.device().spill_enabled());
    assert_eq!(sampler.super_batch_factor(), 1);
}
