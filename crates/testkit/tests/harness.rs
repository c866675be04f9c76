//! The differential fuzzer's clean smoke, and its self-tests: the whole
//! point of a differential oracle is that it *would* catch a bug, so the
//! suite proves it by injecting known faults and requiring a caught, shrunk
//! repro — and by exercising the corpus save/load/replay loop on disk.

use std::path::PathBuf;

use gsampler_testkit::corpus::{self, Case};
use gsampler_testkit::fault::Fault;
use gsampler_testkit::fuzz::{self, FuzzOptions};
use gsampler_testkit::gen::{GraphSpec, Topology};

/// The clean smoke's cases and master seed, which the fanout self-test
/// shares.
const CASES: usize = 50;
const SEED: u64 = 7;

#[test]
fn clean_fuzz_smoke_finds_no_divergence() {
    // 50 arbitrary graphs, every algorithm, every pass ablation and the
    // super-batched epoch bit-exact. A divergence is shrunk; the message
    // carries the fixture and how to replay it (the bin persists it under
    // tests/corpus/, a test writes nothing there).
    let opts = FuzzOptions {
        cases: CASES,
        seed: SEED,
        corpus_dir: None,
        ..FuzzOptions::default()
    };
    let outcome = fuzz::run(&opts, |_| {});
    assert_eq!(outcome.cases_run, CASES);
    let repros: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| {
            let path = format!("tests/corpus/{}", f.case.filename());
            format!(
                "{} on {}\nreplay: save the fixture below as {path}, then run \
                 `cargo run -p gsampler-testkit --bin gsampler-fuzz -- --replay {path}`\n{}",
                f.divergence,
                f.case.spec.describe(),
                f.case.to_text()
            )
        })
        .collect();
    assert!(
        repros.is_empty(),
        "the differential fuzzer diverged (`gsampler-fuzz --cases {CASES} --seed {SEED}` \
         saves the same repros itself):\n{}",
        repros.join("\n")
    );
}

#[test]
fn injected_fanout_fault_is_caught_and_shrunk() {
    let opts = FuzzOptions {
        cases: CASES,
        seed: SEED,
        fault: Some(Fault::FanoutPlusOne),
        corpus_dir: None, // fault repros must never pollute the corpus
        stop_on_failure: true,
        ..FuzzOptions::default()
    };
    let outcome = fuzz::run(&opts, |_| {});
    assert!(
        !outcome.failures.is_empty(),
        "injected fanout fault escaped {} cases",
        outcome.cases_run
    );
    let repro = &outcome.failures[0];
    assert!(repro.saved_to.is_none(), "fault repro was persisted");
    assert!(
        repro.case.spec.nodes <= 16,
        "shrink left a large repro: {}",
        repro.case.spec.describe()
    );
}

#[test]
fn injected_bias_fault_is_caught() {
    // The squared-bias fault only rewrites algorithms that square a bias
    // matrix (LADIES-family); it needs weighted graphs to surface, so give
    // it a few more cases than the fanout one.
    let opts = FuzzOptions {
        cases: 30,
        seed: 23,
        fault: Some(Fault::BiasSquareDropped),
        corpus_dir: None,
        stop_on_failure: true,
        ..FuzzOptions::default()
    };
    let outcome = fuzz::run(&opts, |_| {});
    assert!(
        !outcome.failures.is_empty(),
        "injected bias fault escaped {} cases",
        outcome.cases_run
    );
}

#[test]
fn corpus_fixture_round_trips_on_disk_and_replays() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "gsampler-testkit-corpus-{}-{}",
        std::process::id(),
        line!()
    ));
    let case = Case {
        spec: GraphSpec {
            topology: Topology::PowerLaw,
            nodes: 20,
            edges: 50,
            weighted: true,
            self_loops: true,
            duplicate_edges: false,
            dangling: false,
            seed: 0xFEED,
        },
        algo: "GraphSAGE".into(),
        seed: 7,
        frontier_count: 6,
        note: "self-test fixture (clean)".into(),
    };
    let path = case.save(&dir).unwrap();
    let loaded = Case::load(&path).unwrap();
    assert_eq!(loaded.spec, case.spec);
    assert_eq!(loaded.algo, case.algo);
    // A clean fixture replays without divergence, and replay_all agrees.
    loaded.replay().expect("clean fixture must replay clean");
    let failures = corpus::replay_all(&dir).unwrap();
    assert!(failures.is_empty(), "{failures:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_corpus_replays_clean() {
    // Regression gate over whatever fixtures live in tests/corpus/ (an
    // absent or empty directory passes — fixtures only appear once a real
    // divergence has been found and fixed).
    let failures = corpus::replay_all(&corpus::default_dir()).unwrap();
    assert!(
        failures.is_empty(),
        "committed corpus fixtures diverge again: {failures:?}"
    );
}
