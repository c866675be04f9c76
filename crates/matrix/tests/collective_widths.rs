//! `collective_select` over 16 segments at pool widths 1 and 2 against one
//! serial pass over the segments: the same rows (an empty segment and one
//! with at most `k` candidates included), and for an invalid bias the same
//! `InvalidProbability`, the one naming the lowest invalid row. 16 x 300
//! weights open the pool's size gate, and at width 2 each call must
//! dispatch a region.

use gsampler_matrix::sample::{collective_select, weighted_sample_without_replacement};
use gsampler_matrix::{Error, NodeId, Result};
use gsampler_runtime::{pool_metrics, Key};

const SEGMENTS: usize = 16;
const ROWS: usize = 300;
const K: usize = 8;

/// Segment 3 is empty: its rows went to segment 4.
fn runs() -> Vec<usize> {
    let mut runs: Vec<usize> = (0..=SEGMENTS).map(|b| b * ROWS).collect();
    runs[4] = runs[3];
    runs
}

fn pools() -> Vec<Key> {
    (0..SEGMENTS as u64).map(|b| Key::new(b).child(0)).collect()
}

/// Positive, zero and tiny weights; segment 5 has only 3 candidates and
/// segment 9 none.
fn weights() -> Vec<f32> {
    (0..SEGMENTS * ROWS)
        .map(|i| match (i / ROWS, i % 7) {
            (5, _) if i % ROWS < 3 => 2.5,
            (5 | 9, _) => 0.0,
            (_, 0) => 0.0,
            (_, r) => r as f32 * 0.75 + (i % 13) as f32 * 1e-3,
        })
        .collect()
}

/// The selection one serial pass makes: the whole bias validated, then
/// each segment's positive rows, drawn down to `k` with its own key: the
/// Efraimidis–Spirakis selection over the segment's weights, row `r` of
/// the segment keyed by draw `r` (a zero weight keys `+∞` and never wins).
fn serial(weights: &[f32], runs: &[usize], pools: &[Key]) -> Result<Vec<NodeId>> {
    if let Some(index) = weights.iter().position(|w| !(0.0..=f32::MAX).contains(w)) {
        let value = weights[index];
        return Err(Error::InvalidProbability { index, value });
    }
    let mut rows = Vec::new();
    for (run, pool) in runs.windows(2).zip(pools) {
        let cands: Vec<usize> = (run[0]..run[1]).filter(|&r| weights[r] > 0.0).collect();
        if cands.len() <= K {
            rows.extend(cands.iter().map(|&r| r as NodeId));
        } else {
            let picks = weighted_sample_without_replacement(&weights[run[0]..run[1]], K, *pool, 0);
            let mut picked: Vec<NodeId> =
                picks.into_iter().map(|p| (run[0] + p) as NodeId).collect();
            picked.sort_unstable();
            rows.extend(picked);
        }
    }
    Ok(rows)
}

/// Results compared by `Debug`, which prints a NaN weight as `NaN`.
fn show(result: &Result<Vec<NodeId>>) -> String {
    format!("{result:?}")
}

#[test]
fn collective_select_matches_one_serial_pass_at_widths_one_and_two() {
    // The only test in this binary: setting `GSAMPLER_THREADS` between
    // runs races no other test thread.
    let saved = std::env::var("GSAMPLER_THREADS").ok();
    let (runs, pools) = (runs(), pools());
    let mut cases = vec![("valid", weights())];
    for (name, first) in [("NaN", f32::NAN), ("-1", -1.0), ("+inf", f32::INFINITY)] {
        // Three bad weights in segment 7 (the first one named), another
        // in segment 12.
        let mut w = weights();
        let base = 7 * ROWS + 40;
        for (at, bad) in [(0, first), (11, -1.0), (29, f32::INFINITY), (77, f32::NAN)] {
            w[base + at] = bad;
        }
        w[12 * ROWS + 5] = f32::NAN;
        cases.push((name, w));
    }
    for threads in ["1", "2"] {
        std::env::set_var("GSAMPLER_THREADS", threads);
        for (name, w) in &cases {
            let want = serial(w, &runs, &pools);
            let before = pool_metrics();
            let got = collective_select(w, K, &runs, &pools);
            let regions = pool_metrics().since(&before).regions;
            assert_eq!(show(&got), show(&want), "{name} at width {threads}");
            if threads == "2" {
                assert!(regions >= 1, "{name}: no pool region at width 2");
            }
        }
    }
    match saved {
        Some(v) => std::env::set_var("GSAMPLER_THREADS", v),
        None => std::env::remove_var("GSAMPLER_THREADS"),
    }
    let Ok(rows) = serial(&cases[0].1, &runs, &pools) else {
        panic!("the valid bias was rejected")
    };
    let in_segment = |b: usize| {
        rows.iter()
            .filter(|&&r| (runs[b]..runs[b + 1]).contains(&(r as usize)))
            .count()
    };
    assert_eq!(in_segment(3), 0, "the empty segment");
    assert_eq!(in_segment(5), 3, "the segment with fewer than k candidates");
    assert_eq!(in_segment(9), 0, "the segment without candidates");
    assert_eq!(in_segment(0), K);
    let want = Error::InvalidProbability {
        index: 7 * ROWS + 40,
        value: -1.0,
    };
    assert_eq!(show(&serial(&cases[2].1, &runs, &pools)), show(&Err(want)));
}
