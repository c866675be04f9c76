//! The one select at pool widths 1 and 2 against one serial pass, for
//! both of its operators. Each test sweeps `GSAMPLER_THREADS` holding
//! [`WIDTH`], so the two never race on it.
//!
//! Layer-wise: `collective_select` over 16 segments: the same rows (an
//! empty segment and one with at most `k` candidates included), and for an
//! invalid bias the same `InvalidProbability`, the one naming the lowest
//! invalid row, whichever work item finds it first. The weights open the
//! pool's size gate, and at width 2 each call must dispatch a region.
//!
//! Node-wise: a weighted `select` over the columns of 16 column groups,
//! each drawing with its own key: the same positions, and for an invalid
//! bias the same lowest invalid position, whichever work item finds it
//! first.

use std::sync::Mutex;

use gsampler_matrix::sample::{collective_select, select, weighted_sample_without_replacement};
use gsampler_matrix::{Csc, Error, NodeId, Result};
use gsampler_runtime::{pool_metrics, Key};

/// Held by every test that sets `GSAMPLER_THREADS`.
static WIDTH: Mutex<()> = Mutex::new(());

const SEGMENTS: usize = 16;
const ROWS: usize = 300;
const K: usize = 8;
/// Rows of segment 7, a work item of its own (at least 256 candidates).
const LONG: usize = 20_000;
/// Rows of segment 8, which leads the next work item.
const SHORT: usize = 40;

/// `ROWS` rows a segment, but segment 3 is empty (its rows went to
/// segment 4), segment 7 is `LONG` and segment 8 `SHORT`.
fn runs() -> Vec<usize> {
    let len = |b: usize| match b {
        3 => 0,
        4 => 2 * ROWS,
        7 => LONG,
        8 => SHORT,
        _ => ROWS,
    };
    let mut runs = vec![0];
    for b in 0..SEGMENTS {
        runs.push(runs[b] + len(b));
    }
    runs
}

fn pools() -> Vec<Key> {
    (0..SEGMENTS as u64).map(|b| Key::new(b).child(0)).collect()
}

/// Positive, zero and tiny weights; segment 5 has only 3 candidates and
/// segment 9 none.
fn weights(runs: &[usize]) -> Vec<f32> {
    (0..runs[SEGMENTS])
        .map(|i| match (runs.partition_point(|&r| r <= i) - 1, i % 7) {
            (5, _) if i - runs[5] < 3 => 2.5,
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
    // Setting `GSAMPLER_THREADS` between runs races no other test thread:
    // each one holds `WIDTH` while it sweeps.
    let _width = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var("GSAMPLER_THREADS").ok();
    let (runs, pools) = (runs(), pools());
    let lowest = runs[8] - 1;
    let mut cases = vec![("valid", weights(&runs))];
    for (name, first) in [("NaN", f32::NAN), ("-1", -1.0), ("+inf", f32::INFINITY)] {
        // The lowest bad weight is the long segment's last row, found only
        // after a sweep of it; two more lead the short segment after it, in
        // the next work item, which a second thread reaches sooner; another
        // sits in segment 12.
        let mut w = weights(&runs);
        for (at, bad) in [(lowest, first), (runs[8], -1.0), (runs[8] + 1, f32::NAN)] {
            w[at] = bad;
        }
        w[runs[12] + 5] = f32::NAN;
        cases.push((name, w));
    }
    for threads in ["1", "2"] {
        std::env::set_var("GSAMPLER_THREADS", threads);
        for (name, w) in &cases {
            let want = serial(w, &runs, &pools);
            // Repeated, so a width-2 race over which work item reports an
            // invalid weight first gets its chances.
            for _ in 0..8 {
                let before = pool_metrics();
                let got = collective_select(w, K, &runs, &pools);
                let regions = pool_metrics().since(&before).regions;
                assert_eq!(show(&got), show(&want), "{name} at width {threads}");
                if threads == "2" {
                    assert!(regions >= 1, "{name}: no pool region at width 2");
                }
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
        index: lowest,
        value: -1.0,
    };
    assert_eq!(show(&serial(&cases[2].1, &runs, &pools)), show(&Err(want)));
}

/// Columns per group of the node-wise case.
const COLS: usize = 24;

/// 16 groups of `COLS` columns. Column 0 is a hub of 20 000 entries (a work
/// item of its own); the others hold `c % 37` entries, so empty columns,
/// columns of at most `K` and columns with a choice to make all occur.
/// Weights are positive, zero and tiny, as in the layer-wise case.
fn columns() -> (Csc, Vec<f32>) {
    let degree = |c: usize| if c == 0 { 20_000 } else { c % 37 };
    let mut indptr = vec![0];
    for c in 0..SEGMENTS * COLS {
        indptr.push(indptr[c] + degree(c));
    }
    let nnz = indptr[SEGMENTS * COLS];
    let indices = (0..SEGMENTS * COLS)
        .flat_map(|c| 0..degree(c) as NodeId)
        .collect();
    let csc = Csc::new(20_000, SEGMENTS * COLS, indptr, indices, None).unwrap();
    let weights = (0..nnz)
        .map(|i| match i % 7 {
            0 => 0.0,
            r => r as f32 * 0.75 + (i % 13) as f32 * 1e-3,
        })
        .collect();
    (csc, weights)
}

/// The node-wise selection one serial pass makes: the whole bias validated,
/// then each column's positions, kept whole up to `K` or drawn down to `K`
/// with its group's key, counted from the group's first column.
fn serial_columns(csc: &Csc, weights: &[f32], pools: &[Key]) -> Result<(Vec<usize>, Vec<usize>)> {
    if let Some(index) = weights.iter().position(|w| !(0.0..=f32::MAX).contains(w)) {
        let value = weights[index];
        return Err(Error::InvalidProbability { index, value });
    }
    let (mut indptr, mut positions) = (vec![0], Vec::new());
    for c in 0..csc.ncols {
        let range = csc.col_range(c);
        let mut kept: Vec<usize> = match range.len() <= K {
            true => range.clone().collect(),
            false => {
                let w = &weights[range.clone()];
                let drawn = weighted_sample_without_replacement(w, K, pools[c / COLS], c % COLS);
                drawn.into_iter().map(|i| range.start + i).collect()
            }
        };
        kept.sort_unstable();
        positions.extend(kept);
        indptr.push(positions.len());
    }
    Ok((indptr, positions))
}

#[test]
fn node_wise_select_matches_one_serial_pass_at_widths_one_and_two() {
    let _width = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var("GSAMPLER_THREADS").ok();
    let ((csc, valid), pools) = (columns(), pools());
    let starts: Vec<usize> = (0..SEGMENTS).map(|b| b * COLS).collect();
    let mut cases = vec![("valid", valid.clone())];
    for (name, first) in [("NaN", f32::NAN), ("-1", -1.0), ("+inf", f32::INFINITY)] {
        // The lowest bad weight is the hub's last entry, found only after a
        // sweep of the hub; two more lead group 1, in the next work item,
        // which a second thread reaches sooner; another sits in group 12.
        let mut w = valid.clone();
        let next = csc.col_range(COLS).start;
        for (at, bad) in [(19_999, first), (next, -1.0), (next + 1, f32::NAN)] {
            w[at] = bad;
        }
        w[csc.col_range(12 * COLS + 5).start] = f32::INFINITY;
        cases.push((name, w));
    }
    for threads in ["1", "2"] {
        std::env::set_var("GSAMPLER_THREADS", threads);
        for (name, w) in &cases {
            let want = serial_columns(&csc, w, &pools);
            // Repeated, so a width-2 race over which work item reports an
            // invalid weight first gets its chances.
            for _ in 0..8 {
                let before = pool_metrics();
                let segment = |c: usize| csc.col_range(c);
                let got = select(csc.ncols, segment, K, &w[..], &pools, &starts);
                let regions = pool_metrics().since(&before).regions;
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{name} at width {threads}"
                );
                if threads == "2" {
                    assert!(regions >= 1, "{name}: no pool region at width 2");
                }
            }
        }
    }
    match saved {
        Some(v) => std::env::set_var("GSAMPLER_THREADS", v),
        None => std::env::remove_var("GSAMPLER_THREADS"),
    }
    let Ok((indptr, _)) = serial_columns(&csc, &valid, &pools) else {
        panic!("the valid bias was rejected")
    };
    let kept = |c: usize| indptr[c + 1] - indptr[c];
    assert_eq!(kept(0), K, "the hub");
    assert_eq!(kept(37), 0, "an empty column");
    assert_eq!(kept(39), 2, "a column of fewer than k entries");
    assert_eq!(kept(COLS + 12), K, "a column with a choice to make");
    let want = Error::InvalidProbability {
        index: 19_999,
        value: -1.0,
    };
    let bad = serial_columns(&csc, &cases[2].1, &pools).map(|_| ());
    assert_eq!(format!("{bad:?}"), format!("{:?}", Err::<(), _>(want)));
}
