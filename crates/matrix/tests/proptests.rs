//! Property-based tests of the sparse-matrix substrate: format
//! conversions, slicing, reductions, broadcasts, compaction, and sampling
//! are checked against brute-force reference implementations on random
//! matrices.

use proptest::prelude::*;

use gsampler_matrix::sample::{
    collective_sample_seeded, individual_sample, pick_columns, uniform_sample_without_replacement,
    weighted_sample_without_replacement, AliasTable,
};
use gsampler_matrix::{
    broadcast, compact, reduce, slice, spmm, Axis, Coo, Csc, Dense, EltOp, Format, NodeId,
    ReduceOp, SparseMatrix,
};
use gsampler_runtime::RngPool;
use rand::rngs::StdRng;
use rand::Rng;

/// What node-wise selection must choose from a column of `deg` entries on
/// its stream, by the reference primitives: sorted distinct offsets.
fn reference_picks(
    deg: usize,
    k: usize,
    replace: bool,
    weights: Option<&[f32]>,
    mut rng: StdRng,
) -> Vec<usize> {
    let mut picks: Vec<usize> = match (replace, weights) {
        _ if deg == 0 => Vec::new(),
        (true, Some(w)) => {
            let table = AliasTable::new(w).unwrap();
            (0..k).map(|_| table.sample(&mut rng)).collect()
        }
        (true, None) => (0..k).map(|_| rng.gen_range(0..deg)).collect(),
        (false, _) if deg <= k => (0..deg).collect(),
        (false, Some(w)) => weighted_sample_without_replacement(w, k, &mut rng),
        (false, None) => uniform_sample_without_replacement(deg, k, &mut rng),
    };
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// Strategy: a random sparse matrix (as canonical COO) with bounded size.
fn arb_matrix() -> impl Strategy<Value = SparseMatrix> {
    (1usize..20, 1usize..20).prop_flat_map(|(nrows, ncols)| {
        let max_edges = (nrows * ncols).min(60);
        proptest::collection::btree_set((0..nrows, 0..ncols), 0..=max_edges).prop_flat_map(
            move |cells| {
                let n = cells.len();
                let cells: Vec<(usize, usize)> = cells.into_iter().collect();
                proptest::collection::vec(0.05f32..10.0, n).prop_map(move |vals| {
                    let mut coo = Coo {
                        nrows,
                        ncols,
                        rows: cells.iter().map(|&(r, _)| r as NodeId).collect(),
                        cols: cells.iter().map(|&(_, c)| c as NodeId).collect(),
                        values: Some(vals),
                    };
                    coo.sort_col_major();
                    SparseMatrix::Coo(coo)
                })
            },
        )
    })
}

fn arb_format() -> impl Strategy<Value = Format> {
    prop_oneof![Just(Format::Csc), Just(Format::Csr), Just(Format::Coo)]
}

proptest! {
    #[test]
    fn conversion_roundtrips_preserve_edges(m in arb_matrix(), f1 in arb_format(), f2 in arb_format()) {
        let reference = m.sorted_edges();
        let converted = m.to_format(f1).to_format(f2);
        prop_assert_eq!(converted.sorted_edges(), reference);
        prop_assert!(converted.validate().is_ok());
    }

    #[test]
    fn slice_cols_matches_bruteforce(m in arb_matrix(), picks in proptest::collection::vec(0usize..20, 0..8)) {
        let cols: Vec<NodeId> = picks.into_iter().map(|p| (p % m.ncols()) as NodeId).collect();
        let sliced = slice::slice_cols(&m, &cols).unwrap();
        prop_assert_eq!(sliced.shape(), (m.nrows(), cols.len()));
        // Brute force: output edge (r, j) exists with value v iff input
        // has edge (r, cols[j]) with value v.
        let mut expected: Vec<(NodeId, NodeId, f32)> = Vec::new();
        for (j, &c) in cols.iter().enumerate() {
            for (r, cc, v) in m.iter_edges() {
                if cc == c {
                    expected.push((r, j as NodeId, v));
                }
            }
        }
        expected.sort_by_key(|a| (a.0, a.1));
        prop_assert_eq!(sliced.sorted_edges(), expected);
    }

    #[test]
    fn slice_format_invariance(m in arb_matrix(), f in arb_format(), picks in proptest::collection::vec(0usize..20, 1..6)) {
        let cols: Vec<NodeId> = picks.into_iter().map(|p| (p % m.ncols()) as NodeId).collect();
        let a = slice::slice_cols(&m, &cols).unwrap().sorted_edges();
        let b = slice::slice_cols(&m.to_format(f), &cols).unwrap().sorted_edges();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reduce_matches_bruteforce(m in arb_matrix(), f in arb_format()) {
        let converted = m.to_format(f);
        for axis in [Axis::Row, Axis::Col] {
            let got = reduce::reduce(&converted, ReduceOp::Sum, axis);
            let n = match axis { Axis::Row => m.nrows(), Axis::Col => m.ncols() };
            let mut want = vec![0f32; n];
            for (r, c, v) in m.iter_edges() {
                let i = match axis { Axis::Row => r, Axis::Col => c } as usize;
                want[i] += v;
            }
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-3, "sum {g} != {w}");
            }
        }
    }

    #[test]
    fn broadcast_then_reduce_scales(m in arb_matrix(), scale in 0.5f32..4.0) {
        // Multiplying every edge in column c by s scales the column sums by s.
        let v = vec![scale; m.ncols()];
        let scaled = broadcast::broadcast(&m, &v, EltOp::Mul, Axis::Col).unwrap();
        let before = reduce::reduce(&m, ReduceOp::Sum, Axis::Col);
        let after = reduce::reduce(&scaled, ReduceOp::Sum, Axis::Col);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b * scale - a).abs() < 1e-2, "{} * {scale} != {a}", b);
        }
    }

    #[test]
    fn compaction_preserves_edges_and_ids(m in arb_matrix()) {
        let c = compact::compact_rows(&m);
        prop_assert_eq!(c.matrix.nnz(), m.nnz());
        // Every kept row has at least one edge; mapping is ascending.
        prop_assert!(c.kept.windows(2).all(|w| w[0] < w[1]));
        let original = m.sorted_edges();
        let mut restored: Vec<(NodeId, NodeId, f32)> = c
            .matrix
            .iter_edges()
            .map(|(r, col, v)| (c.kept[r as usize], col, v))
            .collect();
        restored.sort_by_key(|a| (a.0, a.1));
        prop_assert_eq!(restored, original);
    }

    #[test]
    fn individual_sample_is_subset_with_fanout(m in arb_matrix(), k in 0usize..5, seed in 0u64..1000) {
        // Every column holds exactly the edges the reference primitive
        // chooses on the column's stream — empty columns, `deg <= k` and
        // `k == 0` included — which makes it a subset with the fan-out.
        let streams = RngPool::new(seed);
        let csc = m.to_csc();
        let weights = csc.values.as_deref().unwrap();
        for (replace, weighted) in [(false, false), (false, true), (true, false), (true, true)] {
            let probs = weighted.then_some(&m);
            let out = individual_sample(&m, k, replace, probs, &streams).unwrap();
            prop_assert_eq!((out.shape(), out.format()), (m.shape(), m.format()));
            let out = out.to_csc();
            for c in 0..csc.ncols {
                let col = csc.col_range(c);
                let w = weighted.then(|| &weights[col.clone()]);
                let want: Vec<usize> = reference_picks(col.len(), k, replace, w, streams.stream(c as u64))
                    .into_iter()
                    .map(|off| col.start + off)
                    .collect();
                let got = out.col_range(c);
                let rows: Vec<NodeId> = want.iter().map(|&p| csc.indices[p]).collect();
                let vals: Vec<f32> = want.iter().map(|&p| weights[p]).collect();
                prop_assert_eq!(&out.indices[got.clone()], &rows[..], "column {} replace {} weighted {}", c, replace, weighted);
                prop_assert_eq!(&out.values.as_ref().unwrap()[got], &vals[..]);
                prop_assert!(replace || want.len() == col.len().min(k));
            }
        }
    }

    #[test]
    fn collective_sample_bounds_rows(m in arb_matrix(), k in 1usize..8, seed in 0u64..1000) {
        let out = collective_sample_seeded(&m, k, None, &RngPool::new(seed)).unwrap();
        prop_assert!(out.rows.len() <= k.max(out.rows.len().min(k)) || out.rows.len() <= m.nrows());
        prop_assert!(out.rows.len() <= k || out.rows.len() <= m.nrows());
        prop_assert_eq!(out.matrix.shape().0, out.rows.len());
        // Selected rows had positive degree.
        let degs = m.row_degrees();
        for &r in &out.rows {
            prop_assert!(degs[r as usize] > 0);
        }
    }

    #[test]
    fn weighted_selection_without_replacement_is_distinct(
        weights in proptest::collection::vec(0.0f32..5.0, 1..30),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        let k = positive.min(weights.len() / 2 + 1);
        let picks = weighted_sample_without_replacement(&weights, k, &mut rng);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        prop_assert_eq!(set.len(), picks.len(), "duplicates in {:?}", picks);
        // Zero-weight items are only taken once positives run out.
        let zero_picked = picks.iter().filter(|&&i| weights[i] == 0.0).count();
        prop_assert!(zero_picked == 0 || picks.len() > positive);
    }

    #[test]
    fn floyd_sampling_distinct(n in 1usize..100, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = (n / 2).max(1);
        let picks = uniform_sample_without_replacement(n, k, &mut rng);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(picks.iter().all(|&p| p < n));
    }

    #[test]
    fn alias_table_always_returns_positive_weight_items(
        weights in proptest::collection::vec(0.0f32..5.0, 1..20),
        seed in 0u64..200,
    ) {
        use rand::SeedableRng;
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let i = table.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "drew zero-weight item {i}");
        }
    }

    #[test]
    fn spmm_matches_dense_reference(m in arb_matrix(), k in 1usize..4) {
        let d = Dense::from_vec(
            m.ncols(),
            k,
            (0..m.ncols() * k).map(|i| (i % 7) as f32 - 3.0).collect(),
        ).unwrap();
        let fast = spmm::spmm(&m, &d).unwrap();
        let mut dense_a = Dense::zeros(m.nrows(), m.ncols());
        for (r, c, v) in m.iter_edges() {
            dense_a.set(r as usize, c as usize, v);
        }
        let slow = dense_a.matmul(&d).unwrap();
        for r in 0..fast.nrows() {
            for c in 0..fast.ncols() {
                prop_assert!((fast.get(r, c) - slow.get(r, c)).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn values_or_ones_matches_weightedness(m in arb_matrix()) {
        let v = m.values_or_ones();
        prop_assert_eq!(v.len(), m.nnz());
        let mut unweighted = m.clone();
        unweighted.clear_values();
        prop_assert!(unweighted.values_or_ones().iter().all(|&x| x == 1.0));
    }
}

/// One large fan-out (`k = 1024` of degree 4096): the pick still equals
/// Floyd's reference per column, and its membership test is not a scan of
/// the picks so far — it costs what the reference's hash set costs, not
/// `k` times that.
#[test]
fn large_fanout_pick_matches_the_reference_at_its_cost() {
    let (deg, k, ncols) = (4096usize, 1024usize, 32usize);
    let indptr: Vec<usize> = (0..=ncols).map(|c| c * deg).collect();
    let indices: Vec<NodeId> = (0..ncols).flat_map(|_| 0..deg as NodeId).collect();
    let csc = Csc::new(deg, ncols, indptr, indices, None).unwrap();
    let streams = RngPool::new(11);
    let fastest = |run: &mut dyn FnMut()| {
        let timed = (0..5).map(|_| {
            let start = std::time::Instant::now();
            run();
            start.elapsed()
        });
        timed.min().unwrap()
    };

    let mut picked = (Vec::new(), Vec::new());
    let pick_time =
        fastest(&mut || picked = pick_columns(&csc, None, k, false, None, &streams).unwrap());
    let mut expected = Vec::new();
    let reference_time = fastest(&mut || {
        expected.clear();
        for c in 0..ncols {
            let mut rng = streams.stream(c as u64);
            let mut offs = uniform_sample_without_replacement(deg, k, &mut rng);
            offs.sort_unstable();
            expected.extend(offs.into_iter().map(|off| c * deg + off));
        }
    });
    assert_eq!(picked.0, (0..=ncols).map(|c| c * k).collect::<Vec<_>>());
    assert_eq!(picked.1, expected);
    // A linear membership scan is ~25x the reference here (debug build).
    let bound = reference_time * 4 + std::time::Duration::from_millis(2);
    assert!(
        pick_time <= bound,
        "pick {pick_time:?} vs reference {reference_time:?}"
    );
}
