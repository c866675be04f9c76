//! Property-based tests of the sparse-matrix substrate: format
//! conversions, slicing, reductions, broadcasts, compaction, and sampling
//! are checked against brute-force reference implementations on random
//! matrices, 64 seeded cases per property.

use gsampler_matrix::sample::{
    collective_sample_seeded, individual_sample, pick_columns, uniform_sample_without_replacement,
    weighted_sample_without_replacement, AliasTable, Uniform,
};
use gsampler_matrix::{
    broadcast, compact, reduce, slice, spmm, Axis, Coo, Csc, Csr, Dense, EltOp, Format, NodeId,
    ReduceOp, SparseMatrix,
};
use gsampler_runtime::rng::{counter, Key};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `n` cases of the property `name`, each drawing from a generator
/// seeded with FNV-1a of the name mixed with the case index.
fn cases(name: &str, n: u64) -> impl Iterator<Item = StdRng> {
    let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    let seed = name.bytes().fold(0xCBF2_9CE4_8422_2325, fnv);
    (0..n).map(move |i| StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// `m`'s structure with `values: None`.
fn unweighted(m: &SparseMatrix) -> SparseMatrix {
    match m.clone() {
        SparseMatrix::Csc(m) => SparseMatrix::Csc(Csc { values: None, ..m }),
        SparseMatrix::Csr(m) => SparseMatrix::Csr(Csr { values: None, ..m }),
        SparseMatrix::Coo(m) => SparseMatrix::Coo(Coo { values: None, ..m }),
    }
}

/// The coordinate of `(r, c)` along `axis`.
fn along<T>(axis: Axis, r: T, c: T) -> T {
    match axis {
        Axis::Row => r,
        Axis::Col => c,
    }
}

/// What node-wise selection must choose from column `col` of `deg`
/// entries with `key`, by the reference primitives: sorted distinct
/// offsets. A weighted draw with replacement is the first entry whose
/// running sum exceeds `u · total`, found by a linear scan (the last
/// positive entry if rounding runs past the end).
fn reference_picks(
    deg: usize,
    k: usize,
    replace: bool,
    weights: Option<&[f32]>,
    key: Key,
    col: usize,
) -> Vec<usize> {
    let inverse_cdf = |w: &[f32], u: f64| {
        let total: f64 = w.iter().map(|&x| x as f64).sum();
        let mut sum = 0f64;
        let first = w.iter().position(|&x| {
            sum += x as f64;
            sum > u * total
        });
        first.unwrap_or_else(|| w.iter().rposition(|&x| x > 0.0).unwrap())
    };
    let mut picks: Vec<usize> = match (replace, weights) {
        _ if deg == 0 => Vec::new(),
        (true, Some(w)) => (0..k)
            .map(|j| inverse_cdf(w, key.unit(counter(col, j))))
            .collect(),
        (true, None) => (0..k).map(|j| key.below(counter(col, j), deg)).collect(),
        (false, _) if deg <= k => (0..deg).collect(),
        (false, Some(w)) => weighted_sample_without_replacement(w, k, key, col),
        (false, None) => uniform_sample_without_replacement(deg, k, key, col),
    };
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// A random sparse matrix (as canonical COO) with bounded size.
fn arb_matrix(rng: &mut StdRng) -> SparseMatrix {
    let (nrows, ncols) = (rng.gen_range(1usize..20), rng.gen_range(1usize..20));
    let target = rng.gen_range(0..=(nrows * ncols).min(60));
    let mut cells = std::collections::BTreeSet::new();
    while cells.len() < target {
        cells.insert((rng.gen_range(0..nrows), rng.gen_range(0..ncols)));
    }
    let mut coo = Coo {
        nrows,
        ncols,
        rows: cells.iter().map(|cell| cell.0 as NodeId).collect(),
        cols: cells.iter().map(|cell| cell.1 as NodeId).collect(),
        values: Some(cells.iter().map(|_| rng.gen_range(0.05..10.0)).collect()),
    };
    coo.sort_col_major();
    SparseMatrix::Coo(coo)
}

fn arb_format(rng: &mut StdRng) -> Format {
    Format::ALL[rng.gen_range(0usize..3)]
}

type Edge = (NodeId, NodeId, f32);

/// Build a matrix in `fmt` straight from an edge list, as it comes: CSC /
/// CSR segments keep the list's order (so they may be unsorted and hold
/// multi-edges — states only a struct literal can reach), COO is the list.
fn raw_matrix(
    (nrows, ncols): (usize, usize),
    edges: &[Edge],
    fmt: Format,
    weighted: bool,
) -> SparseMatrix {
    let compress = |n: usize, key: fn(&Edge) -> NodeId, other: fn(&Edge) -> NodeId| {
        let mut indptr = vec![0usize; n + 1];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for i in 0..n {
            for e in edges.iter().filter(|e| key(e) as usize == i) {
                indices.push(other(e));
                values.push(e.2);
            }
            indptr[i + 1] = indices.len();
        }
        (indptr, indices, weighted.then_some(values))
    };
    match fmt {
        Format::Csc => {
            let (indptr, indices, values) = compress(ncols, |e| e.1, |e| e.0);
            SparseMatrix::Csc(Csc {
                nrows,
                ncols,
                indptr,
                indices,
                values,
            })
        }
        Format::Csr => {
            let (indptr, indices, values) = compress(nrows, |e| e.0, |e| e.1);
            SparseMatrix::Csr(Csr {
                nrows,
                ncols,
                indptr,
                indices,
                values,
            })
        }
        Format::Coo => SparseMatrix::Coo(Coo {
            nrows,
            ncols,
            rows: edges.iter().map(|e| e.0).collect(),
            cols: edges.iter().map(|e| e.1).collect(),
            values: weighted.then(|| edges.iter().map(|e| e.2).collect()),
        }),
    }
}

/// An arbitrary edge list — any order, multi-edges, possibly empty
/// (every node isolated) or `cover`ing every row and column (none
/// isolated) — in every format, weighted or not.
fn arb_raw_matrix(rng: &mut StdRng) -> SparseMatrix {
    let (nrows, ncols) = (rng.gen_range(1usize..10), rng.gen_range(1usize..10));
    let mut edges: Vec<Edge> = Vec::new();
    for _ in 0..rng.gen_range(0..30) {
        let (r, c) = (rng.gen_range(0..nrows), rng.gen_range(0..ncols));
        edges.push((r as NodeId, c as NodeId, rng.gen_range(0.05..10.0)));
    }
    let (fmt, weighted, cover) = (arb_format(rng), rng.gen(), rng.gen());
    if cover {
        for i in 0..nrows.max(ncols) {
            edges.push(((i % nrows) as NodeId, (i % ncols) as NodeId, 1.5));
        }
    }
    raw_matrix((nrows, ncols), &edges, fmt, weighted)
}

/// `m`'s stored edges in storage order, read off the storage arrays.
fn storage_edges(m: &SparseMatrix) -> Vec<Edge> {
    let vals = m.values_or_ones();
    let expand = |indptr: &[usize]| -> Vec<NodeId> {
        let segs = indptr.windows(2).enumerate();
        segs.flat_map(|(i, w)| (w[0]..w[1]).map(move |_| i as NodeId))
            .collect()
    };
    let (rows, cols) = match m {
        SparseMatrix::Csc(c) => (c.indices.clone(), expand(&c.indptr)),
        SparseMatrix::Csr(c) => (expand(&c.indptr), c.indices.clone()),
        SparseMatrix::Coo(c) => (c.rows.clone(), c.cols.clone()),
    };
    rows.into_iter()
        .zip(cols)
        .zip(vals)
        .map(|((r, c), v)| (r, c, v))
        .collect()
}

/// What compaction along `axis` must produce: every edge renamed through
/// the ascending occupied ids, then the round trip through `to_format` —
/// the canonical order of the input's own format.
fn reference_compaction(m: &SparseMatrix, axis: Axis) -> (SparseMatrix, Vec<NodeId>) {
    let edges = storage_edges(m);
    let mut kept: Vec<NodeId> = edges.iter().map(|e| along(axis, e.0, e.1)).collect();
    kept.sort_unstable();
    kept.dedup();
    let new = |old: NodeId| kept.binary_search(&old).unwrap() as NodeId;
    let (nrows, ncols, rows, cols): (_, _, Vec<NodeId>, Vec<NodeId>) = match axis {
        Axis::Row => (
            kept.len(),
            m.ncols(),
            edges.iter().map(|e| new(e.0)).collect(),
            edges.iter().map(|e| e.1).collect(),
        ),
        Axis::Col => (
            m.nrows(),
            kept.len(),
            edges.iter().map(|e| e.0).collect(),
            edges.iter().map(|e| new(e.1)).collect(),
        ),
    };
    let coo = Coo {
        nrows,
        ncols,
        rows,
        cols,
        values: m.values().map(<[f32]>::to_vec),
    };
    (SparseMatrix::Coo(coo).to_format(m.format()), kept)
}

#[test]
fn conversion_roundtrips_preserve_edges() {
    for mut rng in cases("conversion_roundtrips_preserve_edges", 64) {
        let m = arb_matrix(&mut rng);
        let (f1, f2) = (arb_format(&mut rng), arb_format(&mut rng));
        let converted = m.to_format(f1).to_format(f2);
        assert_eq!(converted.sorted_edges(), m.sorted_edges());
        assert!(converted.validate().is_ok());
    }
}

#[test]
fn slice_cols_matches_bruteforce() {
    for mut rng in cases("slice_cols_matches_bruteforce", 64) {
        let m = arb_matrix(&mut rng);
        let cols: Vec<NodeId> = (0..rng.gen_range(0..8))
            .map(|_| (rng.gen_range(0usize..20) % m.ncols()) as NodeId)
            .collect();
        let sliced = slice::slice_cols(&m, &cols).unwrap();
        assert_eq!(sliced.shape(), (m.nrows(), cols.len()));
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
        assert_eq!(sliced.sorted_edges(), expected);
    }
}

#[test]
fn slice_format_invariance() {
    for mut rng in cases("slice_format_invariance", 64) {
        let (m, f) = (arb_matrix(&mut rng), arb_format(&mut rng));
        let cols: Vec<NodeId> = (0..rng.gen_range(1..6))
            .map(|_| (rng.gen_range(0usize..20) % m.ncols()) as NodeId)
            .collect();
        let sliced = |m: &SparseMatrix| slice::slice_cols(m, &cols).unwrap().sorted_edges();
        assert_eq!(sliced(&m), sliced(&m.to_format(f)));
    }
}

#[test]
fn slice_rows_matches_bruteforce_in_storage_order() {
    for mut rng in cases("slice_rows_matches_bruteforce_in_storage_order", 64) {
        let m = arb_raw_matrix(&mut rng);
        // Ascending-distinct, unsorted and duplicated row lists alike: the
        // output holds, for every stored edge in storage order, one copy
        // per request of its row, renamed to the requesting position —
        // then stably ordered by new index within each CSC column, or
        // gathered whole, as stored, into each requested CSR row.
        let unsorted: Vec<NodeId> = (0..rng.gen_range(0..8))
            .map(|_| (rng.gen_range(0usize..20) % m.nrows()) as NodeId)
            .collect();
        let mut ascending = unsorted.clone();
        ascending.sort_unstable();
        ascending.dedup();
        for rows in [ascending, unsorted] {
            let sliced = slice::slice_rows(&m, &rows).unwrap();
            let want = ((rows.len(), m.ncols()), m.format());
            assert_eq!((sliced.shape(), sliced.format()), want);
            let mut expected: Vec<Edge> = Vec::new();
            for (r, c, v) in storage_edges(&m) {
                let asked = rows.iter().enumerate().filter(|&(_, &old)| old == r);
                expected.extend(asked.map(|(new, _)| (new as NodeId, c, v)));
            }
            match m.format() {
                Format::Csc => expected.sort_by_key(|e| (e.1, e.0)),
                Format::Csr => expected.sort_by_key(|e| e.0),
                Format::Coo => {}
            }
            assert_eq!(storage_edges(&sliced), expected, "rows {rows:?} of {m:?}");
            assert_eq!(sliced.is_weighted(), m.is_weighted());
            // The column mirror is the same code with the axes swapped.
            let cols: Vec<NodeId> = rows.iter().map(|&r| r % m.ncols() as NodeId).collect();
            let mut expected: Vec<Edge> = Vec::new();
            for (r, c, v) in storage_edges(&m) {
                let asked = cols.iter().enumerate().filter(|&(_, &old)| old == c);
                expected.extend(asked.map(|(new, _)| (r, new as NodeId, v)));
            }
            let sliced = slice::slice_cols(&m, &cols).unwrap();
            match m.format() {
                Format::Csc => expected.sort_by_key(|e| e.1),
                Format::Csr => expected.sort_by_key(|e| (e.0, e.1)),
                Format::Coo => {}
            }
            assert_eq!(storage_edges(&sliced), expected, "cols {cols:?} of {m:?}");
        }
    }
}

#[test]
fn reduce_matches_bruteforce() {
    for mut rng in cases("reduce_matches_bruteforce", 64) {
        let (m, f) = (arb_matrix(&mut rng), arb_format(&mut rng));
        let converted = m.to_format(f);
        for axis in [Axis::Row, Axis::Col] {
            let got = reduce::reduce(&converted, ReduceOp::Sum, axis);
            let n = along(axis, m.nrows(), m.ncols());
            let mut want = vec![0f32; n];
            for (r, c, v) in m.iter_edges() {
                want[along(axis, r, c) as usize] += v;
            }
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3, "sum {g} != {w}");
            }
            // Every reduction, bit for bit: a slot folds its edges in
            // storage order.
            let unweighted = unweighted(&converted);
            for m in [&converted, &unweighted] {
                let mut slots: Vec<Vec<f32>> = vec![Vec::new(); n];
                for (r, c, v) in storage_edges(m) {
                    slots[along(axis, r, c) as usize].push(v);
                }
                use ReduceOp::*;
                for op in [Sum, Max, Min, Mean, Count] {
                    let fold = |vals: &Vec<f32>| {
                        let sum = vals.iter().fold(0f32, |a, &v| a + v);
                        let count = vals.iter().fold(0f32, |a, _| a + 1.0);
                        match op {
                            _ if vals.is_empty() => 0.0,
                            Sum => sum,
                            Max => vals.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v)),
                            Min => vals.iter().fold(f32::INFINITY, |a, &v| a.min(v)),
                            Mean => sum / count,
                            Count => count,
                        }
                    };
                    let want: Vec<f32> = slots.iter().map(fold).collect();
                    let got = reduce::reduce(m, op, axis);
                    assert_eq!(bits(&got), bits(&want), "{op:?} {axis:?} {f:?}");
                }
            }
        }
    }
}

#[test]
fn broadcast_then_reduce_scales() {
    for mut rng in cases("broadcast_then_reduce_scales", 64) {
        let (m, scale) = (arb_matrix(&mut rng), rng.gen_range(0.5f32..4.0));
        // Multiplying every edge in column c by s scales the column sums by s.
        let v = vec![scale; m.ncols()];
        let scaled = broadcast::broadcast(&m, &v, EltOp::Mul, Axis::Col).unwrap();
        let before = reduce::reduce(&m, ReduceOp::Sum, Axis::Col);
        let after = reduce::reduce(&scaled, ReduceOp::Sum, Axis::Col);
        for (b, a) in before.iter().zip(&after) {
            assert!((b * scale - a).abs() < 1e-2, "{b} * {scale} != {a}");
        }
        // Per (format, axis), bit for bit: edge `e` combines with the
        // vector entry of its own row / column, and the pattern is kept.
        for fmt in Format::ALL {
            let m = m.to_format(fmt);
            for (axis, n) in [(Axis::Row, m.nrows()), (Axis::Col, m.ncols())] {
                let v: Vec<f32> = (0..n).map(|i| scale + i as f32).collect();
                for op in [EltOp::Add, EltOp::Sub, EltOp::Mul, EltOp::Div, EltOp::Max] {
                    let out = broadcast::broadcast(&m, &v, op, axis).unwrap();
                    let what = format!("{op:?} {axis:?} {fmt:?}");
                    assert_eq!(unweighted(&out), unweighted(&m), "{what}");
                    let at = |(r, c, x): Edge| op.apply(x, v[along(axis, r, c) as usize]);
                    let want: Vec<f32> = storage_edges(&m).into_iter().map(at).collect();
                    assert_eq!(bits(&out.values_or_ones()), bits(&want), "{what}");
                }
            }
        }
    }
}

#[test]
fn compaction_preserves_edges_and_ids() {
    for mut rng in cases("compaction_preserves_edges_and_ids", 64) {
        let (m, raw) = (arb_matrix(&mut rng), arb_raw_matrix(&mut rng));
        // Field by field (`PartialEq` compares format, shape, `indptr`,
        // `indices` / `rows` / `cols` and `values`), on every format, with
        // unsorted segments and multi-edges.
        for input in [&m, &raw] {
            let (want, kept) = reference_compaction(input, Axis::Row);
            assert_eq!(compact::occupied_rows(input), kept);
            let got = compact::compact_rows(input);
            assert_eq!((got.matrix, got.kept), (want, kept), "rows of {input:?}");
            let (_, kept) = reference_compaction(input, Axis::Col);
            assert_eq!(compact::occupied_cols(input), kept);
        }
        let c = compact::compact_rows(&m);
        assert_eq!(c.matrix.nnz(), m.nnz());
        // Every kept row has at least one edge; mapping is ascending.
        assert!(c.kept.windows(2).all(|w| w[0] < w[1]));
        let original = m.sorted_edges();
        let restore = |(r, col, v): Edge| (c.kept[r as usize], col, v);
        let mut restored: Vec<Edge> = c.matrix.iter_edges().map(restore).collect();
        restored.sort_by_key(|a| (a.0, a.1));
        assert_eq!(restored, original);
    }
}

#[test]
fn individual_sample_is_subset_with_fanout() {
    for mut rng in cases("individual_sample_is_subset_with_fanout", 64) {
        let m = arb_matrix(&mut rng);
        let (k, seed) = (rng.gen_range(0usize..5), rng.gen_range(0u64..1000));
        // Every column holds exactly the edges the reference primitive
        // chooses with the column's draws — empty columns, `deg <= k` and
        // `k == 0` included — which makes it a subset with the fan-out.
        let key = Key::new(seed);
        let csc = m.to_csc();
        let weights = csc.values.as_deref().unwrap();
        for (replace, weighted) in [(false, false), (false, true), (true, false), (true, true)] {
            let probs = weighted.then_some(&m);
            let out = individual_sample(&m, k, replace, probs, &[key], &[0]).unwrap();
            assert_eq!((out.shape(), out.format()), (m.shape(), m.format()));
            let out = out.to_csc();
            for c in 0..csc.ncols {
                let col = csc.col_range(c);
                let w = weighted.then(|| &weights[col.clone()]);
                let picks = reference_picks(col.len(), k, replace, w, key, c);
                let want: Vec<usize> = picks.iter().map(|off| col.start + off).collect();
                let got = out.col_range(c);
                let rows: Vec<NodeId> = want.iter().map(|&p| csc.indices[p]).collect();
                let vals: Vec<f32> = want.iter().map(|&p| weights[p]).collect();
                let what = format!("column {c} replace {replace} weighted {weighted}");
                assert_eq!(&out.indices[got.clone()], &rows[..], "{what}");
                assert_eq!(&out.values.as_ref().unwrap()[got], &vals[..]);
                assert!(replace || want.len() == col.len().min(k));
            }
        }
    }
}

#[test]
fn collective_sample_bounds_rows() {
    for mut rng in cases("collective_sample_bounds_rows", 64) {
        let m = arb_matrix(&mut rng);
        let (k, seed) = (rng.gen_range(1usize..8), rng.gen_range(0u64..1000));
        let weights: Vec<f32> = (0..rng.gen_range(1..30))
            .map(|_| match rng.gen_range(0..2) {
                0 => 0.0,
                _ => rng.gen_range(0.0..5.0),
            })
            .collect();
        // The top-k selection is the first `k` of the full stable sort by
        // key — ties included: zero weights all key +inf, and a `k` beyond
        // the positive count puts them among the winners, by index.
        let key = Key::new(seed);
        let exp_key = |(i, &w): (usize, &f32)| match w > 0.0 {
            true => -key.unit(i as u64).ln() / w as f64,
            false => f64::INFINITY,
        };
        let keys: Vec<f64> = weights.iter().enumerate().map(exp_key).collect();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).unwrap());
        let n = weights.len();
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        for top in [0, 1, n - 1, n, (positive + 1).min(n)] {
            let picks = weighted_sample_without_replacement(&weights, top, key, 0);
            assert_eq!(&picks[..], &order[..top], "k = {top} of {weights:?}");
        }
        // And collective sampling is that selection over the positive
        // rows, row `r` keyed by draw `r`, sliced out ascending.
        let bias: Vec<f32> = (0..m.nrows()).map(|r| weights[r % n]).collect();
        let positive_rows = (0..m.nrows() as NodeId).filter(|&r| bias[r as usize] > 0.0);
        let cands: Vec<NodeId> = positive_rows.collect();
        let mut rows = cands.clone();
        if cands.len() > k {
            let row_key = |&r: &NodeId| -key.unit(r as u64).ln() / bias[r as usize] as f64;
            rows.sort_by(|a, b| row_key(a).total_cmp(&row_key(b)).then(a.cmp(b)));
            rows.truncate(k);
            rows.sort_unstable();
        }
        let out = collective_sample_seeded(&m, k, Some(&bias), &key).unwrap();
        assert_eq!(&out.matrix, &slice::slice_rows(&m, &rows).unwrap());
        assert_eq!(out.rows, rows);

        let out = collective_sample_seeded(&m, k, None, &Key::new(seed)).unwrap();
        // The default bias is the degree: `min(k, rows with edges)` rows,
        // each with a positive degree.
        let degs = m.row_degrees();
        let occupied = degs.iter().filter(|&&d| d > 0).count();
        assert_eq!(out.rows.len(), k.min(occupied));
        assert_eq!(out.matrix.shape().0, out.rows.len());
        for &r in &out.rows {
            assert!(degs[r as usize] > 0);
        }
    }
}

#[test]
fn weighted_selection_without_replacement_is_distinct() {
    for mut rng in cases("weighted_selection_without_replacement_is_distinct", 64) {
        let weights: Vec<f32> = (0..rng.gen_range(1..30))
            .map(|_| rng.gen_range(0.0..5.0))
            .collect();
        let key = Key::new(rng.gen_range(0..1000));
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        let k = positive.min(weights.len() / 2 + 1);
        let picks = weighted_sample_without_replacement(&weights, k, key, 0);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), picks.len(), "duplicates in {picks:?}");
        // Zero-weight items are only taken once positives run out.
        let zero_picked = picks.iter().filter(|&&i| weights[i] == 0.0).count();
        assert!(zero_picked == 0 || picks.len() > positive);
    }
}

#[test]
fn floyd_sampling_distinct() {
    for mut rng in cases("floyd_sampling_distinct", 64) {
        let n = rng.gen_range(1usize..100);
        let key = Key::new(rng.gen_range(0..1000));
        let k = (n / 2).max(1);
        let picks = uniform_sample_without_replacement(n, k, key, 0);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), k);
        assert!(picks.iter().all(|&p| p < n));
    }
}

#[test]
fn alias_table_always_returns_positive_weight_items() {
    for mut rng in cases("alias_table_always_returns_positive_weight_items", 64) {
        let weights: Vec<f32> = (0..rng.gen_range(1..20))
            .map(|_| rng.gen_range(0.0..5.0))
            .collect();
        let key = Key::new(rng.gen_range(0..200));
        if !weights.iter().any(|&w| w > 0.0) {
            continue;
        }
        let table = AliasTable::new(&weights).unwrap();
        for c in 0..50 {
            let i = table.sample(key, c);
            assert!(weights[i] > 0.0, "drew zero-weight item {i}");
        }
    }
}

#[test]
fn spmm_matches_dense_reference() {
    for mut rng in cases("spmm_matches_dense_reference", 64) {
        let (m, k) = (arb_matrix(&mut rng), rng.gen_range(1usize..4));
        let ramp = (0..m.ncols() * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let d = Dense::from_vec(m.ncols(), k, ramp).unwrap();
        let fast = spmm::spmm(&m, &d).unwrap();
        let mut dense_a = Dense::zeros(m.nrows(), m.ncols());
        for (r, c, v) in m.iter_edges() {
            dense_a.set(r as usize, c as usize, v);
        }
        let slow = dense_a.matmul(&d).unwrap();
        for r in 0..fast.nrows() {
            for c in 0..fast.ncols() {
                assert!((fast.get(r, c) - slow.get(r, c)).abs() < 1e-2);
            }
        }
    }
}

#[test]
fn values_or_ones_matches_weightedness() {
    for mut rng in cases("values_or_ones_matches_weightedness", 64) {
        let m = arb_matrix(&mut rng);
        assert_eq!(m.values_or_ones().len(), m.nnz());
        assert!(unweighted(&m).values_or_ones().iter().all(|&x| x == 1.0));
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
    let key = Key::new(11);
    let fastest = |run: &mut dyn FnMut()| {
        let timed = (0..5).map(|_| {
            let start = std::time::Instant::now();
            run();
            start.elapsed()
        });
        timed.min().unwrap()
    };

    let mut picked = (Vec::new(), Vec::new());
    let pick_time = fastest(&mut || {
        picked = pick_columns(&csc, None, k, false, &Uniform, &[key], &[0]).unwrap()
    });
    let mut expected = Vec::new();
    let reference_time = fastest(&mut || {
        expected.clear();
        for c in 0..ncols {
            let mut offs = uniform_sample_without_replacement(deg, k, key, c);
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

/// Weights over 40 orders of magnitude, zeros and repeats, 20 000 items:
/// the seeded selection's bounded heap, which skips the logarithm of a key
/// that cannot win, picks the first `k` of a stable sort of every exact
/// key — `collective_sample_bounds_rows` with a deep heap.
#[test]
fn seeded_selection_is_the_sort_of_every_key() {
    let mut r = <StdRng as rand::SeedableRng>::seed_from_u64(7);
    let weights: Vec<f32> = (0..20_000)
        .map(|i| match i % 7 {
            0 => 0.0,
            1 => 1.0,
            _ => 10f32.powi(r.gen_range(-20..20)) * r.gen::<f32>(),
        })
        .collect();
    for (seed, k) in [(1, 1), (2, 37), (3, 512), (4, 17_142), (5, 20_000)] {
        let key = Key::new(seed);
        let exp_key = |(i, &w): (usize, &f32)| match w > 0.0 {
            true => -key.unit(i as u64).ln() / w as f64,
            false => f64::INFINITY,
        };
        let keys: Vec<f64> = weights.iter().enumerate().map(exp_key).collect();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
        let picks = weighted_sample_without_replacement(&weights, k, key, 0);
        assert_eq!(picks, order[..k], "k = {k}");
    }
}

/// `f32` slices compared bit for bit.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A `rows × cols` table of small values; `special(r, c)` overrides cells.
fn table(
    rows: usize,
    cols: usize,
    seed: u64,
    special: impl Fn(usize, usize) -> Option<f32>,
) -> Dense {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dense::random(rows, cols, 2.0, &mut rng);
    for r in 0..rows {
        for c in 0..cols {
            if let Some(v) = special(r, c) {
                d.set(r, c, v);
            }
        }
    }
    d
}

/// The one SDDMM against what the serial kernel it replaced computed — a
/// boxed edge walk in storage order, the row's global ID looked up per
/// edge, each dot a plain `.sum()` — on every format, ID space and feature
/// width, bit for bit. The pattern is large enough (about 1,500 edges) that
/// the wider feature dims take the pooled path, so running the suite at
/// `GSAMPLER_THREADS` 1 and 2 (ci.sh does) checks both.
#[test]
fn sddmm_matches_the_serial_edge_walk_bit_for_bit() {
    let (nrows, ncols, period) = (60usize, 50usize, 200usize);
    let mut rng = StdRng::seed_from_u64(5);
    let edges: Vec<Edge> = (0..nrows * ncols)
        .filter(|_| rng.gen_range(0..2) == 0)
        .map(|i| ((i / ncols) as NodeId, (i % ncols) as NodeId, 1.0))
        .collect();
    let compacted: Vec<NodeId> = (0..nrows as NodeId).map(|r| 3 * r + 1).collect();
    let blocks: Vec<NodeId> = (compacted.iter().zip(0..))
        .map(|(&id, r): (_, NodeId)| id + (r / 15) * period as NodeId)
        .collect();
    // (row IDs, rows of the left table): identity, compacted IDs into a
    // full-graph table, block IDs that wrap into it mod `period`.
    let spaces = [
        (None, nrows),
        (Some(&compacted), period),
        (Some(&blocks), period),
    ];
    for fmt in Format::ALL {
        let m = raw_matrix((nrows, ncols), &edges, fmt, true);
        for (row_ids, table_rows) in spaces {
            for dim in [0usize, 1, 3, 16, 17] {
                // Rows of negative zeros on either side: their dots are
                // `-0.0`, which only a sum started at `-0.0` reproduces.
                let b = table(table_rows, dim, 7, |r, _| (r % 9 == 1).then_some(-0.0));
                let c = table(ncols, dim, 8, |r, _| (r % 7 == 2).then_some(-0.0));
                let want: Vec<f32> = (m.iter_edges())
                    .map(|(r, col, _)| {
                        let g = row_ids.map_or(r, |ids| ids[r as usize]) as usize;
                        let br = b.row(if g < table_rows { g } else { g % table_rows });
                        br.iter()
                            .zip(c.row(col as usize))
                            .map(|(&x, &y)| x * y)
                            .sum()
                    })
                    .collect();
                let ids = row_ids.map(|ids| ids.as_slice());
                let got = spmm::sddmm_by_id(&m, ids, period, &b, &c).unwrap();
                let what = format!("{fmt:?} ids={} dim={dim}", row_ids.is_some());
                assert_eq!(got.format(), fmt, "{what}");
                assert_eq!(storage_edges(&got).len(), edges.len(), "{what}");
                assert_eq!(bits(got.values().unwrap()), bits(&want), "{what}");
                if row_ids.is_none() {
                    assert_eq!(spmm::sddmm(&m, &b, &c).unwrap(), got, "{what}");
                }
            }
        }
        // Without the wrap (the table is not `period` rows), a row ID
        // beyond the table is the typed error, not a panic — unless no
        // edge sits in that row.
        let (b, c) = (Dense::zeros(period, 4), Dense::zeros(ncols, 4));
        let err = spmm::sddmm_by_id(&m, Some(&blocks), period + 1, &b, &c).unwrap_err();
        let lhs_rows = gsampler_matrix::Error::ShapeMismatch {
            op: "sddmm lhs rows",
            lhs: (nrows, ncols),
            rhs: (period, 4),
        };
        assert_eq!(err, lhs_rows);
        let one_row: Vec<Edge> = edges.iter().copied().filter(|e| e.0 == 0).collect();
        let sparse = raw_matrix((nrows, ncols), &one_row, fmt, false);
        assert!(spmm::sddmm_by_id(&sparse, Some(&blocks), period + 1, &b, &c).is_ok());
        let empty = raw_matrix((nrows, ncols), &[], fmt, false);
        assert!(spmm::sddmm_by_id(&empty, None, 0, &Dense::zeros(0, 4), &c).is_ok());
    }
}

/// The tiled GEMM and the interleaved `matmul_t` against the naive loops
/// (ascending `k`, zero left elements skipped; a plain `.sum()` per dot)
/// on every ragged shape around the 4 × 16 panel and the 64-row block, with
/// zeros and a NaN in the left operand.
#[test]
fn dense_products_match_the_naive_loops_bit_for_bit() {
    for rows in [0usize, 1, 3, 4, 5, 63, 64, 65, 130] {
        for inner in [0usize, 1, 7, 100] {
            for cols in [1usize, 3, 15, 16, 17, 33] {
                let a = table(rows, inner, 1, |r, c| match (r + 3 * c) % 11 {
                    0 => Some(0.0),
                    5 if r == 2 => Some(f32::NAN),
                    _ => None,
                });
                let b = table(inner, cols, 2, |_, _| None);
                let mut want = vec![0f32; rows * cols];
                for i in 0..rows {
                    for k in (0..inner).filter(|&k| a.get(i, k) != 0.0) {
                        for j in 0..cols {
                            want[i * cols + j] += a.get(i, k) * b.get(k, j);
                        }
                    }
                }
                let got = a.matmul(&b).unwrap();
                let what = format!("{rows}x{inner}x{cols}");
                assert_eq!(got.shape(), (rows, cols), "{what}");
                assert_eq!(bits(got.as_slice()), bits(&want), "matmul {what}");

                let bt = b.transpose();
                let want_t: Vec<f32> = (0..rows * cols)
                    .map(|i| {
                        let (x, y) = (a.row(i / cols), bt.row(i % cols));
                        x.iter().zip(y).map(|(&x, &y)| x * y).sum()
                    })
                    .collect();
                let got_t = a.matmul_t(&bt).unwrap();
                assert_eq!(bits(got_t.as_slice()), bits(&want_t), "matmul_t {what}");
            }
        }
    }
}
