//! Selection kernels — the *select* step of the ECSF model.
//!
//! Two operators mirror the paper's Table 4:
//!
//! - [`individual_sample_seeded`]: each column (frontier) independently
//!   samples up to `K` of its stored edges — node-wise sampling (GraphSAGE,
//!   PASS, random walks with `K = 1`).
//! - [`collective_sample_seeded`]: sample `K` distinct *row* nodes across
//!   the whole matrix according to per-node bias — layer-wise sampling
//!   (FastGCN, LADIES, AS-GCN).
//!
//! Plus the reusable primitives they are built from: Efraimidis–Spirakis
//! weighted reservoir selection, Floyd's uniform combination sampling, and
//! [`AliasTable`] for O(1) weighted draws with replacement (the structure
//! SkyWalker-style baselines use).
//!
//! The operators take an [`RngPool`] (hence `_seeded`): column `c` (or
//! candidate `i`) always consumes RNG stream `c`, so the sampled output is
//! bit-identical at any worker-pool thread count.

use gsampler_runtime::{parallel_map, parallel_scatter, parallel_scatter2, RngPool};
use rand::rngs::StdRng;
use rand::Rng;

use crate::csc::Csc;
use crate::error::{Error, Result};
use crate::par_gate;
use crate::slice;
use crate::sparse::SparseMatrix;
use crate::NodeId;

/// A deterministic source of per-column RNG streams for the `_seeded`
/// sampling entry points.
///
/// [`RngPool`] is the canonical implementation (column `c` draws from
/// stream `c` of one pool). Callers that pack several independent batches
/// into one matrix — cross-request super-batching — implement this to
/// remap each column onto *its own batch's* pool, so the packed sample is
/// bit-identical to sampling every batch alone. `Sync` because streams are
/// derived on worker-pool threads.
pub trait StreamSource: Sync {
    /// The RNG stream for column (or candidate) `index`.
    fn stream(&self, index: u64) -> StdRng;
}

impl StreamSource for RngPool {
    fn stream(&self, index: u64) -> StdRng {
        RngPool::stream(self, index)
    }
}

/// Result of a collective (layer-wise) sampling step.
#[derive(Debug, Clone)]
pub struct CollectiveSample {
    /// The `K × ncols` sub-matrix containing only edges between the
    /// selected row nodes and the original columns.
    pub matrix: SparseMatrix,
    /// Local row indices (into the input matrix) of the selected rows, in
    /// ascending order; output row `i` corresponds to input row `rows[i]`.
    pub rows: Vec<NodeId>,
}

/// Sample up to `k` edges per column, independently, without replacement.
///
/// `probs`, when given, must have the same shape and sparsity pattern as
/// `m`; its edge values are the (unnormalized, non-negative) sampling bias.
/// When omitted, edges are sampled uniformly. Columns with degree `<= k`
/// keep all their edges. The result preserves `m`'s shape and edge values,
/// with only the selected edges stored.
///
/// Without replacement the output size of column `c` is known upfront
/// (`min(degree, k)`), so the output indptr is a prefix sum and each
/// column's segment is filled in parallel on the worker pool. Column `c`
/// always draws from `pool.stream(c)`, making the result independent of
/// the thread count.
pub fn individual_sample_seeded(
    m: &SparseMatrix,
    k: usize,
    probs: Option<&SparseMatrix>,
    pool: &impl StreamSource,
) -> Result<SparseMatrix> {
    let csc = m.to_csc();
    let probs_vals: Option<Vec<f32>> = match probs {
        Some(p) => {
            if p.shape() != m.shape() || p.nnz() != m.nnz() {
                return Err(Error::ShapeMismatch {
                    op: "individual_sample probs",
                    lhs: m.shape(),
                    rhs: p.shape(),
                });
            }
            let vals = p.to_csc().values_or_ones();
            validate_weights(&vals)?;
            Some(vals)
        }
        None => None,
    };

    let mut indptr = Vec::with_capacity(csc.ncols + 1);
    indptr.push(0usize);
    for c in 0..csc.ncols {
        indptr.push(indptr[c] + csc.col_degree(c).min(k));
    }
    let out_nnz = indptr[csc.ncols];

    let choose = |c: usize| -> Vec<usize> {
        let range = csc.col_range(c);
        let deg = range.len();
        let mut chosen: Vec<usize> = if deg <= k {
            (0..deg).collect()
        } else {
            let mut rng = pool.stream(c as u64);
            match &probs_vals {
                Some(w) => weighted_sample_without_replacement(&w[range], k, &mut rng),
                None => uniform_sample_without_replacement(deg, k, &mut rng),
            }
        };
        chosen.sort_unstable();
        chosen
    };

    let min_items = par_gate(out_nnz);
    let mut indices = vec![0 as NodeId; out_nnz];
    let values = match csc.values.as_ref() {
        Some(src) => {
            let mut values = vec![0f32; out_nnz];
            parallel_scatter2(
                &mut indices,
                &mut values,
                &indptr,
                min_items,
                |c, seg_i, seg_v| {
                    let start = csc.indptr[c];
                    for (slot, off) in choose(c).into_iter().enumerate() {
                        seg_i[slot] = csc.indices[start + off];
                        seg_v[slot] = src[start + off];
                    }
                },
            );
            Some(values)
        }
        None => {
            parallel_scatter(&mut indices, &indptr, min_items, |c, seg| {
                let start = csc.indptr[c];
                for (slot, off) in choose(c).into_iter().enumerate() {
                    seg[slot] = csc.indices[start + off];
                }
            });
            None
        }
    };

    let out = Csc {
        nrows: csc.nrows,
        ncols: csc.ncols,
        indptr,
        indices,
        values,
    };
    Ok(SparseMatrix::Csc(out).to_format(m.format()))
}

/// Sample up to `k` edges per column *with* replacement (duplicate edges
/// collapse to one stored edge; useful for random-walk style semantics
/// where revisiting is allowed).
///
/// Deduplication makes per-column output sizes data-dependent, so the
/// draws run in parallel (column `c` on `pool.stream(c)`) and the output
/// is assembled sequentially from the per-column pick lists.
pub fn individual_sample_with_replacement_seeded(
    m: &SparseMatrix,
    k: usize,
    probs: Option<&SparseMatrix>,
    pool: &impl StreamSource,
) -> Result<SparseMatrix> {
    let csc = m.to_csc();
    let probs_vals: Option<Vec<f32>> = match probs {
        Some(p) => {
            if p.shape() != m.shape() || p.nnz() != m.nnz() {
                return Err(Error::ShapeMismatch {
                    op: "individual_sample_with_replacement probs",
                    lhs: m.shape(),
                    rhs: p.shape(),
                });
            }
            let vals = p.to_csc().values_or_ones();
            validate_weights(&vals)?;
            Some(vals)
        }
        None => None,
    };
    // Alias-table construction fails on a non-empty all-zero column;
    // surface that before entering the parallel region, where errors
    // cannot propagate.
    if let Some(w) = &probs_vals {
        for c in 0..csc.ncols {
            let range = csc.col_range(c);
            if !range.is_empty() && !w[range].iter().any(|&x| x > 0.0) {
                return Err(Error::InvalidProbability {
                    index: 0,
                    value: 0.0,
                });
            }
        }
    }

    let picks: Vec<Vec<usize>> = parallel_map(
        csc.ncols,
        par_gate(csc.ncols.saturating_mul(k.max(1))),
        |c| {
            let range = csc.col_range(c);
            let deg = range.len();
            if deg == 0 {
                return Vec::new();
            }
            let mut rng = pool.stream(c as u64);
            let mut picked: Vec<usize> = Vec::with_capacity(k);
            match &probs_vals {
                Some(w) => {
                    let table = AliasTable::new(&w[range]).expect("weights validated above");
                    for _ in 0..k {
                        picked.push(table.sample(&mut rng));
                    }
                }
                None => {
                    for _ in 0..k {
                        picked.push(rng.gen_range(0..deg));
                    }
                }
            }
            picked.sort_unstable();
            picked.dedup();
            picked
        },
    );

    let mut indptr = Vec::with_capacity(csc.ncols + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut values = csc.values.as_ref().map(|_| Vec::new());
    for (c, offs) in picks.iter().enumerate() {
        let start = csc.indptr[c];
        for &off in offs {
            indices.push(csc.indices[start + off]);
            if let Some(out) = values.as_mut() {
                out.push(csc.value_at(start + off));
            }
        }
        indptr.push(indices.len());
    }

    let out = Csc {
        nrows: csc.nrows,
        ncols: csc.ncols,
        indptr,
        indices,
        values,
    };
    Ok(SparseMatrix::Csc(out).to_format(m.format()))
}

/// Sample `k` distinct row nodes of `m` without replacement according to
/// `node_probs` and return the row-sliced sub-matrix.
///
/// `node_probs`, when given, must have length `m.nrows()`; rows with zero
/// bias are never selected. When omitted, each row's bias is its degree in
/// `m` (each edge contributes bias 1, per the paper's default). If fewer
/// than `k` rows have positive bias, all of them are taken.
///
/// The Efraimidis–Spirakis keys are computed candidate-parallel on the
/// worker pool, candidate `i` always drawing from `pool.stream(i)`.
pub fn collective_sample_seeded(
    m: &SparseMatrix,
    k: usize,
    node_probs: Option<&[f32]>,
    pool: &RngPool,
) -> Result<CollectiveSample> {
    let nrows = m.nrows();
    let weights: Vec<f32> = match node_probs {
        Some(p) => {
            if p.len() != nrows {
                return Err(Error::LengthMismatch {
                    op: "collective_sample node_probs",
                    expected: nrows,
                    actual: p.len(),
                });
            }
            validate_weights(p)?;
            p.to_vec()
        }
        None => m.row_degrees().iter().map(|&d| d as f32).collect(),
    };

    let candidates: Vec<usize> = (0..nrows).filter(|&i| weights[i] > 0.0).collect();
    let mut rows: Vec<NodeId> = if candidates.len() <= k {
        candidates.iter().map(|&i| i as NodeId).collect()
    } else {
        let cand_weights: Vec<f32> = candidates.iter().map(|&i| weights[i]).collect();
        weighted_sample_without_replacement_seeded(&cand_weights, k, pool)
            .into_iter()
            .map(|off| candidates[off] as NodeId)
            .collect()
    };
    rows.sort_unstable();

    let matrix = slice::slice_rows(m, &rows)?;
    Ok(CollectiveSample { matrix, rows })
}

/// Draw `k` distinct indices from `0..weights.len()` with probability
/// proportional to `weights`, via the Efraimidis–Spirakis exponential-key
/// method (each item gets key `-ln(u)/w`; the `k` smallest keys win).
///
/// # Panics
///
/// Panics if `k > weights.len()`; callers clamp first.
pub fn weighted_sample_without_replacement(
    weights: &[f32],
    k: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    assert!(k <= weights.len(), "k must not exceed the population");
    let mut keys: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let key = if w > 0.0 {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() / w as f64
            } else {
                f64::INFINITY
            };
            (key, i)
        })
        .collect();
    keys.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    keys.into_iter().take(k).map(|(_, i)| i).collect()
}

/// [`weighted_sample_without_replacement`] with one RNG stream per item:
/// item `i`'s exponential key is drawn from `pool.stream(i)`, so the key
/// vector (computed item-parallel on the worker pool) and therefore the
/// selection are independent of the thread count.
///
/// # Panics
///
/// Panics if `k > weights.len()`; callers clamp first.
pub fn weighted_sample_without_replacement_seeded(
    weights: &[f32],
    k: usize,
    pool: &RngPool,
) -> Vec<usize> {
    assert!(k <= weights.len(), "k must not exceed the population");
    let keys: Vec<f64> = parallel_map(weights.len(), par_gate(weights.len()), |i| {
        if weights[i] > 0.0 {
            let u: f64 = pool.stream(i as u64).gen_range(f64::MIN_POSITIVE..1.0);
            -u.ln() / weights[i] as f64
        } else {
            f64::INFINITY
        }
    });
    // Stable sort: ties resolve by index, matching the sequential variant.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        keys[a]
            .partial_cmp(&keys[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order.truncate(k);
    order
}

/// Draw `k` distinct indices from `0..n` uniformly, via Floyd's algorithm
/// (O(k) expected work, no allocation proportional to `n`).
///
/// # Panics
///
/// Panics if `k > n`; callers clamp first.
pub fn uniform_sample_without_replacement(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    assert!(k <= n, "k must not exceed the population");
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out
}

/// Walker's alias table: O(n) construction, O(1) weighted draws with
/// replacement. This is the sampling structure SkyWalker builds per
/// adjacency list; the vertex-centric baseline reuses it.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build an alias table from non-negative weights (not all zero).
    pub fn new(weights: &[f32]) -> Result<AliasTable> {
        let n = weights.len();
        if n == 0 {
            return Err(Error::InvalidStructure {
                reason: "alias table needs at least one weight".to_string(),
            });
        }
        validate_weights(weights)?;
        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        if total <= 0.0 {
            return Err(Error::InvalidProbability {
                index: 0,
                value: 0.0,
            });
        }
        let scaled: Vec<f64> = weights
            .iter()
            .map(|&w| (w as f64) * n as f64 / total)
            .collect();
        let mut prob = vec![0f64; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        let mut scaled = scaled;
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Draw one index with probability proportional to the build weights.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen_range(0f64..1f64) < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no entries (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

fn validate_weights(weights: &[f32]) -> Result<()> {
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(Error::InvalidProbability { index: i, value: w });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::Format;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn pool() -> RngPool {
        RngPool::new(7)
    }

    fn sample_matrix() -> SparseMatrix {
        // 6x3; col0 deg 4, col1 deg 2, col2 deg 0
        SparseMatrix::Csc(
            Csc::new(
                6,
                3,
                vec![0, 4, 6, 6],
                vec![0, 2, 3, 5, 1, 4],
                Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            )
            .unwrap(),
        )
    }

    #[test]
    fn individual_respects_fanout() {
        let m = sample_matrix();
        let out = individual_sample_seeded(&m, 2, None, &pool()).unwrap();
        assert_eq!(out.shape(), m.shape());
        assert_eq!(out.col_degrees(), vec![2, 2, 0]);
        // Selected edges are a subset of the input's.
        let input: std::collections::HashSet<_> = m
            .sorted_edges()
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        for (r, c, _) in out.iter_edges() {
            assert!(input.contains(&(r, c)));
        }
    }

    #[test]
    fn individual_small_degree_keeps_all() {
        let m = sample_matrix();
        let out = individual_sample_seeded(&m, 10, None, &pool()).unwrap();
        assert_eq!(out.nnz(), m.nnz());
    }

    #[test]
    fn individual_output_format_matches_input() {
        let m = sample_matrix();
        for fmt in Format::ALL {
            let out = individual_sample_seeded(&m.to_format(fmt), 2, None, &pool()).unwrap();
            assert_eq!(out.format(), fmt);
        }
    }

    #[test]
    fn individual_biased_prefers_heavy_edges() {
        // Column 0 with one overwhelmingly heavy edge: it must virtually
        // always be selected.
        let m = SparseMatrix::Csc(Csc::new(4, 1, vec![0, 4], vec![0, 1, 2, 3], None).unwrap());
        let mut probs = m.clone();
        probs.set_values(vec![1e-6, 1e-6, 1e-6, 1.0]);
        let mut hit = 0;
        for seed in 0..50 {
            let out = individual_sample_seeded(&m, 1, Some(&probs), &RngPool::new(seed)).unwrap();
            if out.iter_edges().any(|(row, _, _)| row == 3) {
                hit += 1;
            }
        }
        assert!(hit >= 48, "heavy edge selected only {hit}/50 times");
    }

    #[test]
    fn individual_rejects_mismatched_probs() {
        let m = sample_matrix();
        let bad = SparseMatrix::Csc(Csc::new(6, 3, vec![0, 1, 1, 1], vec![0], None).unwrap());
        assert!(individual_sample_seeded(&m, 2, Some(&bad), &pool()).is_err());
    }

    #[test]
    fn with_replacement_bounded_by_k_and_degree() {
        let m = sample_matrix();
        let out = individual_sample_with_replacement_seeded(&m, 3, None, &pool()).unwrap();
        for (c, d) in out.col_degrees().into_iter().enumerate() {
            assert!(d <= 3, "column {c} kept {d} > 3 edges");
        }
    }

    #[test]
    fn collective_selects_k_rows() {
        let m = sample_matrix();
        let out = collective_sample_seeded(&m, 3, None, &pool()).unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.matrix.shape(), (3, 3));
        // Rows are ascending and unique.
        assert!(out.rows.windows(2).all(|w| w[0] < w[1]));
        // Zero-degree rows never selected under default (degree) bias.
        // Rows present in m: {0,1,2,3,4,5} all have degree >= 1 except none.
    }

    #[test]
    fn collective_zero_bias_rows_excluded() {
        let m = sample_matrix();
        let mut probs = vec![1.0f32; 6];
        probs[0] = 0.0;
        probs[5] = 0.0;
        for seed in 0..20 {
            let out = collective_sample_seeded(&m, 4, Some(&probs), &RngPool::new(seed)).unwrap();
            assert!(!out.rows.contains(&0));
            assert!(!out.rows.contains(&5));
        }
    }

    #[test]
    fn collective_takes_all_when_k_large() {
        let m = sample_matrix();
        let out = collective_sample_seeded(&m, 100, None, &pool()).unwrap();
        // All rows with degree > 0: every row of the 6 appears in edges.
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn collective_rejects_bad_probs() {
        let m = sample_matrix();
        assert!(collective_sample_seeded(&m, 2, Some(&[1.0, 2.0]), &pool()).is_err());
        let neg = vec![1.0, -1.0, 1.0, 1.0, 1.0, 1.0];
        assert!(collective_sample_seeded(&m, 2, Some(&neg), &pool()).is_err());
    }

    #[test]
    fn efraimidis_spirakis_distribution() {
        // Weight 9:1 between two items; item 0 should be first pick ~90%.
        let mut r = rng();
        let mut first0 = 0;
        for _ in 0..1000 {
            let picks = weighted_sample_without_replacement(&[9.0, 1.0], 1, &mut r);
            if picks[0] == 0 {
                first0 += 1;
            }
        }
        assert!((850..950).contains(&first0), "got {first0}/1000");
    }

    #[test]
    fn floyd_sampling_uniform_and_distinct() {
        let mut r = rng();
        for _ in 0..100 {
            let picks = uniform_sample_without_replacement(10, 4, &mut r);
            assert_eq!(picks.len(), 4);
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), 4);
            assert!(picks.iter().all(|&p| p < 10));
        }
    }

    #[test]
    fn alias_table_distribution() {
        let table = AliasTable::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut r = rng();
        let mut counts = [0usize; 3];
        let n = 20_000;
        for _ in 0..n {
            counts[table.sample(&mut r)] += 1;
        }
        let f2 = counts[2] as f64 / n as f64;
        assert!((f2 - 0.7).abs() < 0.03, "p(2) = {f2}");
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.1).abs() < 0.02, "p(0) = {f0}");
    }

    #[test]
    fn alias_table_rejects_degenerate() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, f32::NAN]).is_err());
        assert!(AliasTable::new(&[-1.0]).is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = sample_matrix();
        let a = individual_sample_seeded(&m, 2, None, &pool()).unwrap();
        let b = individual_sample_seeded(&m, 2, None, &pool()).unwrap();
        assert_eq!(a, b);
    }
}
