//! Axis reductions over edge values (edge-reduce kernels).
//!
//! `reduce(A, ReduceOp::Sum, Axis::Row)` returns a vector of length
//! `A.nrows` whose entry `i` aggregates the values of all edges in row `i`
//! — in the sampling setting this sums each candidate node's bias across
//! all frontiers (LADIES, Fig. 3b line 3). These are the *edge-reduce*
//! operators of the fusion taxonomy in paper §4.2.
//!
//! Every reduction walks the storage arrays directly through the matrix's
//! per-(format, axis) edge index (`SparseMatrix::edge_index`): a slot's
//! edges are visited in storage order, by one thread, so a sum is the same
//! bits in every run. [`reduce_with`] takes the edge values from a closure,
//! so a fused edge-map chain reduces over its *input's* structure without
//! building a matrix, and [`reduce_col_groups`] folds a graph's frontier
//! columns without building the extract. The boxed edge iterator is for
//! tests and cold paths.

use gsampler_runtime::parallel_scatter;

use crate::csc::Csc;
use crate::par_gate;
use crate::sparse::{EdgeIndex, SparseMatrix};
use crate::{Axis, NodeId, ReduceOp};

/// The edges a reduction folds, as `(slot, storage position)`, in order.
trait Edges {
    fn each(&self, f: impl FnMut(usize, usize));
}

impl Edges for EdgeIndex<'_> {
    fn each(&self, f: impl FnMut(usize, usize)) {
        self.for_each(f)
    }
}

/// The row edges of `src[:, cols]` read from `src`, in the extract's order.
struct ColumnRows<'a>(&'a Csc, &'a [NodeId]);

impl Edges for ColumnRows<'_> {
    fn each(&self, mut f: impl FnMut(usize, usize)) {
        for &c in self.1 {
            let range = self.0.col_range(c as usize);
            let rows = &self.0.indices[range.clone()];
            range.zip(rows).for_each(|(e, &r)| f(r as usize, e));
        }
    }
}

/// Reduce edge values onto one axis, returning a dense vector indexed by
/// that axis (length `nrows` for `Axis::Row`, `ncols` for `Axis::Col`).
///
/// Nodes with no incident edges get 0.0 regardless of the reduction (the
/// identity the paper's bias computations expect for isolated candidates).
pub fn reduce(m: &SparseMatrix, op: ReduceOp, axis: Axis) -> Vec<f32> {
    match m.values() {
        Some(v) => reduce_with(m, op, axis, |e| v[e]),
        None => reduce_with(m, op, axis, |_| 1.0),
    }
}

/// [`reduce`] over `m`'s structure with `value_of(e)` standing in for the
/// value of the edge stored at position `e`.
pub fn reduce_with(
    m: &SparseMatrix,
    op: ReduceOp,
    axis: Axis,
    value_of: impl Fn(usize) -> f32,
) -> Vec<f32> {
    let n = match axis {
        Axis::Row => m.nrows(),
        Axis::Col => m.ncols(),
    };
    let edges = m.edge_index(axis);
    // Degree scan: when the format compresses the reduced axis the counts
    // are indptr differences — no edge traversal at all. Bit-exact with the
    // incremental loop as long as every degree is f32-representable (+1.0
    // saturates at 2^24, direct conversion rounds; below that both are
    // exact).
    if let (ReduceOp::Count, EdgeIndex::Segments(indptr)) = (op, &edges) {
        if indptr.windows(2).all(|w| w[1] - w[0] <= 1 << 24) {
            return indptr.windows(2).map(|w| (w[1] - w[0]) as f32).collect();
        }
    }
    let mut out = vec![0f32; n];
    fold(&mut out, op, edges, value_of);
    out
}

/// The row reduction of `src[:, cols]` sliced block-diagonally, without
/// the slice: group `b`, columns `cols[groups[b]..groups[b + 1]]`, folds
/// onto its own `src.nrows` rows, block `b` of the output. The blocks are
/// disjoint, so each is one work item on the worker pool. [`ColumnRows`]
/// folds in the extract's order, so these are the bits of its
/// [`reduce_with`] at any thread count.
pub fn reduce_col_groups(
    src: &Csc,
    cols: &[NodeId],
    groups: &[usize],
    op: ReduceOp,
    value_of: impl Fn(usize) -> f32 + Sync,
) -> Vec<f32> {
    let blocks = groups.len().saturating_sub(1);
    let mut out = vec![0f32; blocks * src.nrows];
    let offsets: Vec<usize> = (0..=blocks).map(|b| b * src.nrows).collect();
    let gate = par_gate(cols.iter().map(|&c| src.col_range(c as usize).len()).sum());
    parallel_scatter(&mut out, &offsets, gate, |b, block| {
        let edges = ColumnRows(src, &cols[groups[b]..groups[b + 1]]);
        fold(block, op, edges, &value_of);
    });
    out
}

/// Fold `edges` into the zeroed slots `out`.
fn fold(out: &mut [f32], op: ReduceOp, edges: impl Edges, value_of: impl Fn(usize) -> f32) {
    match op {
        ReduceOp::Sum => edges.each(|i, e| out[i] += value_of(e)),
        ReduceOp::Count => edges.each(|i, _| out[i] += 1.0),
        ReduceOp::Max | ReduceOp::Min => {
            let (start, pick): (f32, fn(f32, f32) -> f32) = match op {
                ReduceOp::Max => (f32::NEG_INFINITY, f32::max),
                _ => (f32::INFINITY, f32::min),
            };
            out.fill(start);
            let mut seen = vec![false; out.len()];
            edges.each(|i, e| {
                out[i] = pick(out[i], value_of(e));
                seen[i] = true;
            });
            for (o, &s) in out.iter_mut().zip(&seen) {
                if !s {
                    *o = 0.0;
                }
            }
        }
        ReduceOp::Mean => {
            let mut cnt = vec![0f32; out.len()];
            edges.each(|i, e| {
                out[i] += value_of(e);
                cnt[i] += 1.0;
            });
            for (s, &c) in out.iter_mut().zip(&cnt) {
                if c > 0.0 {
                    *s /= c;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::Format;

    fn sample() -> SparseMatrix {
        // 4x3 with values 1..=6 (see csc.rs sample)
        SparseMatrix::Csc(
            Csc::new(
                4,
                3,
                vec![0, 2, 3, 6],
                vec![0, 2, 1, 0, 1, 3],
                Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            )
            .unwrap(),
        )
    }

    #[test]
    fn sum_rows_and_cols() {
        let m = sample();
        assert_eq!(
            reduce(&m, ReduceOp::Sum, Axis::Row),
            vec![5.0, 8.0, 2.0, 6.0]
        );
        assert_eq!(reduce(&m, ReduceOp::Sum, Axis::Col), vec![3.0, 3.0, 15.0]);
    }

    #[test]
    fn reductions_format_independent() {
        let m = sample();
        for fmt in Format::ALL {
            let c = m.to_format(fmt);
            for op in [
                ReduceOp::Sum,
                ReduceOp::Max,
                ReduceOp::Min,
                ReduceOp::Mean,
                ReduceOp::Count,
            ] {
                assert_eq!(
                    reduce(&c, op, Axis::Row),
                    reduce(&m, op, Axis::Row),
                    "op {op:?} fmt {fmt:?}"
                );
            }
        }
    }

    #[test]
    fn count_is_degree() {
        let m = sample();
        assert_eq!(reduce(&m, ReduceOp::Count, Axis::Col), vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn max_min_mean() {
        let m = sample();
        assert_eq!(reduce(&m, ReduceOp::Max, Axis::Col), vec![2.0, 3.0, 6.0]);
        assert_eq!(reduce(&m, ReduceOp::Min, Axis::Col), vec![1.0, 3.0, 4.0]);
        assert_eq!(reduce(&m, ReduceOp::Mean, Axis::Col), vec![1.5, 3.0, 5.0]);
    }

    #[test]
    fn isolated_nodes_get_zero() {
        let m = SparseMatrix::Csc(Csc::new(3, 2, vec![0, 1, 1], vec![2], Some(vec![4.0])).unwrap());
        assert_eq!(reduce(&m, ReduceOp::Max, Axis::Row), vec![0.0, 0.0, 4.0]);
        assert_eq!(reduce(&m, ReduceOp::Min, Axis::Col), vec![4.0, 0.0]);
    }

    #[test]
    fn unweighted_sum_counts_edges() {
        let m = SparseMatrix::Csc(Csc::new(2, 2, vec![0, 2, 2], vec![0, 1], None).unwrap());
        assert_eq!(reduce(&m, ReduceOp::Sum, Axis::Col), vec![2.0, 0.0]);
    }
}
