//! Sparse × dense multiplication kernels.
//!
//! [`spmm`] implements `A @ D` (paper Table 4): sparse `(N, M)` times dense
//! `(M, K)` gives dense `(N, K)`. [`sddmm`] computes per-edge dot products
//! `out[e] = B.row(r_e) · C.row(c_e)` — the sampled dense-dense product
//! PASS uses to turn feature projections into edge attention without
//! materializing the full dense `N × T` product.
//!
//! Both SpMM directions are one traversal: each output row is one line of a
//! compressed view (a CSR row for [`spmm`], a CSC column for [`spmm_t`]),
//! the pool claims lines, and a line adds `value · D.row(index)` edge by
//! edge in ascending index order. That order fixes every output element's
//! f32 rounding sequence, so the result is the same for any input format and
//! any thread count.

use gsampler_runtime::{parallel_map, parallel_scatter};

use crate::csc::Csc;
use crate::csr::Csr;
use crate::dense::{dots, Dense};
use crate::error::{Error, Result};
use crate::par_gate;
use crate::sparse::SparseMatrix;
use crate::{Axis, NodeId};

/// Sparse-matrix × dense-matrix product `A @ D`.
///
/// `A` is `(N, M)` sparse, `D` is `(M, K)` dense; the result is `(N, K)`
/// dense. Row `i` of the result aggregates `D`'s rows over `A`'s row-`i`
/// edges weighted by the edge values — exactly the neighbour-aggregation
/// primitive of GNNs.
///
/// The product is row-partitioned over the worker pool through a canonical
/// CSR view, which also pins the f32 accumulation order per output row —
/// results are identical for any input format and any thread count.
pub fn spmm(a: &SparseMatrix, d: &Dense) -> Result<Dense> {
    if a.ncols() != d.nrows() {
        return Err(Error::ShapeMismatch {
            op: "spmm",
            lhs: a.shape(),
            rhs: d.shape(),
        });
    }
    let owned: Csr;
    let csr = match a {
        SparseMatrix::Csr(m) => m,
        _ => {
            owned = a.to_csr();
            &owned
        }
    };
    Ok(spmm_lines(
        &csr.indptr,
        &csr.indices,
        csr.values.as_deref(),
        d,
    ))
}

/// Transposed SpMM: `A.T @ D`, aggregating over columns instead of rows.
///
/// `A` is `(N, M)` sparse, `D` is `(N, K)` dense; the result is `(M, K)`.
///
/// Column-partitioned through a canonical CSC view (each output row is one
/// column of `A`), with the same format- and thread-count-independence
/// guarantee as [`spmm`].
pub fn spmm_t(a: &SparseMatrix, d: &Dense) -> Result<Dense> {
    if a.nrows() != d.nrows() {
        return Err(Error::ShapeMismatch {
            op: "spmm_t",
            lhs: a.shape(),
            rhs: d.shape(),
        });
    }
    let owned: Csc;
    let csc = match a {
        SparseMatrix::Csc(m) => m,
        _ => {
            owned = a.to_csc();
            &owned
        }
    };
    Ok(spmm_lines(
        &csc.indptr,
        &csc.indices,
        csc.values.as_deref(),
        d,
    ))
}

/// The one product body over a compressed view with `indptr.len() - 1`
/// lines: `out.row(line) = Σ value · d.row(index)` over the line's edges,
/// summed from `0.0` in ascending position order. An unweighted edge has
/// value `1.0`, and `x + 1.0 * y` rounds exactly like `x + y`.
fn spmm_lines(indptr: &[usize], indices: &[NodeId], values: Option<&[f32]>, d: &Dense) -> Dense {
    let (nlines, k) = (indptr.len() - 1, d.ncols());
    let mut out = Dense::zeros(nlines, k);
    let offsets: Vec<usize> = (0..=nlines).map(|r| r * k).collect();
    let min_items = par_gate(indptr[nlines].saturating_mul(k));
    parallel_scatter(out.as_mut_slice(), &offsets, min_items, |r, dst| {
        for pos in indptr[r]..indptr[r + 1] {
            let v = values.map_or(1.0, |vals| vals[pos]);
            for (o, &x) in dst.iter_mut().zip(d.row(indices[pos] as usize)) {
                *o += v * x;
            }
        }
    });
    out
}

/// Sampled dense-dense multiplication: for every stored edge `(r, c)` of
/// `pattern`, compute `B.row(r) · C.row(c)`; the result is a sparse matrix
/// with `pattern`'s structure and the dot products as values.
///
/// `B` must have `pattern.nrows()` rows and `C` must have
/// `pattern.ncols()` rows; both must share the feature dimension.
pub fn sddmm(pattern: &SparseMatrix, b: &Dense, c: &Dense) -> Result<SparseMatrix> {
    if b.nrows() != pattern.nrows() {
        return shape_error("sddmm lhs rows", pattern.shape(), b);
    }
    sddmm_by_id(pattern, None, pattern.nrows(), b, c)
}

fn shape_error<T>(op: &'static str, lhs: (usize, usize), rhs: &Dense) -> Result<T> {
    let rhs = rhs.shape();
    Err(Error::ShapeMismatch { op, lhs, rhs })
}

/// [`sddmm`] with `B` indexed by each row's *global* ID — `row_ids[r]`, or
/// `r` without a table — so a compacted sub-matrix reads a full-graph table
/// directly and a block-diagonal super-batched one through `id mod period`
/// (only a table of exactly `period` rows wraps); an edge whose row the
/// table cannot serve is the `"sddmm lhs rows"` shape error.
///
/// The one SDDMM (`Op::Sddmm`, the eager baseline and [`sddmm`] run it), in
/// the storage it is handed: a CSC / CSR segment fixes one operand row (the
/// column's `C` row, the row's `B` row), gathers the other and writes its
/// dots into the output values on the pool ([`dots`]: strict order from
/// `-0.0`, four edges abreast); COO is one task per edge.
pub fn sddmm_by_id(
    pattern: &SparseMatrix,
    row_ids: Option<&[NodeId]>,
    period: usize,
    b: &Dense,
    c: &Dense,
) -> Result<SparseMatrix> {
    let lhs = RowsById::new(pattern, row_ids, period, b, c)?;
    let lhs = |r: usize| lhs.row(r);
    let min_items = par_gate(pattern.nnz().saturating_mul(b.ncols()));
    let values = match (pattern.compressed(), pattern) {
        (Some((axis, (indptr, indices, _))), _) => {
            let mut values = vec![0f32; pattern.nnz()];
            parallel_scatter(&mut values, indptr, min_items, |seg, out| {
                let ids = &indices[indptr[seg]..indptr[seg + 1]];
                match axis {
                    _ if ids.is_empty() => {}
                    Axis::Col => dots(c.row(seg), |e| lhs(ids[e] as usize), out),
                    Axis::Row => dots(lhs(seg), |e| c.row(ids[e] as usize), out),
                }
            });
            values
        }
        (None, SparseMatrix::Coo(m)) => parallel_map(m.nnz(), min_items, |e| {
            let (x, y) = (lhs(m.rows[e] as usize), c.row(m.cols[e] as usize));
            x.iter().zip(y).fold(-0.0, |dot, (&x, &y)| dot + x * y)
        }),
        (None, _) => unreachable!("only COO has no compressed axis"),
    };
    Ok(pattern.with_values(values))
}

/// The `B` operand of an SDDMM by row ID ([`sddmm_by_id`]), checked
/// against its pattern and `C`: [`row`](Self::row) is `B`'s row for a
/// pattern row. Per-edge dots evaluated elsewhere (a bias inside the
/// node-wise pick) read `B` through this one lookup.
#[derive(Clone, Copy)]
pub struct RowsById<'a> {
    b: &'a Dense,
    row_ids: Option<&'a [NodeId]>,
}

impl<'a> RowsById<'a> {
    /// Check `B` (rows by global ID, `row_ids[r]` or `r`) and `C` (one row
    /// per column) against `pattern`, with [`sddmm_by_id`]'s errors.
    pub fn new(
        pattern: &SparseMatrix,
        row_ids: Option<&'a [NodeId]>,
        period: usize,
        b: &'a Dense,
        c: &Dense,
    ) -> Result<RowsById<'a>> {
        if c.nrows() != pattern.ncols() {
            return shape_error("sddmm rhs rows", pattern.shape(), c);
        }
        if b.ncols() != c.ncols() {
            return shape_error("sddmm feature dims", b.shape(), c);
        }
        let (bn, by_id) = (b.nrows(), RowsById { b, row_ids });
        // Only a table of `period` rows wraps; any other must hold the row
        // of every edge (a row without edges may carry any ID).
        let mut served = true;
        if bn != period || bn == 0 {
            let rows = pattern.edge_index(Axis::Row);
            rows.for_each(|r, _| served &= by_id.id(r) < bn);
        }
        if !served {
            return shape_error("sddmm lhs rows", pattern.shape(), b);
        }
        Ok(by_id)
    }

    fn id(&self, r: usize) -> usize {
        self.row_ids.map_or(r, |ids| ids[r] as usize)
    }

    /// `B`'s row for pattern row `r`: its global ID's, wrapped by the
    /// table's length when beyond it.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        let (id, bn) = (self.id(r), self.b.nrows());
        self.b.row(if id < bn { id } else { id % bn.max(1) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::Format;

    fn sample() -> SparseMatrix {
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

    /// Deterministic pseudo-random CSR with sorted, duplicate-free rows.
    fn random_csr(nrows: usize, ncols: usize, avg_deg: usize, weighted: bool) -> SparseMatrix {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        for _ in 0..nrows {
            let deg = (rng() % (2 * avg_deg as u64 + 1)) as usize;
            let mut cols: Vec<NodeId> =
                (0..deg).map(|_| (rng() % ncols as u64) as NodeId).collect();
            cols.sort_unstable();
            cols.dedup();
            indices.extend_from_slice(&cols);
            indptr.push(indices.len());
        }
        let values = weighted.then(|| {
            (0..indices.len())
                .map(|_| (rng() % 1000) as f32 / 100.0 - 5.0)
                .collect()
        });
        SparseMatrix::Csr(Csr::new(nrows, ncols, indptr, indices, values).unwrap())
    }

    fn random_dense(nrows: usize, ncols: usize) -> Dense {
        let mut state = 0xfeed_beef_dead_cafeu64;
        let data = (0..nrows * ncols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f32 / 200.0 - 5.0
            })
            .collect();
        Dense::from_vec(nrows, ncols, data).unwrap()
    }

    #[test]
    fn spmm_against_dense_reference() {
        let a = sample();
        let d = Dense::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let out = spmm(&a, &d).unwrap();
        // Dense reference: materialize A and multiply.
        let mut a_dense = Dense::zeros(4, 3);
        for (r, c, v) in a.iter_edges() {
            a_dense.set(r as usize, c as usize, v);
        }
        let reference = a_dense.matmul(&d).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn spmm_format_independent() {
        let a = sample();
        let d = Dense::from_vec(3, 2, (0..6).map(|x| x as f32).collect()).unwrap();
        let reference = spmm(&a, &d).unwrap();
        for fmt in Format::ALL {
            assert_eq!(spmm(&a.to_format(fmt), &d).unwrap(), reference);
        }
    }

    #[test]
    fn spmm_t_is_transpose() {
        let a = sample();
        let d = Dense::from_vec(4, 2, (0..8).map(|x| x as f32).collect()).unwrap();
        let out = spmm_t(&a, &d).unwrap();
        assert_eq!(out.shape(), (3, 2));
        // Column 2 of A has edges (0,4.0),(1,5.0),(3,6.0):
        // out[2] = 4*d[0] + 5*d[1] + 6*d[3]
        assert_eq!(out.get(2, 0), 4.0 * 0.0 + 5.0 * 2.0 + 6.0 * 6.0);
        assert_eq!(out.get(2, 1), 4.0 * 1.0 + 5.0 * 3.0 + 6.0 * 7.0);
    }

    #[test]
    fn both_directions_sum_each_line_in_edge_order_bitwise() {
        // At a size that runs on the pool, `spmm` and `spmm_t` of the
        // transpose must both equal the one-edge-at-a-time scalar sum bit for
        // bit, weighted and not: the goldens pin those rounding sequences.
        let d = random_dense(1500, 17);
        for weighted in [true, false] {
            let a = random_csr(800, 1500, 20, weighted);
            let SparseMatrix::Csr(csr) = &a else {
                unreachable!("random_csr builds CSR")
            };
            let mut reference = Dense::zeros(csr.nrows, d.ncols());
            for r in 0..csr.nrows {
                for pos in csr.row_range(r) {
                    let (v, src) = (csr.value_at(pos), d.row(csr.indices[pos] as usize));
                    for (o, &x) in reference.row_mut(r).iter_mut().zip(src) {
                        *o += v * x;
                    }
                }
            }
            let (indptr, indices) = (csr.indptr.clone(), csr.indices.clone());
            let transposed = SparseMatrix::Csc(
                Csc::new(csr.ncols, csr.nrows, indptr, indices, csr.values.clone()).unwrap(),
            );
            let got = spmm(&a, &d).unwrap();
            assert_eq!(got.as_slice(), reference.as_slice(), "weighted={weighted}");
            let got_t = spmm_t(&transposed, &d).unwrap();
            assert_eq!(
                got_t.as_slice(),
                reference.as_slice(),
                "weighted={weighted}"
            );
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = sample();
        assert!(spmm(&a, &Dense::zeros(5, 2)).is_err());
        assert!(spmm_t(&a, &Dense::zeros(3, 2)).is_err());
    }

    #[test]
    fn sddmm_dot_products() {
        let a = sample();
        let b = Dense::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]).unwrap();
        let c = Dense::from_vec(3, 2, vec![1.0, 1.0, 2.0, 0.0, 0.0, 3.0]).unwrap();
        let out = sddmm(&a, &b, &c).unwrap();
        assert_eq!(out.nnz(), a.nnz());
        // Edge (0,0): b.row(0)=[1,0], c.row(0)=[1,1] -> 1.0
        // Edge (3,2): b.row(3)=[2,2], c.row(2)=[0,3] -> 6.0
        let edges = out.sorted_edges();
        assert!(edges.contains(&(0, 0, 1.0)));
        assert!(edges.contains(&(3, 2, 6.0)));
    }

    #[test]
    fn sddmm_shape_checks() {
        let a = sample();
        assert!(sddmm(&a, &Dense::zeros(3, 2), &Dense::zeros(3, 2)).is_err());
        assert!(sddmm(&a, &Dense::zeros(4, 2), &Dense::zeros(2, 2)).is_err());
        assert!(sddmm(&a, &Dense::zeros(4, 2), &Dense::zeros(3, 5)).is_err());
    }

    #[test]
    fn unweighted_spmm_sums_neighbours() {
        let a = SparseMatrix::Csc(Csc::new(2, 2, vec![0, 2, 2], vec![0, 1], None).unwrap());
        let d = Dense::from_vec(2, 1, vec![10.0, 20.0]).unwrap();
        let out = spmm(&a, &d).unwrap();
        assert_eq!(out.get(0, 0), 10.0);
        assert_eq!(out.get(1, 0), 10.0);
    }
}
