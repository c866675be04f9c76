//! Lossless conversions between the three sparse formats.
//!
//! Conversion costs are asymmetric (paper Table 5: CSC→COO is a cheap
//! expansion, COO→CSR requires a counting sort over rows), which is exactly
//! what the data-layout-selection pass in `gsampler-ir` prices. The
//! functions here implement the conversions; the engine layer accounts
//! their cost.

use gsampler_runtime::{parallel_scatter, parallel_scatter2};

use crate::coo::Coo;
use crate::csc::Csc;
use crate::csr::Csr;
use crate::par_gate;
use crate::NodeId;

/// Expand a CSC matrix into column-sorted COO (cheap: the row side is a
/// straight copy and the column side is a segment fill over the indptr,
/// run on the worker pool).
pub(crate) fn csc_to_coo(m: &Csc) -> Coo {
    let nnz = m.nnz();
    let rows = m.indices.clone();
    let mut cols = vec![0 as NodeId; nnz];
    parallel_scatter(&mut cols, &m.indptr, par_gate(nnz), |c, seg| {
        seg.fill(c as NodeId);
    });
    Coo {
        nrows: m.nrows,
        ncols: m.ncols,
        rows,
        cols,
        values: m.values.clone(),
    }
}

/// Expand a CSR matrix into row-sorted COO (cheap; see [`csc_to_coo`]).
pub(crate) fn csr_to_coo(m: &Csr) -> Coo {
    let nnz = m.nnz();
    let cols = m.indices.clone();
    let mut rows = vec![0 as NodeId; nnz];
    parallel_scatter(&mut rows, &m.indptr, par_gate(nnz), |r, seg| {
        seg.fill(r as NodeId);
    });
    Coo {
        nrows: m.nrows,
        ncols: m.ncols,
        rows,
        cols,
        values: m.values.clone(),
    }
}

/// Compress a COO matrix into CSC via counting sort over columns
/// (stable, so row order within a column is preserved when the input is
/// column-sorted; otherwise rows are sorted per column afterwards).
pub(crate) fn coo_to_csc(m: &Coo) -> Csc {
    let nnz = m.nnz();
    let mut counts = vec![0usize; m.ncols + 1];
    for &c in &m.cols {
        counts[c as usize + 1] += 1;
    }
    for i in 0..m.ncols {
        counts[i + 1] += counts[i];
    }
    let indptr = counts.clone();
    let mut cursor = counts;
    let mut indices = vec![0 as NodeId; nnz];
    let mut values = m.values.as_ref().map(|_| vec![0f32; nnz]);
    for i in 0..nnz {
        let c = m.cols[i] as usize;
        let dst = cursor[c];
        cursor[c] += 1;
        indices[dst] = m.rows[i];
        if let (Some(out), Some(src)) = (values.as_mut(), m.values.as_ref()) {
            out[dst] = src[i];
        }
    }
    sort_segments(&indptr, &mut indices, values.as_deref_mut());
    Csc {
        nrows: m.nrows,
        ncols: m.ncols,
        indptr,
        indices,
        values,
    }
}

/// Compress a COO matrix into CSR via counting sort over rows.
pub fn coo_to_csr(m: &Coo) -> Csr {
    let nnz = m.nnz();
    let mut counts = vec![0usize; m.nrows + 1];
    for &r in &m.rows {
        counts[r as usize + 1] += 1;
    }
    for i in 0..m.nrows {
        counts[i + 1] += counts[i];
    }
    let indptr = counts.clone();
    let mut cursor = counts;
    let mut indices = vec![0 as NodeId; nnz];
    let mut values = m.values.as_ref().map(|_| vec![0f32; nnz]);
    for i in 0..nnz {
        let r = m.rows[i] as usize;
        let dst = cursor[r];
        cursor[r] += 1;
        indices[dst] = m.cols[i];
        if let (Some(out), Some(src)) = (values.as_mut(), m.values.as_ref()) {
            out[dst] = src[i];
        }
    }
    sort_segments(&indptr, &mut indices, values.as_deref_mut());
    Csr {
        nrows: m.nrows,
        ncols: m.ncols,
        indptr,
        indices,
        values,
    }
}

/// Transpose-style conversion CSC → CSR (via the column-sorted COO view).
pub fn csc_to_csr(m: &Csc) -> Csr {
    coo_to_csr(&csc_to_coo(m))
}

/// Transpose-style conversion CSR → CSC (via the row-sorted COO view).
pub(crate) fn csr_to_csc(m: &Csr) -> Csc {
    coo_to_csc(&csr_to_coo(m))
}

/// Sort one column/row segment by index, carrying values along when present.
/// Stable for the weighted case, matching the previous counting-sort order.
pub(crate) fn sort_segment(seg_i: &mut [NodeId], seg_v: Option<&mut [f32]>) {
    if seg_i.len() <= 1 || seg_i.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    match seg_v {
        Some(vals) => {
            let mut entries: Vec<(NodeId, f32)> =
                seg_i.iter().copied().zip(vals.iter().copied()).collect();
            entries.sort_by_key(|(idx, _)| *idx);
            for (pos, (idx, v)) in entries.into_iter().enumerate() {
                seg_i[pos] = idx;
                vals[pos] = v;
            }
        }
        None => seg_i.sort_unstable(),
    }
}

/// The canonical within-segment order of a compressed matrix: every
/// column (CSC) / row (CSR) segment ascending by index, values carried
/// along, on the worker pool. A segment that is already strictly
/// ascending costs one scan.
pub(crate) fn sort_segments(indptr: &[usize], indices: &mut [NodeId], values: Option<&mut [f32]>) {
    let min_items = par_gate(indices.len());
    match values {
        Some(vals) => parallel_scatter2(indices, vals, indptr, min_items, |_, seg_i, seg_v| {
            sort_segment(seg_i, Some(seg_v));
        }),
        None => parallel_scatter(indices, indptr, min_items, |_, seg_i| {
            sort_segment(seg_i, None);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csc() -> Csc {
        Csc::new(
            4,
            3,
            vec![0, 2, 3, 6],
            vec![0, 2, 1, 0, 1, 3],
            Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        .unwrap()
    }

    #[test]
    fn csc_coo_roundtrip() {
        let csc = sample_csc();
        let coo = csc_to_coo(&csc);
        assert!(coo.is_col_sorted());
        let back = coo_to_csc(&coo);
        assert_eq!(back, csc);
    }

    #[test]
    fn csc_csr_roundtrip() {
        let csc = sample_csc();
        let csr = csc_to_csr(&csc);
        csr.validate().unwrap();
        assert_eq!(csr.shape(), csc.shape());
        assert_eq!(csr.nnz(), csc.nnz());
        // Edge (3, 2, 6.0) must survive the transpose of representation.
        assert_eq!(csr.get(3, 2), Some(6.0));
        let back = csr_to_csc(&csr);
        assert_eq!(back, csc);
    }

    #[test]
    fn unsorted_coo_is_canonicalized() {
        let coo = Coo::new(
            3,
            2,
            vec![2, 0, 1],
            vec![1, 1, 0],
            Some(vec![9.0, 8.0, 7.0]),
        )
        .unwrap();
        let csc = coo_to_csc(&coo);
        csc.validate().unwrap();
        assert_eq!(csc.col_rows(1), &[0, 2]);
        assert_eq!(csc.get(0, 1), Some(8.0));
        let csr = coo_to_csr(&coo);
        csr.validate().unwrap();
        assert_eq!(csr.get(2, 1), Some(9.0));
    }

    #[test]
    fn unweighted_conversion() {
        let csc = Csc::new(2, 2, vec![0, 1, 2], vec![1, 0], None).unwrap();
        let csr = csc_to_csr(&csc);
        assert!(csr.values.is_none());
        assert!(csr.contains_edge(1, 0));
        assert!(csr.contains_edge(0, 1));
    }

    #[test]
    fn empty_conversions() {
        let csc = Csc::empty(3, 5);
        let coo = csc_to_coo(&csc);
        assert_eq!(coo.nnz(), 0);
        let csr = coo_to_csr(&coo);
        assert_eq!(csr.shape(), (3, 5));
        csr.validate().unwrap();
    }
}
