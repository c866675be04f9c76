//! Vector broadcasts over edge values (edge-map kernels).
//!
//! `broadcast(A, v, EltOp::Div, Axis::Col)` divides each edge `(r, c)` by
//! `v[c]` — this is `A.div(V, axis)` from the paper's API (Table 4) and the
//! canonical *edge-map* operator of the fusion taxonomy in §4.2 (LADIES'
//! per-frontier weight normalization, Fig. 3b lines 6-7).
//!
//! The edge -> row/column lookup is the matrix's per-(format, axis) edge
//! index (`SparseMatrix::edge_index`), walked in storage order; no
//! per-edge index list is built.

use crate::error::{Error, Result};
use crate::sparse::SparseMatrix;
use crate::{Axis, EltOp};

/// Apply `edge_value <op> v[index(axis)]` to every edge, returning a new
/// matrix with the same sparsity pattern.
///
/// `v` must have length `nrows` for `Axis::Row` or `ncols` for `Axis::Col`.
pub fn broadcast(m: &SparseMatrix, v: &[f32], op: EltOp, axis: Axis) -> Result<SparseMatrix> {
    let mut out = m.clone();
    broadcast_values(m, out.values_mut(), v, op, axis)?;
    Ok(out)
}

/// [`broadcast`] onto a value array held apart from the matrix: `values`
/// are the edge values of `m`'s pattern in storage order and are updated
/// in place. Fused edge-map chains own their values and borrow `m`'s
/// structure, so a chain of broadcasts never clones it.
pub fn broadcast_values(
    m: &SparseMatrix,
    values: &mut [f32],
    v: &[f32],
    op: EltOp,
    axis: Axis,
) -> Result<()> {
    let expected = match axis {
        Axis::Row => m.nrows(),
        Axis::Col => m.ncols(),
    };
    if v.len() != expected {
        return Err(Error::LengthMismatch {
            op: "broadcast",
            expected,
            actual: v.len(),
        });
    }
    assert_eq!(values.len(), m.nnz(), "value array must match nnz");
    m.edge_index(axis)
        .for_each(|i, e| values[e] = op.apply(values[e], v[i]));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::reduce::reduce;
    use crate::{Format, ReduceOp};

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

    #[test]
    fn div_by_column_sums_normalizes() {
        let m = sample();
        let sums = reduce(&m, ReduceOp::Sum, Axis::Col);
        let n = broadcast(&m, &sums, EltOp::Div, Axis::Col).unwrap();
        let new_sums = reduce(&n, ReduceOp::Sum, Axis::Col);
        for s in new_sums {
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn row_broadcast_add() {
        let m = sample();
        let v = vec![10.0, 20.0, 30.0, 40.0];
        let n = broadcast(&m, &v, EltOp::Add, Axis::Row).unwrap();
        // Edge (2, 0) has value 2.0, row 2 adds 30.0.
        let edges = n.sorted_edges();
        assert!(edges.contains(&(2, 0, 32.0)));
        assert!(edges.contains(&(3, 2, 46.0)));
    }

    #[test]
    fn broadcast_format_independent() {
        let m = sample();
        let v = vec![2.0, 4.0, 8.0];
        let reference = broadcast(&m, &v, EltOp::Mul, Axis::Col)
            .unwrap()
            .sorted_edges();
        for fmt in Format::ALL {
            let out = broadcast(&m.to_format(fmt), &v, EltOp::Mul, Axis::Col).unwrap();
            assert_eq!(out.sorted_edges(), reference);
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let m = sample();
        assert!(broadcast(&m, &[1.0, 2.0], EltOp::Add, Axis::Col).is_err());
        assert!(broadcast(&m, &[1.0; 3], EltOp::Add, Axis::Row).is_err());
    }

    #[test]
    fn unweighted_broadcast_materializes() {
        let m = SparseMatrix::Csc(Csc::new(2, 2, vec![0, 1, 2], vec![0, 1], None).unwrap());
        let n = broadcast(&m, &[3.0, 5.0], EltOp::Mul, Axis::Col).unwrap();
        assert_eq!(n.sorted_edges(), vec![(0, 0, 3.0), (1, 1, 5.0)]);
    }

    #[test]
    fn in_place_matches_pure() {
        let m = sample();
        let v = vec![1.0, 2.0, 3.0];
        let pure = broadcast(&m, &v, EltOp::Sub, Axis::Col).unwrap();
        let mut values = m.values_or_ones();
        broadcast_values(&m, &mut values, &v, EltOp::Sub, Axis::Col).unwrap();
        assert_eq!(pure.values().unwrap(), &values[..]);
    }
}
