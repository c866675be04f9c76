//! Element-wise operations on edge values.
//!
//! Two flavours, mirroring the paper's Table 4 compute operators:
//!
//! - scalar: `A ** 2`, `A * 0.5` — [`scalar_op`];
//! - sparse operand with identical sparsity pattern: combine two
//!   intermediate matrices derived from the same subgraph — [`sparse_op`].
//!
//! Plus unary maps ([`unary_op`]) used by model-driven algorithms
//! (`relu`, `exp`, ...).

use crate::dense::Dense;
use crate::error::{Error, Result};
use crate::sparse::SparseMatrix;
use crate::EltOp;

/// Unary element-wise function on edge values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `max(x, 0)`.
    Relu,
    /// `e^x`.
    Exp,
    /// `ln(x)`.
    Log,
    /// `|x|`.
    Abs,
    /// `-x`.
    Neg,
    /// `x^2` (fast path for the ubiquitous squared-weight bias).
    Square,
    /// `sqrt(x)`.
    Sqrt,
    /// `1 / (1 + e^-x)`.
    Sigmoid,
}

impl UnaryOp {
    /// Apply the function to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Log => x.ln(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Neg => -x,
            UnaryOp::Square => x * x,
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Short lowercase name of the function.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Relu => "relu",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Abs => "abs",
            UnaryOp::Neg => "neg",
            UnaryOp::Square => "square",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Sigmoid => "sigmoid",
        }
    }
}

/// Map every element of `vals` through `f` in fixed 8-wide lanes: the
/// inner loop has a compile-time trip count, so for branch-free `f` the
/// autovectorizer lifts it to full-width SIMD instead of a scalar loop
/// with a per-element bound check. Elementwise, so trivially bit-exact.
#[inline]
fn map_values_inplace(vals: &mut [f32], f: impl Fn(f32) -> f32) {
    let mut lanes = vals.chunks_exact_mut(8);
    for lane in &mut lanes {
        for v in lane.iter_mut() {
            *v = f(*v);
        }
    }
    for v in lanes.into_remainder() {
        *v = f(*v);
    }
}

/// `A <op> s` for a scalar `s`, returning a matrix with the same pattern.
pub fn scalar_op(m: &SparseMatrix, s: f32, op: EltOp) -> SparseMatrix {
    let mut out = m.clone();
    map_values_inplace(out.values_mut(), |v| op.apply(v, s));
    out
}

/// Apply a unary function to every edge value.
pub fn unary_op(m: &SparseMatrix, op: UnaryOp) -> SparseMatrix {
    let mut out = m.clone();
    map_values_inplace(out.values_mut(), |v| op.apply(v));
    out
}

/// `A <op> B` for two sparse matrices with identical sparsity patterns
/// (same shape and the same edge set).
///
/// Patterns are compared via the canonical sorted edge list; this is the
/// safety check the paper's intra-subgraph arithmetic relies on (e.g. PASS
/// combines three attention matrices derived from one extract).
pub fn sparse_op(a: &SparseMatrix, b: &SparseMatrix, op: EltOp) -> Result<SparseMatrix> {
    if a.shape() != b.shape() {
        return Err(Error::ShapeMismatch {
            op: "eltwise sparse_op",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if a.nnz() != b.nnz() {
        return Err(Error::InvalidStructure {
            reason: format!(
                "sparse_op operands have different nnz: {} vs {}",
                a.nnz(),
                b.nnz()
            ),
        });
    }
    let ea = a.sorted_edges();
    let eb = b.sorted_edges();
    let mut combined = Vec::with_capacity(ea.len());
    for (&(ra, ca, va), &(rb, cb, vb)) in ea.iter().zip(eb.iter()) {
        if (ra, ca) != (rb, cb) {
            return Err(Error::InvalidStructure {
                reason: format!(
                    "sparse_op operands differ in pattern at edge ({ra},{ca}) vs ({rb},{cb})"
                ),
            });
        }
        combined.push(op.apply(va, vb));
    }
    // Rebuild on `a`'s storage: map sorted-order results back to a's order.
    let mut out = a.clone();
    let order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..ea.len()).collect();
        let a_edges: Vec<(u32, u32)> = a.iter_edges().map(|(r, c, _)| (r, c)).collect();
        // For each storage position, find its rank in the sorted order.
        let mut rank = std::collections::HashMap::with_capacity(ea.len());
        for (i, &(r, c, _)) in ea.iter().enumerate() {
            rank.insert((r, c), i);
        }
        for (pos, rc) in a_edges.iter().enumerate() {
            idx[pos] = rank[rc];
        }
        idx
    };
    let values = out.values_mut();
    for (pos, &sorted_pos) in order.iter().enumerate() {
        values[pos] = combined[sorted_pos];
    }
    Ok(out)
}

/// The shared edge count of `k >= 1` matrices that claim one pattern.
fn stacked_nnz(mats: &[&SparseMatrix]) -> Result<usize> {
    let invalid = |reason: &str| Error::InvalidStructure {
        reason: format!("stack_edge_values {reason}"),
    };
    let first = mats
        .first()
        .ok_or_else(|| invalid("needs at least one matrix"))?;
    let same = |m: &&SparseMatrix| m.nnz() == first.nnz() && m.shape() == first.shape();
    (mats.iter().all(same))
        .then_some(first.nnz())
        .ok_or_else(|| invalid("operands must share shape and nnz"))
}

/// Stack edge-value vectors of `k` pattern-identical matrices into an
/// `nnz × k` dense matrix (one row per edge, in `mats[0]`'s storage order).
///
/// This is the `stack([A1, A2, A3])` step of PASS (Fig. 3c line 8): the
/// result feeds a dense projection that maps per-edge attention vectors to
/// sampling bias.
pub fn stack_edge_values(mats: &[&SparseMatrix]) -> Result<Dense> {
    let (nnz, k) = (stacked_nnz(mats)?, mats.len());
    let mut out = Dense::zeros(nnz, k);
    for (ch, m) in mats.iter().enumerate() {
        let column = out.as_mut_slice().iter_mut().skip(ch).step_by(k);
        match m.values() {
            Some(vals) => column.zip(vals).for_each(|(o, &v)| *o = v),
            None => column.for_each(|o| *o = 1.0),
        }
    }
    Ok(out)
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

    #[test]
    fn scalar_square() {
        let m = sample();
        let sq = scalar_op(&m, 2.0, EltOp::Pow);
        assert_eq!(sq.values().unwrap(), &[1.0, 4.0, 9.0, 16.0, 25.0, 36.0]);
    }

    #[test]
    fn unary_ops() {
        let m = scalar_op(&sample(), 3.0, EltOp::Sub); // values -2..=3
        let relu = unary_op(&m, UnaryOp::Relu);
        assert_eq!(relu.values().unwrap(), &[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
        let sq = unary_op(&m, UnaryOp::Square);
        assert_eq!(sq.values().unwrap(), &[4.0, 1.0, 0.0, 1.0, 4.0, 9.0]);
        let neg = unary_op(&m, UnaryOp::Neg);
        assert_eq!(neg.values().unwrap()[5], -3.0);
    }

    #[test]
    fn sparse_same_pattern() {
        let a = sample();
        let b = scalar_op(&a, 2.0, EltOp::Mul);
        let sum = sparse_op(&a, &b, EltOp::Add).unwrap();
        assert_eq!(sum.values().unwrap(), &[3.0, 6.0, 9.0, 12.0, 15.0, 18.0]);
    }

    #[test]
    fn sparse_cross_format_pattern_match() {
        let a = sample();
        let b = scalar_op(&a, 1.0, EltOp::Add).to_format(Format::Coo);
        let out = sparse_op(&a, &b, EltOp::Add).unwrap();
        // Result uses a's (CSC) storage; edge (0,0) was 1.0, b's is 2.0.
        assert_eq!(out.sorted_edges()[0], (0, 0, 3.0));
        assert_eq!(out.format(), Format::Csc);
    }

    #[test]
    fn sparse_pattern_mismatch_rejected() {
        let a = sample();
        let b = SparseMatrix::Csc(Csc::new(4, 3, vec![0, 1, 1, 1], vec![0], None).unwrap());
        assert!(sparse_op(&a, &b, EltOp::Add).is_err());
        let c = SparseMatrix::Csc(
            Csc::new(4, 3, vec![0, 2, 3, 6], vec![1, 2, 1, 0, 1, 3], None).unwrap(),
        );
        assert!(sparse_op(&a, &c, EltOp::Add).is_err());
    }

    #[test]
    fn stack_three_matrices() {
        let a = sample();
        let b = scalar_op(&a, 10.0, EltOp::Mul);
        let c = scalar_op(&a, 100.0, EltOp::Mul);
        let stacked = stack_edge_values(&[&a, &b, &c]).unwrap();
        assert_eq!(stacked.shape(), (6, 3));
        assert_eq!(stacked.get(2, 0), 3.0);
        assert_eq!(stacked.get(2, 1), 30.0);
        assert_eq!(stacked.get(2, 2), 300.0);
    }
}
