//! Runtime values flowing through the executor.

use std::sync::Arc;

use gsampler_ir::ShapeEst;
use gsampler_matrix::{Dense, GraphMatrix, NodeId};

/// A dense table wrapped once (`Graph::with_features`) as the value programs
/// read: a launch clones the pointer, never the table. Derefs to [`Dense`].
#[derive(Debug, Clone)]
pub struct SharedDense(pub(crate) Arc<Value>);

impl std::ops::Deref for SharedDense {
    type Target = Dense;
    fn deref(&self) -> &Dense {
        self.0.as_dense().expect("wraps a dense value")
    }
}

/// A value produced by one program node.
#[derive(Debug, Clone)]
pub enum Value {
    /// Sparse matrix with ID tracking.
    Matrix(GraphMatrix),
    /// Dense matrix.
    Dense(Dense),
    /// Dense `f32` vector.
    Vector(Vec<f32>),
    /// Node-ID list.
    Nodes(Vec<NodeId>),
    /// Scalar.
    Scalar(f32),
}

impl Value {
    /// Kind tag for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Matrix(_) => "matrix",
            Value::Dense(_) => "dense",
            Value::Vector(_) => "vector",
            Value::Nodes(_) => "nodes",
            Value::Scalar(_) => "scalar",
        }
    }

    /// Borrow as matrix.
    pub fn as_matrix(&self) -> Option<&GraphMatrix> {
        match self {
            Value::Matrix(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as dense.
    pub(crate) fn as_dense(&self) -> Option<&Dense> {
        match self {
            Value::Dense(d) => Some(d),
            _ => None,
        }
    }

    /// Borrow as vector.
    pub fn as_vector(&self) -> Option<&[f32]> {
        match self {
            Value::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as node list.
    pub fn as_nodes(&self) -> Option<&[NodeId]> {
        match self {
            Value::Nodes(n) => Some(n),
            _ => None,
        }
    }

    /// Scalar value, if this is one.
    pub fn as_scalar(&self) -> Option<f32> {
        match self {
            Value::Scalar(s) => Some(*s),
            _ => None,
        }
    }

    /// Approximate resident bytes (memory accounting).
    pub fn bytes(&self) -> usize {
        match self {
            Value::Matrix(m) => m.data.size_bytes(),
            Value::Dense(d) => d.size_bytes(),
            Value::Vector(v) => v.len() * 4,
            Value::Nodes(n) => n.len() * 4,
            Value::Scalar(_) => 4,
        }
    }

    /// Shape estimate with *actual* dimensions — fed to the cost mapping
    /// so the executor charges real shapes, not planning estimates.
    pub(crate) fn shape_est(&self) -> ShapeEst {
        match self {
            Value::Matrix(m) => {
                let (r, c) = m.shape();
                ShapeEst::Matrix {
                    nrows: r as f64,
                    ncols: c as f64,
                    nnz: m.nnz() as f64,
                }
            }
            Value::Dense(d) => ShapeEst::Dense {
                rows: d.nrows() as f64,
                cols: d.ncols() as f64,
            },
            Value::Vector(v) => ShapeEst::Vector(v.len() as f64),
            Value::Nodes(n) => ShapeEst::Nodes(n.len() as f64),
            Value::Scalar(_) => ShapeEst::Scalar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_bytes() {
        let v = Value::Vector(vec![1.0; 10]);
        assert_eq!(v.bytes(), 40);
        assert!(v.as_vector().is_some());
        assert!(v.as_matrix().is_none());
        assert_eq!(v.kind_name(), "vector");
        let s = Value::Scalar(3.0);
        assert_eq!(s.as_scalar(), Some(3.0));
        match Value::Nodes(vec![1, 2, 3]).shape_est() {
            ShapeEst::Nodes(n) => assert_eq!(n, 3.0),
            _ => panic!(),
        }
    }
}
