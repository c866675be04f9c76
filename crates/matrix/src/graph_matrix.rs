//! Sparse matrices with global node-ID tracking.
//!
//! Every sub-matrix produced by extraction, selection, or compaction keeps
//! a mapping from its local row/column indices back to the node IDs of the
//! *original* graph, so that `row()` / `column()` (the paper's finalize
//! operators) return original-graph IDs without any user-side conversion.

use std::sync::Arc;

use crate::compact;
use crate::error::{Error, Result};
use crate::slice;
use crate::sparse::SparseMatrix;
use crate::NodeId;

/// A sparse matrix plus the global IDs of its rows and columns.
///
/// `row_ids`/`col_ids` of `None` mean the identity mapping (local index
/// `i` *is* global node `i`), which is the state of the original graph
/// matrix. Mappings are reference-counted because many sub-matrices of one
/// sampling layer share them.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMatrix {
    /// The underlying sparse storage.
    pub data: SparseMatrix,
    /// Global ID of each local row, or `None` for identity.
    pub row_ids: Option<Arc<Vec<NodeId>>>,
    /// Global ID of each local column, or `None` for identity.
    pub col_ids: Option<Arc<Vec<NodeId>>>,
}

impl GraphMatrix {
    /// Wrap a sparse matrix whose rows and columns are already in the
    /// global ID space (i.e. the original graph).
    pub fn from_sparse(data: SparseMatrix) -> GraphMatrix {
        GraphMatrix {
            data,
            row_ids: None,
            col_ids: None,
        }
    }

    /// `(nrows, ncols)` of the underlying matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.data.shape()
    }

    /// Number of stored edges.
    pub fn nnz(&self) -> usize {
        self.data.nnz()
    }

    /// Global ID of local row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn global_row(&self, r: usize) -> NodeId {
        match &self.row_ids {
            Some(ids) => ids[r],
            None => r as NodeId,
        }
    }

    /// Global ID of local column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[inline]
    pub fn global_col(&self, c: usize) -> NodeId {
        match &self.col_ids {
            Some(ids) => ids[c],
            None => c as NodeId,
        }
    }

    /// Global IDs of all local rows (materialized).
    pub fn global_row_ids(&self) -> Vec<NodeId> {
        match &self.row_ids {
            Some(ids) => ids.as_ref().clone(),
            None => (0..self.data.nrows() as NodeId).collect(),
        }
    }

    /// Global IDs of all local columns (materialized).
    pub fn global_col_ids(&self) -> Vec<NodeId> {
        match &self.col_ids {
            Some(ids) => ids.as_ref().clone(),
            None => (0..self.data.ncols() as NodeId).collect(),
        }
    }

    /// The paper's `A.row()`: distinct global IDs of rows that carry at
    /// least one edge, ascending. After a select step these are the sampled
    /// neighbours, i.e. the frontiers of the next layer.
    pub fn row_nodes(&self) -> Vec<NodeId> {
        let occupied = compact::occupied_rows(&self.data);
        distinct_sorted(occupied.into_iter().map(|r| self.global_row(r as usize)))
    }

    /// The paper's `A.column()`: distinct global IDs of columns that carry
    /// at least one edge, ascending.
    pub fn col_nodes(&self) -> Vec<NodeId> {
        let occupied = compact::occupied_cols(&self.data);
        distinct_sorted(occupied.into_iter().map(|c| self.global_col(c as usize)))
    }

    /// Extract step: `A[:, frontiers]` where `frontiers` are *global* IDs.
    ///
    /// Requires the column space to be identity (the original graph) or to
    /// contain every requested ID; an unknown ID is an error.
    pub fn slice_cols_global(&self, frontiers: &[NodeId]) -> Result<GraphMatrix> {
        let local = self.globals_to_local_cols(frontiers)?;
        let data = slice::slice_cols(&self.data, &local)?;
        let col_ids = Arc::new(frontiers.to_vec());
        Ok(GraphMatrix {
            data,
            row_ids: self.row_ids.clone(),
            col_ids: Some(col_ids),
        })
    }

    /// Extract step: `A[frontiers, :]` where `frontiers` are *global* IDs.
    pub fn slice_rows_global(&self, frontiers: &[NodeId]) -> Result<GraphMatrix> {
        let local = self.globals_to_local_rows(frontiers)?;
        let data = slice::slice_rows(&self.data, &local)?;
        let row_ids = Arc::new(frontiers.to_vec());
        Ok(GraphMatrix {
            data,
            row_ids: Some(row_ids),
            col_ids: self.col_ids.clone(),
        })
    }

    /// Induce the subgraph on `nodes` (global IDs): `A[nodes, :][:, nodes]`.
    ///
    /// Used by the finalize step of SEAL / ShaDow / GraphSAINT.
    pub fn induce_subgraph(&self, nodes: &[NodeId]) -> Result<GraphMatrix> {
        self.slice_rows_global(nodes)?
            .slice_cols_global_local_ok(nodes)
    }

    /// Like [`GraphMatrix::slice_cols_global`] but tolerates a non-identity
    /// column space (builds the reverse map). Exposed separately because
    /// the common extract path wants the cheap identity check.
    fn slice_cols_global_local_ok(&self, frontiers: &[NodeId]) -> Result<GraphMatrix> {
        self.slice_cols_global(frontiers)
    }

    /// Compaction: drop isolated rows, composing the ID mapping.
    pub fn compact_rows(&self) -> GraphMatrix {
        let c = compact::compact_rows(&self.data);
        let globals: Vec<NodeId> = c
            .kept
            .iter()
            .map(|&r| self.global_row(r as usize))
            .collect();
        GraphMatrix {
            data: c.matrix,
            row_ids: Some(Arc::new(globals)),
            col_ids: self.col_ids.clone(),
        }
    }

    /// All stored edges as `(global_row, global_col, value)`, sorted —
    /// the format-independent view used by correctness tests.
    pub fn global_edges(&self) -> Vec<(NodeId, NodeId, f32)> {
        let mut out: Vec<(NodeId, NodeId, f32)> = self
            .data
            .iter_edges()
            .map(|(r, c, v)| (self.global_row(r as usize), self.global_col(c as usize), v))
            .collect();
        out.sort_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        out
    }

    fn globals_to_local_cols(&self, ids: &[NodeId]) -> Result<Vec<NodeId>> {
        match &self.col_ids {
            None => {
                for &id in ids {
                    if (id as usize) >= self.data.ncols() {
                        return Err(Error::IndexOutOfBounds {
                            op: "slice_cols_global",
                            index: id as usize,
                            bound: self.data.ncols(),
                        });
                    }
                }
                Ok(ids.to_vec())
            }
            Some(map) => {
                let reverse: std::collections::HashMap<NodeId, NodeId> = map
                    .iter()
                    .enumerate()
                    .map(|(local, &global)| (global, local as NodeId))
                    .collect();
                ids.iter()
                    .map(|&g| {
                        reverse.get(&g).copied().ok_or(Error::IndexOutOfBounds {
                            op: "slice_cols_global (non-identity space)",
                            index: g as usize,
                            bound: map.len(),
                        })
                    })
                    .collect()
            }
        }
    }

    fn globals_to_local_rows(&self, ids: &[NodeId]) -> Result<Vec<NodeId>> {
        match &self.row_ids {
            None => {
                for &id in ids {
                    if (id as usize) >= self.data.nrows() {
                        return Err(Error::IndexOutOfBounds {
                            op: "slice_rows_global",
                            index: id as usize,
                            bound: self.data.nrows(),
                        });
                    }
                }
                Ok(ids.to_vec())
            }
            Some(map) => {
                let reverse: std::collections::HashMap<NodeId, NodeId> = map
                    .iter()
                    .enumerate()
                    .map(|(local, &global)| (global, local as NodeId))
                    .collect();
                ids.iter()
                    .map(|&g| {
                        reverse.get(&g).copied().ok_or(Error::IndexOutOfBounds {
                            op: "slice_rows_global (non-identity space)",
                            index: g as usize,
                            bound: map.len(),
                        })
                    })
                    .collect()
            }
        }
    }
}

fn distinct_sorted(ids: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = ids.collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::sample;
    use gsampler_runtime::RngPool;

    /// The toy graph of paper Fig. 1: 8 nodes a..h = 0..7.
    /// In-edges: a<-{b,c,e}, b<-{c,d,f}, e<-{f,g,h}.
    fn toy_graph() -> GraphMatrix {
        let cols: Vec<Vec<(NodeId, f32)>> = vec![
            vec![(1, 1.0), (2, 1.0), (4, 1.0)], // a=0
            vec![(2, 0.2), (3, 0.5), (5, 0.7)], // b=1
            vec![],                             // c=2
            vec![],                             // d=3
            vec![(5, 0.3), (6, 0.8), (7, 0.1)], // e=4
            vec![],                             // f=5
            vec![],                             // g=6
            vec![],                             // h=7
        ];
        let csc = Csc::from_adjacency(8, &cols, true).unwrap();
        GraphMatrix::from_sparse(SparseMatrix::Csc(csc))
    }

    #[test]
    fn extract_keeps_global_column_ids() {
        let g = toy_graph();
        let sub = g.slice_cols_global(&[1, 4]).unwrap();
        assert_eq!(sub.shape(), (8, 2));
        assert_eq!(sub.global_col_ids(), vec![1, 4]);
        // Candidates are the union of in-neighbours of b and e: {c,d,f,g,h}.
        assert_eq!(sub.row_nodes(), vec![2, 3, 5, 6, 7]);
    }

    #[test]
    fn individual_sample_preserves_spaces() {
        let g = toy_graph();
        let sub = g.slice_cols_global(&[1, 4]).unwrap();
        // Selection keeps the shape, so the slice's ID spaces carry over.
        let sampled = GraphMatrix {
            data: sample::individual_sample_seeded(&sub.data, 2, None, &RngPool::new(7)).unwrap(),
            ..sub.clone()
        };
        assert_eq!(sampled.shape(), (8, 2));
        assert_eq!(sampled.data.col_degrees(), vec![2, 2]);
        // next frontiers are global IDs drawn from the candidates.
        for id in sampled.row_nodes() {
            assert!([2, 3, 5, 6, 7].contains(&id));
        }
    }

    #[test]
    fn collective_sample_relabels_rows_globally() {
        let g = toy_graph();
        let sub = g.slice_cols_global(&[1, 4]).unwrap();
        // Selected rows are local to `sub`; composing with its row space
        // keeps `row()` reporting global IDs.
        let out = sample::collective_sample_seeded(&sub.data, 4, None, &RngPool::new(7)).unwrap();
        let globals = out.rows.iter().map(|&r| sub.global_row(r as usize));
        let sampled = GraphMatrix {
            data: out.matrix,
            row_ids: Some(Arc::new(globals.collect())),
            col_ids: sub.col_ids.clone(),
        };
        assert_eq!(sampled.shape().0, 4);
        assert_eq!(sampled.shape().1, 2);
        let rows = sampled.global_row_ids();
        assert_eq!(rows.len(), 4);
        for id in &rows {
            assert!([2, 3, 5, 6, 7].contains(id));
        }
        // row_nodes must agree with the recorded id space (minus isolated).
        for id in sampled.row_nodes() {
            assert!(rows.contains(&id));
        }
    }

    #[test]
    fn compact_rows_composes_mapping() {
        let g = toy_graph();
        let sub = g.slice_cols_global(&[1]).unwrap();
        // Only rows {2,3,5} have edges; the other 5 are isolated.
        let compacted = sub.compact_rows();
        assert_eq!(compacted.shape(), (3, 1));
        assert_eq!(compacted.global_row_ids(), vec![2, 3, 5]);
        assert_eq!(compacted.row_nodes(), vec![2, 3, 5]);
    }

    #[test]
    fn row_nodes_is_format_independent() {
        let sub = toy_graph().slice_cols_global(&[1, 4]).unwrap();
        for fmt in crate::Format::ALL {
            let mut other = sub.clone();
            other.data = other.data.to_format(fmt);
            assert_eq!(other.row_nodes(), vec![2, 3, 5, 6, 7], "{fmt:?}");
            assert_eq!(other.compact_rows().row_nodes(), vec![2, 3, 5, 6, 7]);
        }
    }

    #[test]
    fn col_nodes_is_format_independent() {
        // Frontier c (column 1 of the slice) has no in-edges.
        let sub = toy_graph().slice_cols_global(&[1, 2, 4]).unwrap();
        for fmt in crate::Format::ALL {
            let mut other = sub.clone();
            other.data = other.data.to_format(fmt);
            assert_eq!(other.col_nodes(), vec![1, 4], "{fmt:?}");
        }
    }

    #[test]
    fn induce_subgraph() {
        let g = toy_graph();
        // Induce on {a=0, b=1, e=4}: edges among them: b->a (b in col a), e->a.
        let sub = g.induce_subgraph(&[0, 1, 4]).unwrap();
        assert_eq!(sub.shape(), (3, 3));
        let edges = sub.global_edges();
        assert_eq!(edges, vec![(1, 0, 1.0), (4, 0, 1.0)]);
    }

    #[test]
    fn unknown_global_id_rejected() {
        let g = toy_graph();
        assert!(g.slice_cols_global(&[99]).is_err());
        let sub = g.slice_cols_global(&[1, 4]).unwrap().compact_rows();
        // Row space is now {2,3,5,6,7}; asking for node 0 must fail.
        assert!(sub.slice_rows_global(&[0]).is_err());
    }

    #[test]
    fn slice_on_non_identity_space() {
        let g = toy_graph();
        let sub = g.slice_cols_global(&[1, 4]).unwrap().compact_rows();
        let again = sub.slice_rows_global(&[5, 2]).unwrap();
        assert_eq!(again.global_row_ids(), vec![5, 2]);
        // Node 5 (f) has edges to both b and e.
        let edges = again.global_edges();
        assert!(edges.contains(&(5, 1, 0.7)));
        assert!(edges.contains(&(5, 4, 0.3)));
    }

    #[test]
    fn global_edges_of_original_graph() {
        let g = toy_graph();
        let edges = g.global_edges();
        assert_eq!(edges.len(), 9);
        assert!(edges.contains(&(5, 1, 0.7)));
        assert!(edges.contains(&(7, 4, 0.1)));
    }
}
