//! Heterogeneous graphs: typed nodes and one sparse matrix per edge type.
//!
//! The paper's implementation note (§4.5): *"For heterogeneous graphs,
//! each type of edges is modeled as a sparse matrix to conduct the same
//! sampling workflow as homogeneous graphs."* This module follows that
//! design: all nodes share one global ID space, each node carries a type,
//! and every relation `(src_type, name, dst_type)` is its own [`Graph`] —
//! so any sampler in this workspace can be compiled against any relation,
//! and meta-path algorithms (PinSAGE, HetGNN) chain per-relation samplers
//! (see `gsampler_algos::metapath`).

use std::collections::HashMap;
use std::sync::Arc;

use gsampler_matrix::NodeId;

use crate::error::{Error, Result};
use crate::graph::Graph;

/// One typed edge relation.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Relation name (e.g. `"follows"`, `"bought"`).
    pub name: String,
    /// Source node type index.
    pub src_type: usize,
    /// Destination node type index.
    pub dst_type: usize,
    /// The relation's adjacency over the shared node-ID space (column `v`
    /// holds the in-edges of `v` under this relation).
    pub graph: Arc<Graph>,
}

/// A heterogeneous graph: typed nodes in a shared ID space plus one
/// sparse adjacency per relation.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    type_names: Vec<String>,
    node_type: Vec<usize>,
    relations: Vec<Relation>,
    by_name: HashMap<String, usize>,
}

impl HeteroGraph {
    /// Create a heterogeneous graph skeleton: `node_type[v]` is the type
    /// index of node `v`, indices into `type_names`.
    pub fn new(type_names: Vec<String>, node_type: Vec<usize>) -> Result<HeteroGraph> {
        for (v, &t) in node_type.iter().enumerate() {
            if t >= type_names.len() {
                return Err(Error::InvalidProgram(format!(
                    "node {v} has unknown type index {t}"
                )));
            }
        }
        Ok(HeteroGraph {
            type_names,
            node_type,
            relations: Vec::new(),
            by_name: HashMap::new(),
        })
    }

    /// Number of nodes (shared across all relations).
    pub fn num_nodes(&self) -> usize {
        self.node_type.len()
    }

    /// The node-type names.
    pub fn type_names(&self) -> &[String] {
        &self.type_names
    }

    /// Type index of one node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node_type(&self, v: NodeId) -> usize {
        self.node_type[v as usize]
    }

    /// Add a relation from an edge list; every edge must connect a
    /// `src_type` node to a `dst_type` node.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        src_type: usize,
        dst_type: usize,
        edges: &[(NodeId, NodeId, f32)],
        weighted: bool,
    ) -> Result<()> {
        let name = name.into();
        if src_type >= self.type_names.len() || dst_type >= self.type_names.len() {
            return Err(Error::InvalidProgram(format!(
                "relation {name}: unknown node type"
            )));
        }
        for &(u, v, _) in edges {
            if (u as usize) >= self.num_nodes() || (v as usize) >= self.num_nodes() {
                return Err(Error::InvalidProgram(format!(
                    "relation {name}: edge ({u},{v}) out of node range"
                )));
            }
            if self.node_type[u as usize] != src_type || self.node_type[v as usize] != dst_type {
                return Err(Error::InvalidProgram(format!(
                    "relation {name}: edge ({u},{v}) violates its type signature"
                )));
            }
        }
        let graph = Arc::new(Graph::from_edges(
            format!("rel:{name}"),
            self.num_nodes(),
            edges,
            weighted,
        )?);
        if self.by_name.contains_key(&name) {
            return Err(Error::InvalidProgram(format!(
                "relation {name} already exists"
            )));
        }
        self.by_name.insert(name.clone(), self.relations.len());
        self.relations.push(Relation {
            name,
            src_type,
            dst_type,
            graph,
        });
        Ok(())
    }

    /// All relations.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Look a relation up by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.by_name.get(name).map(|&i| &self.relations[i])
    }

    /// Validate that a meta-path's relation chain type-checks: each
    /// step's source type must equal the previous step's destination...
    /// walking *backwards* along in-edges, step `i` samples in-neighbours
    /// under relation `path[i]`, so `path[i].dst_type` must match the
    /// current node type and the walk moves to `path[i].src_type`.
    pub fn check_metapath(&self, start_type: usize, path: &[&str]) -> Result<Vec<usize>> {
        let mut cur = start_type;
        let mut types = vec![cur];
        for name in path {
            let rel = self
                .relation(name)
                .ok_or_else(|| Error::InvalidProgram(format!("unknown relation {name}")))?;
            if rel.dst_type != cur {
                return Err(Error::InvalidProgram(format!(
                    "meta-path step {name}: expects destination type {}, walk is at {}",
                    self.type_names[rel.dst_type], self.type_names[cur]
                )));
            }
            cur = rel.src_type;
            types.push(cur);
        }
        Ok(types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy bipartite-ish commerce graph: users (0-3), items (4-7),
    /// relations "bought" (user->item columns hold user in-edges? no:
    /// edge (u, v) = u -> v, stored in column v) and "viewed".
    fn toy() -> HeteroGraph {
        let mut h = HeteroGraph::new(
            vec!["user".into(), "item".into()],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        )
        .unwrap();
        // bought: user -> item.
        h.add_relation(
            "bought",
            0,
            1,
            &[
                (0, 4, 1.0),
                (1, 4, 1.0),
                (1, 5, 1.0),
                (2, 6, 1.0),
                (3, 7, 1.0),
            ],
            false,
        )
        .unwrap();
        // bought_by: item -> user (the reverse relation).
        h.add_relation(
            "bought_by",
            1,
            0,
            &[
                (4, 0, 1.0),
                (4, 1, 1.0),
                (5, 1, 1.0),
                (6, 2, 1.0),
                (7, 3, 1.0),
            ],
            false,
        )
        .unwrap();
        h
    }

    #[test]
    fn construction_and_lookup() {
        let h = toy();
        assert_eq!(h.num_nodes(), 8);
        assert_eq!(h.node_type(0), 0);
        assert_eq!(h.node_type(5), 1);
        assert_eq!(h.relations().len(), 2);
        assert!(h.relation("bought").is_some());
        assert!(h.relation("rated").is_none());
    }

    #[test]
    fn type_violations_rejected() {
        let mut h = toy();
        // item -> item edge under a user->item relation signature.
        let err = h.add_relation("bad", 0, 1, &[(4, 5, 1.0)], false);
        assert!(err.is_err());
        // Unknown type index.
        assert!(h.add_relation("bad2", 7, 1, &[], false).is_err());
        // Duplicate name.
        assert!(h.add_relation("bought", 0, 1, &[], false).is_err());
    }

    #[test]
    fn metapath_type_checking() {
        let h = toy();
        // Walking backwards from items: in-neighbours under "bought" are
        // users; from users, in-neighbours under "bought_by" are items.
        let types = h.check_metapath(1, &["bought", "bought_by"]).unwrap();
        assert_eq!(types, vec![1, 0, 1]);
        // A mis-typed chain is rejected.
        assert!(h.check_metapath(1, &["bought_by"]).is_err());
        assert!(h.check_metapath(0, &["bought"]).is_err());
    }

    #[test]
    fn relation_graphs_are_samplable() {
        let h = toy();
        let rel = h.relation("bought").unwrap();
        // Column 4 (item) has in-edges from users 0 and 1.
        let csc = rel.graph.matrix.data.csc();
        assert_eq!(csc.col_rows(4), &[0, 1]);
    }
}
