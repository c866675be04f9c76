//! Registry of all 15 algorithms — the coverage surface of paper Table 2 —
//! and the one place that knows how to bind and drive each of them.

use std::sync::Arc;

use gsampler_core::builder::Layer;
use gsampler_core::{Bindings, Graph, GraphSample, Result, Sampler, SamplerConfig};
use gsampler_matrix::{GraphMatrix, NodeId};

use crate::drivers::{self, BanditRule, BanditState, WalkTrace};
use crate::params::Hyper;
use crate::{layerwise, nodewise, walks};

/// How an algorithm is driven at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Multi-layer chained programs; `Sampler::run_epoch` drives it
    /// directly (super-batch capable).
    Chained,
    /// Single-step program looped by the walk driver.
    Walk,
    /// Walk driver with restarts plus visit counting.
    WalkCounting,
    /// Walks followed by subgraph induction.
    WalkInduce,
    /// Chained expansion whose finalize step is subgraph induction. ShaDow
    /// is driven through the induction; SEAL is driven as one chained batch
    /// over its PPR binding, and its induction is not driven.
    ChainedInduce,
    /// Chained with host-side bandit arm updates between batches.
    Bandit,
    /// Chained with model-weight bindings updated by the trainer.
    ModelDriven,
}

/// One algorithm: identity, classification (Table 2 columns), programs,
/// and required driver.
pub struct AlgoSpec {
    /// Algorithm name as in the paper.
    pub name: &'static str,
    /// `"node-wise"` or `"layer-wise"`.
    pub category: &'static str,
    /// `"uniform"`, `"static"`, or `"dynamic"`.
    pub bias: &'static str,
    /// Per-layer (or per-step) programs.
    pub layers: Vec<Layer>,
    /// How to drive it.
    pub driver: Driver,
}

/// Everything one [`AlgoSpec::drive`] produced, kept at the boundaries a
/// fingerprint folds.
#[derive(Debug, Clone)]
pub enum Drive {
    /// One sample per batch: two seeded chained batches, or the one batch
    /// of a model-driven algorithm or SEAL.
    Samples(Vec<GraphSample>),
    /// The bandit steps' samples, and the arms after the last update.
    Bandit(Vec<GraphSample>, Vec<f32>),
    /// One traced batch of walks.
    Walk(WalkTrace),
    /// PinSAGE's top-k neighbourhood per seed.
    TopK(Vec<Vec<NodeId>>),
    /// HetGNN's neighbourhood per seed, one group per node type.
    Typed(Vec<Vec<Vec<NodeId>>>),
    /// GraphSAINT's or ShaDow's induced subgraph.
    Induced(GraphMatrix),
}

/// The model-weight seed [`AlgoSpec::drive`] binds with.
const DRIVE_SEED: u64 = 3;

impl AlgoSpec {
    /// The bindings one batch of this algorithm needs on `graph`: SEAL's
    /// PPR vector, PASS's and AS-GCN's model weights drawn from `seed`,
    /// fresh arms for GCN-BS and Thanos, and nothing for the rest. Model
    /// weights are as wide as `graph`'s features (0 without features).
    pub fn bindings(&self, graph: &Graph, h: &Hyper, seed: u64) -> Bindings {
        let dim = graph.features.as_ref().map_or(0, |f| f.ncols());
        match self.name {
            "SEAL" => drivers::seal_bindings(graph),
            "PASS" => drivers::pass_bindings(dim, h.hidden, seed),
            "AS-GCN" => drivers::asgcn_bindings(dim, seed),
            _ => self
                .arms(graph)
                .map_or_else(Bindings::new, |arms| arms.bindings()),
        }
    }

    /// Fresh bandit arms on `graph` under this algorithm's update rule;
    /// `None` but for GCN-BS and Thanos.
    fn arms(&self, graph: &Graph) -> Option<BanditState> {
        let rule = match self.name {
            "GCN-BS" => BanditRule::GcnBs,
            "Thanos" => BanditRule::Thanos,
            _ => return None,
        };
        Some(BanditState::new(graph.num_nodes(), rule))
    }

    /// Whether this algorithm walks Node2Vec's second-order walk, which
    /// binds each walker's previous node.
    pub fn second_order(&self) -> bool {
        self.name == "Node2Vec"
    }

    /// Drive `sampler`, compiled from this spec's layers with `config`, over
    /// `frontiers` by the one protocol the goldens and the oracle fold:
    ///
    /// - chained: two seeded batches, on streams 0 and 1;
    /// - model-driven and SEAL: one batch, model weights from seed 3;
    /// - bandits: three steps on streams 0-2, the arms updated after each;
    /// - walks: one traced batch on stream 1;
    /// - PinSAGE and HetGNN: the neighbourhoods of the first 4 frontiers;
    /// - GraphSAINT and ShaDow: one induction over the first 8 frontiers,
    ///   by an induce sampler compiled with `config`.
    ///
    /// Every draw is keyed by `(seed, stream)`, so equal arguments drive
    /// equal outputs.
    pub fn drive(
        &self,
        graph: &Arc<Graph>,
        h: &Hyper,
        sampler: &Sampler,
        config: SamplerConfig,
        frontiers: &[NodeId],
    ) -> Result<Drive> {
        let first = |n: usize| &frontiers[..n.min(frontiers.len())];
        let induce = || drivers::induce_sampler(graph.clone(), config);
        Ok(match self.driver {
            Driver::Chained => Drive::Samples(
                (0..2)
                    .map(|stream| sampler.sample_batch_seeded(frontiers, &Bindings::new(), stream))
                    .collect::<Result<_>>()?,
            ),
            Driver::Bandit => {
                let mut arms = self.arms(graph).expect("a bandit has arms");
                let mut steps = Vec::with_capacity(3);
                for stream in 0..3 {
                    let step = sampler.sample_batch_seeded(frontiers, &arms.bindings(), stream)?;
                    arms.update(&step);
                    steps.push(step);
                }
                Drive::Bandit(steps, arms.weights)
            }
            Driver::Walk => {
                let n2v = self.second_order();
                Drive::Walk(drivers::run_walk_batch(
                    sampler,
                    frontiers,
                    h.walk_length,
                    n2v,
                    0.0,
                    1,
                )?)
            }
            Driver::WalkCounting if self.name == "PinSAGE" => {
                Drive::TopK(drivers::pinsage_neighbors(sampler, first(4), h, 1)?)
            }
            Driver::WalkCounting => {
                Drive::Typed(drivers::hetgnn_neighbors(sampler, first(4), h, 1)?)
            }
            Driver::WalkInduce => {
                let m = drivers::graphsaint_sample(sampler, &induce()?, first(8), h, 1)?;
                Drive::Induced(m)
            }
            Driver::ChainedInduce if self.name == "ShaDow" => {
                Drive::Induced(drivers::shadow_sample(sampler, &induce()?, first(8), 1)?)
            }
            // SEAL's induction is not driven: one batch over its PPR vector.
            Driver::ModelDriven | Driver::ChainedInduce => {
                let bindings = self.bindings(graph, h, DRIVE_SEED);
                Drive::Samples(vec![sampler.sample_batch(frontiers, &bindings)?])
            }
        })
    }
}

/// The algorithm named `name` (as in the paper), built with `h`.
pub fn algorithm(name: &str, h: &Hyper) -> Option<AlgoSpec> {
    all_algorithms(h).into_iter().find(|s| s.name == name)
}

/// Build all 15 algorithms of Table 2 with the given hyper-parameters.
pub fn all_algorithms(h: &Hyper) -> Vec<AlgoSpec> {
    vec![
        AlgoSpec {
            name: "DeepWalk",
            category: "node-wise",
            bias: "uniform",
            layers: vec![walks::deepwalk_step()],
            driver: Driver::Walk,
        },
        AlgoSpec {
            name: "GraphSAINT",
            category: "node-wise",
            bias: "uniform",
            layers: vec![walks::deepwalk_step()],
            driver: Driver::WalkInduce,
        },
        AlgoSpec {
            name: "PinSAGE",
            category: "node-wise",
            bias: "uniform",
            layers: vec![walks::deepwalk_step()],
            driver: Driver::WalkCounting,
        },
        AlgoSpec {
            name: "HetGNN",
            category: "node-wise",
            bias: "uniform",
            layers: vec![walks::deepwalk_step()],
            driver: Driver::WalkCounting,
        },
        AlgoSpec {
            name: "GraphSAGE",
            category: "node-wise",
            bias: "uniform",
            layers: nodewise::graphsage(&h.fanouts),
            driver: Driver::Chained,
        },
        AlgoSpec {
            name: "VR-GCN",
            category: "node-wise",
            bias: "uniform",
            layers: nodewise::vrgcn(&h.fanouts),
            driver: Driver::Chained,
        },
        AlgoSpec {
            name: "SEAL",
            category: "node-wise",
            bias: "static",
            layers: nodewise::seal(&h.fanouts),
            driver: Driver::ChainedInduce,
        },
        AlgoSpec {
            name: "ShaDow",
            category: "node-wise",
            bias: "static",
            layers: nodewise::shadow_expansion(&h.fanouts),
            driver: Driver::ChainedInduce,
        },
        AlgoSpec {
            name: "Node2Vec",
            category: "node-wise",
            bias: "dynamic",
            layers: vec![walks::node2vec_step(h.p, h.q)],
            driver: Driver::Walk,
        },
        AlgoSpec {
            name: "GCN-BS",
            category: "node-wise",
            bias: "dynamic",
            layers: nodewise::bandit(&h.fanouts),
            driver: Driver::Bandit,
        },
        AlgoSpec {
            name: "Thanos",
            category: "node-wise",
            bias: "dynamic",
            layers: nodewise::bandit(&h.fanouts),
            driver: Driver::Bandit,
        },
        AlgoSpec {
            name: "PASS",
            category: "node-wise",
            bias: "dynamic",
            layers: nodewise::pass(&h.fanouts),
            driver: Driver::ModelDriven,
        },
        AlgoSpec {
            name: "FastGCN",
            category: "layer-wise",
            bias: "static",
            layers: layerwise::fastgcn(h.layer_width, h.layers),
            driver: Driver::Chained,
        },
        AlgoSpec {
            name: "AS-GCN",
            category: "layer-wise",
            bias: "dynamic",
            layers: layerwise::asgcn(h.layer_width, h.layers),
            driver: Driver::ModelDriven,
        },
        AlgoSpec {
            name: "LADIES",
            category: "layer-wise",
            bias: "dynamic",
            layers: layerwise::ladies(h.layer_width, h.layers),
            driver: Driver::Chained,
        },
    ]
}

#[cfg(test)]
mod tests {
    use gsampler_ir::Op;

    use super::*;

    #[test]
    fn fifteen_algorithms_all_validate() {
        let algos = all_algorithms(&Hyper::small());
        assert_eq!(algos.len(), 15);
        for a in &algos {
            assert!(!a.layers.is_empty(), "{} has no layers", a.name);
            for (i, layer) in a.layers.iter().enumerate() {
                layer
                    .program
                    .validate()
                    .unwrap_or_else(|e| panic!("{} layer {i}: {e}", a.name));
            }
        }
    }

    #[test]
    fn table2_classification() {
        let algos = all_algorithms(&Hyper::small());
        let layerwise: Vec<&str> = algos
            .iter()
            .filter(|a| a.category == "layer-wise")
            .map(|a| a.name)
            .collect();
        assert_eq!(layerwise, vec!["FastGCN", "AS-GCN", "LADIES"]);
        let dynamic: usize = algos.iter().filter(|a| a.bias == "dynamic").count();
        assert_eq!(dynamic, 6); // Node2Vec, GCN-BS, Thanos, PASS, AS-GCN, LADIES
    }

    #[test]
    fn bindings_supply_every_bound_input() {
        // Every input a program reads by name, but the graph's features and
        // the walk driver's `prev`, is in its spec's bindings.
        let graph = gsampler_graphs::Dataset::tiny(7).graph;
        let h = Hyper::small();
        let mut bound: Vec<&str> = Vec::new();
        for spec in all_algorithms(&h) {
            let bindings = spec.bindings(&graph, &h, 1);
            for node in spec.layers.iter().flat_map(|l| l.program.nodes()) {
                let supplied = match &node.op {
                    Op::InputDense(n) if n != "features" => bindings.get_dense(n).is_some(),
                    Op::InputVector(n) => bindings.get_vector(n).is_some(),
                    _ => continue,
                };
                assert!(supplied, "{} reads {:?} unbound", spec.name, node.op);
                bound.push(spec.name);
            }
        }
        bound.dedup();
        assert_eq!(bound, ["SEAL", "GCN-BS", "Thanos", "PASS", "AS-GCN"]);
    }
}
