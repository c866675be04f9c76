//! The differential oracle.
//!
//! Three tiers of checking per algorithm, in increasing looseness:
//!
//! 1. **Exact differential** — every single-pass ablation of the
//!    optimizing pipeline (`OptConfig::ablations()`) must produce the
//!    same semantic fingerprint as the all-on reference. This is sound
//!    because the `i`-th randomized op of a layer draws with its group's
//!    key `.child(i)`, CSE never merges random ops, and preprocessing
//!    never hoists them — so pass toggles cannot change which key a live
//!    op draws with. The same discipline makes a super-batched epoch
//!    identical to the factor-1 epoch, storage layout included (a batch's
//!    key depends on its index only, and its share of the block-diagonal
//!    execution is the diagonal block), which is checked value by value,
//!    structurally.
//!    The plan database is checked by fingerprint like the ablations: a
//!    compile served from it, and one on an equal graph that can only
//!    miss, must sample what a database-less compile does.
//! 2. **Structural validation** — every output must be a faithful
//!    sub-result of the input graph: matrix edges exist in the graph
//!    (catching relabel/compaction bugs), node IDs are in range.
//! 3. **Statistical validation** — lives in [`crate::stats`]; used where
//!    engines draw from independent RNG streams by design.

use std::collections::HashSet;
use std::sync::Arc;

use gsampler_algos::{all_algorithms, Driver, Hyper};
use gsampler_core::{Bindings, Graph, OptConfig, PlanDb, SamplerConfig, Value};

use crate::drive::{self, compile_algorithm, sampler_config};
use crate::fault::Fault;
use crate::fingerprint::of_values;

/// One confirmed disagreement (or structural violation).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Algorithm that diverged.
    pub algo: String,
    /// Pipeline variant (ablation name, "super-batch", ...).
    pub variant: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.algo, self.variant, self.detail)
    }
}

/// Shared per-case checking context: the graph and its edge set.
pub struct Oracle {
    graph: Arc<Graph>,
    edge_set: HashSet<(u32, u32)>,
    hyper: Hyper,
    seed: u64,
}

/// Hyper-parameters scaled for oracle runs: `Hyper::small` with a walk
/// length short enough to keep per-case cost bounded.
pub fn oracle_hyper() -> Hyper {
    Hyper {
        walk_length: 4,
        ..Hyper::small()
    }
}

impl Oracle {
    /// Build an oracle for one graph.
    pub fn new(graph: Arc<Graph>, seed: u64) -> Oracle {
        let edge_set = graph
            .matrix
            .global_edges()
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        Oracle {
            graph,
            edge_set,
            hyper: oracle_hyper(),
            seed,
        }
    }

    /// The hyper-parameters the oracle drives with.
    pub fn hyper(&self) -> &Hyper {
        &self.hyper
    }

    /// Structurally validate one output value against the graph.
    fn validate_value(&self, v: &Value) -> Result<(), String> {
        let n = self.graph.num_nodes() as u32;
        match v {
            Value::Matrix(m) => {
                for (r, c, _) in m.global_edges() {
                    if r >= n || c >= n {
                        return Err(format!("edge ({r}, {c}) outside node range 0..{n}"));
                    }
                    if !self.edge_set.contains(&(r, c)) {
                        return Err(format!("edge ({r}, {c}) not present in the input graph"));
                    }
                }
            }
            Value::Nodes(ids) => {
                for &id in ids {
                    if id >= n {
                        return Err(format!("node id {id} outside node range 0..{n}"));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn validate_values(&self, algo: &str, variant: &str, vs: &[Value]) -> Result<(), Divergence> {
        for v in vs {
            self.validate_value(v).map_err(|detail| Divergence {
                algo: algo.to_string(),
                variant: variant.to_string(),
                detail,
            })?;
        }
        Ok(())
    }

    /// Run the full variant matrix for one algorithm: reference drive,
    /// every ablation and every way of compiling through a plan database
    /// (exact compare + structural), and — for chained algorithms — a
    /// super-batched epoch (structural + bit-exact against the factor-1
    /// epoch).
    /// With `fault` set, the faulted pipeline is compared against the
    /// clean reference; a correct harness MUST report a divergence then.
    pub fn check_algorithm(
        &self,
        algo: &str,
        frontiers: &[u32],
        fault: Option<Fault>,
    ) -> Result<(), Divergence> {
        let diverge = |variant: &str, detail: String| Divergence {
            algo: algo.to_string(),
            variant: variant.to_string(),
            detail,
        };
        let config = |opt: OptConfig| sampler_config(opt, self.seed, frontiers.len());
        let drive = |opt: OptConfig, f: Option<Fault>| {
            drive::run_algorithm(&self.graph, algo, &self.hyper, config(opt), frontiers, f)
        };

        // Reference: clean, all passes on.
        let reference = drive(OptConfig::all(), None)
            .map_err(|e| diverge("all", e))?
            .expect("no fault, always drives");
        self.validate_values(algo, "all", &reference)?;
        let ref_print = of_values(&reference);

        if let Some(f) = fault {
            // Faulted pipeline vs clean reference; not applying is fine.
            if let Some(bad) = drive(OptConfig::all(), Some(f)).map_err(|e| diverge(f.name(), e))? {
                let bad_print = of_values(&bad);
                if bad_print != ref_print {
                    return Err(diverge(
                        f.name(),
                        format!(
                            "injected fault changed output: {bad_print:#018x} vs clean {ref_print:#018x}"
                        ),
                    ));
                }
            }
            return Ok(());
        }

        let expect_reference = |name: &str, got: Result<Option<Vec<Value>>, String>| {
            let got = got
                .map_err(|e| diverge(name, e))?
                .expect("no fault, always drives");
            self.validate_values(algo, name, &got)?;
            let got_print = of_values(&got);
            if got_print != ref_print {
                return Err(diverge(
                    name,
                    format!(
                        "variant output {got_print:#018x} differs from reference {ref_print:#018x}"
                    ),
                ));
            }
            Ok(())
        };

        // Exact differential across single-pass ablations.
        for (name, opt) in OptConfig::ablations() {
            if name != "all" {
                expect_reference(name, drive(opt, None))?;
            }
        }

        // Plan-database differential: a cold compile, a hit on the same
        // graph object (reuses the compiled programs and precomputed
        // values) and a compile on an equal graph with a different
        // identity (entries are pinned to the graph object, so it misses
        // and must not see the first graph's values) must all sample what
        // the database-less reference did.
        let db = Arc::new(PlanDb::in_memory());
        let twin = Arc::new((*self.graph).clone());
        for (name, graph) in [
            ("plan-db-cold", &self.graph),
            ("plan-db-hit", &self.graph),
            ("plan-db-twin-miss", &twin),
        ] {
            let config = SamplerConfig {
                plan_db: Some(db.clone()),
                ..config(OptConfig::all())
            };
            let got = drive::run_algorithm(graph, algo, &self.hyper, config, frontiers, None);
            expect_reference(name, got)?;
        }
        let stats = db.stats();
        if stats.hits < 1 || stats.inserts == 0 {
            return Err(diverge(
                "plan-db",
                format!("the warm compile never went through the database: {stats:?}"),
            ));
        }

        // Super-batch path: chained algorithms only (the driver loops own
        // the other modes). Structural validity plus bit-equality with the
        // factor-1 epoch over the same batches.
        let driver = all_algorithms(&self.hyper)
            .into_iter()
            .find(|s| s.name == algo)
            .map(|s| s.driver);
        if driver == Some(Driver::Chained) {
            let epoch = |factor: usize| -> Result<Vec<String>, Divergence> {
                let opt = OptConfig::all().with_super_batch(factor);
                let sampler = compile_algorithm(
                    &self.graph,
                    algo,
                    &self.hyper,
                    sampler_config(opt, self.seed, frontiers.len().max(1) / 2),
                    None,
                )
                .map_err(|e| diverge("super-batch", e))?
                .expect("no fault");
                // Structural, not semantic: `Debug` spells out every field
                // of every value, storage layout included.
                let mut samples: Vec<String> = Vec::new();
                let mut all_values: Vec<Value> = Vec::new();
                sampler
                    .run_epoch_with(frontiers, &Bindings::new(), 0, |batch, sample| {
                        samples.push(format!("batch {batch}: {:?}", sample.layers));
                        for layer in sample.layers {
                            all_values.extend(layer);
                        }
                    })
                    .map_err(|e| {
                        diverge(
                            "super-batch",
                            format!("epoch failed (factor {factor}): {e}"),
                        )
                    })?;
                self.validate_values(algo, "super-batch", &all_values)?;
                Ok(samples)
            };
            let (plain, packed) = (epoch(1)?, epoch(2)?);
            if plain != packed {
                let first = plain.iter().zip(&packed).find(|(want, got)| want != got);
                return Err(diverge(
                    "super-batch",
                    format!(
                        "{} batches packed, {} plain; first difference (plain, packed): {first:?}",
                        packed.len(),
                        plain.len()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Check every registered algorithm (optionally name-filtered).
    pub fn check_all(
        &self,
        frontiers: &[u32],
        filter: Option<&str>,
        fault: Option<Fault>,
    ) -> Result<(), Divergence> {
        for name in drive::algorithm_names(&self.hyper) {
            if let Some(f) = filter {
                if !name.to_lowercase().contains(&f.to_lowercase()) {
                    continue;
                }
            }
            self.check_algorithm(name, frontiers, fault)?;
        }
        Ok(())
    }
}
