//! The program executor: a thin driver over the kernel registry
//! ([`crate::kernels`]).
//!
//! `execute` walks the program in topological order and resolves every
//! operator through the instrumented [`crate::kernels::dispatch`] entry
//! point (modeled device time, SM utilization, host wall-clock time) —
//! except the input slots (`InputGraph`, `Precomputed`, `InputFrontiers`,
//! `InputDense` / `InputVector` / `InputNodes`), which hold shared handles
//! and are filled by cloning an `Arc`, never a table — and manages value
//! lifetimes (refcounts, alloc/free, the resident set) by its fact table.
//!
//! Super-batch execution (paper §4.4) is transparent to this driver: when
//! more than one frontier group is passed, the extract kernels build a
//! *block-diagonal* matrix — group `b`'s rows live in ID range
//! `[b·N, (b+1)·N)` — and `kernels::superbatch::split_outputs` hands each
//! group its diagonal block at program exit.

use std::collections::HashMap;
use std::sync::Arc;

use gsampler_engine::Device;
use gsampler_ir::{Facts, Op, Program};
use gsampler_matrix::{Dense, NodeId};
use gsampler_runtime::Key;

use crate::error::{Error, Result};
use crate::graph::Graph;
use crate::kernels::{self, superbatch, ExecCtx};
use crate::value::Value;

/// Named inputs bound per batch (model weights, feature tables, bias
/// vectors). A binding is a shared handle: it is wrapped as an executor
/// value once, when it is bound, and a launch that reads it clones the
/// pointer. A name holds one value, whatever its kind.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    pub(crate) named: HashMap<String, Arc<Value>>,
}

impl Bindings {
    /// Empty bindings.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Bind a dense matrix under a name.
    pub fn dense(mut self, name: impl Into<String>, d: Dense) -> Bindings {
        self.named.insert(name.into(), Arc::new(Value::Dense(d)));
        self
    }

    /// Bind a vector under a name.
    pub fn vector(mut self, name: impl Into<String>, v: Vec<f32>) -> Bindings {
        self.named.insert(name.into(), Arc::new(Value::Vector(v)));
        self
    }

    /// Bind a node list under a name (e.g. previous random-walk frontier).
    pub fn node_list(mut self, name: impl Into<String>, n: Vec<NodeId>) -> Bindings {
        self.named.insert(name.into(), Arc::new(Value::Nodes(n)));
        self
    }

    /// Look up a dense binding.
    pub fn get_dense(&self, name: &str) -> Option<&Dense> {
        self.named.get(name)?.as_dense()
    }

    /// Look up a vector binding.
    pub fn get_vector(&self, name: &str) -> Option<&[f32]> {
        self.named.get(name)?.as_vector()
    }

    /// Look up a node-list binding.
    pub fn get_node_list(&self, name: &str) -> Option<&[NodeId]> {
        self.named.get(name)?.as_nodes()
    }
}

/// Execute `program` over one or more frontier groups.
///
/// Returns one value list per group (in `program.outputs()` order). With a
/// single group this is ordinary mini-batch execution; with several, the
/// groups are sampled together as one super-batch. `keys` carries one key
/// per group: the `i`-th randomized op of the program ([`Op::is_random`],
/// in program order) draws group `b`'s bits with `keys[b].child(i)`, so a
/// group's values depend on its key and the program only — not on what it
/// is packed with, nor on how often the execution is retried.
/// `facts` is the program's fact table, resolved once at compile: value
/// lifetimes, graph residency, and (several groups) super-batch legality.
// The parameters are the execution context in full; bundling them into a
// struct would only move the same list one level down.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    program: &Program,
    facts: &[Facts],
    graph: &Graph,
    graph_value: &Arc<Value>,
    frontier_groups: &[Vec<NodeId>],
    bindings: &Bindings,
    precomputed: &[Arc<Value>],
    device: &Device,
    keys: &[Key],
) -> Result<Vec<Vec<Value>>> {
    let s = frontier_groups.len().max(1);
    let n = graph.num_nodes();
    if s > 1 && !gsampler_ir::facts::batchable(facts) {
        return Err(Error::Execution(
            "program is not super-batch compatible".to_string(),
        ));
    }
    if keys.len() != s {
        return Err(Error::Execution(format!(
            "{} keys but the execution has {s} groups",
            keys.len()
        )));
    }
    let mut col_offsets = Vec::with_capacity(s + 1);
    col_offsets.push(0usize);
    for g in frontier_groups {
        col_offsets.push(col_offsets.last().unwrap() + g.len());
    }
    let frontiers: Vec<NodeId> = frontier_groups.iter().flatten().copied().collect();
    let frontiers = Arc::new(Value::Nodes(frontiers));

    let mut refcount: Vec<usize> = facts.iter().map(|f| f.uses).collect();
    let resident = |i: usize| facts[i].resident;
    let mut env: Vec<Option<Arc<Value>>> = vec![None; program.len()];
    let mut randomized = 0u64;

    let ctx = ExecCtx {
        graph,
        n,
        s,
        col_offsets: &col_offsets,
        concat_frontiers: frontiers.as_nodes().expect("built as a node list"),
        bindings,
        precomputed,
    };

    // A closure, so the error path below can inspect the environment.
    let result = (|| -> Result<()> {
        for (id, node) in program.nodes().iter().enumerate() {
            // Value-sharing slots short-circuit the dispatcher: they clone an
            // `Arc` rather than produce a new value. Graph and precomputed
            // slots are resident; a bound input is modeled as a device
            // allocation for as long as the program reads it.
            let value = match &node.op {
                Op::InputGraph => {
                    env[id] = Some(graph_value.clone());
                    continue;
                }
                Op::Precomputed { slot } => {
                    let v = precomputed.get(*slot).ok_or_else(|| {
                        Error::Execution(format!("missing precomputed slot {slot}"))
                    })?;
                    env[id] = Some(v.clone());
                    continue;
                }
                Op::InputFrontiers => frontiers.clone(),
                op if op.is_input() => kernels::run_input(op, &ctx)?,
                op => {
                    let inputs: Vec<&Value> = node
                        .inputs
                        .iter()
                        .map(|&i| {
                            env[i]
                                .as_deref()
                                .ok_or_else(|| Error::Execution(format!("value {i} already freed")))
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let graph_input = node.inputs.first().map(|&i| &facts[i]);
                    let graph_input = graph_input.is_some_and(Facts::graph_resident);
                    let op_keys: Vec<Key> = match op.is_random() {
                        true => keys.iter().map(|k| k.child(randomized)).collect(),
                        false => Vec::new(),
                    };
                    randomized += u64::from(op.is_random());
                    let run = kernels::dispatch(op, &inputs, graph_input, &ctx, device, &op_keys);
                    Arc::new(run?)
                }
            };
            device.try_alloc(value.bytes()).map_err(Error::Oom)?;
            env[id] = Some(value);

            // Release inputs whose last consumer this was.
            for &i in &node.inputs {
                refcount[i] -= 1;
                if refcount[i] == 0 && !resident(i) {
                    if let Some(v) = env[i].take() {
                        device.free(v.bytes());
                    }
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        // Release the modeled-memory accounting of every live intermediate
        // of the aborted execution, so a retry (possibly at a smaller
        // super-batch factor) does not inherit phantom live bytes.
        for (i, v) in env.iter().enumerate() {
            if let (Some(v), false) = (v.as_deref(), resident(i)) {
                device.free(v.bytes());
            }
        }
        return Err(e);
    }

    let outputs: Vec<Arc<Value>> = program
        .outputs()
        .iter()
        .map(|&o| {
            env[o]
                .clone()
                .ok_or_else(|| Error::Execution(format!("output {o} missing")))
        })
        .collect::<Result<Vec<_>>>()?;
    // The outputs now hold the only reference to what this run produced.
    drop(env);

    let groups = superbatch::split_outputs(outputs, &ctx, facts, program.outputs())?;
    // The split runs pool regions outside any kernel's post-run check, and
    // a fired token cuts a region short at its next claim: discard.
    if let Some(cause) = gsampler_runtime::cancel::poll() {
        return Err(Error::from_cancel(cause));
    }
    Ok(groups)
}
