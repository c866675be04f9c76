//! Hoisted values: a layer's precompute program and a one-entry memo of
//! its outputs (paper §4.2, "Pre-processing").
//!
//! Pre-processing moves every node that varies with the graph or the bound
//! inputs only into the precompute program. Its outputs are the same in
//! every launch that reads the same inputs, so a [`Hoist`] evaluates the
//! program once per set of bound inputs and hands every later launch the
//! same values.
//!
//! The memo key is the identity of the bound input `Arc`s the program
//! reads, resolved the way a launch resolves them (so the graph's
//! auto-bound `features` is keyed too): a new `Arc` is a new key, whatever
//! it holds. Keys are `Weak` handles compared by address against the live
//! `Arc`s. A `Weak` keeps its allocation, so no later binding can reuse
//! the address while the entry holds it, and it keeps no caller's value
//! alive. A program that reads no bound input has the empty key; the
//! compiler fills it once, at compile time — graph-only precompute is that
//! case of the memo, not a second mechanism.
//!
//! The values pay off while the bound inputs stay fixed across launches. A
//! caller that rebinds a weight every step misses every step, and still
//! evaluates each product once per launch rather than once per layer.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use gsampler_engine::Device;
use gsampler_ir::passes::OptimizedProgram;
use gsampler_ir::{Op, Program, Varies};
use gsampler_runtime::Key;

use crate::error::Result;
use crate::exec::Bindings;
use crate::graph::Graph;
use crate::kernels::{self, ExecCtx};
use crate::value::Value;
use crate::window::{execute_recovering, RecoveryPolicy};

/// A layer's precompute program with the memo of its outputs. Layers with
/// equal precompute programs, and samplers that share a plan-database
/// entry, share one `Hoist`, so they fill it once between them.
pub struct Hoist {
    /// The layer's compile; `precompute` and `precompute_facts` are read.
    optimized: Arc<OptimizedProgram>,
    memo: Mutex<Memo>,
}

#[derive(Default)]
struct Memo {
    /// The bound inputs `values` was evaluated from, in node order; `None`
    /// until the first fill.
    key: Option<Vec<Weak<Value>>>,
    values: Vec<Arc<Value>>,
}

impl Memo {
    fn holds(&self, bound: &[Arc<Value>]) -> bool {
        self.key.as_ref().is_some_and(|key| {
            key.len() == bound.len()
                && (key.iter().zip(bound)).all(|(k, b)| std::ptr::eq(k.as_ptr(), Arc::as_ptr(b)))
        })
    }
}

impl Hoist {
    /// The unfilled memo of `optimized`'s precompute program.
    pub(crate) fn new(optimized: &Arc<OptimizedProgram>) -> Hoist {
        Hoist {
            optimized: optimized.clone(),
            memo: Mutex::default(),
        }
    }

    /// The precompute program; output `i` fills `Precomputed` slot `i`.
    fn precompute(&self) -> &Program {
        &self.optimized.precompute
    }

    /// True if the program reads a bound input, so its values are
    /// evaluated at the first launch of each set of bindings rather than
    /// at compile time.
    pub(crate) fn reads_bindings(&self) -> bool {
        (self.optimized.precompute_facts.iter()).any(|f| f.varies == Varies::Binding)
    }

    /// The program's bound inputs, in node order: the memo key's nodes.
    fn bound_inputs(&self) -> impl Iterator<Item = &Op> {
        let facts = &self.optimized.precompute_facts;
        (self.precompute().nodes().iter().zip(facts))
            .filter(|(n, f)| n.op.is_input() && f.varies == Varies::Binding)
            .map(|(n, _)| &n.op)
    }

    /// The values of the last fill (empty before the first).
    pub fn cached(&self) -> Vec<Arc<Value>> {
        self.lock().values.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Memo> {
        // Every write replaces the whole entry after a successful fill, so
        // a panic mid-fill leaves the previous entry intact.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The values filling the slots of a launch that binds `bindings`:
    /// the memo's on a hit; on a miss, the precompute program's, evaluated
    /// now on `device` under `policy` (its kernels count in the current
    /// epoch) and kept as the one entry. The fill draws no RNG: random
    /// operators vary with the batch and are never hoisted.
    pub(crate) fn values(
        &self,
        graph: &Graph,
        graph_value: &Arc<Value>,
        bindings: &Bindings,
        policy: &RecoveryPolicy,
        device: &Device,
    ) -> Result<Vec<Arc<Value>>> {
        let program = self.precompute();
        if program.is_empty() {
            return Ok(Vec::new());
        }
        let ctx = ExecCtx::plain(graph, bindings);
        let bound = (self.bound_inputs())
            .map(|op| kernels::run_input(op, &ctx))
            .collect::<Result<Vec<_>>>()?;
        // Held through the fill: a concurrent launch with the same inputs
        // waits for this one's values instead of evaluating its own.
        let mut memo = self.lock();
        if !memo.holds(&bound) {
            let mut span = gsampler_obs::span("hoist", "fill");
            span.arg("bound_inputs", bound.len());
            // Precompute is never randomized (a random op varies by batch),
            // so its one key is never drawn from.
            let out = execute_recovering(
                policy,
                program,
                &self.optimized.precompute_facts,
                graph,
                graph_value,
                &[Vec::new()],
                bindings,
                &[],
                device,
                &[Key::new(0)],
            )?;
            *memo = Memo {
                key: Some(bound.iter().map(Arc::downgrade).collect()),
                values: out.into_iter().flatten().map(Arc::new).collect(),
            };
        }
        Ok(memo.values.clone())
    }
}
