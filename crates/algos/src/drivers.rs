//! Host-side drivers for algorithms whose sampling interleaves with state
//! the ECSF program cannot hold: per-walker chains, restart policies,
//! visit counting, subgraph induction, and bandit arm updates.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gsampler_core::builder::LayerBuilder;
use gsampler_core::{
    compile, Bindings, EpochReport, Graph, GraphSample, Key, Result, Sampler, SamplerConfig,
};
use gsampler_engine::rng::counter;
use gsampler_matrix::{GraphMatrix, NodeId};

use crate::params::Hyper;

/// The trace of one batch of random walks: `positions[step][walker]`.
#[derive(Debug, Clone)]
pub struct WalkTrace {
    /// The starting nodes.
    pub seeds: Vec<NodeId>,
    /// Walker positions after each step (step 0 = after the first hop).
    pub positions: Vec<Vec<NodeId>>,
}

impl WalkTrace {
    /// All distinct nodes visited, including the seeds.
    pub fn visited(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.seeds.clone();
        for step in &self.positions {
            all.extend_from_slice(step);
        }
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The full sequence of walker `w` (seed first).
    pub fn sequence(&self, w: usize) -> Vec<NodeId> {
        let mut seq = Vec::with_capacity(self.positions.len() + 1);
        seq.push(self.seeds[w]);
        for step in &self.positions {
            seq.push(step[w]);
        }
        seq
    }
}

/// Drive one batch of walks with a single-step sampler (one layer, fanout
/// 1). `node2vec` enables the second-order bias binding; `restart`, when
/// positive, teleports each walker back to its seed with that probability
/// after every step (PinSAGE/HetGNN-style walks with restarts).
pub fn run_walk_batch(
    sampler: &Sampler,
    seeds: &[NodeId],
    length: usize,
    node2vec: bool,
    restart: f32,
    stream: u64,
) -> Result<WalkTrace> {
    let mut traces = run_walk_groups(
        sampler,
        vec![seeds.to_vec()],
        length,
        node2vec,
        restart,
        stream,
    )?;
    Ok(traces.pop().expect("one group in, one trace out"))
}

/// Drive several batches of walks *together* as one super-batch per step
/// (paper §4.4: walk batches are tiny, so stepping many at once is what
/// fills the device). Returns one trace per group. Group `g` draws only
/// with `sampler.key(stream + g)`, so its trace is the one
/// [`run_walk_batch`] returns for it alone on stream `stream + g`.
pub fn run_walk_groups(
    sampler: &Sampler,
    seed_groups: Vec<Vec<NodeId>>,
    length: usize,
    node2vec: bool,
    restart: f32,
    stream: u64,
) -> Result<Vec<WalkTrace>> {
    let keys: Vec<Key> = (0..seed_groups.len() as u64)
        .map(|g| sampler.key(stream + g))
        .collect();
    walk_groups(sampler, seed_groups, length, node2vec, restart, &keys)
}

/// [`run_walk_groups`] with one explicit key per group: group `g`'s step
/// `s` draws with `keys[g].child(0).child(s)`, and its walker `w`'s restart
/// coin at step `s` is draw `(s, w)` of `keys[g].child(1)`, so a group's
/// trace depends on its key and nothing else.
fn walk_groups(
    sampler: &Sampler,
    seed_groups: Vec<Vec<NodeId>>,
    length: usize,
    node2vec: bool,
    restart: f32,
    keys: &[Key],
) -> Result<Vec<WalkTrace>> {
    let steps: Vec<Key> = keys.iter().map(|k| k.child(0)).collect();
    let restarts: Vec<Key> = keys.iter().map(|k| k.child(1)).collect();
    let mut frontiers: Vec<Vec<NodeId>> = seed_groups.clone();
    let mut positions: Vec<Vec<Vec<NodeId>>> = seed_groups
        .iter()
        .map(|_| Vec::with_capacity(length))
        .collect();
    for step in 0..length {
        let mut bindings = Bindings::new();
        if node2vec {
            // Each walker's position one step ago, concatenated in the
            // same order as the frontier groups.
            let prev: Vec<NodeId> = if step < 2 {
                seed_groups.iter().flatten().copied().collect()
            } else {
                positions
                    .iter()
                    .flat_map(|p| p[step - 2].iter().copied())
                    .collect()
            };
            bindings = bindings.node_list("prev", prev);
        }
        let step_keys: Vec<Key> = steps.iter().map(|k| k.child(step as u64)).collect();
        let outs = sampler.sample_groups(frontiers.clone(), &bindings, &step_keys)?;
        for (g, out) in outs.into_iter().enumerate() {
            let mut next = out.layers[0]
                .last()
                .and_then(|v| v.as_nodes())
                .expect("walk layer outputs next frontier")
                .to_vec();
            debug_assert_eq!(next.len(), frontiers[g].len());
            if restart > 0.0 {
                for (w, pos) in next.iter_mut().enumerate() {
                    if restarts[g].unit(counter(step, w)) < restart as f64 {
                        *pos = seed_groups[g][w];
                    }
                }
            }
            frontiers[g] = next.clone();
            positions[g].push(next);
        }
    }
    Ok(seed_groups
        .into_iter()
        .zip(positions)
        .map(|(seeds, positions)| WalkTrace { seeds, positions })
        .collect())
}

/// Run a full walk epoch over `seeds` in mini-batches of the sampler's
/// compiled batch size (which `hyper.batch_size` must equal), returning
/// the device-session report (and discarding traces — timing runs).
pub fn run_walk_epoch(
    sampler: &Sampler,
    seeds: &[NodeId],
    hyper: &Hyper,
    node2vec: bool,
    epoch: u64,
) -> Result<EpochReport> {
    run_walk_epoch_with(sampler, seeds, hyper, node2vec, epoch, |_, _| {})
}

/// [`run_walk_epoch`], handing each mini-batch's trace to `consume` with
/// its batch index. Runs on [`Sampler::drive_epoch`], so walk epochs share
/// its super-batch windows, degradation ladder, quarantine and
/// cancellation; batch `b`'s walk is keyed by the key the driver hands it,
/// at any super-batch factor.
pub fn run_walk_epoch_with(
    sampler: &Sampler,
    seeds: &[NodeId],
    hyper: &Hyper,
    node2vec: bool,
    epoch: u64,
    consume: impl FnMut(usize, WalkTrace),
) -> Result<EpochReport> {
    debug_assert_eq!(
        hyper.batch_size,
        sampler.config_batch_size(),
        "walk epochs cut batches by the sampler's compiled batch size"
    );
    sampler.drive_epoch(
        seeds,
        epoch,
        |groups, keys| walk_groups(sampler, groups, hyper.walk_length, node2vec, 0.0, keys),
        consume,
    )
}

/// PinSAGE neighbourhoods: run `walks_per_seed` restarts-enabled walks per
/// seed, count visits attributed to each seed, keep the `top_k` most
/// visited nodes as that seed's neighbourhood (paper Table 2 row 3).
pub fn pinsage_neighbors(
    sampler: &Sampler,
    seeds: &[NodeId],
    hyper: &Hyper,
    stream: u64,
) -> Result<Vec<Vec<NodeId>>> {
    let counts = pinsage_like_counts(sampler, seeds, hyper, stream)?;
    Ok(counts
        .into_iter()
        .map(|counts| {
            let mut ranked: Vec<(NodeId, usize)> = counts.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked
                .into_iter()
                .take(hyper.top_k)
                .map(|(v, _)| v)
                .collect()
        })
        .collect())
}

/// HetGNN neighbourhoods: like PinSAGE, but the top-k is taken *per node
/// type* (types simulated as `node_id % num_types` on our homogeneous
/// graphs — see DESIGN.md's substitution table).
pub fn hetgnn_neighbors(
    sampler: &Sampler,
    seeds: &[NodeId],
    hyper: &Hyper,
    stream: u64,
) -> Result<Vec<Vec<Vec<NodeId>>>> {
    let flat = pinsage_like_counts(sampler, seeds, hyper, stream)?;
    let mut out = Vec::with_capacity(seeds.len());
    for counts in flat {
        let mut per_type: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); hyper.num_types];
        for (v, c) in counts {
            per_type[v as usize % hyper.num_types].push((v, c));
        }
        let groups: Vec<Vec<NodeId>> = per_type
            .into_iter()
            .map(|mut g| {
                g.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                g.into_iter().take(hyper.top_k).map(|(v, _)| v).collect()
            })
            .collect();
        out.push(groups);
    }
    Ok(out)
}

fn pinsage_like_counts(
    sampler: &Sampler,
    seeds: &[NodeId],
    hyper: &Hyper,
    stream: u64,
) -> Result<Vec<HashMap<NodeId, usize>>> {
    let mut walkers: Vec<NodeId> = Vec::with_capacity(seeds.len() * hyper.walks_per_seed);
    for &s in seeds {
        for _ in 0..hyper.walks_per_seed {
            walkers.push(s);
        }
    }
    let trace = run_walk_batch(
        sampler,
        &walkers,
        hyper.walk_length,
        false,
        hyper.restart,
        stream,
    )?;
    let mut out = Vec::with_capacity(seeds.len());
    for (si, &seed) in seeds.iter().enumerate() {
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for w in 0..hyper.walks_per_seed {
            let walker = si * hyper.walks_per_seed + w;
            for step in &trace.positions {
                let v = step[walker];
                if v != seed {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
        }
        out.push(counts);
    }
    Ok(out)
}

/// A compiled single-layer sampler that induces the subgraph on a node
/// set — the finalize step of GraphSAINT / ShaDow / SEAL, kept as a
/// program so its kernel cost is charged like everything else.
pub fn induce_sampler(graph: std::sync::Arc<Graph>, config: SamplerConfig) -> Result<Sampler> {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.induce(&f);
    b.output(&sub);
    compile(graph, vec![b.build()], config)
}

/// GraphSAINT (random-walk sampler): walk from the seeds, union the
/// visited nodes, induce the subgraph. Returns the induced sample.
pub fn graphsaint_sample(
    walk_sampler: &Sampler,
    induce: &Sampler,
    seeds: &[NodeId],
    hyper: &Hyper,
    stream: u64,
) -> Result<GraphMatrix> {
    let trace = run_walk_batch(walk_sampler, seeds, hyper.walk_length, false, 0.0, stream)?;
    let visited = trace.visited();
    let out = induce.sample_batch_seeded(&visited, &Bindings::new(), stream)?;
    Ok(out.layers[0][0]
        .as_matrix()
        .expect("induce outputs a matrix")
        .clone())
}

/// ShaDow: run the multi-layer expansion, union every sampled node with
/// the seeds, induce the subgraph.
pub fn shadow_sample(
    expansion: &Sampler,
    induce: &Sampler,
    seeds: &[NodeId],
    stream: u64,
) -> Result<GraphMatrix> {
    let out = expansion.sample_batch_seeded(seeds, &Bindings::new(), stream)?;
    let mut nodes: Vec<NodeId> = seeds.to_vec();
    for layer in &out.layers {
        if let Some(m) = layer[0].as_matrix() {
            nodes.extend(m.row_nodes());
            nodes.extend(m.col_nodes());
        }
    }
    nodes.sort_unstable();
    nodes.dedup();
    let induced = induce.sample_batch_seeded(&nodes, &Bindings::new(), stream)?;
    Ok(induced.layers[0][0]
        .as_matrix()
        .expect("induce outputs a matrix")
        .clone())
}

/// Which bandit update rule a [`BanditState`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BanditRule {
    /// GCN-BS: UCB-flavoured additive update with a visit-count bonus.
    GcnBs,
    /// Thanos: EXP3-flavoured multiplicative update.
    Thanos,
}

/// Host-side bandit arms for GCN-BS / Thanos: one weight per node,
/// updated from per-batch rewards computed on the sampled subgraph.
#[derive(Debug, Clone)]
pub struct BanditState {
    /// Current arm weights (the `"bandit"` binding).
    pub weights: Vec<f32>,
    counts: Vec<u32>,
    rule: BanditRule,
    eta: f32,
}

impl BanditState {
    /// Fresh arms (weight 1 everywhere).
    pub fn new(num_nodes: usize, rule: BanditRule) -> BanditState {
        BanditState {
            weights: vec![1.0; num_nodes],
            counts: vec![0; num_nodes],
            rule,
            eta: 0.1,
        }
    }

    /// The binding to pass to the sampler.
    pub fn bindings(&self) -> Bindings {
        Bindings::new().vector("bandit", self.weights.clone())
    }

    /// Update arms from a sampled batch: each sampled node's reward is its
    /// aggregated edge weight in the sample (a proxy for the gradient
    /// signal the real estimators use).
    pub fn update(&mut self, sample: &GraphSample) {
        for layer in &sample.layers {
            let Some(m) = layer[0].as_matrix() else {
                continue;
            };
            let mut reward: HashMap<NodeId, f32> = HashMap::new();
            for (r, _, v) in m.global_edges() {
                *reward.entry(r).or_insert(0.0) += v.abs();
            }
            for (node, r) in reward {
                let i = node as usize;
                if i >= self.weights.len() {
                    continue;
                }
                self.counts[i] += 1;
                match self.rule {
                    BanditRule::GcnBs => {
                        // Additive with a decaying exploration bonus.
                        let bonus = 1.0 / (self.counts[i] as f32).sqrt();
                        self.weights[i] += self.eta * (r + bonus);
                    }
                    BanditRule::Thanos => {
                        let clipped = r.min(10.0);
                        self.weights[i] *= (self.eta * clipped).exp().min(4.0);
                    }
                }
            }
        }
        // Keep weights bounded for numerical sanity.
        let max = self.weights.iter().copied().fold(1.0f32, f32::max);
        if max > 1e6 {
            for w in &mut self.weights {
                *w /= max;
                *w = w.max(1e-9);
            }
        }
    }
}

/// PASS projection weights (`W1`, `W2`: `d × hidden`; `W3`: `3 × 1`),
/// randomly initialized — the trainer updates them between batches.
pub fn pass_bindings(feature_dim: usize, hidden: usize, seed: u64) -> Bindings {
    let mut rng = StdRng::seed_from_u64(seed);
    Bindings::new()
        .dense(
            "W1",
            gsampler_matrix::Dense::random(feature_dim, hidden, 0.3, &mut rng),
        )
        .dense(
            "W2",
            gsampler_matrix::Dense::random(feature_dim, hidden, 0.3, &mut rng),
        )
        .dense("W3", gsampler_matrix::Dense::random(3, 1, 0.5, &mut rng))
}

/// AS-GCN's learned-bias weights (`Wg`: `d × 1`).
pub fn asgcn_bindings(feature_dim: usize, seed: u64) -> Bindings {
    let mut rng = StdRng::seed_from_u64(seed);
    Bindings::new().dense(
        "Wg",
        gsampler_matrix::Dense::random(feature_dim, 1, 0.5, &mut rng),
    )
}

/// SEAL's static PPR bias binding.
pub fn seal_bindings(graph: &Graph) -> Bindings {
    let ppr = crate::ppr::pagerank(graph, 0.85, 20);
    Bindings::new().vector("ppr", ppr)
}
