//! SkyWalker-like vertex-centric baseline.
//!
//! SkyWalker precomputes a Walker alias table per adjacency list and lets
//! every walker/frontier sample with O(1) draws and a purely local view
//! (paper §6). That is excellent for random walks and uniform node-wise
//! sampling — and the reason the architecture cannot express anything
//! else: no tensor operators, no cross-frontier normalization, no
//! subgraph-level view. Only DeepWalk, Node2Vec (by per-step rejection)
//! and GraphSAGE are available, mirroring the N/A columns in Figs. 7–8.

use std::sync::Arc;

use gsampler_core::{Graph, Key};
use gsampler_engine::rng::counter;
use gsampler_engine::workload::KernelDesc;
use gsampler_engine::{Device, DeviceProfile};
use gsampler_matrix::sample::AliasTable;
use gsampler_matrix::{Csc, NodeId};

use crate::BaselineReport;

/// Bytes touched per alias-table draw (table entry + output).
const DRAW_BYTES: u64 = 24;

/// A vertex-centric sampler with per-node alias tables.
pub struct VertexCentricSampler {
    csc: Csc,
    tables: Vec<Option<AliasTable>>,
    device: Device,
    key: Key,
    pcie_fraction: f64,
}

impl VertexCentricSampler {
    /// Build the per-node alias tables (SkyWalker's setup phase; excluded
    /// from epoch timing like the paper's warm-up epoch).
    pub fn new(graph: Arc<Graph>, profile: DeviceProfile, seed: u64) -> VertexCentricSampler {
        let csc = graph.matrix.data.to_csc();
        let tables: Vec<Option<AliasTable>> = (0..csc.ncols)
            .map(|v| {
                let range = csc.col_range(v);
                if range.is_empty() {
                    None
                } else {
                    let w: Vec<f32> = range.map(|pos| csc.value_at(pos)).collect();
                    AliasTable::new(&w).ok()
                }
            })
            .collect();
        VertexCentricSampler {
            csc,
            tables,
            device: Device::new(profile),
            key: Key::new(seed),
            pcie_fraction: graph.residency.pcie_fraction(),
        }
    }

    /// The device session.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Reset session statistics.
    pub fn reset(&self) {
        self.device.reset();
    }

    fn charge_step(&self, draws: u64, extra_bytes: u64, walkers: u64) {
        let bytes = draws * DRAW_BYTES + extra_bytes;
        let pcie = (bytes as f64 * self.pcie_fraction) as u64;
        self.device.charge(
            KernelDesc::new("vc_step")
                .with_bytes(bytes, draws * 4)
                .with_pcie(pcie)
                .with_flops(draws * 4)
                .with_parallelism(walkers),
        );
    }

    /// Node `v`'s neighbour drawn by draw `counter` of `key`.
    fn draw_neighbor(&self, v: NodeId, key: Key, counter: u64) -> Option<NodeId> {
        let table = self.tables[v as usize].as_ref()?;
        let off = table.sample(key, counter);
        let pos = self.csc.col_range(v as usize).start + off;
        Some(self.csc.indices[pos])
    }

    /// DeepWalk: one alias draw per walker per step (walker `w`'s step `s`
    /// is draw `(s, w)` of the stream's key).
    pub fn deepwalk_batch(&self, seeds: &[NodeId], length: usize, stream: u64) -> Vec<Vec<NodeId>> {
        let key = self.key.child(stream);
        let mut cur: Vec<NodeId> = seeds.to_vec();
        let mut trace = Vec::with_capacity(length);
        for s in 0..length {
            for (w, pos) in cur.iter_mut().enumerate() {
                if let Some(next) = self.draw_neighbor(*pos, key, counter(s, w)) {
                    *pos = next;
                }
            }
            self.charge_step(cur.len() as u64, 0, cur.len() as u64);
            trace.push(cur.clone());
        }
        trace
    }

    /// Node2Vec with a per-step second-order transition table: the
    /// dynamic bias cannot be pre-tabulated (it depends on the previous
    /// node), so each step recomputes the weight of *every* neighbour of
    /// the current node — one adjacency read plus one membership probe
    /// into the previous node's list per candidate. This neighbourhood
    /// scan, SkyWalker's approach to dynamic bias, is what makes
    /// vertex-centric Node2Vec an order of magnitude more expensive than
    /// DeepWalk (and the paper's largest speedup case).
    pub fn node2vec_batch(
        &self,
        seeds: &[NodeId],
        length: usize,
        p: f32,
        q: f32,
        stream: u64,
    ) -> Vec<Vec<NodeId>> {
        let key = self.key.child(stream);
        let mut prev: Vec<NodeId> = seeds.to_vec();
        let mut cur: Vec<NodeId> = seeds.to_vec();
        let mut trace = Vec::with_capacity(length);
        for s in 0..length {
            let mut scan_bytes: u64 = 0;
            let next: Vec<NodeId> = (cur.iter().zip(prev.iter()).enumerate())
                .map(|(w, (&v, &pv))| {
                    let range = self.csc.col_range(v as usize);
                    if range.is_empty() {
                        return v;
                    }
                    let probe = 8
                        * ((self.csc.col_degree(pv as usize).max(2) as f64)
                            .log2()
                            .ceil() as u64);
                    let mut weights: Vec<f32> = Vec::with_capacity(range.len());
                    for pos in range.clone() {
                        let cand = self.csc.indices[pos];
                        scan_bytes += 8 + probe;
                        let w = if cand == pv {
                            1.0 / p
                        } else if self.csc.contains_edge(cand, pv as usize)
                            || self.csc.contains_edge(pv, cand as usize)
                        {
                            1.0
                        } else {
                            1.0 / q
                        };
                        weights.push(w * self.csc.value_at(pos).max(f32::EPSILON));
                    }
                    // Inverse-transform draw over the computed weights.
                    let total: f32 = weights.iter().sum();
                    let u = key.unit(counter(s, w)) as f32;
                    let mut target = u * total.max(f32::MIN_POSITIVE);
                    let mut chosen = range.len() - 1;
                    for (i, &w) in weights.iter().enumerate() {
                        if target < w {
                            chosen = i;
                            break;
                        }
                        target -= w;
                    }
                    self.csc.indices[range.start + chosen]
                })
                .collect();
            self.charge_step(cur.len() as u64, scan_bytes, cur.len() as u64);
            prev = cur;
            cur = next;
            trace.push(cur.clone());
        }
        trace
    }

    /// GraphSAGE: `fanout` alias draws per frontier per layer (duplicates
    /// collapse, like sampling with replacement then dedup).
    pub fn graphsage_batch(
        &self,
        frontiers: &[NodeId],
        fanouts: &[usize],
        stream: u64,
    ) -> Vec<Vec<Vec<NodeId>>> {
        let key = self.key.child(stream);
        let mut cur: Vec<NodeId> = frontiers.to_vec();
        let mut layers = Vec::with_capacity(fanouts.len());
        for (l, &k) in fanouts.iter().enumerate() {
            let layer = key.child(l as u64);
            let mut per_frontier: Vec<Vec<NodeId>> = Vec::with_capacity(cur.len());
            let mut draws = 0u64;
            for (i, &f) in cur.iter().enumerate() {
                let mut picked: Vec<NodeId> = Vec::with_capacity(k);
                for j in 0..k {
                    draws += 1;
                    if let Some(n) = self.draw_neighbor(f, layer, counter(i, j)) {
                        picked.push(n);
                    }
                }
                picked.sort_unstable();
                picked.dedup();
                per_frontier.push(picked);
            }
            self.charge_step(draws, 0, cur.len() as u64);
            cur = per_frontier.iter().flatten().copied().collect();
            cur.sort_unstable();
            cur.dedup();
            layers.push(per_frontier);
        }
        layers
    }

    /// Snapshot the session into a report.
    pub fn report(&self, batches: usize) -> BaselineReport {
        let stats = self.device.stats();
        BaselineReport {
            modeled_time: stats.total_time,
            batches,
            launches: stats.kernel_launches,
            sm_utilization: stats.sm_utilization(),
            peak_memory: self.device.memory().peak(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_matrix::Dense;

    fn graph() -> Arc<Graph> {
        let mut edges = Vec::new();
        for v in 0..64u32 {
            for d in 1..5u32 {
                edges.push(((v + d * 11) % 64, v, 1.0 + d as f32));
            }
        }
        Arc::new(
            Graph::from_edges("vc", 64, &edges, true)
                .unwrap()
                .with_features(Dense::zeros(64, 4)),
        )
    }

    #[test]
    fn deepwalk_steps_follow_edges() {
        let g = graph();
        let s = VertexCentricSampler::new(g.clone(), DeviceProfile::v100(), 1);
        let trace = s.deepwalk_batch(&[0, 7, 13], 6, 0);
        assert_eq!(trace.len(), 6);
        let csc = g.matrix.data.to_csc();
        let mut cur = vec![0u32, 7, 13];
        for step in &trace {
            for (w, &n) in step.iter().enumerate() {
                assert!(n == cur[w] || csc.contains_edge(n, cur[w] as usize));
            }
            cur = step.clone();
        }
        assert!(s.report(1).modeled_time > 0.0);
    }

    #[test]
    fn node2vec_costs_more_than_deepwalk() {
        let g = graph();
        let dw = VertexCentricSampler::new(g.clone(), DeviceProfile::v100(), 1);
        dw.deepwalk_batch(&(0..32).collect::<Vec<_>>(), 10, 0);
        let n2v = VertexCentricSampler::new(g, DeviceProfile::v100(), 1);
        n2v.node2vec_batch(&(0..32).collect::<Vec<_>>(), 10, 2.0, 0.5, 0);
        assert!(
            n2v.report(1).modeled_time > dw.report(1).modeled_time,
            "rejection sampling must cost more"
        );
    }

    #[test]
    fn graphsage_fanout_respected() {
        let g = graph();
        let s = VertexCentricSampler::new(g, DeviceProfile::v100(), 2);
        let layers = s.graphsage_batch(&[0, 1, 2, 3], &[3, 2], 0);
        assert_eq!(layers.len(), 2);
        for per in &layers[0] {
            assert!(per.len() <= 3);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let a = VertexCentricSampler::new(g.clone(), DeviceProfile::v100(), 9).deepwalk_batch(
            &[0, 1],
            5,
            3,
        );
        let b =
            VertexCentricSampler::new(g, DeviceProfile::v100(), 9).deepwalk_batch(&[0, 1], 5, 3);
        assert_eq!(a, b);
    }
}
