//! Multi-GPU graph sampling.
//!
//! The paper's second future-work direction (§7): *"jointly utilize
//! multiple GPUs on a machine to conduct graph sampling."* This module
//! implements the natural data-parallel design: every GPU holds (or UVA-
//! maps) the graph and compiles the same sampler; an epoch's mini-batches
//! are sharded round-robin across the devices. Device compute runs in
//! parallel, so the epoch's modeled compute time is the *maximum* over
//! devices — but UVA-resident graphs serialize on the machine's single
//! host↔device interconnect, so PCIe time is *summed*, which is what makes
//! multi-GPU scaling sub-linear for the host-resident graphs (PP/FS) and
//! near-linear for the device-resident ones (LJ/PD).

use std::sync::Arc;

use gsampler_engine::ExecStats;
use gsampler_matrix::NodeId;
use gsampler_runtime::Key;

use crate::builder::Layer;
use crate::compile::{compile, Sampler, SamplerConfig};
use crate::error::Result;
use crate::exec::Bindings;
use crate::graph::Graph;

/// A fleet of per-GPU samplers over one graph.
pub struct MultiGpuSampler {
    shards: Vec<Sampler>,
}

/// Modeled outcome of one multi-GPU epoch.
#[derive(Debug, Clone)]
pub struct MultiGpuReport {
    /// Modeled epoch seconds: `max(compute per device) + Σ PCIe`.
    pub modeled_time: f64,
    /// Per-device modeled compute seconds (excluding PCIe).
    pub per_device_compute: Vec<f64>,
    /// Total PCIe seconds across devices (serialized on one bus).
    pub pcie_time: f64,
    /// Mini-batches each device processed.
    pub per_device_batches: Vec<usize>,
    /// All shards' dispatcher records merged into one session view
    /// (per-kernel aggregates survive the merge, so `stats.profile()`
    /// breaks the whole fleet's work down by kernel).
    pub stats: ExecStats,
}

impl MultiGpuSampler {
    /// Compile the same layers on `num_gpus` identical devices.
    pub fn compile(
        graph: Arc<Graph>,
        layers: Vec<Layer>,
        config: SamplerConfig,
        num_gpus: usize,
    ) -> Result<MultiGpuSampler> {
        let n = num_gpus.max(1);
        let mut shards = Vec::with_capacity(n);
        for g in 0..n {
            let mut shard = compile(graph.clone(), layers.clone(), config.clone())?;
            // Shard `g` draws with its own child of the seed's key.
            shard.key = Key::new(config.seed).child(g as u64);
            shards.push(shard);
        }
        Ok(MultiGpuSampler { shards })
    }

    /// Run one epoch with the seeds sharded round-robin by mini-batch.
    ///
    /// Execution is emulated sequentially; the report combines the
    /// per-device sessions under the parallel-compute / serialized-PCIe
    /// model described in the module docs.
    pub fn run_epoch(
        &self,
        seeds: &[NodeId],
        bindings: &Bindings,
        epoch: u64,
    ) -> Result<MultiGpuReport> {
        self.run_epoch_with(seeds, bindings, epoch, |_, _, _| {})
    }

    /// Like [`Self::run_epoch`], but hands every sample to `consume` as
    /// `(device_index, device_batch_index, sample)` so determinism and
    /// correctness harnesses can fingerprint the sharded outputs instead
    /// of only timing them.
    pub fn run_epoch_with(
        &self,
        seeds: &[NodeId],
        bindings: &Bindings,
        epoch: u64,
        mut consume: impl FnMut(usize, usize, crate::compile::GraphSample),
    ) -> Result<MultiGpuReport> {
        let n = self.shards.len();
        // Shard seeds round-robin in stripes of one mini-batch, using the
        // batch size the shards were compiled for.
        let mut per_shard_seeds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let bs = self.shards[0].config_batch_size();
        for (i, chunk) in seeds.chunks(bs).enumerate() {
            per_shard_seeds[i % n].extend_from_slice(chunk);
        }

        let mut per_device_compute = Vec::with_capacity(n);
        let mut per_device_batches = Vec::with_capacity(n);
        let mut pcie_time = 0.0;
        let mut stats = ExecStats::default();
        for (device, (shard, shard_seeds)) in self.shards.iter().zip(&per_shard_seeds).enumerate() {
            if shard_seeds.is_empty() {
                per_device_compute.push(0.0);
                per_device_batches.push(0);
                continue;
            }
            let report = shard.run_epoch_with(shard_seeds, bindings, epoch, |batch, sample| {
                consume(device, batch, sample)
            })?;
            let pcie = report.stats.total_bytes_pcie as f64
                / shard.device().profile().pcie_bandwidth.max(1.0);
            pcie_time += pcie;
            per_device_compute.push((report.modeled_time - pcie).max(0.0));
            per_device_batches.push(report.batches);
            stats.merge(&report.stats);
        }
        let max_compute = per_device_compute.iter().copied().fold(0.0, f64::max);
        Ok(MultiGpuReport {
            modeled_time: max_compute + pcie_time,
            per_device_compute,
            pcie_time,
            per_device_batches,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LayerBuilder;
    use crate::{OptConfig, Residency};

    fn layers(k: usize) -> Vec<Layer> {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let s = a.slice_cols(&f).individual_sample(k, None);
        let next = s.row_nodes();
        b.output(&s);
        b.output_next_frontiers(&next);
        vec![b.build()]
    }

    fn graph(uva: bool) -> Arc<Graph> {
        let mut edges = Vec::new();
        for v in 0..512u32 {
            for d in 1..9u32 {
                edges.push(((v * 3 + d * 17) % 512, v, 1.0));
            }
        }
        let mut g = Graph::from_edges("mg", 512, &edges, false).unwrap();
        if uva {
            g = g.with_residency(Residency::HostUva {
                cache_hit_rate: 0.3,
            });
        }
        Arc::new(g)
    }

    fn config() -> SamplerConfig {
        SamplerConfig {
            opt: OptConfig::all(),
            batch_size: 32,
            ..SamplerConfig::new()
        }
    }

    #[test]
    fn device_resident_scales_nearly_linearly() {
        let g = graph(false);
        let seeds: Vec<u32> = (0..512).collect();
        let t1 = MultiGpuSampler::compile(g.clone(), layers(4), config(), 1)
            .unwrap()
            .run_epoch(&seeds, &Bindings::new(), 0)
            .unwrap();
        let t4 = MultiGpuSampler::compile(g, layers(4), config(), 4)
            .unwrap()
            .run_epoch(&seeds, &Bindings::new(), 0)
            .unwrap();
        assert_eq!(
            t4.per_device_batches.iter().sum::<usize>(),
            t1.per_device_batches[0]
        );
        let speedup = t1.modeled_time / t4.modeled_time;
        assert!(speedup > 2.5, "4-GPU speedup only {speedup:.2}x");
    }

    #[test]
    fn uva_graph_scales_worse_than_device_resident() {
        let seeds: Vec<u32> = (0..512).collect();
        let scaling = |uva: bool| {
            let g = graph(uva);
            let t1 = MultiGpuSampler::compile(g.clone(), layers(4), config(), 1)
                .unwrap()
                .run_epoch(&seeds, &Bindings::new(), 0)
                .unwrap();
            let t4 = MultiGpuSampler::compile(g, layers(4), config(), 4)
                .unwrap()
                .run_epoch(&seeds, &Bindings::new(), 0)
                .unwrap();
            t1.modeled_time / t4.modeled_time
        };
        let device = scaling(false);
        let uva = scaling(true);
        assert!(
            uva < device,
            "UVA scaling {uva:.2}x should trail device-resident {device:.2}x"
        );
    }

    #[test]
    fn work_is_sharded_across_devices() {
        let g = graph(false);
        let seeds: Vec<u32> = (0..512).collect();
        let fleet = MultiGpuSampler::compile(g, layers(4), config(), 3).unwrap();
        assert_eq!(fleet.shards.len(), 3);
        let report = fleet.run_epoch(&seeds, &Bindings::new(), 0).unwrap();
        // 16 batches across 3 devices: 6/5/5.
        let mut b = report.per_device_batches.clone();
        b.sort_unstable();
        assert_eq!(b, vec![5, 5, 6]);
        assert!(report.pcie_time.abs() < 1e-12);
        // The merged fleet session carries every shard's dispatcher
        // records: launches equal the shard totals, and the per-kernel
        // profile is available fleet-wide.
        let shard_launches: u64 = fleet
            .shards
            .iter()
            .map(|s| s.device().stats().kernel_launches)
            .sum();
        assert_eq!(report.stats.kernel_launches, shard_launches);
        assert!(!report.stats.profile().is_empty());
    }
}
