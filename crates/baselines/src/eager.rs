//! DGL-like eager execution baseline.
//!
//! DGL implements and optimizes each sampling algorithm by hand against
//! message-passing operators executed one at a time (paper §2.2, §6). The
//! costs that architecture pays relative to gSampler, all modeled here:
//!
//! - **per-operator dispatch**: every high-level call launches bookkeeping
//!   kernels besides the math (the `DISPATCH_LAUNCHES` surcharge);
//! - **no fusion**: extract materializes the sub-matrix before select;
//!   bias computation materializes edge messages before aggregating
//!   (the `copy_e` + `sum` pattern of paper Fig. 2);
//! - **no pre-processing**: batch-invariant work (LADIES' `A**2`,
//!   FastGCN's degrees) re-runs every batch;
//! - **greedy layouts**: each operator converts its input to that
//!   operator's best format, paying conversion cost blindly every batch;
//! - **no super-batching**: one mini-batch per execution, whatever the
//!   occupancy.
//!
//! The operator *math* is not reimplemented: every step resolves through
//! the shared kernel registry (`gsampler_core::kernels`) with a plain
//! single-batch context, so the eager-vs-optimized gap measured by the
//! benchmarks is purely the scheduling policy above.

use std::sync::Arc;

use gsampler_core::kernels::{self, ExecCtx};
use gsampler_core::{Bindings, Graph, Key, Value};
use gsampler_engine::workload::{self, MatShape};
use gsampler_engine::{Device, DeviceProfile, Residency};
use gsampler_ir::Op;
use gsampler_matrix::{Axis, Dense, EltOp, Format, GraphMatrix, NodeId, ReduceOp, SparseMatrix};

use crate::BaselineReport;

/// Framework bookkeeping launches charged per high-level operator.
const DISPATCH_LAUNCHES: u32 = 2;

/// A DGL-like eager sampler bound to one graph and device profile.
pub struct EagerSampler {
    graph: Arc<Graph>,
    graph_value: Value,
    device: Device,
    key: Key,
}

impl EagerSampler {
    /// Create an eager sampler (GPU or CPU profile).
    pub fn new(graph: Arc<Graph>, profile: DeviceProfile, seed: u64) -> EagerSampler {
        EagerSampler {
            graph_value: Value::Matrix(graph.matrix.clone()),
            graph,
            device: Device::new(profile),
            key: Key::new(seed),
        }
    }

    /// The device session (for stats snapshots).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Reset session statistics.
    pub fn reset(&self) {
        self.device.reset();
    }

    fn residency(&self) -> Residency {
        self.graph.residency
    }

    fn shape(m: &GraphMatrix) -> MatShape {
        let (r, c) = m.shape();
        MatShape::new(r, c, m.nnz())
    }

    fn charge(&self, mut desc: gsampler_engine::KernelDesc) {
        desc.launches += DISPATCH_LAUNCHES;
        self.device.charge(desc);
    }

    /// Run one operator through the shared kernel registry with a plain
    /// (single-batch, no super-batch segmentation) context; a randomized
    /// one draws with `key`.
    fn run_kernel(&self, op: &Op, inputs: &[&Value], key: Key) -> Value {
        let bindings = Bindings::new();
        let ctx = ExecCtx::plain(&self.graph, &bindings);
        kernels::run(op, inputs, &ctx, &[key]).expect("eager kernel")
    }

    /// Same for operators that consume no randomness.
    fn run_kernel_norng(&self, op: &Op, inputs: &[&Value]) -> Value {
        self.run_kernel(op, inputs, Key::new(0))
    }

    /// The key the compiled pipeline gives the first randomized op of
    /// layer `layer` of stream `stream` (`Sampler::key(stream)`, then
    /// the layer, then the op's ordinal): the one select of every eager
    /// layer draws with it, so eager and compiled GraphSAGE pick alike.
    fn layer_key(&self, stream: u64, layer: usize) -> Key {
        self.key.child(stream).child(layer as u64).child(0)
    }

    fn as_matrix(v: Value) -> GraphMatrix {
        match v {
            Value::Matrix(m) => m,
            other => panic!("expected matrix, got {}", other.kind_name()),
        }
    }

    fn as_vector(v: Value) -> Vec<f32> {
        match v {
            Value::Vector(x) => x,
            other => panic!("expected vector, got {}", other.kind_name()),
        }
    }

    /// Extract `A[:, frontiers]` (CSC gather), charging graph residency.
    fn extract(&self, frontiers: &[NodeId]) -> GraphMatrix {
        let f = Value::Nodes(frontiers.to_vec());
        let sub = Self::as_matrix(self.run_kernel_norng(&Op::SliceCols, &[&self.graph_value, &f]));
        let g = &self.graph.matrix;
        self.charge(workload::slice_cols(
            Format::Csc,
            MatShape::new(g.shape().0, g.shape().1, g.nnz()),
            sub.nnz(),
            frontiers.len(),
            self.residency(),
        ));
        self.device.alloc(sub.data.size_bytes());
        sub
    }

    /// Greedy conversion: move `m` to `fmt` unconditionally, charging the
    /// conversion and the resident copy.
    fn convert(&self, m: &GraphMatrix, fmt: Format) -> GraphMatrix {
        if m.data.format() == fmt {
            return m.clone();
        }
        self.charge(workload::convert(m.data.format(), fmt, Self::shape(m)));
        let v = Value::Matrix(m.clone());
        let out = Self::as_matrix(self.run_kernel_norng(&Op::Convert(fmt), &[&v]));
        self.device.alloc(out.data.size_bytes());
        out
    }

    /// Message-passing reduction: materialize per-edge messages
    /// (`copy_e`), then aggregate — two kernels and one extra pass of
    /// edge-value traffic relative to a fused reduce (paper Fig. 2).
    fn mp_reduce(&self, m: &GraphMatrix, op: ReduceOp, axis: Axis) -> Vec<f32> {
        let shape = Self::shape(m);
        let msg_bytes = m.nnz() * 4;
        self.charge(workload::eltwise(m.data.format(), shape)); // copy_e
        self.device.alloc(msg_bytes); // materialized edge messages
        self.charge(workload::reduce(m.data.format(), shape, axis));
        self.device.free(msg_bytes);
        let v = Value::Matrix(m.clone());
        Self::as_vector(self.run_kernel_norng(&Op::Reduce(op, axis), &[&v]))
    }

    fn edge_map_scalar(&self, m: &GraphMatrix, op: EltOp, s: f32) -> GraphMatrix {
        self.charge(workload::eltwise(m.data.format(), Self::shape(m)));
        let v = Value::Matrix(m.clone());
        Self::as_matrix(self.run_kernel_norng(&Op::ScalarOp(op, s), &[&v]))
    }

    fn edge_broadcast(&self, m: &GraphMatrix, v: &[f32], op: EltOp, axis: Axis) -> GraphMatrix {
        self.charge(workload::broadcast(m.data.format(), Self::shape(m)));
        let mv = Value::Matrix(m.clone());
        let vv = Value::Vector(v.to_vec());
        Self::as_matrix(self.run_kernel_norng(&Op::Broadcast(op, axis), &[&mv, &vv]))
    }

    /// Node-wise select on a materialized sub-matrix.
    fn select(
        &self,
        sub: &GraphMatrix,
        k: usize,
        probs: Option<&GraphMatrix>,
        key: Key,
    ) -> GraphMatrix {
        self.charge(workload::individual_sample(
            sub.data.format(),
            Self::shape(sub),
            k,
            probs.is_some(),
            Residency::Device,
        ));
        let sv = Value::Matrix(sub.clone());
        let op = Op::IndividualSample { k };
        let out = match probs {
            Some(p) => {
                let pv = Value::Matrix(p.clone());
                self.run_kernel(&op, &[&sv, &pv], key)
            }
            None => self.run_kernel(&op, &[&sv], key),
        };
        Self::as_matrix(out)
    }

    /// Layer-wise select with explicit node weights.
    fn collective(
        &self,
        sub: &GraphMatrix,
        width: usize,
        probs: &[f32],
        frontier_count: usize,
        key: Key,
    ) -> GraphMatrix {
        self.charge(workload::collective_sample(
            sub.data.format(),
            Self::shape(sub),
            width,
            width * frontier_count.max(1),
            Residency::Device,
        ));
        let sv = Value::Matrix(sub.clone());
        let pv = Value::Vector(probs.to_vec());
        let out = self.run_kernel(&Op::CollectiveSample { k: width }, &[&sv, &pv], key);
        Self::as_matrix(out)
    }

    /// SDDMM attention channel via the shared kernel (left table indexed
    /// by global row ID, right by column position). The operands arrive as
    /// the values the kernel reads — the pattern already wrapped, the two
    /// projections moved in — so the call copies nothing.
    fn sddmm(&self, sub: &Value, b: Dense, c: Dense) -> SparseMatrix {
        let m = sub.as_matrix().expect("sddmm pattern is a matrix");
        self.charge(workload::sddmm(m.data.format(), Self::shape(m), b.ncols()));
        let (bv, cv) = (Value::Dense(b), Value::Dense(c));
        Self::as_matrix(self.run_kernel_norng(&Op::Sddmm, &[sub, &bv, &cv])).data
    }

    /// One uniform node-wise layer (GraphSAGE): extract then select, both
    /// materialized.
    pub fn graphsage_layer(&self, frontiers: &[NodeId], fanout: usize, key: Key) -> GraphMatrix {
        let sub = self.extract(frontiers);
        let out = self.select(&sub, fanout, None, key);
        self.device.alloc(out.data.size_bytes());
        self.device.free(sub.data.size_bytes());
        out
    }

    /// Multi-layer GraphSAGE batch.
    pub fn graphsage_batch(
        &self,
        frontiers: &[NodeId],
        fanouts: &[usize],
        stream: u64,
    ) -> Vec<GraphMatrix> {
        let mut cur: Vec<NodeId> = frontiers.to_vec();
        let mut out = Vec::with_capacity(fanouts.len());
        for (l, &k) in fanouts.iter().enumerate() {
            let m = self.graphsage_layer(&cur, k, self.layer_key(stream, l));
            cur = m.row_nodes();
            out.push(m);
        }
        out
    }

    /// One LADIES layer: squared-weight bias via message passing (no
    /// pre-processed `A**2`), greedy conversions for the reduce and the
    /// row gather, collective select, debias, renormalize.
    pub fn ladies_layer(&self, frontiers: &[NodeId], width: usize, key: Key) -> GraphMatrix {
        let sub = self.extract(frontiers);
        // Bias: square every batch (DGL has no pre-processing pass).
        let sq = self.edge_map_scalar(&sub, EltOp::Pow, 2.0);
        // Greedy: reduce prefers CSR -> convert (COO pivot inside).
        let sq_csr = self.convert(&sq, Format::Csr);
        let row_probs = self.mp_reduce(&sq_csr, ReduceOp::Sum, Axis::Row);
        // Collective select prefers CSR as well; sub must follow.
        let sub_csr = self.convert(&sub, Format::Csr);
        let sampled = self.collective(&sub_csr, width, &row_probs, frontiers.len(), key);
        self.device.alloc(sampled.data.size_bytes());
        // Debias by selection probability, renormalize per frontier.
        let sel: Vec<f32> = sampled
            .global_row_ids()
            .iter()
            .map(|&g| row_probs[g as usize % row_probs.len().max(1)])
            .collect();
        self.charge(workload::vector_op(sel.len()));
        let debiased = self.edge_broadcast(&sampled, &sel, EltOp::Div, Axis::Row);
        let colsum = self.mp_reduce(&debiased, ReduceOp::Sum, Axis::Col);
        let out = self.edge_broadcast(&debiased, &colsum, EltOp::Div, Axis::Col);
        self.device.free(sub.data.size_bytes());
        self.device.free(sq_csr.data.size_bytes());
        self.device.free(sub_csr.data.size_bytes());
        out
    }

    /// Multi-layer LADIES batch.
    pub fn ladies_batch(
        &self,
        frontiers: &[NodeId],
        width: usize,
        layers: usize,
        stream: u64,
    ) -> Vec<GraphMatrix> {
        let mut cur: Vec<NodeId> = frontiers.to_vec();
        let mut out = Vec::with_capacity(layers);
        for l in 0..layers {
            let m = self.ladies_layer(&cur, width, self.layer_key(stream, l));
            cur = m.row_nodes();
            out.push(m);
        }
        out
    }

    /// FastGCN: like LADIES but with degree bias — recomputed every batch
    /// over the *full graph* (no pre-processing), the expensive part DGL
    /// pays.
    pub fn fastgcn_layer(&self, frontiers: &[NodeId], width: usize, key: Key) -> GraphMatrix {
        let g = &self.graph.matrix;
        // Degrees of the full graph, every batch.
        self.charge(workload::reduce(
            Format::Csc,
            MatShape::new(g.shape().0, g.shape().1, g.nnz()),
            Axis::Row,
        ));
        let deg: Vec<f32> = g.data.row_degrees().iter().map(|&d| d as f32).collect();
        let sub = self.extract(frontiers);
        let sub_csr = self.convert(&sub, Format::Csr);
        let sampled = self.collective(&sub_csr, width, &deg, frontiers.len(), key);
        let sel: Vec<f32> = sampled
            .global_row_ids()
            .iter()
            .map(|&v| deg[v as usize])
            .collect();
        let out = self.edge_broadcast(&sampled, &sel, EltOp::Div, Axis::Row);
        self.device.free(sub.data.size_bytes());
        self.device.free(sub_csr.data.size_bytes());
        out
    }

    /// AS-GCN: learned bias `relu(features @ Wg)` computed every batch
    /// over the full feature table, plus LADIES-style selection.
    pub fn asgcn_layer(
        &self,
        frontiers: &[NodeId],
        width: usize,
        wg: &Dense,
        key: Key,
    ) -> GraphMatrix {
        let feats = self.graph.features.as_ref().expect("features required");
        self.charge(workload::gemm(feats.nrows(), feats.ncols(), wg.ncols()));
        let scores = feats.matmul(wg).expect("gemm dims").relu();
        let learned: Vec<f32> = (0..scores.nrows())
            .map(|r| scores.get(r, 0) + 1e-6)
            .collect();
        let sub = self.extract(frontiers);
        let sq = self.edge_map_scalar(&sub, EltOp::Pow, 2.0);
        let sq_csr = self.convert(&sq, Format::Csr);
        let structural = self.mp_reduce(&sq_csr, ReduceOp::Sum, Axis::Row);
        self.charge(workload::vector_op(structural.len()));
        let bias: Vec<f32> = structural
            .iter()
            .zip(&learned)
            .map(|(&s, &l)| s + l)
            .collect();
        let sub_csr = self.convert(&sub, Format::Csr);
        let sampled = self.collective(&sub_csr, width, &bias, frontiers.len(), key);
        let sel: Vec<f32> = sampled
            .global_row_ids()
            .iter()
            .map(|&v| bias[v as usize])
            .collect();
        let out = self.edge_broadcast(&sampled, &sel, EltOp::Div, Axis::Row);
        self.device.free(sub.data.size_bytes());
        self.device.free(sq_csr.data.size_bytes());
        self.device.free(sub_csr.data.size_bytes());
        out
    }

    /// PASS: two SDDMM attention channels plus degree normalization, all
    /// materialized separately (no edge-map fusion), then biased select.
    pub fn pass_layer(
        &self,
        frontiers: &[NodeId],
        fanout: usize,
        w1: &Dense,
        w2: &Dense,
        w3: &Dense,
        key: Key,
    ) -> GraphMatrix {
        let feats = self.graph.features.as_ref().expect("features required");
        let sub_value = Value::Matrix(self.extract(frontiers));
        let sub = sub_value.as_matrix().expect("just wrapped");
        let shape = Self::shape(sub);
        let hidden = w1.ncols();
        // Full-table projections every batch (DGL's manual implementation
        // projects all candidate features).
        let mut transient = 0usize;
        self.charge(workload::gemm(feats.nrows(), feats.ncols(), hidden));
        let b1 = feats.matmul(w1).expect("gemm dims");
        transient += b1.size_bytes();
        self.device.alloc(b1.size_bytes());
        self.charge(workload::gather_features(
            frontiers.len(),
            feats.ncols(),
            self.residency(),
        ));
        let frontier_feats = feats.gather_rows(frontiers).expect("frontier features");
        self.charge(workload::gemm(frontiers.len(), feats.ncols(), hidden));
        let c1 = frontier_feats.matmul(w1).expect("gemm dims");
        let a1 = self.sddmm(&sub_value, b1, c1);
        self.charge(workload::gemm(feats.nrows(), feats.ncols(), hidden));
        let b2 = feats.matmul(w2).expect("gemm dims");
        transient += b2.size_bytes();
        self.device.alloc(b2.size_bytes());
        self.charge(workload::gemm(frontiers.len(), feats.ncols(), hidden));
        let c2 = frontier_feats.matmul(w2).expect("gemm dims");
        let a2 = self.sddmm(&sub_value, b2, c2);
        let rowsum = self.mp_reduce(sub, ReduceOp::Sum, Axis::Row);
        let a3 = self.edge_broadcast(sub, &rowsum, EltOp::Div, Axis::Row);
        // Stack + project + relu, each its own kernel.
        self.charge(workload::dense_map(sub.nnz() * 3));
        let a1v = Value::Matrix(GraphMatrix {
            data: a1.clone(),
            row_ids: sub.row_ids.clone(),
            col_ids: sub.col_ids.clone(),
        });
        let a2v = Value::Matrix(GraphMatrix {
            data: a2.clone(),
            row_ids: sub.row_ids.clone(),
            col_ids: sub.col_ids.clone(),
        });
        let a3v = Value::Matrix(a3);
        let stacked = match self.run_kernel_norng(&Op::StackEdgeValues, &[&a1v, &a2v, &a3v]) {
            Value::Dense(d) => d,
            other => panic!("expected dense, got {}", other.kind_name()),
        };
        self.charge(workload::gemm(sub.nnz(), 3, 1));
        let bias = stacked
            .matmul(&w3.softmax_flat())
            .expect("gemm dims")
            .relu();
        self.charge(workload::eltwise(sub.data.format(), shape));
        let probs = GraphMatrix {
            data: sub.data.with_values(bias.column(0)),
            row_ids: sub.row_ids.clone(),
            col_ids: sub.col_ids.clone(),
        };
        transient +=
            (a1.size_bytes() + a2.size_bytes()) + stacked.size_bytes() + probs.data.size_bytes();
        self.device.alloc(
            a1.size_bytes() + a2.size_bytes() + stacked.size_bytes() + probs.data.size_bytes(),
        );
        // The weighted pick: relu can zero whole columns, whose zero-weight
        // candidates still fill them up to the fan-out.
        self.charge(workload::individual_sample(
            sub.data.format(),
            shape,
            fanout,
            true,
            Residency::Device,
        ));
        let pv = Value::Matrix(probs.clone());
        let op = Op::IndividualSample { k: fanout };
        let out = Self::as_matrix(self.run_kernel(&op, &[&sub_value, &pv], key));
        self.device.free(sub.data.size_bytes());
        self.device.free(transient);
        out
    }

    /// ShaDow: expansion layers then an induced subgraph, each op eager.
    pub fn shadow_batch(
        &self,
        frontiers: &[NodeId],
        fanouts: &[usize],
        stream: u64,
    ) -> GraphMatrix {
        let layers = self.graphsage_batch(frontiers, fanouts, stream);
        let mut nodes: Vec<NodeId> = frontiers.to_vec();
        for m in &layers {
            nodes.extend(m.row_nodes());
        }
        nodes.sort_unstable();
        nodes.dedup();
        let g = &self.graph.matrix;
        self.charge(workload::induce_subgraph(
            Format::Csc,
            MatShape::new(g.shape().0, g.shape().1, g.nnz()),
            nodes.len() * 16,
            nodes.len(),
            self.residency(),
        ));
        let nv = Value::Nodes(nodes);
        Self::as_matrix(self.run_kernel_norng(&Op::InduceSubgraph, &[&self.graph_value, &nv]))
    }

    /// One random-walk step for every walker (DGL's `random_walk`):
    /// extract + sample, materialized, with framework dispatch.
    pub fn walk_batch(&self, seeds: &[NodeId], length: usize, stream: u64) -> Vec<Vec<NodeId>> {
        let mut cur: Vec<NodeId> = seeds.to_vec();
        let mut trace = Vec::with_capacity(length);
        for s in 0..length {
            let sub = self.extract(&cur);
            let step = self.select(&sub, 1, None, self.layer_key(stream, s));
            let sv = Value::Matrix(step);
            let next = match self.run_kernel_norng(&Op::NextWalkFrontier, &[&sv]) {
                Value::Nodes(n) => n,
                other => panic!("expected nodes, got {}", other.kind_name()),
            };
            self.device.free(sub.data.size_bytes());
            cur = next;
            trace.push(cur.clone());
        }
        trace
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

    fn graph() -> Arc<Graph> {
        let mut edges = Vec::new();
        for v in 0..64u32 {
            for d in 1..6u32 {
                edges.push(((v + d * 7) % 64, v, 0.5 + (d as f32) * 0.1));
            }
        }
        Arc::new(
            Graph::from_edges("test", 64, &edges, true)
                .unwrap()
                .with_features(Dense::from_vec(64, 4, vec![0.1; 256]).unwrap()),
        )
    }

    #[test]
    fn graphsage_batch_valid_and_charged() {
        let s = EagerSampler::new(graph(), DeviceProfile::v100(), 1);
        let out = s.graphsage_batch(&[0, 1, 2, 3], &[3, 2], 0);
        assert_eq!(out.len(), 2);
        for d in out[0].data.col_degrees() {
            assert!(d <= 3);
        }
        let report = s.report(1);
        assert!(report.modeled_time > 0.0);
        assert!(report.launches > 4);
    }

    #[test]
    fn ladies_layer_normalizes() {
        let s = EagerSampler::new(graph(), DeviceProfile::v100(), 2);
        let out = s.ladies_layer(&[0, 1, 2], 8, Key::new(3));
        let sums = gsampler_matrix::reduce::reduce(&out.data, ReduceOp::Sum, Axis::Col);
        for v in sums {
            if v != 0.0 {
                assert!((v - 1.0).abs() < 1e-4);
            }
        }
        assert!(out.row_nodes().len() <= 8);
    }

    #[test]
    fn walks_follow_edges() {
        let g = graph();
        let s = EagerSampler::new(g.clone(), DeviceProfile::v100(), 3);
        let trace = s.walk_batch(&[0, 5, 9], 4, 0);
        assert_eq!(trace.len(), 4);
        let csc = g.matrix.data.to_csc();
        let mut cur = vec![0u32, 5, 9];
        for step in &trace {
            for (w, &n) in step.iter().enumerate() {
                assert!(n == cur[w] || csc.contains_edge(n, cur[w] as usize));
            }
            cur = step.clone();
        }
    }

    #[test]
    fn pass_layer_respects_fanout() {
        let g = graph();
        let s = EagerSampler::new(g, DeviceProfile::v100(), 4);

        let w1 = Dense::from_vec(4, 2, vec![0.2; 8]).unwrap();
        let w2 = Dense::from_vec(4, 2, vec![-0.1; 8]).unwrap();
        let w3 = Dense::from_vec(3, 1, vec![0.4, 0.3, 0.3]).unwrap();
        let out = s.pass_layer(&[0, 1], 2, &w1, &w2, &w3, Key::new(5));
        for d in out.data.col_degrees() {
            assert!(d <= 2);
        }
    }

    #[test]
    fn cpu_profile_is_slower() {
        let g = graph();
        let gpu = EagerSampler::new(g.clone(), DeviceProfile::v100(), 1);
        gpu.graphsage_batch(&(0..32).collect::<Vec<_>>(), &[4, 4], 0);
        let cpu = EagerSampler::new(g, DeviceProfile::cpu(), 1);
        cpu.graphsage_batch(&(0..32).collect::<Vec<_>>(), &[4, 4], 0);
        assert!(cpu.report(1).modeled_time > gpu.report(1).modeled_time);
    }

    #[test]
    fn fastgcn_and_asgcn_run() {
        let g = graph();
        let s = EagerSampler::new(g, DeviceProfile::v100(), 6);
        let f = s.fastgcn_layer(&[0, 1, 2], 6, Key::new(7));
        assert!(f.row_nodes().len() <= 6);
        let wg = Dense::from_vec(4, 1, vec![0.3; 4]).unwrap();
        let a = s.asgcn_layer(&[0, 1, 2], 6, &wg, Key::new(8));
        assert!(a.row_nodes().len() <= 6);
    }

    #[test]
    fn shadow_induces_subgraph() {
        let g = graph();
        let s = EagerSampler::new(g.clone(), DeviceProfile::v100(), 8);
        let m = s.shadow_batch(&[0, 1], &[3, 2], 0);
        let base: std::collections::HashSet<(u32, u32)> = g
            .matrix
            .global_edges()
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        for (r, c, _) in m.global_edges() {
            assert!(base.contains(&(r, c)));
        }
    }

    #[test]
    fn biased_select_tolerates_zero_probability_columns() {
        // PASS's relu bias can zero out every weight of a column; the
        // eager pick must keep sampling (weighted without replacement,
        // where zero-weight candidates are legal), not reject the batch.
        let g = graph();
        let s = EagerSampler::new(g, DeviceProfile::v100(), 9);

        let sub = s.extract(&[0, 1, 2]);
        let probs = GraphMatrix {
            data: sub.data.with_values(vec![0.0; sub.nnz()]),
            row_ids: sub.row_ids.clone(),
            col_ids: sub.col_ids.clone(),
        };
        let before = s.device.stats().total_time;
        let out = s.select(&sub, 2, Some(&probs), Key::new(1));
        for d in out.data.col_degrees() {
            assert!(d <= 2);
        }
        assert!(out.nnz() > 0);
        // A weighted select reads its bias too: it charges more modeled
        // time than the same select without one.
        let weighted = s.device.stats().total_time - before;
        let before = s.device.stats().total_time;
        s.select(&sub, 2, None, Key::new(1));
        assert!(weighted > s.device.stats().total_time - before);
    }

    #[test]
    fn eager_math_matches_shared_kernels_bit_exactly() {
        // The same seed through the eager policy layer and directly
        // through the registry must produce identical samples — the eager
        // baseline adds scheduling cost, never different math.
        let g = graph();
        let s = EagerSampler::new(g.clone(), DeviceProfile::v100(), 11);
        let frontiers: Vec<NodeId> = (0..6).collect();
        let eager_out = s.graphsage_batch(&frontiers, &[3], 7);

        let bindings = Bindings::new();
        let ctx = ExecCtx::plain(&g, &bindings);
        let key = [Key::new(11).child(7).child(0).child(0)];
        let gv = Value::Matrix(g.matrix.clone());
        let fv = Value::Nodes(frontiers);
        let sub = kernels::run(&Op::SliceCols, &[&gv, &fv], &ctx, &key).unwrap();
        let op = Op::IndividualSample { k: 3 };
        let direct = kernels::run(&op, &[&sub], &ctx, &key).unwrap();
        let direct_m = direct.as_matrix().unwrap();
        assert_eq!(eager_out[0].global_edges(), direct_m.global_edges());
    }
}
