//! The analytical cost model: work descriptor → modeled device seconds.

use crate::device::DeviceProfile;
use crate::workload::KernelDesc;

/// Converts [`KernelDesc`] work descriptors into modeled execution time on
/// one [`DeviceProfile`].
///
/// The model is a roofline with launch overhead and an occupancy penalty:
///
/// ```text
/// t = launches · launch_overhead
///   + max(flops / peak_flops, bytes / mem_bw) / utilization
///   + bytes_pcie / pcie_bw
/// ```
///
/// `utilization` grows with the kernel's exposed parallelism and saturates
/// at 1.0 once there are enough work items to fill every SM — this is what
/// reproduces the batch-size curve of paper Fig. 6 and the super-batching
/// gains of Fig. 10: the same total work done in fewer, wider kernels
/// spends less time under-occupied (and pays fewer launch overheads).
#[derive(Debug, Clone)]
pub struct CostModel {
    profile: DeviceProfile,
}

/// Minimum modeled utilization: even a 1-thread kernel makes progress.
const MIN_UTILIZATION: f64 = 0.01;

impl CostModel {
    /// Build a cost model for one device.
    pub fn new(profile: DeviceProfile) -> CostModel {
        CostModel { profile }
    }

    /// The device profile being modeled.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Occupancy-based utilization in `[MIN_UTILIZATION, 1]` for a kernel
    /// exposing `parallelism` independent work items.
    pub fn utilization(&self, parallelism: u64) -> f64 {
        let saturation = self.profile.saturation_parallelism();
        (parallelism as f64 / saturation).clamp(MIN_UTILIZATION, 1.0)
    }

    /// Modeled `(seconds, utilization)` for a kernel.
    pub(crate) fn time_and_utilization(&self, desc: &KernelDesc) -> (f64, f64) {
        let util = self.utilization(desc.parallelism);
        let t_flops = desc.flops as f64 / self.profile.peak_flops;
        let t_mem = desc.bytes as f64 / self.profile.mem_bandwidth;
        let t_body = t_flops.max(t_mem) / util;
        let t_pcie = if self.profile.pcie_bandwidth.is_finite() {
            desc.bytes_pcie as f64 / self.profile.pcie_bandwidth
        } else {
            0.0
        };
        let t = desc.launches as f64 * self.profile.launch_overhead + t_body + t_pcie;
        (t, util)
    }

    /// Modeled seconds only.
    pub fn time(&self, desc: &KernelDesc) -> f64 {
        self.time_and_utilization(desc).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;

    fn v100() -> CostModel {
        CostModel::new(DeviceProfile::v100())
    }

    #[test]
    fn bandwidth_bound_kernel() {
        let m = v100();
        let desc = KernelDesc::new("memcpy")
            .with_bytes(900_000_000, 0)
            .with_parallelism(1 << 24);
        let t = m.time(&desc);
        // 0.9 GB at 900 GB/s = 1 ms (+5 µs launch).
        assert!((t - 1.005e-3).abs() < 1e-4, "t = {t}");
    }

    #[test]
    fn compute_bound_kernel() {
        let m = v100();
        let desc = KernelDesc::new("gemm")
            .with_flops(14_000_000_000)
            .with_bytes(1000, 0)
            .with_parallelism(1 << 24);
        let t = m.time(&desc);
        // 14 GFLOP at 14 TFLOPS = 1 ms.
        assert!((t - 1.005e-3).abs() < 1e-4, "t = {t}");
    }

    #[test]
    fn low_parallelism_is_penalized() {
        let m = v100();
        let wide = KernelDesc::new("wide")
            .with_bytes(1_000_000, 0)
            .with_parallelism(1 << 24);
        let narrow = KernelDesc::new("narrow")
            .with_bytes(1_000_000, 0)
            .with_parallelism(64);
        assert!(m.time(&narrow) > m.time(&wide) * 10.0);
    }

    #[test]
    fn utilization_saturates() {
        let m = v100();
        assert_eq!(m.utilization(u64::MAX), 1.0);
        assert_eq!(m.utilization(0), 0.01);
        let half = (DeviceProfile::v100().saturation_parallelism() / 2.0) as u64;
        assert!((m.utilization(half) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let m = v100();
        let mut tiny = KernelDesc::new("tiny").with_bytes(64, 0);
        tiny.launches = 100;
        let t = m.time(&tiny);
        assert!(t >= 100.0 * 5.0e-6);
    }

    #[test]
    fn t4_slower_than_v100_for_same_work() {
        let v = v100();
        let t4 = CostModel::new(DeviceProfile::t4());
        let desc = KernelDesc::new("w")
            .with_bytes(100_000_000, 0)
            .with_flops(1_000_000_000)
            .with_parallelism(1 << 24);
        assert!(t4.time(&desc) > v.time(&desc));
    }

    #[test]
    fn cpu_ignores_pcie() {
        let cpu = CostModel::new(DeviceProfile::cpu());
        let desc = KernelDesc::new("w")
            .with_bytes(1000, 0)
            .with_pcie(1_000_000_000);
        // PCIe term must not explode (host memory is local).
        assert!(cpu.time(&desc) < 1e-3);
    }
}
