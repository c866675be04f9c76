//! Device profiles: the hardware parameters of the analytical cost model.

/// Where the input graph's structure lives relative to the device.
///
/// The paper stores LJ/PD in GPU memory and keeps the billion-edge PP/FS
/// graphs in host memory, accessed through Unified Virtual Addressing: every
/// adjacency-list read then crosses PCIe, except for hot nodes that stay in
/// GPU cache thanks to the skewed access distribution (paper §5.2,
/// "Speedups on large-scale graphs"). A planned hot set pinned in device
/// memory (the graph's `CachePlan`) is priced the same way: its
/// byte-weighted hit fraction is the cache hit rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Residency {
    /// Graph structure resident in device memory.
    Device,
    /// Graph structure in host memory, read via UVA over PCIe; the field is
    /// the fraction of structure reads served from device cache
    /// (0.0 = every read crosses PCIe, 1.0 = fully cached).
    HostUva {
        /// Cache hit rate for structure reads, in `[0, 1]`.
        cache_hit_rate: f64,
    },
}

impl Residency {
    /// `HostUva` with the hit rate normalized at construction: NaN becomes
    /// 0.0 (pessimal, never poisons downstream estimates), out-of-range
    /// values are clamped into `[0, 1]` (debug builds assert instead).
    pub fn host_uva(cache_hit_rate: f64) -> Residency {
        Residency::HostUva {
            cache_hit_rate: normalize_rate(cache_hit_rate),
        }
    }

    /// Fraction of graph-structure bytes that cross PCIe. NaN-safe even
    /// for values smuggled in through a struct literal: a NaN rate reads
    /// as "nothing cached", never as a NaN cost.
    pub fn pcie_fraction(&self) -> f64 {
        match self {
            Residency::Device => 0.0,
            Residency::HostUva {
                cache_hit_rate: hit,
            } => {
                let hit = if hit.is_nan() {
                    0.0
                } else {
                    hit.clamp(0.0, 1.0)
                };
                1.0 - hit
            }
        }
    }
}

/// NaN → 0.0, then clamp into `[0, 1]`; debug builds assert the range
/// instead of silently clamping (an out-of-range rate is a planner bug).
fn normalize_rate(rate: f64) -> f64 {
    let rate = if rate.is_nan() { 0.0 } else { rate };
    debug_assert!(
        (0.0..=1.0).contains(&rate),
        "residency hit fraction {rate} outside [0, 1]"
    );
    rate.clamp(0.0, 1.0)
}

/// Hardware parameters of one execution device.
///
/// The two GPU presets use the published V100/T4 specifications the paper
/// cites (T4 memory bandwidth is 30.0% and FLOPS 51.6% of V100, §5.2
/// "Results on T4"); the CPU preset approximates the paper's Xeon host.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name ("V100", "T4", "CPU").
    pub name: &'static str,
    /// Peak single-precision throughput in FLOP/s.
    pub peak_flops: f64,
    /// Device memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Host↔device PCIe bandwidth in bytes/s (used under UVA residency).
    pub pcie_bandwidth: f64,
    /// Fixed overhead per kernel launch, in seconds.
    pub launch_overhead: f64,
    /// Number of streaming multiprocessors (or cores for a CPU).
    pub num_sms: usize,
    /// Resident threads per SM at full occupancy.
    pub threads_per_sm: usize,
    /// Device memory capacity in bytes.
    pub memory_capacity: u64,
    /// True for a CPU host: no launch batching effects, low parallelism.
    pub is_cpu: bool,
    /// Latency-bound memory throughput of a single work item, in bytes/s.
    /// An under-filled kernel moves `parallelism × per_item_throughput`
    /// bytes/s regardless of the device's peak — this is what makes small
    /// batches equally slow on a V100 and a T4 (and why the smaller T4
    /// *saturates* with less work, not why it would ever be faster).
    pub per_item_throughput: f64,
}

impl DeviceProfile {
    /// NVIDIA V100 (16 GB): the paper's default device.
    pub fn v100() -> DeviceProfile {
        DeviceProfile {
            name: "V100",
            peak_flops: 14.0e12,
            mem_bandwidth: 900.0e9,
            pcie_bandwidth: 12.0e9,
            launch_overhead: 5.0e-6,
            num_sms: 80,
            threads_per_sm: 2048,
            memory_capacity: 16 << 30,
            is_cpu: false,
            per_item_throughput: 5.5e6,
        }
    }

    /// NVIDIA T4 (16 GB): 30.0% of V100's bandwidth, 51.6% of its FLOPS.
    pub fn t4() -> DeviceProfile {
        DeviceProfile {
            name: "T4",
            peak_flops: 14.0e12 * 0.516,
            mem_bandwidth: 900.0e9 * 0.300,
            pcie_bandwidth: 12.0e9,
            launch_overhead: 5.0e-6,
            num_sms: 40,
            threads_per_sm: 1024,
            memory_capacity: 16 << 30,
            is_cpu: false,
            per_item_throughput: 5.5e6,
        }
    }

    /// Xeon-class CPU host (the paper's p3.16xlarge has 64 vCPUs).
    ///
    /// `mem_bandwidth` here is the *effective random-access throughput of
    /// a CPU sampling loop* (gathers + RNG + branching across OpenMP
    /// threads), not STREAM bandwidth — a few GB/s is what DGL/PyG CPU
    /// samplers achieve in practice. This, together with the lack of
    /// massive parallelism, is what makes CPU sampling 1–2 orders of
    /// magnitude slower in the paper's Figures 7–8 and what Table 1
    /// attributes the sampling bottleneck to.
    pub fn cpu() -> DeviceProfile {
        DeviceProfile {
            name: "CPU",
            peak_flops: 0.2e12,
            mem_bandwidth: 2.5e9,
            pcie_bandwidth: f64::INFINITY, // host memory is local
            launch_overhead: 5.0e-6,
            num_sms: 64,
            threads_per_sm: 1,
            memory_capacity: 488 << 30,
            is_cpu: true,
            per_item_throughput: 39.0e6,
        }
    }

    /// Work-item count at which kernels saturate the device's bandwidth
    /// (`peak / per-item latency-bound throughput`).
    pub(crate) fn saturation_parallelism(&self) -> f64 {
        self.mem_bandwidth / self.per_item_throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_ratios_match_paper() {
        let v = DeviceProfile::v100();
        let t = DeviceProfile::t4();
        assert!((t.mem_bandwidth / v.mem_bandwidth - 0.300).abs() < 1e-9);
        assert!((t.peak_flops / v.peak_flops - 0.516).abs() < 1e-9);
    }

    #[test]
    fn residency_pcie_fraction() {
        assert_eq!(Residency::Device.pcie_fraction(), 0.0);
        let uva = Residency::HostUva {
            cache_hit_rate: 0.7,
        };
        assert!((uva.pcie_fraction() - 0.3).abs() < 1e-12);
        let clamped = Residency::HostUva {
            cache_hit_rate: 1.5,
        };
        assert_eq!(clamped.pcie_fraction(), 0.0);
    }

    #[test]
    fn constructors_normalize_nan_and_pcie_fraction_is_nan_safe() {
        // NaN at construction reads as "nothing cached".
        assert_eq!(
            Residency::host_uva(f64::NAN),
            Residency::HostUva {
                cache_hit_rate: 0.0
            }
        );
        // Even a NaN smuggled in through a struct literal must not
        // propagate through the clamp into every downstream cost.
        let poisoned = Residency::HostUva {
            cache_hit_rate: f64::NAN,
        };
        assert_eq!(poisoned.pcie_fraction(), 1.0);
        // Property sweep: for any input, the constructed residency's
        // pcie_fraction is finite and in [0, 1].
        for raw in [0.0, 0.3, 1.0, f64::NAN] {
            let f = Residency::host_uva(raw).pcie_fraction();
            assert!(f.is_finite() && (0.0..=1.0).contains(&f), "{raw} -> {f}");
        }
        // Out-of-range literals (constructors debug-assert instead).
        assert_eq!(
            Residency::HostUva {
                cache_hit_rate: 1.5
            }
            .pcie_fraction(),
            0.0
        );
        assert_eq!(
            Residency::HostUva {
                cache_hit_rate: -3.0
            }
            .pcie_fraction(),
            1.0
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_rate_asserts_in_debug() {
        let _ = Residency::host_uva(1.5);
    }

    #[test]
    fn partial_endpoints_match_binary_residencies() {
        // A hot set covering every read prices like Device; an empty one
        // sends every structure byte across PCIe.
        assert_eq!(
            Residency::host_uva(1.0).pcie_fraction(),
            Residency::Device.pcie_fraction()
        );
        assert_eq!(Residency::host_uva(0.0).pcie_fraction(), 1.0);
    }

    #[test]
    fn cpu_has_less_parallelism_than_gpu() {
        assert!(
            DeviceProfile::cpu().saturation_parallelism()
                < DeviceProfile::t4().saturation_parallelism()
        );
    }

    #[test]
    fn t4_saturates_with_less_work_but_is_never_faster() {
        let v = DeviceProfile::v100();
        let t = DeviceProfile::t4();
        assert!(t.saturation_parallelism() < v.saturation_parallelism());
        // Equal per-item throughput: at any parallelism P, the modeled
        // effective bandwidth of T4 is <= V100's.
        for p in [64.0, 4096.0, 1e6] {
            let eff = |d: &DeviceProfile| (p * d.per_item_throughput).min(d.mem_bandwidth);
            assert!(eff(&t) <= eff(&v) + 1e-6);
        }
    }
}
