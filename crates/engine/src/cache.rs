//! Degree-aware structure caching for UVA-resident graphs.
//!
//! The paper's first future-work direction (§7): *"exploit the skewed
//! access of graph data to design smart caching strategies that improve
//! efficiency for large graphs."* This module implements the planning
//! side: given a graph's degree distribution and a device-memory budget,
//! choose which adjacency lists to pin on the device and predict the
//! resulting cache hit rate.
//!
//! Model: under neighbour sampling, node `v` is visited as a frontier
//! with probability proportional to its in-degree (it is reached through
//! its in-edges), and serving a visit reads its whole adjacency list
//! (`deg(v)` entries). The byte-weighted hit rate of caching a set `C` is
//! therefore `Σ_{v∈C} deg(v)² / Σ_v deg(v)²` — and since the benefit per
//! cached byte is `deg(v)² / deg(v) = deg(v)`, filling the budget in
//! descending degree order is optimal. Power-law graphs concentrate
//! `Σ deg²` in their hubs, which is why a cache much smaller than the
//! graph serves most accesses (the effect behind the paper's UVA numbers).

use std::sync::Arc;

/// Bytes needed to pin one adjacency list of degree `d`.
pub fn list_bytes(d: usize) -> u64 {
    // Edge entries (id + value) plus a pointer-table slot.
    (d as u64) * 8 + 16
}

/// A planned device-side structure cache: the summary numbers the cost
/// model needs plus the per-node membership map the executor consults to
/// count *actual* per-batch hits (frontier-composition-aware accounting,
/// not just the planner's prediction).
#[derive(Debug, Clone)]
pub struct CachePlan {
    /// Number of (hottest) nodes whose adjacency lists are pinned.
    pub cached_nodes: usize,
    /// Bytes of device memory the pinned lists occupy.
    pub bytes_used: u64,
    /// Predicted fraction of structure-byte accesses served from device.
    pub hit_rate: f64,
    /// Membership bitmap over node IDs (bit `v` set = `v`'s list pinned).
    /// Arc'd so cloning a plan (graphs are `Clone`) shares one map.
    cached: Arc<[u64]>,
    /// Node count the bitmap was planned over.
    num_nodes: usize,
}

impl CachePlan {
    /// Whether `node`'s adjacency list is pinned on the device. Out-of-
    /// range IDs (a plan consulted against a different graph) miss.
    #[inline]
    pub fn is_cached(&self, node: usize) -> bool {
        node < self.num_nodes && self.cached[node / 64] & (1u64 << (node % 64)) != 0
    }

    /// Node count this plan was derived from.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

/// Plan a cache: pin adjacency lists in descending degree order until the
/// budget is exhausted; predict the byte-weighted hit rate under
/// degree-proportional access. Ties on degree break by ascending node ID,
/// so the membership map is deterministic.
pub fn plan_cache(degrees: &[usize], budget_bytes: u64) -> CachePlan {
    let mut order: Vec<u32> = (0..degrees.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        degrees[b as usize]
            .cmp(&degrees[a as usize])
            .then(a.cmp(&b))
    });
    let total_weight: f64 = degrees.iter().map(|&d| (d as f64) * (d as f64)).sum();
    let mut cached = vec![0u64; degrees.len().div_ceil(64)];
    let mut bytes_used = 0u64;
    let mut cached_weight = 0f64;
    let mut cached_nodes = 0usize;
    for &v in &order {
        let d = degrees[v as usize];
        let cost = list_bytes(d);
        if bytes_used + cost > budget_bytes {
            // One oversized hub must not stop the scan: smaller lists
            // behind it may still fit the remaining budget.
            continue;
        }
        bytes_used += cost;
        cached_weight += (d as f64) * (d as f64);
        cached_nodes += 1;
        cached[v as usize / 64] |= 1u64 << (v % 64);
    }
    let hit_rate = if total_weight > 0.0 {
        cached_weight / total_weight
    } else {
        0.0
    };
    if gsampler_obs::is_enabled() {
        gsampler_obs::event(
            "cache",
            "plan",
            &[
                ("nodes", gsampler_obs::Arg::from(degrees.len())),
                ("cached_nodes", gsampler_obs::Arg::from(cached_nodes)),
                ("bytes_used", gsampler_obs::Arg::from(bytes_used)),
                ("budget_bytes", gsampler_obs::Arg::from(budget_bytes)),
                ("hit_rate", gsampler_obs::Arg::from(hit_rate)),
            ],
        );
    }
    CachePlan {
        cached_nodes,
        bytes_used,
        hit_rate,
        cached: cached.into(),
        num_nodes: degrees.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_zero_budget() {
        assert_eq!(plan_cache(&[], 1 << 20).hit_rate, 0.0);
        let p = plan_cache(&[5, 5, 5], 0);
        assert_eq!(p.cached_nodes, 0);
        assert_eq!(p.hit_rate, 0.0);
    }

    #[test]
    fn full_budget_caches_everything() {
        let degrees = vec![3, 7, 1, 9];
        let p = plan_cache(&degrees, 1 << 30);
        assert_eq!(p.cached_nodes, 4);
        assert!((p.hit_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_distribution_gets_high_hit_rate_cheaply() {
        // One hub with degree 1000, 999 leaves with degree 1: caching just
        // the hub (8016 bytes) serves ~99.9% of byte-weighted accesses.
        let mut degrees = vec![1usize; 999];
        degrees.push(1000);
        let p = plan_cache(&degrees, 9_000);
        // The hub is pinned first; the leftover budget fits a few leaves.
        assert!(p.cached_nodes >= 1 && p.cached_nodes < 60);
        assert!(p.hit_rate > 0.99, "hit rate {}", p.hit_rate);
        // A uniform graph with the same edge count gains only its
        // proportional share.
        let uniform = vec![2usize; 1000];
        let q = plan_cache(&uniform, 9_000);
        assert!(q.hit_rate < 0.5, "uniform hit rate {}", q.hit_rate);
    }

    #[test]
    fn hit_rate_monotone_in_budget() {
        let degrees: Vec<usize> = (1..200).map(|i| 200 / i).collect();
        let mut last = 0.0;
        for budget in [1_000u64, 10_000, 100_000, 1_000_000] {
            let h = plan_cache(&degrees, budget).hit_rate;
            assert!(h >= last - 1e-12, "hit rate not monotone");
            last = h;
        }
        assert!((last - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exactly_equal_to_graph_caches_everything() {
        let degrees = vec![4usize, 2, 7, 1];
        let exact: u64 = degrees.iter().map(|&d| list_bytes(d)).sum();
        let p = plan_cache(&degrees, exact);
        assert_eq!(p.cached_nodes, 4);
        assert_eq!(p.bytes_used, exact);
        assert!((p.hit_rate - 1.0).abs() < 1e-12);
        // One byte short of the full graph must drop exactly the cheapest
        // (lowest-degree, pinned last) list.
        let q = plan_cache(&degrees, exact - 1);
        assert_eq!(q.cached_nodes, 3);
        assert!(q.hit_rate < 1.0);
    }

    #[test]
    fn equal_degrees_fill_budget_without_bias() {
        // Ties on degree: any subset of equal-degree lists has the same
        // hit rate, so the plan must simply fill the budget — exactly
        // budget/list_bytes nodes, hit rate equal to that fraction.
        let degrees = vec![6usize; 10];
        let per = list_bytes(6);
        let p = plan_cache(&degrees, per * 3 + per / 2);
        assert_eq!(p.cached_nodes, 3);
        assert_eq!(p.bytes_used, per * 3);
        assert!((p.hit_rate - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_degree_lists_carry_no_weight() {
        // All-zero degrees: nothing to serve, hit rate pinned to zero no
        // matter what fits in the budget.
        let p = plan_cache(&[0, 0, 0], 1 << 20);
        assert_eq!(p.hit_rate, 0.0);
        assert_eq!(p.cached_nodes, 3);
        // Mixed: zero-degree lists sort last and never displace real ones.
        let degrees = vec![0usize, 9, 0, 3];
        let q = plan_cache(&degrees, list_bytes(9) + list_bytes(3));
        assert_eq!(q.cached_nodes, 2);
        assert!((q.hit_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_hub_does_not_stop_the_scan() {
        // The hub's list alone (80,016 bytes) exceeds the whole budget;
        // the greedy scan must skip it and keep pinning the leaves behind
        // it (the pre-fix `break` cached nothing here).
        let mut degrees = vec![4usize; 100];
        degrees.push(10_000);
        let budget = 2_000u64;
        let p = plan_cache(&degrees, budget);
        assert!(p.cached_nodes > 0, "oversized hub stopped the scan");
        assert_eq!(p.cached_nodes as u64, budget / list_bytes(4));
        assert!(p.bytes_used <= budget);
        assert!(!p.is_cached(100), "the over-budget hub must not be pinned");
        assert!(p.hit_rate > 0.0);
        // Mid-scan skip too: a second-tier list that no longer fits must
        // not shadow smaller ones that do.
        let degrees = vec![100usize, 50, 3, 3];
        let budget = list_bytes(100) + list_bytes(3) * 2;
        let q = plan_cache(&degrees, budget);
        assert_eq!(q.cached_nodes, 3);
        assert!(q.is_cached(0) && !q.is_cached(1) && q.is_cached(2) && q.is_cached(3));
    }

    #[test]
    fn membership_bitmap_matches_degree_order() {
        // Budget for exactly the two hottest lists; ties break by node ID.
        let degrees = vec![5usize, 9, 5, 1];
        let p = plan_cache(&degrees, list_bytes(9) + list_bytes(5));
        assert_eq!(p.cached_nodes, 2);
        assert!(p.is_cached(1), "hottest node pinned");
        assert!(p.is_cached(0), "degree tie broken by ascending ID");
        assert!(!p.is_cached(2) && !p.is_cached(3));
        // Out-of-range lookups (wrong graph) miss instead of panicking.
        assert!(!p.is_cached(4096));
        assert_eq!(p.num_nodes(), 4);
    }

    #[test]
    fn descending_order_beats_random_subset() {
        // Sanity: the planned hit rate is at least the byte-proportional
        // baseline of a random subset.
        let degrees: Vec<usize> = (0..500)
            .map(|i| if i % 50 == 0 { 100 } else { 2 })
            .collect();
        let total_bytes: u64 = degrees.iter().map(|&d| list_bytes(d)).sum();
        let budget = total_bytes / 4;
        let planned = plan_cache(&degrees, budget).hit_rate;
        assert!(planned > 0.25, "planned {planned} not above proportional");
    }
}
