//! Core timing models: in-order and out-of-order.
//!
//! The paper evaluates both because they bracket the latency-sensitivity
//! spectrum: in-order cores expose the full memory latency on every access,
//! while out-of-order cores hide part of it behind the reorder buffer and by
//! overlapping independent misses (memory-level parallelism). Both models
//! consume the same [`AccessOutcome`] stream
//! from the cache hierarchy, so the cache behaviour (and hence LLC miss rate)
//! is identical across core models — exactly as the paper observes
//! ("OOO cores do not substantially change the LLC access patterns").

use crate::config::CoreConfig;
use crate::hierarchy::AccessOutcome;

/// A core timing model: consumes compute-instruction runs and memory-access
/// outcomes, and accumulates cycles.
pub trait TimingCore {
    /// Account for `n` non-memory instructions.
    fn execute_compute(&mut self, n: u64);
    /// Account for one memory access with the given hierarchy outcome.
    fn execute_access(&mut self, outcome: AccessOutcome);
    /// Total cycles accumulated so far.
    fn cycles(&self) -> u64;
    /// Cycles the core spent stalled on memory (exposed latency only).
    fn stall_cycles(&self) -> u64;
}

/// Breakdown of where an execution's cycles went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles issuing compute instructions.
    pub compute_cycles: u64,
    /// Cycles stalled on cache hits (L1/L2/LLC latency).
    pub cache_stall_cycles: u64,
    /// Cycles stalled on main-memory accesses (LLC misses).
    pub memory_stall_cycles: u64,
}

impl CycleBreakdown {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.compute_cycles + self.cache_stall_cycles + self.memory_stall_cycles
    }
}

/// In-order, blocking core: every access stalls for its full latency.
#[derive(Debug, Clone)]
pub struct InOrderCore {
    config: CoreConfig,
    breakdown: CycleBreakdown,
}

impl InOrderCore {
    /// Create an in-order core with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        InOrderCore {
            config,
            breakdown: CycleBreakdown::default(),
        }
    }

    /// The cycle breakdown so far.
    pub fn breakdown(&self) -> CycleBreakdown {
        self.breakdown
    }
}

impl TimingCore for InOrderCore {
    fn execute_compute(&mut self, n: u64) {
        // Issue-width-limited compute throughput.
        let width = self.config.issue_width.max(1) as u64;
        self.breakdown.compute_cycles += n.div_ceil(width);
    }

    fn execute_access(&mut self, outcome: AccessOutcome) {
        // One cycle to issue the access itself plus the full blocking latency.
        self.breakdown.compute_cycles += 1;
        if outcome.is_llc_miss {
            self.breakdown.memory_stall_cycles += outcome.latency_cycles;
        } else {
            self.breakdown.cache_stall_cycles += outcome.latency_cycles;
        }
    }

    fn cycles(&self) -> u64 {
        self.breakdown.total()
    }

    fn stall_cycles(&self) -> u64 {
        self.breakdown.cache_stall_cycles + self.breakdown.memory_stall_cycles
    }
}

/// Out-of-order core with ROB-based latency hiding and a bounded number of
/// outstanding misses (MLP).
///
/// The model is intentionally simple but captures the two first-order
/// effects the paper relies on:
///
/// 1. **Latency hiding**: a miss's latency can be overlapped with the
///    compute work that follows it, up to what the ROB can hold
///    (`rob_size / issue_width` cycles of independent work).
/// 2. **Miss overlapping (MLP)**: misses that issue within one ROB window of
///    an outstanding miss are serviced concurrently, up to
///    `max_outstanding_misses` at a time, so a burst of `k` clustered misses
///    costs roughly `ceil(k / mlp)` memory round trips rather than `k`.
///
/// Cache hits (L1/L2/LLC) are assumed fully pipelined and cost a single
/// issue slot plus a small fraction of their latency.
#[derive(Debug, Clone)]
pub struct OutOfOrderCore {
    config: CoreConfig,
    breakdown: CycleBreakdown,
    /// Instructions executed since the head of the current miss cluster.
    instructions_since_cluster_start: u64,
    /// Number of misses currently overlapped in the cluster.
    cluster_outstanding: u32,
    /// Fraction of a cache-hit latency that is exposed (not hidden) on an
    /// OOO core.
    hit_exposure: f64,
}

impl OutOfOrderCore {
    /// Create an out-of-order core with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        OutOfOrderCore {
            config,
            breakdown: CycleBreakdown::default(),
            instructions_since_cluster_start: u64::MAX / 2,
            cluster_outstanding: 0,
            hit_exposure: 0.15,
        }
    }

    /// The cycle breakdown so far.
    pub fn breakdown(&self) -> CycleBreakdown {
        self.breakdown
    }

    /// Cycles of independent work the ROB can use to hide a miss.
    fn rob_hide_cycles(&self) -> u64 {
        (self.config.rob_size as u64) / (self.config.issue_width.max(1) as u64)
    }
}

impl TimingCore for OutOfOrderCore {
    fn execute_compute(&mut self, n: u64) {
        let width = self.config.issue_width.max(1) as u64;
        self.breakdown.compute_cycles += n.div_ceil(width);
        self.instructions_since_cluster_start =
            self.instructions_since_cluster_start.saturating_add(n);
    }

    fn execute_access(&mut self, outcome: AccessOutcome) {
        self.breakdown.compute_cycles += 1;
        self.instructions_since_cluster_start =
            self.instructions_since_cluster_start.saturating_add(1);

        if !outcome.is_llc_miss {
            // Pipelined cache hit: only a small fraction of the latency is
            // exposed on an OOO core.
            let exposed = (outcome.latency_cycles as f64 * self.hit_exposure).round() as u64;
            self.breakdown.cache_stall_cycles += exposed;
            return;
        }

        let within_rob_window =
            self.instructions_since_cluster_start <= self.config.rob_size as u64;
        let can_overlap = within_rob_window
            && self.cluster_outstanding > 0
            && self.cluster_outstanding < self.config.max_outstanding_misses;

        if can_overlap {
            // Overlapped with an already-outstanding miss: essentially free
            // (its latency is covered by the cluster leader's round trip).
            self.cluster_outstanding += 1;
            return;
        }

        // Cluster leader (or MLP exhausted): pay the exposed latency after
        // the ROB hides what it can behind the compute issued since the last
        // stall.
        let hideable = self
            .rob_hide_cycles()
            .min(self.instructions_since_cluster_start / self.config.issue_width.max(1) as u64);
        let exposed = outcome.latency_cycles.saturating_sub(hideable);
        self.breakdown.memory_stall_cycles += exposed;
        self.cluster_outstanding = 1;
        self.instructions_since_cluster_start = 0;
    }

    fn cycles(&self) -> u64 {
        self.breakdown.total()
    }

    fn stall_cycles(&self) -> u64 {
        self.breakdown.cache_stall_cycles + self.breakdown.memory_stall_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::hierarchy::HierarchyLevel;

    fn hit(latency: u64) -> AccessOutcome {
        AccessOutcome {
            level: HierarchyLevel::L1,
            latency_cycles: latency,
            is_llc_miss: false,
            row_hit: false,
        }
    }

    fn miss(latency: u64) -> AccessOutcome {
        AccessOutcome {
            level: HierarchyLevel::Memory,
            latency_cycles: latency,
            is_llc_miss: true,
            row_hit: false,
        }
    }

    #[test]
    fn in_order_pays_full_latency() {
        let mut core = InOrderCore::new(CoreConfig::in_order_default());
        core.execute_compute(10);
        core.execute_access(miss(250));
        // 10 compute + 1 issue + 250 stall.
        assert_eq!(core.cycles(), 261);
        assert_eq!(core.stall_cycles(), 250);
    }

    #[test]
    fn in_order_cache_hits_counted_separately() {
        let mut core = InOrderCore::new(CoreConfig::in_order_default());
        core.execute_access(hit(4));
        let b = core.breakdown();
        assert_eq!(b.cache_stall_cycles, 4);
        assert_eq!(b.memory_stall_cycles, 0);
    }

    #[test]
    fn in_order_issue_width_divides_compute() {
        let mut cfg = CoreConfig::in_order_default();
        cfg.issue_width = 2;
        let mut core = InOrderCore::new(cfg);
        core.execute_compute(10);
        assert_eq!(core.cycles(), 5);
    }

    #[test]
    fn ooo_hides_latency_behind_rob() {
        let cfg = CoreConfig::out_of_order_default();
        let mut core = OutOfOrderCore::new(cfg);
        // Plenty of independent work before the miss: the ROB hides
        // rob_size/issue_width = 64 cycles of the 180-cycle latency.
        core.execute_compute(1000);
        core.execute_access(miss(180));
        let b = core.breakdown();
        assert_eq!(b.memory_stall_cycles, 180 - 64);
    }

    #[test]
    fn ooo_overlaps_clustered_misses() {
        let cfg = CoreConfig::out_of_order_default();
        let mut ooo = OutOfOrderCore::new(cfg);
        let mut ino = InOrderCore::new(CoreConfig::in_order_default());
        // A burst of 8 misses with little compute between them.
        for _ in 0..8 {
            ooo.execute_compute(4);
            ooo.execute_access(miss(180));
            ino.execute_compute(4);
            ino.execute_access(miss(180));
        }
        assert!(
            ooo.stall_cycles() * 4 < ino.stall_cycles(),
            "OOO ({}) should hide most of the clustered-miss latency vs in-order ({})",
            ooo.stall_cycles(),
            ino.stall_cycles()
        );
    }

    #[test]
    fn ooo_mlp_limit_caps_overlap() {
        // The same burst of 8 misses costs more with MLP=2 than with MLP=8,
        // because fewer misses can be overlapped per round trip.
        let run = |mlp: u32| {
            let mut cfg = CoreConfig::out_of_order_default();
            cfg.max_outstanding_misses = mlp;
            let mut core = OutOfOrderCore::new(cfg);
            for _ in 0..8 {
                core.execute_access(miss(200));
            }
            core.breakdown().memory_stall_cycles
        };
        let narrow = run(2);
        let wide = run(8);
        assert!(
            narrow > wide,
            "MLP=2 ({narrow}) should stall more than MLP=8 ({wide})"
        );
        // With MLP=2, at least 4 of the 8 misses are cluster leaders; even
        // after ROB hiding that is several full round trips of stall.
        assert!(narrow >= 3 * 200, "got {narrow}");
    }

    #[test]
    fn ooo_added_latency_increases_stall_one_for_one_when_exposed() {
        // When misses are isolated (lots of compute between them), the extra
        // disaggregation latency shows up fully in the exposed stall.
        let cfg = CoreConfig::out_of_order_default();
        let mut base = OutOfOrderCore::new(cfg);
        let mut extra = OutOfOrderCore::new(cfg);
        for _ in 0..10 {
            base.execute_compute(5000);
            base.execute_access(miss(180));
            extra.execute_compute(5000);
            extra.execute_access(miss(250));
        }
        let diff = extra.stall_cycles() - base.stall_cycles();
        assert_eq!(diff, 10 * 70);
    }

    #[test]
    fn ooo_hits_mostly_hidden() {
        let cfg = CoreConfig::out_of_order_default();
        let mut core = OutOfOrderCore::new(cfg);
        core.execute_access(hit(40));
        assert!(core.breakdown().cache_stall_cycles <= 6);
    }

    #[test]
    fn cycle_breakdown_total_consistent() {
        let mut core = InOrderCore::new(CoreConfig::in_order_default());
        core.execute_compute(100);
        core.execute_access(miss(180));
        core.execute_access(hit(4));
        assert_eq!(core.cycles(), core.breakdown().total());
    }
}
