//! Record a trace's cache-hierarchy outcomes once, then re-time them.
//!
//! The hierarchy's state — tags, LRU order, dirty bits and the open DRAM
//! row — follows the address stream alone. Latencies never feed back into
//! it, so every access is served by the same level, and hits or misses the
//! open row the same way, at every extra LLC-to-memory latency and on every
//! core model. [`HierarchyRecording`] simulates the hierarchy once and keeps
//! one class byte per measured access (L1 / L2 / LLC / memory row hit /
//! memory row miss); [`HierarchyRecording::retime`]
//! turns that stream back into [`AccessOutcome`]s with a target
//! configuration's latencies and drives them through the target core model.
//! The result equals [`Simulator::run`](crate::Simulator::run) on the same
//! configuration, which stays as the from-scratch oracle.

use crate::config::{CoreKind, CpuConfig};
use crate::core::{CycleBreakdown, InOrderCore, OutOfOrderCore, TimingCore};
use crate::hierarchy::{AccessOutcome, CacheHierarchy, HierarchyLevel, HierarchyStats};
use crate::simulator::SimResult;
use crate::trace::MemoryTrace;

/// Where one access was served: the cache level, or memory with the DRAM
/// row-buffer outcome. One byte per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum AccessClass {
    /// Hit in the L1 data cache.
    L1 = 0,
    /// Hit in the L2.
    L2 = 1,
    /// Hit in the LLC.
    Llc = 2,
    /// LLC miss that hit the open DRAM row.
    MemoryRowHit = 3,
    /// LLC miss that opened a new DRAM row.
    MemoryRowMiss = 4,
}

impl AccessClass {
    /// The class of a hierarchy outcome.
    fn of(outcome: AccessOutcome) -> Self {
        match outcome.level {
            HierarchyLevel::L1 => AccessClass::L1,
            HierarchyLevel::L2 => AccessClass::L2,
            HierarchyLevel::Llc => AccessClass::Llc,
            HierarchyLevel::Memory if outcome.row_hit => AccessClass::MemoryRowHit,
            HierarchyLevel::Memory => AccessClass::MemoryRowMiss,
        }
    }
}

/// The outcome of every class under `config`'s latencies, indexed by
/// `AccessClass as usize`. The sums match [`CacheHierarchy::access`].
fn outcome_table(config: &CpuConfig) -> [AccessOutcome; 5] {
    let l1 = config.l1d.hit_latency_cycles;
    let l2 = l1 + config.l2.hit_latency_cycles;
    let llc = l2 + config.llc.hit_latency_cycles;
    let clock_ghz = config.core.clock_ghz;
    let hit = |level, latency_cycles| AccessOutcome {
        level,
        latency_cycles,
        is_llc_miss: false,
        row_hit: false,
    };
    let memory = |row_hit, memory_cycles| AccessOutcome {
        level: HierarchyLevel::Memory,
        latency_cycles: llc + memory_cycles,
        is_llc_miss: true,
        row_hit,
    };
    [
        hit(HierarchyLevel::L1, l1),
        hit(HierarchyLevel::L2, l2),
        hit(HierarchyLevel::Llc, llc),
        memory(true, config.memory.total_row_hit_latency_cycles(clock_ghz)),
        memory(false, config.memory.total_latency_cycles(clock_ghz)),
    ]
}

/// One trace's measured-pass hierarchy outcomes under one cache hierarchy,
/// built by [`Simulator::record`](crate::Simulator::record).
#[derive(Debug, Clone)]
pub struct HierarchyRecording<'t> {
    trace: &'t MemoryTrace,
    config: CpuConfig,
    classes: Vec<AccessClass>,
    stats: HierarchyStats,
    instructions: u64,
}

impl<'t> HierarchyRecording<'t> {
    /// Simulate `config`'s hierarchy over `trace`: a warm-up pass first if
    /// `warmup` is set, then the measured pass, whose outcomes are recorded.
    pub(crate) fn record(config: &CpuConfig, warmup: bool, trace: &'t MemoryTrace) -> Self {
        let mut hierarchy = CacheHierarchy::new(config);
        if warmup {
            for record in &trace.records {
                hierarchy.access(record.access.addr, record.access.is_write);
            }
            hierarchy.reset_stats();
        }
        let classes = trace
            .records
            .iter()
            .map(|r| AccessClass::of(hierarchy.access(r.access.addr, r.access.is_write)))
            .collect();
        HierarchyRecording {
            trace,
            config: *config,
            classes,
            stats: hierarchy.stats(),
            instructions: trace.instructions(),
        }
    }

    /// The configuration the hierarchy was recorded under. Only its cache
    /// geometry and DRAM row size matter (see [`CpuConfig::same_hierarchy`]).
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Time the recorded outcomes under `config`'s level hit latencies,
    /// memory latencies and core model. Equal to
    /// `Simulator::new(*config).run(trace)` with the recording's warm-up
    /// setting.
    ///
    /// Panics if `config` is invalid or its cache hierarchy differs from
    /// the recorded one.
    pub fn retime(&self, config: &CpuConfig) -> SimResult {
        config
            .validate()
            .expect("invalid CPU configuration passed to HierarchyRecording::retime");
        assert!(
            self.config.same_hierarchy(config),
            "HierarchyRecording::retime needs the recorded cache hierarchy"
        );
        let (cycles, breakdown) = match config.core.kind {
            CoreKind::InOrder => {
                let mut core = InOrderCore::new(config.core);
                self.drive(config, &mut core);
                (core.cycles(), core.breakdown())
            }
            CoreKind::OutOfOrder => {
                let mut core = OutOfOrderCore::new(config.core);
                self.drive(config, &mut core);
                (core.cycles(), core.breakdown())
            }
        };
        let CycleBreakdown {
            memory_stall_cycles,
            cache_stall_cycles,
            ..
        } = breakdown;
        SimResult {
            cycles,
            instructions: self.instructions,
            memory_stall_cycles,
            cache_stall_cycles,
            hierarchy: self.stats,
            extra_latency_ns: config.memory.extra_latency_ns,
            core_kind: config.core.kind,
        }
    }

    fn drive<C: TimingCore>(&self, config: &CpuConfig, core: &mut C) {
        let outcomes = outcome_table(config);
        for (record, &class) in self.trace.records.iter().zip(&self.classes) {
            core.execute_compute(record.compute_instructions as u64);
            core.execute_access(outcomes[class as usize]);
        }
        core.execute_compute(self.trace.trailing_compute);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    #[test]
    fn outcome_table_matches_the_hierarchy_latencies() {
        let mut cfg = CpuConfig::baseline_in_order().with_extra_latency_ns(35.0);
        cfg.l1d.capacity_bytes = 8 * 64; // one set of eight ways
        let mut h = CacheHierarchy::new(&cfg);
        let mut seen = vec![h.access(0, false), h.access(64, false), h.access(64, false)];
        // Eight more lines fill the one-set L1 and evict lines 0 and 1.
        for line in 2..10u64 {
            h.access(line * 64, false);
        }
        seen.push(h.access(64, false));
        // Nine lines 64 KiB apart share line 0's L2 set and evict it there.
        for k in 1..=9u64 {
            h.access(k * 65536, false);
        }
        seen.push(h.access(0, false));
        let classes: Vec<AccessClass> = seen.iter().map(|&o| AccessClass::of(o)).collect();
        use AccessClass::*;
        assert_eq!(classes, [MemoryRowMiss, MemoryRowHit, L1, L2, Llc]);
        let table = outcome_table(&cfg);
        for outcome in seen {
            assert_eq!(table[AccessClass::of(outcome) as usize], outcome);
        }
    }

    #[test]
    #[should_panic(expected = "recorded cache hierarchy")]
    fn retime_refuses_a_different_hierarchy() {
        let trace = MemoryTrace::new();
        let recording = Simulator::new(CpuConfig::baseline_in_order()).record(&trace);
        let mut other = CpuConfig::baseline_in_order();
        other.llc.capacity_bytes /= 2;
        recording.retime(&other);
    }
}
