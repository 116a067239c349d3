//! The trace simulator: runs a [`MemoryTrace`] through a core timing model
//! and a cache hierarchy, and reports the metrics the paper's figures use.

use crate::config::{CoreKind, CpuConfig};
use crate::core::{InOrderCore, OutOfOrderCore, TimingCore};
use crate::hierarchy::{CacheHierarchy, HierarchyStats};
use crate::recording::HierarchyRecording;
use crate::trace::MemoryTrace;

/// Result of simulating one trace on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Total execution cycles.
    pub cycles: u64,
    /// Total instructions (compute + memory).
    pub instructions: u64,
    /// Cycles spent stalled on main memory (LLC misses).
    pub memory_stall_cycles: u64,
    /// Cycles spent stalled on cache hits.
    pub cache_stall_cycles: u64,
    /// Hierarchy statistics (per-level hit/miss counts).
    pub hierarchy: HierarchyStats,
    /// The configured extra LLC-to-memory latency in nanoseconds.
    pub extra_latency_ns: f64,
    /// The core model used.
    pub core_kind: CoreKind,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC miss rate (misses / LLC accesses).
    pub fn llc_miss_rate(&self) -> f64 {
        self.hierarchy.llc_miss_rate()
    }

    /// LLC misses per thousand instructions.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.hierarchy.llc.misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fraction of all cycles spent waiting on main memory.
    pub fn memory_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.memory_stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Slowdown of this run relative to a baseline run (ratio of cycles),
    /// expressed as a percentage (0% = identical, 50% = 1.5x cycles).
    pub fn slowdown_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.cycles == 0 {
            return 0.0;
        }
        (self.cycles as f64 / baseline.cycles as f64 - 1.0) * 100.0
    }

    /// Speedup of this run relative to another run (other.cycles / cycles),
    /// expressed as a percentage (0% = identical, 50% = other takes 1.5x).
    pub fn speedup_vs(&self, other: &SimResult) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (other.cycles as f64 / self.cycles as f64 - 1.0) * 100.0
    }
}

/// The simulator: a configuration plus the machinery to run traces.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: CpuConfig,
    warmup: bool,
}

impl Simulator {
    /// Create a simulator for a configuration.
    pub fn new(config: CpuConfig) -> Self {
        config
            .validate()
            .expect("invalid CPU configuration passed to Simulator::new");
        Simulator {
            config,
            warmup: false,
        }
    }

    /// Enable or disable a cache warm-up pass: the trace is first replayed
    /// once purely to populate the caches (no timing), then replayed again
    /// for measurement. This removes cold-start (compulsory) misses, which
    /// would otherwise dominate short traces and make LLC-resident workloads
    /// look memory-bound — the measured run then reflects steady-state
    /// behaviour, which is what the paper's long gem5 runs observe.
    pub fn with_warmup(mut self, warmup: bool) -> Self {
        self.warmup = warmup;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Run a trace to completion and return the timing result.
    pub fn run(&self, trace: &MemoryTrace) -> SimResult {
        let mut hierarchy = CacheHierarchy::new(&self.config);
        if self.warmup {
            for record in &trace.records {
                hierarchy.access(record.access.addr, record.access.is_write);
            }
            hierarchy.reset_stats();
        }
        match self.config.core.kind {
            CoreKind::InOrder => {
                let mut core = InOrderCore::new(self.config.core);
                self.drive(trace, &mut hierarchy, &mut core);
                self.finish(
                    trace,
                    &hierarchy,
                    core.breakdown().memory_stall_cycles,
                    core.breakdown().cache_stall_cycles,
                    core.cycles(),
                )
            }
            CoreKind::OutOfOrder => {
                let mut core = OutOfOrderCore::new(self.config.core);
                self.drive(trace, &mut hierarchy, &mut core);
                self.finish(
                    trace,
                    &hierarchy,
                    core.breakdown().memory_stall_cycles,
                    core.breakdown().cache_stall_cycles,
                    core.cycles(),
                )
            }
        }
    }

    fn drive<C: TimingCore>(
        &self,
        trace: &MemoryTrace,
        hierarchy: &mut CacheHierarchy,
        core: &mut C,
    ) {
        for record in &trace.records {
            core.execute_compute(record.compute_instructions as u64);
            let outcome = hierarchy.access(record.access.addr, record.access.is_write);
            core.execute_access(outcome);
        }
        core.execute_compute(trace.trailing_compute);
    }

    fn finish(
        &self,
        trace: &MemoryTrace,
        hierarchy: &CacheHierarchy,
        memory_stall_cycles: u64,
        cache_stall_cycles: u64,
        cycles: u64,
    ) -> SimResult {
        SimResult {
            cycles,
            instructions: trace.instructions(),
            memory_stall_cycles,
            cache_stall_cycles,
            hierarchy: hierarchy.stats(),
            extra_latency_ns: self.config.memory.extra_latency_ns,
            core_kind: self.config.core.kind,
        }
    }

    /// Simulate this configuration's cache hierarchy over `trace` once,
    /// with the warm-up pass if enabled, and record every measured access's
    /// outcome. [`HierarchyRecording::retime`] then times the recording at
    /// any latency and core model that share this cache hierarchy.
    pub fn record<'t>(&self, trace: &'t MemoryTrace) -> HierarchyRecording<'t> {
        HierarchyRecording::record(&self.config, self.warmup, trace)
    }

    /// Run the same trace across several extra-latency points (the paper's
    /// 0 / 25 / 30 / 35 / 85 ns sweep) and return one result per point. The
    /// hierarchy is simulated once and re-timed at each point; each result
    /// equals [`run`](Self::run) at that latency.
    pub fn latency_sweep(&self, trace: &MemoryTrace, extra_latencies_ns: &[f64]) -> Vec<SimResult> {
        let recording = self.record(trace);
        extra_latencies_ns
            .iter()
            .map(|&extra| recording.retime(&self.config.with_extra_latency_ns(extra)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::trace::MemoryTrace;

    /// A streaming trace over `lines` distinct cache lines, `passes` times.
    fn streaming_trace(lines: u64, passes: u32, compute_per_access: u32) -> MemoryTrace {
        let mut t = MemoryTrace::with_capacity((lines * passes as u64) as usize);
        for _ in 0..passes {
            for line in 0..lines {
                t.push_read(compute_per_access, line * 64);
            }
        }
        t
    }

    /// A small working-set trace that fits comfortably in the LLC.
    fn resident_trace() -> MemoryTrace {
        // 1024 lines = 64 KiB; fits in the 4 MiB LLC (and even in L2). Enough
        // passes that cold-start misses are amortized away.
        streaming_trace(1024, 100, 10)
    }

    /// A large working-set trace that does not fit in the LLC.
    fn thrashing_trace() -> MemoryTrace {
        // 128K lines = 8 MiB > 4 MiB LLC.
        streaming_trace(128 * 1024, 2, 10)
    }

    #[test]
    fn resident_workload_insensitive_to_extra_latency() {
        let base = Simulator::new(CpuConfig::baseline_in_order()).run(&resident_trace());
        let slow = Simulator::new(CpuConfig::baseline_in_order().with_extra_latency_ns(35.0))
            .run(&resident_trace());
        let slowdown = slow.slowdown_vs(&base);
        assert!(
            slowdown < 3.0,
            "LLC-resident workload should barely slow down, got {slowdown}%"
        );
    }

    #[test]
    fn thrashing_workload_sensitive_to_extra_latency() {
        let base = Simulator::new(CpuConfig::baseline_in_order()).run(&thrashing_trace());
        let slow = Simulator::new(CpuConfig::baseline_in_order().with_extra_latency_ns(35.0))
            .run(&thrashing_trace());
        let slowdown = slow.slowdown_vs(&base);
        assert!(
            slowdown > 10.0,
            "LLC-thrashing workload should slow down noticeably, got {slowdown}%"
        );
        assert!(base.llc_miss_rate() > 0.9);
    }

    #[test]
    fn ooo_faster_than_in_order_on_same_trace() {
        let trace = thrashing_trace();
        let ino = Simulator::new(CpuConfig::baseline_in_order()).run(&trace);
        let ooo = Simulator::new(CpuConfig::baseline_out_of_order()).run(&trace);
        assert!(ooo.cycles < ino.cycles);
        // The cache behaviour is identical regardless of the core model.
        assert_eq!(ino.hierarchy.llc.misses, ooo.hierarchy.llc.misses);
    }

    #[test]
    fn slowdown_monotonic_in_latency() {
        let trace = thrashing_trace();
        let sim = Simulator::new(CpuConfig::baseline_in_order());
        let sweep = sim.latency_sweep(&trace, &[0.0, 25.0, 30.0, 35.0, 85.0]);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].cycles >= pair[0].cycles,
                "cycles must be monotonically non-decreasing in latency"
            );
        }
        let s35 = sweep[3].slowdown_vs(&sweep[0]);
        let s85 = sweep[4].slowdown_vs(&sweep[0]);
        assert!(s85 > s35);
    }

    #[test]
    fn electronic_latency_hurts_more_than_photonic() {
        let trace = thrashing_trace();
        let sim = Simulator::new(CpuConfig::baseline_in_order());
        let sweep = sim.latency_sweep(&trace, &[0.0, 35.0, 85.0]);
        let photonic = sweep[1].slowdown_vs(&sweep[0]);
        let electronic = sweep[2].slowdown_vs(&sweep[0]);
        // 85 ns should cost roughly 85/35 = 2.4x the slowdown of 35 ns for a
        // fully memory-bound in-order workload.
        assert!(electronic / photonic > 1.8 && electronic / photonic < 3.0);
    }

    #[test]
    fn ipc_and_mpki_reported() {
        let trace = resident_trace();
        let r = Simulator::new(CpuConfig::baseline_in_order()).run(&trace);
        assert!(r.ipc() > 0.0);
        assert!(r.llc_mpki() >= 0.0);
        assert!(r.memory_stall_fraction() >= 0.0 && r.memory_stall_fraction() <= 1.0);
    }

    #[test]
    fn speedup_and_slowdown_are_inverse_ish() {
        let trace = thrashing_trace();
        let sim = Simulator::new(CpuConfig::baseline_in_order());
        let sweep = sim.latency_sweep(&trace, &[35.0, 85.0]);
        let speedup_of_photonic = sweep[0].speedup_vs(&sweep[1]);
        assert!(speedup_of_photonic > 0.0);
    }

    #[test]
    fn instructions_match_trace() {
        let trace = resident_trace();
        let r = Simulator::new(CpuConfig::baseline_in_order()).run(&trace);
        assert_eq!(r.instructions, trace.instructions());
    }

    #[test]
    #[should_panic(expected = "invalid CPU configuration")]
    fn invalid_config_panics() {
        let mut cfg = CpuConfig::baseline_in_order();
        cfg.l1d.line_bytes = 100;
        Simulator::new(cfg);
    }
}
