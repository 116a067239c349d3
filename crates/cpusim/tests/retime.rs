//! Record-once, re-time-many is pinned against the from-scratch oracle:
//! `HierarchyRecording::retime` (and `Simulator::latency_sweep`, which runs
//! on it) must return the same `SimResult`, every field, as
//! `Simulator::run` at each latency, on both core models, with and without
//! the warm-up pass.

use cpusim::{CacheConfig, CoreConfig, CoreKind, CpuConfig, MemoryTrace, SimResult, Simulator};
use proptest::prelude::*;

/// A hierarchy small enough that short traces miss the LLC and write back.
fn small_config() -> CpuConfig {
    let cache = |capacity_bytes, associativity, hit_latency_cycles| CacheConfig {
        capacity_bytes,
        associativity,
        line_bytes: 64,
        hit_latency_cycles,
    };
    CpuConfig {
        l1d: cache(1024, 2, 4),
        l2: cache(4 * 1024, 4, 14),
        llc: cache(16 * 1024, 8, 40),
        ..CpuConfig::baseline_in_order()
    }
}

fn oracle(
    trace: &MemoryTrace,
    config: CpuConfig,
    warmup: bool,
    latencies: &[f64],
) -> Vec<SimResult> {
    latencies
        .iter()
        .map(|&l| {
            Simulator::new(config.with_extra_latency_ns(l))
                .with_warmup(warmup)
                .run(trace)
        })
        .collect()
}

/// Check both core kinds and both warm-up settings at every latency.
fn assert_matches_oracle(trace: &MemoryTrace, base: CpuConfig, latencies: &[f64]) {
    for warmup in [false, true] {
        for kind in CoreKind::ALL {
            let config = CpuConfig {
                core: CoreConfig {
                    clock_ghz: base.core.clock_ghz,
                    ..CoreConfig::for_kind(kind)
                },
                ..base
            };
            let expected = oracle(trace, config, warmup, latencies);
            let sim = Simulator::new(config).with_warmup(warmup);
            let recording = sim.record(trace);
            let retimed: Vec<SimResult> = latencies
                .iter()
                .map(|&l| recording.retime(&config.with_extra_latency_ns(l)))
                .collect();
            assert_eq!(retimed, expected, "{kind} warmup={warmup}");
            assert_eq!(sim.latency_sweep(trace, latencies), expected);
        }
    }
}

#[test]
fn mixed_trace_matches_oracle_at_the_paper_latencies() {
    let mut trace = MemoryTrace::new();
    // Streaming stores over 4x the LLC: dirty lines cascade to memory, and
    // consecutive lines hit the open DRAM row.
    for line in 0..1024u64 {
        trace.push_write(3, line * 64);
    }
    // Loads 1 MiB apart: every one opens a new DRAM row.
    for i in 0..64u64 {
        trace.push_read(10, (1 << 30) + i * (1 << 20));
    }
    // Re-reads: the second load to each line hits the L1; a 32-line
    // footprint comes back from the L2, a 128-line one from the LLC.
    for footprint in [32u64, 128] {
        for _ in 0..3 {
            for line in 0..footprint {
                trace.push_read(1, (2 << 30) + line * 64);
                trace.push_read(1, (2 << 30) + line * 64 + 8);
            }
        }
    }
    trace.trailing_compute = 11;

    assert_matches_oracle(&trace, small_config(), &[0.0, 25.0, 30.0, 35.0, 85.0]);
    // The measured pass sees every outcome class, with and without warm-up.
    for warmup in [false, true] {
        let stats = Simulator::new(small_config())
            .with_warmup(warmup)
            .run(&trace)
            .hierarchy;
        assert!(stats.l1.hits > 0 && stats.l2.hits > 0 && stats.llc.hits > 0);
        assert!(stats.memory_writebacks > 0);
        assert!(stats.memory_row_hits > 0);
        assert!(stats.memory_accesses > stats.memory_row_hits);
    }
}

#[test]
fn empty_traces_match_oracle() {
    let latencies = [0.0, 35.0, 85.0];
    let mut trailing_only = MemoryTrace::new();
    trailing_only.trailing_compute = 7;
    for trace in [MemoryTrace::new(), trailing_only] {
        assert_matches_oracle(&trace, CpuConfig::baseline_in_order(), &latencies);
    }
}

/// A reproducible stream from a seed (SplitMix64).
fn random_trace(seed: u64, len: usize, footprint_lines: u64, write_percent: u64) -> MemoryTrace {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut trace = MemoryTrace::with_capacity(len);
    for _ in 0..len {
        let addr = (next() % footprint_lines) * 64 + next() % 64;
        let compute = (next() % 24) as u32;
        trace.push(
            compute,
            cpusim::MemAccess {
                addr,
                is_write: next() % 100 < write_percent,
            },
        );
    }
    trace.trailing_compute = next() % 50;
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_streams_match_oracle(
        seed in 0u64..u64::MAX,
        len in 0usize..1500,
        footprint_lines in 1u64..2048,
        write_percent in 0u64..=100,
        latency_a in 0.0f64..=200.0,
        latency_b in 0.0f64..=200.0,
        clock_ghz in 1.0f64..4.0,
    ) {
        let trace = random_trace(seed, len, footprint_lines, write_percent);
        let mut base = small_config();
        base.core.clock_ghz = clock_ghz;
        assert_matches_oracle(&trace, base, &[0.0, latency_a, latency_b]);
    }
}
