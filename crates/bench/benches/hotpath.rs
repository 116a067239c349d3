//! Hot-path micro-benchmarks: the five kernels the sweep engine spends its
//! time in, plus the CPU simulator behind Section VI-B, grouped so the
//! criterion shim's `PD_BENCH_DIR` writer emits one trajectory snapshot per
//! group (`BENCH_flowsim.json`, `BENCH_timeline.json`,
//! `BENCH_flexgrid.json`, `BENCH_decode.json`, `BENCH_grid.json`,
//! `BENCH_cpusim.json`).
//!
//! Each group pairs the allocating entry point with its arena-reusing
//! counterpart (or, for the timeline, flex-grid and CPU simulator, the fast
//! path with its from-scratch oracle), so a regression in either the
//! steady-state path or the reuse machinery shows up as a relative shift
//! inside the same file.
//! `docs/PERFORMANCE.md` explains how to run these and read the snapshots.

use cpusim::{CoreKind, Simulator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disagg_core::cpu_experiments::CpuExperimentConfig;
use disagg_core::sweep::SweepGrid;
use fabric::flexgrid::{
    AdmissionPolicy, DefragPolicy, FlexGridArena, FlexGridConfig, FlexGridSimulator, SpectrumPolicy,
};
use fabric::flowsim::{Flow, FlowArena, FlowSimConfig, FlowSimulator};
use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
use fabric::timeline::{ReallocationPolicy, TimelineArena, TimelineConfig, TimelineSimulator};
use workloads::timeline::DemandTimeline;
use workloads::TrafficPattern;

/// A fabric at `mcm_count` MCMs with the paper's per-MCM link provisioning.
fn fabric_with(mcm_count: u32, kind: FabricKind) -> RackFabric {
    RackFabric::new(RackFabricConfig {
        mcm_count,
        ..RackFabricConfig::paper_rack(kind)
    })
}

/// The flowsim bench cases, shared by the measurement loop and the
/// relative-performance floor so neither can drift to a different set.
fn flowsim_cases() -> [(&'static str, TrafficPattern); 2] {
    [
        (
            "permutation_350mcm",
            TrafficPattern::Permutation { demand_gbps: 600.0 },
        ),
        (
            "hotspot8_350mcm",
            TrafficPattern::HotSpot {
                hot_mcms: 8,
                demand_gbps: 500.0,
            },
        ),
    ]
}

/// `FlowSimulator::run` vs `run_in` with a warm [`FlowArena`]: the per-call
/// cost of the wavelength allocator, with and without steady-state reuse.
fn bench_flowsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowsim");
    let fabric = RackFabric::paper_awgr();
    for (label, pattern) in flowsim_cases() {
        let flows = pattern.flows(350, 7);
        g.bench_with_input(
            BenchmarkId::new("run_alloc", label),
            &flows,
            |b, flows: &Vec<Flow>| {
                let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
                b.iter(|| sim.run(flows))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("run_in_arena", label),
            &flows,
            |b, flows: &Vec<Flow>| {
                let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
                let mut arena = FlowArena::new();
                b.iter(|| {
                    let report = sim.run_in(&mut arena, flows);
                    arena.recycle(report)
                })
            },
        );
    }
    g.finish();
    // Relative-performance floor, applied to every flowsim pair: arena
    // reuse must never cost more than 5% over the allocating path on the
    // same pattern (it exists to be cheaper). Guards both the
    // delta-clear-vs-wipe crossover in `FlowArena::prepare` and the
    // identity-slice candidate fast path in `run_in` (which once lost to
    // the allocating path's filter-built candidates on permutation — the
    // inversion a recorded BENCH_flowsim.json would have pinned).
    for (label, _) in flowsim_cases() {
        let alloc = criterion::recorded_mean_ns("flowsim", &format!("run_alloc/{label}"))
            .expect("run_alloc recorded");
        let arena = criterion::recorded_mean_ns("flowsim", &format!("run_in_arena/{label}"))
            .expect("run_in_arena recorded");
        assert!(
            arena <= alloc * 1.05,
            "arena floor: run_in_arena/{label} {arena:.0} ns > 1.05x run_alloc {alloc:.0} ns"
        );
    }
}

/// `TimelineSimulator` across the canned schedules: the incremental solver
/// (`run` / warm-arena `run_in`) against the exhaustive re-solve oracle.
fn bench_timeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeline");
    g.sample_size(10);
    let fabric = fabric_with(64, FabricKind::ParallelAwgrs);
    let epochs = DemandTimeline::shifting_hotspot(8, 400.0, 4, 3, 8).epoch_matrices(64, 11);
    for (label, policy) in [
        ("static", ReallocationPolicy::Static),
        ("greedy", ReallocationPolicy::GreedyResteer),
        (
            "hysteresis90",
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ),
    ] {
        let config = TimelineConfig {
            policy,
            ..TimelineConfig::default()
        };
        g.bench_with_input(
            BenchmarkId::new("incremental", label),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let sim = TimelineSimulator::new(&fabric, config);
                let mut arena = TimelineArena::new();
                b.iter(|| {
                    let report = sim.run_in(&mut arena, epochs);
                    arena.recycle(report)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("exhaustive_oracle", label),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let sim = TimelineSimulator::new(&fabric, config);
                b.iter(|| sim.run_exhaustive(epochs))
            },
        );
    }
    g.finish();
}

/// `FlexGridSimulator` across the spectrum policies on the elastic-churn
/// schedule: the incremental spectrum solver (warm-arena `run_in`) against
/// the from-scratch exhaustive re-solve oracle.
fn bench_flexgrid(c: &mut Criterion) {
    let mut g = c.benchmark_group("flexgrid");
    g.sample_size(10);
    let fabric = fabric_with(64, FabricKind::ParallelAwgrs);
    let epochs = DemandTimeline::elastic_churn(600.0, 3).epoch_matrices(64, 11);
    for policy in [
        SpectrumPolicy::default(),
        SpectrumPolicy {
            admission: AdmissionPolicy::BestFit,
            defrag: DefragPolicy::OnBlock,
        },
        SpectrumPolicy {
            admission: AdmissionPolicy::ExactFit,
            defrag: DefragPolicy::EveryEpoch,
        },
    ] {
        let label = policy.label();
        let config = FlexGridConfig {
            policy,
            ..FlexGridConfig::default()
        };
        g.bench_with_input(
            BenchmarkId::new("incremental", &label),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let sim = FlexGridSimulator::new(&fabric, config);
                let mut arena = FlexGridArena::new();
                b.iter(|| {
                    let report = sim.run_in(&mut arena, epochs);
                    arena.recycle(report)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("exhaustive_oracle", &label),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let sim = FlexGridSimulator::new(&fabric, config);
                b.iter(|| sim.run_exhaustive(epochs))
            },
        );
    }
    g.finish();
}

/// Scenario decode: expanding a grid's cartesian axes into [`Scenario`]
/// values and generating each pattern's flow list — the sweep's per-scenario
/// setup cost before any fabric work runs.
fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode");
    let grid = reference_grid(350, 32);
    g.bench_function("scenario_iter_reference_grid", |b| {
        b.iter(|| grid.scenarios().count())
    });
    for (label, pattern) in [
        (
            "alltoall8_350mcm",
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
        ),
        (
            "permutation_350mcm",
            TrafficPattern::Permutation { demand_gbps: 600.0 },
        ),
    ] {
        g.bench_with_input(
            BenchmarkId::new("pattern_flows", label),
            &pattern,
            |b, pattern: &TrafficPattern| b.iter(|| pattern.flows(350, 7)),
        );
    }
    g.finish();
}

/// The same axes `sweep --bench` times, parameterized so the micro-bench
/// copy stays small enough for the shim's per-bench budget.
fn reference_grid(mcms: u32, replicates: u32) -> SweepGrid {
    SweepGrid::named("bench-reference")
        .mcm_counts([mcms])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
            TrafficPattern::Permutation { demand_gbps: 600.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 8,
                demand_gbps: 500.0,
            },
        ])
        .direct_latencies_ns([35.0])
        .replicates(replicates)
}

/// End-to-end sweep over a scaled-down reference grid (64 MCMs, 4
/// replicates = 24 scenarios): decode + memoized fabric builds + flow
/// solves + fold, through the same executor `sweep --bench` exercises at
/// full scale.
fn bench_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid");
    g.sample_size(10);
    let grid = reference_grid(64, 4);
    g.bench_function("reference_grid_64mcm_serial", |b| {
        b.iter(|| rayon::with_max_threads(1, || grid.run()))
    });
    g.finish();
}

/// One CPU benchmark's latency sweep — Rodinia `nw`, 40k accesses, both
/// core models, the paper's five latency points, warm-up on — through the
/// per-point `Simulator::run` oracle (ten full hierarchy simulations) and
/// through one `Simulator::record` re-timed ten times.
fn bench_cpusim(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpusim");
    g.sample_size(10);
    let cfg = CpuExperimentConfig {
        accesses_per_benchmark: 40_000,
        ..CpuExperimentConfig::default()
    };
    let nw = workloads::cpu_benchmarks()
        .into_iter()
        .find(|b| b.name == "nw")
        .expect("nw is registered");
    let trace = cfg.trace_for(&nw);
    let points: Vec<_> = CoreKind::ALL
        .iter()
        .flat_map(|&kind| {
            let base = cfg.cpu_config(kind);
            cfg.latencies_ns
                .iter()
                .map(move |&l| base.with_extra_latency_ns(l))
        })
        .collect();
    g.bench_function("oracle_per_point/nw_40k", |b| {
        b.iter(|| {
            points
                .iter()
                .map(|&p| Simulator::new(p).with_warmup(true).run(&trace).cycles)
                .sum::<u64>()
        })
    });
    g.bench_function("record_retime/nw_40k", |b| {
        b.iter(|| {
            let recording = Simulator::new(points[0]).with_warmup(true).record(&trace);
            points
                .iter()
                .map(|p| recording.retime(p).cycles)
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(
    hotpath,
    bench_flowsim,
    bench_timeline,
    bench_flexgrid,
    bench_decode,
    bench_grid,
    bench_cpusim
);
criterion_main!(hotpath);
