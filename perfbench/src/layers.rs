//! The traced run: each workload's inputs driven serially through the
//! public call of every layer, one span per call, next to an untraced run
//! of the same inputs through the engine.
//!
//! Each driver fills the per-layer metrics of the layers its workload
//! exercises and checks that the traced outcomes equal the engine's: the
//! rack drivers rebuild every row from the layer calls, the job driver
//! compares report bytes, and the CPU driver compares cycle counts.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use cpusim::{CacheHierarchy, Simulator};
use disagg_core::energy::{EnergyConfig, EnergyModel, EnergyStats};
use disagg_core::sweep::{
    FlexGridCase, FlexGridRowMetrics, Scenario, ScenarioLoad, ScenarioResult, TimelineCase,
};
use disagg_core::{run_cpu_experiment, run_gpu_experiment, SweepGrid, SweepReport, SweepRow};
use fabric::{
    FabricKind, FlexGridArena, FlexGridConfig, FlexGridSimulator, Flow, FlowArena, FlowSimConfig,
    FlowSimulator, RackFabric, RackFabricConfig, TimelineArena, TimelineConfig, TimelineSimulator,
};
use gpusim::GpuTimingModel;

use crate::trace::{SpanId, Tracer};
use crate::work::{fnv1a, run_op, Inputs, FNV_OFFSET};

/// Untraced repetitions whose median wall sets the pool-efficiency base.
const REFERENCE_REPS: usize = 3;

/// What one traced drive measured.
pub struct Traced {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Traced-vs-engine comparisons made, and how many failed.
    pub checks: usize,
    pub failures: Vec<String>,
    pub tracer: Tracer,
}

impl Traced {
    fn new(tracer: Tracer) -> Self {
        Traced {
            metrics: BTreeMap::new(),
            checks: 0,
            failures: Vec::new(),
            tracer,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Self time of every span called `name`.
    fn self_s(&self, name: &str) -> f64 {
        self.tracer
            .layer_totals()
            .get(name)
            .map_or(0.0, |t| t.self_s)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `values` (sorted in place).
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Run `f` `reps` times untraced; return the last result and the median wall.
fn untraced<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        last = Some(f());
        walls.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&mut walls))
}

/// Drive `inputs` traced. `threads` is the pool size of the untraced run.
pub fn drive(inputs: &Inputs, threads: usize) -> Traced {
    match inputs {
        Inputs::Grids(grids) => drive_grids(grids, threads),
        Inputs::Job { .. } => drive_job(inputs),
        Inputs::Cpu { cpu, gpu, .. } => drive_cpu(cpu, gpu, threads),
    }
}

// ---------------------------------------------------------------- rack ----

type FabricKey = (FabricKind, u32, u32, u32, u64);

fn fabric_key(c: &RackFabricConfig) -> FabricKey {
    (
        c.kind,
        c.mcm_count,
        c.fibers_per_mcm,
        c.wavelengths_per_fiber,
        c.gbps_per_wavelength.to_bits(),
    )
}

/// The engine's dedup key: everything that reaches the solver. The energy
/// mode is deliberately absent, so energy variants of one solve form a
/// leader/follower group.
type SolveKey = (u8, String, FabricKey, u64, u64);

fn solve_key(s: &Scenario) -> SolveKey {
    let (kind, load) = match &s.load {
        ScenarioLoad::Pattern(p) => (0, p.memo_key()),
        ScenarioLoad::Timeline(tc) => (
            1,
            format!("{}~{}", tc.timeline.spec_label(), tc.policy.label()),
        ),
        ScenarioLoad::FlexGrid(fc) => (
            2,
            format!("{}~{}", fc.timeline.spec_label(), fc.policy.label()),
        ),
    };
    (
        kind,
        load,
        fabric_key(&s.fabric),
        s.direct_latency_ns.to_bits(),
        s.seed,
    )
}

/// Demand memo capacity, as in the engine's per-worker scratch.
const MEMO_CAP: usize = 128;

type MemoKey = (String, u32, u64);

/// Serial counterpart of the engine's per-worker scratch.
struct Scratch {
    flow: FlowArena,
    timeline: TimelineArena,
    flexgrid: FlexGridArena,
    flows: HashMap<MemoKey, Arc<Vec<Flow>>>,
    epochs: HashMap<MemoKey, Arc<Vec<Vec<Flow>>>>,
    memo_hits: usize,
    epochs_generated: usize,
    reconfigurations: usize,
    defrag_events: usize,
    board_bytes: f64,
}

fn memo<V>(
    map: &mut HashMap<MemoKey, Arc<V>>,
    hits: &mut usize,
    key: MemoKey,
    make: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some(hit) = map.get(&key) {
        *hits += 1;
        return hit.clone();
    }
    let value = Arc::new(make());
    if map.len() >= MEMO_CAP {
        map.clear();
    }
    map.insert(key, value.clone());
    value
}

/// The solver report a leader keeps for its followers' energy accounting.
enum Solved {
    Flow(fabric::FlowSimReport),
    Timeline(fabric::TimelineReport),
    FlexGrid(fabric::FlexGridReport),
}

fn account(
    tracer: &mut Tracer,
    scenario: &Scenario,
    parent: SpanId,
    energy: &EnergyConfig,
    solved: &Solved,
) -> Option<EnergyStats> {
    let mode = scenario.energy_mode?;
    Some(tracer.leaf(
        "core.energy.account",
        scenario.index as u64,
        Some(parent),
        || {
            let model = EnergyModel::new(mode, *energy, &scenario.fabric, &scenario.fec);
            match solved {
                Solved::Flow(r) => model.account_flows(r),
                Solved::Timeline(r) => model.account_timeline(r),
                Solved::FlexGrid(r) => model.account_flexgrid(r),
            }
        },
    ))
}

/// Solve one leader through the layer calls, then account each follower's
/// energy on the leader's report. Returns `(scenario index, result)` pairs.
fn solve_group(
    tracer: &mut Tracer,
    scratch: &mut Scratch,
    fabric: &RackFabric,
    grid: &SweepGrid,
    leader: &Scenario,
    followers: &[&Scenario],
) -> Vec<(usize, ScenarioResult)> {
    let root = tracer.begin("core.sweep.scenario", leader.index as u64, None);
    let id = leader.index as u64;
    let hop = grid.indirect_hop_latency_ns;
    let flow_config = FlowSimConfig {
        direct_latency_ns: leader.direct_latency_ns,
        indirect_hop_latency_ns: hop,
        seed: leader.seed ^ 0x9E37_79B9_7F4A_7C15,
    };
    let mcm = leader.fabric.mcm_count;
    // Wavelength and flex-grid loads share one timeline expansion per seed.
    let epochs = match &leader.load {
        ScenarioLoad::Pattern(_) => None,
        ScenarioLoad::Timeline(TimelineCase { timeline, .. })
        | ScenarioLoad::FlexGrid(FlexGridCase { timeline, .. }) => {
            let key = (timeline.spec_label(), mcm, leader.seed);
            let generated = &mut scratch.epochs_generated;
            Some(memo(
                &mut scratch.epochs,
                &mut scratch.memo_hits,
                key,
                || {
                    let epochs =
                        tracer.leaf("workloads.timeline.epoch_matrices", id, Some(root), || {
                            timeline.epoch_matrices(mcm, leader.seed)
                        });
                    *generated += epochs.len();
                    epochs
                },
            ))
        }
    };
    let epochs = epochs.as_deref().map_or(&[][..], Vec::as_slice);
    let (mut result, solved) = match &leader.load {
        ScenarioLoad::Pattern(pattern) => {
            let key = (pattern.memo_key(), mcm, pattern.effective_seed(leader.seed));
            let flows = memo(&mut scratch.flows, &mut scratch.memo_hits, key, || {
                tracer.leaf("workloads.traffic.flows", id, Some(root), || {
                    pattern.flows(mcm, leader.seed)
                })
            });
            let report = tracer.leaf("fabric.flowsim.run_in", id, Some(root), || {
                FlowSimulator::new(fabric, flow_config).run_in(&mut scratch.flow, &flows)
            });
            let result = ScenarioResult {
                scenario: leader.clone(),
                flows: flows.len(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: report.satisfied_gbps,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns: report.mean_latency_ns,
                epochs: 1,
                reconfigurations: 0,
                energy: None,
                flexgrid: None,
            };
            (result, Solved::Flow(report))
        }
        ScenarioLoad::Timeline(tc) => {
            let config = TimelineConfig {
                flow: flow_config,
                policy: tc.policy,
            };
            let report = tracer.leaf("fabric.timeline.run_in", id, Some(root), || {
                TimelineSimulator::new(fabric, config).run_in(&mut scratch.timeline, epochs)
            });
            scratch.reconfigurations += report.reconfigurations;
            let result = ScenarioResult {
                scenario: leader.clone(),
                flows: report.epochs.iter().map(|e| e.flows).sum(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: report.satisfied_gbps,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns: report.mean_latency_ns,
                epochs: report.epochs.len(),
                reconfigurations: report.reconfigurations,
                energy: None,
                flexgrid: None,
            };
            (result, Solved::Timeline(report))
        }
        ScenarioLoad::FlexGrid(fc) => {
            let sim = FlexGridSimulator::new(
                fabric,
                FlexGridConfig {
                    policy: fc.policy,
                    ..FlexGridConfig::default()
                },
            );
            // Computed, not measured: one bool per (src, dst, slot).
            let board = f64::from(mcm) * f64::from(mcm) * f64::from(sim.slots_per_link());
            scratch.board_bytes = scratch.board_bytes.max(board);
            let report = tracer.leaf("fabric.flexgrid.run_in", id, Some(root), || {
                sim.run_in(&mut scratch.flexgrid, epochs)
            });
            scratch.defrag_events += report.defrag_events;
            let carried = report.carried_gbps();
            let latency = leader.direct_latency_ns;
            let mean_latency_ns = if carried > 0.0 {
                ((report.carried_local_gbps + report.carried_direct_gbps) * latency
                    + report.carried_indirect_gbps * (latency + hop))
                    / carried
            } else {
                0.0
            };
            let result = ScenarioResult {
                scenario: leader.clone(),
                flows: report.epochs.iter().map(|e| e.flows).sum(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: carried,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns,
                epochs: report.epochs.len(),
                reconfigurations: report.defrag_events,
                energy: None,
                flexgrid: Some(FlexGridRowMetrics {
                    blocking_probability: report.blocking_probability(),
                    fragmentation_index: report.mean_fragmentation_index,
                    slots_in_use: report.mean_slots_in_use,
                    defrag_events: report.defrag_events as f64,
                }),
            };
            (result, Solved::FlexGrid(report))
        }
    };
    result.energy = account(tracer, leader, root, &grid.energy_config, &solved);
    tracer.end(root);

    let mut out = Vec::with_capacity(1 + followers.len());
    for follower in followers {
        let span = tracer.begin("core.sweep.replay", follower.index as u64, None);
        let mut replayed = result.clone();
        replayed.scenario = (*follower).clone();
        replayed.energy = account(tracer, follower, span, &grid.energy_config, &solved);
        tracer.end(span);
        out.push((follower.index, replayed));
    }
    out.insert(0, (leader.index, result));
    match solved {
        Solved::Flow(r) => scratch.flow.recycle(r),
        Solved::Timeline(r) => scratch.timeline.recycle(r),
        Solved::FlexGrid(r) => scratch.flexgrid.recycle(r),
    }
    out
}

/// Compare one traced row (and its energy block) with the engine's.
fn same_row(traced: &ScenarioResult, row: &SweepRow, energy: Option<&EnergyStats>) -> bool {
    // Debug output prints every float in shortest round-trip form, so equal
    // strings mean bit-identical values.
    format!("{:?}", traced.to_row()) == format!("{row:?}")
        && format!("{:?}", traced.energy.as_ref()) == format!("{energy:?}")
}

fn drive_grids(grids: &[SweepGrid], threads: usize) -> Traced {
    let (reports, wall): (Vec<SweepReport>, f64) = untraced(REFERENCE_REPS, || {
        grids.iter().map(SweepGrid::run).collect()
    });
    let mut t = Traced::new(Tracer::new());
    let mut scratch = Scratch {
        flow: FlowArena::new(),
        timeline: TimelineArena::new(),
        flexgrid: FlexGridArena::new(),
        flows: HashMap::new(),
        epochs: HashMap::new(),
        memo_hits: 0,
        epochs_generated: 0,
        reconfigurations: 0,
        defrag_events: 0,
        board_bytes: 0.0,
    };
    let (mut leaders_solved, mut followers_replayed) = (0usize, 0usize);
    let batch_size = disagg_core::sweep::StreamConfig::default().batch_size;
    for (grid, report) in grids.iter().zip(&reports) {
        let engine_reuse = report.reuse.expect("reuse is on by default");
        leaders_solved += engine_reuse.leaders_solved;
        followers_replayed += engine_reuse.followers_replayed;

        // Every distinct topology is built once, as the engine does.
        let scenarios = grid.expand();
        let mut fabrics: HashMap<FabricKey, RackFabric> = HashMap::new();
        for s in &scenarios {
            if let Entry::Vacant(slot) = fabrics.entry(fabric_key(&s.fabric)) {
                let built = t.tracer.leaf("fabric.rackfabric.build", 0, None, || {
                    RackFabric::new(s.fabric)
                });
                slot.insert(built);
            }
        }
        t.check(
            report.summary_metric("fabrics_built") == Some(fabrics.len() as f64),
            || format!("{}: traced {} fabric builds", grid.name, fabrics.len()),
        );

        let energy: HashMap<&str, &EnergyStats> = report
            .energy
            .iter()
            .map(|(label, stats)| (label.as_str(), stats))
            .collect();
        let mut results: Vec<Option<ScenarioResult>> = vec![None; scenarios.len()];
        let mut leaders = 0usize;
        // Dedup groups form within each engine batch, as in the engine.
        for batch in scenarios.chunks(batch_size) {
            let mut groups: Vec<(&Scenario, Vec<&Scenario>)> = Vec::new();
            let mut slot_of: HashMap<SolveKey, usize> = HashMap::new();
            for s in batch {
                match slot_of.entry(solve_key(s)) {
                    Entry::Occupied(slot) => groups[*slot.get()].1.push(s),
                    Entry::Vacant(slot) => {
                        slot.insert(groups.len());
                        groups.push((s, Vec::new()));
                    }
                }
            }
            leaders += groups.len();
            for (leader, followers) in &groups {
                let fabric = &fabrics[&fabric_key(&leader.fabric)];
                let solved =
                    solve_group(&mut t.tracer, &mut scratch, fabric, grid, leader, followers);
                for (index, result) in solved {
                    results[index] = Some(result);
                }
            }
        }
        t.check(leaders == engine_reuse.leaders_solved, || {
            format!(
                "{}: traced {leaders} leaders, engine {}",
                grid.name, engine_reuse.leaders_solved
            )
        });
        t.check(report.rows.len() == scenarios.len(), || {
            format!("{}: engine returned {} rows", grid.name, report.rows.len())
        });
        let mismatches = results
            .iter()
            .zip(&report.rows)
            .filter(|(traced, row)| {
                !traced
                    .as_ref()
                    .is_some_and(|r| same_row(r, row, energy.get(row.label.as_str()).copied()))
            })
            .count();
        t.check(mismatches == 0, || {
            format!(
                "{}: {mismatches} traced rows differ from the engine",
                grid.name
            )
        });
    }

    let totals = t.tracer.layer_totals();
    let layer_total: f64 = totals.values().map(|l| l.self_s).sum();
    t.set("trace.layer_total_s", layer_total);
    t.set("trace.untraced_wall_s", wall);
    t.set("core.sweep.leaders_solved", leaders_solved as f64);
    t.set("core.sweep.followers_replayed", followers_replayed as f64);
    t.set("core.sweep.matrices_reused", scratch.memo_hits as f64);
    t.set(
        "core.sweep.pool_efficiency",
        layer_total / (threads as f64 * wall),
    );
    // (span, its self-time metric, a count metric and its value); a layer
    // with no spans was not exercised and is left out.
    let count = |span: &str| totals.get(span).map_or(0, |l| l.count) as f64;
    let layers = [
        (
            "fabric.rackfabric.build",
            "fabric.rackfabric.build_s",
            "fabric.rackfabric.builds",
            count("fabric.rackfabric.build"),
        ),
        (
            "workloads.traffic.flows",
            "workloads.traffic.flows_s",
            "workloads.traffic.flows",
            count("workloads.traffic.flows"),
        ),
        (
            "workloads.timeline.epoch_matrices",
            "workloads.timeline.epoch_matrices_s",
            "workloads.timeline.epochs",
            scratch.epochs_generated as f64,
        ),
        (
            "fabric.flowsim.run_in",
            "fabric.flowsim.run_in_s",
            "fabric.flowsim.calls",
            count("fabric.flowsim.run_in"),
        ),
        (
            "fabric.timeline.run_in",
            "fabric.timeline.run_in_s",
            "fabric.timeline.reconfigurations",
            scratch.reconfigurations as f64,
        ),
        (
            "fabric.flexgrid.run_in",
            "fabric.flexgrid.run_in_s",
            "fabric.flexgrid.defrag_events",
            scratch.defrag_events as f64,
        ),
        (
            "core.energy.account",
            "core.energy.account_s",
            "core.energy.calls",
            count("core.energy.account"),
        ),
    ];
    for (span, time_metric, count_metric, value) in layers {
        if let Some(total) = totals.get(span) {
            t.set(time_metric, total.self_s);
            t.set(count_metric, value);
        }
    }
    if totals.contains_key("fabric.flowsim.run_in") {
        let mut ms: Vec<f64> = t.tracer.durations("fabric.flowsim.run_in");
        ms.iter_mut().for_each(|s| *s *= 1e3);
        t.set("fabric.flowsim.p50_ms", percentile(&mut ms, 50.0));
        t.set("fabric.flowsim.p99_ms", percentile(&mut ms, 99.0));
    }
    if totals.contains_key("fabric.flexgrid.run_in") {
        t.set("fabric.flexgrid.board_bytes", scratch.board_bytes);
    }
    t
}

// ----------------------------------------------------------------- job ----

fn drive_job(inputs: &Inputs) -> Traced {
    let Inputs::Job { spec, runner, .. } = inputs else {
        unreachable!("drive_job takes job inputs");
    };
    let op = run_op(inputs);
    let mut t = Traced::new(Tracer::new());
    let problems = op.failures.join("; ");
    t.check(problems.is_empty(), || format!("cold/warm job: {problems}"));
    let (cold_s, warm_s) = (op.cold_s.unwrap_or(f64::NAN), op.seconds);

    // In-process: the same grid solved and encoded without the job layer.
    let id = 0;
    let report = t
        .tracer
        .leaf("core.jobs.solve", id, None, || spec.grid.run());
    let json = t
        .tracer
        .leaf("core.report.to_json", id, None, || report.to_json());
    let decoded = t.tracer.leaf("core.report.from_json", id, None, || {
        SweepReport::from_json(&json)
    });
    t.check(decoded.is_ok_and(|d| d.to_json() == json), || {
        "in-process report does not survive a JSON round trip".into()
    });
    // The operation already checked that warm bytes equal cold bytes.
    t.check(fnv1a(FNV_OFFSET, json.as_bytes()) == op.digest, || {
        "job bytes differ from the in-process report".into()
    });

    // Shard read and decode, as the warm job performs them.
    let grid_dir = runner.grid_dir(&spec.grid);
    let shards = spec.shard_count();
    let mut shard_bytes = 0usize;
    for k in 0..shards {
        let path = grid_dir.join(format!("shard{k}.json"));
        let text = t.tracer.leaf("core.jobs.shard_read", k as u64, None, || {
            std::fs::read_to_string(&path)
        });
        match text {
            Ok(text) => {
                shard_bytes += text.len();
                let shard = t.tracer.leaf("core.jobs.shard_decode", k as u64, None, || {
                    SweepReport::from_json(&text)
                });
                t.check(shard.is_ok(), || format!("shard {k} does not decode"));
            }
            Err(e) => t.check(false, || format!("shard {k}: {e}")),
        }
    }
    let read_s = t.self_s("core.jobs.shard_read");
    let decode_s = t.self_s("core.jobs.shard_decode");
    let layer_total: f64 = t.tracer.layer_totals().values().map(|l| l.self_s).sum();
    t.set("trace.layer_total_s", layer_total);
    t.set("trace.untraced_wall_s", cold_s + warm_s);
    t.set("core.report.to_json_s", t.self_s("core.report.to_json"));
    t.set("core.report.from_json_s", t.self_s("core.report.from_json"));
    t.set("core.report.bytes", json.len() as f64);
    t.set("core.jobs.solve_s", t.self_s("core.jobs.solve"));
    t.set("core.jobs.cold_s", cold_s);
    t.set("core.jobs.warm_s", warm_s);
    t.set("core.jobs.shard_read_s", read_s);
    t.set("core.jobs.shard_decode_s", decode_s);
    t.set("core.jobs.shards", shards as f64);
    t.set("core.jobs.shard_bytes", shard_bytes as f64);
    // Derived: what the warm job spends beyond reading and decoding shards.
    t.set("core.jobs.merge_s", warm_s - read_s - decode_s);
    t
}

// ----------------------------------------------------------------- cpu ----

fn drive_cpu(
    cpu: &disagg_core::CpuExperimentConfig,
    gpu: &disagg_core::GpuExperimentConfig,
    threads: usize,
) -> Traced {
    let ((cpu_results, gpu_results), wall) =
        untraced(1, || (run_cpu_experiment(cpu), run_gpu_experiment(gpu)));
    let mut t = Traced::new(Tracer::new());

    let benchmarks = workloads::cpu_benchmarks();
    let mut accesses = 0u64;
    let mut runs = 0u64;
    let mut sim_llc_misses = 0u64;
    let mut hierarchy_llc_misses = 0u64;
    let mut traced_cycles: Vec<u64> = Vec::new();
    for (b, benchmark) in benchmarks.iter().enumerate() {
        let id = b as u64;
        let root = t.tracer.begin("core.cpu_experiments.benchmark", id, None);
        let trace = t.tracer.leaf("workloads.cpu.trace", id, Some(root), || {
            cpu.trace_for(benchmark)
        });
        accesses += trace.accesses() as u64;
        for &kind in &cpu.core_kinds {
            for &latency in &cpu.latencies_ns {
                let config = cpu.cpu_config(kind).with_extra_latency_ns(latency);
                let result = t.tracer.leaf("cpusim.simulator.run", id, Some(root), || {
                    Simulator::new(config).with_warmup(cpu.warmup).run(&trace)
                });
                runs += 1;
                sim_llc_misses += result.hierarchy.llc.misses;
                traced_cycles.push(result.cycles);
            }
        }
        t.tracer.end(root);
        // The hierarchy alone, over the same warm-up and measured passes,
        // outside the benchmark span: the engine does not do this work.
        for &kind in &cpu.core_kinds {
            for &latency in &cpu.latencies_ns {
                let config = cpu.cpu_config(kind).with_extra_latency_ns(latency);
                hierarchy_llc_misses += t.tracer.leaf("cpusim.hierarchy.access", id, None, || {
                    let mut hierarchy = CacheHierarchy::new(&config);
                    if cpu.warmup {
                        for r in &trace.records {
                            hierarchy.access(r.access.addr, r.access.is_write);
                        }
                        hierarchy.reset_stats();
                    }
                    for r in &trace.records {
                        hierarchy.access(r.access.addr, r.access.is_write);
                    }
                    hierarchy.stats().llc.misses
                });
            }
        }
    }
    let model_runs: Vec<Vec<f64>> = workloads::gpu_applications()
        .iter()
        .enumerate()
        .map(|(a, app)| {
            t.tracer.leaf("gpusim.model.run", a as u64, None, || {
                GpuTimingModel::new(gpu.gpu)
                    .latency_sweep(app, &gpu.latencies_ns)
                    .iter()
                    .map(|r| r.total_cycles)
                    .collect()
            })
        })
        .collect();

    // The traced outcomes are the engine's outcomes.
    let engine_cycles: Vec<u64> = cpu_results
        .iter()
        .flat_map(|r| r.cycles.iter().map(|&(_, c)| c))
        .collect();
    t.check(engine_cycles == traced_cycles, || {
        "traced CPU cycles differ from run_cpu_experiment".into()
    });
    t.check(sim_llc_misses == hierarchy_llc_misses, || {
        format!("hierarchy alone saw {hierarchy_llc_misses} LLC misses, simulator {sim_llc_misses}")
    });
    let engine_gpu: Vec<Vec<f64>> = gpu_results
        .iter()
        .map(|r| r.cycles.iter().map(|&(_, c)| c).collect())
        .collect();
    t.check(engine_gpu == model_runs, || {
        "traced GPU cycles differ from run_gpu_experiment".into()
    });

    let totals = t.tracer.layer_totals();
    let self_of = |name: &str| totals.get(name).map_or(0.0, |l| l.self_s);
    let sim_s = self_of("cpusim.simulator.run");
    let hierarchy_s = self_of("cpusim.hierarchy.access");
    let mirrored = self_of("core.cpu_experiments.benchmark")
        + self_of("workloads.cpu.trace")
        + sim_s
        + self_of("gpusim.model.run");
    t.set("trace.layer_total_s", mirrored);
    t.set("trace.untraced_wall_s", wall);
    t.set("workloads.cpu.trace_s", self_of("workloads.cpu.trace"));
    t.set("workloads.cpu.accesses", accesses as f64);
    t.set("cpusim.simulator.run_s", sim_s);
    t.set("cpusim.simulator.runs", runs as f64);
    t.set("cpusim.hierarchy.access_s", hierarchy_s);
    t.set("cpusim.hierarchy.llc_misses", hierarchy_llc_misses as f64);
    // Derived: simulator time not spent in the cache hierarchy.
    t.set("cpusim.core_s", sim_s - hierarchy_s);
    t.set("gpusim.model.run_s", self_of("gpusim.model.run"));
    t.set(
        "core.cpu_experiments.pool_efficiency",
        mirrored / (threads as f64 * wall),
    );
    t
}
