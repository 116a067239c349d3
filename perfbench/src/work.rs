//! The four workloads: their inputs, one closed-loop operation each, and
//! the output checks every operation must pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use disagg_core::energy::EnergyMode;
use disagg_core::{
    run_cpu_experiment, run_gpu_experiment, sample, CpuExperimentConfig, GpuExperimentConfig,
    JobRunner, JobSpec, SweepGrid, SweepReport,
};
use fabric::{AdmissionPolicy, DefragPolicy, FabricKind, ReallocationPolicy, SpectrumPolicy};
use workloads::{DemandTimeline, TrafficPattern};

/// CPU results per experiment: 57 benchmark configs × in-order + OoO.
pub const CPU_RESULTS: usize = 57 * 2;
/// GPU applications per experiment.
pub const GPU_RESULTS: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RackStatic,
    RackTemporal,
    JobShards,
    CpuLatency,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RackStatic,
        Workload::RackTemporal,
        Workload::JobShards,
        Workload::CpuLatency,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RackStatic => "rack-static",
            Workload::RackTemporal => "rack-temporal",
            Workload::JobShards => "job-shards",
            Workload::CpuLatency => "cpu-latency",
        }
    }

    pub fn parse(text: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == text)
    }
}

/// Input size: the measured size, or the small size that the set-up's
/// warm-up, the smoke test and the traced run's census of other layers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The generated inputs of one workload.
pub enum Inputs {
    /// One or more grids, each run through `SweepGrid::run`.
    Grids(Vec<SweepGrid>),
    /// One job, run cold from an empty shard cache and then warm.
    Job {
        spec: Box<JobSpec>,
        runner: JobRunner,
        cache_dir: PathBuf,
    },
    /// The CPU and GPU latency experiments.
    Cpu {
        cpu: CpuExperimentConfig,
        gpu: GpuExperimentConfig,
        /// Simulated trace accesses per experiment: warm-up and measured
        /// passes at every latency point and core kind.
        sim_accesses: u64,
    },
}

/// `rack-static`: the reference grid crossed with both energy modes.
/// 2 fabrics × 3 patterns × 2 modes × replicates = 3072 scenarios at full
/// size; half of them are dedup followers.
pub fn rack_static_grid(seed: u64, scale: Scale) -> SweepGrid {
    let replicates = match scale {
        Scale::Full => 256,
        Scale::Smoke => 16,
    };
    sample::reference_grid()
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(replicates)
        .base_seed(seed)
}

fn timelines(demand_gbps: f64, epochs_per_phase: u32) -> [DemandTimeline; 3] {
    [
        DemandTimeline::shifting_hotspot(4, demand_gbps, 4, epochs_per_phase, 5),
        DemandTimeline::hpc_mix(demand_gbps, epochs_per_phase),
        DemandTimeline::elastic_churn(demand_gbps, epochs_per_phase),
    ]
}

/// `rack-temporal`: a wavelength-reallocation grid at 350 MCMs (216
/// scenarios, ~5 ms each) and a flex-grid spectrum grid at 64 MCMs (1800
/// scenarios, ~0.5 ms each), so each solver is about half the work. Each
/// grid has one energy mode, so no dedup groups form.
pub fn rack_temporal_grids(seed: u64, scale: Scale) -> Vec<SweepGrid> {
    let (realloc_replicates, spectrum_replicates) = match scale {
        Scale::Full => (24, 200),
        Scale::Smoke => (2, 16),
    };
    let realloc = SweepGrid::named("bench-temporal-realloc")
        .mcm_counts([350])
        .timelines(timelines(400.0, 3))
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ])
        .energy_modes([EnergyMode::UtilizationScaled])
        .replicates(realloc_replicates)
        .base_seed(seed);
    let spectrum = SweepGrid::named("bench-temporal-spectrum")
        .mcm_counts([64])
        .timelines(timelines(400.0, 3))
        .spectrum_policies([
            SpectrumPolicy::default(),
            SpectrumPolicy {
                admission: AdmissionPolicy::BestFit,
                defrag: DefragPolicy::OnBlock,
            },
            SpectrumPolicy {
                admission: AdmissionPolicy::ExactFit,
                defrag: DefragPolicy::EveryEpoch,
            },
        ])
        .energy_modes([EnergyMode::UtilizationScaled])
        .replicates(spectrum_replicates)
        .base_seed(seed);
    vec![realloc, spectrum]
}

/// `job-shards`: many cheap rows, 96 per replicate (12288 at full size),
/// sharded at the default `rows_per_shard`.
pub fn job_grid(seed: u64, scale: Scale) -> SweepGrid {
    let replicates = match scale {
        Scale::Full => 128,
        Scale::Smoke => 48,
    };
    SweepGrid::named("bench-job")
        .mcm_counts([16, 24, 32, 48])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 400.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 400.0,
            },
            TrafficPattern::Uniform {
                flows_per_mcm: 4,
                demand_gbps: 200.0,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .direct_latencies_ns([25.0, 35.0])
        .replicates(replicates)
        .base_seed(seed)
}

/// `cpu-latency`: all 57 CPU configs × in-order + OoO × the paper's
/// 0/25/30/35/85 ns sweep, plus the GPU experiment. Trace seeds derive
/// from benchmark identity, so this workload takes no seed.
pub fn cpu_config(scale: Scale) -> CpuExperimentConfig {
    CpuExperimentConfig {
        accesses_per_benchmark: match scale {
            Scale::Full => 40_000,
            Scale::Smoke => 2_000,
        },
        ..CpuExperimentConfig::default()
    }
}

/// Build a workload's inputs. Job workloads start from an empty cache
/// directory under `work_dir`.
pub fn build_inputs(workload: Workload, seed: u64, scale: Scale, work_dir: &Path) -> Inputs {
    match workload {
        Workload::RackStatic => Inputs::Grids(vec![rack_static_grid(seed, scale)]),
        Workload::RackTemporal => Inputs::Grids(rack_temporal_grids(seed, scale)),
        Workload::JobShards => {
            let cache_dir = work_dir.join("job-cache");
            empty_dir(&cache_dir);
            Inputs::Job {
                spec: Box::new(JobSpec::new(job_grid(seed, scale))),
                runner: JobRunner::new(&cache_dir),
                cache_dir,
            }
        }
        Workload::CpuLatency => {
            let cpu = cpu_config(scale);
            let passes = if cpu.warmup { 2 } else { 1 };
            let per_trace = (cpu.core_kinds.len() * cpu.latencies_ns.len() * passes) as u64;
            let sim_accesses = workloads::cpu_benchmarks()
                .iter()
                .map(|b| cpu.trace_for(b).accesses() as u64 * per_trace)
                .sum();
            Inputs::Cpu {
                cpu,
                gpu: GpuExperimentConfig::default(),
                sim_accesses,
            }
        }
    }
}

/// Remove `dir` and everything under it, if it exists.
pub fn empty_dir(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot empty {}: {e}", dir.display()),
    }
}

/// The outcome of one closed-loop operation.
pub struct OpOutcome {
    /// Timed seconds: the grid runs, the warm job, or the experiments.
    pub seconds: f64,
    /// CPU seconds of the process over the same timed calls.
    pub cpu_seconds: f64,
    /// Work items in the timed part: scenario rows, or simulated accesses.
    pub items: f64,
    /// Seconds of the cold job (`job-shards` only). Not in `seconds`: the
    /// cold job fsyncs every shard and runs the pool once per shard, so on
    /// a shared host its time follows hypervisor steal more than the code.
    pub cold_s: Option<f64>,
    /// Output digest (FNV-1a); equal on every operation of a run.
    pub digest: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

/// Wall and process CPU time since a start point.
struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: crate::host::process_cpu_s(),
        }
    }

    /// (wall seconds, CPU seconds) since the start.
    fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            crate::host::process_cpu_s() - self.cpu_s,
        )
    }
}

/// Warm up on `inputs` without checking outputs. A job warms its solve and
/// JSON code in-process: shard writes fsync, and no warm-up speeds that up.
pub fn warm_up(inputs: &Inputs) {
    match inputs {
        Inputs::Job { spec, .. } => {
            let json = spec.grid.run().to_json();
            std::hint::black_box(SweepReport::from_json(&json).is_ok());
        }
        _ => {
            std::hint::black_box(run_op(inputs).digest);
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Rack-grid checks: one row per scenario, every satisfaction finite and
/// in [0, 1].
pub fn check_grid_report(grid: &SweepGrid, report: &SweepReport, failures: &mut Vec<String>) {
    if report.rows.len() != grid.scenario_count() {
        failures.push(format!(
            "{}: {} rows for {} scenarios",
            grid.name,
            report.rows.len(),
            grid.scenario_count()
        ));
    }
    let bad = report
        .rows
        .iter()
        .filter(|row| {
            !row.metric("satisfaction")
                .is_some_and(|s| s.is_finite() && (0.0..=1.0).contains(&s))
        })
        .count();
    if bad > 0 {
        failures.push(format!(
            "{}: {bad} rows with satisfaction outside [0,1]",
            grid.name
        ));
    }
}

/// Run one operation of the workload and check its outputs.
pub fn run_op(inputs: &Inputs) -> OpOutcome {
    let mut failures = Vec::new();
    match inputs {
        Inputs::Grids(grids) => {
            let mut seconds = 0.0;
            let mut cpu_seconds = 0.0;
            let mut items = 0.0;
            let mut digest = FNV_OFFSET;
            for grid in grids {
                let started = Stopwatch::start();
                let report = grid.run();
                let (wall, cpu) = started.elapsed();
                seconds += wall;
                cpu_seconds += cpu;
                items += report.rows.len() as f64;
                check_grid_report(grid, &report, &mut failures);
                digest = fnv1a(digest, report.to_json().as_bytes());
            }
            OpOutcome {
                seconds,
                cpu_seconds,
                items,
                cold_s: None,
                digest,
                failures,
            }
        }
        Inputs::Job {
            spec,
            runner,
            cache_dir,
        } => {
            empty_dir(cache_dir);
            let rows = spec.grid.scenario_count();
            let started = Instant::now();
            let cold = runner.run(spec);
            let cold_s = started.elapsed().as_secs_f64();
            let started = Stopwatch::start();
            let warm = runner.run(spec);
            let (warm_s, warm_cpu_s) = started.elapsed();
            let mut digest = FNV_OFFSET;
            match (cold, warm) {
                (Ok(cold), Ok(warm)) => {
                    let cold_json = cold.report.to_json();
                    digest = fnv1a(digest, cold_json.as_bytes());
                    check_grid_report(&spec.grid, &cold.report, &mut failures);
                    if cold.scenarios_executed != rows {
                        failures.push(format!(
                            "cold job executed {} of {rows} scenarios",
                            cold.scenarios_executed
                        ));
                    }
                    if warm.scenarios_executed != 0 || warm.shards_from_cache != warm.shards_total {
                        failures.push(format!(
                            "warm job executed {} scenarios, {} of {} shards cached",
                            warm.scenarios_executed, warm.shards_from_cache, warm.shards_total
                        ));
                    }
                    if warm.report.to_json() != cold_json {
                        failures.push("warm report bytes differ from cold".into());
                    }
                }
                (cold, warm) => {
                    for err in [cold.err(), warm.err()].into_iter().flatten() {
                        failures.push(format!("job failed: {err}"));
                    }
                }
            }
            OpOutcome {
                seconds: warm_s,
                cpu_seconds: warm_cpu_s,
                items: rows as f64,
                cold_s: Some(cold_s),
                digest,
                failures,
            }
        }
        Inputs::Cpu {
            cpu,
            gpu,
            sim_accesses,
        } => {
            let started = Stopwatch::start();
            let cpu_results = run_cpu_experiment(cpu);
            let gpu_results = run_gpu_experiment(gpu);
            let (seconds, cpu_seconds) = started.elapsed();
            if cpu_results.len() != CPU_RESULTS {
                failures.push(format!("{} CPU results", cpu_results.len()));
            }
            let nonzero = cpu_results
                .iter()
                .filter(|r| r.slowdown_at(0.0) != Some(0.0))
                .count();
            if nonzero > 0 {
                failures.push(format!("{nonzero} CPU results with slowdown at 0 ns != 0"));
            }
            if gpu_results.len() != GPU_RESULTS
                || gpu_results.iter().any(|r| r.slowdown_at(0.0) != Some(0.0))
            {
                failures.push("GPU results malformed".into());
            }
            let mut digest = FNV_OFFSET;
            for r in &cpu_results {
                for (_, cycles) in &r.cycles {
                    digest = fnv1a(digest, &cycles.to_le_bytes());
                }
            }
            for r in &gpu_results {
                for (_, cycles) in &r.cycles {
                    digest = fnv1a(digest, &cycles.to_bits().to_le_bytes());
                }
            }
            OpOutcome {
                seconds,
                cpu_seconds,
                items: *sim_accesses as f64,
                cold_s: None,
                digest,
                failures,
            }
        }
    }
}
