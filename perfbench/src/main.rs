//! perfbench: the repository's outside-in benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rack-static --seed 13720166 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload in a closed loop: one caller, one grid,
//! job or experiment outstanding at a time, on at most two pool threads.
//! With `--trace 0` it times the workload's public entry point and prints
//! every end-to-end metric; with `--trace 1` it drives the same inputs
//! serially through each layer's public calls and prints every per-layer
//! metric. Either way it checks the outputs, prints an output digest and
//! the host, and ends with one JSON line. `--smoke` runs at a tiny size.
//! See `perfbench/README.md` for the workloads and the metric map.

mod host;
mod layers;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use work::{Inputs, Scale, Workload};

/// End-to-end metrics, printed by every untraced run: (name, unit).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("items_per_ref_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit).
const PER_LAYER: [(&str, &str); 45] = [
    ("trace.layer_total_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("fabric.rackfabric.build_s", "s"),
    ("fabric.rackfabric.builds", "count"),
    ("workloads.traffic.flows_s", "s"),
    ("workloads.traffic.flows", "count"),
    ("workloads.timeline.epoch_matrices_s", "s"),
    ("workloads.timeline.epochs", "count"),
    ("fabric.flowsim.run_in_s", "s"),
    ("fabric.flowsim.calls", "count"),
    ("fabric.flowsim.p50_ms", "ms"),
    ("fabric.flowsim.p99_ms", "ms"),
    ("fabric.timeline.run_in_s", "s"),
    ("fabric.timeline.reconfigurations", "count"),
    ("fabric.flexgrid.run_in_s", "s"),
    ("fabric.flexgrid.defrag_events", "count"),
    ("fabric.flexgrid.board_bytes", "bytes"),
    ("core.energy.account_s", "s"),
    ("core.energy.calls", "count"),
    ("core.sweep.leaders_solved", "count"),
    ("core.sweep.followers_replayed", "count"),
    ("core.sweep.matrices_reused", "count"),
    ("core.sweep.pool_efficiency", "ratio"),
    ("core.report.to_json_s", "s"),
    ("core.report.from_json_s", "s"),
    ("core.report.bytes", "bytes"),
    ("core.jobs.solve_s", "s"),
    ("core.jobs.cold_s", "s"),
    ("core.jobs.warm_s", "s"),
    ("core.jobs.shard_read_s", "s"),
    ("core.jobs.shard_decode_s", "s"),
    ("core.jobs.shards", "count"),
    ("core.jobs.shard_bytes", "bytes"),
    ("core.jobs.merge_s", "s"),
    ("workloads.cpu.trace_s", "s"),
    ("workloads.cpu.accesses", "count"),
    ("cpusim.simulator.run_s", "s"),
    ("cpusim.simulator.runs", "count"),
    ("cpusim.hierarchy.access_s", "s"),
    ("cpusim.hierarchy.llc_misses", "count"),
    ("cpusim.core_s", "s"),
    ("gpusim.model.run_s", "s"),
    ("core.cpu_experiments.pool_efficiency", "ratio"),
    ("trace.outcome_checks", "count"),
    ("trace.spans", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Seed used when `--seed` is absent: the engine's default `base_seed`.
const DEFAULT_SEED: u64 = 0xD15A66;
/// Scratch space for shard caches and span dumps, under the working directory.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within [0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => scale = Scale::Smoke,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Build the inputs and warm up on the smoke-size inputs, `SETUP_REPS`
/// times; return the last set-up's inputs and the median set-up time in
/// reference CPU seconds: the median of the set-ups' process CPU seconds,
/// scaled by the median of the probes run after each. The first set-up
/// counts from process start.
fn setup(args: &Args, work_dir: &Path, probe: &mut host::Probe) -> (Inputs, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut probes = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let started = if rep == 0 { 0.0 } else { host::process_cpu_s() };
        let warmup = work::build_inputs(
            args.workload,
            args.seed,
            Scale::Smoke,
            &work_dir.join("warmup"),
        );
        // One thread, so the warm-up's time does not hinge on how the pool
        // splits a few heavy scenarios.
        rayon::with_max_threads(1, || work::warm_up(&warmup));
        inputs = Some(work::build_inputs(
            args.workload,
            args.seed,
            args.scale,
            work_dir,
        ));
        times.push(host::process_cpu_s() - started);
        probes.push(probe.seconds());
    }
    (
        inputs.expect("at least one set-up"),
        layers::median(&mut times) * host::PROBE_REF_S / layers::median(&mut probes),
    )
}

/// What a run reports: operations or checks attempted, one message per
/// failed one, and the metrics.
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn run_untraced(args: &Args, inputs: &Inputs, probe: &mut host::Probe, setup_s: f64) -> Outcome {
    let region = Instant::now();
    let mut ops = Vec::new();
    let mut probes = vec![probe.seconds()];
    loop {
        ops.push(work::run_op(inputs));
        probes.push(probe.seconds());
        if region.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Each operation is scaled by the mean of the probes on either side.
    let probe_s: Vec<f64> = probes.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    let digest = ops[0].digest;
    let mut outcome = Outcome {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let cold = op
            .cold_s
            .map_or(String::new(), |c| format!(" cold_s={c:.6}"));
        println!(
            "op {i} seconds={:.6} cpu_seconds={:.6} probe_s={:.6} items={}{cold}",
            op.seconds, op.cpu_seconds, probe_s[i], op.items
        );
        let mut problems = op.failures.clone();
        if op.digest != digest {
            problems.push(format!("digest {:016x} differs from op 0", op.digest));
        }
        outcome.check(problems.is_empty(), || {
            format!("op {i}: {}", problems.join("; "))
        });
    }
    // The job's cold and warm bytes must also equal the in-process report.
    if let Inputs::Job { spec, .. } = inputs {
        let in_process = spec.grid.run().to_json();
        outcome.check(
            work::fnv1a(work::FNV_OFFSET, in_process.as_bytes()) == digest,
            || "job report bytes differ from the in-process SweepGrid::run".into(),
        );
    }
    println!(
        "digest {} fnv1a64={digest:016x} ops={}",
        args.workload.name(),
        ops.len()
    );
    let values = [
        setup_s,
        layers::median(
            &mut ops
                .iter()
                .zip(&probe_s)
                .map(|(o, p)| o.items / o.cpu_seconds * (p / host::PROBE_REF_S))
                .collect::<Vec<_>>(),
        ),
        host::peak_rss_mb().unwrap_or(f64::NAN),
    ];
    outcome.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    outcome
}

fn run_traced(args: &Args, inputs: &Inputs, threads: usize, work_dir: &Path) -> Outcome {
    let name = args.workload.name();
    let region = Instant::now();
    let mut drives = Vec::new();
    loop {
        drives.push(layers::drive(inputs, threads));
        if region.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut outcome = Outcome {
        attempted: drives.iter().map(|d| d.checks).sum(),
        failures: drives.iter().flat_map(|d| d.failures.clone()).collect(),
        metrics: Vec::with_capacity(PER_LAYER.len()),
    };
    let last = drives.last().expect("at least one traced drive");
    let totals = last.tracer.layer_totals();
    println!(
        "layer self times ({name}, last of {} drives):",
        drives.len()
    );
    for (layer, total) in &totals {
        println!(
            "  {layer:<40} {:>12.6} s {:>8} spans",
            total.self_s, total.count
        );
    }
    println!(
        "  traced total {:.6} s beside untraced wall {:.6} s",
        totals.values().map(|t| t.self_s).sum::<f64>(),
        last.metrics["trace.untraced_wall_s"]
    );
    let span_file = Path::new(WORK_DIR).join(format!("spans-{name}.tsv"));
    let written = last.tracer.write(&span_file);
    outcome.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", span_file.display())
    });

    // Each metric is the median over the drives.
    let mut values: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    for &metric in last.metrics.keys() {
        let samples = drives.iter().filter_map(|d| d.metrics.get(metric).copied());
        values.insert(
            metric,
            (layers::median(&mut samples.collect::<Vec<_>>()), name),
        );
    }
    values.insert("trace.outcome_checks", (last.checks as f64, name));
    let spans: u64 = totals.values().map(|t| t.count).sum();
    values.insert("trace.spans", (spans as f64, name));
    // Layers this workload does not exercise are measured on the smoke-size
    // inputs of the workload that does, so every layer reads a live value.
    for other in Workload::ALL {
        if other == args.workload || PER_LAYER.iter().all(|(n, _)| values.contains_key(n)) {
            continue;
        }
        let census_dir = work_dir.join("census");
        let smoke = layers::drive(
            &work::build_inputs(other, args.seed, Scale::Smoke, &census_dir),
            threads,
        );
        outcome.attempted += smoke.checks;
        let source = other.name();
        let failed = smoke
            .failures
            .iter()
            .map(|f| format!("{source} smoke: {f}"));
        outcome.failures.extend(failed);
        for (metric, value) in smoke.metrics {
            values.entry(metric).or_insert((value, source));
        }
    }
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| !values.contains_key(n))
        .collect();
    outcome.check(missing.is_empty(), || {
        format!("layers not measured: {missing:?}")
    });
    for (metric, unit) in PER_LAYER {
        if let Some(&(value, source)) = values.get(metric) {
            if source != name {
                println!("layer {metric} measured on {source} at smoke size");
            }
            outcome.metrics.push((metric, value, unit));
        }
    }
    outcome
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload rack-static|rack-temporal|job-shards|cpu-latency \
                 [--seed N] [--seconds S] [--trace 0|1] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let steal_start = host::steal_ticks();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let threads = disagg_core::sweep::configure_threads(Some(threads));
    let work_dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));

    let mut probe = host::Probe::new(threads);
    let (inputs, setup_s) = setup(&args, &work_dir, &mut probe);
    let mut outcome = if args.trace {
        run_traced(&args, &inputs, threads, &work_dir)
    } else {
        run_untraced(&args, &inputs, &mut probe, setup_s)
    };
    work::empty_dir(&work_dir);

    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} {value} {unit}");
    }
    let non_finite: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| *n)
        .collect();
    outcome.check(non_finite.is_empty(), || {
        format!("non-finite metrics {non_finite:?}")
    });
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    println!(
        "{}",
        host::describe(threads, steal_start, process_start.elapsed().as_secs_f64())
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
