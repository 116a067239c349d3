//! The execution layer: the order-preserving [`parallel_map`] primitive,
//! thread-count plumbing, the `Arc`-shared fabric memoization cache, and
//! the one plan driver behind [`SweepGrid::run`],
//! [`SweepGrid::run_streaming`], [`SweepGrid::run_sharded`],
//! [`SweepGrid::run_sampled`] and the `jobs` layer.
//!
//! Every run executes a [`ClusterPlan`]: a list of `(grid index, weight)`
//! positions. Plain runs use the identity plan `ClusterPlan::exact`
//! (weight 1, answered without materializing an entry per scenario);
//! sampled runs use one position per cluster representative. One driver
//! decodes plan positions from the lazy
//! [`ScenarioIter`](crate::sweep::ScenarioIter) one batch at a time, fans
//! each batch out across the thread pool, and visits every result with
//! its weight in plan order. One weighted fold turns the visited results
//! (or, when merging shards, their JSON-round-tripped rows) into the
//! summary block, dividing by the weight it absorbed; because
//! `1.0 * x == x` in f64, the identity plan gives exactly the bytes of an
//! unweighted fold. One row writer emits rows, tagging them with
//! `cluster_weight` only for sampled plans, and one shard executor and
//! one shard merge serve both [`SweepGrid::run_sharded`] and the
//! checkpointed jobs. `run` is simply the streaming path with every row
//! retained, so the byte-identical golden fixtures exercise the same
//! machinery a million-scenario grid uses with a row cap.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use fabric::{
    FabricKind, FlexGridArena, FlexGridConfig, FlexGridSimulator, Flow, FlowArena, FlowSimConfig,
    FlowSimulator, RackFabric, RackFabricConfig, TimelineArena, TimelineConfig, TimelineSimulator,
};
use rayon::prelude::*;
use workloads::TrafficPattern;

use crate::energy::{EnergyConfig, EnergyModel, EnergyStats};
use crate::report::{ReuseStats, SweepReport, SweepRow, ThroughputStats};
use crate::sample::ClusterPlan;
use crate::sweep::grid::SweepGrid;
use crate::sweep::scenario::{FlexGridRowMetrics, Scenario, ScenarioLoad, ScenarioResult};

/// Run `f` over every item, in parallel, preserving input order.
///
/// This is the engine's only execution primitive: the grid runner, the CPU
/// and GPU experiment drivers, and the ported table/figure artifacts all go
/// through it, so every sweep in the workspace executes on the vendored
/// chunk-stealing thread pool at once. Results are byte-identical to a
/// serial run at any thread count (the pool preserves order and never
/// reorders reductions), and a panic in `f` propagates to the caller.
pub fn parallel_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync + Send,
{
    items.par_iter().map(f).collect()
}

/// [`parallel_map`] with per-worker scratch state: each pool worker builds
/// one `S` with `init` and reuses it for every item it steals (rayon's
/// `map_init` shape).
///
/// This is the arena hook the scenario executor runs on — one
/// [`FlowArena`]/[`TimelineArena`] pair per worker thread, reused across
/// thousands of scenarios, so the hot path stops allocating per scenario.
/// The determinism contract is unchanged *provided* `f`'s result does not
/// depend on the state's history (which pure scratch buffers satisfy):
/// results come back in input order, byte-identical at any thread count.
///
/// ```
/// use disagg_core::sweep::parallel_map_with;
///
/// let squares = parallel_map_with(
///     &[1u64, 2, 3, 4],
///     Vec::<u64>::new, // per-worker scratch: a reusable buffer
///     |scratch, &x| {
///         scratch.clear();
///         scratch.extend((0..x).map(|_| x));
///         scratch.iter().sum::<u64>()
///     },
/// );
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map_with<I, S, R, INIT, F>(items: &[I], init: INIT, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> R + Sync,
{
    items.par_iter().map_init(init, f).collect()
}

/// Entries the per-worker demand memo holds before it is wiped. Eviction
/// can never change results (a miss just regenerates the matrix), so a
/// blunt clear-on-cap keeps the bound exact with zero bookkeeping.
const DEMAND_MEMO_CAP: usize = 128;

/// Demand-memo key: `(demand identity label, mcm_count, effective seed)`.
type MemoKey = (String, u32, u64);

/// The memo key of a static pattern's demand matrix.
fn flows_key(pattern: &TrafficPattern, mcm_count: u32, seed: u64) -> MemoKey {
    (pattern.memo_key(), mcm_count, pattern.effective_seed(seed))
}

/// The memo key of a timeline's epoch matrices.
fn epochs_key(timeline: &workloads::DemandTimeline, mcm_count: u32, seed: u64) -> MemoKey {
    (timeline.spec_label(), mcm_count, seed)
}

/// The demand a scenario's solve expands: which [`WorkerScratch`] memo it
/// reads (`true` for timeline epoch matrices) and its key there. Two
/// scenarios with equal demand keys expand byte-identical demand.
fn demand_key(scenario: &Scenario) -> (bool, MemoKey) {
    let mcm_count = scenario.fabric.mcm_count;
    match &scenario.load {
        ScenarioLoad::Pattern(pattern) => (false, flows_key(pattern, mcm_count, scenario.seed)),
        ScenarioLoad::Timeline(tc) => (true, epochs_key(&tc.timeline, mcm_count, scenario.seed)),
        ScenarioLoad::FlexGrid(fc) => (true, epochs_key(&fc.timeline, mcm_count, scenario.seed)),
    }
}

/// Per-worker reusable simulator state: one flow-solver arena, one
/// timeline arena, one flex-grid arena, and the bounded demand-matrix
/// memo, built once per pool worker and threaded through every scenario
/// that worker executes. Purely scratch — see
/// [`FlowArena`]/[`TimelineArena`]; reuse never changes results.
struct WorkerScratch {
    flow: FlowArena,
    timeline: TimelineArena,
    flexgrid: FlexGridArena,
    /// Static demand matrices keyed by `(pattern memo key, mcm_count,
    /// effective seed)` — see [`TrafficPattern::memo_key`]. Replicates of a
    /// seed-insensitive pattern, and every fabric/DWDM/FEC/latency/energy
    /// variant of any pattern, hit one entry.
    flows_memo: HashMap<MemoKey, Arc<Vec<Flow>>>,
    /// Timeline epoch matrices keyed by `(spec label, mcm_count, seed)`.
    /// Policies are *not* in the key: every reallocation or spectrum policy
    /// of a timeline — and the wavelength vs flex-grid layers themselves —
    /// share one expansion.
    epochs_memo: HashMap<MemoKey, Arc<Vec<Vec<Flow>>>>,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            flow: FlowArena::new(),
            timeline: TimelineArena::new(),
            flexgrid: FlexGridArena::new(),
            flows_memo: HashMap::new(),
            epochs_memo: HashMap::new(),
        }
    }

    /// Look up or expand a static pattern's demand matrix. `memo: false`
    /// (the `--no-reuse` path) bypasses the cache entirely.
    fn flows(
        &mut self,
        pattern: &TrafficPattern,
        mcm_count: u32,
        seed: u64,
        memo: bool,
    ) -> Arc<Vec<Flow>> {
        if !memo {
            return Arc::new(pattern.flows(mcm_count, seed));
        }
        let key = flows_key(pattern, mcm_count, seed);
        if let Some(hit) = self.flows_memo.get(&key) {
            return hit.clone();
        }
        let flows = Arc::new(pattern.flows(mcm_count, seed));
        if self.flows_memo.len() >= DEMAND_MEMO_CAP {
            self.flows_memo.clear();
        }
        self.flows_memo.insert(key, flows.clone());
        flows
    }

    /// Look up or expand a timeline's epoch matrices (shared across every
    /// policy and across the wavelength/flex-grid layers).
    fn epochs(
        &mut self,
        timeline: &workloads::DemandTimeline,
        mcm_count: u32,
        seed: u64,
        memo: bool,
    ) -> Arc<Vec<Vec<Flow>>> {
        if !memo {
            return Arc::new(timeline.epoch_matrices(mcm_count, seed));
        }
        let key = epochs_key(timeline, mcm_count, seed);
        if let Some(hit) = self.epochs_memo.get(&key) {
            return hit.clone();
        }
        let epochs = Arc::new(timeline.epoch_matrices(mcm_count, seed));
        if self.epochs_memo.len() >= DEMAND_MEMO_CAP {
            self.epochs_memo.clear();
        }
        self.epochs_memo.insert(key, epochs.clone());
        epochs
    }
}

/// Fix the engine's thread count from a CLI request, falling back to the
/// `PD_THREADS` environment variable and then to the machine's available
/// parallelism. Returns the effective thread count.
///
/// Binaries call this once at startup (`--threads N` wins over
/// `PD_THREADS=N`, which wins over the hardware default); the first caller
/// in a process pins the global setting, as with rayon's
/// `ThreadPoolBuilder::build_global`. Tests that need a specific count use
/// [`rayon::with_max_threads`] instead, which scopes the override to a
/// closure.
pub fn configure_threads(requested: Option<usize>) -> usize {
    let threads = requested
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("PD_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();
    rayon::current_num_threads()
}

/// Knobs of the streaming execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Scenarios decoded and executed per parallel batch. The default
    /// (4096) keeps per-batch overhead negligible while bounding peak
    /// memory at one batch of scenarios plus one batch of results.
    pub batch_size: usize,
    /// Maximum number of rows (and energy entries) retained in the
    /// returned report; `None` keeps every row. Summary metrics always
    /// aggregate over *all* executed scenarios, capped or not.
    pub row_cap: Option<usize>,
    /// Whether the executor's computation-reuse layer is enabled (the
    /// default): per-batch dedup of physically identical solves with
    /// energy-replay for the duplicates, plus the per-worker demand-matrix
    /// memo. Reuse never changes a single output byte — `false` (the
    /// `--no-reuse` escape hatch) exists for A/B debugging and benchmarks,
    /// and controls whether [`SweepReport::reuse`] is populated.
    pub reuse: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch_size: 4096,
            row_cap: None,
            reuse: true,
        }
    }
}

impl StreamConfig {
    /// Streaming config with a row cap.
    pub fn with_row_cap(cap: usize) -> Self {
        StreamConfig {
            row_cap: Some(cap),
            ..StreamConfig::default()
        }
    }
}

impl SweepGrid {
    /// Execute the grid in parallel on the vendored thread pool and collect
    /// a [`SweepReport`]. Results are byte-identical at any thread count,
    /// including `rayon::with_max_threads(1, || grid.run())`, which runs
    /// every batch as a plain loop on the caller's thread.
    pub fn run(&self) -> SweepReport {
        self.run_streaming(&StreamConfig::default())
    }

    /// Execute the grid through the streaming path with explicit knobs:
    /// bounded batches and an optional row cap, so a multi-million-scenario
    /// grid completes without ever materializing all rows. With
    /// `row_cap: None` the result is byte-identical to [`SweepGrid::run`].
    ///
    /// ```
    /// use disagg_core::sweep::{StreamConfig, SweepGrid};
    ///
    /// let grid = SweepGrid::named("s").mcm_counts([16]).replicates(64);
    /// let capped = grid.run_streaming(&StreamConfig::with_row_cap(4));
    /// assert_eq!(capped.rows.len(), 4);
    /// // The summary still aggregates all 64 replicates.
    /// assert_eq!(capped.summary_metric("scenarios"), Some(64.0));
    /// assert_eq!(capped.summary, grid.run().summary);
    /// ```
    pub fn run_streaming(&self, config: &StreamConfig) -> SweepReport {
        self.run_plan(&ClusterPlan::exact(self.scenario_count()), config)
    }

    /// Execute the grid, emitting rows in shards of `rows_per_shard`
    /// through `emit` (each shard a self-contained [`SweepReport`] named
    /// `{name}.shard{k}`), and return a summary-only master report. This is
    /// the JSON-output path for grids too large for one document: peak
    /// memory is one shard, whatever the grid size. Shards are cut and
    /// executed exactly as the checkpointed jobs cut theirs, so batches
    /// never straddle a shard boundary. A [`StreamConfig::row_cap`] bounds
    /// the total rows emitted across all shards; the summary still
    /// aggregates every scenario.
    pub fn run_sharded(
        &self,
        config: &StreamConfig,
        rows_per_shard: usize,
        emit: &mut dyn FnMut(SweepReport),
    ) -> SweepReport {
        let plan = ClusterPlan::exact(self.scenario_count());
        let per_shard = rows_per_shard.max(1);
        let mut rows_left = config.row_cap.unwrap_or(usize::MAX);
        let mut fold = SummaryFold::default();
        let mut accum = ReuseAccum::new();
        let started = Instant::now();
        let cache = FabricCache::from_grid(self);
        for k in 0..plan.evaluated().div_ceil(per_shard) {
            let start = k * per_shard;
            let end = plan.evaluated().min(start + per_shard);
            let mut shard = self.execute_shard(&plan, &cache, config, k, start..end, &mut accum);
            fold.absorb_rows(&plan, start, &shard)
                .expect("executed rows carry their summary metrics");
            truncate_rows(&mut shard, rows_left);
            rows_left -= shard.rows.len();
            if !shard.rows.is_empty() {
                emit(shard);
            }
        }
        let mut master = SweepReport::new(self.name.clone());
        finish_run(&mut master, fold, &cache, &plan, started, config, &accum);
        master
    }

    /// Execute every position of `plan`, keeping rows up to the config's
    /// row cap: the body of [`SweepGrid::run_streaming`] and
    /// [`SweepGrid::run_sampled`].
    pub(crate) fn run_plan(&self, plan: &ClusterPlan, config: &StreamConfig) -> SweepReport {
        let row_cap = config.row_cap.unwrap_or(usize::MAX);
        let mut report = SweepReport::new(self.name.clone());
        let mut fold = SummaryFold::default();
        let mut accum = ReuseAccum::new();
        let started = Instant::now();
        let cache = FabricCache::from_grid(self);
        let positions = 0..plan.evaluated();
        self.drive(
            plan,
            positions,
            &cache,
            config,
            &mut accum,
            &mut |result, weight| {
                fold.absorb(
                    weight,
                    result.satisfaction,
                    result.mean_latency_ns,
                    result.energy.as_ref(),
                );
                if report.rows.len() < row_cap {
                    push_row(&mut report, plan, result, weight);
                }
            },
        );
        finish_run(&mut report, fold, &cache, plan, started, config, &accum);
        report
    }

    /// The shard executor: run plan positions `range` as shard `k`, a
    /// self-contained report named `{name}.shard{k}` holding every row.
    pub(crate) fn execute_shard(
        &self,
        plan: &ClusterPlan,
        cache: &FabricCache,
        config: &StreamConfig,
        k: usize,
        range: Range<usize>,
        accum: &mut ReuseAccum,
    ) -> SweepReport {
        let mut shard = SweepReport::new(format!("{}.shard{k}", self.name));
        self.drive(plan, range, cache, config, accum, &mut |result, weight| {
            push_row(&mut shard, plan, result, weight)
        });
        shard
    }

    /// Number of distinct fabric topologies the grid's hardware axes
    /// (fabric kind, rack size, fibers, wavelengths, data rate, FEC
    /// derating) produce — the value `run` reports as `fabrics_built`,
    /// computed without building anything. The jobs layer uses this to
    /// emit a correct merged summary even when every shard came from the
    /// on-disk cache and no fabric was ever constructed.
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let grid = SweepGrid::named("d").mcm_counts([16, 24]).replicates(10);
    /// assert_eq!(grid.distinct_fabric_count(), 2);
    /// assert_eq!(grid.run().summary_metric("fabrics_built"), Some(2.0));
    /// ```
    pub fn distinct_fabric_count(&self) -> usize {
        unique_fabric_configs(self).len()
    }

    /// The one driver: decode plan positions `positions` in batches of
    /// `config.batch_size` (at least 1), execute each batch across the pool
    /// through the dedup-planned reuse layer, and visit every result with
    /// its plan weight, in plan order. Reuse accounting folds into `accum`.
    fn drive(
        &self,
        plan: &ClusterPlan,
        positions: Range<usize>,
        cache: &FabricCache,
        config: &StreamConfig,
        accum: &mut ReuseAccum,
        visit: &mut dyn FnMut(ScenarioResult, usize),
    ) {
        let batch_size = config.batch_size.max(1);
        let scenarios = self.scenarios();
        let mut batch: Vec<Scenario> = Vec::with_capacity(batch_size.min(positions.len()));
        let mut start = positions.start;
        while start < positions.end {
            let end = positions.end.min(start.saturating_add(batch_size));
            batch.clear();
            batch.extend((start..end).map(|pos| {
                scenarios
                    .get(plan.entry(pos).0)
                    .expect("plan index within grid bounds")
            }));
            let results = execute_batch(
                &batch,
                cache,
                self.indirect_hop_latency_ns,
                &self.energy_config,
                config.reuse,
                accum,
            );
            for (pos, result) in (start..end).zip(results) {
                visit(result, plan.entry(pos).1);
            }
            start = end;
        }
    }
}

/// Close a run's report: the summary block, then the JSON-excluded
/// throughput and reuse metadata.
fn finish_run(
    report: &mut SweepReport,
    fold: SummaryFold,
    cache: &FabricCache,
    plan: &ClusterPlan,
    started: Instant,
    config: &StreamConfig,
    accum: &ReuseAccum,
) {
    fold.finish(report, cache.len());
    report.throughput = Some(ThroughputStats {
        scenarios: plan.evaluated(),
        wall_s: started.elapsed().as_secs_f64(),
        threads: rayon::current_num_threads(),
    });
    report.reuse = config.reuse.then(|| accum.stats());
}

/// The one row writer: append one result's row (and energy entry, if
/// any) to a report. Rows of a sampled plan carry their cluster weight as
/// an extra `cluster_weight` parameter after the scenario's own, so
/// sampled rows are self-describing in the JSON.
fn push_row(report: &mut SweepReport, plan: &ClusterPlan, result: ScenarioResult, weight: usize) {
    let mut row: SweepRow = result.to_row();
    if !plan.exact {
        row.params
            .push(("cluster_weight".to_string(), weight.to_string()));
    }
    if let Some(energy) = result.energy {
        report.energy.push((row.label.clone(), energy));
    }
    report.rows.push(row);
}

/// Each row of a report with its energy entry, if any. Energy entries are
/// a label-aligned subsequence of the rows, so a forward pointer recovers
/// them.
fn rows_with_energy(
    report: &SweepReport,
) -> impl Iterator<Item = (&SweepRow, Option<&EnergyStats>)> {
    let mut energy = report.energy.iter().peekable();
    report.rows.iter().map(move |row| {
        let stats = energy.next_if(|(label, _)| *label == row.label);
        (row, stats.map(|(_, stats)| stats))
    })
}

/// Keep the first `keep` rows of a report and their energy entries.
fn truncate_rows(report: &mut SweepReport, keep: usize) {
    let energy_kept = rows_with_energy(report)
        .take(keep)
        .filter(|(_, energy)| energy.is_some())
        .count();
    report.rows.truncate(keep);
    report.energy.truncate(energy_kept);
}

/// The one summary fold: weighted running sums in plan order. With every
/// weight at one it performs exactly the operations of a plain unweighted
/// fold. Denominators are the weight absorbed so far, so a partial fold (a
/// suspended job) summarizes what it saw, and a complete sampled fold
/// divides by the full grid population its weights cover.
#[derive(Debug)]
struct SummaryFold {
    weight: usize,
    satisfaction_sum: f64,
    satisfaction_min: f64,
    latency_sum: f64,
    energy_weight: usize,
    energy_total_j: f64,
    energy_watts_sum: f64,
}

impl Default for SummaryFold {
    fn default() -> Self {
        SummaryFold {
            weight: 0,
            satisfaction_sum: 0.0,
            satisfaction_min: f64::MAX,
            latency_sum: 0.0,
            energy_weight: 0,
            energy_total_j: 0.0,
            energy_watts_sum: 0.0,
        }
    }
}

impl SummaryFold {
    /// Fold one scenario's summary contribution, standing for `weight`
    /// scenarios of the grid.
    fn absorb(
        &mut self,
        weight: usize,
        satisfaction: f64,
        mean_latency_ns: f64,
        energy: Option<&EnergyStats>,
    ) {
        let w = weight as f64;
        self.weight += weight;
        self.satisfaction_sum += w * satisfaction;
        self.satisfaction_min = self.satisfaction_min.min(satisfaction);
        self.latency_sum += w * mean_latency_ns;
        if let Some(energy) = energy {
            self.energy_weight += weight;
            self.energy_total_j += w * energy.total_joules();
            self.energy_watts_sum += w * energy.watts();
        }
    }

    /// Re-fold a shard's rows, the first of which is plan position
    /// `start`. Row metrics round-trip bit-exactly through the shard JSON
    /// and weights come from the (deterministically rebuilt) plan, so this
    /// is the operation sequence the live run used.
    fn absorb_rows(
        &mut self,
        plan: &ClusterPlan,
        start: usize,
        shard: &SweepReport,
    ) -> Result<(), String> {
        for (pos, (row, energy)) in (start..).zip(rows_with_energy(shard)) {
            let metric = |name: &str| {
                row.metric(name)
                    .ok_or_else(|| format!("shard {} row {} lacks {name}", shard.name, row.label))
            };
            if pos >= plan.evaluated() {
                return Err(format!("shard {} has more rows than the plan", shard.name));
            }
            let weight = plan.entry(pos).1;
            self.absorb(
                weight,
                metric("satisfaction")?,
                metric("mean_latency_ns")?,
                energy,
            );
        }
        Ok(())
    }

    fn finish(self, report: &mut SweepReport, fabrics_built: usize) {
        if self.weight == 0 {
            return;
        }
        let n = self.weight as f64;
        report.summary = vec![
            ("scenarios".to_string(), n),
            ("fabrics_built".to_string(), fabrics_built as f64),
            ("mean_satisfaction".to_string(), self.satisfaction_sum / n),
            ("min_satisfaction".to_string(), self.satisfaction_min),
            ("mean_latency_ns".to_string(), self.latency_sum / n),
        ];
        if self.energy_weight > 0 {
            report
                .summary
                .push(("total_energy_j".to_string(), self.energy_total_j));
            report.summary.push((
                "mean_power_w".to_string(),
                self.energy_watts_sum / self.energy_weight as f64,
            ));
        }
    }
}

/// The one shard merge: concatenate shards (in shard order, a prefix of
/// the plan) into one report and re-fold the summary from their rows, so
/// a merged report is byte-identical to an uninterrupted run of the same
/// plan whether its shards came from execution, from disk, or a mix.
/// `fabrics_built` comes from the grid's hardware axes, so a merge of
/// fully cached shards needs no fabric.
pub(crate) fn merge_shards(
    grid: &SweepGrid,
    plan: &ClusterPlan,
    shards: &[SweepReport],
) -> Result<SweepReport, String> {
    let mut merged = SweepReport::new(grid.name.clone());
    let mut fold = SummaryFold::default();
    for shard in shards {
        fold.absorb_rows(plan, merged.rows.len(), shard)?;
        merged.rows.extend(shard.rows.iter().cloned());
        merged.energy.extend(shard.energy.iter().cloned());
    }
    fold.finish(&mut merged, grid.distinct_fabric_count());
    Ok(merged)
}

/// Memoized fabric constructions: scenarios that share a topology share one
/// built [`RackFabric`] behind an `Arc`, handed to worker threads by
/// reference — never rebuilt or cloned per scenario, and independent of
/// how many scenarios the load/latency/replicate axes multiply onto each
/// topology.
pub(crate) struct FabricCache {
    fabrics: HashMap<FabricKey, Arc<RackFabric>>,
}

type FabricKey = (FabricKind, u32, u32, u32, u64);

fn fabric_key(config: &RackFabricConfig) -> FabricKey {
    (
        config.kind,
        config.mcm_count,
        config.fibers_per_mcm,
        config.wavelengths_per_fiber,
        config.gbps_per_wavelength.to_bits(),
    )
}

impl FabricCache {
    /// Build every distinct topology the grid's hardware axes (fabric kind,
    /// rack size, fibers, wavelengths, data rate, FEC derating) can
    /// produce, in parallel. Two FEC configs with the same bandwidth
    /// overhead derate to the same wavelength rate and share a fabric.
    pub(crate) fn from_grid(grid: &SweepGrid) -> Self {
        let unique = unique_fabric_configs(grid);
        let built = parallel_map(&unique, |(_, config)| Arc::new(RackFabric::new(*config)));
        FabricCache {
            fabrics: unique.into_iter().map(|(k, _)| k).zip(built).collect(),
        }
    }

    fn get(&self, config: &RackFabricConfig) -> &RackFabric {
        &self.fabrics[&fabric_key(config)]
    }

    pub(crate) fn len(&self) -> usize {
        self.fabrics.len()
    }
}

/// The distinct topologies the grid's hardware axes produce, in
/// first-encounter order.
fn unique_fabric_configs(grid: &SweepGrid) -> Vec<(FabricKey, RackFabricConfig)> {
    let mut seen: HashSet<FabricKey> = HashSet::new();
    let mut unique: Vec<(FabricKey, RackFabricConfig)> = Vec::new();
    for &kind in &grid.fabric_kinds {
        for &mcm_count in &grid.mcm_counts {
            for &fibers_per_mcm in &grid.fibers_per_mcm {
                for &wavelengths_per_fiber in &grid.wavelengths_per_fiber {
                    for &gbps in &grid.gbps_per_wavelength {
                        for fec in &grid.fec_configs {
                            let config = RackFabricConfig {
                                mcm_count,
                                fibers_per_mcm,
                                wavelengths_per_fiber,
                                gbps_per_wavelength: gbps * (1.0 - fec.bandwidth_overhead),
                                kind,
                            };
                            let key = fabric_key(&config);
                            if seen.insert(key) {
                                unique.push((key, config));
                            }
                        }
                    }
                }
            }
        }
    }
    unique
}

/// The physical solve key of one scenario: every input that reaches the
/// flow/timeline/flex-grid solver, and nothing that doesn't. Two scenarios
/// with equal keys perform byte-identical solves; axes that only change how
/// the solve is *accounted* — the energy mode, and FEC fields other than
/// the bandwidth derating already folded into the fabric's wavelength rate
/// — are deliberately absent, so an `[always, util]` energy grid dedups
/// 2:1 by construction.
type PhysicalKey = (u8, String, FabricKey, u64, u64);

fn physical_key(scenario: &Scenario) -> PhysicalKey {
    let (kind, load) = scenario.load.solve_key();
    (
        kind,
        load,
        fabric_key(&scenario.fabric),
        scenario.direct_latency_ns.to_bits(),
        scenario.seed,
    )
}

/// Running reuse accounting across batches (and, in the jobs layer, across
/// executed shards). Finalized into a [`ReuseStats`] block on the report.
#[derive(Debug, Default)]
pub(crate) struct ReuseAccum {
    groups: usize,
    leaders_solved: usize,
    followers_replayed: usize,
    matrices_reused: usize,
    solver_s_saved: f64,
}

impl ReuseAccum {
    pub(crate) fn new() -> Self {
        ReuseAccum::default()
    }

    pub(crate) fn stats(&self) -> ReuseStats {
        ReuseStats {
            groups: self.groups,
            leaders_solved: self.leaders_solved,
            followers_replayed: self.followers_replayed,
            matrices_reused: self.matrices_reused,
            solver_s_saved: self.solver_s_saved,
        }
    }
}

/// The compact digest of a solved scenario's report that energy replay
/// needs: exactly the aggregate fields `EnergyModel::account*` read. A few
/// dozen bytes per leader, so retaining one per distinct solve in a batch
/// is free. Static flow solves fold their aggregates in one pass
/// (`FlowSimulator::run_each_in` with a no-op sink) and never build the
/// per-flow allocation vector, which would run to megabytes on the
/// 350-MCM all-to-all case; the digest copies two fields of that folded
/// report.
#[derive(Debug, Clone, Copy)]
enum RetainedReport {
    Flow {
        direct_gbps: f64,
        indirect_gbps: f64,
    },
    Timeline {
        epochs: usize,
        reconfigurations: usize,
        direct_gbps: f64,
        indirect_gbps: f64,
    },
    FlexGrid {
        epochs: usize,
        defrag_events: usize,
        carried_direct_gbps: f64,
        carried_indirect_gbps: f64,
        wire_weighted_gbps: f64,
    },
}

/// One leader's solve: the finished result, the retained report digest for
/// follower replay, and the measured solve time (what each follower is
/// credited as saved).
struct SolvedScenario {
    result: ScenarioResult,
    retained: RetainedReport,
    solve_s: f64,
}

/// Account a scenario's energy from its solve's retained digest: the one
/// accounting path for leaders and the followers replaying them, so a
/// follower's stats are bit-identical to solving it.
fn account_retained(
    retained: &RetainedReport,
    scenario: &Scenario,
    energy_config: &EnergyConfig,
) -> Option<EnergyStats> {
    let mode = scenario.energy_mode?;
    let model = EnergyModel::new(mode, *energy_config, &scenario.fabric, &scenario.fec);
    Some(match *retained {
        RetainedReport::Flow {
            direct_gbps,
            indirect_gbps,
        } => model.account(1, 0, direct_gbps, indirect_gbps),
        RetainedReport::Timeline {
            epochs,
            reconfigurations,
            direct_gbps,
            indirect_gbps,
        } => model.account(epochs, reconfigurations, direct_gbps, indirect_gbps),
        RetainedReport::FlexGrid {
            epochs,
            defrag_events,
            carried_direct_gbps,
            carried_indirect_gbps,
            wire_weighted_gbps,
        } => model.account_flexgrid_parts(
            epochs,
            defrag_events,
            carried_direct_gbps,
            carried_indirect_gbps,
            wire_weighted_gbps,
        ),
    })
}

/// Materialize a follower's result from its group leader's solve: clone the
/// result, swap in the follower's own scenario (label, params, energy mode,
/// FEC), and re-account energy from the retained digest under the
/// follower's scenario. Bit-identical to solving the follower, because the
/// solver never sees the axes the physical key factored out and energy
/// accounting is a pure function of the digest.
fn replay_scenario(
    leader: &SolvedScenario,
    scenario: &Scenario,
    energy_config: &EnergyConfig,
) -> ScenarioResult {
    let mut result = leader.result.clone();
    result.scenario = scenario.clone();
    result.energy = account_retained(&leader.retained, scenario, energy_config);
    result
}

/// Whether a batch position solves for real or replays a leader's solve.
enum Role {
    /// Solve slot `i` of the leader list.
    Leader(usize),
    /// Replay the solve in leader slot `i`.
    Follower(usize),
}

/// Execute one batch of scenarios through the reuse layer, returning
/// results in batch order.
///
/// With `reuse` on, the batch is first *dedup-planned*: scenarios are
/// grouped by [`PhysicalKey`], the first member of each group (in batch
/// order) becomes its leader, and only leaders are dispatched to the
/// solver. Followers are then materialized by [`replay_scenario`]. The
/// plan is a pure function of the batch contents — no concurrent memo
/// cache — so results are thread-count- and axis-reorder-invariant by
/// construction, and byte-identical to `reuse: false`.
fn execute_batch(
    batch: &[Scenario],
    cache: &FabricCache,
    indirect_hop_ns: f64,
    energy_config: &EnergyConfig,
    reuse: bool,
    accum: &mut ReuseAccum,
) -> Vec<ScenarioResult> {
    let solve = |scratch: &mut WorkerScratch, s: &Scenario| {
        solve_scenario(s, cache, indirect_hop_ns, energy_config, reuse, scratch)
    };
    if !reuse {
        return parallel_map_with(batch, WorkerScratch::new, |scratch, s| {
            solve(scratch, s).result
        });
    }

    // Dedup plan: first occurrence of each physical key leads its group.
    let mut plan: HashMap<PhysicalKey, usize> = HashMap::with_capacity(batch.len());
    let mut roles: Vec<Role> = Vec::with_capacity(batch.len());
    let mut leaders: Vec<&Scenario> = Vec::new();
    let mut follower_counts: Vec<usize> = Vec::new();
    for scenario in batch {
        match plan.entry(physical_key(scenario)) {
            Entry::Occupied(slot) => {
                let slot = *slot.get();
                follower_counts[slot] += 1;
                roles.push(Role::Follower(slot));
            }
            Entry::Vacant(v) => {
                let slot = leaders.len();
                v.insert(slot);
                leaders.push(scenario);
                follower_counts.push(0);
                roles.push(Role::Leader(slot));
            }
        }
    }

    let solved: Vec<SolvedScenario> =
        parallel_map_with(&leaders, WorkerScratch::new, |scratch, s| solve(scratch, s));

    accum.leaders_solved += leaders.len();
    accum.followers_replayed += batch.len() - leaders.len();
    accum.groups += follower_counts.iter().filter(|&&c| c > 0).count();
    for (slot, &count) in follower_counts.iter().enumerate() {
        if count > 0 {
            accum.solver_s_saved += solved[slot].solve_s * count as f64;
        }
    }
    // Demand reuse is counted from the plan, not from memo hits, which
    // depend on which worker happens to solve which leader.
    let mut demands: HashSet<(bool, MemoKey)> = HashSet::with_capacity(leaders.len());
    accum.matrices_reused += leaders
        .iter()
        .filter(|s| !demands.insert(demand_key(s)))
        .count();

    let mut solved: Vec<Option<SolvedScenario>> = solved.into_iter().map(Some).collect();
    roles
        .iter()
        .zip(batch)
        .map(|(role, scenario)| match role {
            // A leader with no followers can move its result out; one with
            // followers is cloned (replays read it after emission, since
            // the leader is always the group's first batch position).
            Role::Leader(slot) if follower_counts[*slot] == 0 => {
                solved[*slot].take().expect("leader solved once").result
            }
            Role::Leader(slot) => solved[*slot]
                .as_ref()
                .expect("leader solved once")
                .result
                .clone(),
            Role::Follower(slot) => replay_scenario(
                solved[*slot].as_ref().expect("leader precedes follower"),
                scenario,
                energy_config,
            ),
        })
        .collect()
}

/// Solve one scenario for real: expand (or memo-fetch) its demand, run the
/// matching simulator, and package the result with the retained digest and
/// measured solve time.
fn solve_scenario(
    scenario: &Scenario,
    cache: &FabricCache,
    indirect_hop_ns: f64,
    energy_config: &EnergyConfig,
    memo: bool,
    scratch: &mut WorkerScratch,
) -> SolvedScenario {
    let started = std::time::Instant::now();
    let fabric = cache.get(&scenario.fabric);
    let flow_config = FlowSimConfig {
        direct_latency_ns: scenario.direct_latency_ns,
        indirect_hop_latency_ns: indirect_hop_ns,
        // Decorrelate the Valiant intermediate choice from the traffic
        // generator while staying a pure function of the scenario seed.
        seed: scenario.seed ^ 0x9E37_79B9_7F4A_7C15,
    };
    match &scenario.load {
        ScenarioLoad::Pattern(pattern) => {
            let flows = scratch.flows(pattern, scenario.fabric.mcm_count, scenario.seed, memo);
            // The engine reads only the aggregates: a no-op sink, so the
            // per-flow allocation vector is never built.
            let report = FlowSimulator::new(fabric, flow_config).run_each_in(
                &mut scratch.flow,
                &flows,
                |_| {},
            );
            let retained = RetainedReport::Flow {
                direct_gbps: report.fabric_direct_gbps,
                indirect_gbps: report.fabric_indirect_gbps,
            };
            let result = ScenarioResult {
                scenario: scenario.clone(),
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
                energy: account_retained(&retained, scenario, energy_config),
                flexgrid: None,
            };
            SolvedScenario {
                result,
                retained,
                solve_s: started.elapsed().as_secs_f64(),
            }
        }
        ScenarioLoad::Timeline(tc) => {
            let epochs =
                scratch.epochs(&tc.timeline, scenario.fabric.mcm_count, scenario.seed, memo);
            let sim = TimelineSimulator::new(
                fabric,
                TimelineConfig {
                    flow: flow_config,
                    policy: tc.policy,
                },
            );
            let report = sim.run_in(&mut scratch.timeline, &epochs);
            let retained = RetainedReport::Timeline {
                epochs: report.epochs.len(),
                reconfigurations: report.epochs.iter().filter(|e| e.reconfigured).count(),
                direct_gbps: report.fabric_direct_gbps,
                indirect_gbps: report.fabric_indirect_gbps,
            };
            let result = ScenarioResult {
                scenario: scenario.clone(),
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
                energy: account_retained(&retained, scenario, energy_config),
                flexgrid: None,
            };
            scratch.timeline.recycle(report);
            SolvedScenario {
                result,
                retained,
                solve_s: started.elapsed().as_secs_f64(),
            }
        }
        ScenarioLoad::FlexGrid(fc) => {
            // Flex-grid scenarios share their timeline's seed derivation
            // with wavelength-timeline scenarios, so the two layers are
            // graded against the identical epoch-by-epoch demand.
            let epochs =
                scratch.epochs(&fc.timeline, scenario.fabric.mcm_count, scenario.seed, memo);
            let sim = FlexGridSimulator::new(
                fabric,
                FlexGridConfig {
                    policy: fc.policy,
                    ..FlexGridConfig::default()
                },
            );
            let report = sim.run_in(&mut scratch.flexgrid, &epochs);
            let carried = report.carried_gbps();
            // Demand-weighted mean latency: local and direct demand at the
            // direct latency, detoured demand pays one extra hop.
            let mean_latency_ns = if carried > 0.0 {
                ((report.carried_local_gbps + report.carried_direct_gbps)
                    * scenario.direct_latency_ns
                    + report.carried_indirect_gbps * (scenario.direct_latency_ns + indirect_hop_ns))
                    / carried
            } else {
                0.0
            };
            let retained = RetainedReport::FlexGrid {
                epochs: report.epochs.len(),
                defrag_events: report.defrag_events,
                carried_direct_gbps: report.carried_direct_gbps,
                carried_indirect_gbps: report.carried_indirect_gbps,
                wire_weighted_gbps: report.wire_weighted_gbps,
            };
            let result = ScenarioResult {
                scenario: scenario.clone(),
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
                energy: account_retained(&retained, scenario, energy_config),
                flexgrid: Some(FlexGridRowMetrics {
                    blocking_probability: report.blocking_probability(),
                    fragmentation_index: report.mean_fragmentation_index,
                    slots_in_use: report.mean_slots_in_use,
                    defrag_events: report.defrag_events as f64,
                }),
            };
            scratch.flexgrid.recycle(report);
            SolvedScenario {
                result,
                retained,
                solve_s: started.elapsed().as_secs_f64(),
            }
        }
    }
}
