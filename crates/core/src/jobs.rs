//! Checkpointed sweep jobs: the engine behind the `sweepd` daemon.
//!
//! A [`JobSpec`] wraps a [`SweepGrid`] with execution knobs (per-job thread
//! budget, shard size) and parses from the JSON job files `sweepd` accepts.
//! A [`JobRunner`] executes a spec *through an on-disk shard cache*: the
//! job's execution plan — the identity plan over the grid, or the cluster
//! plan of a sampled job (see [`ClusterPlan`]) — is cut into fixed-size
//! shards, each shard is executed at most once ever — its [`SweepReport`]
//! JSON is written to `cache_dir/<grid_hash>/shard<k>.json` the moment it
//! completes — and a rerun of the same grid (after a crash, or a
//! resubmission) replays every cached shard from disk and executes only
//! what is missing. Exact and sampled jobs share one run loop, one merge,
//! and the shard executor that [`SweepGrid::run_sharded`] also uses.
//!
//! Three properties make the cache sound:
//!
//! * **Content addressing.** The cache key is [`SweepGrid::grid_hash`], a
//!   hash of the grid's canonical JSON — any change to any axis lands in a
//!   different cache directory, and equal grids share one no matter how
//!   they were spelled. Jobs that opt into representative-scenario
//!   sampling ([`JobSpec::sample`]) get a *composite* key,
//!   `<grid_hash>-s<sample_hash>`: sampled shards (weighted
//!   representatives) can never collide with exact shards of the same
//!   grid, or with shards sampled under different knobs.
//! * **Bit-exact replay.** Shard JSON round-trips every float exactly
//!   (shortest-round-trip formatting, raw-text parsing), and the merged
//!   summary is re-folded from shard rows, with weights from the
//!   deterministically rebuilt plan, by the same weighted fold a live run
//!   uses — so a merged report is byte-identical to an uninterrupted
//!   [`SweepGrid::run`] (or [`SweepGrid::run_sampled`]), whether its
//!   shards came from execution, from disk, or a mix.
//! * **Atomic checkpoints.** Shards are written to a temp file and
//!   renamed, so a crash mid-write leaves no torn shard — at worst the
//!   interrupted shard is re-executed on restart.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::codec::{self, DecodeError};
use crate::report::SweepReport;
use crate::sample::{ClusterPlan, SampleConfig};
use crate::sweep::exec::{merge_shards, FabricCache, ReuseAccum};
use crate::sweep::{StreamConfig, SweepGrid};

/// A sweep job: a grid plus the execution knobs of the `sweepd` job-file
/// schema. See `docs/OPERATIONS.md` for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The grid to execute. In a job file this is the `grid` object,
    /// parsed by [`SweepGrid::from_json`] — absent axes default to the
    /// paper's design point.
    pub grid: SweepGrid,
    /// Thread budget for this job (`rayon::with_max_threads` scope).
    /// `None` uses the process-wide pool as configured.
    pub threads: Option<usize>,
    /// Scenarios per checkpoint shard. Smaller shards checkpoint more
    /// often (finer crash-resume granularity) at the cost of more files.
    pub rows_per_shard: usize,
    /// Scenarios decoded and executed per parallel batch within a shard.
    pub batch_size: usize,
    /// Representative-scenario sampling knobs (`sample` object in the job
    /// file). `None` — the default — runs the grid exhaustively. When set,
    /// the job simulates one weighted representative per cluster and
    /// reconstructs the full-grid summary (see
    /// [`SweepGrid::run_sampled`]); its shards live under the composite
    /// cache key [`JobSpec::cache_key`].
    pub sample: Option<SampleConfig>,
    /// Cross-scenario computation reuse (`reuse` field in the job file,
    /// default `true`): dedup-planned solving plus demand-matrix
    /// memoization within each batch. Reuse is byte-exact — the merged
    /// report is identical either way — so the knob is deliberately
    /// *excluded* from [`JobSpec::cache_key`]: reuse-on and reuse-off runs
    /// of the same grid share one shard cache.
    pub reuse: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            grid: SweepGrid::default(),
            threads: None,
            rows_per_shard: 256,
            batch_size: StreamConfig::default().batch_size,
            sample: None,
            reuse: true,
        }
    }
}

impl JobSpec {
    /// A default-knobs job over a grid.
    pub fn new(grid: SweepGrid) -> Self {
        JobSpec {
            grid,
            ..JobSpec::default()
        }
    }

    /// Parse a job file. Only `grid` is required; `threads`,
    /// `rows_per_shard`, and `batch_size` default as in
    /// [`JobSpec::default`]. Unknown fields are rejected.
    ///
    /// ```
    /// use disagg_core::jobs::JobSpec;
    ///
    /// let spec = JobSpec::from_json(
    ///     r#"{"grid":{"mcm_counts":[16],"replicates":2},"rows_per_shard":3}"#,
    /// )
    /// .unwrap();
    /// assert_eq!(spec.grid.scenario_count(), 2);
    /// assert_eq!(spec.rows_per_shard, 3);
    /// assert_eq!(spec.threads, None);
    /// assert!(JobSpec::from_json(r#"{"grid":{},"shards":9}"#).is_err());
    /// ```
    pub fn from_json(text: &str) -> Result<Self, DecodeError> {
        let doc = codec::json::parse(text).map_err(|e| format!("job: {e}"))?;
        let mut spec = JobSpec::default();
        let mut saw_grid = false;
        for (key, value) in codec::as_object(&doc, "job")? {
            let ctx = format!("job.{key}");
            match key.as_str() {
                "grid" => {
                    spec.grid = SweepGrid::from_json_value(value)?;
                    saw_grid = true;
                }
                "threads" => spec.threads = Some(codec::as_usize(value, &ctx)?.max(1)),
                "rows_per_shard" => spec.rows_per_shard = codec::as_usize(value, &ctx)?.max(1),
                "batch_size" => spec.batch_size = codec::as_usize(value, &ctx)?.max(1),
                "sample" => spec.sample = Some(SampleConfig::from_json_value(value, &ctx)?),
                "reuse" => spec.reuse = codec::as_bool(value, &ctx)?,
                _ => return Err(format!("job: unknown field {key:?}")),
            }
        }
        if !saw_grid {
            return Err("job: missing field \"grid\"".to_string());
        }
        Ok(spec)
    }

    /// Serialize the spec back to the job-file schema (round-trips through
    /// [`JobSpec::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"grid\":");
        out.push_str(&self.grid.to_json());
        if let Some(threads) = self.threads {
            out.push_str(&format!(",\"threads\":{threads}"));
        }
        out.push_str(&format!(
            ",\"rows_per_shard\":{},\"batch_size\":{}",
            self.rows_per_shard, self.batch_size
        ));
        if let Some(sample) = &self.sample {
            out.push_str(",\"sample\":");
            out.push_str(&sample.to_json());
        }
        if !self.reuse {
            out.push_str(",\"reuse\":false");
        }
        out.push('}');
        out
    }

    /// Number of checkpoint shards the job's *exhaustive* grid cuts into.
    /// A sampled job shards the (smaller) representative list instead;
    /// [`JobOutcome::shards_total`] reports the count actually used.
    pub fn shard_count(&self) -> usize {
        self.grid
            .scenario_count()
            .div_ceil(self.rows_per_shard.max(1))
    }

    /// The job's shard-cache key: the grid's content hash, extended with
    /// the sample-config hash when the job samples. Exact and sampled runs
    /// of the same grid — and sampled runs under different knobs — always
    /// cache under different keys.
    ///
    /// ```
    /// use disagg_core::jobs::JobSpec;
    /// use disagg_core::sample::SampleConfig;
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let mut spec = JobSpec::new(SweepGrid::named("k").mcm_counts([16]));
    /// let exact = spec.cache_key();
    /// assert_eq!(exact, spec.grid.grid_hash());
    /// spec.sample = Some(SampleConfig::with_clusters(8));
    /// assert!(spec.cache_key().starts_with(&format!("{exact}-s")));
    /// ```
    pub fn cache_key(&self) -> String {
        match &self.sample {
            None => self.grid.grid_hash(),
            Some(sample) => format!("{}-s{}", self.grid.grid_hash(), sample.sample_hash()),
        }
    }
}

/// What a [`JobRunner`] run did and produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The merged report: byte-identical (`to_json`) to an uninterrupted
    /// [`SweepGrid::run`] of the same grid when the job ran to completion
    /// (to an uninterrupted [`SweepGrid::run_sampled`] for sampled jobs).
    pub report: SweepReport,
    /// The job's cache key ([`JobSpec::cache_key`]) — the shard cache
    /// directory name.
    pub grid_hash: String,
    /// Total shards the grid cuts into.
    pub shards_total: usize,
    /// Shards replayed from the on-disk cache.
    pub shards_from_cache: usize,
    /// Shards executed fresh this run.
    pub shards_executed: usize,
    /// Scenarios evaluated fresh this run (zero on a full cache hit).
    pub scenarios_executed: usize,
    /// True when the run stopped early (fresh-shard limit reached): the
    /// report covers only the shards processed so far, and a rerun will
    /// resume from the first missing shard. Its summary folds exactly the
    /// rows (and, for sampled jobs, the weights) those shards hold.
    pub suspended: bool,
}

/// A job-execution failure: cache I/O or a corrupt input, with context.
pub type JobError = String;

/// Executes [`JobSpec`]s through an on-disk shard cache rooted at a cache
/// directory (see the module docs for the layout and guarantees).
#[derive(Debug, Clone)]
pub struct JobRunner {
    cache_dir: PathBuf,
}

impl JobRunner {
    /// A runner over a cache directory (created on first use).
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        JobRunner {
            cache_dir: cache_dir.into(),
        }
    }

    /// The shard-cache directory of a grid (exists only once a shard of
    /// that grid has been checkpointed).
    pub fn grid_dir(&self, grid: &SweepGrid) -> PathBuf {
        self.cache_dir.join(grid.grid_hash())
    }

    /// Run a job to completion: replay every cached shard, execute the
    /// missing ones (checkpointing each as it completes), and merge.
    ///
    /// ```
    /// use disagg_core::jobs::{JobRunner, JobSpec};
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let dir = std::env::temp_dir().join(format!("pd-jobs-doc-{}", std::process::id()));
    /// let grid = SweepGrid::named("doc").mcm_counts([16]).replicates(4);
    /// let mut spec = JobSpec::new(grid.clone());
    /// spec.rows_per_shard = 3;
    ///
    /// let runner = JobRunner::new(&dir);
    /// let first = runner.run(&spec).unwrap();
    /// assert_eq!(first.shards_executed, 2);
    /// assert_eq!(first.report.to_json(), grid.run().to_json());
    ///
    /// // Resubmission of the same grid: served entirely from the cache.
    /// let again = runner.run(&spec).unwrap();
    /// assert_eq!(again.scenarios_executed, 0);
    /// assert_eq!(again.report.to_json(), first.report.to_json());
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn run(&self, spec: &JobSpec) -> Result<JobOutcome, JobError> {
        self.run_with_limit(spec, None)
    }

    /// [`JobRunner::run`] with a cap on *fresh* shard executions: the run
    /// suspends (rather than executes) once `max_fresh_shards` shards have
    /// been executed this call. Cached shards never count against the
    /// limit. This is the crash-injection hook — `sweepd --max-shards`
    /// uses it to prove kill-and-restart resume — and doubles as a
    /// cooperative time-slicing primitive.
    pub fn run_with_limit(
        &self,
        spec: &JobSpec,
        max_fresh_shards: Option<usize>,
    ) -> Result<JobOutcome, JobError> {
        match spec.threads {
            Some(budget) => {
                rayon::with_max_threads(budget, || self.run_inner(spec, max_fresh_shards))
            }
            None => self.run_inner(spec, max_fresh_shards),
        }
    }

    /// The one run loop. The job's plan — the identity plan, or the
    /// cluster plan of a sampled job — is cut into `rows_per_shard`
    /// shards; each is replayed from disk when cached and executed (then
    /// checkpointed) otherwise, and the merge re-folds the summary over
    /// the same plan. A degenerate sampled plan is the identity plan, still
    /// under the sampled cache key, so exact jobs never see its shards.
    fn run_inner(
        &self,
        spec: &JobSpec,
        max_fresh_shards: Option<usize>,
    ) -> Result<JobOutcome, JobError> {
        let grid = &spec.grid;
        let plan = match &spec.sample {
            Some(sample) => ClusterPlan::build(grid, sample),
            None => ClusterPlan::exact(grid.scenario_count()),
        };
        let config = StreamConfig {
            batch_size: spec.batch_size,
            row_cap: None,
            reuse: spec.reuse,
        };
        let grid_hash = spec.cache_key();
        let grid_dir = self.cache_dir.join(&grid_hash);
        let per_shard = spec.rows_per_shard.max(1);
        let shards_total = plan.evaluated().div_ceil(per_shard);

        let mut shards: Vec<SweepReport> = Vec::with_capacity(shards_total);
        let mut shards_from_cache = 0usize;
        let mut shards_executed = 0usize;
        let mut scenarios_executed = 0usize;
        let mut suspended = false;
        // Fabrics are built lazily on the first shard that actually
        // executes: a fully cached job performs zero fabric constructions
        // (and zero scenario evaluations).
        let mut fabric_cache: Option<FabricCache> = None;
        let mut accum = ReuseAccum::new();

        for k in 0..shards_total {
            let start = k * per_shard;
            let end = plan.evaluated().min(start + per_shard);
            let path = grid_dir.join(format!("shard{k}.json"));
            if let Some(cached) = load_cached_shard(&path, end - start) {
                shards.push(cached);
                shards_from_cache += 1;
                continue;
            }
            if max_fresh_shards.is_some_and(|max| shards_executed >= max) {
                suspended = true;
                break;
            }
            let cache = fabric_cache.get_or_insert_with(|| FabricCache::from_grid(grid));
            let shard = grid.execute_shard(&plan, cache, &config, k, start..end, &mut accum);
            write_shard(&grid_dir, &path, &shard)?;
            scenarios_executed += shard.rows.len();
            shards_executed += 1;
            shards.push(shard);
        }

        let mut report = merge_shards(grid, &plan, &shards).map_err(|e| format!("jobs: {e}"))?;
        if let Some(sample) = &spec.sample {
            report.sampling = Some(plan.stats(sample, &report.summary));
        }
        report.reuse = spec.reuse.then(|| accum.stats());
        Ok(JobOutcome {
            report,
            grid_hash,
            shards_total,
            shards_from_cache,
            shards_executed,
            scenarios_executed,
            suspended,
        })
    }
}

/// A cached shard, if present and intact. Any failure — unreadable file,
/// malformed JSON, wrong row count — falls back to `None`, and the shard
/// is re-executed and overwritten; a damaged cache costs time, never
/// correctness.
fn load_cached_shard(path: &Path, expected_rows: usize) -> Option<SweepReport> {
    let text = fs::read_to_string(path).ok()?;
    let report = SweepReport::from_json(&text).ok()?;
    (report.rows.len() == expected_rows).then_some(report)
}

/// Checkpoint a completed shard atomically: write to a temp file in the
/// same directory, then rename over the final path.
fn write_shard(grid_dir: &Path, path: &Path, shard: &SweepReport) -> Result<(), JobError> {
    fs::create_dir_all(grid_dir)
        .map_err(|e| format!("jobs: create {}: {e}", grid_dir.display()))?;
    let tmp = path.with_extension("json.tmp");
    let mut file =
        fs::File::create(&tmp).map_err(|e| format!("jobs: create {}: {e}", tmp.display()))?;
    file.write_all(shard.to_json().as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("jobs: write {}: {e}", tmp.display()))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| format!("jobs: rename to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyMode;
    use workloads::TrafficPattern;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pd-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn job() -> JobSpec {
        let grid = SweepGrid::named("job")
            .mcm_counts([16, 24])
            .patterns([
                TrafficPattern::Permutation { demand_gbps: 200.0 },
                TrafficPattern::Uniform {
                    flows_per_mcm: 2,
                    demand_gbps: 150.0,
                },
            ])
            .energy_modes([EnergyMode::UtilizationScaled])
            .replicates(4); // 16 scenarios
        let mut spec = JobSpec::new(grid);
        spec.rows_per_shard = 3; // 6 shards, last one short
        spec
    }

    #[test]
    fn job_run_is_byte_identical_to_uninterrupted_run() {
        let dir = temp_dir("full");
        let spec = job();
        let reference = spec.grid.run();
        let outcome = JobRunner::new(&dir).run(&spec).expect("job runs");
        assert_eq!(outcome.report.to_json(), reference.to_json());
        assert_eq!(outcome.shards_total, 6);
        assert_eq!(outcome.shards_executed, 6);
        assert_eq!(outcome.shards_from_cache, 0);
        assert_eq!(outcome.scenarios_executed, 16);
        assert!(!outcome.suspended);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_and_restarted_job_resumes_and_merges_byte_identically() {
        let dir = temp_dir("resume");
        let spec = job();
        let runner = JobRunner::new(&dir);
        // "Crash" after 2 of 6 shards.
        let partial = runner.run_with_limit(&spec, Some(2)).expect("partial run");
        assert!(partial.suspended);
        assert_eq!(partial.shards_executed, 2);
        assert_eq!(partial.report.rows.len(), 6);
        // Restart: the two checkpointed shards replay from disk, the rest
        // execute, and the merged report matches an uninterrupted run
        // byte for byte.
        let resumed = runner.run(&spec).expect("resumed run");
        assert_eq!(resumed.shards_from_cache, 2);
        assert_eq!(resumed.shards_executed, 4);
        assert!(!resumed.suspended);
        assert_eq!(resumed.report.to_json(), spec.grid.run().to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resubmitted_grid_is_served_entirely_from_cache() {
        let dir = temp_dir("cache");
        let spec = job();
        let runner = JobRunner::new(&dir);
        let first = runner.run(&spec).expect("first run");
        let again = runner.run(&spec).expect("cached run");
        assert_eq!(again.shards_from_cache, 6);
        assert_eq!(again.shards_executed, 0);
        assert_eq!(again.scenarios_executed, 0, "zero evaluations on cache hit");
        assert_eq!(again.report.to_json(), first.report.to_json());
        // A different grid misses the cache entirely.
        let mut other = spec.clone();
        other.grid = other.grid.replicates(3);
        let fresh = runner.run(&other).expect("other grid");
        assert_ne!(fresh.grid_hash, first.grid_hash);
        assert_eq!(fresh.shards_from_cache, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cached_shard_is_reexecuted_and_overwritten() {
        let dir = temp_dir("corrupt");
        let spec = job();
        let runner = JobRunner::new(&dir);
        runner.run(&spec).expect("first run");
        let shard0 = runner.grid_dir(&spec.grid).join("shard0.json");
        fs::write(&shard0, "{\"torn\":").unwrap();
        let healed = runner.run(&spec).expect("healing run");
        assert_eq!(healed.shards_executed, 1);
        assert_eq!(healed.shards_from_cache, 5);
        assert_eq!(healed.report.to_json(), spec.grid.run().to_json());
        // The overwritten checkpoint is intact again.
        assert!(SweepReport::from_json(&fs::read_to_string(&shard0).unwrap()).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_json_round_trips_and_rejects_unknowns() {
        let mut spec = job();
        spec.threads = Some(2);
        spec.sample = Some(SampleConfig::with_clusters(7));
        let parsed = JobSpec::from_json(&spec.to_json()).expect("parses");
        assert_eq!(parsed, spec);
        assert!(JobSpec::from_json("{}").unwrap_err().contains("grid"));
        assert!(JobSpec::from_json(r#"{"grid":{},"shard_size":4}"#).is_err());
        assert!(JobSpec::from_json(r#"{"grid":{},"sample":{"k":4}}"#).is_err());
    }

    #[test]
    fn sampled_job_is_byte_identical_to_run_sampled() {
        let dir = temp_dir("sampled");
        let mut spec = job();
        let sample = SampleConfig::with_clusters(4);
        spec.sample = Some(sample.clone());
        spec.rows_per_shard = 2;
        let reference = spec.grid.run_sampled(&sample);
        let runner = JobRunner::new(&dir);
        let outcome = runner.run(&spec).expect("sampled job runs");
        assert_eq!(outcome.report.to_json(), reference.to_json());
        assert_eq!(
            outcome.scenarios_executed,
            reference.sampling.as_ref().unwrap().evaluated
        );
        assert!(
            outcome.shards_total < spec.shard_count(),
            "fewer shards than exact"
        );
        // Resubmission: fully cached, still byte-identical.
        let again = runner.run(&spec).expect("cached sampled job");
        assert_eq!(again.scenarios_executed, 0);
        assert_eq!(again.report.to_json(), reference.to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_and_exact_jobs_never_share_cache() {
        let dir = temp_dir("isolated");
        let exact = job();
        let mut sampled = job();
        sampled.sample = Some(SampleConfig::with_clusters(4));
        assert_ne!(exact.cache_key(), sampled.cache_key());
        let runner = JobRunner::new(&dir);
        runner.run(&sampled).expect("sampled job");
        // The exact job finds nothing reusable in the sampled cache.
        let outcome = runner.run(&exact).expect("exact job");
        assert_eq!(outcome.shards_from_cache, 0);
        assert_eq!(outcome.report.to_json(), exact.grid.run().to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degenerate_sampled_job_runs_exact_under_the_sampled_key() {
        let dir = temp_dir("degenerate");
        let mut spec = job();
        // Budget covers the 16-scenario grid: the plan degenerates.
        spec.sample = Some(SampleConfig::with_clusters(64));
        let runner = JobRunner::new(&dir);
        let outcome = runner.run(&spec).expect("degenerate sampled job");
        assert_eq!(outcome.grid_hash, spec.cache_key());
        assert_eq!(outcome.report.to_json(), spec.grid.run().to_json());
        assert!(outcome.report.sampling.as_ref().unwrap().exact);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suspended_sampled_job_summarizes_the_rows_it_holds() {
        let dir = temp_dir("sampled-partial");
        let mut spec = job();
        spec.sample = Some(SampleConfig::with_clusters(4));
        spec.rows_per_shard = 1;
        let partial = JobRunner::new(&dir)
            .run_with_limit(&spec, Some(1))
            .expect("partial sampled run");
        assert!(partial.suspended);
        let report = &partial.report;
        assert!(!report.rows.is_empty());
        let mut weight = 0usize;
        let mut satisfaction_sum = 0.0;
        for row in &report.rows {
            let (_, w) = row
                .params
                .iter()
                .find(|(key, _)| key == "cluster_weight")
                .expect("sampled rows carry their weight");
            let w: usize = w.parse().unwrap();
            weight += w;
            satisfaction_sum += w as f64 * row.metric("satisfaction").unwrap();
        }
        assert_eq!(report.summary_metric("scenarios"), Some(weight as f64));
        assert_eq!(
            report.summary_metric("mean_satisfaction"),
            Some(satisfaction_sum / weight as f64)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_batch_size_finishes_with_unchanged_bytes() {
        let dir = temp_dir("batch0");
        let mut spec = job();
        spec.batch_size = 0;
        let runner = JobRunner::new(&dir);
        let exact = runner.run(&spec).expect("exact job with batch_size 0");
        assert_eq!(exact.report.to_json(), spec.grid.run().to_json());
        let sample = SampleConfig::with_clusters(4);
        spec.sample = Some(sample.clone());
        let sampled = runner.run(&spec).expect("sampled job with batch_size 0");
        assert_eq!(
            sampled.report.to_json(),
            spec.grid.run_sampled(&sample).to_json()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn thread_budget_does_not_change_bytes() {
        let dir = temp_dir("threads");
        let mut spec = job();
        spec.threads = Some(1);
        let single = JobRunner::new(&dir).run(&spec).expect("1-thread run");
        assert_eq!(single.report.to_json(), spec.grid.run().to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_grid_yields_empty_report_and_no_shards() {
        let dir = temp_dir("empty");
        let mut spec = job();
        spec.grid = spec.grid.patterns([]);
        let outcome = JobRunner::new(&dir).run(&spec).expect("empty job");
        assert_eq!(outcome.shards_total, 0);
        assert!(outcome.report.rows.is_empty());
        assert!(outcome.report.summary.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
