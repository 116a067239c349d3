//! # cpusim
//!
//! A trace-driven CPU timing simulator used as the substrate for the paper's
//! CPU evaluation (Section VI-B). The authors used gem5 full-system
//! simulation of x86 cores running PARSEC, NAS, and Rodinia; this crate
//! provides the equivalent *mechanism* — a cache hierarchy in front of a
//! latency-configurable main memory, driven by memory-access traces, timed
//! with either an in-order or an out-of-order core model — so that the
//! paper's experiments (added 25/30/35/85 ns of LLC-to-memory latency) can be
//! reproduced end to end.
//!
//! Design:
//!
//! * [`trace`] — memory access traces: interleaved compute and memory
//!   records, produced by the `workloads` crate's synthetic kernels.
//! * [`cache`] — a set-associative, write-back, write-allocate cache with LRU
//!   replacement.
//! * [`hierarchy`] — a three-level hierarchy (L1D, L2, LLC) in front of DRAM,
//!   with an additive "disaggregation latency" knob between the LLC and
//!   memory, exactly where the paper adds its photonic/electronic latency.
//! * [`core`] — timing models: an in-order core that exposes the full memory
//!   latency, and an out-of-order core that hides part of it using a
//!   ROB/MLP (memory-level parallelism) model.
//! * [`simulator`] — glue that runs a trace through a core + hierarchy and
//!   reports cycles, miss rates, and miss-cycle accounting.
//!   [`Simulator::run`] simulates everything from scratch at one latency
//!   point; it is the oracle for the record/re-time path.
//! * [`recording`] — record once, re-time many: the hierarchy's state
//!   follows the address stream alone, so [`Simulator::record`] simulates
//!   it once per trace and cache geometry and keeps one class byte per
//!   access (L1 / L2 / LLC / memory row hit / row miss).
//!   [`HierarchyRecording::retime`] turns the bytes back into outcomes
//!   with any configuration's latencies and drives either core model, for
//!   a result equal to [`Simulator::run`]. Latency sweeps
//!   ([`Simulator::latency_sweep`]) and the `disagg_core` CPU experiment
//!   run on it.
//! * [`stats`] — slowdown and Pearson-correlation helpers used by the
//!   figure-regeneration harness (Fig. 7 and 10 report correlations).
//!
//! Traces come from the `workloads` crate; the `disagg_core` experiment
//! drivers run this simulator over the Fig. 6/7/8/12 latency sweeps in
//! parallel through the `core::sweep` engine. See the repository's
//! `ARCHITECTURE.md` for the full crate DAG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod core;
pub mod hierarchy;
pub mod recording;
pub mod simulator;
pub mod stats;
pub mod trace;

pub use cache::{Cache, CacheStats};
pub use config::{CacheConfig, CoreConfig, CoreKind, CpuConfig, MemoryConfig};
pub use core::{InOrderCore, OutOfOrderCore, TimingCore};
pub use hierarchy::{AccessOutcome, CacheHierarchy, HierarchyLevel, HierarchyStats};
pub use recording::HierarchyRecording;
pub use simulator::{SimResult, Simulator};
pub use stats::{geometric_mean, pearson_correlation, slowdown_percent};
pub use trace::{MemAccess, MemoryTrace, TraceRecord, TraceStats};
