//! The GPU application registry: 24 applications from Rodinia, Polybench,
//! and the Tango deep-network suite, profiled for the PPT-GPU-style
//! analytical model in `gpusim`.
//!
//! The paper runs 24 applications totalling 1525 kernels on a modelled
//! NVIDIA A100 and reports (Fig. 9) an average slowdown of ≈5.35% for 35 ns
//! of additional HBM latency, with the slowdown strongly correlated with the
//! L2 miss rate (r ≈ 0.87) and HBM transactions per instruction (r ≈ 0.79)
//! but not with the memory-instruction fraction (Fig. 10). The profiles
//! below reproduce those relationships: Polybench's linear-algebra kernels
//! stress the caches and HBM, the Tango networks are compute-rich and
//! latency-insensitive, and Rodinia spans the range in between.

use gpusim::{ApplicationProfile, KernelProfile};
use std::fmt;

/// GPU benchmark suites used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuSuite {
    /// Rodinia (CUDA versions).
    Rodinia,
    /// Polybench-GPU linear algebra kernels.
    Polybench,
    /// Tango deep neural network suite.
    Tango,
}

impl fmt::Display for GpuSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuSuite::Rodinia => f.write_str("Rodinia"),
            GpuSuite::Polybench => f.write_str("Polybench"),
            GpuSuite::Tango => f.write_str("Tango"),
        }
    }
}

/// Descriptor row: (name, suite, kernel launches, total warp instructions,
/// memory fraction, L1 hit rate, L2 hit rate, transactions per memory
/// instruction, active warps per SM, MLP per warp).
struct AppSpec {
    name: &'static str,
    suite: GpuSuite,
    kernel_launches: u32,
    warp_instructions: u64,
    memory_fraction: f64,
    l1_hit: f64,
    l2_hit: f64,
    tx_per_mem: f64,
    warps_per_sm: f64,
    mlp: f64,
}

impl AppSpec {
    fn build(&self) -> ApplicationProfile {
        // Split the application's work across its kernel launches; per-kernel
        // parameters are identical, which is a reasonable first-order model
        // for iterative GPU applications (the paper's per-app results are
        // aggregates over kernels anyway).
        let launches = self.kernel_launches.max(1);
        let per_kernel = (self.warp_instructions / launches as u64).max(1);
        let kernels = (0..launches)
            .map(|i| {
                KernelProfile {
                    name: format!("{}_k{}", self.name, i),
                    warp_instructions: per_kernel,
                    memory_instruction_fraction: self.memory_fraction,
                    l1_hit_rate: self.l1_hit,
                    l2_hit_rate: self.l2_hit,
                    transactions_per_memory_instruction: self.tx_per_mem,
                    active_warps_per_sm: self.warps_per_sm,
                    mlp_per_warp: self.mlp,
                }
                .sanitized()
            })
            .collect();
        ApplicationProfile::new(self.name, self.suite.to_string(), kernels)
    }
}

fn specs() -> Vec<AppSpec> {
    use GpuSuite::*;
    let s = |name,
             suite,
             kernel_launches,
             warp_instructions,
             memory_fraction,
             l1_hit,
             l2_hit,
             tx_per_mem,
             warps_per_sm,
             mlp| AppSpec {
        name,
        suite,
        kernel_launches,
        warp_instructions,
        memory_fraction,
        l1_hit,
        l2_hit,
        tx_per_mem,
        warps_per_sm,
        mlp,
    };
    vec![
        // ---- Rodinia (11 applications) ----
        s(
            "backprop", Rodinia, 40, 16_000_000, 0.32, 0.55, 0.50, 4.0, 32.0, 2.0,
        ),
        s(
            "bfs", Rodinia, 87, 9_000_000, 0.33, 0.25, 0.30, 8.0, 24.0, 1.5,
        ),
        s(
            "gaussian", Rodinia, 240, 12_000_000, 0.30, 0.45, 0.58, 4.0, 16.0, 1.6,
        ),
        s(
            "hotspot", Rodinia, 60, 20_000_000, 0.30, 0.70, 0.60, 4.0, 40.0, 2.5,
        ),
        s(
            "kmeans", Rodinia, 30, 25_000_000, 0.32, 0.50, 0.35, 4.0, 40.0, 2.0,
        ),
        s(
            "lavamd", Rodinia, 10, 30_000_000, 0.34, 0.85, 0.80, 2.0, 48.0, 3.0,
        ),
        s(
            "lud", Rodinia, 150, 14_000_000, 0.33, 0.75, 0.70, 2.0, 24.0, 2.0,
        ),
        s(
            "nn", Rodinia, 8, 4_000_000, 0.34, 0.32, 0.28, 6.0, 20.0, 1.5,
        ),
        s(
            "nw", Rodinia, 250, 10_000_000, 0.33, 0.35, 0.25, 6.0, 12.0, 1.3,
        ),
        s(
            "pathfinder",
            Rodinia,
            25,
            18_000_000,
            0.31,
            0.60,
            0.55,
            4.0,
            32.0,
            2.2,
        ),
        s(
            "srad", Rodinia, 65, 22_000_000, 0.30, 0.55, 0.45, 4.0, 32.0, 2.0,
        ),
        // ---- Polybench (10 applications): linear algebra that stresses the
        // cache hierarchy and main memory ----
        s(
            "2mm", Polybench, 20, 40_000_000, 0.35, 0.60, 0.40, 4.0, 32.0, 2.0,
        ),
        s(
            "3mm", Polybench, 30, 55_000_000, 0.35, 0.60, 0.40, 4.0, 32.0, 2.0,
        ),
        s(
            "atax", Polybench, 12, 8_000_000, 0.34, 0.42, 0.25, 6.0, 20.0, 1.5,
        ),
        s(
            "bicg", Polybench, 12, 8_000_000, 0.34, 0.42, 0.25, 6.0, 20.0, 1.5,
        ),
        s(
            "gemm", Polybench, 15, 45_000_000, 0.35, 0.70, 0.55, 4.0, 40.0, 2.5,
        ),
        s(
            "gesummv", Polybench, 10, 6_000_000, 0.35, 0.40, 0.22, 6.0, 16.0, 1.4,
        ),
        s(
            "mvt", Polybench, 12, 9_000_000, 0.34, 0.42, 0.26, 6.0, 20.0, 1.5,
        ),
        s(
            "syr2k", Polybench, 18, 35_000_000, 0.34, 0.55, 0.35, 4.0, 32.0, 2.0,
        ),
        s(
            "syrk", Polybench, 16, 30_000_000, 0.34, 0.58, 0.38, 4.0, 32.0, 2.0,
        ),
        s(
            "correlation",
            Polybench,
            25,
            28_000_000,
            0.33,
            0.50,
            0.30,
            4.0,
            28.0,
            1.8,
        ),
        // ---- Tango deep networks (3 applications): dense conv/GEMM layers,
        // cache-friendly; their loads mostly hit in the L1/L2 ----
        s(
            "alexnet",
            Tango,
            130,
            120_000_000,
            0.36,
            0.85,
            0.78,
            2.0,
            48.0,
            3.5,
        ),
        s(
            "gru", Tango, 120, 80_000_000, 0.35, 0.80, 0.72, 2.0, 40.0, 3.0,
        ),
        s(
            "lstm", Tango, 140, 90_000_000, 0.35, 0.80, 0.72, 2.0, 40.0, 3.0,
        ),
    ]
}

/// The 24 GPU application profiles used in the paper's GPU evaluation.
pub fn gpu_applications() -> Vec<ApplicationProfile> {
    specs().iter().map(AppSpec::build).collect()
}

/// The GPU applications belonging to one suite.
pub fn suite_applications(suite: GpuSuite) -> Vec<ApplicationProfile> {
    specs()
        .iter()
        .filter(|s| s.suite == suite)
        .map(AppSpec::build)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{GpuConfig, GpuTimingModel};
    use std::collections::HashSet;

    #[test]
    fn registry_has_24_applications() {
        assert_eq!(gpu_applications().len(), 24);
    }

    #[test]
    fn total_kernel_count_matches_paper() {
        let total: usize = gpu_applications().iter().map(|a| a.kernel_count()).sum();
        assert_eq!(total, 1525, "the paper evaluates 1525 kernels");
    }

    #[test]
    fn suite_breakdown_matches_paper() {
        assert_eq!(suite_applications(GpuSuite::Rodinia).len(), 11);
        assert_eq!(suite_applications(GpuSuite::Polybench).len(), 10);
        assert_eq!(suite_applications(GpuSuite::Tango).len(), 3);
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<String> = gpu_applications().into_iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn average_slowdown_at_35ns_is_near_paper_value() {
        // Paper: "The average slowdown across all 24 GPU applications is
        // 5.35%." Accept a band around it since our model is analytical.
        let model = GpuTimingModel::new(GpuConfig::a100());
        let mut slowdowns = Vec::new();
        for app in gpu_applications() {
            let sweep = model.latency_sweep(&app, &[0.0, 35.0]);
            slowdowns.push(sweep[1].slowdown_vs(&sweep[0]));
        }
        let avg = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
        assert!(
            avg > 3.0 && avg < 8.0,
            "average GPU slowdown {avg:.2}% should be near the paper's 5.35%"
        );
        let max = slowdowns.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 8.0 && max < 16.0,
            "maximum GPU slowdown {max:.2}% should be near the paper's ~12%"
        );
    }

    #[test]
    fn tango_networks_are_latency_tolerant() {
        let model = GpuTimingModel::new(GpuConfig::a100());
        for app in suite_applications(GpuSuite::Tango) {
            let sweep = model.latency_sweep(&app, &[0.0, 35.0]);
            let slowdown = sweep[1].slowdown_vs(&sweep[0]);
            assert!(
                slowdown < 3.0,
                "{} is a dense DNN and should tolerate latency, got {slowdown:.2}%",
                app.name
            );
        }
    }

    #[test]
    fn slowdown_correlates_with_l2_miss_rate_and_hbm_transactions() {
        // Fig. 10: correlation ≈0.87 with LLC miss rate and ≈0.79 with HBM
        // transactions per instruction.
        let model = GpuTimingModel::new(GpuConfig::a100());
        let mut slowdowns = Vec::new();
        let mut miss_rates = Vec::new();
        let mut hbm_per_instr = Vec::new();
        for app in gpu_applications() {
            let sweep = model.latency_sweep(&app, &[0.0, 35.0]);
            slowdowns.push(sweep[1].slowdown_vs(&sweep[0]));
            miss_rates.push(app.l2_miss_rate());
            hbm_per_instr.push(app.hbm_transactions_per_instruction());
        }
        let r_miss = cpusim::pearson_correlation(&miss_rates, &slowdowns).unwrap();
        let r_hbm = cpusim::pearson_correlation(&hbm_per_instr, &slowdowns).unwrap();
        assert!(r_miss > 0.6, "slowdown vs L2 miss rate r={r_miss:.2}");
        assert!(r_hbm > 0.5, "slowdown vs HBM transactions r={r_hbm:.2}");
    }

    #[test]
    fn rodinia_gpu_set_contains_cpu_intersection() {
        let names: HashSet<String> = suite_applications(GpuSuite::Rodinia)
            .into_iter()
            .map(|a| a.name)
            .collect();
        for b in crate::cpu::rodinia_cpu_gpu_intersection() {
            assert!(names.contains(b), "{b} missing from GPU Rodinia set");
        }
    }
}
