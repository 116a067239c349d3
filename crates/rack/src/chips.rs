//! Chip types and their escape-bandwidth / power characteristics.
//!
//! The disaggregated rack groups chips of a single type into MCMs; what
//! matters for packing is each chip's **escape bandwidth** — the off-chip
//! bandwidth it enjoys in the baseline (non-disaggregated) node, which the
//! photonic MCM must preserve (Section V-A: "our photonic architecture does
//! not restrict chip escape bandwidth").

use photonics::units::Bandwidth;
use std::fmt;

/// The chip types of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipKind {
    /// AMD Milan-class CPU.
    Cpu,
    /// NVIDIA A100-class GPU.
    Gpu,
    /// Slingshot-11 NIC.
    Nic,
    /// One HBM stack (the 40 GB co-packaged with each A100 in the baseline).
    Hbm,
    /// One DDR4-3200 DIMM.
    Ddr4,
}

impl ChipKind {
    /// All chip kinds, in Table III order.
    pub const ALL: [ChipKind; 5] = [
        ChipKind::Cpu,
        ChipKind::Gpu,
        ChipKind::Nic,
        ChipKind::Hbm,
        ChipKind::Ddr4,
    ];
}

impl fmt::Display for ChipKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChipKind::Cpu => "CPU",
            ChipKind::Gpu => "GPU",
            ChipKind::Nic => "NIC",
            ChipKind::Hbm => "HBM",
            ChipKind::Ddr4 => "DDR4",
        };
        f.write_str(s)
    }
}

/// Specification of one chip type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSpec {
    /// Which chip this is.
    pub kind: ChipKind,
    /// Escape bandwidth the chip enjoys in the baseline node.
    pub escape_bandwidth: Bandwidth,
    /// Typical power draw in watts.
    pub power_w: f64,
    /// Optional packaging limit on how many of these chips fit in one MCM
    /// regardless of bandwidth (pin count / area); `None` means bandwidth
    /// limited only.
    pub max_per_mcm: Option<u32>,
}

impl ChipSpec {
    /// The baseline-node specification of a chip kind (Section V).
    pub fn baseline(kind: ChipKind) -> Self {
        match kind {
            // Milan CPU: 8 x DDR4-3200 channels (204.8 GB/s) + 4 x PCIe Gen4
            // x16 to the GPUs (126 GB/s) + 4 Slingshot NICs at 200 Gbps
            // (100 GB/s) ≈ 431 GB/s escape.
            ChipKind::Cpu => ChipSpec {
                kind,
                escape_bandwidth: Bandwidth::from_gbytes_per_s(204.8 + 4.0 * 31.5 + 4.0 * 25.0),
                power_w: 250.0,
                max_per_mcm: None,
            },
            // A100: 1555.2 GB/s HBM + 12 NVLink3 links of 25 GB/s (300 GB/s)
            // + PCIe Gen4 x16 (31.5 GB/s) ≈ 1887 GB/s escape.
            ChipKind::Gpu => ChipSpec {
                kind,
                escape_bandwidth: Bandwidth::from_gbytes_per_s(1555.2 + 300.0 + 31.5),
                power_w: 300.0,
                max_per_mcm: None,
            },
            // Slingshot NIC: PCIe Gen4 x16 host interface, 31.5 GB/s.
            ChipKind::Nic => ChipSpec {
                kind,
                escape_bandwidth: Bandwidth::from_gbytes_per_s(31.5),
                power_w: 25.0,
                max_per_mcm: None,
            },
            // One HBM2e stack: 1555.2 GB/s.
            ChipKind::Hbm => ChipSpec {
                kind,
                escape_bandwidth: Bandwidth::from_gbytes_per_s(1555.2),
                power_w: 25.0,
                max_per_mcm: None,
            },
            // One DDR4-3200 DIMM: 25.6 GB/s. Bandwidth alone would allow 250
            // DIMMs per MCM; the paper packs 27 (pin-count / capacity
            // constrained), which we model as a packaging limit.
            ChipKind::Ddr4 => ChipSpec {
                kind,
                escape_bandwidth: Bandwidth::from_gbytes_per_s(25.6),
                power_w: 3.0,
                max_per_mcm: Some(27),
            },
        }
    }

    /// All baseline chip specifications in Table III order.
    pub fn all_baseline() -> Vec<ChipSpec> {
        ChipKind::ALL.iter().map(|&k| Self::baseline(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_escape_is_about_431_gbytes() {
        let cpu = ChipSpec::baseline(ChipKind::Cpu);
        assert!((cpu.escape_bandwidth.gbytes_per_s() - 430.8).abs() < 0.1);
    }

    #[test]
    fn gpu_escape_is_about_1887_gbytes() {
        let gpu = ChipSpec::baseline(ChipKind::Gpu);
        assert!((gpu.escape_bandwidth.gbytes_per_s() - 1886.7).abs() < 0.1);
    }

    #[test]
    fn hbm_escape_matches_a100_memory_bandwidth() {
        let hbm = ChipSpec::baseline(ChipKind::Hbm);
        assert!((hbm.escape_bandwidth.gbytes_per_s() - 1555.2).abs() < 1e-9);
    }

    #[test]
    fn nic_escape_is_pcie_gen4_x16() {
        let nic = ChipSpec::baseline(ChipKind::Nic);
        assert!((nic.escape_bandwidth.gbytes_per_s() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn ddr4_has_packaging_limit() {
        let ddr = ChipSpec::baseline(ChipKind::Ddr4);
        assert_eq!(ddr.max_per_mcm, Some(27));
        assert!((ddr.escape_bandwidth.gbytes_per_s() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn all_baseline_covers_every_kind() {
        let specs = ChipSpec::all_baseline();
        assert_eq!(specs.len(), 5);
        for (spec, kind) in specs.iter().zip(ChipKind::ALL.iter()) {
            assert_eq!(spec.kind, *kind);
        }
    }

    #[test]
    fn power_values_match_paper_quotes() {
        assert_eq!(ChipSpec::baseline(ChipKind::Gpu).power_w, 300.0);
        assert_eq!(ChipSpec::baseline(ChipKind::Cpu).power_w, 250.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ChipKind::Cpu.to_string(), "CPU");
        assert_eq!(ChipKind::Ddr4.to_string(), "DDR4");
    }
}
