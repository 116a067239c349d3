//! Optical switch technology models: Tables II and IV of the paper.
//!
//! Three families of all-optical-path switches are modelled:
//!
//! * **Spatial switches** (MEMS-actuated couplers, Mach-Zehnder
//!   interferometers, tiled planar photonics): broadband, one configurable
//!   circuit per port, require reconfiguration to change connectivity.
//! * **Wavelength-selective switches** (microring-resonator crossbars and
//!   Clos fabrics, push-pull space-and-wavelength selective switches): can
//!   steer arbitrary subsets of wavelengths per port.
//! * **Arrayed waveguide grating routers (AWGRs)**: passive cyclic
//!   wavelength shufflers that give an N x N all-to-all with one wavelength
//!   per source–destination pair and need no reconfiguration at all. Large
//!   radices are reached by cascading small AWGRs (`K*M*N` construction of
//!   Sato et al., 3 x 12 x 11 = 396 for this paper's rack).

use crate::units::{Bandwidth, Latency, OpticalPowerDb};
use std::fmt;

/// The switch families considered in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpticalSwitchKind {
    /// Mach-Zehnder interferometer based spatial switch.
    MachZehnder,
    /// MEMS-actuated spatial switch.
    MemsActuated,
    /// Microring-resonator based wavelength-selective switch (crossbar /
    /// switch-and-select / Clos).
    MicroringResonator,
    /// Cascaded arrayed-waveguide-grating router.
    CascadedAwgr,
    /// Push-pull microring-assisted space-and-wavelength selective switch.
    WaveSelective,
}

impl OpticalSwitchKind {
    /// True for switches that need active reconfiguration (and therefore a
    /// scheduler) to change which destination a source can reach.
    pub fn requires_reconfiguration(self) -> bool {
        !matches!(self, OpticalSwitchKind::CascadedAwgr)
    }

    /// True for switches that can steer individual wavelengths (rather than
    /// whole fibers) to different destinations.
    pub fn is_wavelength_selective(self) -> bool {
        matches!(
            self,
            OpticalSwitchKind::MicroringResonator
                | OpticalSwitchKind::CascadedAwgr
                | OpticalSwitchKind::WaveSelective
        )
    }
}

impl fmt::Display for OpticalSwitchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpticalSwitchKind::MachZehnder => "Mach-Zehnder",
            OpticalSwitchKind::MemsActuated => "MEMS-actuated",
            OpticalSwitchKind::MicroringResonator => "Microring resonator",
            OpticalSwitchKind::CascadedAwgr => "Cascaded AWGRs",
            OpticalSwitchKind::WaveSelective => "Wave-selective",
        };
        f.write_str(s)
    }
}

/// One row of Table II: a high-radix CMOS-compatible photonic switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalSwitch {
    /// Switch family.
    pub kind: OpticalSwitchKind,
    /// Port count (radix): the switch connects `radix` endpoints.
    pub radix: u32,
    /// Wavelengths usable per port.
    pub wavelengths_per_port: u32,
    /// Per-wavelength (channel) bandwidth.
    pub channel_bandwidth: Bandwidth,
    /// Worst-case insertion loss through the switch.
    pub insertion_loss: OpticalPowerDb,
    /// Crosstalk suppression (negative dB; more negative is better).
    pub crosstalk: OpticalPowerDb,
    /// Time to reconfigure the switch (zero for passive AWGRs).
    pub reconfiguration_time: Latency,
}

impl OpticalSwitch {
    /// Table II row: 32x32 Mach-Zehnder based switch.
    pub fn mach_zehnder_32() -> Self {
        OpticalSwitch {
            kind: OpticalSwitchKind::MachZehnder,
            radix: 32,
            wavelengths_per_port: 1,
            channel_bandwidth: Bandwidth::from_gbps(439.0),
            insertion_loss: OpticalPowerDb::from_db(12.8),
            crosstalk: OpticalPowerDb::from_db(-26.6),
            reconfiguration_time: Latency::from_us(10.0),
        }
    }

    /// Table II row: 240x240 MEMS-actuated wafer-scale switch.
    pub fn mems_240() -> Self {
        OpticalSwitch {
            kind: OpticalSwitchKind::MemsActuated,
            radix: 240,
            wavelengths_per_port: 1,
            channel_bandwidth: Bandwidth::from_gbps(25.0),
            insertion_loss: OpticalPowerDb::from_db(9.8),
            crosstalk: OpticalPowerDb::from_db(-70.0),
            reconfiguration_time: Latency::from_us(50.0),
        }
    }

    /// Table II row: 8x8 microring-resonator crossbar (demonstrated).
    pub fn microring_8() -> Self {
        OpticalSwitch {
            kind: OpticalSwitchKind::MicroringResonator,
            radix: 8,
            wavelengths_per_port: 8,
            channel_bandwidth: Bandwidth::from_gbps(100.0),
            insertion_loss: OpticalPowerDb::from_db(5.0),
            crosstalk: OpticalPowerDb::from_db(-35.0),
            reconfiguration_time: Latency::from_us(1.0),
        }
    }

    /// Table II row: projected 128x128 microring-resonator Clos fabric.
    pub fn microring_128_projected() -> Self {
        OpticalSwitch {
            kind: OpticalSwitchKind::MicroringResonator,
            radix: 128,
            wavelengths_per_port: 128,
            channel_bandwidth: Bandwidth::from_gbps(42.0),
            insertion_loss: OpticalPowerDb::from_db(10.0),
            crosstalk: OpticalPowerDb::from_db(-35.0),
            reconfiguration_time: Latency::from_us(1.0),
        }
    }

    /// Table II / IV row: 370x370 cascaded AWGR (built from the 3 x 12 x 11
    /// construction), 370 wavelengths per port, 25 Gbps per wavelength.
    pub fn cascaded_awgr_370() -> Self {
        OpticalSwitch {
            kind: OpticalSwitchKind::CascadedAwgr,
            radix: 370,
            wavelengths_per_port: 370,
            channel_bandwidth: Bandwidth::from_gbps(25.0),
            insertion_loss: OpticalPowerDb::from_db(15.0),
            crosstalk: OpticalPowerDb::from_db(-35.0),
            // Passive device: no reconfiguration at all.
            reconfiguration_time: Latency::ZERO,
        }
    }

    /// Table IV row: wave-selective switch modelled at 256 ports with 256
    /// wavelengths per port and 25 Gbps per wavelength (projected from
    /// demonstrated building blocks).
    pub fn wave_selective_256() -> Self {
        OpticalSwitch {
            kind: OpticalSwitchKind::WaveSelective,
            radix: 256,
            wavelengths_per_port: 256,
            channel_bandwidth: Bandwidth::from_gbps(25.0),
            insertion_loss: OpticalPowerDb::from_db(12.0),
            crosstalk: OpticalPowerDb::from_db(-30.0),
            reconfiguration_time: Latency::from_us(5.0),
        }
    }

    /// Table IV row: spatial switch treated (like the wave-selective one)
    /// as 240 ports — the paper rounds both to 256 ports / 256 wavelengths
    /// for the fabric analysis; the physical device is the MEMS switch.
    pub fn spatial_240() -> Self {
        OpticalSwitch {
            kind: OpticalSwitchKind::MemsActuated,
            radix: 240,
            wavelengths_per_port: 240,
            channel_bandwidth: Bandwidth::from_gbps(25.0),
            insertion_loss: OpticalPowerDb::from_db(9.8),
            crosstalk: OpticalPowerDb::from_db(-70.0),
            reconfiguration_time: Latency::from_us(50.0),
        }
    }

    /// The full Table II catalogue.
    pub fn table_ii() -> Vec<OpticalSwitch> {
        vec![
            Self::mach_zehnder_32(),
            Self::mems_240(),
            Self::microring_8(),
            Self::microring_128_projected(),
            Self::cascaded_awgr_370(),
        ]
    }

    /// Per-port bandwidth (wavelengths x channel bandwidth).
    pub fn port_bandwidth(&self) -> Bandwidth {
        self.channel_bandwidth * self.wavelengths_per_port as f64
    }

    /// Total switching capacity (all ports).
    pub fn bisection_capacity(&self) -> Bandwidth {
        self.port_bandwidth() * self.radix as f64
    }
}

/// The three switch configurations of Table IV used in the rack study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchConfig {
    /// Case (A): six parallel cascaded AWGRs, no reconfiguration.
    CascadedAwgr,
    /// Case (B): eleven parallel wave-selective switches.
    WaveSelective,
    /// Spatial switches (treated like wave-selective for fabric sizing).
    Spatial,
}

impl SwitchConfig {
    /// The representative device of this configuration (Table IV).
    pub fn device(self) -> OpticalSwitch {
        match self {
            SwitchConfig::CascadedAwgr => OpticalSwitch::cascaded_awgr_370(),
            SwitchConfig::WaveSelective => OpticalSwitch::wave_selective_256(),
            SwitchConfig::Spatial => OpticalSwitch::spatial_240(),
        }
    }

    /// Radix used by the fabric analysis (the paper treats both spatial and
    /// wave-selective switches as 256 ports / 256 wavelengths).
    pub fn effective_radix(self) -> u32 {
        match self {
            SwitchConfig::CascadedAwgr => 370,
            SwitchConfig::WaveSelective | SwitchConfig::Spatial => 256,
        }
    }

    /// Wavelengths per port used by the fabric analysis.
    pub fn effective_wavelengths_per_port(self) -> u32 {
        self.effective_radix()
    }

    /// Per-wavelength rate used by the fabric analysis (conservative
    /// 25 Gbps everywhere).
    pub fn channel_bandwidth(self) -> Bandwidth {
        Bandwidth::from_gbps(25.0)
    }

    /// Whether the configuration needs a centralized scheduler to
    /// reconfigure.
    pub fn needs_scheduler(self) -> bool {
        self.device().kind.requires_reconfiguration()
    }

    /// All Table IV configurations.
    pub const ALL: [SwitchConfig; 3] = [
        SwitchConfig::CascadedAwgr,
        SwitchConfig::WaveSelective,
        SwitchConfig::Spatial,
    ];
}

impl fmt::Display for SwitchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SwitchConfig::CascadedAwgr => "Cascaded AWGRs",
            SwitchConfig::WaveSelective => "Wave-Selective",
            SwitchConfig::Spatial => "Spatial",
        };
        f.write_str(s)
    }
}

/// The cascaded-AWGR construction of Sato et al. used to reach large radix:
/// `N` front `M x M` AWGRs interconnected with `M` rear `N x N` AWGRs act as
/// an `M*N x M*N` AWGR; `K` copies joined by `K x K` delivery-coupling
/// switches scale this to `K*M*N x K*M*N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadedAwgr {
    /// Number of AWGR planes joined by delivery-coupling switches.
    pub k: u32,
    /// Front-AWGR size (M x M).
    pub m: u32,
    /// Rear-AWGR size (N x N).
    pub n: u32,
    /// Per-stage insertion loss of a small AWGR.
    pub stage_loss: OpticalPowerDb,
    /// Insertion loss of the delivery-coupling switch stage.
    pub dc_switch_loss: OpticalPowerDb,
}

impl CascadedAwgr {
    /// The paper's configuration for a 350-MCM rack: `K*M*N = 3*12*11 = 396`,
    /// yielding a practical 370-port device with 370 wavelengths per port.
    pub fn paper_rack_configuration() -> Self {
        CascadedAwgr {
            k: 3,
            m: 12,
            n: 11,
            // Hardware prototypes of 270x270 and 1440x1440 show ~15 dB total;
            // apportion it across the two AWGR stages and the DC switch.
            stage_loss: OpticalPowerDb::from_db(5.5),
            dc_switch_loss: OpticalPowerDb::from_db(4.0),
        }
    }

    /// Theoretical port count of the construction (`K*M*N`).
    pub fn theoretical_radix(&self) -> u32 {
        self.k * self.m * self.n
    }

    /// Usable port count after guard channels for passband walk-off (the
    /// paper derates 396 to 370 usable ports).
    pub fn usable_radix(&self) -> u32 {
        // Derate by the same ~6.5% margin the paper applies (396 -> 370).
        (self.theoretical_radix() as f64 * (370.0 / 396.0)).floor() as u32
    }

    /// Wavelengths per port (equal to the usable radix for an AWGR).
    pub fn wavelengths_per_port(&self) -> u32 {
        self.usable_radix()
    }

    /// End-to-end worst-case insertion loss: front AWGR + rear AWGR + DC
    /// switch.
    pub fn end_to_end_loss(&self) -> OpticalPowerDb {
        self.stage_loss
            .cascade(self.stage_loss)
            .cascade(self.dc_switch_loss)
    }

    /// Materialize as an [`OpticalSwitch`] row.
    pub fn as_switch(&self) -> OpticalSwitch {
        OpticalSwitch {
            kind: OpticalSwitchKind::CascadedAwgr,
            radix: self.usable_radix(),
            wavelengths_per_port: self.wavelengths_per_port(),
            channel_bandwidth: Bandwidth::from_gbps(25.0),
            insertion_loss: self.end_to_end_loss(),
            crosstalk: OpticalPowerDb::from_db(-35.0),
            reconfiguration_time: Latency::ZERO,
        }
    }

    /// Number of fibers needed to realize the all-to-all: `O(N)` fibers each
    /// carrying `N` wavelengths, versus `N^2` wires for a copper all-to-all.
    pub fn fibers_for_all_to_all(&self) -> u64 {
        self.usable_radix() as u64
    }

    /// Number of point-to-point copper wires an electrical all-to-all of the
    /// same radix would need (each endpoint pair gets a dedicated wire).
    pub fn copper_wires_for_all_to_all(&self) -> u64 {
        let n = self.usable_radix() as u64;
        n * n
    }
}

/// How many switch ports and wavelengths a fabric of `switch_count` parallel
/// switches offers to each attached MCM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchPortBudget {
    /// Parallel switches in the fabric.
    pub switch_count: u32,
    /// Ports per switch.
    pub radix: u32,
    /// Wavelengths per port.
    pub wavelengths_per_port: u32,
    /// Per-wavelength bandwidth.
    pub channel_bandwidth: Bandwidth,
}

impl SwitchPortBudget {
    /// Total wavelengths available to one MCM that connects one port to each
    /// parallel switch.
    pub fn wavelengths_per_mcm(&self) -> u32 {
        self.switch_count * self.wavelengths_per_port
    }

    /// Escape bandwidth one MCM can push through the fabric.
    pub fn escape_bandwidth_per_mcm(&self) -> Bandwidth {
        self.channel_bandwidth * self.wavelengths_per_mcm() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_expected_rows() {
        let t = OpticalSwitch::table_ii();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].radix, 32);
        assert_eq!(t[1].radix, 240);
        assert_eq!(t[4].radix, 370);
    }

    #[test]
    fn awgr_is_passive_and_needs_no_scheduler() {
        let awgr = OpticalSwitch::cascaded_awgr_370();
        assert_eq!(awgr.reconfiguration_time, Latency::ZERO);
        assert!(!awgr.kind.requires_reconfiguration());
        assert!(!SwitchConfig::CascadedAwgr.needs_scheduler());
        assert!(SwitchConfig::WaveSelective.needs_scheduler());
        assert!(SwitchConfig::Spatial.needs_scheduler());
    }

    #[test]
    fn cascaded_awgr_paper_configuration() {
        let c = CascadedAwgr::paper_rack_configuration();
        assert_eq!(c.theoretical_radix(), 396);
        assert_eq!(c.usable_radix(), 370);
        assert_eq!(c.wavelengths_per_port(), 370);
        // ~15 dB insertion loss as in the hardware prototypes.
        assert!((c.end_to_end_loss().db() - 15.0).abs() < 0.1);
    }

    #[test]
    fn awgr_fiber_savings_vs_copper() {
        let c = CascadedAwgr::paper_rack_configuration();
        let fibers = c.fibers_for_all_to_all();
        let wires = c.copper_wires_for_all_to_all();
        assert_eq!(fibers, 370);
        assert_eq!(wires, 370 * 370);
        assert!(wires / fibers == 370);
    }

    #[test]
    fn table_iv_effective_parameters() {
        assert_eq!(SwitchConfig::CascadedAwgr.effective_radix(), 370);
        assert_eq!(SwitchConfig::WaveSelective.effective_radix(), 256);
        assert_eq!(SwitchConfig::Spatial.effective_radix(), 256);
        for cfg in SwitchConfig::ALL {
            assert!((cfg.channel_bandwidth().gbps() - 25.0).abs() < 1e-9);
            assert_eq!(cfg.effective_wavelengths_per_port(), cfg.effective_radix());
        }
    }

    #[test]
    fn awgr_port_bandwidth_is_370_wavelengths() {
        let awgr = OpticalSwitch::cascaded_awgr_370();
        // 370 x 25 Gbps = 9250 Gbps per port.
        assert!((awgr.port_bandwidth().gbps() - 9250.0).abs() < 1e-6);
    }

    #[test]
    fn wave_selective_port_budget_matches_paper() {
        // Each MCM can connect to 2048/256 = 8 parallel wave-selective
        // switches; the fabric instantiates 11 and staggers them.
        let budget = SwitchPortBudget {
            switch_count: 8,
            radix: 256,
            wavelengths_per_port: 256,
            channel_bandwidth: Bandwidth::from_gbps(25.0),
        };
        assert_eq!(budget.wavelengths_per_mcm(), 2048);
        // 2048 x 25 Gbps = 51.2 Tbps = 6.4 TB/s escape, matching the MCM.
        assert!((budget.escape_bandwidth_per_mcm().tbytes_per_s() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn wavelength_selectivity_classification() {
        assert!(!OpticalSwitchKind::MachZehnder.is_wavelength_selective());
        assert!(!OpticalSwitchKind::MemsActuated.is_wavelength_selective());
        assert!(OpticalSwitchKind::MicroringResonator.is_wavelength_selective());
        assert!(OpticalSwitchKind::CascadedAwgr.is_wavelength_selective());
        assert!(OpticalSwitchKind::WaveSelective.is_wavelength_selective());
    }

    #[test]
    fn bisection_capacity_scales_with_radix() {
        let a = OpticalSwitch::microring_8();
        let b = OpticalSwitch::microring_128_projected();
        assert!(b.bisection_capacity().bps() > a.bisection_capacity().bps());
    }

    #[test]
    fn insertion_loss_of_cascade_exceeds_single_stage() {
        let c = CascadedAwgr::paper_rack_configuration();
        assert!(c.end_to_end_loss().db() > c.stage_loss.db());
        let sw = c.as_switch();
        assert_eq!(sw.radix, 370);
        assert_eq!(sw.kind, OpticalSwitchKind::CascadedAwgr);
    }

    #[test]
    fn display_names() {
        assert_eq!(SwitchConfig::CascadedAwgr.to_string(), "Cascaded AWGRs");
        assert_eq!(
            OpticalSwitchKind::MicroringResonator.to_string(),
            "Microring resonator"
        );
    }
}
