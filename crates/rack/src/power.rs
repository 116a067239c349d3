//! Rack power accounting and the photonic power overhead (Section VI-C).

use crate::chips::{ChipKind, ChipSpec};
use crate::node::BaselineRack;
use photonics::power::{PhotonicPowerModel, RackPhotonicPower};

/// Power model of the whole rack: baseline components plus photonics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackPowerModel {
    /// The baseline rack whose components draw the non-photonic power.
    pub rack: BaselineRack,
    /// DDR4 power per node in watts (the paper quotes ~192 W per node).
    pub ddr4_power_per_node_w: f64,
    /// The photonic component model.
    pub photonics: PhotonicPowerModel,
}

impl RackPowerModel {
    /// The paper's rack power model.
    pub fn paper_rack() -> Self {
        RackPowerModel {
            rack: BaselineRack::paper_rack(),
            ddr4_power_per_node_w: 192.0,
            photonics: PhotonicPowerModel::paper_rack(),
        }
    }

    /// Power of the baseline compute/memory components (watts): CPUs, GPUs,
    /// NICs, HBM (counted with its GPU), and DDR4.
    pub fn baseline_component_power_w(&self) -> f64 {
        let cpu = ChipSpec::baseline(ChipKind::Cpu).power_w * self.rack.chips(ChipKind::Cpu) as f64;
        let gpu = ChipSpec::baseline(ChipKind::Gpu).power_w * self.rack.chips(ChipKind::Gpu) as f64;
        let nic = ChipSpec::baseline(ChipKind::Nic).power_w * self.rack.chips(ChipKind::Nic) as f64;
        let ddr4 = self.ddr4_power_per_node_w * self.rack.nodes as f64;
        cpu + gpu + nic + ddr4
    }

    /// The paper's headline comparison uses only CPU + GPU + DDR4 power
    /// ("the power consumption of an A100 GPU is approximately 300 W, an AMD
    /// Milan CPU 250 W, and 512 GB of DDR4 ... approximately 192 W").
    pub fn paper_comparison_power_w(&self) -> f64 {
        let cpu = ChipSpec::baseline(ChipKind::Cpu).power_w * self.rack.chips(ChipKind::Cpu) as f64;
        let gpu = ChipSpec::baseline(ChipKind::Gpu).power_w * self.rack.chips(ChipKind::Gpu) as f64;
        let ddr4 = self.ddr4_power_per_node_w * self.rack.nodes as f64;
        cpu + gpu + ddr4
    }

    /// Run the photonic-overhead analysis against the paper's comparison
    /// baseline.
    pub fn photonic_overhead(&self) -> RackPhotonicPower {
        self.photonics
            .rack_overhead(self.paper_comparison_power_w())
    }

    /// The paper's comparison (CPU + GPU + DDR4) power divided evenly over
    /// the rack's MCMs, in watts per MCM. The sweep engine's energy layer
    /// multiplies this back by a scenario's MCM count so that the
    /// photonic-to-compute power ratio stays meaningful on racks smaller or
    /// larger than the paper's 350-MCM design point.
    ///
    /// # Example
    ///
    /// ```
    /// use rack::power::RackPowerModel;
    ///
    /// let m = RackPowerModel::paper_rack();
    /// // 210.2 kW over 350 MCMs ≈ 600.5 W per MCM.
    /// let per_mcm = m.paper_comparison_power_per_mcm_w();
    /// assert!((per_mcm - 600.5).abs() < 0.1);
    /// assert!(
    ///     (per_mcm * m.photonics.mcm_count as f64 - m.paper_comparison_power_w()).abs() < 1e-6
    /// );
    /// ```
    pub fn paper_comparison_power_per_mcm_w(&self) -> f64 {
        self.paper_comparison_power_w() / self.photonics.mcm_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_comparison_power_is_about_210_kw() {
        let m = RackPowerModel::paper_rack();
        // 128 x (250 + 4*300 + 192) = 128 x 1642 = 210.2 kW.
        let p = m.paper_comparison_power_w();
        assert!((p - 210_176.0).abs() < 1.0);
    }

    #[test]
    fn photonic_overhead_is_about_five_percent() {
        let m = RackPowerModel::paper_rack();
        let o = m.photonic_overhead();
        assert!(
            o.overhead_percent() > 4.0 && o.overhead_percent() < 6.0,
            "photonic overhead {}% should be ~5%",
            o.overhead_percent()
        );
        // ~10-11 kW of photonics, as the paper quotes.
        assert!(o.photonic_power_w > 9_000.0 && o.photonic_power_w < 11_500.0);
    }

    #[test]
    fn full_component_power_exceeds_comparison_power() {
        let m = RackPowerModel::paper_rack();
        assert!(m.baseline_component_power_w() > m.paper_comparison_power_w());
    }

    #[test]
    fn overhead_scales_inversely_with_baseline() {
        let mut m = RackPowerModel::paper_rack();
        let o_full = m.photonic_overhead();
        m.rack.nodes = 64;
        let o_half = m.photonic_overhead();
        assert!(o_half.overhead_percent() > o_full.overhead_percent());
    }
}
