//! The baseline (non-disaggregated) node and rack: a GPU-accelerated
//! HPE/Cray EX system in the style of NERSC's Perlmutter (Section V).

use crate::chips::ChipKind;
use photonics::units::Bandwidth;

/// The baseline compute node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineNode {
    /// CPUs per node.
    pub cpus: u32,
    /// DDR4 DIMMs per node (8 memory controllers per CPU).
    pub ddr4_modules: u32,
    /// Memory capacity per node in GB.
    pub memory_gb: u32,
    /// Peak DDR4 bandwidth per node in GB/s.
    pub memory_bandwidth_gbs: f64,
    /// GPUs per node.
    pub gpus: u32,
    /// HBM stacks per node (one per GPU in the A100 baseline).
    pub hbm_stacks: u32,
    /// HBM capacity per GPU in GB.
    pub hbm_gb_per_gpu: u32,
    /// HBM bandwidth per GPU in GB/s.
    pub hbm_bandwidth_gbs: f64,
    /// NICs per node.
    pub nics: u32,
    /// NIC bandwidth per direction in Gbps.
    pub nic_gbps: f64,
    /// NVLink links per GPU.
    pub nvlink_links_per_gpu: u32,
    /// NVLink bandwidth per link per direction in GB/s.
    pub nvlink_gbs_per_link: f64,
}

impl BaselineNode {
    /// The paper's model node: AMD Milan + 4x NVIDIA A100 + 4x Slingshot 11.
    pub fn perlmutter_gpu() -> Self {
        BaselineNode {
            cpus: 1,
            ddr4_modules: 8,
            memory_gb: 256,
            memory_bandwidth_gbs: 204.8,
            gpus: 4,
            hbm_stacks: 4,
            hbm_gb_per_gpu: 40,
            hbm_bandwidth_gbs: 1555.2,
            nics: 4,
            nic_gbps: 200.0,
            nvlink_links_per_gpu: 12,
            nvlink_gbs_per_link: 25.0,
        }
    }

    /// Number of chips of a given kind in one node.
    pub fn chips(&self, kind: ChipKind) -> u32 {
        match kind {
            ChipKind::Cpu => self.cpus,
            ChipKind::Gpu => self.gpus,
            ChipKind::Nic => self.nics,
            ChipKind::Hbm => self.hbm_stacks,
            ChipKind::Ddr4 => self.ddr4_modules,
        }
    }

    /// Aggregate NVLink bandwidth per GPU.
    pub fn nvlink_bandwidth_per_gpu(&self) -> Bandwidth {
        Bandwidth::from_gbytes_per_s(self.nvlink_gbs_per_link * self.nvlink_links_per_gpu as f64)
    }

    /// Total chips of all kinds in one node.
    pub fn total_chips(&self) -> u32 {
        ChipKind::ALL.iter().map(|&k| self.chips(k)).sum()
    }
}

/// A baseline rack: `nodes` identical nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineRack {
    /// The node configuration.
    pub node: BaselineNode,
    /// Nodes per rack.
    pub nodes: u32,
}

impl BaselineRack {
    /// The paper's rack: 128 GPU-accelerated nodes.
    pub fn paper_rack() -> Self {
        BaselineRack {
            node: BaselineNode::perlmutter_gpu(),
            nodes: 128,
        }
    }

    /// Number of chips of a given kind in the rack.
    pub fn chips(&self, kind: ChipKind) -> u32 {
        self.node.chips(kind) * self.nodes
    }

    /// Total chips in the rack.
    pub fn total_chips(&self) -> u32 {
        self.node.total_chips() * self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perlmutter_node_configuration() {
        let n = BaselineNode::perlmutter_gpu();
        assert_eq!(n.cpus, 1);
        assert_eq!(n.gpus, 4);
        assert_eq!(n.nics, 4);
        assert_eq!(n.ddr4_modules, 8);
        assert_eq!(n.memory_gb, 256);
        assert!((n.memory_bandwidth_gbs - 204.8).abs() < 1e-9);
        assert!((n.hbm_bandwidth_gbs - 1555.2).abs() < 1e-9);
    }

    #[test]
    fn nvlink_aggregate_bandwidth() {
        let n = BaselineNode::perlmutter_gpu();
        // 12 links x 25 GB/s = 300 GB/s per GPU per direction.
        assert!((n.nvlink_bandwidth_per_gpu().gbytes_per_s() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn paper_rack_chip_counts() {
        let r = BaselineRack::paper_rack();
        assert_eq!(r.nodes, 128);
        assert_eq!(r.chips(ChipKind::Cpu), 128);
        assert_eq!(r.chips(ChipKind::Gpu), 512);
        assert_eq!(r.chips(ChipKind::Hbm), 512);
        assert_eq!(r.chips(ChipKind::Nic), 512);
        assert_eq!(r.chips(ChipKind::Ddr4), 1024);
    }

    #[test]
    fn total_chip_count() {
        let r = BaselineRack::paper_rack();
        // 1 + 4 + 4 + 4 + 8 = 21 chips per node; 2688 per rack.
        assert_eq!(r.node.total_chips(), 21);
        assert_eq!(r.total_chips(), 2688);
    }

    #[test]
    fn per_node_chip_lookup_covers_all_kinds() {
        let n = BaselineNode::perlmutter_gpu();
        let total: u32 = ChipKind::ALL.iter().map(|&k| n.chips(k)).sum();
        assert_eq!(total, n.total_chips());
    }
}
