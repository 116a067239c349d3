//! Distributed indirect (Valiant) routing over the AWGR fabric, with
//! piggybacked wavelength-occupancy state (Section IV of the paper).
//!
//! AWGRs dedicate exactly one wavelength per source–destination pair per
//! plane. When a pair needs more bandwidth than its direct wavelengths
//! provide, the source splits traffic over **indirect** two-hop paths: it
//! sends to an intermediate MCM whose own direct wavelength to the final
//! destination is free, chosen uniformly at random among productive
//! candidates (Valiant routing), per flow to preserve ordering.
//!
//! Sources learn which wavelengths are busy from an **occupancy board**
//! assembled from state piggybacked on regular traffic: each source
//! broadcasts an N-bit vector describing which of its local wavelengths are
//! occupied. The board can be *stale*; if a source picks an intermediate
//! whose direct wavelength turns out to be busy, the intermediate performs a
//! second indirection itself (modelled here as an extra hop and a retry).

use crate::rackfabric::RackFabric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The decision the router makes for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Use the direct wavelength(s) to the destination.
    Direct,
    /// Route through the given intermediate MCM (one extra hop).
    Indirect {
        /// The intermediate MCM index.
        intermediate: u32,
    },
    /// No direct or indirect capacity is currently available.
    Blocked,
}

impl RouteDecision {
    /// Number of fabric hops the decision implies (1 for direct, 2 for
    /// indirect, 0 for blocked).
    pub fn hops(&self) -> u32 {
        match self {
            RouteDecision::Direct => 1,
            RouteDecision::Indirect { .. } => 2,
            RouteDecision::Blocked => 0,
        }
    }
}

/// Global occupancy state: for every (source, destination) MCM pair, how many
/// of the direct wavelengths are currently carrying traffic.
///
/// In the real system each source holds only its own row plus piggybacked
/// (possibly stale) copies of the others; the board models both the ground
/// truth and the stale view.
#[derive(Debug, Clone)]
pub struct OccupancyBoard {
    mcm_count: u32,
    /// Flat row-major occupancy: `occupied[src * mcm_count + dst]` =
    /// wavelengths in use from `src` to `dst`. One contiguous allocation,
    /// cache-friendly row scans.
    occupied: Vec<u32>,
}

impl OccupancyBoard {
    /// Create an all-idle board for `mcm_count` MCMs.
    pub fn new(mcm_count: u32) -> Self {
        OccupancyBoard {
            mcm_count,
            occupied: vec![0; (mcm_count as usize) * (mcm_count as usize)],
        }
    }

    /// Number of MCMs.
    pub fn mcm_count(&self) -> u32 {
        self.mcm_count
    }

    /// The flat row-major index of an `(src, dst)` pair.
    #[inline]
    fn index(&self, src: u32, dst: u32) -> usize {
        src as usize * self.mcm_count as usize + dst as usize
    }

    /// Wavelengths currently occupied from `src` to `dst`.
    pub fn occupied(&self, src: u32, dst: u32) -> u32 {
        self.occupied[self.index(src, dst)]
    }

    /// Mark `n` additional wavelengths busy from `src` to `dst`.
    pub fn occupy(&mut self, src: u32, dst: u32, n: u32) {
        let i = self.index(src, dst);
        self.occupied[i] += n;
    }

    /// Release `n` wavelengths from `src` to `dst`.
    pub fn release(&mut self, src: u32, dst: u32, n: u32) {
        let i = self.index(src, dst);
        let v = &mut self.occupied[i];
        *v = v.saturating_sub(n);
    }

    /// Reset every entry to idle in place, keeping the allocation. This is
    /// the arena-reuse path: a board sized for the same rack is recycled
    /// across simulator runs instead of reallocated.
    ///
    /// ```
    /// use fabric::OccupancyBoard;
    ///
    /// let mut board = OccupancyBoard::new(8);
    /// board.occupy(0, 1, 3);
    /// board.reset(8);
    /// assert_eq!(board.occupied(0, 1), 0);
    /// // Resizing to a different rack reuses the same board value.
    /// board.reset(16);
    /// assert_eq!(board.mcm_count(), 16);
    /// ```
    pub fn reset(&mut self, mcm_count: u32) {
        let cells = (mcm_count as usize) * (mcm_count as usize);
        self.mcm_count = mcm_count;
        self.occupied.clear();
        self.occupied.resize(cells, 0);
    }

    /// Set one pair back to idle (an O(1) targeted clear, used by the
    /// arena's touched-pair delta-reset instead of wiping the whole board).
    pub fn clear_pair(&mut self, src: u32, dst: u32) {
        let i = self.index(src, dst);
        self.occupied[i] = 0;
    }

    /// Free direct wavelengths from `src` to `dst` on the given fabric.
    pub fn free_wavelengths(&self, fabric: &RackFabric, src: u32, dst: u32) -> u32 {
        fabric
            .direct_wavelengths(src, dst)
            .saturating_sub(self.occupied(src, dst))
    }

    /// The per-source occupancy bit-vector that would be piggybacked on
    /// outgoing traffic (one bit per destination: any wavelength busy).
    /// The paper notes this is ~256 bytes per source even with 8 bits per
    /// wavelength — negligible bandwidth.
    pub fn piggyback_vector(&self, src: u32) -> Vec<bool> {
        let row = src as usize * self.mcm_count as usize;
        self.occupied[row..row + self.mcm_count as usize]
            .iter()
            .map(|&o| o > 0)
            .collect()
    }

    /// Size in bytes of the piggybacked status vector with `bits_per_entry`
    /// bits per destination.
    pub fn piggyback_bytes(&self, bits_per_entry: u32) -> u64 {
        (self.mcm_count as u64 * bits_per_entry as u64).div_ceil(8)
    }
}

/// Statistics accumulated by the router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Flows routed directly.
    pub direct: u64,
    /// Flows routed through one intermediate.
    pub indirect: u64,
    /// Flows routed indirectly that needed a second indirection because the
    /// piggybacked state was stale.
    pub second_indirections: u64,
    /// Flows that could not be routed at all.
    pub blocked: u64,
}

impl RoutingStats {
    /// Total routed (direct + indirect).
    pub fn routed(&self) -> u64 {
        self.direct + self.indirect
    }

    /// Fraction of routed flows that went indirect.
    pub fn indirect_fraction(&self) -> f64 {
        let total = self.routed();
        if total == 0 {
            0.0
        } else {
            self.indirect as f64 / total as f64
        }
    }
}

/// The per-source indirect router.
#[derive(Debug)]
pub struct IndirectRouter {
    rng: StdRng,
    /// Probability that the source's view of a remote wavelength is stale
    /// (the piggybacked state has not caught up with reality).
    staleness_probability: f64,
    stats: RoutingStats,
}

impl IndirectRouter {
    /// Create a router with the given RNG seed and staleness probability.
    pub fn new(seed: u64, staleness_probability: f64) -> Self {
        IndirectRouter {
            rng: StdRng::seed_from_u64(seed),
            staleness_probability: staleness_probability.clamp(0.0, 1.0),
            stats: RoutingStats::default(),
        }
    }

    /// Router with fresh (never stale) state.
    pub fn with_fresh_state(seed: u64) -> Self {
        Self::new(seed, 0.0)
    }

    /// Statistics so far.
    pub fn stats(&self) -> RoutingStats {
        self.stats
    }

    /// Route one flow of `wavelengths_needed` wavelengths from `src` to
    /// `dst`, updating the occupancy board with whatever is allocated.
    ///
    /// Sources only consider indirect paths when the direct wavelengths do
    /// not suffice (Section IV-A); indirect candidates must have a free
    /// wavelength both from `src` to the intermediate and from the
    /// intermediate to `dst`, and the choice among candidates is uniform
    /// (Valiant).
    pub fn route(
        &mut self,
        fabric: &RackFabric,
        board: &mut OccupancyBoard,
        src: u32,
        dst: u32,
        wavelengths_needed: u32,
    ) -> RouteDecision {
        if src == dst || wavelengths_needed == 0 {
            return RouteDecision::Direct;
        }
        // Direct path first.
        let free_direct = board.free_wavelengths(fabric, src, dst);
        if free_direct >= wavelengths_needed {
            board.occupy(src, dst, wavelengths_needed);
            self.stats.direct += 1;
            return RouteDecision::Direct;
        }

        // Collect productive intermediates: src->m and m->dst both free.
        let n = board.mcm_count();
        let deficit = wavelengths_needed - free_direct;
        let candidates: Vec<u32> = (0..n)
            .filter(|&m| m != src && m != dst)
            .filter(|&m| {
                board.free_wavelengths(fabric, src, m) >= deficit
                    && board.free_wavelengths(fabric, m, dst) >= deficit
            })
            .collect();

        if candidates.is_empty() {
            self.stats.blocked += 1;
            return RouteDecision::Blocked;
        }

        let intermediate = candidates[self.rng.gen_range(0..candidates.len())];
        // Allocate: whatever direct capacity exists plus the indirect legs.
        if free_direct > 0 {
            board.occupy(src, dst, free_direct);
        }
        board.occupy(src, intermediate, deficit);
        board.occupy(intermediate, dst, deficit);
        self.stats.indirect += 1;

        // Stale state: with some probability the intermediate's wavelength to
        // the destination was actually busy and the intermediate has to
        // perform a second indirection (extra hop, accounted statistically).
        if self.rng.gen_bool(self.staleness_probability) {
            self.stats.second_indirections += 1;
        }
        RouteDecision::Indirect { intermediate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rackfabric::{FabricKind, RackFabric, RackFabricConfig};

    fn small_awgr_fabric() -> RackFabric {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = 32;
        RackFabric::new(cfg)
    }

    #[test]
    fn direct_when_capacity_available() {
        let fabric = small_awgr_fabric();
        let mut board = OccupancyBoard::new(32);
        let mut router = IndirectRouter::with_fresh_state(1);
        let d = router.route(&fabric, &mut board, 0, 5, 3);
        assert_eq!(d, RouteDecision::Direct);
        assert_eq!(board.occupied(0, 5), 3);
        assert_eq!(router.stats().direct, 1);
    }

    #[test]
    fn indirect_when_direct_exhausted() {
        let fabric = small_awgr_fabric();
        let direct = fabric.direct_wavelengths(0, 5);
        let mut board = OccupancyBoard::new(32);
        let mut router = IndirectRouter::with_fresh_state(2);
        // Saturate the direct wavelengths.
        board.occupy(0, 5, direct);
        let d = router.route(&fabric, &mut board, 0, 5, 2);
        match d {
            RouteDecision::Indirect { intermediate } => {
                assert_ne!(intermediate, 0);
                assert_ne!(intermediate, 5);
                assert_eq!(board.occupied(0, intermediate), 2);
                assert_eq!(board.occupied(intermediate, 5), 2);
            }
            other => panic!("expected indirect, got {other:?}"),
        }
        assert_eq!(d.hops(), 2);
        assert_eq!(router.stats().indirect, 1);
    }

    #[test]
    fn blocked_when_everything_saturated() {
        let fabric = small_awgr_fabric();
        let mut board = OccupancyBoard::new(32);
        // Saturate every wavelength in the fabric.
        for a in 0..32 {
            for b in 0..32 {
                if a != b {
                    board.occupy(a, b, fabric.direct_wavelengths(a, b));
                }
            }
        }
        let mut router = IndirectRouter::with_fresh_state(3);
        let d = router.route(&fabric, &mut board, 0, 5, 1);
        assert_eq!(d, RouteDecision::Blocked);
        assert_eq!(router.stats().blocked, 1);
        assert_eq!(d.hops(), 0);
    }

    #[test]
    fn partial_direct_plus_indirect_allocation() {
        let fabric = small_awgr_fabric();
        let direct = fabric.direct_wavelengths(0, 5);
        let mut board = OccupancyBoard::new(32);
        let mut router = IndirectRouter::with_fresh_state(4);
        // Leave one direct wavelength free, ask for three.
        board.occupy(0, 5, direct - 1);
        let d = router.route(&fabric, &mut board, 0, 5, 3);
        assert!(matches!(d, RouteDecision::Indirect { .. }));
        // The free direct wavelength is used plus two indirect.
        assert_eq!(board.occupied(0, 5), direct);
    }

    #[test]
    fn valiant_choice_varies_with_seed() {
        let fabric = small_awgr_fabric();
        let direct = fabric.direct_wavelengths(0, 5);
        let pick = |seed: u64| {
            let mut board = OccupancyBoard::new(32);
            board.occupy(0, 5, direct);
            let mut router = IndirectRouter::with_fresh_state(seed);
            match router.route(&fabric, &mut board, 0, 5, 1) {
                RouteDecision::Indirect { intermediate } => intermediate,
                other => panic!("expected indirect, got {other:?}"),
            }
        };
        let picks: std::collections::HashSet<u32> = (0..16).map(pick).collect();
        assert!(picks.len() > 1, "Valiant choice should vary across seeds");
    }

    #[test]
    fn stale_state_triggers_second_indirections() {
        let fabric = small_awgr_fabric();
        let mut board = OccupancyBoard::new(32);
        let mut router = IndirectRouter::new(7, 0.5);
        let direct = fabric.direct_wavelengths(0, 5);
        board.occupy(0, 5, direct);
        for _ in 0..200 {
            // Re-route repeatedly without releasing; eventually blocked, so
            // release the indirect legs each time to keep capacity.
            let d = router.route(&fabric, &mut board, 0, 5, 1);
            if let RouteDecision::Indirect { intermediate } = d {
                board.release(0, intermediate, 1);
                board.release(intermediate, 5, 1);
            }
        }
        let s = router.stats();
        assert!(s.second_indirections > 30);
        assert!(s.second_indirections < s.indirect);
    }

    #[test]
    fn fresh_state_never_second_indirects() {
        let fabric = small_awgr_fabric();
        let mut board = OccupancyBoard::new(32);
        let mut router = IndirectRouter::with_fresh_state(9);
        let direct = fabric.direct_wavelengths(0, 5);
        board.occupy(0, 5, direct);
        for _ in 0..50 {
            if let RouteDecision::Indirect { intermediate } =
                router.route(&fabric, &mut board, 0, 5, 1)
            {
                board.release(0, intermediate, 1);
                board.release(intermediate, 5, 1);
            }
        }
        assert_eq!(router.stats().second_indirections, 0);
    }

    #[test]
    fn occupancy_release_saturates_at_zero() {
        let mut board = OccupancyBoard::new(4);
        board.occupy(0, 1, 2);
        board.release(0, 1, 5);
        assert_eq!(board.occupied(0, 1), 0);
    }

    #[test]
    fn piggyback_vector_and_size() {
        let mut board = OccupancyBoard::new(350);
        board.occupy(0, 7, 1);
        let v = board.piggyback_vector(0);
        assert_eq!(v.len(), 350);
        assert!(v[7]);
        assert!(!v[8]);
        // One bit per destination: 350 bits = 44 bytes; 8 bits per entry
        // (the paper's multi-flow example) ~ 350 bytes, i.e. negligible.
        assert_eq!(board.piggyback_bytes(1), 44);
        assert_eq!(board.piggyback_bytes(8), 350);
    }

    #[test]
    fn routing_stats_fractions() {
        let mut s = RoutingStats::default();
        assert_eq!(s.indirect_fraction(), 0.0);
        s.direct = 3;
        s.indirect = 1;
        assert_eq!(s.routed(), 4);
        assert!((s.indirect_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_wavelength_or_self_route_is_trivially_direct() {
        let fabric = small_awgr_fabric();
        let mut board = OccupancyBoard::new(32);
        let mut router = IndirectRouter::with_fresh_state(11);
        assert_eq!(
            router.route(&fabric, &mut board, 3, 3, 5),
            RouteDecision::Direct
        );
        assert_eq!(
            router.route(&fabric, &mut board, 0, 1, 0),
            RouteDecision::Direct
        );
    }
}
