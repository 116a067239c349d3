//! A set-associative, write-back, write-allocate cache with LRU replacement.
//!
//! The model tracks tags only (no data), which is all a timing study needs.
//! Dirty lines are tracked so that writeback traffic can be accounted for by
//! the hierarchy and (in the fabric crate) translated into additional
//! LLC-to-memory bandwidth demand.

use crate::config::CacheConfig;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was present.
    Hit,
    /// The line was absent; if an existing dirty line had to be evicted to
    /// make room, `writeback` carries its address.
    Miss {
        /// Address of the evicted dirty line (aligned to the line size), if
        /// any.
        writeback: Option<u64>,
    },
}

impl LookupResult {
    /// True if the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit)
    }
}

/// Aggregate statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions (writebacks to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1]; zero if there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A single cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    // Way state in set-major arrays: set `s` owns indices
    // `s * assoc..(s + 1) * assoc`. A stamp is the use-counter value of the
    // way's latest touch (larger = more recent); 0 marks an invalid way.
    // All-zero initial state lets the allocator hand out untouched pages.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    use_counter: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from its configuration. Panics if the geometry is
    /// invalid (use [`CacheConfig::validate`] to check first).
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .expect("invalid cache geometry passed to Cache::new");
        let set_count = config.sets();
        let assoc = config.associativity as usize;
        let ways = set_count as usize * assoc;
        Cache {
            config,
            tags: vec![0; ways],
            stamps: vec![0; ways],
            dirty: vec![false; ways],
            assoc,
            set_mask: set_count - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (but keep cache contents, e.g. after a warm-up pass).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Clear contents and statistics.
    pub fn flush(&mut self) {
        self.stamps.fill(0);
        self.dirty.fill(false);
        self.stats = CacheStats::default();
        self.use_counter = 0;
    }

    /// The set index and tag of `addr`, and the way holding its line, if
    /// resident.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64, Option<usize>) {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let base = set_idx * self.assoc;
        let ways = base..base + self.assoc;
        let way = self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .position(|(&t, &stamp)| stamp != 0 && t == tag)
            .map(|w| base + w);
        (set_idx, tag, way)
    }

    /// Install `tag` in set `set_idx` over an invalid way if there is one,
    /// else the LRU way. Returns the evicted line's address if it was dirty.
    fn fill(&mut self, set_idx: usize, tag: u64, dirty: bool) -> Option<u64> {
        let base = set_idx * self.assoc;
        // Invalid ways stamp 0 and valid stamps are distinct, so the first
        // minimum is the first invalid way, or else the LRU way.
        let (lru, _) = self.stamps[base..base + self.assoc]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &stamp)| stamp)
            .expect("cache set has at least one way");
        let victim = base + lru;
        let writeback = if self.stamps[victim] != 0 && self.dirty[victim] {
            self.stats.writebacks += 1;
            let line = (self.tags[victim] << self.set_mask.count_ones()) | set_idx as u64;
            Some(line << self.line_shift)
        } else {
            None
        };
        self.tags[victim] = tag;
        self.stamps[victim] = self.use_counter;
        self.dirty[victim] = dirty;
        writeback
    }

    /// Access the cache. On a miss the line is allocated (write-allocate) and
    /// the LRU victim is evicted; if the victim was dirty its address is
    /// returned for writeback to the next level.
    pub fn access(&mut self, addr: u64, is_write: bool) -> LookupResult {
        self.use_counter += 1;
        self.stats.accesses += 1;
        let (set_idx, tag, way) = self.locate(addr);
        if let Some(way) = way {
            self.stamps[way] = self.use_counter;
            self.dirty[way] |= is_write;
            self.stats.hits += 1;
            return LookupResult::Hit;
        }
        self.stats.misses += 1;
        LookupResult::Miss {
            writeback: self.fill(set_idx, tag, is_write),
        }
    }

    /// Probe without modifying state or statistics: is the line present?
    pub fn contains(&self, addr: u64) -> bool {
        self.locate(addr).2.is_some()
    }

    /// Install a line without counting it as a demand access (used for
    /// writebacks arriving from an upper level). Returns the evicted dirty
    /// line's address, if any.
    pub fn install_writeback(&mut self, addr: u64) -> Option<u64> {
        self.use_counter += 1;
        let (set_idx, tag, way) = self.locate(addr);
        if let Some(way) = way {
            self.dirty[way] = true;
            self.stamps[way] = self.use_counter;
            return None;
        }
        self.fill(set_idx, tag, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            associativity: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(c.access(0x103F, false).is_hit()); // same line
        assert!(!c.access(0x1040, false).is_hit()); // next line
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny_cache();
        // Three lines mapping to the same set (set stride = 4 lines = 256 B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, false);
        c.access(b, false);
        // Touch `a` so `b` becomes the LRU.
        c.access(a, false);
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny_cache();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, true); // dirty
        c.access(b, false);
        c.access(d, false); // evicts a (LRU), which is dirty
        match c.access(b, false) {
            LookupResult::Hit => {}
            _ => panic!("b should still be resident"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn writeback_address_is_line_aligned_original_line() {
        let mut c = tiny_cache();
        let a = 0x1010; // line base 0x1000, set (0x1000>>6)&3 = 0
        let conflict1 = 0x2000; // same set 0
        let conflict2 = 0x3000; // same set 0
        c.access(a, true);
        c.access(conflict1, false);
        let res = c.access(conflict2, false);
        match res {
            LookupResult::Miss { writeback } => assert_eq!(writeback, Some(0x1000)),
            _ => panic!("expected a miss with writeback"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny_cache();
        c.access(0x0000, false);
        c.access(0x0100, false);
        match c.access(0x0200, false) {
            LookupResult::Miss { writeback } => assert_eq!(writeback, None),
            _ => panic!("expected a miss"),
        }
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn working_set_larger_than_cache_always_misses_on_streaming() {
        let mut c = tiny_cache();
        // Stream over 8 KiB (16x the cache) twice: second pass still misses
        // every line because LRU evicted them.
        let mut second_pass_hits = 0;
        for pass in 0..2 {
            for line in 0..(8192 / 64) {
                let hit = c.access(line * 64, false).is_hit();
                if pass == 1 && hit {
                    second_pass_hits += 1;
                }
            }
        }
        assert_eq!(second_pass_hits, 0);
    }

    #[test]
    fn working_set_smaller_than_cache_hits_on_second_pass() {
        let mut c = tiny_cache();
        // 512 B working set = exactly the cache.
        for _ in 0..2 {
            for line in 0..8 {
                c.access(line * 64, false);
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.hits, 8);
    }

    #[test]
    fn flush_and_reset_stats() {
        let mut c = tiny_cache();
        c.access(0x0, true);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains(0x0));
        c.flush();
        assert!(!c.contains(0x0));
    }

    #[test]
    fn install_writeback_marks_dirty_without_demand_stats() {
        let mut c = tiny_cache();
        c.install_writeback(0x1000);
        assert!(c.contains(0x1000));
        assert_eq!(c.stats().accesses, 0);
        // Evicting it later must produce a writeback since it is dirty.
        c.access(0x2000, false);
        c.access(0x3000, false);
        // Set 0 now holds 0x2000/0x3000; 0x1000 was evicted dirty.
        assert!(!c.contains(0x1000));
        assert!(c.stats().writebacks >= 1);
    }

    #[test]
    fn install_writeback_on_resident_line_no_eviction() {
        let mut c = tiny_cache();
        c.access(0x1000, false);
        assert_eq!(c.install_writeback(0x1000), None);
        assert!(c.contains(0x1000));
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny_cache();
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x40, false);
        let s = c.stats();
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn invalid_geometry_panics() {
        Cache::new(CacheConfig {
            capacity_bytes: 100,
            associativity: 3,
            line_bytes: 48,
            hit_latency_cycles: 1,
        });
    }
}
