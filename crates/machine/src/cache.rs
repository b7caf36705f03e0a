//! Per-node last-level cache model.
//!
//! Page-granular FIFO residency: fine enough to make the Figure-8
//! crossover (working sets beyond the 2 MB shared L3 suddenly paying DRAM
//! and NUMA costs) appear, coarse enough to stay cheap. The paper's L3 is
//! shared by the node's four cores, which the per-node granularity models
//! directly.
//!
//! Residency tables are sized on use: a cache starts with no host
//! allocation and reserves its full table only when it first fills, so
//! a machine that touches a handful of pages costs a handful of entries,
//! while a cache that fills ends at the same table size as one reserved
//! up front.

use numa_sim::FxHashMap;
use std::collections::VecDeque;

/// A page-granular FIFO cache of fixed capacity.
///
/// Invalidation is lazy: `invalidate` only drops the page from the
/// residency map, leaving a stale entry in the FIFO order that eviction
/// skips (each entry carries the sequence number it was inserted under,
/// so a re-inserted page is never confused with its stale ghost). This
/// keeps `invalidate` O(1) — it runs once per migrated page, and
/// migration-heavy runs (next-touch LU) used to spend a linear
/// `retain` over the whole FIFO on every one. The eviction *order* of
/// live pages is exactly the eager scheme's.
#[derive(Debug, Clone)]
pub struct L3Cache {
    capacity: usize,
    /// Insertion counter; tags FIFO entries so stale ones are skippable.
    seq: u64,
    /// FIFO of (insertion seq, vpn); may contain stale entries.
    order: VecDeque<(u64, u64)>,
    /// vpn -> seq of its live FIFO entry. Size == live page count.
    resident: FxHashMap<u64, u64>,
    hits: u64,
    misses: u64,
}

impl L3Cache {
    /// A cache holding `capacity` pages. Nothing is allocated until the
    /// first touch.
    pub fn new(capacity: usize) -> Self {
        L3Cache {
            capacity,
            seq: 0,
            order: VecDeque::new(),
            resident: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Touch page `vpn`: returns `true` on hit. Misses insert the page,
    /// evicting FIFO when full.
    pub fn touch(&mut self, vpn: u64) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        if self.resident.contains_key(&vpn) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.resident.len() == self.capacity {
            // Pop stale ghosts until the oldest *live* page is evicted.
            while let Some((seq, old)) = self.order.pop_front() {
                if self.resident.get(&old) == Some(&seq) {
                    self.resident.remove(&old);
                    break;
                }
            }
        } else if self.resident.len() + 1 == self.capacity {
            // This miss fills the cache: reserve room for 2 × capacity
            // entries, so a full cache evicts at a low load factor and
            // never rehashes again.
            self.resident
                .reserve(2 * self.capacity - self.resident.len());
            self.order
                .reserve_exact(self.capacity.saturating_sub(self.order.len()));
        }
        self.seq += 1;
        self.order.push_back((self.seq, vpn));
        self.resident.insert(vpn, self.seq);
        false
    }

    /// Invalidate one page (after migration the cached copy is stale on
    /// the *old* node; on real hardware coherence handles this — here we
    /// drop it so residency follows the data).
    pub fn invalidate(&mut self, vpn: u64) {
        self.resident.remove(&vpn);
        // Bound the stale backlog so the FIFO cannot outgrow the cache
        // under invalidation storms with few evictions.
        if self.order.len() >= 2 * self.capacity.max(32) {
            let resident = &self.resident;
            self.order.retain(|(seq, v)| resident.get(v) == Some(seq));
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.order.clear();
        self.resident.clear();
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = L3Cache::new(4);
        assert!(!c.touch(1));
        assert!(c.touch(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn fifo_eviction() {
        let mut c = L3Cache::new(2);
        c.touch(1);
        c.touch(2);
        c.touch(3); // evicts 1
        assert!(!c.touch(1), "1 was evicted");
        assert!(c.len() <= 2);
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut c = L3Cache::new(8);
        for round in 0..5 {
            for vpn in 0..8u64 {
                let hit = c.touch(vpn);
                assert_eq!(hit, round > 0);
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_fifo() {
        // Sequential sweep over capacity+1 pages: FIFO gives 0 hits.
        let mut c = L3Cache::new(4);
        for _ in 0..3 {
            for vpn in 0..5u64 {
                assert!(!c.touch(vpn));
            }
        }
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = L3Cache::new(4);
        c.touch(7);
        c.invalidate(7);
        assert!(!c.touch(7));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = L3Cache::new(0);
        assert!(!c.touch(1));
        assert!(!c.touch(1));
    }

    #[test]
    fn residency_tables_are_sized_on_use() {
        // The paper's 2 MB L3 in 4 KiB pages.
        let mut c = L3Cache::new(512);
        assert_eq!(c.resident.capacity(), 0, "a fresh cache allocates nothing");
        for vpn in 0..6 {
            c.touch(vpn);
        }
        assert!(
            c.resident.capacity() < 2 * 512,
            "6 pages reserve a small table"
        );
        assert!(c.order.capacity() < 512);
        for vpn in 6..512 {
            c.touch(vpn);
        }
        assert_eq!(c.len(), 512);
        let full = FxHashMap::<u64, u64>::with_capacity_and_hasher(2 * 512, Default::default());
        assert_eq!(
            c.resident.capacity(),
            full.capacity(),
            "full cache: full table"
        );
        assert!(c.order.capacity() >= 512);
        // Steady-state eviction keeps the table it reserved at the fill.
        for vpn in 512..4096 {
            c.touch(vpn);
        }
        assert_eq!(c.resident.capacity(), full.capacity());
    }

    /// The eager scheme the lazy cache must match: a FIFO of live pages,
    /// membership by linear scan, invalidation by removal.
    struct EagerFifo {
        capacity: usize,
        order: VecDeque<u64>,
        hits: u64,
        misses: u64,
    }

    impl EagerFifo {
        fn touch(&mut self, vpn: u64) -> bool {
            if self.capacity > 0 && self.order.contains(&vpn) {
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.capacity > 0 {
                if self.order.len() == self.capacity {
                    self.order.pop_front();
                }
                self.order.push_back(vpn);
            }
            false
        }

        fn invalidate(&mut self, vpn: u64) {
            self.order.retain(|&v| v != vpn);
        }
    }

    #[test]
    fn lockstep_with_eager_fifo() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let (mut fills, mut compactions) = (0, 0);
        for case in 0..200 {
            let capacity = [0, 1, 2, 5, 8, 31, 40][case % 7];
            let pages = 2 * capacity as u64 + 3;
            // Invalidation-heavy cases rarely evict, so ghosts pile up
            // until the compaction bound trims them.
            let invalidate_pct = [10, 34, 60][case % 3];
            let mut lazy = L3Cache::new(capacity);
            let mut eager = EagerFifo {
                capacity,
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            };
            for step in 0..2_000 {
                let vpn = next(pages);
                let roll = next(100);
                if roll == 0 {
                    lazy.clear();
                    eager.order.clear();
                } else if roll <= invalidate_pct {
                    let before = lazy.order.len();
                    lazy.invalidate(vpn);
                    eager.invalidate(vpn);
                    compactions += (lazy.order.len() < before) as u32;
                } else {
                    let hit = lazy.touch(vpn);
                    assert_eq!(hit, eager.touch(vpn), "case {case} step {step} vpn {vpn}");
                    fills += (capacity > 0 && lazy.len() == capacity) as u32;
                }
                assert_eq!(lazy.len(), eager.order.len(), "case {case} step {step}");
                assert_eq!(lazy.hits(), eager.hits, "case {case} step {step}");
                assert_eq!(lazy.misses(), eager.misses, "case {case} step {step}");
            }
        }
        assert!(fills > 0, "sequences must cross the fill point");
        assert!(
            compactions > 0,
            "sequences must cross the ghost-compaction bound"
        );
    }
}
