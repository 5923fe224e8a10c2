//! Set-associative cache model with LRU replacement.
//!
//! Caches are **shared between hardware threads** — exactly the resource
//! the paper's α abstracts over: co-scheduled versions evict each other's
//! lines (raising α) while memory-stall cycles of one thread can be hidden
//! by the other (lowering α). Tags carry the owning thread id because the
//! VDS system model mandates separate address spaces; two threads' equal
//! addresses are *different* memory.
//!
//! The model is timing-only: hit or miss, with the data held in the
//! thread's address space. Line size is in words; a miss costs the
//! configured memory latency.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in 32-bit words (power of two).
    pub line_words: usize,
}

impl CacheConfig {
    /// A small default: 64 sets × 2 ways × 4-word lines = 2 KiB (512
    /// words) — deliberately modest so that realistic kernels contend.
    pub fn small() -> Self {
        CacheConfig {
            sets: 64,
            ways: 2,
            line_words: 4,
        }
    }

    /// A tiny cache for stress-testing conflict behaviour.
    pub fn tiny() -> Self {
        CacheConfig {
            sets: 8,
            ways: 1,
            line_words: 4,
        }
    }

    /// Capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.sets * self.ways * self.line_words
    }

    fn validate(&self) {
        assert!(self.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            self.line_words.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways >= 1, "need at least one way");
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    /// `thread << 32 | tag` ([`line_key`]) — thread id participates in
    /// the tag because address spaces are disjoint. [`EMPTY`] for an
    /// invalid way.
    key: u64,
    /// LRU stamp; larger = more recent.
    stamp: u64,
}

/// Key of an invalid way; no `(thread, tag)` pair packs to it.
const EMPTY: u64 = u64::MAX;

const INVALID: Line = Line {
    key: EMPTY,
    stamp: 0,
};

#[inline]
fn line_key(thread: u8, tag: u32) -> u64 {
    u64::from(thread) << 32 | u64::from(tag)
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses caused by a *different* thread having evicted the line
    /// (inter-thread conflict; only counted when the line was previously
    /// present for this thread).
    pub thread_conflicts: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 1 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A shared, timing-only, set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets × ways` lines, set-major: set `i` is `lines[i * ways..][..ways]`.
    lines: Vec<Line>,
    /// `log2(line_words)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    clock: u64,
    stats: CacheStats,
    /// Keys of lines evicted by a thread other than their owner, to
    /// attribute the owner's re-miss as a conflict; bounded by capacity.
    evicted_by_other: Vec<u64>,
}

impl Cache {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        Cache {
            cfg,
            lines: vec![INVALID; cfg.sets * cfg.ways],
            line_shift: cfg.line_words.trailing_zeros(),
            set_shift: cfg.sets.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
            evicted_by_other: Vec::new(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate everything (e.g. at a simulated context switch if the
    /// host wants cold-cache semantics).
    pub fn flush(&mut self) {
        self.lines.fill(INVALID);
        self.evicted_by_other.clear();
    }

    #[inline]
    fn index_tag(&self, addr: u32) -> (usize, u32) {
        // sets and line size are validated powers of two
        let line = addr as usize >> self.line_shift;
        (line & (self.cfg.sets - 1), (line >> self.set_shift) as u32)
    }

    /// Access `addr` (word address) on behalf of `thread`. Returns `true`
    /// on hit. A miss allocates the line (for stores too: write-allocate).
    #[inline]
    pub fn access(&mut self, thread: u8, addr: u32) -> bool {
        self.clock += 1;
        let (set_idx, tag) = self.index_tag(addr);
        let key = line_key(thread, tag);
        let ways = self.cfg.ways;
        let set = &mut self.lines[set_idx * ways..][..ways];

        if let Some(line) = set.iter_mut().find(|l| l.key == key) {
            line.stamp = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.fill(set_idx, key);
        false
    }

    /// The miss path of [`Cache::access`]: allocate `key` in set `set_idx`.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, set_idx: usize, key: u64) {
        let ways = self.cfg.ways;
        let set = &mut self.lines[set_idx * ways..][..ways];
        self.stats.misses += 1;
        if let Some(pos) = self.evicted_by_other.iter().position(|&k| k == key) {
            self.stats.thread_conflicts += 1;
            self.evicted_by_other.swap_remove(pos);
        }

        // choose victim: empty way or LRU (stamps are unique)
        let victim = match set.iter().position(|l| l.key == EMPTY) {
            Some(i) => i,
            None => {
                let (i, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .expect("non-empty set");
                i
            }
        };
        let old = set[victim].key;
        if old != EMPTY && old >> 32 != key >> 32 {
            // remember cross-thread eviction so a re-miss by the owner
            // counts as an inter-thread conflict
            if self.evicted_by_other.len() < self.cfg.capacity_words() {
                self.evicted_by_other.push(old);
            }
        }
        set[victim] = Line {
            key,
            stamp: self.clock,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new(CacheConfig::small());
        assert!(!c.access(0, 100));
        assert!(c.access(0, 100));
        assert!(c.access(0, 101), "same line (4-word lines)");
        assert!(!c.access(0, 104), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn threads_do_not_share_lines() {
        let mut c = Cache::new(CacheConfig::small());
        c.access(0, 100);
        assert!(
            !c.access(1, 100),
            "same address, different thread: separate address spaces"
        );
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // tiny: 8 sets, direct-mapped, 4-word lines. Two addresses that
        // map to the same set: stride = sets * line_words = 32 words.
        let mut c = Cache::new(CacheConfig::tiny());
        assert!(!c.access(0, 0));
        assert!(!c.access(0, 32), "conflicting line evicts");
        assert!(!c.access(0, 0), "original line was evicted");
    }

    #[test]
    fn two_way_set_holds_two_conflicting_lines() {
        let cfg = CacheConfig {
            sets: 8,
            ways: 2,
            line_words: 4,
        };
        let mut c = Cache::new(cfg);
        c.access(0, 0);
        c.access(0, 32);
        assert!(c.access(0, 0));
        assert!(c.access(0, 32));
        // a third conflicting line evicts the LRU (addr 0 was touched
        // first in this round... order: 0 hit, 32 hit, so 0 is LRU)
        c.access(0, 64);
        assert!(!c.access(0, 0));
    }

    #[test]
    fn inter_thread_conflicts_are_attributed() {
        let mut c = Cache::new(CacheConfig::tiny());
        c.access(0, 0); // T0 owns line
        c.access(1, 0); // T1's same-set line evicts it (different key)
        c.access(0, 0); // T0 re-misses: inter-thread conflict
        assert_eq!(c.stats().thread_conflicts, 1);
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(CacheConfig::small());
        c.access(0, 0);
        c.flush();
        assert!(!c.access(0, 0));
    }

    #[test]
    fn hit_rate() {
        let mut c = Cache::new(CacheConfig::small());
        assert_eq!(c.stats().hit_rate(), 1.0);
        c.access(0, 0);
        c.access(0, 0);
        c.access(0, 0);
        c.access(0, 0);
        assert_eq!(c.stats().hit_rate(), 0.75);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_validated() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_words: 4,
        });
    }
}
