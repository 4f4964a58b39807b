//! [`TransformCache`]: a sharded-mutex LRU over G2P transforms.
//!
//! The paper's operator pays one text-to-phoneme transformation per query
//! (Figure 8 step 3) before any matching happens; under a serving
//! workload the same hot names arrive over and over, so the transform is
//! the classic memoization target. Keys are `(text, language)` — the same
//! spelling can transform differently under different converters — and
//! values are the finished [`PhonemeString`]s.
//!
//! The map is split into [`CACHE_SHARDS`] independently locked LRUs
//! (selected by key hash) so concurrent connection threads rarely
//! contend; each shard is an arena-backed intrusive doubly-linked list,
//! giving O(1) hit, insert and eviction with no per-entry allocation
//! beyond the key/value themselves. Hit and miss totals are exposed as
//! relaxed atomic counters (they feed the `STATS` wire command).

use lexequal_g2p::Language;
use lexequal_phoneme::PhonemeString;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked LRU shards.
pub const CACHE_SHARDS: usize = 8;

/// The most slots a shard reserves up front — what the daemon's default
/// `--cache 4096` comes to a shard. `capacity` bounds eviction, not
/// allocation: a larger cache grows into its bound on demand.
const RESERVE_MAX: usize = 512;

const NIL: usize = usize::MAX;

struct Slot {
    key: (String, Language),
    value: PhonemeString,
    prev: usize,
    next: usize,
}

/// One locked LRU: arena of slots threaded into an MRU→LRU list.
struct LruShard {
    map: HashMap<(String, Language), usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        let reserve = capacity.min(RESERVE_MAX);
        LruShard {
            map: HashMap::with_capacity(reserve),
            slots: Vec::with_capacity(reserve),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &(String, Language)) -> Option<PhonemeString> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slots[i].value.clone())
    }

    fn insert(&mut self, key: (String, Language), value: PhonemeString) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.map.len() >= self.capacity && self.tail != NIL {
            // Evict the LRU slot and reuse it in place.
            let victim = self.tail;
            self.unlink(victim);
            let old_key = std::mem::replace(&mut self.slots[victim].key, key.clone());
            self.slots[victim].value = value;
            self.map.remove(&old_key);
            victim
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// Concurrent LRU memoizing `(text, language) → PhonemeString`.
pub struct TransformCache {
    shards: Vec<Mutex<LruShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TransformCache {
    /// A cache holding at most ≈`capacity` entries (rounded up to a
    /// multiple of [`CACHE_SHARDS`]).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(CACHE_SHARDS).max(1);
        TransformCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &(String, Language)) -> &Mutex<LruShard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % CACHE_SHARDS]
    }

    /// Cached transform, counting a hit or a miss.
    pub fn get(&self, text: &str, language: Language) -> Option<PhonemeString> {
        // Borrowed lookup keys for (String, Language) pairs aren't
        // expressible with the std Borrow machinery; one short-lived
        // String per miss is the price of keeping std-only.
        let key = (text.to_owned(), language);
        let got = self.shard(&key).lock().expect("cache lock").get(&key);
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a finished transform.
    pub fn insert(&self, text: &str, language: Language, value: PhonemeString) {
        let key = (text.to_owned(), language);
        self.shard(&key)
            .lock()
            .expect("cache lock")
            .insert(key, value);
    }

    /// Cached transform, or compute-and-fill via `f`. The lock is *not*
    /// held while `f` runs; two racing threads may both compute, with the
    /// later insert refreshing the earlier — acceptable for a memo table.
    pub fn get_or_try_insert_with<E>(
        &self,
        text: &str,
        language: Language,
        f: impl FnOnce() -> Result<PhonemeString, E>,
    ) -> Result<PhonemeString, E> {
        if let Some(v) = self.get(text, language) {
            return Ok(v);
        }
        let v = f()?;
        self.insert(text, language, v.clone());
        Ok(v)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of currently cached entries (sums shard sizes).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PhonemeString {
        s.parse().expect("valid IPA")
    }

    #[test]
    fn hit_miss_accounting() {
        let c = TransformCache::new(64);
        assert!(c.get("Nehru", Language::English).is_none());
        c.insert("Nehru", Language::English, ps("nɛru"));
        assert_eq!(c.get("Nehru", Language::English), Some(ps("nɛru")));
        // Same text under another language is a distinct key.
        assert!(c.get("Nehru", Language::French).is_none());
        assert_eq!(c.stats(), (1, 2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_is_lru_order() {
        // One entry per shard overall capacity: shards get capacity 1.
        let c = TransformCache::new(1);
        // Craft keys that land in the same shard by brute force.
        let mut same_shard = Vec::new();
        let probe = |t: &str| {
            let key = (t.to_owned(), Language::English);
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            h.finish() as usize % CACHE_SHARDS
        };
        let target = probe("a0");
        for i in 0.. {
            let t = format!("a{i}");
            if probe(&t) == target {
                same_shard.push(t);
                if same_shard.len() == 3 {
                    break;
                }
            }
        }
        let [k0, k1, k2] = &same_shard[..] else {
            unreachable!()
        };
        c.insert(k0, Language::English, ps("a"));
        c.insert(k1, Language::English, ps("e"));
        // k0 was evicted by k1 (capacity 1).
        assert!(c.get(k0, Language::English).is_none());
        assert_eq!(c.get(k1, Language::English), Some(ps("e")));
        c.insert(k2, Language::English, ps("i"));
        assert!(c.get(k1, Language::English).is_none());
        assert_eq!(c.get(k2, Language::English), Some(ps("i")));
    }

    #[test]
    fn a_huge_capacity_reserves_nothing_and_evicts_nothing_early() {
        // `usize::MAX` used to panic (`Hash table capacity overflow`) and
        // 4e9 to ask the allocator for 44 GB before the first request.
        let c = TransformCache::new(usize::MAX);
        let n = RESERVE_MAX * CACHE_SHARDS * 2;
        for i in 0..n {
            c.insert(&format!("n{i}"), Language::English, ps("a"));
        }
        assert_eq!(c.len(), n);
        assert!((0..n).all(|i| c.get(&format!("n{i}"), Language::English).is_some()));
        // The reservation stops at what `--cache 4096` always reserved.
        let reserved = |capacity| LruShard::new(capacity).slots.capacity();
        assert_eq!(reserved(usize::MAX), reserved(RESERVE_MAX));
        assert!(reserved(RESERVE_MAX) >= RESERVE_MAX);
    }

    #[test]
    fn recency_updates_on_hit() {
        let c = LruShard::new(2);
        let mut c = c;
        let key = |s: &str| (s.to_owned(), Language::English);
        c.insert(key("a"), ps("a"));
        c.insert(key("e"), ps("e"));
        // Touch "a" so "e" becomes the LRU victim.
        assert!(c.get(&key("a")).is_some());
        c.insert(key("i"), ps("i"));
        assert!(c.get(&key("a")).is_some());
        assert!(c.get(&key("e")).is_none());
        assert!(c.get(&key("i")).is_some());
    }

    #[test]
    fn get_or_try_insert_with_fills_once() {
        let c = TransformCache::new(16);
        let mut calls = 0;
        for _ in 0..3 {
            let v: Result<_, std::convert::Infallible> =
                c.get_or_try_insert_with("Nehru", Language::English, || {
                    calls += 1;
                    Ok(ps("nɛru"))
                });
            assert_eq!(v.unwrap(), ps("nɛru"));
        }
        assert_eq!(calls, 1);
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = std::sync::Arc::new(TransformCache::new(128));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..200 {
                        let text = format!("n{}", (i + t) % 32);
                        let _ = c.get_or_try_insert_with::<std::convert::Infallible>(
                            &text,
                            Language::English,
                            || Ok(ps("nɛru")),
                        );
                    }
                });
            }
        });
        let (hits, misses) = c.stats();
        assert_eq!(hits + misses, 800);
        assert!(c.len() <= 128);
    }
}
