//! [`TransformCache`]: a sharded-mutex LRU over G2P transforms.
//!
//! The paper's operator pays one text-to-phoneme transformation per query
//! (Figure 8 step 3) before any matching happens; under a serving
//! workload the same hot names arrive over and over, so the transform is
//! the classic memoization target. Keys are `(text, language)` — the same
//! spelling can transform differently under different converters — and
//! values are the finished [`PhonemeString`]s.
//!
//! The map is split into [`CACHE_SHARDS`] independently locked LRUs so
//! concurrent connection threads rarely contend. One keyed hash of the
//! key (std [`RandomState`]: the keys are client bytes) picks the shard
//! with its high bits and the bucket with its low bits. Each shard is a
//! flat slot arena threaded into an intrusive MRU→LRU list, indexed by an
//! open-addressed table of `u32` slot numbers (linear probing,
//! backward-shift deletion). An entry is one exact-size allocation — the
//! text's bytes followed by the phoneme ids — so hit, insert and eviction
//! are O(1), and a lookup borrows the text and allocates nothing beyond
//! the [`PhonemeString`] a hit returns. Hit and miss totals are exposed
//! as relaxed atomic counters (they feed the `STATS` wire command).

use lexequal_g2p::Language;
use lexequal_phoneme::{Phoneme, PhonemeString};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked LRU shards.
pub const CACHE_SHARDS: usize = 8;

/// The hash's top `SHARD_BITS` bits pick the shard.
const SHARD_BITS: u32 = CACHE_SHARDS.trailing_zeros();
const _: () = assert!(CACHE_SHARDS.is_power_of_two() && CACHE_SHARDS > 1);

/// The most slots a shard reserves up front — what the daemon's default
/// `--cache 4096` comes to a shard. `capacity` bounds eviction, not
/// allocation: a larger cache grows into its bound on demand.
const RESERVE_MAX: usize = 512;

/// Ends the LRU list, and marks an empty bucket of the index. Slot
/// numbers stay below it: a shard holds at most `NIL` entries.
const NIL: u32 = u32::MAX;

/// One cached transform.
struct Slot {
    /// The text's bytes, then the phoneme ids: one exact-size allocation.
    entry: Box<[u8]>,
    /// The key's hash, kept so the index can move and grow without
    /// rehashing any text.
    hash: u64,
    text_len: u32,
    prev: u32,
    next: u32,
    language: Language,
}

impl Slot {
    fn text(&self) -> &[u8] {
        &self.entry[..self.text_len as usize]
    }

    fn ids(&self) -> &[u8] {
        &self.entry[self.text_len as usize..]
    }

    fn holds(&self, hash: u64, text: &str, language: Language) -> bool {
        self.hash == hash && self.language == language && self.text() == text.as_bytes()
    }
}

/// One locked LRU: arena of slots threaded into an MRU→LRU list, found
/// through a linear-probed table of slot numbers at most half full.
struct LruShard {
    slots: Vec<Slot>,
    /// Power-of-two sized; a bucket holds a slot number or `NIL`.
    index: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
    /// Sum of the slots' entry lengths.
    entry_bytes: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.min(NIL as usize);
        let reserve = capacity.min(RESERVE_MAX);
        LruShard {
            slots: Vec::with_capacity(reserve),
            index: vec![NIL; (2 * reserve).next_power_of_two()],
            head: NIL,
            tail: NIL,
            capacity,
            entry_bytes: 0,
        }
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The bucket holding the key, or the empty bucket ending its probe.
    fn find(&self, hash: u64, text: &str, language: Language) -> Result<usize, usize> {
        let mut b = hash as usize & self.mask();
        loop {
            match self.index[b] {
                NIL => return Err(b),
                s if self.slots[s as usize].holds(hash, text, language) => return Ok(b),
                _ => b = (b + 1) & self.mask(),
            }
        }
    }

    /// The first empty bucket on `hash`'s probe.
    fn vacant(&self, hash: u64) -> usize {
        let mut b = hash as usize & self.mask();
        while self.index[b] != NIL {
            b = (b + 1) & self.mask();
        }
        b
    }

    /// Take slot `s` out of the index, shifting the rest of its probe run
    /// back so no later key is cut off from its home bucket.
    fn unindex(&mut self, s: u32) {
        let mask = self.mask();
        let mut hole = self.slots[s as usize].hash as usize & mask;
        while self.index[hole] != s {
            hole = (hole + 1) & mask;
        }
        let mut b = (hole + 1) & mask;
        while self.index[b] != NIL {
            let home = self.slots[self.index[b] as usize].hash as usize & mask;
            // The key at `b` may fill the hole unless its home lies
            // cyclically after the hole.
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = self.index[b];
                hole = b;
            }
            b = (b + 1) & mask;
        }
        self.index[hole] = NIL;
    }

    /// Double the index, placing every slot again by its stored hash.
    fn grow(&mut self) {
        self.index = vec![NIL; self.index.len() * 2];
        for s in 0..self.slots.len() {
            let b = self.vacant(self.slots[s].hash);
            self.index[b] = s as u32;
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, hash: u64, text: &str, language: Language) -> Option<PhonemeString> {
        let s = self.index[self.find(hash, text, language).ok()?];
        self.touch(s);
        let phoneme = |&id| Phoneme::from_id(id).expect("cached phoneme ids are inventory ids");
        Some(self.slots[s as usize].ids().iter().map(phoneme).collect())
    }

    /// Insert or refresh. A text too long for a `u32` length is not
    /// cached.
    fn insert(&mut self, hash: u64, text: &str, language: Language, value: &PhonemeString) {
        let Ok(text_len) = u32::try_from(text.len()) else {
            return;
        };
        let mut entry = Vec::with_capacity(text.len() + value.len());
        entry.extend_from_slice(text.as_bytes());
        entry.extend_from_slice(value.id_bytes());
        let entry = entry.into_boxed_slice();
        self.entry_bytes += entry.len();
        if let Ok(b) = self.find(hash, text, language) {
            let s = self.index[b];
            let old = std::mem::replace(&mut self.slots[s as usize].entry, entry);
            self.entry_bytes -= old.len();
            self.touch(s);
            return;
        }
        let slot = Slot {
            entry,
            hash,
            text_len,
            prev: NIL,
            next: NIL,
            language,
        };
        let s = if self.slots.len() >= self.capacity {
            // Evict the LRU slot and reuse it in place.
            let victim = self.tail;
            self.unlink(victim);
            self.unindex(victim);
            let old = std::mem::replace(&mut self.slots[victim as usize], slot);
            self.entry_bytes -= old.entry.len();
            victim
        } else {
            if 2 * (self.slots.len() + 1) > self.index.len() {
                self.grow();
            }
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        let b = self.vacant(hash);
        self.index[b] = s;
        self.push_front(s);
    }

    /// Heap bytes held: the slot arena, the index and every entry.
    fn bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
            + self.index.capacity() * size_of::<u32>()
            + self.entry_bytes
    }
}

/// Concurrent LRU memoizing `(text, language) → PhonemeString`.
pub struct TransformCache {
    shards: Vec<Mutex<LruShard>>,
    hasher: RandomState,
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
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The key's hash and the shard its high bits pick.
    fn locate(&self, text: &str, language: Language) -> (u64, &Mutex<LruShard>) {
        let mut h = self.hasher.build_hasher();
        h.write(text.as_bytes());
        h.write_u8(language as u8);
        let hash = h.finish();
        (
            hash,
            &self.shards[(hash >> (u64::BITS - SHARD_BITS)) as usize],
        )
    }

    fn lookup(
        &self,
        hash: u64,
        shard: &Mutex<LruShard>,
        text: &str,
        language: Language,
    ) -> Option<PhonemeString> {
        let got = shard.lock().expect("cache lock").get(hash, text, language);
        let counter = if got.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Cached transform, counting a hit or a miss.
    pub fn get(&self, text: &str, language: Language) -> Option<PhonemeString> {
        let (hash, shard) = self.locate(text, language);
        self.lookup(hash, shard, text, language)
    }

    /// Insert (or refresh) a finished transform.
    pub fn insert(&self, text: &str, language: Language, value: PhonemeString) {
        let (hash, shard) = self.locate(text, language);
        shard
            .lock()
            .expect("cache lock")
            .insert(hash, text, language, &value);
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
        let (hash, shard) = self.locate(text, language);
        if let Some(v) = self.lookup(hash, shard, text, language) {
            return Ok(v);
        }
        let v = f()?;
        shard
            .lock()
            .expect("cache lock")
            .insert(hash, text, language, &v);
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
            .map(|s| s.lock().expect("cache lock").slots.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the cache holds: every shard's slot arena, index and
    /// entries (the `STATS` key `transform_bytes=`).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").bytes())
            .sum()
    }

    /// The shard `(text, language)` lives in.
    #[cfg(test)]
    fn shard_of(&self, text: &str, language: Language) -> usize {
        (self.locate(text, language).0 >> (u64::BITS - SHARD_BITS)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexequal_phoneme::testkit::{ensure_eq, for_cases, Rng};
    use std::collections::VecDeque;
    use std::ops::RangeInclusive;

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
        let probe = |t: &str| c.shard_of(t, Language::English);
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
        let en = Language::English;
        // One hash for every key: one probe run, told apart by the text.
        let hash = |_: &str| 7;
        c.insert(hash("a"), "a", en, &ps("a"));
        c.insert(hash("e"), "e", en, &ps("e"));
        // Touch "a" so "e" becomes the LRU victim.
        assert!(c.get(hash("a"), "a", en).is_some());
        c.insert(hash("i"), "i", en, &ps("i"));
        assert!(c.get(hash("a"), "a", en).is_some());
        assert!(c.get(hash("e"), "e", en).is_none());
        assert!(c.get(hash("i"), "i", en).is_some());
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

    type Key = (String, Language);

    impl LruShard {
        /// The shard's `(text, language, value)`s, MRU first, after
        /// checking that the list, the index and the byte count agree.
        fn entries(&self) -> Vec<(Key, PhonemeString)> {
            let mut order = Vec::new();
            let (mut prev, mut i) = (NIL, self.head);
            while i != NIL {
                assert_eq!(self.slots[i as usize].prev, prev, "back link of slot {i}");
                order.push(i);
                assert!(order.len() <= self.slots.len(), "the list has a cycle");
                (prev, i) = (i, self.slots[i as usize].next);
            }
            assert_eq!(self.tail, prev);
            assert_eq!(order.len(), self.slots.len(), "every slot is on the list");
            assert!(self.slots.len() <= self.capacity);
            assert!(
                2 * self.slots.len() <= self.index.len(),
                "index over half full"
            );
            let indexed = self.index.iter().filter(|&&s| s != NIL).count();
            assert_eq!(indexed, self.slots.len(), "every slot is indexed once");
            let bytes: usize = self.slots.iter().map(|s| s.entry.len()).sum();
            assert_eq!(self.entry_bytes, bytes);
            order
                .into_iter()
                .map(|s| {
                    let slot = &self.slots[s as usize];
                    let text = String::from_utf8(slot.text().to_vec()).expect("UTF-8 text");
                    let found = self.find(slot.hash, &text, slot.language);
                    assert_eq!(found.map(|b| self.index[b]), Ok(s), "slot {s} is found");
                    let value = slot.ids().iter().map(|&id| Phoneme::from_id(id).unwrap());
                    ((text, slot.language), value.collect())
                })
                .collect()
        }
    }

    /// The reference: a queue of `(key, value)`, MRU at the front.
    struct ModelLru {
        capacity: usize,
        queue: VecDeque<(Key, PhonemeString)>,
    }

    impl ModelLru {
        fn new(capacity: usize) -> Self {
            ModelLru {
                capacity,
                queue: VecDeque::new(),
            }
        }

        fn get(&mut self, key: &Key) -> Option<PhonemeString> {
            let i = self.queue.iter().position(|(k, _)| k == key)?;
            let entry = self.queue.remove(i).expect("in range");
            self.queue.push_front(entry.clone());
            Some(entry.1)
        }

        /// Insert or refresh; whether an entry was evicted.
        fn insert(&mut self, key: Key, value: PhonemeString) -> bool {
            let mut evicted = false;
            if let Some(i) = self.queue.iter().position(|(k, _)| *k == key) {
                self.queue.remove(i);
            } else if self.queue.len() >= self.capacity {
                evicted = self.queue.pop_back().is_some();
            }
            self.queue.push_front((key, value));
            evicted
        }
    }

    /// Distinct texts for the model tests: short random ones, the empty
    /// text and two 64 KiB texts that differ only in their last byte.
    fn texts(rng: &mut Rng, lens: RangeInclusive<usize>) -> Vec<String> {
        let mut texts = rng.vec(lens, |rng| rng.string("a-z", 0..=6));
        for (i, text) in texts.iter_mut().enumerate() {
            text.push_str(&i.to_string());
        }
        let long = "x".repeat(64 * 1024 - 1);
        texts.extend([String::new(), format!("{long}y"), format!("{long}z")]);
        texts
    }

    /// A key drawn from `texts`, a few hot ones half the time; either
    /// language, so one text is often cached under both.
    fn key(rng: &mut Rng, texts: &[String]) -> Key {
        let text = if rng.below(2) == 0 {
            &texts[rng.below(texts.len().min(8))]
        } else {
            rng.pick(texts)
        };
        (
            text.clone(),
            *rng.pick(&[Language::English, Language::Hindi]),
        )
    }

    #[test]
    fn the_cache_is_a_per_shard_lru() {
        for (cap, cases, text_lens, op_lens) in [
            (1, 48, 0..=12, 0..=200),
            (2, 48, 0..=12, 0..=200),
            (7, 48, 0..=40, 0..=400),
            (4096, 2, 2500..=2500, 30_000..=30_000),
            (usize::MAX, 2, 0..=1000, 0..=4000),
        ] {
            let mut evicted = false;
            for_cases(cap as u64, cases, |rng| {
                let c = TransformCache::new(cap);
                let per_shard = cap.div_ceil(CACHE_SHARDS).max(1);
                let mut models: Vec<_> = (0..CACHE_SHARDS)
                    .map(|_| ModelLru::new(per_shard))
                    .collect();
                let texts = texts(rng, text_lens.clone());
                let (mut hits, mut misses) = (0, 0);
                let ops = rng.vec(op_lens.clone(), |rng| rng.below(3));
                for (n, op) in ops.into_iter().enumerate() {
                    let (text, lang) = key(rng, &texts);
                    let model = &mut models[c.shard_of(&text, lang)];
                    let key = (text, lang);
                    let value = rng.phonemes(0..=12);
                    match op {
                        0 => {
                            let want = model.get(&key);
                            *(if want.is_some() {
                                &mut hits
                            } else {
                                &mut misses
                            }) += 1;
                            ensure_eq(c.get(&key.0, lang), want)?;
                        }
                        1 => {
                            evicted |= model.insert(key.clone(), value.clone());
                            c.insert(&key.0, lang, value);
                        }
                        _ => {
                            let fail = rng.below(8) == 0;
                            let cached = model.get(&key);
                            let hit = cached.is_some();
                            *(if hit { &mut hits } else { &mut misses }) += 1;
                            let want = match cached {
                                Some(v) => Ok(v),
                                None if fail => Err(()),
                                None => {
                                    evicted |= model.insert(key.clone(), value.clone());
                                    Ok(value.clone())
                                }
                            };
                            let mut calls = 0;
                            let got = c.get_or_try_insert_with(&key.0, lang, || {
                                calls += 1;
                                if fail {
                                    Err(())
                                } else {
                                    Ok(value)
                                }
                            });
                            ensure_eq(calls, usize::from(!hit))?;
                            ensure_eq(got, want)?;
                        }
                    }
                    ensure_eq(c.stats(), (hits, misses))?;
                    if n % 256 == 0 || per_shard < 16 {
                        for (s, model) in models.iter().enumerate() {
                            let got = c.shards[s].lock().unwrap().entries();
                            ensure_eq(&got, &Vec::from(model.queue.clone()))?;
                        }
                    }
                }
                let want: usize = models.iter().map(|m| m.queue.len()).sum();
                ensure_eq(c.len(), want)?;
                for (s, model) in models.iter().enumerate() {
                    let got = c.shards[s].lock().unwrap().entries();
                    ensure_eq(got, Vec::from(model.queue.clone()))?;
                }
                Ok(())
            });
            // The bounded capacities all reached their bound.
            assert_eq!(evicted, cap != usize::MAX, "capacity {cap}");
        }
    }

    #[test]
    fn one_probe_run_survives_evictions_and_growth() {
        // Every key's home is one of three adjacent buckets (wrapping past
        // the last one for some cases), so all keys share one probe run
        // and each eviction deletes from inside it; every other pair of
        // keys has one whole hash. `usize::MAX` grows the index past its
        // reserve.
        for (cap, cases, ops_max) in [
            (1, 32, 100),
            (2, 32, 100),
            (7, 48, 300),
            (512, 4, 3000),
            (usize::MAX, 2, 2000),
        ] {
            for_cases(cap as u64 ^ 0xB5, cases, |rng| {
                let mut shard = LruShard::new(cap);
                let mut model = ModelLru::new(cap);
                let texts = texts(rng, 0..=ops_max / 2);
                let home = *rng.pick(&[0, 1, u32::MAX - 1, u32::MAX]);
                let hash = |key: &Key| {
                    let i = texts
                        .iter()
                        .position(|t| *t == key.0)
                        .expect("a drawn text");
                    let i = 2 * i + usize::from(key.1 == Language::Hindi);
                    ((i as u64 / 2) << 32) | u64::from(home.wrapping_add(i as u32 / 2 % 3))
                };
                let ops = rng.vec(0..=ops_max, |rng| rng.below(2));
                for (n, op) in ops.into_iter().enumerate() {
                    let key = key(rng, &texts);
                    let h = hash(&key);
                    if op == 0 {
                        ensure_eq(shard.get(h, &key.0, key.1), model.get(&key))?;
                    } else {
                        let value = rng.phonemes(0..=12);
                        shard.insert(h, &key.0, key.1, &value);
                        model.insert(key, value);
                    }
                    if n % 64 == 0 || cap < 16 {
                        ensure_eq(shard.entries(), Vec::from(model.queue.clone()))?;
                    }
                }
                ensure_eq(shard.entries(), Vec::from(model.queue.clone()))
            });
        }
    }
}
