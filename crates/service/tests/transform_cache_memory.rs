//! What the transform cache costs in heap: a full `--cache 4096` cache of
//! cold-pool-shaped names (two lexicon names run together, in English,
//! Hindi and Tamil script) holds at most 128 requested bytes an entry,
//! `TransformCache::bytes` (the `STATS` key `transform_bytes=`) accounts
//! for all of it but the shard headers, a hit allocates only the
//! `PhonemeString` it returns and a miss allocates nothing.
//!
//! The counting allocator is per thread (as in `bulk_load.rs`): the test
//! harness's own threads are not what is measured.

use lexequal::MatchConfig;
use lexequal_g2p::Language;
use lexequal_lexicon::Corpus;
use lexequal_phoneme::testkit::Rng;
use lexequal_phoneme::PhonemeString;
use lexequal_service::TransformCache;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

thread_local! {
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes allocated minus requested bytes freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocations: u64, bytes: i64) {
    if COUNT_THIS_THREAD.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
    }
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counters are
// thread-local `Cell`s with no allocation of their own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `f`'s result, the allocations it made on this thread and the
/// requested bytes it left allocated.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    COUNT_THIS_THREAD.with(|c| c.set(true));
    let out = f();
    COUNT_THIS_THREAD.with(|c| c.set(false));
    (
        out,
        ALLOCATIONS.with(Cell::get) - allocations,
        LIVE_BYTES.with(Cell::get) - bytes,
    )
}

const CAPACITY: usize = 4096;

/// `n` distinct names shaped like lexbench's cold pool: two names of one
/// language's lexicon run together, the phonemes concatenated likewise.
fn cold_names(n: usize) -> Vec<(String, Language, PhonemeString)> {
    let corpus = Corpus::build_prefix(&MatchConfig::default(), 200);
    let by_language = [Language::English, Language::Hindi, Language::Tamil].map(|language| {
        let names: Vec<_> = corpus
            .entries
            .iter()
            .filter(|e| e.language == language)
            .collect();
        (language, names)
    });
    let mut rng = Rng::new(0xC01D);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (language, names) = rng.pick(&by_language);
        let (a, b) = (rng.pick(names), rng.pick(names));
        let text = format!("{}{}", a.text, b.text);
        if seen.insert((text.clone(), *language)) {
            out.push((text, *language, a.phonemes.concat(&b.phonemes)));
        }
    }
    out
}

fn filled(names: &[(String, Language, PhonemeString)]) -> TransformCache {
    let cache = TransformCache::new(CAPACITY);
    for (text, language, phonemes) in names {
        cache.insert(text, *language, phonemes.clone());
    }
    cache
}

#[test]
fn a_full_cache_holds_at_most_128_requested_bytes_an_entry() {
    let names = cold_names(CAPACITY);
    let (cache, _, bytes) = measured(|| filled(&names));
    let entries = cache.len();
    // Shards fill unevenly: a few keys beyond a full shard are evicted.
    assert!(entries > CAPACITY * 9 / 10, "{entries} entries");
    let per_entry = bytes as f64 / entries as f64;
    println!("{entries} entries, {bytes} requested bytes, {per_entry:.1} an entry");
    assert!(
        per_entry <= 128.0,
        "{per_entry:.1} requested bytes an entry"
    );
    let reported = cache.bytes() as i64;
    assert!(
        reported <= bytes && bytes - reported < 1024,
        "bytes() reports {reported} of {bytes}"
    );
}

#[test]
fn a_hit_allocates_its_result_only_and_a_miss_nothing() {
    let names = cold_names(CAPACITY);
    let cache = filled(&names);
    // The last names in are the most recent of their shards: all cached.
    for (text, language, phonemes) in &names[names.len() - 64..] {
        let want = Some(phonemes.clone());
        let (got, allocations, _) = measured(|| cache.get(text, *language));
        assert_eq!(got, want);
        assert_eq!(allocations, 1, "a hit on {text:?}");
        let (got, allocations, _) =
            measured(|| cache.get_or_try_insert_with(text, *language, || Err("computed on a hit")));
        assert_eq!(got.ok(), want);
        assert_eq!(
            allocations, 1,
            "a hit through get_or_try_insert_with on {text:?}"
        );
        let (got, allocations, _) = measured(|| cache.get(text, Language::Greek));
        assert_eq!((got, allocations), (None, 0), "a miss on {text:?}");
    }
    let (got, allocations, _) = measured(|| cache.get("no such name", Language::English));
    assert_eq!((got, allocations), (None, 0));
}
