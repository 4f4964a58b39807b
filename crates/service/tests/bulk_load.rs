//! Every way into the store is one way: a [`Loader`], the prefix reader
//! run backwards. It stripes the rows it is pushed into one chunk a shard,
//! sends full chunks to the workers and publishes the length once — so a
//! store filled through it, by any door, across any chunk seam and stripe
//! phase, on top of whatever the store already held, must be the store
//! that `insert` fills one row at a time: every entry, every path's ids
//! and verification counts before and after a cover, the image byte for
//! byte. A row refused mid-load ends the load where it stands, and a load
//! makes no heap object a name on the thread that feeds it.
//!
//! The counting allocator is per thread (as in core's
//! `verify_zero_alloc.rs`): the shard workers allocate the columns, and
//! that is not what is pinned here.

use lexequal::store::{NameEntry, CHUNK_ROWS};
use lexequal::{G2pError, Language, MatchConfig, QgramMode, SearchMethod};
use lexequal_lexicon::{Corpus, SyntheticPairs};
use lexequal_service::{mmapstore, BuildSpec, Loader, MatchService, ServiceConfig, ShardedStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNT_THIS_THREAD.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// thread-local `Cell` with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNT_THIS_THREAD.with(|c| c.set(true));
    let out = f();
    COUNT_THIS_THREAD.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const METHODS: [SearchMethod; 4] = [
    SearchMethod::Scan,
    SearchMethod::Qgram,
    SearchMethod::PhoneticIndex,
    SearchMethod::BkTree,
];

const SPECS: [BuildSpec; 3] = [
    BuildSpec::Qgram {
        q: 3,
        mode: QgramMode::Strict,
    },
    BuildSpec::PhoneticIndex,
    BuildSpec::BkTree,
];

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::build(&MatchConfig::default()))
}

/// `n` multiscript rows: the paper corpus (English, Devanagari and Tamil
/// renderings, adjacent), round and round.
fn rows(n: usize) -> Vec<NameEntry> {
    let entries = corpus().entries.iter().cycle().take(n);
    let entries = entries.map(|e| NameEntry {
        text: e.text.clone(),
        language: e.language,
        phonemes: e.phonemes.clone(),
    });
    entries.collect()
}

/// What a store under test starts from.
#[derive(Debug, Clone, Copy)]
enum Start {
    Empty,
    /// Five rows, so the load begins off every stripe's phase 0.
    Rows,
    /// A seven-row image, read in place: the load is every shard's tail.
    Image,
}

impl Start {
    fn store(self, shards: usize) -> ShardedStore {
        let store = ShardedStore::new(MatchConfig::default(), shards);
        let seed = match self {
            Start::Empty => 0,
            Start::Rows => 5,
            Start::Image => 7,
        };
        for e in rows(2_000).iter().skip(1_000).take(seed) {
            store.insert(&e.text, e.language).expect("seed row");
        }
        if !matches!(self, Start::Image) {
            return store;
        }
        let image = mmapstore::encode(&store, 0).expect("encode the base");
        let loaded = mmapstore::load_bytes(MatchConfig::default(), Some(shards), image);
        loaded.expect("load the base").store
    }
}

/// Push `rows` the way a generator of concatenations does: text and
/// phonemes each in two parts.
fn push_parts(loader: &mut Loader<'_>, rows: &[NameEntry]) {
    for e in rows {
        let cut = e.text.char_indices().nth(1).map_or(0, |(at, _)| at);
        let (head, tail) = e.text.split_at(cut);
        let (front, back) = e.phonemes.as_slice().split_at(e.phonemes.len() / 2);
        let [front, back] = [front, back].map(|p| p.iter().copied().collect());
        loader
            .push(&[head, tail], e.language, &[&front, &back])
            .expect("a corpus row fits");
    }
}

/// `got` is the store `want` is: entries, image, and every path's answers
/// — declared only, then covered.
fn assert_same_store(got: &ShardedStore, want: &ShardedStore, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: len");
    let len = want.len() as u32;
    for id in 0..len + 1 {
        let (a, b) = (got.get(id), want.get(id));
        assert_eq!(a.is_some(), id < len, "{what}: id {id}");
        assert_eq!(
            a.map(|e| (e.text, e.language, e.phonemes)),
            b.map(|e| (e.text, e.language, e.phonemes)),
            "{what}: id {id}"
        );
    }
    let image = |store| mmapstore::encode(store, 3).expect("encode");
    for covered in [false, true] {
        for store in [got, want] {
            for spec in SPECS {
                store.declare(spec);
            }
            if covered {
                store.cover(&SPECS);
            }
        }
        let queries = [0, len / 2, len.saturating_sub(1)];
        for q in queries.iter().filter_map(|&id| want.get(id)) {
            for method in METHODS {
                assert_eq!(
                    got.search_phonemes(&q.phonemes, 0.3, method),
                    want.search_phonemes(&q.phonemes, 0.3, method),
                    "{what}: {method:?} for {:?}, covered={covered}",
                    q.text
                );
            }
        }
        assert!(
            image(got) == image(want),
            "{what}: image, covered={covered}"
        );
    }
}

/// (b) Every door, every seam, every phase.
#[test]
fn every_door_fills_the_store_that_insert_fills() {
    for shards in 1..=3 {
        let full = CHUNK_ROWS * shards;
        for n in [full - 1, full + 1, 1, 0] {
            let rows = rows(n);
            for start in [Start::Empty, Start::Rows, Start::Image] {
                let what = |door: &str| format!("{door}: {shards} shard(s), {n} rows on {start:?}");
                let want = start.store(shards);
                for e in &rows {
                    want.insert(&e.text, e.language).expect("insert");
                }

                let sized = start.store(shards);
                let first = sized.len() as u32;
                let mut loader = sized.loader();
                loader.reserve(rows.iter().map(|e| (e.text.len(), e.phonemes.len())));
                push_parts(&mut loader, &rows);
                assert_eq!(sized.len() as u32, first, "published only at the end");
                assert_eq!(loader.finish(), first..first + n as u32);
                assert_same_store(&sized, &want, &what("a sized load"));
                // Sized, the columns are the row-by-row store's or
                // tighter: each grew once, to what its stripe holds.
                let bytes = |s: &ShardedStore| s.cover_stats().row_bytes;
                assert!(bytes(&sized) <= bytes(&want), "{}", what("row_bytes"));

                let unsized_ = start.store(shards);
                let mut loader = unsized_.loader();
                push_parts(&mut loader, &rows);
                drop(loader);
                assert_same_store(&unsized_, &want, &what("an unsized load, dropped"));

                let extended = start.store(shards);
                let range = extended.extend_transformed(rows.clone());
                assert_eq!(range, first..first + n as u32);
                assert_same_store(&extended, &want, &what("extend_transformed"));
            }
        }
    }
}

/// (c) A refused row ends the load where it stands.
#[test]
fn a_refused_row_publishes_what_came_before_it_and_nothing_else() {
    let service = MatchService::new(ServiceConfig {
        match_config: MatchConfig::default(),
        shards: 2,
        cache_capacity: 16,
    });
    let store = service.store();
    store.declare(BuildSpec::PhoneticIndex);
    // Past a chunk seam on both shards, an odd count: the refused row
    // would have been shard 1's.
    let n = 2 * CHUNK_ROWS + 3;
    let rows = rows(n + 2);
    let long = "x".repeat(65_536);
    let mut loader = store.loader();
    push_parts(&mut loader, &rows[..n]);
    let refused = loader.push(&[&long], Language::English, &[&rows[n].phonemes]);
    let (bytes, limit) = (65_536, 65_535);
    assert_eq!(refused, Err(G2pError::TooLong { bytes, limit }));
    assert_eq!(store.len(), 0, "nothing is published mid-load");
    drop(loader);

    assert_eq!(store.len(), n);
    assert_eq!(store.cover_stats().tails[2], n, "what the shards hold");
    for id in [0, CHUNK_ROWS * 2 - 1, CHUNK_ROWS * 2, n - 1] {
        let e = store.get(id as u32).expect("a published row");
        assert_eq!((&e.text, &e.phonemes), (&rows[id].text, &rows[id].phonemes));
        for method in [SearchMethod::Scan, SearchMethod::PhoneticIndex] {
            let hits = store.search_phonemes(&e.phonemes, 0.0, method).ids;
            assert!(hits.contains(&(id as u32)), "{method:?} finds id {id}");
            assert!(hits.iter().all(|&hit| (hit as usize) < n), "{hits:?}");
        }
    }
    assert!(store.get(n as u32).is_none());

    // The next ADD takes the id the refused row did not, on its shard.
    assert_eq!(service.add("Nehru", Language::English), Ok(n as u32));
    assert_eq!(store.get(n as u32).expect("the ADD").text, "Nehru");
    let range = store.extend_transformed(rows[n..].to_vec());
    assert_eq!(range, n as u32 + 1..n as u32 + 3);
    assert_eq!(store.get(n as u32 + 2).unwrap().text, rows[n + 1].text);

    // `extend` transforms every row before the first push: one that does
    // not transform, two chunks in, leaves the store as it was.
    let mut batch: Vec<_> = rows.iter().map(|e| (e.text.clone(), e.language)).collect();
    batch.push(("नेहरु".to_owned(), Language::Tamil));
    assert!(store.extend(batch).is_err());
    assert_eq!((store.len(), store.cover_stats().tails[2]), (n + 3, n + 3));
}

/// (d) No heap object a name on the loading thread.
#[test]
fn a_load_allocates_per_chunk_buffer_not_per_name() {
    let service = |shards| {
        MatchService::new(ServiceConfig {
            match_config: MatchConfig::default(),
            shards,
            cache_capacity: 16,
        })
    };
    // The generator load `lexequald --preload` makes, at n and at 2n names
    // (the pairs enumerated outside the window: their base names are the
    // corpus's, which a daemon transforms first).
    let generate = |target: usize| {
        let (service, pairs) = (service(2), SyntheticPairs::of(corpus(), target));
        let (names, allocations) = allocations_in(|| service.load_pairs(&pairs));
        assert_eq!((names, service.len()), (pairs.len(), pairs.len()));
        (names, allocations)
    };
    let ((small, few), (large, many)) = (generate(10_000), generate(20_000));
    assert!(large > 2 * small - 500, "{small} and {large} names");
    // The per-shard sizes, the workers' channel blocks, and two chunk
    // buffers a shard, each five vectors doubling their way up to a chunk:
    // the parent made two objects a name.
    assert!(few <= 256, "{few} allocations loading {small} names");
    assert!(
        many <= few + 2,
        "{few} for {small} names, {many} for {large}"
    );

    // One ADD is one load of one row: after the first on each shard has
    // left its buffer behind, nothing but the odd channel block (one per
    // 31 messages) — the parent made a vector of entries, a vector of
    // vectors, one more a shard and a channel, every time.
    let service = service(2);
    let entry = |i: usize| {
        let text = format!("Nehru{}", "a".repeat(i % 7));
        service.prepare_entry(&text, Language::English).unwrap()
    };
    for i in 0..4 {
        service.apply_entry(entry(i));
    }
    let entries: Vec<_> = (4..68).map(entry).collect();
    let (ids, allocations) = allocations_in(|| {
        let ids = entries.into_iter().map(|e| service.apply_entry(e));
        ids.fold(0, |_, id| id)
    });
    assert_eq!(ids, 67);
    assert!(allocations <= 8, "{allocations} allocations over 64 ADDs");
}
