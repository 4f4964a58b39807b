//! Pins the kernel's zero-allocation guarantee: once the `Verifier`'s DP
//! scratch has grown to the longest candidate and the query has been
//! prepared, verifying a pair performs no heap allocation at all — on
//! any of the three dispositions (fast-accept, fast-reject, full DP).
//!
//! A counting global allocator makes the claim checkable: warm up over
//! the whole corpus once, snapshot the allocation count, run the same
//! verifications again, and require a delta of exactly zero. Lives in its
//! own integration-test binary because `#[global_allocator]` is
//! process-wide. Counting is gated on a thread-local flag so only the
//! measuring thread is observed — the libtest harness's own thread may
//! allocate (progress output, timers) at any moment, and without the
//! gate those allocations land in the window and flake the count.
//!
//! The same allocator pins the BK-tree's layout: a build allocates its
//! flat vectors and one mask table, however many names it indexes — and
//! the q-gram index's: the four arrays it keeps and one small signature
//! table per build, never more live heap than the finished index plus
//! that table (every posting is written where it stays); a gram list and
//! a counter column per probe, nothing per gram, per signature, per
//! candidate or per tail row — and the store's own: a bulk load grows
//! each flat column once however many chunks it arrives in, a refilled
//! chunk allocates nothing, adopting an image's rows allocates nothing per
//! row, the phonetic index is three arrays, and a scan cannot tell a row
//! read in place in an image from one the store owns.

use lexequal::rows::{Base, EntryRecord, ImageLayout};
use lexequal::store::NameEntry;
use lexequal::{
    BatchVerifier, KeyColumn, Language, LexEqual, LoadSize, MatchConfig, NameStore, PhoneticIndex,
    PreparedQuery, QgramFilter, QgramMode, RowChunk, SearchMethod, SymbolColumn, Verifier,
    MAX_LANES,
};
use lexequal_phoneme::testkit::Rng;
use lexequal_phoneme::PhonemeString;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so a test that expects allocations (the BK-tree build)
    // cannot land them in the window of one that expects none. `const`
    // init: touching the counters never itself allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
    // Bytes allocated less bytes freed while counting, and its high-water
    // mark since `allocations_in` last reset it.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn counting() -> bool {
    // `try_with` so a (never-allocating) read during TLS teardown can't
    // panic inside the allocator.
    COUNT_THIS_THREAD.try_with(Cell::get).unwrap_or(false)
}

fn count() {
    if counting() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

fn resize(by: isize) {
    if counting() {
        let live = LIVE.try_with(|l| {
            l.set(l.get() + by);
            l.get()
        });
        let _ = PEAK.try_with(|p| p.set(p.get().max(live.unwrap_or(0))));
    }
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// thread-local `Cell` with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resize(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNT_THIS_THREAD.with(|c| c.set(true));
    let out = f();
    COUNT_THIS_THREAD.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The most heap the last [`allocations_in`] held at once, over what was
/// live when it began.
fn peak_bytes() -> usize {
    PEAK.with(Cell::get) as usize
}

/// Seeded phoneme strings, lengths 0..=70 so the corpus
/// crosses the 64-symbol Myers window and exercises the DP-only path too.
fn corpus(seed: u64, count: usize) -> Vec<PhonemeString> {
    let mut rng = Rng::new(seed);
    (0..count).map(|_| rng.phonemes(0..=70)).collect()
}

fn verify_all(
    verifier: &mut Verifier,
    op: &LexEqual,
    prepared: &PreparedQuery,
    strings: &[PhonemeString],
) -> usize {
    let mut hits = 0;
    for cand in strings {
        for e in [0.0, 0.15, 0.35, 0.5, 1.0] {
            if verifier.matches(op, prepared, cand, None, None, e) {
                hits += 1;
            }
        }
    }
    hits
}

#[test]
fn warmed_up_verification_does_not_allocate() {
    let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.25));
    let strings = corpus(0x0a11_0c5e, 60);
    let prepared = op.prepare_query(&strings[0]);
    let mut verifier = Verifier::new();

    // Warm-up pass: the DP scratch grows to its high-water mark here.
    let warm_hits = verify_all(&mut verifier, &op, &prepared, &strings);

    let (hits, delta) = allocations_in(|| verify_all(&mut verifier, &op, &prepared, &strings));

    assert_eq!(hits, warm_hits);
    assert!(hits > 0, "corpus must produce some matches");
    let counters = verifier.counters();
    assert!(
        counters.fast_accept > 0 && counters.fast_reject > 0 && counters.full_dp > 0,
        "all three dispositions must be exercised: {counters:?}"
    );
    assert_eq!(
        delta,
        0,
        "verified {} pairs with {delta} heap allocations after warm-up",
        counters.total() / 2
    );
}

fn verify_all_batched(
    verifier: &mut BatchVerifier,
    op: &LexEqual,
    prepared: &PreparedQuery,
    strings: &[PhonemeString],
    hits: &mut Vec<u32>,
) -> usize {
    let mut total = 0;
    for e in [0.0, 0.15, 0.35, 0.5, 1.0] {
        verifier.verify_ids::<_, Vec<u8>, Vec<u8>>(
            op,
            prepared,
            strings,
            None,
            None,
            0..strings.len() as u32,
            e,
            hits,
        );
        total += hits.len();
        hits.clear();
    }
    total
}

/// The batched kernel keeps the same guarantee: once its DP scratch has
/// grown, a full batched verification sweep allocates nothing (the
/// caller-owned hit vector is pre-grown too).
#[test]
fn warmed_up_batched_verification_does_not_allocate() {
    let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.25));
    let strings = corpus(0x0a11_0c5e, 60);
    let prepared = op.prepare_query(&strings[0]);
    let mut verifier = BatchVerifier::new();
    assert_eq!(verifier.width(), MAX_LANES);
    let mut hits = Vec::with_capacity(strings.len());

    // Warm-up: the scratch and the hit vector reach their high-water
    // marks here.
    let warm_hits = verify_all_batched(&mut verifier, &op, &prepared, &strings, &mut hits);

    let (total, delta) =
        allocations_in(|| verify_all_batched(&mut verifier, &op, &prepared, &strings, &mut hits));

    assert_eq!(total, warm_hits);
    assert!(total > 0, "corpus must produce some matches");
    let counters = verifier.counters();
    assert!(
        counters.fast_accept > 0 && counters.fast_reject > 0 && counters.full_dp > 0,
        "all three dispositions must be exercised: {counters:?}"
    );
    assert!(verifier.batch_counters().calls > 0);
    assert_eq!(
        delta,
        0,
        "batch-verified {} pairs with {delta} heap allocations after warm-up",
        counters.total() / 2
    );
}

/// The id-keyed BK-tree clones no key and owns no per-node heap block:
/// building it over `n` names allocates its two flat vectors (sized up
/// front) and the one Myers mask table the inserts share — the same
/// handful at 400 names as at 4000. A store's build adds the two vectors
/// of the cluster-string copy it builds from, and nothing else.
#[test]
fn bktree_build_allocates_per_vector_not_per_node() {
    for n in [400usize, 4000] {
        // 1..=64 phonemes: every key takes the bit-parallel probe (the DP
        // the longer keys fall back to allocates its rows per probe).
        let entries = corpus(0x0b1c_73ee, 2 * n)
            .into_iter()
            .filter(|p| (1..=64).contains(&p.len()))
            .take(n)
            .map(|phonemes| NameEntry {
                text: String::new(),
                language: Language::English,
                phonemes,
            })
            .collect::<Vec<_>>();
        assert_eq!(entries.len(), n);
        let mut store = NameStore::new(MatchConfig::default());
        store.extend_transformed(entries);

        let mut keys = SymbolColumn::default();
        store.read_keys(KeyColumn::Clusters, 0..n, &mut keys);
        let key = |id: u32| keys.row(id as usize);
        let (_, delta) = allocations_in(|| lexequal_matcher::BkTree::build(n as u32, key));
        assert!(
            delta <= 3,
            "BK-tree build over {n} names made {delta} heap allocations"
        );
        let ((), built) = allocations_in(|| store.build_bktree());
        assert_eq!(built, delta + 2, "a store's BK-tree build over {n} names");
    }
}

/// The flat q-gram index is four vectors sized up front (signatures, run
/// starts, postings, lengths; the overflow list stays empty), and a probe
/// allocates by the call, not by what it finds: the answer alone where
/// the count filter cannot reject, the query's gram list and one counter
/// column (which becomes the answer) where it can.
#[test]
fn qgram_index_allocates_per_call_not_per_gram() {
    let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.25));
    for n in [400usize, 4000] {
        let strings = corpus(0x09a2_a115, n);
        let (filter, built) = allocations_in(|| QgramFilter::build(&strings, 3, QgramMode::Strict));
        assert!(
            built <= 4,
            "q-gram build over {n} names made {built} heap allocations"
        );
        assert_eq!(filter.len(), n);

        let query = strings.iter().find(|s| s.len() >= 20).expect("a long name");
        // e = 0.35: STRICT quadruples the bound, the count filter's
        // requirement is negative for every admissible length.
        let vacuous_k = 0.35 * query.len() as f64;
        let (all, vacuous) = allocations_in(|| filter.candidates(query, vacuous_k, &op));
        // k = 0.25 is one Levenshtein edit under STRICT: most names must
        // share grams, so the postings are read.
        let (few, selective) = allocations_in(|| filter.candidates(query, 0.25, &op));
        assert!(
            few.len() < all.len() && !few.is_empty(),
            "{} selective vs {} vacuous candidates",
            few.len(),
            all.len()
        );
        assert!(vacuous <= 1, "vacuous probe: {vacuous} allocations");
        assert!(selective <= 2, "selective probe: {selective} allocations");

        // An index that stops short of the corpus puts the rest — its
        // tail — to the filters pair-wise. A probe with an empty tail is
        // the probe above, allocation for allocation; one with a tail
        // adds a single gram buffer that grows to the tail's longest
        // name, whether the tail holds 10 rows or most of the corpus.
        for k in [vacuous_k, 0.25] {
            let (with_no_tail, allocations) =
                allocations_in(|| filter.candidates_with_tail(query, k, &op, n, |_| &[]));
            let (plain, plain_allocations) = allocations_in(|| filter.candidates(query, k, &op));
            assert_eq!(with_no_tail, plain);
            assert_eq!(allocations, plain_allocations, "empty tail at k={k}");
        }
        for covered in [n - 10, n / 4] {
            let (prefix, tail) = strings.split_at(covered);
            let short = QgramFilter::build(prefix, 3, QgramMode::Strict);
            let row = |id: usize| strings[id].id_bytes();
            let (cands, tailed) =
                allocations_in(|| short.candidates_with_tail(query, 0.25, &op, n, row));
            assert_eq!(cands, few, "index over {covered} of {n} names");
            // 72 grams at most a name: seven doublings from empty.
            assert!(
                tailed <= selective + 8,
                "probe with a {}-row tail: {tailed} allocations",
                tail.len()
            );
        }
    }
}

/// A q-gram build writes every posting where it stays: at no moment does
/// it hold more heap than the index it returns plus its signature table
/// (a sort-then-compact build holds the index twice, and the freed copy
/// stays in the process's peak), and it allocates by the array, not by
/// the row — over the cluster strings a store indexes and over phoneme
/// ids alike. A row past the index costs a `STRICT` probe no allocation:
/// the cluster ball over a tail of 4 000 rows allocates what it does over
/// one of 400.
#[test]
fn qgram_build_peaks_at_the_index_and_a_tail_probe_allocates_nothing_a_row() {
    let op = LexEqual::default();
    let strings = corpus(0x0c5a_11ed, 8_000);
    let clusters: Vec<Vec<u8>> = strings.iter().map(|s| op.cluster_ids(s)).collect();
    let phonemes: Vec<&[u8]> = strings.iter().map(|s| s.id_bytes()).collect();
    let clusters: Vec<&[u8]> = clusters.iter().map(Vec::as_slice).collect();
    for (key, rows) in [("cluster", &clusters), ("phoneme", &phonemes)] {
        let build = |n: usize| {
            let (filter, allocations) =
                allocations_in(|| QgramFilter::build_rows(n, |id| rows[id], 3, QgramMode::Strict));
            let (held, peak) = (filter.heap_bytes(), peak_bytes());
            assert!(
                held <= peak && peak <= held + 64 * 1024,
                "{key} keys, {n} rows: index {held} B, build peak {peak} B"
            );
            assert!(held >= 4 * filter.total_grams());
            allocations
        };
        let (few, many) = (build(2_000), build(8_000));
        assert_eq!(few, many, "{key} keys: allocations at 2 000 and 8 000 rows");
        assert!(many <= 5, "{key} keys: {many} allocations a build");
    }

    let declared = QgramFilter::build_rows(0, |_| &[], 3, QgramMode::Strict);
    // A query the bit-parallel probe takes (the DP the longer ones fall
    // back to allocates its rows per probe).
    let fits = |s: &&PhonemeString| (20..=64).contains(&s.len());
    let at = strings.iter().take(400).position(|s| fits(&s)).unwrap() as u32;
    let prepared = op.prepare_query(&strings[at as usize]);
    let (query, probe) = (prepared.cluster_ids(), prepared.cluster_probe());
    // The probe reads the rows' phoneme ids as their cluster strings.
    let ball = |rows: usize| {
        allocations_in(|| declared.within(query, 1.5, 1, &probe, rows, |id| phonemes[id]))
    };
    let ((near, few), (far, many)) = (ball(400), ball(4_000));
    assert!(near.contains(&at) && far.starts_with(&near));
    assert!(far.len() <= 4, "one push sizes the answer: {far:?}");
    assert_eq!(few, many, "a 400-row and a 4 000-row tail");
    assert!(many <= 2, "{many} allocations a tail probe");
}

/// `n` entries the bit-parallel paths take (1..=64 phonemes), with texts.
fn entries(n: usize) -> Vec<NameEntry> {
    let names = corpus(0x0f1a_7c01, 2 * n).into_iter();
    let names = names.filter(|p| (1..=64).contains(&p.len())).take(n);
    let entries: Vec<_> = (names.enumerate())
        .map(|(i, phonemes)| NameEntry {
            text: format!("name{i}"),
            language: Language::English,
            phonemes,
        })
        .collect();
    assert_eq!(entries.len(), n);
    entries
}

/// `store`'s rows as one shard's [`Base`] over an image laid out the way
/// the snapshot writer lays one out: entry table, then the two arenas.
fn base_of(store: &NameStore) -> Base {
    let rows = store.rows();
    let mut columns: [Vec<u8>; 3] = Default::default();
    let [entries, texts, phonemes] = &mut columns;
    for row in (0..rows.len()).map(|i| rows.row(i)) {
        let language = Language::ALL.iter().position(|l| *l == row.language);
        let rec = EntryRecord {
            text_off: texts.len() as u32,
            phon_off: phonemes.len() as u32,
            text_len: row.text().len() as u16,
            phon_len: row.phonemes.len() as u16,
            language: language.unwrap() as u8,
        };
        entries.extend_from_slice(&rec.encode());
        texts.extend_from_slice(row.text().as_bytes());
        phonemes.extend_from_slice(row.phonemes);
    }
    let mut image = Vec::new();
    let [entries, texts, phonemes] = columns.map(|bytes| {
        image.extend_from_slice(&bytes);
        image.len() - bytes.len()..image.len()
    });
    let layout = ImageLayout {
        entries,
        texts,
        phonemes,
    };
    Base::new(std::sync::Arc::new(image), layout, 1, 0).expect("a framed image")
}

/// Rows come in as chunks: the first chunk of a sized load grows the five
/// column vectors once each, the chunks after it grow nothing, and a chunk
/// refilled with rows it has held before allocates nothing either — so a
/// load costs the same allocations whatever its length.
#[test]
fn a_load_allocates_per_column_not_per_name_or_per_chunk() {
    for n in [1_024, 2_048] {
        let rows = entries(n);
        let mut load = LoadSize::default();
        for e in &rows {
            load.add(e.text.len(), e.phonemes.len());
        }
        let mut store = NameStore::new(MatchConfig::default());
        let mut chunk = RowChunk::default();
        let fill = |chunk: &mut RowChunk, part: &[NameEntry]| {
            chunk.clear();
            for e in part {
                // Text in two parts, as a generator of concatenations pushes.
                let (head, tail) = e.text.split_at(2);
                let parts = [&e.phonemes];
                chunk.push(&[head, tail], e.language, &parts).unwrap();
            }
        };
        for (i, part) in rows.chunks(256).enumerate() {
            fill(&mut chunk, part);
            let ((), refilled) = allocations_in(|| fill(&mut chunk, part));
            assert_eq!(refilled, 0, "refilling chunk {i} of {n} rows");
            let (ids, appended) =
                allocations_in(|| store.append_rows(&chunk, std::mem::take(&mut load)));
            assert_eq!(ids, (i * 256) as u32..(i * 256 + part.len()) as u32);
            if i == 0 {
                assert!(appended <= 6, "{appended} allocations sizing {n} rows");
            } else {
                assert_eq!(appended, 0, "appending chunk {i} of {n} rows");
            }
        }
        let direct = {
            let mut direct = NameStore::new(MatchConfig::default());
            direct.extend_transformed(rows);
            direct
        };
        assert_eq!(store.memory(), direct.memory(), "columns sized alike");
        for id in [0, 255, 256, n as u32 - 1] {
            let (a, b) = (store.get(id).unwrap(), direct.get(id).unwrap());
            assert_eq!((a.text, a.phonemes), (b.text, b.phonemes), "id {id}");
        }
    }
}

/// Rows are flat columns: loading `n` names grows five vectors once each
/// (and the five buffers of the chunk they travel in), not four heap
/// objects a name, and adopting an image's rows allocates nothing that
/// depends on how many there are.
#[test]
fn rows_allocate_per_column_not_per_name() {
    let config = MatchConfig::default;
    let load = |n: usize| {
        let (rows, mut store) = (entries(n), NameStore::new(config()));
        allocations_in(move || {
            store.extend_transformed(rows);
            store
        })
    };
    let ((small, loaded_small), (large, loaded_large)) = (load(400), load(800));
    assert_eq!(
        loaded_small, loaded_large,
        "bulk loads of 400 and of 800 names"
    );
    assert!(loaded_small <= 12, "{loaded_small} allocations a bulk load");

    let adopt = |store: &NameStore| {
        let base = base_of(store);
        allocations_in(|| NameStore::with_base(config(), base))
    };
    let ((based_small, adopted_small), (_, adopted_large)) = (adopt(&small), adopt(&large));
    assert_eq!(adopted_small, adopted_large, "bases of 400 and of 800 rows");
    // What an empty store's operator costs, and no more.
    let ((), empty) = allocations_in(|| drop(NameStore::new(config())));
    assert_eq!(adopted_small, empty);

    // The phonetic index: the sort's scratch and the two arrays it keeps.
    let clusters = small.operator().cost_model().clusters();
    for store in [&small, &large] {
        let mut keys = SymbolColumn::default();
        store.read_keys(KeyColumn::Clusters, 0..store.len(), &mut keys);
        let row = |id: usize| keys.row(id);
        let (index, built) =
            allocations_in(|| PhoneticIndex::build_rows(clusters, keys.len(), row));
        assert_eq!(index.len(), keys.len());
        assert!(
            built <= 3,
            "phonetic index over {} rows: {built}",
            keys.len()
        );
    }

    // A scan over a base and a tail allocates what a scan over owned rows
    // does: the prepared query and the hit list, nothing per row.
    let mut seamed = based_small;
    seamed.extend_transformed(entries(800).split_off(400));
    let mut verifier = BatchVerifier::new();
    for q in [0, 399, 400, 799].map(|id| large.get(id).unwrap().phonemes) {
        let mut scan = |store: &NameStore| {
            store.search_phonemes_batched(&q, 0.35, SearchMethod::Scan, &mut verifier);
            allocations_in(|| {
                store.search_phonemes_batched(&q, 0.35, SearchMethod::Scan, &mut verifier)
            })
        };
        let ((want, owned), (got, over_the_seam)) = (scan(&large), scan(&seamed));
        assert_eq!(got, want);
        assert!(!got.ids.is_empty() && got.verifications == 800);
        assert_eq!(over_the_seam, owned, "scan allocations");
    }
}
