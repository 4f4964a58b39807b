//! The served store must answer as a plain [`NameStore`] does: a
//! [`Store`] returns exactly the same global id set and verification work
//! as a [`NameStore`] over the same data, for every access path, whatever
//! the threads around it do.
//!
//! The tests pin this on all four methods, with concurrent searchers
//! racing the same store. *Coverage* is invisible the same way — a row
//! an index does not hold yet is put to the path's pair-wise rule instead
//! — so the last test runs appends and searches beside covers that never
//! stop, and holds every reply to a store built from scratch. A scan
//! holds the store's read lock one range of rows at a time, so an append
//! does not wait for a whole scan.

use lexequal::store::NameEntry;
use lexequal::{Language, MatchConfig, NameStore, PhonemeString, QgramMode, SearchMethod};
use lexequal_lexicon::Corpus;
use lexequal_service::shard::{BuildSpec, Store};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const THRESHOLD: f64 = 0.3;

const METHODS: [SearchMethod; 4] = [
    SearchMethod::Scan,
    SearchMethod::Qgram,
    SearchMethod::PhoneticIndex,
    SearchMethod::BkTree,
];

fn corpus_rows() -> Vec<(String, lexequal::Language)> {
    let corpus = Corpus::build(&MatchConfig::default());
    corpus
        .entries
        .iter()
        .filter(|e| e.tag % 7 == 0) // a multiscript slice, kept fast
        .map(|e| (e.text.clone(), e.language))
        .collect()
}

fn reference_store(rows: &[(String, lexequal::Language)]) -> NameStore {
    let mut store = NameStore::new(MatchConfig::default());
    store.extend(rows.iter().cloned()).expect("bulk load");
    store.build_qgram(3, QgramMode::Strict);
    store.build_phonetic_index();
    store.build_bktree();
    store
}

fn served_store(rows: &[(String, lexequal::Language)]) -> Store {
    let store = Store::new(MatchConfig::default());
    store.extend(rows.iter().cloned()).expect("bulk load");
    store.build(BuildSpec::Qgram {
        q: 3,
        mode: QgramMode::Strict,
    });
    store.build(BuildSpec::PhoneticIndex);
    store.build(BuildSpec::BkTree);
    store
}

fn query_ids(len: usize) -> impl Iterator<Item = u32> {
    (0..len as u32).step_by(29)
}

#[test]
fn the_store_matches_a_name_store_on_every_method() {
    let rows = corpus_rows();
    assert!(rows.len() > 100, "slice too small: {}", rows.len());
    let reference = reference_store(&rows);
    let served = served_store(&rows);
    assert_eq!(served.len(), reference.len());

    // Ids address the same entries in both stores.
    for id in query_ids(rows.len()) {
        let a = reference.get(id).expect("reference id");
        let b = served.get(id).expect("served id");
        assert_eq!(a.text, b.text, "id {id} diverges");
        assert_eq!(a.phonemes, b.phonemes);
    }

    for method in METHODS {
        for id in query_ids(rows.len()) {
            let q = &reference.get(id).expect("valid id").phonemes;
            let want = reference.search_phonemes(q, THRESHOLD, method);
            let got = served.search_phonemes(q, THRESHOLD, method);
            assert_eq!(got.ids, want.ids, "{method:?} diverges for id {id}");
            assert_eq!(
                got.verifications, want.verifications,
                "{method:?} does different verification work for id {id}"
            );
        }
    }
}

#[test]
fn concurrent_searchers_agree_with_sequential_answers() {
    let rows = corpus_rows();
    let reference = reference_store(&rows);
    let served = Arc::new(served_store(&rows));

    // Sequential ground truth for a spread of queries, via the q-gram
    // path (strict: no dismissals) and the scan.
    let cases: Vec<(u32, SearchMethod)> = query_ids(rows.len())
        .flat_map(|id| [(id, SearchMethod::Scan), (id, SearchMethod::Qgram)])
        .collect();
    let expected: Vec<Vec<u32>> = cases
        .iter()
        .map(|&(id, m)| {
            let q = &reference.get(id).expect("valid id").phonemes;
            reference.search_phonemes(q, THRESHOLD, m).ids
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let served = Arc::clone(&served);
            let reference = &reference;
            let cases = &cases;
            let expected = &expected;
            scope.spawn(move || {
                // Each thread walks the cases at a different phase so the
                // in-flight mix differs per thread.
                for k in 0..cases.len() {
                    let i = (k + t * 13) % cases.len();
                    let (id, m) = cases[i];
                    let q = &reference.get(id).expect("valid id").phonemes;
                    let got = served.search_phonemes(q, THRESHOLD, m);
                    assert_eq!(got.ids, expected[i], "thread {t}, case {i}");
                }
            });
        }
    });
}

/// An `ADD` storm beside searches through every path beside a cover that
/// never stops: whatever each index happens to cover when a search
/// arrives, the reply — ids and verification count — is that of a store
/// built from scratch over exactly the rows acknowledged so far. Beside
/// them a reader takes the direct reads — `get`, the coverage gauges and
/// a full prefix pass — and every row it reads is the reference row of
/// its id, a pass never past the published length.
#[test]
fn adds_and_searches_beside_running_covers_equal_a_freshly_built_store() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let rows = corpus_rows();
    let (seed, storm) = rows.split_at(rows.len() / 2);
    let served = served_store(seed);
    let mut oracle = reference_store(seed);
    let mut all = NameStore::new(MatchConfig::default());
    all.extend(rows.iter().cloned()).expect("bulk load");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                served.build(BuildSpec::BkTree);
                served.build(BuildSpec::Qgram {
                    q: 3,
                    mode: QgramMode::Strict,
                });
                served.build(BuildSpec::PhoneticIndex);
            }
        });
        scope.spawn(|| {
            let mut passes = 0usize;
            while !stop.load(Ordering::Relaxed) || passes == 0 {
                let published = served.len();
                let entry = |e: lexequal::store::NameEntry| (e.text, e.language, e.phonemes);
                for id in (0..published as u32).step_by(97) {
                    let want = all.get(id).map(entry);
                    assert_eq!(served.get(id).map(entry), want, "get({id})");
                }
                assert_eq!(served.cover_stats().declared, 3);
                let mut reader = served.prefix_reader(published);
                let mut id = 0u32;
                while let Some(chunk) = reader.next_chunk() {
                    for row in chunk {
                        let want = all.get(id).expect("a published row");
                        let want = (
                            want.text.as_bytes(),
                            want.language,
                            want.phonemes.id_bytes(),
                        );
                        assert_eq!(row, want, "prefix row {id}");
                        id += 1;
                    }
                }
                assert_eq!(id as usize, published, "a pass reads the published rows");
                assert!(served.len() >= published);
                passes += 1;
            }
        });
        for (text, language) in storm {
            let id = served.insert(text, *language).expect("add");
            assert_eq!(oracle.insert(text, *language).expect("oracle add"), id);
            oracle.build_qgram(3, QgramMode::Strict);
            oracle.build_phonetic_index();
            oracle.build_bktree();
            // The row just acknowledged, and one from the seed.
            for query in [id, id / 3] {
                let q = &oracle.get(query).expect("valid id").phonemes;
                for method in METHODS {
                    assert_eq!(
                        served.search_phonemes(q, THRESHOLD, method),
                        oracle.search_phonemes(q, THRESHOLD, method),
                        "{method:?} for id {query} with {} rows",
                        id + 1
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(served.len(), rows.len());
    let stats = served.cover_stats();
    assert_eq!(stats.declared, 3);
    assert!(
        stats.covers > 3,
        "the covers ran beside the storm: {stats:?}"
    );
}

/// An `insert` begun while a scan runs returns before the scan does: it
/// waits for the range of rows the scan holds the read lock for, not for
/// the scan.
#[test]
fn an_insert_beside_a_running_scan_returns_before_the_scan() {
    let store = Store::new(MatchConfig::default());
    let q: PhonemeString = "neru".parse().unwrap();
    let scan = || store.search_phonemes(&q, THRESHOLD, SearchMethod::Scan);
    // Grow the store until one scan takes tens of milliseconds.
    let mut took = Duration::ZERO;
    while took < Duration::from_millis(20) {
        let n = store.len();
        store.extend_transformed(
            (n..n + 20_000)
                .map(|i| NameEntry {
                    text: format!("n{i}"),
                    language: Language::English,
                    phonemes: format!("ne{}ru", "a".repeat(i % 9)).parse().unwrap(),
                })
                .collect(),
        );
        let t = Instant::now();
        scan();
        took = t.elapsed();
    }
    let started = AtomicBool::new(false);
    let (inserted, scanned) = std::thread::scope(|scope| {
        let scanning = scope.spawn(|| {
            started.store(true, Ordering::Release);
            scan();
            Instant::now()
        });
        while !started.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        std::thread::sleep(took / 4);
        store.insert("Nehru", Language::English).unwrap();
        (Instant::now(), scanning.join().expect("scan"))
    });
    let margin = scanned.saturating_duration_since(inserted);
    assert!(
        margin > took / 8,
        "an insert begun {:?} into a {took:?} scan returned {margin:?} before it ended",
        took / 4
    );
}
