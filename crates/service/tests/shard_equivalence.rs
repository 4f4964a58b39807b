//! Sharding must be invisible: a [`ShardedStore`] with any shard count
//! returns exactly the same global id set as an unsharded [`NameStore`]
//! over the same data, for every access path.
//!
//! This holds because every access path's candidate predicate is
//! pairwise (query vs one stored string) — partitioning the collection
//! cannot change which pairs pass — and because global id striping is a
//! bijection (`id % N` → shard, `id / N` → local slot). The tests pin
//! both facts: shard counts that divide the data evenly (2, 4) and one
//! that doesn't (7), all four methods, and concurrent searchers racing
//! the same store. The same argument makes *coverage* invisible — a row
//! an index does not hold yet is put to the path's pair-wise rule instead
//! — so the last test runs appends and searches beside covers that never
//! stop, and holds every reply to a store built from scratch.

use lexequal::{MatchConfig, NameStore, QgramMode, SearchMethod};
use lexequal_lexicon::Corpus;
use lexequal_service::shard::{BuildSpec, ShardedStore};
use std::sync::Arc;

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

fn sharded_store(rows: &[(String, lexequal::Language)], shards: usize) -> ShardedStore {
    let store = ShardedStore::new(MatchConfig::default(), shards);
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
fn every_shard_count_matches_the_unsharded_store_on_every_method() {
    let rows = corpus_rows();
    assert!(rows.len() > 100, "slice too small: {}", rows.len());
    let reference = reference_store(&rows);

    for shards in [2, 4, 7] {
        let sharded = sharded_store(&rows, shards);
        assert_eq!(sharded.len(), reference.len());

        // Ids address the same entries in both stores.
        for id in query_ids(rows.len()) {
            let a = reference.get(id).expect("reference id");
            let b = sharded.get(id).expect("sharded id");
            assert_eq!(a.text, b.text, "id {id} diverges at {shards} shards");
            assert_eq!(a.phonemes, b.phonemes);
        }

        for method in METHODS {
            for id in query_ids(rows.len()) {
                let q = &reference.get(id).expect("valid id").phonemes;
                let want = reference.search_phonemes(q, THRESHOLD, method);
                let got = sharded.search_phonemes(q, THRESHOLD, method);
                assert_eq!(
                    got.ids, want.ids,
                    "{method:?} diverges for id {id} at {shards} shards"
                );
                assert_eq!(
                    got.verifications, want.verifications,
                    "{method:?} does different verification work at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn concurrent_searchers_agree_with_sequential_answers() {
    let rows = corpus_rows();
    let reference = reference_store(&rows);
    let sharded = Arc::new(sharded_store(&rows, 4));

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
            let sharded = Arc::clone(&sharded);
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
                    let got = sharded.search_phonemes(q, THRESHOLD, m);
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
    let sharded = sharded_store(seed, 3);
    let mut oracle = reference_store(seed);
    let mut all = NameStore::new(MatchConfig::default());
    all.extend(rows.iter().cloned()).expect("bulk load");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                sharded.build(BuildSpec::BkTree);
                sharded.build(BuildSpec::Qgram {
                    q: 3,
                    mode: QgramMode::Strict,
                });
                sharded.build(BuildSpec::PhoneticIndex);
            }
        });
        scope.spawn(|| {
            let mut passes = 0usize;
            while !stop.load(Ordering::Relaxed) || passes == 0 {
                let published = sharded.len();
                let entry = |e: lexequal::store::NameEntry| (e.text, e.language, e.phonemes);
                for id in (0..published as u32).step_by(97) {
                    let want = all.get(id).map(entry);
                    assert_eq!(sharded.get(id).map(entry), want, "get({id})");
                }
                assert_eq!(sharded.cover_stats().declared, 3);
                let mut reader = sharded.prefix_reader(published);
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
                assert!(sharded.len() >= published);
                passes += 1;
            }
        });
        for (text, language) in storm {
            let id = sharded.insert(text, *language).expect("add");
            assert_eq!(oracle.insert(text, *language).expect("oracle add"), id);
            oracle.build_qgram(3, QgramMode::Strict);
            oracle.build_phonetic_index();
            oracle.build_bktree();
            // The row just acknowledged, and one from the seed.
            for query in [id, id / 3] {
                let q = &oracle.get(query).expect("valid id").phonemes;
                for method in METHODS {
                    assert_eq!(
                        sharded.search_phonemes(q, THRESHOLD, method),
                        oracle.search_phonemes(q, THRESHOLD, method),
                        "{method:?} for id {query} with {} rows",
                        id + 1
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(sharded.len(), rows.len());
    let stats = sharded.cover_stats();
    assert_eq!(stats.declared, 3);
    assert!(
        stats.covers > 3,
        "the covers ran beside the storm: {stats:?}"
    );
}
