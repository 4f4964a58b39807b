//! The flat q-gram index against the hash-map algorithm it replaced.
//!
//! `QgramFilter::candidates` changed its data structure, its probe and —
//! where the count filter cannot reject — whether it probes at all, but
//! not its answer: for every gram size, both dismissal policies, budgets
//! from zero through selective to vacuous, and all three cost regimes, it
//! must return the very `Vec<u32>` the kept-verbatim reference returns,
//! over the paper corpus, over the 20 418-name synthetic set the daemon
//! preloads, and over names built to stress the greedy bag match. So must
//! an index over any *prefix* of the names probed with the rest as its
//! tail (`candidates_with_tail`, how a store that has grown past its
//! index answers): the pair-wise rule the tail rows are put to is the
//! posting walk's, so the reference cannot tell where the index ended.
//!
//! The index does not care what its symbols are, and a store under
//! `STRICT` keys it on the names' *cluster* strings: every corpus goes
//! through the harness a second time projected onto its clusters (a
//! cluster id read as the phoneme of that number — the reference only
//! speaks `PhonemeString`), where the alphabet is small enough for the
//! build's dense signature table and one gram recurs in most names.

use lexequal::qgram_plan::reference::HashedQgramFilter;
use lexequal::{LexEqual, MatchConfig, Phoneme, PhonemeString, QgramFilter, QgramMode};
use lexequal_lexicon::{Corpus, SyntheticDataset};

/// Fractional, unit and free intra-cluster substitution costs: unit cost
/// is plain Levenshtein (STRICT's bound is the budget itself), free leaves
/// STRICT no finite bound (length filter only).
fn operators() -> [LexEqual; 3] {
    [
        MatchConfig::default(),
        MatchConfig::default().with_intra_cluster_cost(1.0),
        MatchConfig::default().with_intra_cluster_cost(0.0),
    ]
    .map(LexEqual::new)
}

/// `names` and then their cluster strings, each held to the reference.
fn assert_flat_is_the_hashed_filter(
    names: &[PhonemeString],
    query_step: usize,
    uncovered: &[usize],
) {
    assert_keyed_on(names, query_step, uncovered);
    let op = LexEqual::default();
    let cluster = |c: u8| Phoneme::from_id(c).expect("cluster ids are fewer than phonemes");
    let projected: Vec<PhonemeString> = names
        .iter()
        .map(|name| op.cluster_ids(name).into_iter().map(cluster).collect())
        .collect();
    // Half the queries: a cluster gram's posting run is ten times a
    // phoneme gram's, and the reference walks it through hash maps.
    assert_keyed_on(&projected, 2 * query_step, uncovered);
}

/// `uncovered`: how many trailing names each prefix index leaves to its
/// tail (0 is the whole index).
fn assert_keyed_on(names: &[PhonemeString], query_step: usize, uncovered: &[usize]) {
    let operators = operators();
    let n = names.len();
    for q in 1..=4 {
        for mode in [QgramMode::Strict, QgramMode::PaperFaithful] {
            let hashed = HashedQgramFilter::build(names, q, mode);
            let flats = uncovered.iter().map(|tail| n - tail).map(|covered| {
                let flat = QgramFilter::build(&names[..covered], q, mode);
                assert_eq!(flat.len(), covered);
                assert_eq!(
                    flat.total_grams(),
                    names[..covered]
                        .iter()
                        .map(|s| s.len() + q - 1)
                        .sum::<usize>()
                );
                flat
            });
            let flats: Vec<QgramFilter> = flats.collect();
            for query in names.iter().step_by(query_step) {
                for e in [0.0, 0.05, 0.15, 0.25, 0.35, 0.45] {
                    // The budget a store's search filters with.
                    let k = e * query.len() as f64;
                    for (model, op) in operators.iter().enumerate() {
                        let want = hashed.candidates(query, k, op);
                        let row = |id: usize| names[id].id_bytes();
                        for flat in &flats {
                            assert_eq!(
                                flat.candidates_with_tail(query, k, op, n, row),
                                want,
                                "q={q} {mode:?} e={e} cost regime {model} query /{query}/ \
                                 index over {} of {n}",
                                flat.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn paper_corpus() {
    let corpus = Corpus::build(&MatchConfig::default());
    let names: Vec<PhonemeString> = corpus.entries.into_iter().map(|e| e.phonemes).collect();
    let n = names.len();
    assert_flat_is_the_hashed_filter(&names, 97, &[0, 1, n - n / 3, n - 1, n]);
}

#[test]
fn synthetic_preload_set() {
    let corpus = Corpus::build(&MatchConfig::default());
    let names: Vec<PhonemeString> = SyntheticDataset::generate(&corpus, 20_000)
        .entries
        .into_iter()
        .map(|e| e.phonemes)
        .collect();
    assert_eq!(names.len(), 20_418, "the set the daemon's --preload builds");
    // Tails a serving store can have — a row, and the fifth of the names
    // a re-cover would be about to absorb; `pipeline_consistency` walks
    // this set's coverage from zero at the store level.
    assert_flat_is_the_hashed_filter(&names, 3407, &[0, 1, names.len() / 5]);
}

/// One gram many times over on both sides is where the bag semantics
/// bite: which occurrence pairs with which decides the shared count.
/// Runs of one phoneme at staggered lengths and offsets, two-phoneme
/// periods, and every name twice.
#[test]
fn repeated_grams_and_duplicate_names() {
    let mut names: Vec<PhonemeString> = Vec::new();
    for len in [1, 2, 3, 5, 8, 13, 21, 34] {
        names.push("a".repeat(len).parse().unwrap());
        names.push(format!("{}n", "a".repeat(len)).parse().unwrap());
        names.push(format!("n{}", "a".repeat(len)).parse().unwrap());
        names.push(format!("{0}n{0}", "a".repeat(len)).parse().unwrap());
        names.push("an".repeat(len).parse().unwrap());
        names.push("na".repeat(len).parse().unwrap());
        names.push(format!("{}ana", "na".repeat(len)).parse().unwrap());
    }
    names.push(PhonemeString::empty());
    names.extend(names.clone());
    // Seven shapes a length: every third name queries each shape at
    // several lengths.
    let n = names.len();
    assert_flat_is_the_hashed_filter(&names, 3, &[0, 1, n - n / 3, n - 1, n]);
}
