//! The flat q-gram index against the hash-map algorithm it replaced.
//!
//! `QgramFilter::candidates` changed its data structure, its probe and —
//! where the count filter cannot reject — whether it probes at all, but
//! not its answer: for every gram size, both dismissal policies, budgets
//! from zero through selective to vacuous, and all three cost regimes, it
//! must return the very `Vec<u32>` the kept-verbatim reference returns,
//! over the paper corpus, over the 20 418-name synthetic set the daemon
//! preloads, and over names built to stress the greedy bag match.

use lexequal::qgram_plan::reference::HashedQgramFilter;
use lexequal::{CostModelKind, LexEqual, MatchConfig, PhonemeString, QgramFilter, QgramMode};
use lexequal_lexicon::{Corpus, SyntheticDataset};

/// Clustered, feature-graded, and clustered with free intra-cluster
/// substitutions (STRICT has no finite bound: length filter only).
fn operators() -> [LexEqual; 3] {
    [
        MatchConfig::default(),
        MatchConfig::default().with_cost_model(CostModelKind::Feature),
        MatchConfig::default().with_intra_cluster_cost(0.0),
    ]
    .map(LexEqual::new)
}

fn assert_flat_is_the_hashed_filter(names: &[PhonemeString], query_step: usize) {
    let operators = operators();
    for q in 1..=4 {
        for mode in [QgramMode::Strict, QgramMode::PaperFaithful] {
            let flat = QgramFilter::build(names, q, mode);
            let hashed = HashedQgramFilter::build(names, q, mode);
            assert_eq!(flat.len(), names.len());
            assert_eq!(
                flat.total_grams(),
                names.iter().map(|s| s.len() + q - 1).sum::<usize>()
            );
            for query in names.iter().step_by(query_step) {
                for e in [0.0, 0.05, 0.15, 0.25, 0.35, 0.45] {
                    // The budget `search` filters with.
                    let k = e * query.len() as f64;
                    for (model, op) in operators.iter().enumerate() {
                        assert_eq!(
                            flat.candidates(query, k, op),
                            hashed.candidates(query, k, op),
                            "q={q} {mode:?} e={e} cost regime {model} query /{query}/"
                        );
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
    assert_flat_is_the_hashed_filter(&names, 97);
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
    assert_flat_is_the_hashed_filter(&names, 3407);
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
    assert_flat_is_the_hashed_filter(&names, 3);
}
