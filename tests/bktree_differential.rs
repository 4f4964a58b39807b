//! The bit-parallel BK-tree against its DP-built oracle, on real keys.
//!
//! Myers' algorithm computes exact Levenshtein distance, so probing with
//! it may change how fast the tree is built and walked but nothing about
//! the tree: over the paper corpus and over the 20 418-name synthetic set
//! the daemon preloads, the tree `BkTree::build` grows must equal the one
//! grown with the rolling-row DP at every probe, node for node, and its
//! range answers must equal a linear scan with that DP at every radius —
//! as must those of a tree over any prefix of the keys ranging through
//! the rest (`range_through`, how a store that has grown past its tree
//! answers).

use lexequal::{MatchConfig, PhonemeString};
use lexequal_lexicon::{Corpus, SyntheticDataset};
use lexequal_matcher::{edit_distance, BkTree, UnitCost};

fn assert_myers_tree_is_the_dp_tree(keys: &[PhonemeString], query_step: usize) {
    let key = |id: u32| keys[id as usize].id_bytes();
    let tree = BkTree::build(keys.len() as u32, key);
    assert_eq!(tree.len(), keys.len());
    assert!(
        tree == BkTree::build_reference(keys.len() as u32, key),
        "Myers-probed and DP-probed builds over {} keys grew different trees",
        keys.len()
    );
    // The whole tree, and trees that stop short of the keys.
    let n = keys.len() as u32;
    let mut trees = vec![(n, tree)];
    trees.extend([0, 1, n / 3, n - 1].map(|covered| (covered, BkTree::build(covered, key))));
    for query in keys.iter().step_by(query_step) {
        let distances: Vec<u32> = keys
            .iter()
            .map(|k| edit_distance(k.id_bytes(), query.id_bytes(), UnitCost) as u32)
            .collect();
        for k in 0..=8u32 {
            let want: Vec<(u32, u32)> = (0u32..)
                .zip(&distances)
                .filter(|&(_, &d)| d <= k)
                .map(|(id, &d)| (id, d))
                .collect();
            for (covered, tree) in &trees {
                let mut got = tree.range_through(key, query.id_bytes(), k, n);
                got.sort_unstable();
                assert_eq!(
                    got, want,
                    "query /{query}/ k={k} tree over {covered} of {n}"
                );
            }
        }
    }
}

#[test]
fn paper_corpus() {
    let corpus = Corpus::build(&MatchConfig::default());
    let keys: Vec<PhonemeString> = corpus.entries.into_iter().map(|e| e.phonemes).collect();
    assert_myers_tree_is_the_dp_tree(&keys, 97);
}

#[test]
fn synthetic_preload_set() {
    let corpus = Corpus::build(&MatchConfig::default());
    let keys: Vec<PhonemeString> = SyntheticDataset::generate(&corpus, 20_000)
        .entries
        .into_iter()
        .map(|e| e.phonemes)
        .collect();
    assert_eq!(keys.len(), 20_418, "the set the daemon's --preload builds");
    assert_myers_tree_is_the_dp_tree(&keys, 1601);
}
