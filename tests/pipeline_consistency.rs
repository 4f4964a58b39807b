//! Cross-crate consistency: every access path must tell the same story.
//!
//! These tests run the whole stack — corpus generation, G2P, cost model,
//! accelerators — and assert the semantic relationships between access
//! paths that the paper's architecture relies on:
//!
//! * scan and strict q-gram search return identical result sets;
//! * the BK-tree search returns identical result sets;
//! * those two sound paths put one and the same set of rows to the
//!   verifier — the ball of cluster strings around the query's — and it is
//!   a small part of the store at the paper's operating point;
//! * the phonetic index returns a subset (its dismissals), never a
//!   superset;
//! * everything is symmetric and deterministic;
//! * how much of a store an index covers is invisible: every path returns
//!   the same ids *and* asks the verifier about the same rows at any
//!   coverage, because a row no index holds is put to the path's own
//!   pair-wise rule.

use lexequal::store::NameEntry;
use lexequal::{
    BatchVerifier, BuildSpec, MatchConfig, NameStore, PathIndex, QgramFilter, QgramMode,
    SearchMethod,
};
use lexequal_lexicon::Corpus;
use lexequal_matcher::{edit_distance, length_filter_passes, BkTree, UnitCost};
use std::sync::OnceLock;

const THRESHOLD: f64 = 0.3;

/// The corpus slice every test searches, loaded under `config` with no
/// access path built.
fn load(config: MatchConfig) -> NameStore {
    let corpus = Corpus::build(&config);
    let mut store = NameStore::new(config);
    // Every 5th group keeps the test fast while spanning all scripts.
    store
        .extend(
            corpus
                .entries
                .iter()
                .filter(|e| e.tag % 5 == 0)
                .map(|e| (e.text.clone(), e.language)),
        )
        .expect("bulk load");
    store
}

fn store() -> &'static NameStore {
    static STORE: OnceLock<NameStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let mut store = load(MatchConfig::default());
        store.build_qgram(3, QgramMode::Strict);
        store.build_phonetic_index();
        store.build_bktree();
        store
    })
}

fn queries_of(s: &NameStore) -> Vec<lexequal::PhonemeString> {
    (0..s.len() as u32)
        .step_by(37)
        .map(|i| s.get(i).expect("valid id").phonemes.clone())
        .collect()
}

fn queries() -> Vec<lexequal::PhonemeString> {
    queries_of(store())
}

/// The three cost regimes every exact access path is held to a scan
/// under: fractional, unit and free intra-cluster substitutions. Unit cost
/// is plain Levenshtein (`min_nonzero_cost` is 1, so STRICT's bound over
/// phoneme ids is the budget itself); free substitutions leave no finite
/// bound over phoneme ids that contains every match — the bound over
/// cluster strings the sound paths use does not care what an
/// intra-cluster substitution costs.
fn cost_regimes() -> [MatchConfig; 3] {
    [
        MatchConfig::default(),
        MatchConfig::default().with_intra_cluster_cost(1.0),
        MatchConfig::default().with_intra_cluster_cost(0.0),
    ]
}

#[test]
fn qgram_strict_equals_scan() {
    for config in cost_regimes() {
        let mut s = load(config);
        s.build_qgram(3, QgramMode::Strict);
        for q in queries_of(&s) {
            // The BK-tree's grid, plus a threshold low enough that the
            // count filter still rejects under STRICT's scaled bound.
            for e in [0.05, 0.25, 0.35, 0.45] {
                let scan = s.search_phonemes(&q, e, SearchMethod::Scan);
                let qg = s.search_phonemes(&q, e, SearchMethod::Qgram);
                assert_eq!(scan.ids, qg.ids, "query /{q}/ e={e}");
                assert!(
                    qg.verifications <= scan.verifications,
                    "q-grams may not verify more than a scan"
                );
            }
        }
    }
}

#[test]
fn bktree_equals_scan() {
    for config in cost_regimes() {
        let mut s = load(config);
        s.build_bktree();
        // The radius is `⌊k⌋` whatever the intra-cluster cost, so no
        // regime falls back to verifying every row: the ball is a sliver
        // of the store.
        let (mut verified, mut scanned) = (0, 0);
        for q in queries_of(&s) {
            for e in [0.25, 0.35, 0.45] {
                let scan = s.search_phonemes(&q, e, SearchMethod::Scan);
                let bk = s.search_phonemes(&q, e, SearchMethod::BkTree);
                assert_eq!(scan.ids, bk.ids, "query /{q}/ e={e}");
                assert!(bk.verifications <= scan.verifications);
                verified += bk.verifications;
                scanned += scan.verifications;
            }
        }
        assert!(
            verified * 16 < scanned,
            "{verified} of {scanned} rows verified"
        );
    }
}

/// Under every regime the two sound paths hand the verifier one set, a
/// function of rows, query and threshold: the rows inside the length
/// filter whose cluster string is within the operator's radius of the
/// query's — found here by measuring every row with the plain DP.
#[test]
fn strict_qgram_and_bktree_put_the_same_rows_to_the_verifier() {
    for (regime, config) in cost_regimes().into_iter().enumerate() {
        let mut s = load(config);
        s.build_qgram(3, QgramMode::Strict);
        s.build_bktree();
        let (rows, op) = (s.rows(), s.operator());
        let n = rows.len();
        let clusters = |id: usize| rows.row(id).clusters;
        let filter = QgramFilter::build_rows(n, clusters, 3, QgramMode::Strict);
        let tree = BkTree::build(n as u32, |id| clusters(id as usize));
        for q in queries_of(&s) {
            let prepared = op.prepare_query(&q);
            let (query, probe) = (prepared.cluster_ids(), prepared.cluster_probe());
            for e in [0.05, 0.25, 0.35, 0.45] {
                let k = e * q.len() as f64;
                let radius = op.cluster_radius(k);
                let inside = |id: &usize| {
                    length_filter_passes(clusters(*id).len(), q.len(), k)
                        && edit_distance(clusters(*id), query, UnitCost) <= radius as f64
                };
                let ball: Vec<u32> = (0..n).filter(inside).map(|id| id as u32).collect();
                let what = format!("regime {regime} query /{q}/ e={e}");
                let by_grams = filter.within(query, k, radius, &probe, n, clusters);
                assert_eq!(by_grams, ball, "{what}: q-gram path");
                let mut by_tree = Vec::new();
                tree.walk(
                    |id| clusters(id as usize),
                    &probe,
                    radius,
                    n as u32,
                    |id, _| by_tree.push(id),
                );
                by_tree.retain(|&id| inside(&(id as usize)));
                by_tree.sort_unstable();
                assert_eq!(by_tree, ball, "{what}: BK-tree path");
                for method in [SearchMethod::Qgram, SearchMethod::BkTree] {
                    let verified = s.search_phonemes(&q, e, method).verifications;
                    assert_eq!(verified, ball.len(), "{what}: {method:?} verified");
                }
            }
        }
    }
}

/// The preload set at the paper's operating point (clustered costs,
/// `e` = 0.35): the cluster-keyed count filter leaves the probe under an
/// eighth of the rows, the ball the verifier under a sixty-fourth
/// (measured n / 13 and n / 179 over lexbench's hot pool; the phoneme-keyed
/// bound left 18 651 and 20 055 of 20 418).
#[test]
fn the_sound_paths_are_selective_on_the_preload_set() {
    let entries = lexequal_lexicon::build_dataset(&MatchConfig::default(), 20_000);
    let mut s = NameStore::new(MatchConfig::default());
    s.extend_transformed(entries);
    s.build_qgram(3, QgramMode::Strict);
    let (rows, n) = (s.rows(), s.len());
    let filter = QgramFilter::build_rows(n, |id| rows.row(id).clusters, 3, QgramMode::Strict);
    let queries: Vec<_> = (0..n as u32).step_by(319).collect();
    let (mut survivors, mut ball, mut matches) = (0, 0, 0);
    for q in queries
        .iter()
        .map(|&id| s.get(id).expect("valid id").phonemes)
    {
        let prepared = s.operator().prepare_query(&q);
        let k = 0.35 * q.len() as f64;
        let bound = s.operator().cluster_radius(k) as f64;
        survivors += filter.survivors(prepared.cluster_ids(), k, bound).len();
        let found = s.search_phonemes(&q, 0.35, SearchMethod::Qgram);
        assert_eq!(
            found.ids,
            s.search_phonemes(&q, 0.35, SearchMethod::Scan).ids
        );
        ball += found.verifications;
        matches += found.ids.len();
    }
    let mean = |total: usize| total / queries.len();
    assert!(
        mean(survivors) <= n / 8 && mean(ball) <= n / 64 && matches <= ball && ball <= survivors,
        "a query: {} posting survivors, {} in the ball, {} matches of {n} names",
        mean(survivors),
        mean(ball),
        mean(matches)
    );
}

#[test]
fn phonetic_index_is_sound_subset() {
    let s = store();
    let mut total_scan = 0usize;
    let mut total_index = 0usize;
    for q in queries() {
        let scan = s.search_phonemes(&q, THRESHOLD, SearchMethod::Scan);
        let pi = s.search_phonemes(&q, THRESHOLD, SearchMethod::PhoneticIndex);
        for id in &pi.ids {
            assert!(
                scan.ids.contains(id),
                "index returned a false positive for /{q}/"
            );
        }
        total_scan += scan.ids.len();
        total_index += pi.ids.len();
    }
    assert!(total_index <= total_scan);
    // Self-probes always hit: every query is a stored string.
    assert!(total_index >= queries().len());
}

#[test]
fn search_is_deterministic() {
    let s = store();
    let q = queries().into_iter().next().expect("non-empty");
    let a = s.search_phonemes(&q, THRESHOLD, SearchMethod::Qgram);
    let b = s.search_phonemes(&q, THRESHOLD, SearchMethod::Qgram);
    assert_eq!(a, b);
}

#[test]
fn scan_matches_are_symmetric() {
    let s = store();
    let op = s.operator();
    let qs = queries();
    for (i, a) in qs.iter().enumerate() {
        for b in &qs[i + 1..] {
            assert_eq!(
                op.matches_phonemes(a, b, THRESHOLD),
                op.matches_phonemes(b, a, THRESHOLD),
                "/{a}/ vs /{b}/"
            );
        }
    }
}

#[test]
fn every_stored_name_matches_itself_at_threshold_zero() {
    let s = store();
    for id in (0..s.len() as u32).step_by(11) {
        let e = s.get(id).expect("valid");
        let r = s.search_phonemes(&e.phonemes, 0.0, SearchMethod::Scan);
        assert!(r.ids.contains(&id), "{} does not match itself", e.text);
    }
}

/// Every path spec coverage independence is claimed for: the q-gram
/// filter at each gram size under both dismissal policies, the phonetic
/// index and the BK-tree.
fn specs() -> Vec<BuildSpec> {
    let modes = [QgramMode::Strict, QgramMode::PaperFaithful];
    let qgram = (1..=4).flat_map(|q| modes.map(|mode| BuildSpec::Qgram { q, mode }));
    qgram
        .chain([BuildSpec::PhoneticIndex, BuildSpec::BkTree])
        .collect()
}

/// Load `entries` under a cost regime and walk every spec's index up
/// through covering 0, 1, n/3, n−1 and n rows of them: at every step a
/// search must return what it returns at full coverage, ids and
/// verification counts, for every `query_step`-th stored name at the
/// thresholds the exact paths are held to a scan under. The batched form
/// (what the shard workers serve through) always; the pair-at-a-time form
/// too where `both_forms` can be afforded.
fn assert_coverage_is_invisible(
    config: MatchConfig,
    entries: &[NameEntry],
    query_step: usize,
    both_forms: bool,
) {
    let n = entries.len();
    let mut batched = BatchVerifier::new();
    let mut s = NameStore::new(config);
    s.extend_transformed(entries.to_vec());
    let clusters = s.operator().cost_model().clusters().clone();
    let queries: Vec<_> = (entries.iter().step_by(query_step))
        .map(|e| e.phonemes.clone())
        .collect();
    for spec in specs() {
        let mut answers = Vec::new();
        for covered in [0, 1, n / 3, n - 1, n] {
            if covered == 0 {
                s.declare(spec);
            } else {
                let rows = s.rows();
                let row = |id: usize| rows.row(id).key(spec.key());
                let index = PathIndex::build(spec, &clusters, covered, row);
                assert!(s.install(index), "{spec:?} to {covered} rows");
            }
            assert_eq!(s.coverage().last(), Some(&(spec, covered)));
            let mut at_this_coverage = Vec::new();
            for q in &queries {
                for e in [0.05, 0.25, 0.35, 0.45] {
                    let many = s.search_phonemes_batched(q, e, spec.method(), &mut batched);
                    if both_forms {
                        let one = s.search_phonemes(q, e, spec.method());
                        assert_eq!(one, many, "{spec:?} /{q}/ e={e} at {covered} rows");
                    }
                    at_this_coverage.push(many);
                }
            }
            answers.push((covered, at_this_coverage));
        }
        let (_, full) = answers.pop().expect("five coverages");
        for (covered, partial) in answers {
            assert!(
                partial == full,
                "{spec:?} answers differently covered to {covered} of {n} rows"
            );
        }
    }
}

#[test]
fn coverage_is_invisible_over_the_paper_corpus() {
    let corpus = Corpus::build(&MatchConfig::default());
    let entries: Vec<NameEntry> = (corpus.entries.into_iter())
        .map(|e| NameEntry {
            text: e.text,
            language: e.language,
            phonemes: e.phonemes,
        })
        .collect();
    for config in cost_regimes() {
        assert_coverage_is_invisible(config, &entries, 499, true);
    }
}

/// The 20 418 names `lexequald --preload 20000` loads, one test a cost
/// regime so they run side by side.
fn preload_set_under(regime: usize) {
    let entries = lexequal_lexicon::build_dataset(&MatchConfig::default(), 20_000);
    assert_eq!(
        entries.len(),
        20_418,
        "the set the daemon's --preload builds"
    );
    let config = cost_regimes().into_iter().nth(regime).expect("a regime");
    assert_coverage_is_invisible(config, &entries, 12_007, false);
}

#[test]
fn coverage_is_invisible_over_the_preload_set_clustered() {
    preload_set_under(0);
}

#[test]
fn coverage_is_invisible_over_the_preload_set_feature_graded() {
    preload_set_under(1);
}

#[test]
fn coverage_is_invisible_over_the_preload_set_free_intra_cluster() {
    preload_set_under(2);
}
