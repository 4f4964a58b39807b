//! The paper's empirical claims, asserted as integration tests.
//!
//! Each test pins one *shape* from the evaluation section — not the
//! absolute numbers (our substrate differs), but the relationships the
//! paper's conclusions rest on.

use lexequal::store::NameEntry;
use lexequal::{ClusterTable, MatchConfig, NameStore, PhoneticIndex, SearchMethod};
use lexequal_lexicon::{sweep_sampled, Corpus, QualityPoint, SyntheticDataset};
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static C: OnceLock<Corpus> = OnceLock::new();
    C.get_or_init(|| Corpus::build(&MatchConfig::default()))
}

/// The corpus as the rows of a store under `config`, phonetic index built.
fn indexed(config: MatchConfig) -> NameStore {
    let entry = |e: &lexequal_lexicon::LexiconEntry| NameEntry {
        text: e.text.clone(),
        language: e.language,
        phonemes: e.phonemes.clone(),
    };
    let mut s = NameStore::new(config);
    s.extend_transformed(corpus().entries.iter().map(entry).collect());
    s.build_phonetic_index();
    s
}

fn quality_grid() -> &'static [QualityPoint] {
    static P: OnceLock<Vec<QualityPoint>> = OnceLock::new();
    P.get_or_init(|| {
        sweep_sampled(
            corpus(),
            &[0.0, 0.25, 0.5, 1.0],
            &[0.0, 0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.75, 1.0],
            4,
        )
    })
}

fn at(cost: f64, threshold: f64) -> &'static QualityPoint {
    quality_grid()
        .iter()
        .find(|p| p.cost == cost && (p.threshold - threshold).abs() < 1e-9)
        .expect("grid point exists")
}

// ---- Figure 10 / 13: dataset shapes ---------------------------------------

#[test]
fn figure10_corpus_scale_and_lengths() {
    let c = corpus();
    assert!(c.groups >= 700, "~800 groups expected, got {}", c.groups);
    assert_eq!(c.len() % 3, 0, "three renderings per group");
    // Paper: avg lex 7.35, phon 7.16, phonemic slightly shorter.
    assert!((4.5..=9.5).contains(&c.avg_lex_len()));
    assert!((4.5..=9.5).contains(&c.avg_phon_len()));
    assert!(
        c.avg_phon_len() <= c.avg_lex_len(),
        "phoneme strings should be a little shorter than spellings"
    );
}

#[test]
fn figure13_synthetic_scale_and_lengths() {
    let d = SyntheticDataset::generate(corpus(), 30_000);
    assert!((28_000..=33_000).contains(&d.len()));
    // Concatenation doubles the averages (paper: 14.71 / 14.31).
    let c = corpus();
    assert!((d.avg_phon_len() - 2.0 * c.avg_phon_len()).abs() < 1.0);
    assert!((d.avg_lex_len() - 2.0 * c.avg_lex_len()).abs() < 1.0);
}

// ---- Figure 11: recall / precision curves ---------------------------------

#[test]
fn figure11_recall_rises_with_threshold() {
    for cost in [0.0, 0.25, 0.5, 1.0] {
        let mut last = -1.0;
        for th in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0] {
            let r = at(cost, th).recall();
            assert!(r + 1e-12 >= last, "recall fell at cost {cost}, th {th}");
            last = r;
        }
    }
}

#[test]
fn figure11_recall_improves_with_lower_cost() {
    for th in [0.25, 0.3, 0.4, 0.5] {
        assert!(
            at(0.0, th).recall() + 1e-12 >= at(1.0, th).recall(),
            "Soundex-like costs must help recall (th {th})"
        );
        assert!(
            at(0.25, th).recall() + 1e-12 >= at(1.0, th).recall(),
            "cost 0.25 must beat cost 1.0 on recall (th {th})"
        );
    }
}

#[test]
fn figure11_recall_asymptotes_past_half() {
    for cost in [0.0, 0.25, 0.5] {
        let r = at(cost, 0.75).recall();
        assert!(r > 0.95, "recall at cost {cost}, th 0.75 was {r}");
    }
}

#[test]
fn figure11_precision_decays_with_threshold() {
    for cost in [0.25, 0.5, 1.0] {
        let p02 = at(cost, 0.2).precision();
        let p05 = at(cost, 0.5).precision();
        let p10 = at(cost, 1.0).precision();
        assert!(p05 < p02, "precision must fall 0.2 -> 0.5 (cost {cost})");
        assert!(p10 < p05, "precision must fall 0.5 -> 1.0 (cost {cost})");
    }
}

#[test]
fn figure11_soundex_limit_trades_precision_for_recall() {
    // Cost 0 at moderate thresholds: strong recall, weak precision
    // relative to cost 0.25 at the same threshold.
    let soundex = at(0.0, 0.3);
    let tuned = at(0.25, 0.3);
    assert!(soundex.recall() >= tuned.recall() - 1e-12);
    assert!(soundex.precision() < tuned.precision());
}

// ---- Figure 12: the knee ----------------------------------------------------

#[test]
fn figure12_knee_has_simultaneous_recall_and_precision() {
    // Paper: recall ≈95%, precision ≈85% at cost 0.25–0.5, th 0.25–0.35.
    // Our corpus carries more machine-conversion noise; demand ≥80/70
    // somewhere in the knee region and report exact values in
    // EXPERIMENTS.md.
    let knee = [at(0.25, 0.2), at(0.25, 0.25), at(0.25, 0.3), at(0.5, 0.25)];
    let best = knee
        .iter()
        .min_by(|a, b| {
            a.distance_to_ideal()
                .partial_cmp(&b.distance_to_ideal())
                .expect("finite")
        })
        .expect("non-empty");
    assert!(
        best.recall() > 0.8 && best.precision() > 0.7,
        "knee quality too low: r={:.3} p={:.3}",
        best.recall(),
        best.precision()
    );
}

#[test]
fn figure12_extreme_parameters_are_dominated() {
    // Both extremes (cost 1 and threshold 1) are far from the corner.
    let knee = at(0.25, 0.25).distance_to_ideal();
    assert!(at(1.0, 0.25).distance_to_ideal() > knee);
    assert!(at(0.25, 1.0).distance_to_ideal() > knee);
    assert!(at(0.0, 1.0).distance_to_ideal() > knee);
}

// ---- Table 3: phonetic index dismissals ------------------------------------

#[test]
fn table3_phonetic_index_dismisses_small_fraction_of_self_probes() {
    // Probing with strings from the corpus itself: the identical string
    // always shares its own grouped id, so self-matches are never lost;
    // cross-script matches with cross-cluster edits are. The dismissal
    // rate must be well below half for corpus probes at the knee.
    let store = indexed(MatchConfig::default());
    let op = store.operator();
    let phonemes = store.phoneme_strings();
    let mut scan_hits = 0usize;
    let mut index_hits = 0usize;
    for q in phonemes.iter().step_by(29) {
        let found = store.search_phonemes(q, 0.25, SearchMethod::PhoneticIndex);
        index_hits += found.ids.len();
        scan_hits += phonemes
            .iter()
            .filter(|p| op.matches_phonemes(p, q, 0.25))
            .count();
    }
    assert!(index_hits <= scan_hits);
    let rate = (scan_hits - index_hits) as f64 / scan_hits.max(1) as f64;
    assert!(
        rate < 0.5,
        "dismissal rate {rate:.2} unreasonably high for corpus probes"
    );
    assert!(rate > 0.0, "some dismissals are expected (paper: 4-5%)");
}

#[test]
fn coarse_clusters_increase_candidates_and_reduce_dismissals() {
    let c = corpus();
    let phonemes: Vec<_> = c.entries.iter().map(|e| e.phonemes.clone()).collect();
    let keys = |table: &ClusterTable| PhoneticIndex::build(table, &phonemes).distinct_keys();
    assert!(keys(&ClusterTable::coarse()) < keys(&ClusterTable::standard()));

    let fine = indexed(MatchConfig::default());
    let coarse = indexed(MatchConfig::default().with_clusters(ClusterTable::coarse()));
    let mut fine_hits = 0usize;
    let mut coarse_hits = 0usize;
    for q in phonemes.iter().step_by(47) {
        let hits = |s: &NameStore| s.search_phonemes(q, 0.25, SearchMethod::PhoneticIndex).ids;
        fine_hits += hits(&fine).len();
        coarse_hits += hits(&coarse).len();
    }
    // Coarser grouping retrieves at least as many candidates.
    assert!(coarse_hits >= fine_hits);
}
