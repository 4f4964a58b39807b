//! The LexEQUAL operator — the algorithm of the paper's Figure 8.

use crate::config::{CostModelKind, MatchConfig};
use crate::cost::{ClusteredPhonemeCost, DenseSubstCost, FeaturePhonemeCost};
use crate::verify::PreparedQuery;
use lexequal_embed::{Embedder, EMBED_DIM};
use lexequal_g2p::{G2pError, Language};
use lexequal_matcher::{edit_distance, within_distance, CostModel};
use lexequal_phoneme::{Inventory, PhonemeString};
use std::sync::Arc;

/// The three-valued result of a LexEQUAL comparison (Figure 8): a match,
/// a non-match, or "no TTP resource for one of the languages".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The strings match phonetically within the threshold.
    True,
    /// They do not.
    False,
    /// One of the languages has no installed transformation (`NORESOURCE`).
    NoResource(Language),
}

/// The LexEQUAL operator: configuration plus the matching entry points.
#[derive(Debug, Clone)]
pub struct LexEqual {
    config: MatchConfig,
    /// Cluster semantics (tables, grouped identifiers, cluster-id
    /// columns) — always the clustered parameterization, regardless of
    /// which model the dense matrix serves.
    cost: ClusteredPhonemeCost,
    /// The matrix the predicate and every DP actually evaluate: the
    /// clustered or feature-graded model per `config.cost_model`.
    dense: DenseSubstCost,
    /// Phonetic embedding tables (shared across operator clones — the
    /// service layer clones one operator per shard).
    embedder: Arc<Embedder>,
    /// Calibrated conservative scale of the embedding screen under
    /// `dense`: reject when `embed_scale · l1 > k`. `0.0` disables the
    /// screen (by config, or because no sound scale exists).
    embed_scale: f64,
    /// Conservative per-unit-op cost of the cluster-id Myers screen:
    /// every clustered edit op that induces a unit op on the cluster-id
    /// strings costs at least this much, so
    /// `lev_clus · clus_reject_scale > k` is a sound reject. Exactly 1.0
    /// for the clustered model (preserving its bit-identical screen
    /// arithmetic); the minimum cross-cluster substitution cost, capped
    /// at 1, for graded models.
    clus_reject_scale: f64,
    /// [`min_nonzero_cost`](Self::min_nonzero_cost), scanned out of
    /// `dense` once: every q-gram probe and BK-tree query asks for it.
    min_nonzero_cost: Option<f64>,
}

impl LexEqual {
    /// Build the operator from a configuration.
    pub fn new(config: MatchConfig) -> Self {
        let cost = ClusteredPhonemeCost::new(config.clusters.clone(), config.intra_cluster_cost);
        let dense = match config.cost_model {
            CostModelKind::Clustered => DenseSubstCost::from_clustered(&cost),
            CostModelKind::Feature => DenseSubstCost::from_model(&FeaturePhonemeCost::new()),
        };
        let embedder = Arc::new(Embedder::new(&config.clusters));
        let embed_scale = if config.embed_screen {
            embedder.conservative_scale(&dense)
        } else {
            0.0
        };
        let mut clus_reject_scale = f64::INFINITY;
        for a in Inventory::iter() {
            for b in Inventory::iter() {
                if a != b && !config.clusters.same_cluster(a, b) {
                    clus_reject_scale = clus_reject_scale.min(dense.sub(&a, &b));
                }
            }
        }
        // Insertions and deletions induce unit cluster ops at cost 1.
        let clus_reject_scale = clus_reject_scale.min(1.0);
        let min_nonzero_cost = min_nonzero_cost(&dense);
        LexEqual {
            config,
            cost,
            dense,
            embedder,
            embed_scale,
            clus_reject_scale,
            min_nonzero_cost,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The clustered parameterization — the source of cluster *semantics*
    /// (tables, grouped identifiers, cluster-id columns) even when the
    /// serving matrix is feature-graded.
    pub fn cost_model(&self) -> &ClusteredPhonemeCost {
        &self.cost
    }

    /// The cost model materialized as a dense substitution matrix — what
    /// the predicate and the verification kernels actually evaluate
    /// (flat-array lookup; clustered or feature-graded per
    /// [`MatchConfig::cost_model`]).
    pub fn dense_cost(&self) -> &DenseSubstCost {
        &self.dense
    }

    /// The smallest non-zero edit-operation cost of the *serving* matrix —
    /// maps a threshold to a conservative Levenshtein bound for q-gram
    /// filtering and BK-tree radii. `None` when some distinct pair
    /// substitutes for free (no finite bound exists).
    pub fn min_nonzero_cost(&self) -> Option<f64> {
        self.min_nonzero_cost
    }

    /// The phonetic embedder in force (shared tables).
    pub fn embedder(&self) -> &Arc<Embedder> {
        &self.embedder
    }

    /// The conservative embedding-screen scale under the serving matrix;
    /// `0.0` means the screen is off (config, or no sound scale exists —
    /// e.g. clustered costs at intra-cluster cost 0).
    pub fn embed_scale(&self) -> f64 {
        self.embed_scale
    }

    /// The cluster-screen scale (see the field docs): multiply the
    /// cluster-id Levenshtein by this before comparing against the
    /// budget. 1.0 for the clustered model.
    pub fn clus_reject_scale(&self) -> f64 {
        self.clus_reject_scale
    }

    /// The radius of the ball of cluster strings no match at budget `k`
    /// lies outside: a pair within clustered distance `k` has cluster
    /// strings within `k / clus_reject_scale` unit edits (the kernel's
    /// cluster screen, solved for the Levenshtein distance), a whole
    /// number of them. No finite radius holds every match of a model whose
    /// scale is 0 (some cross-cluster substitution is free).
    pub fn cluster_radius(&self, k: f64) -> u32 {
        if self.clus_reject_scale > 0.0 {
            (k / self.clus_reject_scale).floor() as u32
        } else {
            u32::MAX
        }
    }

    /// The phonetic embedding of `s` (what stores cache per entry and the
    /// mmap image persists).
    pub fn embed_for(&self, s: &PhonemeString) -> [u8; EMBED_DIM] {
        self.embedder.embed(s)
    }

    /// The cluster-id sequence of `s` under the configured cluster table —
    /// the per-string form of the paper's grouped phoneme string
    /// identifier, used by the kernel's fast-reject screen.
    pub fn cluster_ids(&self, s: &PhonemeString) -> Vec<u8> {
        self.cluster_ids_of(s.id_bytes()).collect()
    }

    /// [`cluster_ids`](Self::cluster_ids) of a string given as its raw
    /// inventory ids, one at a time.
    ///
    /// # Panics
    ///
    /// The iterator panics at an id outside the inventory.
    pub fn cluster_ids_of<'a>(&'a self, ids: &'a [u8]) -> impl Iterator<Item = u8> + 'a {
        let clusters = self.cost.clusters();
        ids.iter().map(|&id| clusters.cluster_of_id(id).0)
    }

    /// Preprocess a query for the verification kernel: cluster-id vector
    /// plus Myers bitmask tables over phoneme ids and cluster ids. Build
    /// once per query, verify many candidates through
    /// [`Verifier`](crate::verify::Verifier).
    pub fn prepare_query(&self, q: &PhonemeString) -> PreparedQuery {
        PreparedQuery::new(self, q)
    }

    /// `transform(S, L)` — the string's phonemic representation.
    ///
    /// # Errors
    ///
    /// [`G2pError::NoResource`] when `language` has no converter, plus
    /// conversion errors for untranslatable characters.
    pub fn transform(&self, text: &str, language: Language) -> Result<PhonemeString, G2pError> {
        self.config.registry.transform(text, language)
    }

    /// The full Figure 8 algorithm over lexicographic strings, using the
    /// configured default threshold.
    pub fn match_strings(
        &self,
        left: &str,
        left_language: Language,
        right: &str,
        right_language: Language,
    ) -> Result<Outcome, G2pError> {
        self.match_strings_with(
            left,
            left_language,
            right,
            right_language,
            self.config.threshold,
        )
    }

    /// Figure 8 with an explicit threshold `e`.
    pub fn match_strings_with(
        &self,
        left: &str,
        left_language: Language,
        right: &str,
        right_language: Language,
        e: f64,
    ) -> Result<Outcome, G2pError> {
        // Steps 1–2: language membership in S_L.
        for lang in [left_language, right_language] {
            if !self.config.registry.supports(lang) {
                return Ok(Outcome::NoResource(lang));
            }
        }
        // Step 3: transform. Untranslatable input is a genuine error, not
        // a non-match.
        let t_l = self.transform(left, left_language)?;
        let t_r = self.transform(right, right_language)?;
        // Steps 4–5: thresholded comparison.
        Ok(if self.matches_phonemes(&t_l, &t_r, e) {
            Outcome::True
        } else {
            Outcome::False
        })
    }

    /// The phoneme-space predicate, computed with the banded thresholded
    /// algorithm (no full DP matrix).
    ///
    /// Following the paper's prose — "if the edit distance is **less
    /// than** the threshold value, a positive match is flagged" — the
    /// comparison is strict (`editdistance(a, b) < e · min(|a|, |b|)`),
    /// with identical phoneme strings always matching (so threshold 0
    /// accepts exactly the perfect matches, §3.3). The strict form drops
    /// the crowded `d = k` boundary shell, which measurably improves
    /// precision at no recall cost on the evaluation corpus.
    pub fn matches_phonemes(&self, a: &PhonemeString, b: &PhonemeString, e: f64) -> bool {
        if a == b {
            return true;
        }
        let smaller = a.len().min(b.len());
        // within_distance tests d <= k' (with 1e-12 slack); shaving 1e-9
        // off the budget turns it into the strict d < k. The floor keeps
        // zero-distance pairs (identical up to free intra-cluster
        // substitutions when the cost is 0) matching at threshold 0.
        let k = (e * smaller as f64 - 1e-9).max(1e-12);
        // The dense matrix holds the exact floats of the configured model
        // (bit-equality pinned by `dense_matrix_reproduces_*` tests), so
        // evaluating through it keeps verdicts identical while serving
        // whichever model `config.cost_model` selects.
        within_distance(a.as_slice(), b.as_slice(), k, &self.dense)
    }

    /// The raw edit distance between two phoneme strings under the
    /// configured cost model (the paper's `editdistance` function; used
    /// by the quality experiments).
    pub fn distance(&self, a: &PhonemeString, b: &PhonemeString) -> f64 {
        edit_distance(a.as_slice(), b.as_slice(), &self.dense)
    }

    /// The absolute distance budget for a pair of strings under threshold
    /// `e` — `e · min(|a|, |b|)`.
    pub fn budget(&self, a: &PhonemeString, b: &PhonemeString, e: f64) -> f64 {
        e * a.len().min(b.len()) as f64
    }
}

/// The smallest non-zero edit-operation cost of `dense` (insertions and
/// deletions cost 1); `None` when some distinct pair substitutes for free.
fn min_nonzero_cost(dense: &DenseSubstCost) -> Option<f64> {
    let mut min = 1.0f64; // ins/del
    for a in Inventory::iter() {
        for b in Inventory::iter() {
            if a == b {
                continue;
            }
            let s = dense.sub(&a, &b);
            if s == 0.0 {
                return None;
            }
            min = min.min(s);
        }
    }
    Some(min)
}

impl Default for LexEqual {
    fn default() -> Self {
        LexEqual::new(MatchConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexequal_g2p::G2pRegistry;

    fn lex() -> LexEqual {
        LexEqual::default()
    }

    #[test]
    fn nehru_matches_across_three_scripts() {
        let l = lex();
        // English renders Nehru without the /ɦ/ the Devanagari spelling
        // makes explicit; the pairs involving Hindi therefore carry one
        // full-cost insertion and sit just past the default threshold —
        // 0.45 covers all three pairings (see EXPERIMENTS.md §quality).
        let pairs = [
            ("Nehru", Language::English, "नेहरु", Language::Hindi),
            ("Nehru", Language::English, "நேரு", Language::Tamil),
            ("नेहरु", Language::Hindi, "நேரு", Language::Tamil),
        ];
        for (a, la, b, lb) in pairs {
            assert_eq!(
                l.match_strings_with(a, la, b, lb, 0.45).unwrap(),
                Outcome::True,
                "{a} vs {b}"
            );
        }
        // The Tamil pairing already matches at the default threshold.
        assert_eq!(
            l.match_strings("Nehru", Language::English, "நேரு", Language::Tamil)
                .unwrap(),
            Outcome::True
        );
    }

    #[test]
    fn different_names_do_not_match() {
        let l = lex();
        assert_eq!(
            l.match_strings("Nehru", Language::English, "Gandhi", Language::English)
                .unwrap(),
            Outcome::False
        );
        assert_eq!(
            l.match_strings("Nehru", Language::English, "गांधी", Language::Hindi)
                .unwrap(),
            Outcome::False
        );
    }

    #[test]
    fn nero_is_the_papers_false_positive_at_generous_thresholds() {
        // Figure 1 discussion: Nero may match Nehru depending on the
        // threshold. English renders them /nɛro/ vs /nɛru/: distance is
        // one vowel substitution within the back-vowel region… check both
        // regimes.
        let l = lex();
        let strict = l
            .match_strings_with("Nehru", Language::English, "Nero", Language::English, 0.0)
            .unwrap();
        assert_eq!(strict, Outcome::False);
        let loose = l
            .match_strings_with("Nehru", Language::English, "Nero", Language::English, 0.5)
            .unwrap();
        assert_eq!(loose, Outcome::True);
    }

    #[test]
    fn threshold_zero_is_exact_phonemic_equality() {
        let l = lex();
        assert_eq!(
            l.match_strings_with("Kumar", Language::English, "Kumar", Language::English, 0.0)
                .unwrap(),
            Outcome::True
        );
    }

    #[test]
    fn noresource_for_unsupported_language() {
        let cfg =
            MatchConfig::default().with_registry(G2pRegistry::with_languages(&[Language::English]));
        let l = LexEqual::new(cfg);
        assert_eq!(
            l.match_strings("Nehru", Language::English, "नेहरु", Language::Hindi)
                .unwrap(),
            Outcome::NoResource(Language::Hindi)
        );
    }

    #[test]
    fn monotone_in_threshold() {
        // If a pair matches at threshold e, it matches at any e' >= e.
        let l = lex();
        let a = l.transform("Catherine", Language::English).unwrap();
        let b = l.transform("Kathryn", Language::English).unwrap();
        let mut matched = false;
        for e in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0] {
            let m = l.matches_phonemes(&a, &b, e);
            assert!(!matched || m, "match lost when threshold grew to {e}");
            matched = m;
        }
        assert!(matched, "Catherine/Kathryn should match by threshold 1.0");
    }

    #[test]
    fn distance_agrees_with_predicate() {
        let l = lex();
        let a = l.transform("Nehru", Language::English).unwrap();
        let b = l.transform("नेहरु", Language::Hindi).unwrap();
        let d = l.distance(&a, &b);
        let k = l.budget(&a, &b, l.config().threshold);
        assert_eq!(
            l.matches_phonemes(&a, &b, l.config().threshold),
            d <= k + 1e-12
        );
    }

    #[test]
    fn symmetric() {
        let l = lex();
        let a = l.transform("Nehru", Language::English).unwrap();
        let b = l.transform("நேரு", Language::Tamil).unwrap();
        assert_eq!(
            l.matches_phonemes(&a, &b, 0.3),
            l.matches_phonemes(&b, &a, 0.3)
        );
        assert_eq!(l.distance(&a, &b), l.distance(&b, &a));
    }

    #[test]
    fn feature_model_serves_end_to_end() {
        use crate::config::CostModelKind;
        let l = LexEqual::new(MatchConfig::default().with_cost_model(CostModelKind::Feature));
        // Cross-script match still holds under the graded matrix (its
        // substitutions are pricier than clustered's 0.25, so the knee
        // threshold sits a bit higher).
        assert_eq!(
            l.match_strings_with("Nehru", Language::English, "नेहरु", Language::Hindi, 0.45)
                .unwrap(),
            Outcome::True
        );
        assert_eq!(
            l.match_strings("Nehru", Language::English, "Gandhi", Language::English)
                .unwrap(),
            Outcome::False
        );
        // Every graded op cost is ≤ its unit-cost counterpart, so the
        // graded distance never exceeds plain Levenshtein.
        let a = l.transform("Catherine", Language::English).unwrap();
        let b = l.transform("Kathryn", Language::English).unwrap();
        let lev = edit_distance(a.as_slice(), b.as_slice(), lexequal_matcher::UnitCost);
        assert!(l.distance(&a, &b) <= lev + 1e-12);
        assert!(l.distance(&a, &b) > 0.0);
    }

    #[test]
    fn min_nonzero_cost_reflects_the_dense_matrix() {
        use crate::config::CostModelKind;
        // Clustered: min op cost is the intra-cluster cost (or None at 0).
        let l = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.25));
        assert_eq!(l.min_nonzero_cost(), Some(0.25));
        let free = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.0));
        assert_eq!(free.min_nonzero_cost(), None);
        // Feature: the floor bounds every distinct-pair substitution from
        // below; no two distinct phonemes share a feature bundle, so the
        // cheapest op is strictly above the floor but well under 1.
        let f = LexEqual::new(MatchConfig::default().with_cost_model(CostModelKind::Feature));
        let c = f.min_nonzero_cost().unwrap();
        assert!(c >= lexequal_embed::FeatureCost::new().floor);
        assert!(c < 1.0);
    }

    #[test]
    fn screen_scales_are_sound_defaults() {
        use crate::config::CostModelKind;
        for kind in [CostModelKind::Clustered, CostModelKind::Feature] {
            let l = LexEqual::new(MatchConfig::default().with_cost_model(kind));
            assert!(l.embed_scale() > 0.0, "{kind:?} must admit a screen");
            assert!(l.clus_reject_scale() > 0.0 && l.clus_reject_scale() <= 1.0);
            let off = LexEqual::new(
                MatchConfig::default()
                    .with_cost_model(kind)
                    .with_embed_screen(false),
            );
            assert_eq!(off.embed_scale(), 0.0, "flag must disable the screen");
        }
        // Clustered at the default table: the historical cluster screen
        // scale is exactly 1.0 (cheapest cross-cluster substitution).
        let l = lex();
        assert_eq!(l.clus_reject_scale(), 1.0);
        // A free intra-cluster substitution kills the embedding screen
        // (no sound positive scale exists) but not the predicate.
        let free = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.0));
        assert_eq!(free.embed_scale(), 0.0);
    }

    #[test]
    fn embed_for_matches_the_embedder() {
        let l = lex();
        let a = l.transform("Krishnan", Language::English).unwrap();
        assert_eq!(l.embed_for(&a), l.embedder().embed_ids(a.id_bytes()));
    }
}
