//! Operator configuration.

use lexequal_g2p::G2pRegistry;
use lexequal_phoneme::ClusterTable;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Every threshold `e` the operator accepts, at every door that carries
/// one: [`MatchConfig::with_threshold`], the SQL `LEXEQUAL`/`PHONEQUAL`
/// UDFs, the daemon's wire requests and its `--threshold` flag. NaN is
/// outside it (`contains` compares).
pub const THRESHOLD_RANGE: RangeInclusive<f64> = 0.0..=1.0;

/// Tunable parameters of the LexEQUAL operator (paper §3.3).
///
/// The defaults sit in the knee region the paper identifies as optimal for
/// its multiscript names dataset: intra-cluster substitution cost in
/// `[0.25, 0.5]` and match threshold in `[0.25, 0.35]`, yielding ≈95%
/// recall at ≈85% precision (Figure 12).
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Default match threshold `e`: allowable edit distance as a fraction
    /// of the smaller phoneme string. 0 accepts only perfect phonemic
    /// matches.
    pub threshold: f64,
    /// Cost of substituting one phoneme by another *within the same
    /// cluster*. 1.0 degenerates to plain Levenshtein; 0.0 approximates
    /// Soundex (free substitutions among like phonemes).
    pub intra_cluster_cost: f64,
    /// The phoneme clustering in force (the paper's "installable cost
    /// matrix" resource; user-customizable).
    pub clusters: Arc<ClusterTable>,
    /// Installed text-to-phoneme converters (the paper's `S_L`).
    pub registry: Arc<G2pRegistry>,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            threshold: 0.35,
            intra_cluster_cost: 0.25,
            clusters: Arc::new(ClusterTable::standard()),
            registry: Arc::new(G2pRegistry::standard()),
        }
    }
}

impl MatchConfig {
    /// Set the match threshold.
    pub fn with_threshold(mut self, e: f64) -> Self {
        assert!(THRESHOLD_RANGE.contains(&e), "threshold must be in [0,1]");
        self.threshold = e;
        self
    }

    /// Set the intra-cluster substitution cost.
    pub fn with_intra_cluster_cost(mut self, c: f64) -> Self {
        assert!((0.0..=1.0).contains(&c), "cost must be in [0,1]");
        self.intra_cluster_cost = c;
        self
    }

    /// Use a custom phoneme clustering.
    pub fn with_clusters(mut self, t: ClusterTable) -> Self {
        self.clusters = Arc::new(t);
        self
    }

    /// Use a restricted converter registry.
    pub fn with_registry(mut self, r: G2pRegistry) -> Self {
        self.registry = Arc::new(r);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sit_in_the_papers_knee_region() {
        let c = MatchConfig::default();
        assert!((0.25..=0.35).contains(&c.threshold));
        assert!((0.25..=0.5).contains(&c.intra_cluster_cost));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_out_of_range_panics() {
        let _ = MatchConfig::default().with_threshold(1.5);
    }

    #[test]
    #[should_panic(expected = "cost")]
    fn cost_out_of_range_panics() {
        let _ = MatchConfig::default().with_intra_cluster_cost(-0.1);
    }

    #[test]
    fn builders_apply() {
        let c = MatchConfig::default()
            .with_threshold(0.25)
            .with_intra_cluster_cost(0.0);
        assert_eq!(c.threshold, 0.25);
        assert_eq!(c.intra_cluster_cost, 0.0);
    }
}
