//! The clustered phoneme substitution cost (paper §3.3).
//!
//! "We support a *Clustered Edit Distance* parameterization, by extending
//! the Soundex algorithm to the phonetic domain, under the assumption that
//! clusters of like phonemes exist and a substitution of a like phoneme
//! costs less than a substitution from across clusters."

use lexequal_matcher::CostModel;
use lexequal_phoneme::{ClusterTable, Inventory, Phoneme};
use std::sync::Arc;

/// Cost model over phonemes: identical segments are free; substitutions
/// within a cluster cost [`intra_cost`](Self::intra_cost); substitutions
/// across clusters, insertions and deletions cost 1.
#[derive(Debug, Clone)]
pub struct ClusteredPhonemeCost {
    clusters: Arc<ClusterTable>,
    intra_cost: f64,
}

impl ClusteredPhonemeCost {
    /// Build from a cluster table and an intra-cluster substitution cost
    /// in `[0, 1]`.
    pub fn new(clusters: Arc<ClusterTable>, intra_cost: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intra_cost),
            "intra-cluster cost must be in [0,1]"
        );
        ClusteredPhonemeCost {
            clusters,
            intra_cost,
        }
    }

    /// The intra-cluster substitution cost.
    pub fn intra_cost(&self) -> f64 {
        self.intra_cost
    }

    /// The cluster table in force.
    pub fn clusters(&self) -> &ClusterTable {
        &self.clusters
    }

    /// The smallest non-zero edit-operation cost — used to map a clustered
    /// threshold to a conservative Levenshtein bound for q-gram filtering.
    /// `None` when the intra-cluster cost is zero (no finite bound).
    pub fn min_nonzero_cost(&self) -> Option<f64> {
        if self.intra_cost > 0.0 {
            Some(self.intra_cost.min(1.0))
        } else {
            None
        }
    }
}

impl CostModel<Phoneme> for ClusteredPhonemeCost {
    fn ins(&self, _t: &Phoneme) -> f64 {
        1.0
    }

    fn del(&self, _t: &Phoneme) -> f64 {
        1.0
    }

    fn sub(&self, a: &Phoneme, b: &Phoneme) -> f64 {
        if a == b {
            0.0
        } else if self.clusters.same_cluster(*a, *b) {
            self.intra_cost
        } else {
            1.0
        }
    }

    fn min_indel(&self) -> f64 {
        1.0
    }
}

/// [`ClusteredPhonemeCost`] materialized as a dense `N×N` substitution
/// matrix over [`Phoneme::index`], where `N` is the inventory size.
///
/// The DP inner loop of candidate verification evaluates `sub` once per
/// cell; with the clustered model that is two cluster-table loads plus
/// branches. Precomputing every pairwise cost (the inventory is `u8`-sized,
/// so the matrix is a few dozen KB) turns it into a single flat array load.
/// The matrix stores the *exact* `f64` values `ClusteredPhonemeCost::sub`
/// returns, so distances computed through either model are bit-identical.
///
/// The matrix is behind an `Arc`: cloning the operator shares one copy.
#[derive(Debug, Clone)]
pub struct DenseSubstCost {
    /// Row-major `N×N`: `sub[a.index() * n + b.index()]`.
    sub: Arc<[f64]>,
    n: usize,
}

impl DenseSubstCost {
    /// Materialize `source` over the full phoneme inventory.
    pub fn from_clustered(source: &ClusteredPhonemeCost) -> Self {
        let n = Inventory::len();
        let mut sub = vec![0.0f64; n * n];
        for a in Inventory::iter() {
            for b in Inventory::iter() {
                sub[a.index() * n + b.index()] = source.sub(&a, &b);
            }
        }
        DenseSubstCost {
            sub: Arc::from(sub),
            n,
        }
    }

    /// Inventory size `N` (the matrix is `N×N`).
    pub fn inventory_len(&self) -> usize {
        self.n
    }

    /// The raw row-major matrix (`matrix[a.index() * N + b.index()]`) —
    /// what the lane-batched DP kernel gathers from directly.
    pub fn matrix(&self) -> &[f64] {
        &self.sub
    }
}

impl CostModel<Phoneme> for DenseSubstCost {
    fn ins(&self, _t: &Phoneme) -> f64 {
        1.0
    }

    fn del(&self, _t: &Phoneme) -> f64 {
        1.0
    }

    #[inline]
    fn sub(&self, a: &Phoneme, b: &Phoneme) -> f64 {
        self.sub[a.index() * self.n + b.index()]
    }

    fn min_indel(&self) -> f64 {
        1.0
    }
}

/// The same model over raw inventory ids: a row of a flat phoneme column
/// goes to the DP as it lies.
impl CostModel<u8> for DenseSubstCost {
    fn ins(&self, _t: &u8) -> f64 {
        1.0
    }

    fn del(&self, _t: &u8) -> f64 {
        1.0
    }

    #[inline]
    fn sub(&self, a: &u8, b: &u8) -> f64 {
        self.sub[*a as usize * self.n + *b as usize]
    }
}

#[cfg(test)]
mod dense_cost_tests {
    use super::*;

    #[test]
    fn dense_matrix_reproduces_clustered_costs_exactly() {
        for intra in [0.0, 0.25, 0.5, 1.0] {
            let clustered = ClusteredPhonemeCost::new(Arc::new(ClusterTable::standard()), intra);
            let dense = DenseSubstCost::from_clustered(&clustered);
            assert_eq!(dense.inventory_len(), Inventory::len());
            for a in Inventory::iter() {
                for b in Inventory::iter() {
                    // Bit-for-bit equality, not approximate: the kernel
                    // relies on identical floats feeding the DP.
                    assert_eq!(
                        dense.sub(&a, &b).to_bits(),
                        clustered.sub(&a, &b).to_bits(),
                        "{a:?} vs {b:?} at intra={intra}"
                    );
                }
            }
            assert_eq!(dense.ins(&Inventory::iter().next().unwrap()), 1.0);
            assert_eq!(CostModel::<Phoneme>::min_indel(&dense), 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexequal_matcher::edit_distance;
    use lexequal_phoneme::PhonemeString;

    fn cost(c: f64) -> ClusteredPhonemeCost {
        ClusteredPhonemeCost::new(Arc::new(ClusterTable::standard()), c)
    }

    fn ps(s: &str) -> PhonemeString {
        s.parse().unwrap()
    }

    #[test]
    fn identical_is_free() {
        let m = cost(0.5);
        let p = ps("n")[0];
        assert_eq!(m.sub(&p, &p), 0.0);
    }

    #[test]
    fn intra_cluster_is_cheap_cross_cluster_full() {
        let m = cost(0.25);
        let p = ps("p")[0];
        let b = ps("b")[0]; // same cluster (labial stops)
        let k = ps("k")[0]; // different cluster
        assert_eq!(m.sub(&p, &b), 0.25);
        assert_eq!(m.sub(&p, &k), 1.0);
        assert_eq!(m.sub(&b, &p), 0.25); // symmetric
    }

    #[test]
    fn unit_cost_at_one_equals_levenshtein() {
        let m1 = cost(1.0);
        let a = ps("neru");
        let b = ps("neɾu"); // r->ɾ same cluster
        let d = edit_distance(a.as_slice(), b.as_slice(), &m1);
        assert_eq!(d, 1.0, "cost 1.0 must behave like Levenshtein");
    }

    #[test]
    fn soundex_like_at_zero() {
        let m0 = cost(0.0);
        let a = ps("neru");
        let b = ps("neɾu");
        let d = edit_distance(a.as_slice(), b.as_slice(), &m0);
        assert_eq!(d, 0.0, "cost 0 makes like-phoneme substitutions free");
    }

    #[test]
    fn clustered_distance_is_bounded_by_levenshtein() {
        let a = ps("nɛru");
        let b = ps("neːɾu");
        let lev = edit_distance(a.as_slice(), b.as_slice(), cost(1.0));
        let clustered = edit_distance(a.as_slice(), b.as_slice(), cost(0.25));
        assert!(clustered <= lev);
        assert!(clustered > 0.0);
    }

    #[test]
    fn min_nonzero_cost() {
        assert_eq!(cost(0.25).min_nonzero_cost(), Some(0.25));
        assert_eq!(cost(1.0).min_nonzero_cost(), Some(1.0));
        assert_eq!(cost(0.0).min_nonzero_cost(), None);
    }
}

/// The feature-graded substitution model of the cost-model ablation
/// (`ablation_costs`), re-exported from its home in `lexequal-embed`, next
/// to the [`Embedder`](lexequal_embed::Embedder): both are pure functions
/// of the articulatory feature bundles. The operator never serves it.
pub use lexequal_embed::FeatureCost as FeaturePhonemeCost;
