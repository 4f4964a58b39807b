//! Damerau extension: adjacent transpositions as a fourth edit operation.
//!
//! The paper notes its DP formulation was chosen "for its flexibility in
//! simulating a wide range of different edit distances by appropriate
//! parameterization" (§2.3). Transpositions are the classic such
//! extension for *typing* errors — `Catyh` for `Cathy` is the paper's own
//! §2.3 example of an input-error variant — and cost a single operation
//! under Damerau semantics instead of two substitutions.
//!
//! This module implements the restricted (optimal-string-alignment)
//! variant: each substring may participate in at most one transposition.
//! OSA does not satisfy the triangle inequality, so it must not be used
//! as a BK-tree metric; the q-gram filters remain valid because OSA never
//! exceeds plain Levenshtein.

use crate::cost::CostModel;

/// Edit distance with substitutions, indels and adjacent transpositions
/// (restricted Damerau / optimal string alignment). Transpositions cost
/// `transposition_cost`; other operations come from `model`.
pub fn damerau_distance<T: PartialEq, M: CostModel<T>>(
    left: &[T],
    right: &[T],
    model: M,
    transposition_cost: f64,
) -> f64 {
    let (n, m) = (left.len(), right.len());
    // Full matrix: the transposition case needs D[i-2][j-2].
    let mut d = vec![vec![0.0f64; m + 1]; n + 1];
    for i in 1..=n {
        d[i][0] = d[i - 1][0] + model.del(&left[i - 1]);
    }
    for j in 1..=m {
        d[0][j] = d[0][j - 1] + model.ins(&right[j - 1]);
    }
    for i in 1..=n {
        for j in 1..=m {
            let mut best = d[i - 1][j - 1] + model.sub(&left[i - 1], &right[j - 1]);
            best = best.min(d[i][j - 1] + model.ins(&right[j - 1]));
            best = best.min(d[i - 1][j] + model.del(&left[i - 1]));
            if i > 1
                && j > 1
                && left[i - 1] == right[j - 2]
                && left[i - 2] == right[j - 1]
                && left[i - 1] != left[i - 2]
            {
                best = best.min(d[i - 2][j - 2] + transposition_cost);
            }
            d[i][j] = best;
        }
    }
    d[n][m]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::distance::edit_distance;
    use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases};

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn dd(a: &str, b: &str) -> f64 {
        damerau_distance(&chars(a), &chars(b), UnitCost, 1.0)
    }

    #[test]
    fn the_papers_catyh_example() {
        // "variants due to input errors, such as Catyh" (§2.3):
        // one transposition under Damerau, two ops under Levenshtein.
        assert_eq!(dd("cathy", "catyh"), 1.0);
        let lev = edit_distance(&chars("cathy"), &chars("catyh"), UnitCost);
        assert_eq!(lev, 2.0);
    }

    #[test]
    fn classic_cases() {
        assert_eq!(dd("ca", "ac"), 1.0);
        assert_eq!(dd("abc", "acb"), 1.0);
        assert_eq!(dd("", "ab"), 2.0);
        assert_eq!(dd("same", "same"), 0.0);
        // A transposition of equal symbols is not a transposition.
        assert_eq!(dd("aa", "aa"), 0.0);
    }

    #[test]
    fn transposition_cost_is_tunable() {
        let half = damerau_distance(&chars("cathy"), &chars("catyh"), UnitCost, 0.5);
        assert_eq!(half, 0.5);
        // Expensive transpositions fall back to substitution pairs.
        let expensive = damerau_distance(&chars("ca"), &chars("ac"), UnitCost, 5.0);
        assert_eq!(expensive, 2.0);
    }

    /// Damerau never exceeds Levenshtein (a transposition is also two
    /// substitutions), and equals it when transpositions cost 2.
    #[test]
    fn bounded_by_levenshtein() {
        for_cases(0xda01, 512, |rng| {
            let (av, bv) = (
                chars(&rng.string("a-d", 0..=10)),
                chars(&rng.string("a-d", 0..=10)),
            );
            let lev = edit_distance(&av, &bv, UnitCost);
            let dam = damerau_distance(&av, &bv, UnitCost, 1.0);
            let dam2 = damerau_distance(&av, &bv, UnitCost, 2.0);
            ensure(dam <= lev + 1e-12 && (dam2 - lev).abs() < 1e-9, || {
                format!("{av:?} {bv:?}: levenshtein {lev}, damerau {dam} / {dam2}")
            })
        });
    }

    #[test]
    fn symmetric() {
        for_cases(0xda02, 512, |rng| {
            let (av, bv) = (
                chars(&rng.string("a-d", 0..=10)),
                chars(&rng.string("a-d", 0..=10)),
            );
            ensure_eq(
                damerau_distance(&av, &bv, UnitCost, 1.0),
                damerau_distance(&bv, &av, UnitCost, 1.0),
            )
        });
    }

    #[test]
    fn zero_iff_equal() {
        for_cases(0xda03, 512, |rng| {
            let (a, b) = (rng.string("a-d", 0..=8), rng.string("a-d", 0..=8));
            ensure_eq(dd(&a, &b) == 0.0, a == b)
        });
    }
}
