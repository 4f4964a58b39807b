//! Thresholded edit distance with band pruning and early exit.
//!
//! The LexEQUAL predicate never needs the exact distance — only whether
//! `editdistance(l, r) <= k` (paper Figure 8, step 5). That admits two
//! classic optimizations (Ukkonen; see Navarro's survey §5):
//!
//! * **banding** — an alignment path that reaches a cell with `|i - j| = d`
//!   contains at least `d` insertions or deletions, each costing at least
//!   [`CostModel::min_indel`]; cells with `|i - j| > k / min_indel` can
//!   therefore never participate in a path of cost ≤ `k` and need not be
//!   computed;
//! * **early exit** — DP values along a row are non-decreasing in the
//!   column index direction of the minimum; if every cell of the current
//!   column exceeds `k`, no later cell can come back under it.

use crate::cost::CostModel;

/// Reusable DP rows for [`within_distance_scratch`].
///
/// The banded decision procedure needs two `f64` rows of length
/// `|left| + 1`. Allocating them per call is measurable in the
/// verification loops that dominate filter-then-verify search; a
/// `DpScratch` owned by the caller (one per shard worker or query)
/// amortizes the allocation to zero after warm-up.
#[derive(Debug, Default)]
pub struct DpScratch {
    pub(crate) prev: Vec<f64>,
    pub(crate) cur: Vec<f64>,
    /// Substitution-row byte offsets of the left string's symbols into a
    /// dense cost matrix — only the dense/SIMD form (`crate::simd`) uses
    /// this; the generic DP above leaves it empty.
    pub(crate) off: Vec<i64>,
}

impl DpScratch {
    /// An empty scratch; rows grow on first use and are then reused.
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Current row capacity in cells (diagnostic; capacity never shrinks).
    pub fn capacity(&self) -> usize {
        self.prev.capacity()
    }
}

/// Decide `editdistance(left, right) <= k` under `model`, in
/// O(k/min_indel · max(|left|,|right|)) time.
///
/// `k` must be non-negative; a negative `k` never matches.
pub fn within_distance<T, M: CostModel<T>>(left: &[T], right: &[T], k: f64, model: M) -> bool {
    within_distance_scratch(left, right, k, model, &mut DpScratch::new())
}

/// [`within_distance`] with caller-owned DP rows: identical decision
/// procedure (same code path, same float operations, hence bit-identical
/// results), but zero heap allocations once `scratch` has grown to the
/// longest `left` seen.
pub fn within_distance_scratch<T, M: CostModel<T>>(
    left: &[T],
    right: &[T],
    k: f64,
    model: M,
    scratch: &mut DpScratch,
) -> bool {
    if k < 0.0 {
        return false;
    }
    let (n, m) = (left.len(), right.len());
    let min_indel = model.min_indel().max(f64::MIN_POSITIVE);
    // Length filter: |n - m| indels are unavoidable.
    if (n.abs_diff(m)) as f64 * min_indel > k {
        return false;
    }
    if n == 0 || m == 0 {
        // Distance is the sum of indel costs of the non-empty side.
        let total: f64 = if n == 0 {
            right.iter().map(|t| model.ins(t)).sum()
        } else {
            left.iter().map(|t| model.del(t)).sum()
        };
        return total <= k + 1e-12;
    }

    let band = (k / min_indel).floor() as usize;

    // Column-rolling DP over `right` (columns j), rows are `left` (i).
    let inf = f64::INFINITY;
    scratch.prev.clear();
    scratch.prev.resize(n + 1, inf);
    scratch.cur.clear();
    scratch.cur.resize(n + 1, inf);
    let mut prev = &mut scratch.prev;
    let mut cur = &mut scratch.cur;
    prev[0] = 0.0;
    for i in 1..=n.min(band) {
        prev[i] = prev[i - 1] + model.del(&left[i - 1]);
    }

    for j in 1..=m {
        let lo = j.saturating_sub(band);
        let hi = (j + band).min(n);
        if lo > hi {
            return false;
        }
        let cj = &right[j - 1];
        cur[lo.saturating_sub(1)..=hi].fill(inf);
        if lo == 0 {
            cur[0] = prev[0] + model.ins(cj);
        }
        let mut col_min = if lo == 0 { cur[0] } else { inf };
        let start = lo.max(1);
        for i in start..=hi {
            let li = &left[i - 1];
            let mut best = prev[i - 1] + model.sub(li, cj);
            let insert = prev[i] + model.ins(cj); // prev[i] is inf outside band
            if insert < best {
                best = insert;
            }
            let delete = cur[i - 1] + model.del(li);
            if delete < best {
                best = delete;
            }
            cur[i] = best;
            if best < col_min {
                col_min = best;
            }
        }
        if col_min > k + 1e-12 {
            return false;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n] <= k + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::distance::edit_distance;
    use lexequal_phoneme::testkit::{ensure_eq, for_cases};

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn basic_threshold_decisions() {
        let a = chars("kitten");
        let b = chars("sitting");
        assert!(within_distance(&a, &b, 3.0, UnitCost));
        assert!(!within_distance(&a, &b, 2.0, UnitCost));
        assert!(within_distance(&a, &a, 0.0, UnitCost));
        assert!(!within_distance(&a, &chars("kittex"), 0.0, UnitCost));
    }

    #[test]
    fn negative_threshold_never_matches() {
        let a = chars("x");
        assert!(!within_distance(&a, &a, -0.1, UnitCost));
    }

    #[test]
    fn empty_sides() {
        assert!(within_distance::<char, _>(&[], &[], 0.0, UnitCost));
        assert!(within_distance(&[], &chars("ab"), 2.0, UnitCost));
        assert!(!within_distance(&[], &chars("abc"), 2.0, UnitCost));
        assert!(within_distance(&chars("ab"), &[], 2.0, UnitCost));
    }

    #[test]
    fn length_filter_kicks_in() {
        // Lengths differ by 5 > k=2: must reject without DP.
        let a = chars("a");
        let b = chars("abcdef");
        assert!(!within_distance(&a, &b, 2.0, UnitCost));
    }

    /// A model with fractional substitution cost, mimicking the clustered
    /// phoneme cost of LexEQUAL.
    struct QuarterSub;
    impl CostModel<char> for QuarterSub {
        fn ins(&self, _t: &char) -> f64 {
            1.0
        }
        fn del(&self, _t: &char) -> f64 {
            1.0
        }
        fn sub(&self, a: &char, b: &char) -> f64 {
            if a == b {
                0.0
            } else {
                0.25
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let words = ["kitten", "sitting", "", "a", "abcdefgh", "kitten"];
        let mut scratch = DpScratch::new();
        for a in words {
            for b in words {
                for k in [0.0, 0.5, 1.0, 2.5, 7.0] {
                    let av = chars(a);
                    let bv = chars(b);
                    assert_eq!(
                        within_distance_scratch(&av, &bv, k, UnitCost, &mut scratch),
                        within_distance(&av, &bv, k, UnitCost),
                        "a={a} b={b} k={k}"
                    );
                }
            }
        }
        assert!(scratch.capacity() > "abcdefgh".len());
    }

    #[test]
    fn fractional_costs_respected() {
        let a = chars("abcd");
        let b = chars("axyd"); // two substitutions at 0.25 each
        assert!(within_distance(&a, &b, 0.5, QuarterSub));
        assert!(!within_distance(&a, &b, 0.49, QuarterSub));
    }

    #[test]
    fn agrees_with_exact_distance() {
        for_cases(0xba01, 512, |rng| {
            let (av, bv) = (
                chars(&rng.string("a-d", 0..=12)),
                chars(&rng.string("a-d", 0..=12)),
            );
            let k = rng.f64_in(0.0..6.0);
            let exact = edit_distance(&av, &bv, UnitCost);
            ensure_eq(
                (k, within_distance(&av, &bv, k, UnitCost)),
                (k, exact <= k + 1e-12),
            )
        });
    }

    #[test]
    fn agrees_with_exact_distance_fractional() {
        for_cases(0xba02, 512, |rng| {
            let (av, bv) = (
                chars(&rng.string("a-c", 0..=10)),
                chars(&rng.string("a-c", 0..=10)),
            );
            let k = rng.f64_in(0.0..4.0);
            let exact = edit_distance(&av, &bv, QuarterSub);
            ensure_eq(
                (k, within_distance(&av, &bv, k, QuarterSub)),
                (k, exact <= k + 1e-12),
            )
        });
    }
}
