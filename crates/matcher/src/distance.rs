//! Dynamic-programming edit distance (paper Figure 8, `editdistance`).

use crate::cost::CostModel;

/// Edit distance between `left` and `right` under `model`, computed with a
/// rolling two-row dynamic program — O(|left|·|right|) time,
/// O(min-side) space. This is the production entry point; see
/// [`edit_distance_matrix`] for the full-matrix variant used in tests and
/// alignment inspection.
pub fn edit_distance<T, M: CostModel<T>>(left: &[T], right: &[T], model: M) -> f64 {
    // Keep the shorter string as the row to minimize memory.
    if right.len() < left.len() {
        return edit_distance_asym(right, left, &model, true);
    }
    edit_distance_asym(left, right, &model, false)
}

/// `swapped` records whether left/right were exchanged, so that asymmetric
/// ins/del costs are still charged to the correct side.
fn edit_distance_asym<T, M: CostModel<T>>(
    row_str: &[T],
    col_str: &[T],
    model: &M,
    swapped: bool,
) -> f64 {
    let n = row_str.len();
    let ins = |t: &T| if swapped { model.del(t) } else { model.ins(t) };
    let del = |t: &T| if swapped { model.ins(t) } else { model.del(t) };

    // prev[i] = D[i][j-1]; cur[i] = D[i][j]
    let mut prev: Vec<f64> = Vec::with_capacity(n + 1);
    prev.push(0.0);
    for i in 1..=n {
        let p = prev[i - 1] + del(&row_str[i - 1]);
        prev.push(p);
    }
    let mut cur = vec![0.0f64; n + 1];

    for cj in col_str {
        cur[0] = prev[0] + ins(cj);
        for i in 1..=n {
            let ri = &row_str[i - 1];
            let subst = prev[i - 1] + model.sub(ri, cj);
            let insert = prev[i] + ins(cj);
            let delete = cur[i - 1] + del(ri);
            cur[i] = subst.min(insert).min(delete);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Full-matrix edit distance; returns the entire DP matrix
/// (`(left.len()+1) x (right.len()+1)`, row-major). Used by tests to check
/// the rolling version and by tools that want to trace alignments.
pub fn edit_distance_matrix<T, M: CostModel<T>>(
    left: &[T],
    right: &[T],
    model: M,
) -> Vec<Vec<f64>> {
    let (n, m) = (left.len(), right.len());
    let mut d = vec![vec![0.0f64; m + 1]; n + 1];
    for i in 1..=n {
        d[i][0] = d[i - 1][0] + model.del(&left[i - 1]);
    }
    for j in 1..=m {
        d[0][j] = d[0][j - 1] + model.ins(&right[j - 1]);
    }
    for i in 1..=n {
        for j in 1..=m {
            let subst = d[i - 1][j - 1] + model.sub(&left[i - 1], &right[j - 1]);
            let insert = d[i][j - 1] + model.ins(&right[j - 1]);
            let delete = d[i - 1][j] + model.del(&left[i - 1]);
            d[i][j] = subst.min(insert).min(delete);
        }
    }
    d
}

/// Convenience: Levenshtein distance over chars as an integer.
pub fn levenshtein(a: &str, b: &str) -> usize {
    // ASCII fast path: bytes and chars are in bijection, so the byte-level
    // distance equals the char-level one without collecting either string.
    if a.is_ascii() && b.is_ascii() {
        return edit_distance(a.as_bytes(), b.as_bytes(), crate::cost::UnitCost) as usize;
    }
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    edit_distance(&av, &bv, crate::cost::UnitCost) as usize
}

/// Unit-cost Levenshtein distance if it is ≤ `bound`, else `None` —
/// Ukkonen's banded decision computed with integer arithmetic and an
/// early exit, in O(bound · min(|a|,|b|)) time instead of O(|a|·|b|).
///
/// Test oracle only: the BK-tree range query it once served now probes
/// with one bit-parallel [`MyersPattern`](crate::MyersPattern) per query.
#[cfg(test)]
pub(crate) fn bounded_levenshtein<T: PartialEq>(a: &[T], b: &[T], bound: u32) -> Option<u32> {
    // Keep the shorter side as the row: unit costs are symmetric.
    let (row, col) = if b.len() < a.len() { (b, a) } else { (a, b) };
    let (n, m) = (row.len(), col.len());
    if (m - n) as u64 > bound as u64 {
        return None;
    }
    if n == 0 {
        return Some(m as u32); // ≤ bound by the length check above
    }
    let band = bound as usize;
    let inf = u32::MAX / 2;
    let mut prev = vec![inf; n + 1];
    let mut cur = vec![inf; n + 1];
    prev[0] = 0;
    for (i, p) in prev.iter_mut().enumerate().take(n.min(band) + 1).skip(1) {
        *p = i as u32;
    }
    for j in 1..=m {
        let lo = j.saturating_sub(band);
        let hi = (j + band).min(n);
        if lo > hi {
            return None;
        }
        cur[lo.saturating_sub(1)..=hi].fill(inf);
        if lo == 0 {
            cur[0] = j as u32;
        }
        let mut row_min = if lo == 0 { cur[0] } else { inf };
        let cj = &col[j - 1];
        for i in lo.max(1)..=hi {
            let sub = if row[i - 1] == *cj { 0 } else { 1 };
            let best = (prev[i - 1] + sub).min(prev[i] + 1).min(cur[i - 1] + 1);
            cur[i] = best;
            row_min = row_min.min(best);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (prev[n] <= bound).then_some(prev[n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, UnitCost};
    use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases};

    #[test]
    fn classic_levenshtein_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("cathy", "kathy"), 1);
    }

    #[test]
    fn non_ascii_still_counts_chars_not_bytes() {
        // Multi-byte chars must be one edit each, same as before the
        // ASCII byte fast path.
        assert_eq!(levenshtein("réné", "rene"), 2);
        assert_eq!(levenshtein("नेहरू", "नेहरू"), 0);
        assert_eq!(levenshtein("नेहरू", ""), "नेहरू".chars().count());
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn bounded_agrees_with_exact_within_bound() {
        let words = ["", "a", "kitten", "sitting", "kitchen", "abcdefgh"];
        for a in words {
            for b in words {
                let av: Vec<char> = a.chars().collect();
                let bv: Vec<char> = b.chars().collect();
                let exact = levenshtein(a, b) as u32;
                for bound in 0..10u32 {
                    let got = bounded_levenshtein(&av, &bv, bound);
                    if exact <= bound {
                        assert_eq!(got, Some(exact), "a={a} b={b} bound={bound}");
                    } else {
                        assert_eq!(got, None, "a={a} b={b} bound={bound}");
                    }
                }
            }
        }
    }

    /// A deliberately asymmetric model to catch swapped ins/del accounting.
    struct AsymCost;
    impl CostModel<char> for AsymCost {
        fn ins(&self, _t: &char) -> f64 {
            2.0
        }
        fn del(&self, _t: &char) -> f64 {
            3.0
        }
        fn sub(&self, a: &char, b: &char) -> f64 {
            if a == b {
                0.0
            } else {
                10.0 // force indel paths
            }
        }
        fn min_indel(&self) -> f64 {
            2.0
        }
    }

    #[test]
    fn asymmetric_costs_respect_direction() {
        // "ab" -> "abc": one insertion of 'c' (cost 2), regardless of which
        // side is shorter internally.
        let ab: Vec<char> = "ab".chars().collect();
        let abc: Vec<char> = "abc".chars().collect();
        assert_eq!(edit_distance(&ab, &abc, AsymCost), 2.0);
        // "abc" -> "ab": one deletion of 'c' (cost 3).
        assert_eq!(edit_distance(&abc, &ab, AsymCost), 3.0);
    }

    #[test]
    fn rolling_matches_full_matrix() {
        let cases = [("kitten", "sitting"), ("abcdef", "azced"), ("", "xyz")];
        for (a, b) in cases {
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            let full = edit_distance_matrix(&av, &bv, UnitCost);
            let rolled = edit_distance(&av, &bv, UnitCost);
            assert_eq!(full[av.len()][bv.len()], rolled, "{a} vs {b}");
        }
    }

    #[test]
    fn distance_is_symmetric_under_unit_cost() {
        for_cases(0xd151, 512, |rng| {
            let (a, b) = (rng.string("a-d", 0..=12), rng.string("a-d", 0..=12));
            ensure_eq(levenshtein(&a, &b), levenshtein(&b, &a))
        });
    }

    #[test]
    fn distance_zero_iff_equal() {
        for_cases(0xd152, 512, |rng| {
            let (a, b) = (rng.string("a-d", 0..=10), rng.string("a-d", 0..=10));
            ensure_eq(levenshtein(&a, &b) == 0, a == b)
        });
    }

    #[test]
    fn triangle_inequality() {
        for_cases(0xd153, 512, |rng| {
            let [a, b, c] = [(); 3].map(|()| rng.string("a-c", 0..=8));
            let (ab, bc, ac) = (
                levenshtein(&a, &b),
                levenshtein(&b, &c),
                levenshtein(&a, &c),
            );
            ensure(ac <= ab + bc, || {
                format!("{a:?} {b:?} {c:?}: {ac} > {ab} + {bc}")
            })
        });
    }

    #[test]
    fn bounded_by_longer_length() {
        for_cases(0xd154, 512, |rng| {
            let (a, b) = (rng.string("a-e", 0..=12), rng.string("a-e", 0..=12));
            let d = levenshtein(&a, &b);
            let (la, lb) = (a.chars().count(), b.chars().count());
            ensure(d <= la.max(lb) && d >= la.abs_diff(lb), || {
                format!("{a:?} {b:?}: distance {d}")
            })
        });
    }

    #[test]
    fn rolling_equals_matrix_prop() {
        for_cases(0xd155, 512, |rng| {
            let av: Vec<char> = rng.string("a-d", 0..=10).chars().collect();
            let bv: Vec<char> = rng.string("a-d", 0..=10).chars().collect();
            let m = edit_distance_matrix(&av, &bv, UnitCost);
            ensure_eq(m[av.len()][bv.len()], edit_distance(&av, &bv, UnitCost))
        });
    }
}
