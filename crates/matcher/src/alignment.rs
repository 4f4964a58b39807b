//! Optimal alignment traces.
//!
//! Beyond the scalar distance, applications (and debugging sessions) want
//! to know *which* edits an optimal alignment uses — e.g. to show a user
//! why `Nehru` matched `नेहरु`, or to audit a phonetic index dismissal.
//! [`align`] runs the full-matrix DP and backtracks one optimal path.

use crate::cost::CostModel;
use crate::distance::edit_distance_matrix;

/// One step of an optimal alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EditOp<T> {
    /// Symbols matched exactly (zero cost).
    Match(T),
    /// `left` was substituted by `right` at the given cost.
    Substitute {
        /// The left-side symbol.
        left: T,
        /// The right-side symbol.
        right: T,
        /// The substitution's cost under the model.
        cost: f64,
    },
    /// A right-side symbol was inserted.
    Insert(T),
    /// A left-side symbol was deleted.
    Delete(T),
}

impl<T> EditOp<T> {
    /// The cost this step contributes.
    pub fn cost(&self, model: &impl CostModel<T>) -> f64 {
        match self {
            EditOp::Match(_) => 0.0,
            EditOp::Substitute { cost, .. } => *cost,
            EditOp::Insert(t) => model.ins(t),
            EditOp::Delete(t) => model.del(t),
        }
    }
}

/// An optimal alignment: the operations plus the total distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment<T> {
    /// Steps from the start of both strings to their ends.
    pub ops: Vec<EditOp<T>>,
    /// The total edit distance.
    pub distance: f64,
}

/// Compute one optimal alignment between `left` and `right`.
pub fn align<T: Copy + PartialEq, M: CostModel<T>>(
    left: &[T],
    right: &[T],
    model: M,
) -> Alignment<T> {
    let d = edit_distance_matrix(left, right, &model);
    let mut ops = Vec::new();
    let (mut i, mut j) = (left.len(), right.len());
    while i > 0 || j > 0 {
        let here = d[i][j];
        // Prefer diagonal (match/substitute), then insert, then delete —
        // ties broken deterministically.
        if i > 0 && j > 0 {
            let sub_cost = model.sub(&left[i - 1], &right[j - 1]);
            if (d[i - 1][j - 1] + sub_cost - here).abs() < 1e-9 {
                if left[i - 1] == right[j - 1] {
                    ops.push(EditOp::Match(left[i - 1]));
                } else {
                    ops.push(EditOp::Substitute {
                        left: left[i - 1],
                        right: right[j - 1],
                        cost: sub_cost,
                    });
                }
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if j > 0 && (d[i][j - 1] + model.ins(&right[j - 1]) - here).abs() < 1e-9 {
            ops.push(EditOp::Insert(right[j - 1]));
            j -= 1;
            continue;
        }
        debug_assert!(i > 0, "backtrack must make progress");
        ops.push(EditOp::Delete(left[i - 1]));
        i -= 1;
    }
    ops.reverse();
    Alignment {
        ops,
        distance: d[left.len()][right.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases};

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn identical_strings_align_with_matches_only() {
        let a = align(&chars("neru"), &chars("neru"), UnitCost);
        assert_eq!(a.distance, 0.0);
        assert!(a.ops.iter().all(|op| matches!(op, EditOp::Match(_))));
        assert_eq!(a.ops.len(), 4);
    }

    #[test]
    fn kitten_sitting_trace() {
        let a = align(&chars("kitten"), &chars("sitting"), UnitCost);
        assert_eq!(a.distance, 3.0);
        let subs = a
            .ops
            .iter()
            .filter(|o| matches!(o, EditOp::Substitute { .. }))
            .count();
        let ins = a
            .ops
            .iter()
            .filter(|o| matches!(o, EditOp::Insert(_)))
            .count();
        assert_eq!(subs, 2); // k->s, e->i
        assert_eq!(ins, 1); // +g
    }

    #[test]
    fn insert_and_delete_directions() {
        let a = align(&chars("abc"), &chars("abxc"), UnitCost);
        assert_eq!(a.distance, 1.0);
        assert!(a.ops.contains(&EditOp::Insert('x')));
        let a = align(&chars("abxc"), &chars("abc"), UnitCost);
        assert!(a.ops.contains(&EditOp::Delete('x')));
    }

    #[test]
    fn empty_sides() {
        let a = align(&chars(""), &chars("ab"), UnitCost);
        assert_eq!(a.ops, vec![EditOp::Insert('a'), EditOp::Insert('b')]);
        let a = align(&chars("ab"), &chars(""), UnitCost);
        assert_eq!(a.distance, 2.0);
    }

    /// The alignment's operation costs must sum to the DP distance, and
    /// replaying it must transform left into right.
    #[test]
    fn alignment_is_consistent() {
        for_cases(0xa101, 512, |rng| {
            let (av, bv) = (
                chars(&rng.string("a-d", 0..=10)),
                chars(&rng.string("a-d", 0..=10)),
            );
            let al = align(&av, &bv, UnitCost);
            let total: f64 = al.ops.iter().map(|o| o.cost(&UnitCost)).sum();
            ensure((total - al.distance).abs() < 1e-9, || {
                format!("{av:?} {bv:?}: ops cost {total}, distance {}", al.distance)
            })?;
            let rebuilt: Vec<char> = (al.ops.iter())
                .filter_map(|op| match op {
                    EditOp::Match(c) | EditOp::Insert(c) => Some(*c),
                    EditOp::Substitute { right, .. } => Some(*right),
                    EditOp::Delete(_) => None,
                })
                .collect();
            ensure_eq(rebuilt, bv)
        });
    }
}
