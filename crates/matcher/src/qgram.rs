//! Positional q-grams and the Length / Count / Position filters.
//!
//! Q-gram filtering (Gravano et al., "Approximate String Joins in a
//! Database (almost) for Free", VLDB 2001) is the first of the paper's two
//! LexEQUAL accelerators (§5.2): the phoneme strings' positional q-grams
//! are materialized in an auxiliary table, and three cheap filters weed out
//! most non-matches before the expensive edit-distance UDF runs:
//!
//! * **Length filter** — strings within edit distance `k` cannot differ in
//!   length by more than `k`.
//! * **Count filter** — they must share at least
//!   `max(|σ₁|,|σ₂|) − 1 − (k−1)·q` positional q-grams.
//! * **Position filter** — a positional q-gram of one string cannot match
//!   one of the other that is more than `k` positions away.
//!
//! All three are *necessary* conditions for unit-cost (Levenshtein) edit
//! distance ≤ `k`: they admit false positives but never false dismissals.
//! (With the clustered cost model, substitutions can be cheaper than 1, so
//! a clustered threshold `k` must be mapped to a conservative Levenshtein
//! bound before filtering — the LexEQUAL core handles that; see
//! `lexequal::qgram_plan`.)

use std::fmt;
use std::hash::Hash;

/// A symbol of the padded (extended) string: `q−1` start markers are
/// prepended and `q−1` end markers appended before grams are extracted, so
/// that prefixes/suffixes produce distinguishable grams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QgramSymbol<T> {
    /// The `◁` padding symbol, not in the original alphabet.
    Start,
    /// An original-string symbol.
    Sym(T),
    /// The `▷` padding symbol, not in the original alphabet.
    End,
}

impl<T: fmt::Display> fmt::Display for QgramSymbol<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QgramSymbol::Start => f.write_str("◁"),
            QgramSymbol::End => f.write_str("▷"),
            QgramSymbol::Sym(t) => t.fmt(f),
        }
    }
}

/// A q-gram: `q` consecutive symbols of the extended string.
pub type Gram<T> = Vec<QgramSymbol<T>>;

/// A positional q-gram: the gram plus its (0-based) position in the
/// extended string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PositionalQgram<T> {
    /// 0-based position of the gram's first symbol in the extended string.
    pub pos: u32,
    /// The gram itself.
    pub gram: Gram<T>,
}

impl<T: Copy> PositionalQgram<T> {
    /// Pack this gram into a `u64` signature using `encode` for symbols.
    /// `encode` must return values `< 0xFFFE` (0xFFFE/0xFFFF are reserved
    /// for the padding markers) and `q` must be ≤ 4 for the 16-bit-per-
    /// symbol packing to fit.
    pub fn signature(&self, encode: impl Fn(T) -> u64) -> u64 {
        assert!(self.gram.len() <= 4, "signature packing supports q <= 4");
        let mut acc: u64 = 0;
        for s in &self.gram {
            let v = match s {
                QgramSymbol::Start => 0xFFFE,
                QgramSymbol::End => 0xFFFF,
                QgramSymbol::Sym(t) => {
                    let e = encode(*t);
                    debug_assert!(e < 0xFFFE, "symbol encoding collides with padding");
                    e
                }
            };
            acc = (acc << 16) | v;
        }
        acc
    }
}

/// Extract all positional q-grams of `s` (an extended-string sliding
/// window). A string of length `n` yields `n + q − 1` grams.
///
/// # Panics
///
/// Panics if `q == 0`.
pub fn positional_qgrams<T: Copy>(s: &[T], q: usize) -> Vec<PositionalQgram<T>> {
    assert!(q > 0, "q must be positive");
    let n = s.len();
    let ext_len = n + 2 * (q - 1);
    let sym_at = |i: usize| -> QgramSymbol<T> {
        if i < q - 1 {
            QgramSymbol::Start
        } else if i < q - 1 + n {
            QgramSymbol::Sym(s[i - (q - 1)])
        } else {
            QgramSymbol::End
        }
    };
    let count = ext_len + 1 - q; // = n + q - 1
    let mut out = Vec::with_capacity(count);
    for pos in 0..count {
        let gram: Gram<T> = (pos..pos + q).map(sym_at).collect();
        out.push(PositionalQgram {
            pos: pos as u32,
            gram,
        });
    }
    out
}

/// The length filter: can `|la − lb| ≤ k` hold?
pub fn length_filter_passes(la: usize, lb: usize, k: f64) -> bool {
    (la.abs_diff(lb) as f64) <= k + 1e-12
}

/// The count filter: is `shared ≥ max(la, lb) − 1 − (k−1)·q`?
/// `shared` is the number of position-compatible matching grams.
pub fn count_filter_passes(la: usize, lb: usize, shared: usize, k: f64, q: usize) -> bool {
    let required = (la.max(lb) as f64) - 1.0 - (k - 1.0) * (q as f64);
    (shared as f64) >= required - 1e-12
}

/// Count matching positional q-grams between `a` and `b` under the
/// position filter (`|posₐ − pos_b| ≤ k`), with bag semantics: each gram
/// occurrence matches at most one on the other side.
pub fn matching_qgrams<T: Copy + Ord + Hash>(
    a: &[PositionalQgram<T>],
    b: &[PositionalQgram<T>],
    k: f64,
) -> usize {
    // Sort both sides by (gram, pos); then for each equal-gram run, count
    // a maximum matching under the position constraint greedily (both runs
    // sorted by pos; two-pointer works because the constraint is an
    // interval around each position).
    let mut sa: Vec<&PositionalQgram<T>> = a.iter().collect();
    let mut sb: Vec<&PositionalQgram<T>> = b.iter().collect();
    sa.sort_by(|x, y| x.gram.cmp(&y.gram).then(x.pos.cmp(&y.pos)));
    sb.sort_by(|x, y| x.gram.cmp(&y.gram).then(x.pos.cmp(&y.pos)));

    let kk = k.floor() as i64;
    let (mut i, mut j, mut matched) = (0usize, 0usize, 0usize);
    while i < sa.len() && j < sb.len() {
        match sa[i].gram.cmp(&sb[j].gram) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let pa = sa[i].pos as i64;
                let pb = sb[j].pos as i64;
                if (pa - pb).abs() <= kk {
                    matched += 1;
                    i += 1;
                    j += 1;
                } else if pa < pb {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
    }
    matched
}

/// The full q-gram candidate test: length, position and count filters
/// combined. Returns `true` if `(a, b)` *may* be within edit distance `k`.
pub fn qgram_candidate<T: Copy + Ord + Hash>(a: &[T], b: &[T], k: f64, q: usize) -> bool {
    if !length_filter_passes(a.len(), b.len(), k) {
        return false;
    }
    let ga = positional_qgrams(a, q);
    let gb = positional_qgrams(b, q);
    let shared = matching_qgrams(&ga, &gb, k);
    count_filter_passes(a.len(), b.len(), shared, k, q)
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

    #[test]
    fn gram_count_is_n_plus_q_minus_1() {
        for q in 1..=4 {
            for n in 0..6 {
                let s: Vec<char> = "abcdef".chars().take(n).collect();
                assert_eq!(positional_qgrams(&s, q).len(), n + q - 1);
            }
        }
    }

    #[test]
    fn paper_footnote_example() {
        // "LexEQUAL" with q=3 yields 10 grams, first (0, ◁◁L), last (9, L▷▷)
        // (paper uses 1-based positions; ours are 0-based).
        let s = chars("LexEQUAL");
        let grams = positional_qgrams(&s, 3);
        assert_eq!(grams.len(), 10);
        assert_eq!(
            grams[0].gram,
            vec![
                QgramSymbol::Start,
                QgramSymbol::Start,
                QgramSymbol::Sym('L')
            ]
        );
        assert_eq!(
            grams[9].gram,
            vec![QgramSymbol::Sym('L'), QgramSymbol::End, QgramSymbol::End]
        );
    }

    #[test]
    fn identical_strings_share_all_grams() {
        let s = chars("nehru");
        let g = positional_qgrams(&s, 2);
        assert_eq!(matching_qgrams(&g, &g, 0.0), g.len());
    }

    #[test]
    fn length_filter_rejects_far_lengths() {
        assert!(length_filter_passes(5, 7, 2.0));
        assert!(!length_filter_passes(5, 8, 2.0));
    }

    #[test]
    fn count_filter_never_rejects_identical() {
        // shared = n + q - 1 >= n - 1 - (k-1)q always holds for k >= 0.
        for n in 1..10usize {
            for q in 1..4usize {
                assert!(count_filter_passes(n, n, n + q - 1, 1.0, q));
            }
        }
    }

    #[test]
    fn candidate_test_known_cases() {
        // cathy/kathy: distance 1 — must be a candidate at k=1.
        assert!(qgram_candidate(&chars("cathy"), &chars("kathy"), 1.0, 3));
        // totally different strings of same length fail count filter.
        assert!(!qgram_candidate(&chars("aaaaaa"), &chars("zzzzzz"), 1.0, 3));
    }

    #[test]
    fn signature_distinguishes_grams_and_positions_dont_matter() {
        let s = chars("ab");
        let grams = positional_qgrams(&s, 2);
        let enc = |c: char| c as u64;
        let sigs: Vec<u64> = grams.iter().map(|g| g.signature(enc)).collect();
        // ◁a, ab, b▷ — all distinct.
        assert_eq!(sigs.len(), 3);
        assert!(sigs[0] != sigs[1] && sigs[1] != sigs[2] && sigs[0] != sigs[2]);
    }

    /// Completeness: the filters must NEVER reject a true match (no false
    /// dismissals) under unit-cost edit distance.
    #[test]
    fn filters_are_complete() {
        for_cases(0x9601, 1024, |rng| {
            let (a, b) = (rng.string("a-c", 0..=10), rng.string("a-c", 0..=10));
            let (k, q) = (rng.f64_in(0.0..5.0), 1 + rng.below(3));
            let (av, bv) = (chars(&a), chars(&b));
            let d = edit_distance(&av, &bv, UnitCost);
            ensure(d > k || qgram_candidate(&av, &bv, k, q), || {
                format!("false dismissal: {a:?} {b:?} d={d} k={k} q={q}")
            })
        });
    }

    #[test]
    fn matching_qgrams_is_symmetric() {
        for_cases(0x9602, 512, |rng| {
            let ga = positional_qgrams(&chars(&rng.string("a-c", 0..=8)), 2);
            let gb = positional_qgrams(&chars(&rng.string("a-c", 0..=8)), 2);
            let k = rng.f64_in(0.0..4.0);
            ensure_eq(matching_qgrams(&ga, &gb, k), matching_qgrams(&gb, &ga, k))
        });
    }

    #[test]
    fn shared_grams_bounded_by_gram_count() {
        for_cases(0x9603, 512, |rng| {
            let ga = positional_qgrams(&chars(&rng.string("a-c", 0..=8)), 3);
            let gb = positional_qgrams(&chars(&rng.string("a-c", 0..=8)), 3);
            let shared = matching_qgrams(&ga, &gb, 10.0);
            ensure(shared <= ga.len().min(gb.len()), || {
                format!("{shared} shared of {} and {} grams", ga.len(), gb.len())
            })
        });
    }
}
