//! Myers' bit-parallel Levenshtein distance (64-bit word).
//!
//! Computes the *unit-cost* edit distance between a pattern of at most 64
//! symbols and an arbitrary-length text in O(|text|) word operations
//! (Myers, JACM 1999). Symbols are `u8` identifiers — phoneme ids or
//! cluster ids in the LexEQUAL stack — so the per-symbol match bitmask
//! table (`peq`) is a flat 256-entry array built once per pattern.
//!
//! The verification kernel uses this as a two-sided *exact screen* around
//! the clustered DP (see `lexequal-core`'s `verify` module):
//!
//! * **fast-accept** — clustered distance ≤ Levenshtein distance (indels
//!   cost 1 on both sides, clustered substitutions cost ≤ 1), so
//!   `myers(a, b) ≤ k` proves the clustered predicate holds;
//! * **fast-reject** — every clustered edit op costs at least the unit op
//!   it induces on the cluster-id strings (intra-cluster substitutions
//!   become matches, cross-cluster substitutions and indels become unit
//!   ops), so `myers(cluster(a), cluster(b)) > k` proves it fails.

/// A pattern preprocessed for bit-parallel distance computations.
///
/// Construction is O(|pattern|) plus zeroing the 256-entry mask table;
/// each subsequent [`distance`](MyersPattern::distance) call is
/// allocation-free and O(|text|). A caller probing with many patterns in
/// turn keeps one value and [`rebuild`](MyersPattern::rebuild)s it.
pub struct MyersPattern {
    /// `peq[s]` bit `i` is set iff `pattern[i] == s`.
    peq: Box<[u64; 256]>,
    /// The pattern itself: the `peq` entries a rebuild has to clear.
    syms: [u8; Self::MAX_LEN],
    len: usize,
}

impl MyersPattern {
    /// Maximum pattern length the single-word formulation supports.
    pub const MAX_LEN: usize = 64;

    /// Preprocess `pattern`. Returns `None` when the pattern is empty or
    /// longer than [`MAX_LEN`](Self::MAX_LEN) symbols; callers fall back
    /// to the DP in those cases.
    pub fn build(pattern: impl IntoIterator<Item = u8>) -> Option<MyersPattern> {
        let mut syms = [0u8; Self::MAX_LEN];
        let mut len = 0usize;
        for sym in pattern {
            *syms.get_mut(len)? = sym;
            len += 1;
        }
        let mut built = MyersPattern {
            peq: Box::new([0u64; 256]),
            syms,
            len: 0,
        };
        built.rebuild(&syms[..len]).then_some(built)
    }

    /// Re-point this value at `pattern`, reusing the mask table: only the
    /// entries the previous pattern set are cleared, not all 256. Returns
    /// `false`, leaving the previous pattern in place, exactly when
    /// [`build`](Self::build) would refuse `pattern`.
    pub fn rebuild(&mut self, pattern: &[u8]) -> bool {
        if pattern.is_empty() || pattern.len() > Self::MAX_LEN {
            return false;
        }
        for &sym in &self.syms[..self.len] {
            self.peq[sym as usize] = 0;
        }
        for (i, &sym) in pattern.iter().enumerate() {
            self.peq[sym as usize] |= 1u64 << i;
        }
        self.syms[..pattern.len()].copy_from_slice(pattern);
        self.len = pattern.len();
        true
    }

    /// Pattern length in symbols (1..=64).
    pub fn len(&self) -> usize {
        self.len
    }

    /// The per-symbol match-bitmask table (shared by the interleaved
    /// multi-lane form in [`crate::myers_batch`]).
    pub(crate) fn peq(&self) -> &[u64; 256] {
        &self.peq
    }

    /// Whether the pattern is empty — never true for a built pattern.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact Levenshtein distance between the pattern and `text`.
    ///
    /// `text` may be any length; the score column is maintained in two
    /// machine words (`pv`/`mv`) and updated once per text symbol.
    pub fn distance(&self, text: impl IntoIterator<Item = u8>) -> usize {
        let m = self.len;
        let mut pv = !0u64; // all positions start at +1 per row
        let mut mv = 0u64;
        let mut score = m;
        let high = 1u64 << (m - 1);
        for sym in text {
            let eq = self.peq[sym as usize];
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & high != 0 {
                score += 1;
            }
            if mh & high != 0 {
                score -= 1;
            }
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score
    }
}

impl std::fmt::Debug for MyersPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MyersPattern")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::distance::edit_distance;

    fn reference(a: &[u8], b: &[u8]) -> usize {
        edit_distance(a, b, UnitCost) as usize
    }

    fn myers(a: &[u8], b: &[u8]) -> usize {
        MyersPattern::build(a.iter().copied())
            .expect("non-empty pattern")
            .distance(b.iter().copied())
    }

    #[test]
    fn classic_cases() {
        assert_eq!(myers(b"kitten", b"sitting"), 3);
        assert_eq!(myers(b"flaw", b"lawn"), 2);
        assert_eq!(myers(b"same", b"same"), 0);
        assert_eq!(myers(b"abc", b""), 3);
        assert_eq!(myers(b"a", b"abcdef"), 5);
    }

    #[test]
    fn empty_and_oversized_patterns_are_rejected() {
        assert!(MyersPattern::build(std::iter::empty()).is_none());
        assert!(MyersPattern::build((0..=64).map(|_| 7u8)).is_none());
        assert!(MyersPattern::build((0..64).map(|_| 7u8)).is_some());
    }

    #[test]
    fn rebuild_equals_build_and_refuses_what_build_refuses() {
        let keys: [&[u8]; 6] = [
            b"kitten",
            b"a",
            &[7; 64],
            b"sitting",
            b"flaw",
            &[255, 0, 255],
        ];
        let mut pat = MyersPattern::build(*b"seed").unwrap();
        for key in keys {
            assert!(pat.rebuild(key));
            let fresh = MyersPattern::build(key.iter().copied()).unwrap();
            assert_eq!(pat.len(), fresh.len());
            assert_eq!(pat.peq(), fresh.peq(), "stale mask bits after rebuild");
            // A refused rebuild leaves the pattern usable as it was.
            assert!(!pat.rebuild(&[]));
            assert!(!pat.rebuild(&[3; 65]));
            for text in keys {
                assert_eq!(pat.distance(text.iter().copied()), reference(key, text));
            }
        }
    }

    #[test]
    fn full_word_pattern() {
        // Exactly 64 symbols exercises the high-bit bookkeeping.
        let a: Vec<u8> = (0..64).map(|i| (i % 5) as u8).collect();
        let mut b = a.clone();
        b[10] = 99;
        b.remove(40);
        assert_eq!(myers(&a, &b), reference(&a, &b));
        assert_eq!(myers(&a, &a), 0);
    }

    #[test]
    fn agrees_with_dp_on_deterministic_corpus() {
        // xorshift-generated strings: no external dependency, fixed seed.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut strings: Vec<Vec<u8>> = Vec::new();
        for _ in 0..60 {
            let len = (next() % 65) as usize;
            strings.push((0..len).map(|_| (next() % 6) as u8).collect());
        }
        for a in &strings {
            let Some(pat) = MyersPattern::build(a.iter().copied()) else {
                continue; // empty pattern
            };
            for b in &strings {
                assert_eq!(
                    pat.distance(b.iter().copied()),
                    reference(a, b),
                    "a={a:?} b={b:?}"
                );
            }
        }
    }

    #[cfg(feature = "property-tests")]
    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Myers == classic Levenshtein for all patterns up to 64 symbols.
            #[test]
            fn myers_equals_levenshtein(
                a in proptest::collection::vec(0u8..8, 1..=64),
                b in proptest::collection::vec(0u8..8, 0..=80)
            ) {
                prop_assert_eq!(myers(&a, &b), reference(&a, &b));
            }
        }
    }
}
