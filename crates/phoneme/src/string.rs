//! [`PhonemeString`]: the unit of comparison in phoneme space.

use crate::error::PhonemeError;
use crate::parse::parse_ipa;
use crate::phoneme::Phoneme;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Index;
use std::str::FromStr;

/// An immutable sequence of phonemes — the phonemic rendering of one proper
/// name. This is what the LexEQUAL operator actually compares.
///
/// Storage is the raw inventory ids, one byte a segment — a query or a
/// G2P result; stored rows live in a name store's flat columns, not here.
/// The invariant that makes [`as_slice`](Self::as_slice) sound is enforced
/// at every construction site: **every stored byte is a valid inventory
/// id** (`< Inventory::len()`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhonemeString(Vec<u8>);

impl PhonemeString {
    /// Create from a vector of phonemes.
    pub fn new(phonemes: Vec<Phoneme>) -> Self {
        // `Phoneme` is `#[repr(transparent)]` over `u8`, so the vec's
        // allocation can be adopted wholesale instead of re-collected.
        let mut v = ManuallyDrop::new(phonemes);
        let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
        // SAFETY: same element layout and alignment (`repr(transparent)`
        // over `u8`), same allocator, and the original vec is leaked via
        // `ManuallyDrop` so the allocation has exactly one owner. Every
        // byte is a valid id because it came from a `Phoneme`.
        let bytes = unsafe { Vec::from_raw_parts(ptr.cast::<u8>(), len, cap) };
        PhonemeString(bytes)
    }

    /// Empty phoneme string.
    pub fn empty() -> Self {
        PhonemeString(Vec::new())
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the string has no segments.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The segments as a slice — this is what edit distance runs over.
    #[inline]
    pub fn as_slice(&self) -> &[Phoneme] {
        let bytes = self.0.as_slice();
        // SAFETY: `Phoneme` is `#[repr(transparent)]` over `u8`, so the
        // layouts match; every stored byte is a valid inventory id by
        // the construction invariant (`new` and `push` take real
        // `Phoneme`s).
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<Phoneme>(), bytes.len()) }
    }

    /// The segments viewed as their raw inventory ids, in place — the
    /// batched screens and the dense DP read candidate symbols through
    /// this without copying.
    #[inline]
    pub fn id_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// Iterate over segments.
    pub fn iter(&self) -> std::slice::Iter<'_, Phoneme> {
        self.as_slice().iter()
    }

    /// Append another phoneme string (used by the synthetic dataset
    /// generator, which concatenates lexicon entries pairwise).
    pub fn concat(&self, other: &PhonemeString) -> PhonemeString {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(self.id_bytes());
        v.extend_from_slice(other.id_bytes());
        PhonemeString(v)
    }

    /// Push a single phoneme (used by G2P emitters).
    pub fn push(&mut self, p: Phoneme) {
        self.0.push(p.id());
    }

    /// Last phoneme, if any.
    pub fn last(&self) -> Option<Phoneme> {
        self.as_slice().last().copied()
    }
}

impl Index<usize> for PhonemeString {
    type Output = Phoneme;
    fn index(&self, i: usize) -> &Phoneme {
        &self.as_slice()[i]
    }
}

impl FromStr for PhonemeString {
    type Err = PhonemeError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_ipa(s).map(PhonemeString::new)
    }
}

impl fmt::Display for PhonemeString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut prev: Option<Phoneme> = None;
        for &p in self.as_slice() {
            if let Some(q) = prev {
                // Disambiguate junctions whose concatenation would
                // re-tokenize differently (t + s vs the affricate ts).
                if crate::parse::would_merge(q, p) {
                    f.write_str(".")?;
                }
            }
            f.write_str(p.symbol())?;
            prev = Some(p);
        }
        Ok(())
    }
}

impl fmt::Debug for PhonemeString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{self}/")
    }
}

impl FromIterator<Phoneme> for PhonemeString {
    fn from_iter<T: IntoIterator<Item = Phoneme>>(iter: T) -> Self {
        PhonemeString::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a PhonemeString {
    type Item = &'a Phoneme;
    type IntoIter = std::slice::Iter<'a, Phoneme>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        for s in ["neɪru", "junəvɜrsɪti", "ɪndɪjaː", "tʃʰa", ""] {
            let ps: PhonemeString = s.parse().unwrap();
            assert_eq!(ps.to_string(), s);
        }
    }

    #[test]
    fn concat_concatenates() {
        let a: PhonemeString = "ne".parse().unwrap();
        let b: PhonemeString = "ru".parse().unwrap();
        let ab = a.concat(&b);
        assert_eq!(ab.to_string(), "neru");
        assert_eq!(ab.len(), a.len() + b.len());
    }

    #[test]
    fn len_counts_segments_not_code_points() {
        // aspirated affricate = 1 segment, 3 code points
        let ps: PhonemeString = "tʃʰaː".parse().unwrap();
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn indexing_and_iteration_agree() {
        let ps: PhonemeString = "neru".parse().unwrap();
        let collected: Vec<_> = ps.iter().copied().collect();
        for (i, p) in collected.iter().enumerate() {
            assert_eq!(ps[i], *p);
        }
        assert_eq!(ps.last(), Some(ps[3]));
    }

    #[test]
    fn ordering_is_lexicographic_over_ids() {
        let a: PhonemeString = "pa".parse().unwrap();
        let b: PhonemeString = "pat".parse().unwrap();
        assert!(a < b, "prefix sorts before extension");
    }
}
