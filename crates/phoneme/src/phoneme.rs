//! The [`Phoneme`] handle type.

use crate::error::PhonemeError;
use crate::features::{Features, SegmentKind};
use crate::inventory::{Inventory, PhonemeDescriptor, TABLE};
use std::fmt;

/// A single segmental phoneme: a compact handle (one byte) into the static
/// [inventory](crate::inventory).
///
/// `Phoneme` is `Copy`, one byte wide, and compares/hashes in O(1) — the
/// edit-distance inner loop of LexEQUAL runs over slices of these.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Phoneme(u8);

impl Phoneme {
    /// Construct from a raw inventory index. Panics if out of range;
    /// reserved for construction sites that iterate the inventory itself.
    pub(crate) fn from_index(index: usize) -> Self {
        assert!(index < TABLE.len(), "phoneme index out of range");
        Phoneme(index as u8)
    }

    /// Construct from a raw id, validating range.
    pub fn from_id(id: u8) -> Result<Self, PhonemeError> {
        if Self::is_valid_id(id) {
            Ok(Phoneme(id))
        } else {
            Err(PhonemeError::InvalidId(id))
        }
    }

    /// Whether a raw byte is a valid inventory id — the invariant
    /// [`PhonemeString`](crate::PhonemeString) keeps for every byte it
    /// stores, and an image loader checks for every byte it maps.
    #[inline]
    pub fn is_valid_id(id: u8) -> bool {
        (id as usize) < TABLE.len()
    }

    /// Look up a phoneme by its canonical IPA symbol.
    pub fn from_symbol(symbol: &str) -> Result<Self, PhonemeError> {
        Inventory::by_symbol(symbol).ok_or_else(|| PhonemeError::UnknownPhoneme(symbol.to_owned()))
    }

    /// The raw inventory id.
    pub fn id(self) -> u8 {
        self.0
    }

    /// The inventory index (same value as [`id`](Self::id), as `usize`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The full descriptor from the inventory.
    pub fn descriptor(self) -> &'static PhonemeDescriptor {
        &TABLE[self.0 as usize]
    }

    /// Canonical IPA spelling.
    pub fn symbol(self) -> &'static str {
        self.descriptor().symbol
    }

    /// Articulatory features.
    pub fn features(self) -> Features {
        self.descriptor().features
    }

    /// Whether this is a vowel.
    pub fn is_vowel(self) -> bool {
        self.features().kind() == SegmentKind::Vowel
    }

    /// Whether this is a consonant.
    pub fn is_consonant(self) -> bool {
        self.features().kind() == SegmentKind::Consonant
    }
}

impl fmt::Display for Phoneme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl fmt::Debug for Phoneme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}/", self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_id_validates_range() {
        assert!(Phoneme::from_id(0).is_ok());
        assert!(Phoneme::from_id((TABLE.len() - 1) as u8).is_ok());
        assert_eq!(
            Phoneme::from_id(TABLE.len() as u8),
            Err(PhonemeError::InvalidId(TABLE.len() as u8))
        );
    }

    #[test]
    fn from_symbol_resolves_known_and_rejects_unknown() {
        let n = Phoneme::from_symbol("n").unwrap();
        assert_eq!(n.symbol(), "n");
        assert!(n.is_consonant());
        assert!(!n.is_vowel());
        assert!(matches!(
            Phoneme::from_symbol("℗"),
            Err(PhonemeError::UnknownPhoneme(_))
        ));
    }

    #[test]
    fn display_and_debug_render_symbol() {
        let a = Phoneme::from_symbol("aː").unwrap();
        assert_eq!(a.to_string(), "aː");
        assert_eq!(format!("{a:?}"), "/aː/");
        assert!(a.is_vowel());
    }

    #[test]
    fn phoneme_is_one_byte() {
        assert_eq!(std::mem::size_of::<Phoneme>(), 1);
    }
}
