//! Error type for text-to-phoneme conversion.

use lexequal_phoneme::PhonemeError;
use std::fmt;

use crate::language::Language;

/// Errors raised during text-to-phoneme conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum G2pError {
    /// No TTP converter is installed for this language — the `NORESOURCE`
    /// outcome of the LexEQUAL algorithm (paper Figure 8, step 6).
    NoResource(Language),
    /// The input contained a character the converter cannot interpret.
    UntranslatableChar {
        /// The offending character.
        ch: char,
        /// The language whose converter rejected it.
        language: Language,
    },
    /// A converter emitted an IPA sequence the phoneme inventory rejected
    /// (internal invariant violation — converters are tested to never do
    /// this for inputs in their script).
    BadEmission(PhonemeError),
    /// The text, or the phoneme string it transforms to, is longer than a
    /// stored name may be.
    TooLong {
        /// Bytes the longer of the two takes.
        bytes: usize,
        /// Most a stored name's text or phoneme string may take.
        limit: usize,
    },
}

impl fmt::Display for G2pError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            G2pError::NoResource(lang) => {
                write!(f, "no text-to-phoneme resource for language {lang}")
            }
            G2pError::UntranslatableChar { ch, language } => {
                write!(f, "character {ch:?} is not translatable as {language}")
            }
            G2pError::BadEmission(e) => write!(f, "converter emitted invalid IPA: {e}"),
            G2pError::TooLong { bytes, limit } => write!(
                f,
                "name too long: {bytes} bytes of text or phonemes, a stored name holds {limit}"
            ),
        }
    }
}

impl std::error::Error for G2pError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            G2pError::BadEmission(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PhonemeError> for G2pError {
    fn from(e: PhonemeError) -> Self {
        G2pError::BadEmission(e)
    }
}
