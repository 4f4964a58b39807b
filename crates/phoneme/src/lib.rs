//! IPA phoneme inventory, articulatory features, and phoneme clustering.
//!
//! This crate is the foundation of the LexEQUAL multiscript matching stack
//! (Kumaran & Haritsa, EDBT 2004). LexEQUAL matches proper names across
//! scripts by transforming each string into the *phoneme space* and comparing
//! there; everything in that pipeline manipulates the types defined here:
//!
//! * [`Phoneme`] — a single segmental IPA phoneme, a compact handle into the
//!   static [`inventory`].
//! * [`PhonemeString`] — a sequence of phonemes, the unit of comparison.
//! * [`features`] — articulatory feature descriptions (place, manner,
//!   voicing, vowel height/backness) used to derive phoneme similarity.
//! * [`ClusterTable`] — a partition of the inventory into clusters of
//!   *like phonemes*, generalizing Soundex groups to the full IPA segment
//!   set (after Mareuil et al., "Multilingual Automatic Phoneme
//!   Clustering"). The intra-cluster substitution cost parameter of the
//!   LexEQUAL clustered edit distance is defined with respect to such a
//!   table, and the phonetic index derives its *grouped phoneme string
//!   identifier* from it.
//!
//! The inventory covers the segments needed for English, Hindi, Tamil,
//! Greek, French and Spanish — the languages appearing in the paper's
//! running example (Figure 1) and evaluation corpus.
//!
//! # Example
//!
//! ```
//! use lexequal_phoneme::{PhonemeString, ClusterTable};
//!
//! let neru: PhonemeString = "neɪru".parse().unwrap();
//! assert_eq!(neru.len(), 5);
//! assert_eq!(neru.to_string(), "neɪru");
//!
//! let clusters = ClusterTable::standard();
//! // /n/ and /m/ are both nasals: same cluster.
//! let n = "n".parse::<PhonemeString>().unwrap()[0];
//! let m = "m".parse::<PhonemeString>().unwrap()[0];
//! assert_eq!(clusters.cluster_of(n), clusters.cluster_of(m));
//! ```

pub mod cluster;
pub mod error;
pub mod features;
pub mod inventory;
pub mod parse;
pub mod phoneme;
pub mod string;

pub use cluster::{ClusterId, ClusterTable};
pub use error::PhonemeError;
pub use features::{Backness, Height, Length, Manner, Place, Roundedness, SegmentKind, Voicing};
pub use inventory::{Inventory, PhonemeDescriptor};
pub use phoneme::Phoneme;
pub use string::PhonemeString;
