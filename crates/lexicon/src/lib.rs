//! Evaluation datasets and quality metrics for the LexEQUAL reproduction.
//!
//! The paper's experiments (Kumaran & Haritsa, EDBT 2004, §4–§5) run over
//! two datasets this crate builds deterministically from embedded name
//! lists:
//!
//! * [`Corpus`] — the tagged multiscript lexicon (~800 names × 3 scripts,
//!   §4.1): English base names from three domains (Indian, American,
//!   generic nouns), machine-rendered into Devanagari and Tamil, each
//!   group sharing a ground-truth tag. Drives the match-quality
//!   experiments (Figures 10–12).
//! * [`SyntheticDataset`] — ≈200K entries built by in-language pairwise
//!   concatenation (§5), driving the performance experiments (Figure 13,
//!   Tables 1–3).
//!
//! [`quality`] implements the recall/precision sweep of §4.2.

pub mod corpus;
pub mod data;
pub mod quality;
pub mod synthetic;

pub use corpus::{Corpus, LexiconEntry};
pub use data::{NameDomain, AMERICAN_NAMES, GENERIC_NAMES, INDIAN_NAMES};
pub use quality::{sweep, sweep_sampled, sweep_with_model, QualityPoint};
pub use synthetic::{build_dataset, SyntheticDataset, SyntheticEntry, SyntheticPairs};
