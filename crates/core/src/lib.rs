//! # LexEQUAL: multiscript matching of proper names
//!
//! A from-scratch Rust reproduction of *LexEQUAL: Supporting Multiscript
//! Matching in Database Systems* (A. Kumaran & Jayant R. Haritsa, EDBT
//! 2004). LexEQUAL matches proper names **across scripts** — `Nehru`,
//! `नेहरु`, `நேரு`, `Νερού` — by transforming each string into its phonemic
//! (IPA) representation and comparing in phoneme space with a tunable
//! approximate-matching predicate.
//!
//! ## The operator
//!
//! ```text
//! LexEQUAL(S_l, S_r, e):
//!   T_l ← transform(S_l, language(S_l));  T_r ← transform(S_r, language(S_r))
//!   TRUE iff editdistance(T_l, T_r) ≤ e · min(|T_l|, |T_r|)
//! ```
//!
//! Two knobs tune match quality (paper §3.3):
//!
//! * the **match threshold** `e` — user tolerance, as a fraction of the
//!   smaller phoneme string;
//! * the **intra-cluster substitution cost** — like phonemes are clustered
//!   (a phonetic generalization of Soundex); substitutions within a
//!   cluster cost less than substitutions across clusters.
//!
//! ## Quick start
//!
//! ```
//! use lexequal::{LexEqual, MatchConfig, Outcome};
//! use lexequal_g2p::Language;
//!
//! let lex = LexEqual::new(MatchConfig::default());
//! let out = lex.match_strings("Nehru", Language::English, "நேரு", Language::Tamil).unwrap();
//! assert_eq!(out, Outcome::True);
//! let out = lex.match_strings_with("Nehru", Language::English, "नेहरु", Language::Hindi, 0.45).unwrap();
//! assert_eq!(out, Outcome::True);
//! let out = lex.match_strings("Nehru", Language::English, "Gandhi", Language::English).unwrap();
//! assert_eq!(out, Outcome::False);
//! ```
//!
//! ## Acceleration
//!
//! A naive scan evaluates the (expensive) predicate on every row. The two
//! accelerators from the paper's §5 are provided:
//!
//! * [`qgram_plan::QgramFilter`] — positional q-grams over
//!   the phoneme strings with Length/Count/Position filtering (no false
//!   dismissals in [`qgram_plan::QgramMode::Strict`] mode);
//! * [`phonidx::PhoneticIndex`] — a B-tree-indexable
//!   *grouped phoneme string identifier* per string (cluster-id sequence);
//!   fastest, but admits 4–5% false dismissals, as measured in the paper.
//!
//! [`store::NameStore`] packages a name collection with all
//! access paths behind one search API; [`udf`] wires the operator into the
//! `lexequal-mdb` SQL engine exactly the way the paper deployed it on
//! Oracle 9i (UDF + auxiliary tables + index), enabling the Figure 3 /
//! Figure 5 query syntax end to end.

pub mod config;
pub mod cost;
pub mod operator;
pub mod phonidx;
pub mod qgram_plan;
pub mod rows;
pub mod store;
pub mod udf;
pub mod verify;

pub use config::MatchConfig;
pub use cost::{ClusteredPhonemeCost, DenseSubstCost, FeaturePhonemeCost};
pub use operator::{LexEqual, Outcome};
pub use phonidx::PhoneticIndex;
pub use qgram_plan::{QgramFilter, QgramMode};
pub use rows::KeyColumn;
pub use store::{
    BuildSpec, LoadSize, Memory, NameStore, PathIndex, RowChunk, SearchMethod, SymbolColumn,
};
pub use verify::{
    BatchCounters, BatchVerifier, Lane, PreparedQuery, ScreenCounters, Verifier, MAX_LANES,
};

/// Width of the retired embedding screen's vectors (DESIGN §5j). Kept only
/// for the benchmark's kernel replay; goes with ROADMAP item 2.
#[doc(hidden)]
pub use lexequal_embed::EMBED_DIM;
pub use lexequal_g2p::{G2pError, G2pRegistry, Language, Route, Router, Script, ScriptProfile};
pub use lexequal_matcher::{available_simd_levels, simd_level, SimdLevel};
pub use lexequal_phoneme::{ClusterTable, Phoneme, PhonemeString};

#[cfg(test)]
mod send_sync_audit {
    //! The serving layer (`lexequal-service`) shares the operator and its
    //! configuration across worker threads and moves stores into them;
    //! these assertions pin the thread-safety contract at compile time so
    //! a future `Rc`/`RefCell` slipping into any layer fails loudly here
    //! rather than at the service crate's call sites.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn core_types_are_send_and_sync() {
        assert_send_sync::<LexEqual>();
        assert_send_sync::<MatchConfig>();
        assert_send_sync::<G2pRegistry>();
        assert_send_sync::<ClusterTable>();
        assert_send_sync::<PhonemeString>();
        assert_send_sync::<store::NameEntry>();
        assert_send_sync::<store::SearchResult>();
        assert_send_sync::<NameStore>();
        assert_send_sync::<QgramFilter>();
        assert_send_sync::<PhoneticIndex>();
        assert_send_sync::<DenseSubstCost>();
        assert_send_sync::<Verifier>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<ScriptProfile>();
        assert_send_sync::<Router>();
        assert_send_sync::<Route>();
    }
}
