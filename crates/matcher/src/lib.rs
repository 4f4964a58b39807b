//! Approximate string matching primitives for the LexEQUAL stack.
//!
//! LexEQUAL (Kumaran & Haritsa, EDBT 2004) compares proper names in phoneme
//! space with a *parameterized* edit distance: the dynamic-programming
//! formulation of Figure 8 in the paper, with pluggable `InsCost`/`DelCost`/
//! `SubCost` functions. This crate implements that machinery *generically*
//! over any symbol type, so it is equally usable for phoneme strings
//! (the LexEQUAL core), plain `char` strings (tests, monolingual q-gram
//! experiments), and byte strings.
//!
//! Contents:
//!
//! * [`cost`] — the [`cost::CostModel`] trait and the unit-cost
//!   (Levenshtein) model.
//! * [`distance`] — full-matrix and rolling two-row DP edit distance.
//! * [`banded`] — a thresholded variant (`within_distance`) with Ukkonen-
//!   style band pruning and early exit, the hot path of the UDF; the
//!   `_scratch` form reuses caller-owned DP rows for allocation-free
//!   verification loops.
//! * [`myers`] — Myers' bit-parallel Levenshtein over `u8` symbol ids,
//!   used as an exact accept/reject screen around the clustered DP.
//! * [`myers_batch`] — the interleaved multi-lane form of the Myers
//!   screen: one shared pattern, up to 16 texts advanced per step with
//!   struct-of-arrays lane state, so independent recurrences fill the
//!   pipeline.
//! * [`simd`] — the dense-matrix specialization of the banded DP with
//!   SSE2/AVX2 column kernels and once-per-process runtime dispatch
//!   (`LEXEQUAL_FORCE_SCALAR=1` pins the portable fallback).
//! * [`qgram`] — positional q-grams (Gravano et al., VLDB 2001) and the
//!   Length / Count / Position filters used to pre-filter candidates.
//! * [`soundex`](mod@soundex) — the classical Soundex code (Knuth), the pseudo-phonetic
//!   baseline the paper contrasts against.
//! * [`bktree`] — an id-keyed Burkhard-Keller metric tree under
//!   Levenshtein distance, built and probed with one Myers pattern per
//!   key, implementing the paper's "metric index for phonemes"
//!   future-work direction.

pub mod alignment;
pub mod banded;
pub mod bktree;
pub mod cost;
pub mod damerau;
pub mod distance;
pub mod myers;
pub mod myers_batch;
pub mod qgram;
pub mod simd;
pub mod soundex;

pub use alignment::{align, Alignment, EditOp};
pub use banded::{within_distance, within_distance_scratch, DpScratch};
pub use bktree::{BkTree, Probe};
pub use cost::{CostModel, UnitCost};
pub use damerau::damerau_distance;
pub use distance::{edit_distance, edit_distance_matrix};
pub use myers::{MyersPattern, IDENTITY_CLASSES};
pub use myers_batch::MAX_LANES;
pub use qgram::{
    count_filter_passes, length_filter_passes, matching_qgrams, positional_qgrams, Gram,
    PositionalQgram, QgramSymbol,
};
pub use simd::{
    available_simd_levels, detect_simd_level, simd_level, within_distance_dense, SimdLevel,
};
pub use soundex::soundex;
