//! Phoneme clustering: grouping *like phonemes*.
//!
//! LexEQUAL's clustered edit distance (paper §3.3) extends the Soundex idea
//! to the phoneme space: near-equal phonemes are grouped into clusters, and
//! a substitution *within* a cluster is charged the tunable
//! *intra-cluster substitution cost* while substitutions *across* clusters
//! cost a full unit. The phonetic index (paper §5.3) reuses the same
//! partition: each phoneme string maps to the sequence of its cluster ids —
//! the *grouped phoneme string identifier* — which is B-tree indexable.
//!
//! Two built-in tables are provided:
//!
//! * [`ClusterTable::standard`] — a fine partition derived from articulatory
//!   features, following the multilingual clustering of Mareuil et al.
//!   (ICPhS 1999): stops by place, sibilants, nasals, liquids, glides, and
//!   five vowel regions.
//! * [`ClusterTable::coarse`] — a deliberately coarse, Soundex-like
//!   partition (all stops together, all vowels together, …) used by the
//!   cluster-granularity ablation in the benchmark suite.
//!
//! Users may also build custom tables ([`ClusterTable::from_groups`]),
//! matching the paper's "user customization of clustering".

use crate::error::PhonemeError;
use crate::features::{Features, Height, Manner, Place};
use crate::inventory::{Inventory, TABLE};
use crate::phoneme::Phoneme;
use crate::string::PhonemeString;
use std::fmt;

/// Identifier of a phoneme cluster within a [`ClusterTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u8);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A total mapping from every inventory phoneme to a cluster id.
///
/// Invariant: `assignment.len() == Inventory::len()` and every phoneme is
/// assigned (the table is a *partition* of the inventory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTable {
    assignment: Vec<ClusterId>,
    cluster_count: u8,
    name: &'static str,
}

impl ClusterTable {
    /// The standard fine-grained partition (see module docs).
    ///
    /// Clusters:
    /// 0 labial stops, 1 coronal stops (alveolar/dental/retroflex, incl.
    /// dental fricatives), 3 velar/uvular/glottal stops, 4 labial
    /// fricatives & approximants, 5 sibilants & affricates, 6 nasals,
    /// 7 liquids, 8 glottal fricatives, 9 palatal glide,
    /// 10 front-high vowels, 11 front-mid vowels, 12 central/open vowels,
    /// 13 back-high vowels, 14 back-mid vowels.
    pub fn standard() -> Self {
        Self::from_classifier("standard", |f| match f {
            Features::Consonant(c) => match (c.manner, c.place) {
                (Manner::Stop, Place::Bilabial) => 0,
                // Coronal stops: alveolar, dental and retroflex together —
                // Indic scripts render English /t d/ with the retroflex
                // series, so the two must be like phonemes for
                // multiscript matching.
                (Manner::Stop, Place::Alveolar | Place::Dental | Place::Retroflex) => 1,
                (Manner::Fricative, Place::Dental) => 1, // θ ð pattern with t d
                (Manner::Stop, Place::Velar | Place::Uvular | Place::Glottal) => 3,
                (Manner::Fricative, Place::Velar) => 3, // x ɣ with k g
                (Manner::Fricative | Manner::Approximant, Place::Bilabial | Place::Labiodental) => {
                    4
                }
                (Manner::Approximant, Place::Velar) => 4, // w patterns with v/ʋ
                (Manner::Fricative, Place::Alveolar | Place::Postalveolar | Place::Retroflex) => 5,
                (Manner::Fricative, Place::Palatal) => 5, // ç
                (Manner::Affricate, _) => 5,
                (Manner::Nasal, _) => 6,
                (Manner::Trill | Manner::Tap | Manner::Lateral, _) => 7,
                (Manner::Approximant, Place::Retroflex) => 7, // ɻ
                (Manner::Fricative, Place::Glottal) => 8,
                (Manner::Approximant, Place::Palatal) => 9,
                _ => 8,
            },
            Features::Vowel(v) => match (v.backness, v.height) {
                (crate::features::Backness::Front, Height::Close | Height::NearClose) => 10,
                // All unrounded open(-ish) vowels cluster together:
                // /a aː ɑ æ/ are interchangeable across the corpus
                // languages (Indic scripts render each with the a-series).
                (_, Height::Open | Height::NearOpen)
                    if v.roundedness == crate::features::Roundedness::Unrounded =>
                {
                    12
                }
                (crate::features::Backness::Front, _) => 11,
                (crate::features::Backness::Central, _) => 12,
                (crate::features::Backness::Back, Height::Close | Height::NearClose) => 13,
                (crate::features::Backness::Back, _) => 14,
            },
        })
    }

    /// A coarse Soundex-like partition: 0 stops, 1 fricatives/affricates,
    /// 2 nasals, 3 liquids, 4 glides, 5 vowels. Used to study how cluster
    /// granularity trades recall against precision and index selectivity.
    pub fn coarse() -> Self {
        Self::from_classifier("coarse", |f| match f {
            Features::Consonant(c) => match c.manner {
                Manner::Stop => 0,
                Manner::Fricative | Manner::Affricate => 1,
                Manner::Nasal => 2,
                Manner::Trill | Manner::Tap | Manner::Lateral => 3,
                Manner::Approximant => 4,
            },
            Features::Vowel(_) => 5,
        })
    }

    /// The identity partition: every phoneme in its own cluster. With this
    /// table the clustered edit distance degenerates to plain Levenshtein
    /// regardless of the intra-cluster cost.
    pub fn identity() -> Self {
        let assignment = (0..TABLE.len()).map(|i| ClusterId(i as u8)).collect();
        ClusterTable {
            assignment,
            cluster_count: TABLE.len() as u8,
            name: "identity",
        }
    }

    /// Build a table from a classifier function over features.
    fn from_classifier(name: &'static str, f: impl Fn(&Features) -> u8) -> Self {
        let assignment: Vec<ClusterId> = TABLE.iter().map(|d| ClusterId(f(&d.features))).collect();
        let cluster_count = assignment.iter().map(|c| c.0).max().map_or(0, |m| m + 1);
        ClusterTable {
            assignment,
            cluster_count,
            name,
        }
    }

    /// Build a custom table from explicit groups of IPA symbols. Phonemes
    /// not mentioned in any group are each placed in their own fresh
    /// cluster (so the result is still a partition of the inventory).
    ///
    /// # Errors
    ///
    /// Returns [`PhonemeError::UnknownPhoneme`] if a group names a symbol
    /// not in the inventory.
    pub fn from_groups(groups: &[&[&str]]) -> Result<Self, PhonemeError> {
        let mut assignment: Vec<Option<ClusterId>> = vec![None; TABLE.len()];
        let mut next = 0u8;
        for group in groups {
            let id = ClusterId(next);
            next += 1;
            for sym in *group {
                let p = Inventory::by_symbol(sym)
                    .ok_or_else(|| PhonemeError::UnknownPhoneme((*sym).to_owned()))?;
                assignment[p.index()] = Some(id);
            }
        }
        let assignment = assignment
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    let id = ClusterId(next);
                    next += 1;
                    id
                })
            })
            .collect();
        Ok(ClusterTable {
            assignment,
            cluster_count: next,
            name: "custom",
        })
    }

    /// The cluster containing `p`.
    pub fn cluster_of(&self, p: Phoneme) -> ClusterId {
        self.assignment[p.index()]
    }

    /// [`cluster_of`](Self::cluster_of) a phoneme given as its raw
    /// inventory id (a byte of a flat phoneme column).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the inventory.
    pub fn cluster_of_id(&self, id: u8) -> ClusterId {
        self.assignment[id as usize]
    }

    /// The cluster id of every inventory id, as one table a byte of a flat
    /// phoneme column indexes directly: `class_map()[id]` is
    /// [`cluster_of_id(id)`](Self::cluster_of_id), and `0xFF` for a byte
    /// outside the inventory.
    pub fn class_map(&self) -> [u8; 256] {
        let mut class = [u8::MAX; 256];
        for (slot, cluster) in class.iter_mut().zip(&self.assignment) {
            *slot = cluster.0;
        }
        class
    }

    /// Whether two phonemes are *like phonemes* (same cluster).
    pub fn same_cluster(&self, a: Phoneme, b: Phoneme) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }

    /// Number of clusters in the partition.
    pub fn cluster_count(&self) -> u8 {
        self.cluster_count
    }

    /// Human-readable name of this table ("standard", "coarse", …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The *grouped phoneme string* of `s`: the sequence of cluster ids of
    /// its phonemes. Two strings with equal cluster keys differ only by
    /// intra-cluster substitutions — the candidate condition of the
    /// phonetic index (paper §5.3).
    pub fn cluster_key(&self, s: &PhonemeString) -> Vec<ClusterId> {
        s.iter().map(|&p| self.cluster_of(p)).collect()
    }

    /// Pack the cluster key into a single `u128` *grouped phoneme string
    /// identifier* suitable for storage in an integer-keyed B-tree index.
    ///
    /// Encoding: base-(cluster_count+1) positional code, most significant
    /// segment first, with digit value `cluster + 1` so that prefixes do
    /// not collide with shorter strings. Strings whose key would overflow
    /// 128 bits are truncated to their first [`Self::packed_prefix_len`]
    /// segments — equality on the packed id is then a *necessary*
    /// condition for cluster-key equality, which preserves index
    /// correctness (it only admits extra candidates, never drops any).
    pub fn packed_key(&self, s: &PhonemeString) -> u128 {
        self.pack(s.iter().map(|&p| self.cluster_of(p).0))
    }

    /// [`packed_key`](Self::packed_key) of a string given as its cluster
    /// ids under this table (an index build's copy of a cluster-keyed column).
    pub fn packed_key_of_clusters(&self, clusters: &[u8]) -> u128 {
        self.pack(clusters.iter().copied())
    }

    /// [`packed_key`](Self::packed_key) of a string given as its raw
    /// inventory ids (a row of a flat phoneme column).
    ///
    /// # Panics
    ///
    /// Panics at an id outside the inventory.
    pub fn packed_key_of_ids(&self, ids: &[u8]) -> u128 {
        self.pack(ids.iter().map(|&id| self.cluster_of_id(id).0))
    }

    fn pack(&self, clusters: impl Iterator<Item = u8>) -> u128 {
        let base = self.cluster_count as u128 + 1;
        clusters
            .take(self.packed_prefix_len())
            .fold(0, |acc, cluster| acc * base + (cluster as u128 + 1))
    }

    /// How many segments fit into the packed 128-bit key without overflow.
    pub fn packed_prefix_len(&self) -> usize {
        let base = (self.cluster_count as f64 + 1.0).log2();
        (127.0 / base).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(sym: &str) -> Phoneme {
        Phoneme::from_symbol(sym).unwrap()
    }

    #[test]
    fn standard_table_is_total() {
        let t = ClusterTable::standard();
        for ph in Inventory::iter() {
            let c = t.cluster_of(ph);
            assert!(c.0 < t.cluster_count(), "{ph:?} has out-of-range cluster");
        }
    }

    #[test]
    fn like_phonemes_share_standard_clusters() {
        let t = ClusterTable::standard();
        // Voicing and aspiration variants of a stop cluster together.
        assert!(t.same_cluster(p("p"), p("b")));
        assert!(t.same_cluster(p("p"), p("pʰ")));
        assert!(t.same_cluster(p("t"), p("d")));
        assert!(t.same_cluster(p("t"), p("θ")));
        assert!(t.same_cluster(p("k"), p("g")));
        // Sibilants cluster together.
        assert!(t.same_cluster(p("s"), p("ʃ")));
        assert!(t.same_cluster(p("s"), p("tʃ")));
        // Nasals cluster together.
        assert!(t.same_cluster(p("n"), p("ɳ")));
        // Liquids.
        assert!(t.same_cluster(p("r"), p("l")));
        // Vowel regions.
        assert!(t.same_cluster(p("i"), p("ɪ")));
        assert!(t.same_cluster(p("o"), p("ɔ")));
        assert!(t.same_cluster(p("a"), p("aː")));
        assert!(t.same_cluster(p("æ"), p("aː"))); // æ joins the open vowels
    }

    #[test]
    fn unlike_phonemes_are_separated_in_standard() {
        let t = ClusterTable::standard();
        assert!(!t.same_cluster(p("p"), p("k")));
        assert!(!t.same_cluster(p("s"), p("t")));
        assert!(!t.same_cluster(p("n"), p("r")));
        assert!(!t.same_cluster(p("i"), p("u")));
        assert!(!t.same_cluster(p("a"), p("n")));
    }

    #[test]
    fn coarse_is_coarser_than_standard() {
        let fine = ClusterTable::standard();
        let coarse = ClusterTable::coarse();
        assert!(coarse.cluster_count() < fine.cluster_count());
        // Coarse merges all stops; standard does not.
        assert!(coarse.same_cluster(p("p"), p("k")));
        assert!(!fine.same_cluster(p("p"), p("k")));
        // Coarse merges all fricatives; standard separates labial from sibilant.
        assert!(coarse.same_cluster(p("f"), p("s")));
        assert!(!fine.same_cluster(p("f"), p("s")));
        // Coarse merges all vowels; standard separates front from back.
        assert!(coarse.same_cluster(p("i"), p("u")));
        assert!(!fine.same_cluster(p("i"), p("u")));
    }

    #[test]
    fn identity_separates_everything() {
        let t = ClusterTable::identity();
        assert!(!t.same_cluster(p("p"), p("b")));
        assert_eq!(t.cluster_count() as usize, Inventory::len());
    }

    #[test]
    fn custom_groups_apply_and_rest_are_singletons() {
        let t = ClusterTable::from_groups(&[&["p", "b", "f", "v"], &["s", "z"]]).unwrap();
        assert!(t.same_cluster(p("p"), p("f")));
        assert!(t.same_cluster(p("s"), p("z")));
        assert!(!t.same_cluster(p("p"), p("s")));
        // Unmentioned phonemes are singletons.
        assert!(!t.same_cluster(p("m"), p("n")));
    }

    #[test]
    fn custom_groups_reject_unknown_symbols() {
        assert!(matches!(
            ClusterTable::from_groups(&[&["p", "zz"]]),
            Err(PhonemeError::UnknownPhoneme(_))
        ));
    }

    #[test]
    fn cluster_key_equal_iff_intra_cluster_variants() {
        let t = ClusterTable::standard();
        let a: PhonemeString = "neru".parse().unwrap();
        let b: PhonemeString = "neɾu".parse().unwrap(); // trill -> tap: same cluster
        let c: PhonemeString = "neku".parse().unwrap(); // r -> k: different cluster
        assert_eq!(t.cluster_key(&a), t.cluster_key(&b));
        assert_ne!(t.cluster_key(&a), t.cluster_key(&c));
    }

    #[test]
    fn packed_key_consistent_with_cluster_key_for_short_strings() {
        let t = ClusterTable::standard();
        let a: PhonemeString = "neru".parse().unwrap();
        let b: PhonemeString = "neɾu".parse().unwrap();
        let c: PhonemeString = "nero".parse().unwrap(); // u -> o: different vowel region
        assert_eq!(t.packed_key(&a), t.packed_key(&b));
        assert_ne!(t.packed_key(&a), t.packed_key(&c));
        // Prefix must not collide with shorter string.
        let short: PhonemeString = "ner".parse().unwrap();
        assert_ne!(t.packed_key(&a), t.packed_key(&short));
    }

    #[test]
    fn packed_prefix_len_is_generous() {
        // With 15 clusters, base 16 → 31 segments fit. Names are ~7, the
        // synthetic concatenated dataset ~15, both well inside.
        assert!(ClusterTable::standard().packed_prefix_len() >= 28);
    }
}
