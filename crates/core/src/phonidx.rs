//! The phonetic index (paper §5.3).
//!
//! "We first grouped the phonemes into equivalent clusters … and assigned
//! a unique number to each of the clusters. Each phoneme string was
//! transformed to a unique numeric string, by concatenating the cluster
//! identifiers of each phoneme in the string. The numeric string thus
//! obtained was converted into an integer — *Grouped Phoneme String
//! Identifier* — which is stored along with the phoneme string. A standard
//! database B-Tree index was built on the grouped phoneme string
//! identifier attribute."
//!
//! Two strings with equal identifiers differ only by intra-cluster
//! substitutions — phonetically close by construction. The price is
//! **false dismissals**: a true match that substitutes *across* clusters,
//! or inserts/deletes a phoneme, maps to a different identifier and is
//! never retrieved. The paper measured that cost at 4–5% of true matches;
//! our evaluation harness reproduces the measurement.

use crate::operator::LexEqual;
use crate::verify::Verifier;
use lexequal_phoneme::{ClusterTable, PhonemeString};

/// The phonetic index: grouped-phoneme-string-identifier → string ids, as
/// the paper's B-tree keeps it — sorted. Two parallel arrays, twelve bytes
/// a string, nothing allocated per key.
pub struct PhoneticIndex {
    /// Every string's identifier, ascending; equal identifiers by id.
    keys: Vec<i64>,
    /// `ids[i]` is the string `keys[i]` belongs to.
    ids: Vec<u32>,
}

/// Compute the grouped phoneme string identifier as a database-friendly
/// signed 64-bit integer.
///
/// The cluster-id sequence is first packed positionally into a `u128`
/// (see [`ClusterTable::packed_key`]); folding to `i64` keeps the key
/// *complete* (equal cluster sequences always produce equal keys) at the
/// price of occasional extra candidates from fold collisions — which the
/// verification step removes.
pub fn grouped_id(clusters: &ClusterTable, s: &PhonemeString) -> i64 {
    fold(clusters.packed_key(s))
}

/// [`grouped_id`] of a string given as its cluster ids under `clusters` —
/// a row of a store's cluster column.
pub fn grouped_id_of_clusters(clusters: &ClusterTable, cluster_ids: &[u8]) -> i64 {
    fold(clusters.packed_key_of_clusters(cluster_ids))
}

fn fold(wide: u128) -> i64 {
    (wide % (i64::MAX as u128)) as i64
}

impl PhoneticIndex {
    /// Build the index over a corpus; ids are positions in `corpus`.
    pub fn build(clusters: &ClusterTable, corpus: &[PhonemeString]) -> Self {
        Self::of_keys(corpus.iter().map(|s| grouped_id(clusters, s)))
    }

    /// [`build`](Self::build) over `n` rows of a cluster column (`row(i)`:
    /// string `i`'s cluster ids under `clusters`).
    pub fn build_rows<'a>(
        clusters: &ClusterTable,
        n: usize,
        row: impl Fn(usize) -> &'a [u8],
    ) -> Self {
        Self::of_keys((0..n).map(|id| grouped_id_of_clusters(clusters, row(id))))
    }

    /// The index of strings `0..` with these identifiers.
    fn of_keys(keys: impl Iterator<Item = i64>) -> Self {
        let mut pairs: Vec<(i64, u32)> = keys.zip(0..).collect();
        pairs.sort_unstable();
        PhoneticIndex {
            keys: pairs.iter().map(|&(key, _)| key).collect(),
            ids: pairs.iter().map(|&(_, id)| id).collect(),
        }
    }

    /// Number of strings indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of distinct grouped identifiers (index selectivity).
    pub fn distinct_keys(&self) -> usize {
        self.keys.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!self.is_empty())
    }

    /// Bytes the index's arrays hold.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<i64>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
    }

    /// Candidate ids whose grouped identifier equals the query's,
    /// ascending.
    pub fn candidates(&self, clusters: &ClusterTable, query: &PhonemeString) -> Vec<u32> {
        self.candidates_with_tail(grouped_id(clusters, query), clusters, self.len(), |_| &[])
    }

    /// The ids whose grouped identifier is `key` over a cluster column of
    /// `rows` rows that has grown past the index: the rows appended since
    /// the build (ids `len()..rows`, read through `row` as
    /// [`build_rows`](Self::build_rows) reads them) are admitted by the
    /// same equality the index applies to the rows it holds — so the
    /// answer is that of an index over every row.
    pub fn candidates_with_tail<'a>(
        &self,
        key: i64,
        clusters: &ClusterTable,
        rows: usize,
        row: impl Fn(usize) -> &'a [u8],
    ) -> Vec<u32> {
        // The key's run: found by bisection, ended by walking it — it is
        // the answer, a couple of ids long.
        let first = self.keys.partition_point(|&k| k < key);
        let run = self.keys[first..].iter().take_while(|&&k| k == key).count();
        let mut out = self.ids[first..first + run].to_vec();
        out.extend(
            (self.len()..rows)
                .filter(|&id| grouped_id_of_clusters(clusters, row(id)) == key)
                .map(|id| id as u32),
        );
        out
    }

    /// Accelerated search: index probe, then verify each candidate with
    /// the exact predicate (the Figure 15 plan). Returns matching ids and
    /// the number of verification (UDF) calls.
    pub fn search(
        &self,
        corpus: &[PhonemeString],
        query: &PhonemeString,
        e: f64,
        operator: &LexEqual,
    ) -> (Vec<u32>, usize) {
        let prepared = operator.prepare_query(query);
        let mut verifier = Verifier::new();
        let cands = self.candidates(operator.cost_model().clusters(), query);
        let verified = cands.len();
        let mut hits: Vec<u32> = cands
            .into_iter()
            .filter(|&c| verifier.matches(operator, &prepared, &corpus[c as usize], None, None, e))
            .collect();
        hits.sort_unstable();
        (hits, verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchConfig;
    use lexequal_g2p::Language;

    fn setup(names: &[&str]) -> (LexEqual, Vec<PhonemeString>, PhoneticIndex) {
        let ops = LexEqual::new(MatchConfig::default());
        let corpus: Vec<PhonemeString> = names
            .iter()
            .map(|n| ops.transform(n, Language::English).unwrap())
            .collect();
        let idx = PhoneticIndex::build(ops.cost_model().clusters(), &corpus);
        (ops, corpus, idx)
    }

    #[test]
    fn intra_cluster_variants_share_identifiers() {
        let ops = LexEqual::default();
        let clusters = ops.cost_model().clusters();
        let a: PhonemeString = "neru".parse().unwrap();
        let b: PhonemeString = "neɾu".parse().unwrap(); // r→ɾ same cluster
        let c: PhonemeString = "neku".parse().unwrap(); // r→k cross cluster
        assert_eq!(grouped_id(clusters, &a), grouped_id(clusters, &b));
        assert_ne!(grouped_id(clusters, &a), grouped_id(clusters, &c));
    }

    #[test]
    fn probe_retrieves_like_sounding_names() {
        let (ops, corpus, idx) = setup(&["Nehru", "Gandhi", "Bose", "Patel"]);
        // The Hindi rendering of Nehru probes the same bucket iff its
        // cluster sequence matches; verify through the full search.
        let q = ops.transform("नेहरु", Language::Hindi).unwrap();
        let (hits, _) = idx.search(&corpus, &q, 0.3, &ops);
        // nɛru vs neɦrʊ differ by an inserted ɦ → different identifier:
        // this is exactly the paper's false-dismissal mechanism. The
        // direct English probe, by contrast, must hit.
        let q_en = ops.transform("Nehru", Language::English).unwrap();
        let (hits_en, verified) = idx.search(&corpus, &q_en, 0.3, &ops);
        assert_eq!(hits_en, vec![0]);
        assert!(verified <= corpus.len());
        let _ = hits;
    }

    #[test]
    fn search_never_returns_false_positives() {
        let (ops, corpus, idx) = setup(&["Nehru", "Neru", "Nero", "Gandhi", "Krishnan"]);
        let q = ops.transform("Neru", Language::English).unwrap();
        let (hits, _) = idx.search(&corpus, &q, 0.3, &ops);
        for h in &hits {
            assert!(
                ops.matches_phonemes(&corpus[*h as usize], &q, 0.3),
                "id {h} is not a true match"
            );
        }
    }

    #[test]
    fn hits_are_subset_of_scan_with_possible_dismissals() {
        let (ops, corpus, idx) =
            setup(&["Catherine", "Kathryn", "Cathy", "Nehru", "Nero", "Neruda"]);
        let q = ops.transform("Catherine", Language::English).unwrap();
        let (hits, _) = idx.search(&corpus, &q, 0.4, &ops);
        let scan: Vec<u32> = (0..corpus.len() as u32)
            .filter(|&i| ops.matches_phonemes(&corpus[i as usize], &q, 0.4))
            .collect();
        for h in &hits {
            assert!(scan.contains(h), "index returned a non-scan hit");
        }
        // And the scan can only be >= the index hits (false dismissals).
        assert!(hits.len() <= scan.len());
    }

    #[test]
    fn coarse_clusters_reduce_distinct_keys() {
        let ops = LexEqual::default();
        let names = [
            "Nehru", "Gandhi", "Bose", "Patel", "Kumar", "Sharma", "Iyer", "Reddy", "Menon",
            "Verma",
        ];
        let corpus: Vec<PhonemeString> = names
            .iter()
            .map(|n| ops.transform(n, Language::English).unwrap())
            .collect();
        let fine = PhoneticIndex::build(&ClusterTable::standard(), &corpus);
        let coarse = PhoneticIndex::build(&ClusterTable::coarse(), &corpus);
        assert!(coarse.distinct_keys() <= fine.distinct_keys());
        assert_eq!(fine.len(), names.len());
    }

    #[test]
    fn empty_corpus() {
        let idx = PhoneticIndex::build(&ClusterTable::standard(), &[]);
        assert!(idx.is_empty());
        let ops = LexEqual::default();
        let q: PhonemeString = "neru".parse().unwrap();
        let (hits, verified) = idx.search(&[], &q, 0.3, &ops);
        assert!(hits.is_empty());
        assert_eq!(verified, 0);
    }
}
