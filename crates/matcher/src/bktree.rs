//! A Burkhard–Keller tree: a metric index over unit-cost Levenshtein
//! distance between `u8` symbol strings.
//!
//! The paper's future-work section proposes "extending the approximate
//! indexing techniques [Baeza-Yates & Navarro; Chávez et al.] for creating
//! a metric index for phonemes". A BK-tree is the classic such structure:
//! it supports range queries `{x : d(x, query) ≤ k}` over any metric with
//! small integer values, probing only children whose edge distance lies in
//! `[d − k, d + k]` (justified by the triangle inequality).
//!
//! The tree is *id-keyed*: it indexes ids `0..n` of a column of strings the
//! caller owns and stores no key itself — every method takes the column as
//! `key: impl Fn(u32) -> &[u8]`. Node `i` is id `i`'s node, so the whole
//! tree is two flat vectors of fixed-size records: one `Node` per id and
//! one `Edge` per distinct key below the root.
//!
//! Both walks measure with one [`Probe`] built once per key: the inserted
//! key's (or the query's) [`MyersPattern`], asked for the exact distance
//! to each node key it meets in O(|node key|) word operations.

use crate::cost::UnitCost;
use crate::distance::edit_distance;
use crate::myers::MyersPattern;

/// "No such node / edge" in the `u32` links below.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    /// Next id holding the same key. Only the first id with a key is
    /// linked into the tree; later ones chain behind it, newest first.
    dup_next: u32,
    /// Head of this node's child list in `edges` (newest first).
    first_edge: u32,
    /// Largest child edge distance; 0 without children.
    max_edge: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    /// Distance between the parent's key and the child's.
    dist: u32,
    child: u32,
    /// The parent's next child edge.
    next: u32,
}

/// Exact unit-cost Levenshtein distance from one fixed key to any other
/// string: bit-parallel where the key fits a [`MyersPattern`], the
/// rolling-row DP for the keys it refuses (empty, or over 64 symbols).
#[derive(Debug, Clone, Copy)]
pub enum Probe<'a> {
    /// The key's pattern.
    Myers(&'a MyersPattern),
    /// The key itself.
    Dp(&'a [u8]),
}

impl<'a> Probe<'a> {
    /// The probe measuring from `key`, through `pattern` — built from
    /// `key`, or `None` where [`MyersPattern::build`] refused it.
    pub fn new(key: &'a [u8], pattern: Option<&'a MyersPattern>) -> Self {
        pattern.map_or(Probe::Dp(key), Probe::Myers)
    }

    /// The distance between the key and `other`.
    pub fn distance(&self, other: &[u8]) -> u32 {
        match self {
            Probe::Myers(pattern) => pattern.distance(other.iter().copied()) as u32,
            Probe::Dp(key) => edit_distance(key, other, UnitCost) as u32,
        }
    }
}

/// A BK-tree over ids `0..n` of a caller-owned column of symbol strings.
///
/// Equality compares the trees node for node: ids, edges and duplicate
/// chains.
#[derive(Debug, PartialEq, Eq)]
pub struct BkTree {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl BkTree {
    /// Index ids `0..n` of the column `key`, inserting in id order.
    pub fn build<'a>(n: u32, key: impl Fn(u32) -> &'a [u8]) -> BkTree {
        Self::build_probing(n, key, true)
    }

    /// [`build`](Self::build) measuring every distance with the DP — the
    /// oracle the bit-parallel build is compared against node for node.
    #[doc(hidden)]
    pub fn build_reference<'a>(n: u32, key: impl Fn(u32) -> &'a [u8]) -> BkTree {
        Self::build_probing(n, key, false)
    }

    fn build_probing<'a>(n: u32, key: impl Fn(u32) -> &'a [u8], bit_parallel: bool) -> BkTree {
        let mut tree = BkTree {
            nodes: Vec::with_capacity(n as usize),
            edges: Vec::with_capacity((n as usize).saturating_sub(1)),
        };
        // One mask table for the whole build; the seed pattern is never
        // probed with, every key rebuilds it first.
        let mut pattern = MyersPattern::build([0]).expect("a one-symbol pattern fits");
        for id in 0..n {
            let k = key(id);
            let probe = if bit_parallel && pattern.rebuild(k) {
                Probe::Myers(&pattern)
            } else {
                Probe::Dp(k)
            };
            tree.insert(&key, &probe);
        }
        tree
    }

    /// Number of ids indexed.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes the tree's two vectors hold.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.edges.capacity() * std::mem::size_of::<Edge>()
    }

    /// The child edges of `node`, newest first.
    fn children(&self, node: u32) -> impl Iterator<Item = Edge> + '_ {
        let mut e = self.nodes[node as usize].first_edge;
        // `NIL` indexes past any vector, which ends the list.
        std::iter::from_fn(move || {
            let edge = *self.edges.get(e as usize)?;
            e = edge.next;
            Some(edge)
        })
    }

    /// Append the next id (`len()`), whose key `probe` measures from. A key
    /// already in the tree (distance 0) chains the id behind its node.
    fn insert<'a>(&mut self, key: &impl Fn(u32) -> &'a [u8], probe: &Probe) {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            dup_next: NIL,
            first_edge: NIL,
            max_edge: 0,
        });
        if id == 0 {
            return;
        }
        let mut cur = 0u32;
        loop {
            let d = probe.distance(key(cur));
            if d == 0 {
                self.nodes[id as usize].dup_next = self.nodes[cur as usize].dup_next;
                self.nodes[cur as usize].dup_next = id;
                return;
            }
            if let Some(edge) = self.children(cur).find(|edge| edge.dist == d) {
                cur = edge.child;
                continue;
            }
            let parent = &mut self.nodes[cur as usize];
            self.edges.push(Edge {
                dist: d,
                child: id,
                next: parent.first_edge,
            });
            parent.first_edge = (self.edges.len() - 1) as u32;
            parent.max_edge = parent.max_edge.max(d);
            return;
        }
    }

    /// The one range walk over ids `0..rows`: calls `hit(id, d)` for every
    /// id whose key is within distance `k` of `probe`'s, and returns how
    /// many keys it measured. Ids the tree does not hold yet (`len()..rows`,
    /// the rows appended to the column since the build) are measured one by
    /// one with the same probe, so the hits are those of a tree built over
    /// all of `0..rows`.
    pub fn walk<'a>(
        &self,
        key: impl Fn(u32) -> &'a [u8],
        probe: &Probe,
        k: u32,
        rows: u32,
        mut hit: impl FnMut(u32, u32),
    ) -> usize {
        let mut probes = 0usize;
        let mut stack = Vec::new();
        if !self.nodes.is_empty() {
            stack.push(0u32);
        }
        while let Some(i) = stack.pop() {
            let node = self.nodes[i as usize];
            probes += 1;
            let d = probe.distance(key(i));
            if d <= k {
                let mut id = i;
                while id != NIL {
                    hit(id, d);
                    id = self.nodes[id as usize].dup_next;
                }
            }
            // d − k exceeds every child edge distance: the window below
            // is empty, so the child list need not be read.
            if d > k.saturating_add(node.max_edge) {
                continue;
            }
            let window = d.saturating_sub(k)..=d.saturating_add(k);
            let in_window = self.children(i).filter(|edge| window.contains(&edge.dist));
            stack.extend(in_window.map(|edge| edge.child));
        }
        for id in self.nodes.len() as u32..rows {
            probes += 1;
            let d = probe.distance(key(id));
            if d <= k {
                hit(id, d);
            }
        }
        probes
    }

    /// All `(id, distance)` pairs whose key is within distance `k` of
    /// `query`. Order is unspecified.
    pub fn range<'a>(
        &self,
        key: impl Fn(u32) -> &'a [u8],
        query: &[u8],
        k: u32,
    ) -> Vec<(u32, u32)> {
        self.range_through(key, query, k, self.nodes.len() as u32)
    }

    /// [`range`](Self::range) over ids `0..rows` of a column that has grown
    /// past the tree: exactly what a tree built over `0..rows` returns.
    pub fn range_through<'a>(
        &self,
        key: impl Fn(u32) -> &'a [u8],
        query: &[u8],
        k: u32,
        rows: u32,
    ) -> Vec<(u32, u32)> {
        let pattern = MyersPattern::build(query.iter().copied());
        let mut out = Vec::new();
        let probe = Probe::new(query, pattern.as_ref());
        self.walk(key, &probe, k, rows, |id, d| out.push((id, d)));
        out
    }

    /// Number of metric evaluations a `range` query performs — exposes
    /// pruning effectiveness.
    pub fn probe_count<'a>(&self, key: impl Fn(u32) -> &'a [u8], query: &[u8], k: u32) -> usize {
        let pattern = MyersPattern::build(query.iter().copied());
        let probe = Probe::new(query, pattern.as_ref());
        self.walk(key, &probe, k, self.nodes.len() as u32, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::bounded_levenshtein;

    fn tree_of(words: &[Vec<u8>]) -> BkTree {
        BkTree::build(words.len() as u32, |i| &words[i as usize])
    }

    fn words(list: &[&str]) -> Vec<Vec<u8>> {
        list.iter().map(|w| w.as_bytes().to_vec()).collect()
    }

    /// `range`, sorted, against a linear scan with the banded DP.
    fn assert_range_is_exact(t: &BkTree, words: &[Vec<u8>], query: &[u8], k: u32) {
        let mut got = t.range(|i| &words[i as usize], query, k);
        got.sort_unstable();
        let want: Vec<(u32, u32)> = words
            .iter()
            .enumerate()
            .filter_map(|(i, w)| Some((i as u32, bounded_levenshtein(w, query, k)?)))
            .collect();
        assert_eq!(got, want, "query={query:?} k={k}");
    }

    #[test]
    fn exact_lookup_distance_zero() {
        let w = words(&["nehru", "neru", "nero", "gandhi"]);
        let t = tree_of(&w);
        assert_eq!(t.range(|i| &w[i as usize], b"nehru", 0), vec![(0, 0)]);
    }

    #[test]
    fn range_query_finds_all_within_k() {
        let w = words(&["nehru", "neru", "nero", "gandhi", "nefertiti"]);
        let t = tree_of(&w);
        let mut hits = t.range(|i| &w[i as usize], b"neru", 1);
        hits.sort_unstable();
        assert_eq!(hits, vec![(0, 1), (1, 0), (2, 1)]);
    }

    #[test]
    fn duplicate_keys_fold_onto_one_node() {
        let w = words(&["neru", "nero", "neru", "gandhi", "neru", "nero"]);
        let t = tree_of(&w);
        assert_eq!(t.len(), 6);
        // Three distinct keys: the root and two edges.
        assert_eq!(t.edges.len(), 2);
        let mut hits = t.range(|i| &w[i as usize], b"neru", 0);
        hits.sort_unstable();
        assert_eq!(hits, vec![(0, 0), (2, 0), (4, 0)]);
        // One probe answers for the whole chain.
        assert_eq!(t.probe_count(|i| &w[i as usize], b"neru", 0), 1);
        let mut hits = t.range(|i| &w[i as usize], b"nero", 0);
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 0), (5, 0)]);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = tree_of(&[]);
        assert!(t.is_empty());
        assert!(t.range(|_| &[], b"x", 5).is_empty());
        assert_eq!(t.probe_count(|_| &[], b"x", 5), 0);
    }

    /// A tree over any prefix of the column plus `range_through` equals the
    /// tree over all of it.
    #[test]
    fn a_prefix_tree_ranging_through_its_tail_equals_the_full_tree() {
        let w: Vec<Vec<u8>> = (0..90)
            .map(|i| format!("ne{}ru{}", i % 5, "x".repeat(i % 4)).into_bytes())
            .chain(words(&["nehru", "neru", "", "neru"]))
            .collect();
        let n = w.len() as u32;
        let full = tree_of(&w);
        for covered in [0, 1, n / 3, n - 1, n] {
            let prefix = BkTree::build(covered, |i| &w[i as usize]);
            for query in ["neru", "ne3ruxx", "absent", ""] {
                for k in 0..4u32 {
                    let mut got = prefix.range_through(|i| &w[i as usize], query.as_bytes(), k, n);
                    let mut want = full.range(|i| &w[i as usize], query.as_bytes(), k);
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "covered={covered} query={query:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn range_matches_linear_scan() {
        let w: Vec<Vec<u8>> = (0..120)
            .map(|i| format!("entry{}{}", i % 11, "x".repeat(i % 7)))
            .chain(["nehru", "neru", "nero", "gandhi"].map(str::to_owned))
            .map(String::into_bytes)
            .collect();
        let t = tree_of(&w);
        for query in ["neru", "entry3xx", "absent", ""] {
            for k in 0..4u32 {
                assert_range_is_exact(&t, &w, query.as_bytes(), k);
            }
        }
    }

    /// Keys `MyersPattern` refuses (0, 65 and 130 symbols) take the DP
    /// probe, keys at its limits (1 and 64) the bit-parallel one; all of
    /// them insert, are found, and leave the same tree as the all-DP build.
    #[test]
    fn keys_past_the_myers_limits_fall_back_to_the_dp() {
        let long = |len: usize, salt: u8| -> Vec<u8> {
            (0..len).map(|i| (i as u8).wrapping_mul(7) ^ salt).collect()
        };
        let mut w = words(&["nehru", "neru", "", "gandhi", "n"]);
        for (len, salt) in [(64, 1), (65, 2), (130, 3), (65, 4), (64, 5), (130, 3)] {
            w.push(long(len, salt));
            w.push(format!("short{salt}").into_bytes());
        }
        let t = tree_of(&w);
        assert_eq!(
            t,
            BkTree::build_reference(w.len() as u32, |i| &w[i as usize])
        );
        for (i, query) in w.iter().enumerate() {
            let hits = t.range(|i| &w[i as usize], query, 0);
            assert!(hits.contains(&(i as u32, 0)), "key {i} not found");
            for k in [0, 1, 3, 70] {
                assert_range_is_exact(&t, &w, query, k);
            }
        }
        // The two identical 130-symbol keys share a node.
        assert_eq!(t.range(|i| &w[i as usize], &long(130, 3), 0).len(), 2);
    }

    #[test]
    fn pruning_probes_fewer_than_linear() {
        let w: Vec<Vec<u8>> = (0..200)
            .map(|i| format!("name{i:03}entry").into_bytes())
            .collect();
        let t = tree_of(&w);
        let probes = t.probe_count(|i| &w[i as usize], b"name000entry", 1);
        assert!(
            probes < w.len(),
            "expected pruning, probed {probes}/{}",
            w.len()
        );
    }

    #[cfg(feature = "property-tests")]
    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// BK-tree range queries must agree exactly with a linear scan.
            #[test]
            fn range_agrees_with_linear_scan(
                words in proptest::collection::vec("[a-c]{0,6}", 1..30),
                query in "[a-c]{0,6}",
                k in 0u32..4
            ) {
                let w: Vec<Vec<u8>> = words.into_iter().map(String::into_bytes).collect();
                assert_range_is_exact(&tree_of(&w), &w, query.as_bytes(), k);
            }
        }
    }
}
