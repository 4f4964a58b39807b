//! A B-tree index with duplicate keys, range scans and access statistics.
//!
//! The paper's phonetic-index experiment (§5.3) builds "a standard database
//! B-Tree index … on the grouped phoneme string identifier attribute, thus
//! creating a compact index structure using only integer datatype", and
//! contrasts on-disk B-tree behaviour with the in-memory structures of
//! Zobel & Dart. This module implements a page-oriented B-tree: fixed
//! fan-out nodes allocated in an arena (the in-memory stand-in for pages),
//! leaf chaining for range scans, and a node-visit counter standing in for
//! page reads — the statistic the benchmark harness reports.

use crate::row::RowId;
use crate::value::Value;
use std::cell::Cell;

/// Maximum keys per node (fan-out − 1). 64 keys ≈ a few hundred bytes of
/// integer keys per node, a plausible page payload at this scale.
const MAX_KEYS: usize = 64;

#[derive(Debug)]
enum Node {
    Internal {
        /// Separator keys; `children.len() == keys.len() + 1`.
        keys: Vec<Value>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<Value>,
        /// Row-id postings per key (duplicates fold into one posting list).
        postings: Vec<Vec<RowId>>,
        next: Option<usize>,
    },
}

/// A B-tree index mapping [`Value`] keys to row-id posting lists.
#[derive(Debug)]
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
    node_visits: Cell<u64>,
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        BTreeIndex {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
                next: None,
            }],
            root: 0,
            len: 0,
            node_visits: Cell::new(0),
        }
    }

    /// Number of (key, row-id) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total node visits since construction or the last
    /// [`reset_stats`](Self::reset_stats) — the stand-in for page reads.
    pub fn node_visits(&self) -> u64 {
        self.node_visits.get()
    }

    /// Zero the node-visit counter.
    pub fn reset_stats(&self) {
        self.node_visits.set(0);
    }

    fn visit(&self, _node: usize) {
        self.node_visits.set(self.node_visits.get() + 1);
    }

    /// Insert a (key, row-id) pair. Duplicate keys accumulate row ids.
    pub fn insert(&mut self, key: Value, rid: RowId) {
        self.len += 1;
        if let Some((sep, right)) = self.insert_rec(self.root, key, rid) {
            // Root split: grow a new root.
            let old_root = self.root;
            self.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            self.root = self.nodes.len() - 1;
        }
    }

    /// Recursive insert; returns `Some((separator, new_right_node))` if the
    /// child split.
    fn insert_rec(&mut self, node: usize, key: Value, rid: RowId) -> Option<(Value, usize)> {
        match &mut self.nodes[node] {
            Node::Leaf { keys, postings, .. } => match keys.binary_search(&key) {
                Ok(i) => {
                    postings[i].push(rid);
                    None
                }
                Err(i) => {
                    keys.insert(i, key);
                    postings.insert(i, vec![rid]);
                    if keys.len() > MAX_KEYS {
                        Some(self.split_leaf(node))
                    } else {
                        None
                    }
                }
            },
            Node::Internal { keys, children } => {
                let i = match keys.binary_search(&key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let child = children[i];
                let split = self.insert_rec(child, key, rid);
                if let Some((sep, right)) = split {
                    let Node::Internal { keys, children } = &mut self.nodes[node] else {
                        unreachable!("node changed kind");
                    };
                    let pos = match keys.binary_search(&sep) {
                        Ok(p) | Err(p) => p,
                    };
                    keys.insert(pos, sep);
                    children.insert(pos + 1, right);
                    if keys.len() > MAX_KEYS {
                        return Some(self.split_internal(node));
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, node: usize) -> (Value, usize) {
        let new_index = self.nodes.len();
        let Node::Leaf {
            keys,
            postings,
            next,
        } = &mut self.nodes[node]
        else {
            unreachable!("split_leaf on internal node");
        };
        let mid = keys.len() / 2;
        let right_keys: Vec<Value> = keys.drain(mid..).collect();
        let right_postings: Vec<Vec<RowId>> = postings.drain(mid..).collect();
        let sep = right_keys[0].clone();
        let right_next = *next;
        *next = Some(new_index);
        self.nodes.push(Node::Leaf {
            keys: right_keys,
            postings: right_postings,
            next: right_next,
        });
        (sep, new_index)
    }

    fn split_internal(&mut self, node: usize) -> (Value, usize) {
        let new_index = self.nodes.len();
        let Node::Internal { keys, children } = &mut self.nodes[node] else {
            unreachable!("split_internal on leaf");
        };
        let mid = keys.len() / 2;
        let sep = keys[mid].clone();
        let right_keys: Vec<Value> = keys.drain(mid + 1..).collect();
        keys.pop(); // remove separator from left
        let right_children: Vec<usize> = children.drain(mid + 1..).collect();
        self.nodes.push(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, new_index)
    }

    /// Row ids whose key equals `key`.
    pub fn lookup(&self, key: &Value) -> Vec<RowId> {
        let mut node = self.root;
        loop {
            self.visit(node);
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let i = match keys.binary_search(key) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    node = children[i];
                }
                Node::Leaf { keys, postings, .. } => {
                    return match keys.binary_search(key) {
                        Ok(i) => postings[i].clone(),
                        Err(_) => Vec::new(),
                    };
                }
            }
        }
    }

    /// All (key, row-id) pairs with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<(Value, RowId)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        // Descend to the leaf containing lo.
        let mut node = self.root;
        loop {
            self.visit(node);
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let i = match keys.binary_search(lo) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    node = children[i];
                }
                Node::Leaf { .. } => break,
            }
        }
        // Walk the leaf chain.
        let mut leaf = Some(node);
        let mut first = true;
        while let Some(l) = leaf {
            if !first {
                self.visit(l);
            }
            first = false;
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.nodes[l]
            else {
                unreachable!("leaf chain contains internal node");
            };
            for (k, posting) in keys.iter().zip(postings) {
                if k > hi {
                    return out;
                }
                if k >= lo {
                    for &rid in posting {
                        out.push((k.clone(), rid));
                    }
                }
            }
            leaf = *next;
        }
        out
    }

    /// Range scan with optional open ends and per-end inclusivity.
    /// `lo = None` starts at the smallest key; `hi = None` runs to the
    /// largest. Results come back in key order.
    pub fn range_bounds(
        &self,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Vec<(Value, RowId)> {
        let mut out = Vec::new();
        // Descend toward the lower bound (leftmost leaf when open).
        let mut node = self.root;
        loop {
            self.visit(node);
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let i = match lo {
                        Some((lo_key, _)) => match keys.binary_search(lo_key) {
                            Ok(i) => i + 1,
                            Err(i) => i,
                        },
                        None => 0,
                    };
                    node = children[i];
                }
                Node::Leaf { .. } => break,
            }
        }
        let mut leaf = Some(node);
        let mut first = true;
        while let Some(l) = leaf {
            if !first {
                self.visit(l);
            }
            first = false;
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.nodes[l]
            else {
                unreachable!("leaf chain contains internal node");
            };
            for (k, posting) in keys.iter().zip(postings) {
                if let Some((hi_key, inclusive)) = hi {
                    if k > hi_key || (!inclusive && k == hi_key) {
                        return out;
                    }
                }
                if let Some((lo_key, inclusive)) = lo {
                    if k < lo_key || (!inclusive && k == lo_key) {
                        continue;
                    }
                }
                for &rid in posting {
                    out.push((k.clone(), rid));
                }
            }
            leaf = *next;
        }
        out
    }

    /// Number of distinct keys (walks the leaf chain; O(n)).
    pub fn distinct_keys(&self) -> usize {
        let mut count = 0;
        let mut node = self.root;
        // find leftmost leaf
        while let Node::Internal { children, .. } = &self.nodes[node] {
            node = children[0];
        }
        let mut leaf = Some(node);
        while let Some(l) = leaf {
            let Node::Leaf { keys, next, .. } = &self.nodes[l] else {
                unreachable!("leaf chain contains internal node");
            };
            count += keys.len();
            leaf = *next;
        }
        count
    }

    /// Tree height (1 = root is a leaf). For the bench reports.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Internal { children, .. } => {
                    h += 1;
                    node = children[0];
                }
                Node::Leaf { .. } => return h,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases};
    use std::collections::BTreeMap;

    #[test]
    fn insert_and_lookup_small() {
        let mut t = BTreeIndex::new();
        t.insert(Value::Int(5), 50);
        t.insert(Value::Int(3), 30);
        t.insert(Value::Int(7), 70);
        assert_eq!(t.lookup(&Value::Int(3)), vec![30]);
        assert_eq!(t.lookup(&Value::Int(5)), vec![50]);
        assert!(t.lookup(&Value::Int(4)).is_empty());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = BTreeIndex::new();
        t.insert(Value::Int(1), 10);
        t.insert(Value::Int(1), 11);
        t.insert(Value::Int(1), 12);
        let mut hits = t.lookup(&Value::Int(1));
        hits.sort_unstable();
        assert_eq!(hits, vec![10, 11, 12]);
    }

    #[test]
    fn many_inserts_force_splits() {
        let mut t = BTreeIndex::new();
        let n = 10_000i64;
        for i in 0..n {
            // insert in a scrambled order
            let k = (i * 7919) % n;
            t.insert(Value::Int(k), k as RowId);
        }
        assert!(t.height() > 1, "tree should have split");
        for k in [0i64, 1, 499, 5000, n - 1] {
            assert_eq!(t.lookup(&Value::Int(k)), vec![k as RowId], "key {k}");
        }
        assert_eq!(t.distinct_keys(), n as usize);
    }

    #[test]
    fn range_scan_in_order() {
        let mut t = BTreeIndex::new();
        for i in 0..1000i64 {
            t.insert(Value::Int(i), i as RowId);
        }
        let out = t.range(&Value::Int(100), &Value::Int(110));
        let keys: Vec<i64> = out.iter().map(|(k, _)| k.as_i64().unwrap()).collect();
        assert_eq!(keys, (100..=110).collect::<Vec<_>>());
        // empty range
        assert!(t.range(&Value::Int(5), &Value::Int(4)).is_empty());
    }

    #[test]
    fn string_keys_work() {
        let mut t = BTreeIndex::new();
        for (i, s) in ["neru", "nero", "nehru", "gandhi"].iter().enumerate() {
            t.insert(Value::from(*s), i);
        }
        assert_eq!(t.lookup(&Value::from("nehru")), vec![2]);
        let range = t.range(&Value::from("n"), &Value::from("nz"));
        assert_eq!(range.len(), 3);
    }

    #[test]
    fn node_visits_are_logarithmic() {
        let mut t = BTreeIndex::new();
        for i in 0..100_000i64 {
            t.insert(Value::Int(i), i as RowId);
        }
        t.reset_stats();
        t.lookup(&Value::Int(54_321));
        let visits = t.node_visits();
        assert!(
            visits as usize <= t.height(),
            "lookup visited {visits} nodes, height {}",
            t.height()
        );
        assert!(visits >= 2);
    }

    #[test]
    fn range_bounds_open_and_exclusive() {
        let mut t = BTreeIndex::new();
        for i in 0..100i64 {
            t.insert(Value::Int(i), i as RowId);
        }
        // Open low end.
        let r = t.range_bounds(None, Some((&Value::Int(3), true)));
        let keys: Vec<i64> = r.iter().map(|(k, _)| k.as_i64().unwrap()).collect();
        assert_eq!(keys, vec![0, 1, 2, 3]);
        // Exclusive ends.
        let r = t.range_bounds(Some((&Value::Int(5), false)), Some((&Value::Int(8), false)));
        let keys: Vec<i64> = r.iter().map(|(k, _)| k.as_i64().unwrap()).collect();
        assert_eq!(keys, vec![6, 7]);
        // Open high end.
        let r = t.range_bounds(Some((&Value::Int(97), true)), None);
        assert_eq!(r.len(), 3);
        // Fully open = everything.
        assert_eq!(t.range_bounds(None, None).len(), 100);
    }

    #[test]
    fn range_bounds_agrees_with_range() {
        for_cases(0xb101, 256, |rng| {
            let entries = rng.vec(0..=299, |rng| (rng.below(100) as i64, rng.below(50)));
            let (a, b) = (rng.below(100) as i64, rng.below(100) as i64);
            let mut t = BTreeIndex::new();
            for (k, v) in &entries {
                t.insert(Value::Int(*k), *v);
            }
            let (lo, hi) = (a.min(b), a.max(b));
            let inclusive = t.range(&Value::Int(lo), &Value::Int(hi));
            let bounded =
                t.range_bounds(Some((&Value::Int(lo), true)), Some((&Value::Int(hi), true)));
            ensure_eq(inclusive, bounded)
        });
    }

    #[test]
    fn agrees_with_btreemap() {
        for_cases(0xb102, 128, |rng| {
            let entries = rng.vec(0..=1999, |rng| (rng.below(500) as i64, rng.below(1000)));
            let probes = rng.vec(0..=49, |rng| rng.below(500) as i64);
            let ranges = rng.vec(0..=19, |rng| (rng.below(500) as i64, rng.below(500) as i64));
            let mut t = BTreeIndex::new();
            let mut m: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
            for (k, v) in &entries {
                t.insert(Value::Int(*k), *v);
                m.entry(*k).or_default().push(*v);
            }
            for p in probes {
                let mut got = t.lookup(&Value::Int(p));
                got.sort_unstable();
                let mut want = m.get(&p).cloned().unwrap_or_default();
                want.sort_unstable();
                ensure_eq(got, want)?;
            }
            for (a, b) in ranges {
                let (lo, hi) = (a.min(b), a.max(b));
                let got: Vec<(i64, usize)> = t
                    .range(&Value::Int(lo), &Value::Int(hi))
                    .into_iter()
                    .map(|(k, r)| (k.as_i64().unwrap(), r))
                    .collect();
                let mut want: Vec<(i64, usize)> = m
                    .range(lo..=hi)
                    .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
                    .collect();
                ensure(got.windows(2).all(|w| w[0].0 <= w[1].0), || {
                    format!("keys out of order: {got:?}")
                })?;
                // same multiset
                let mut got = got;
                got.sort_unstable();
                want.sort_unstable();
                ensure_eq(got, want)?;
            }
            Ok(())
        });
    }
}
