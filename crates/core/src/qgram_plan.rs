//! Q-gram filtering for phoneme strings (paper §5.2).
//!
//! "The database was first augmented with a table of positional q-grams of
//! the original phonemic strings. Subsequently, the three filters … Length
//! … Count and Position … were used to filter out a majority of the
//! non-matches using standard database operators only."
//!
//! [`QgramFilter`] is the in-process analogue: the auxiliary table as
//! posting lists in one array — sorted distinct signatures, where each
//! one's run starts, and a `u32` `(string id, position)` posting a gram —
//! probed with the three filters. The same table is also exported to SQL by
//! [`crate::udf::load_qgram_aux_table`], which recreates the paper's
//! Figure 14 query verbatim.
//!
//! The index is over a column of `u8` symbol strings and does not care
//! what the symbols are; the caller says what Levenshtein bound the
//! filters may assume. Two callers:
//!
//! * a store under [`QgramMode::Strict`] keys it on the rows' *cluster*
//!   strings — the paper's grouped phoneme string, indexed for approximate
//!   search instead of equality — and asks [`QgramFilter::within`] for
//!   the rows whose cluster string lies within `⌊k⌋` unit edits of the
//!   query's: every clustered edit costs at least the unit edit it induces
//!   on the cluster strings, so no match lies outside that ball
//!   (`verify.rs` proves and uses the same bound per pair), and the ball
//!   is small at thresholds where a bound over phoneme ids is not;
//! * the standalone [`QgramFilter::build`] / [`candidates`] /
//!   [`candidates_with_tail`] — what a store under
//!   [`QgramMode::PaperFaithful`] serves through — key it on phoneme ids,
//!   as the paper did, and bound the clustered budget `k` by
//!   [`QgramMode`]'s rule: `k` itself (tighter, lossy below unit
//!   intra-cluster cost), or `k / min_nonzero_cost` under `Strict`
//!   (lossless, and from `e` ≈ 0.12 up no filter at all — why a store
//!   does not use it).
//!
//! [`candidates`]: QgramFilter::candidates
//! [`candidates_with_tail`]: QgramFilter::candidates_with_tail

use crate::operator::LexEqual;
use lexequal_matcher::qgram::{count_filter_passes, length_filter_passes};
use lexequal_matcher::Probe;
use lexequal_phoneme::PhonemeString;

/// False-dismissal policy for filtering under the clustered cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QgramMode {
    /// Scale the Levenshtein bound so no true match is ever filtered out.
    Strict,
    /// Filter at the clustered budget directly, as in the paper.
    PaperFaithful,
}

impl QgramMode {
    /// The effective Levenshtein bound over *phoneme ids* used for
    /// filtering a clustered budget `k`. `None` means "no finite bound —
    /// use length filter only" (Strict mode with intra-cluster cost 0).
    fn filter_bound(self, k: f64, operator: &LexEqual) -> Option<f64> {
        match self {
            QgramMode::PaperFaithful => Some(k),
            QgramMode::Strict => operator.min_nonzero_cost().map(|c| k / c),
        }
    }
}

/// Gram sizes an index takes: a signature is `8q` bits of a `u32`.
pub const MAX_Q: usize = 4;

/// Signature codes of the `◁` / `▷` padding: phoneme ids are inventory
/// indices and cluster ids fewer still, all below these two.
const START: u32 = 0xFE;
const END: u32 = 0xFF;

/// Most bits of a posting its string id takes; the position gets the rest,
/// so names up to 254 grams stay indexed in any stripe.
const MAX_ID_BITS: u32 = 24;

/// Entries a build's signature → run table may take (32 KiB): what the
/// trigrams of a 20-symbol alphabet need.
const DENSE_SLOTS: usize = 1 << 13;

/// The positional q-grams of `s` as `(signature, position)`: the window
/// over the padded string, 8 bits a symbol, rolled one symbol at a time.
fn packed_grams(s: &[u8], q: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
    let mask = u32::MAX >> (u32::BITS - 8 * q as u32);
    let mut sig = (1..q).fold(0, |acc, _| acc << 8 | START);
    (0..s.len() + q - 1).map(move |pos| {
        sig = (sig << 8 | s.get(pos).map_or(END, |&id| id as u32)) & mask;
        (sig, pos as u32)
    })
}

/// `(id_bits, pos_bits)` of a posting for `n` strings: ids take the bits
/// they need, short of [`MAX_ID_BITS`], positions the rest — but never all
/// 32 (what an index over one string or none would leave them), so a shift
/// by either width is defined.
fn posting_widths(n: usize) -> (u32, u32) {
    let id_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).min(MAX_ID_BITS);
    (id_bits, (u32::BITS - id_bits).min(u32::BITS - 1))
}

/// Signature → index into `sigs`, for the pass of a build that places the
/// postings: a table over the alphabet in use where `radix^q` entries fit
/// [`DENSE_SLOTS`] (cluster ids do), a bisection of `sigs` where not.
struct Slots<'a> {
    sigs: &'a [u32],
    /// A symbol's rank among the symbols in use (0 for one that is not).
    code: [u8; 256],
    radix: usize,
    table: Vec<u32>,
}

impl<'a> Slots<'a> {
    fn new(sigs: &'a [u32], q: usize) -> Self {
        let mut code = [0u8; 256];
        for sym in sigs.iter().flat_map(|sig| sig.to_be_bytes()) {
            code[sym as usize] = 1;
        }
        let mut radix = 0usize;
        for rank in code.iter_mut().filter(|used| **used != 0) {
            *rank = radix as u8;
            radix += 1;
        }
        let dense = (radix.checked_pow(q as u32)).filter(|&entries| entries <= DENSE_SLOTS);
        let mut slots = Slots {
            sigs,
            code,
            radix,
            table: vec![0; dense.unwrap_or(0)],
        };
        if dense.is_some() {
            for (slot, &sig) in sigs.iter().enumerate() {
                let at = slots.dense(sig);
                slots.table[at] = slot as u32;
            }
        }
        slots
    }

    /// `sig` read as a number in base `radix`. The bytes above a short
    /// signature are zero, and so is the rank of symbol 0, in use or not.
    fn dense(&self, sig: u32) -> usize {
        let digits = sig
            .to_be_bytes()
            .map(|sym| self.code[sym as usize] as usize);
        digits.iter().fold(0, |at, digit| at * self.radix + digit)
    }

    /// The index of `sig`, one of `sigs`.
    fn of(&self, sig: u32) -> usize {
        if self.table.is_empty() {
            (self.sigs.binary_search(&sig)).expect("a signature the first pass counted")
        } else {
            self.table[self.dense(sig)] as usize
        }
    }
}

/// A q-gram posting-list filter over a column of symbol strings.
pub struct QgramFilter {
    q: usize,
    mode: QgramMode,
    /// The distinct gram signatures, ascending.
    sigs: Vec<u32>,
    /// `postings[starts[i]..starts[i + 1]]` is `sigs[i]`'s run.
    starts: Vec<u32>,
    /// One posting per indexed positional gram, `string id ‖ position`
    /// from the high bits down; a run is ordered by id, then position.
    postings: Vec<u32>,
    /// Low bits of a posting that hold the position.
    pos_bits: u32,
    /// Ids, ascending, of the strings whose id or last gram position does
    /// not fit a posting: not indexed, admitted on the length filter alone.
    overflow: Vec<u32>,
    /// Per-string length (for the length filter).
    lengths: Vec<u32>,
    /// Grams of every string (len + q − 1 each), kept for stats.
    total_grams: usize,
}

impl QgramFilter {
    /// Build the filter over a corpus, keyed on phoneme ids. `q` is the
    /// gram size (the paper uses 3); ids are positions in `corpus`.
    pub fn build(corpus: &[PhonemeString], q: usize, mode: QgramMode) -> Self {
        Self::build_rows(corpus.len(), |id| corpus[id].id_bytes(), q, mode)
    }

    /// [`build`](Self::build) over `n` rows of any `u8` symbols below
    /// `0xFE`.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is in `1..=`[`MAX_Q`] (a spec from outside the
    /// program is checked at [`crate::BuildSpec::qgram`]).
    pub fn build_rows<'a>(
        n: usize,
        row: impl Fn(usize) -> &'a [u8] + Copy,
        q: usize,
        mode: QgramMode,
    ) -> Self {
        let (id_bits, pos_bits) = posting_widths(n);
        Self::build_packed(n, row, q, mode, id_bits, pos_bits)
    }

    /// [`build_rows`](Self::build_rows) at given posting widths (`id_bits +
    /// pos_bits ≤ 32`, each below 32).
    ///
    /// Two passes over the rows, and nothing allocated that is not kept but
    /// the [`Slots`] table: the first writes every gram's signature into
    /// the array the postings will fill and sorts it where it stands — its
    /// runs are the distinct signatures and their counts; the second visits
    /// the rows in id order and each gram in position order and writes its
    /// posting at its signature's cursor, so a run comes out ordered and no
    /// posting moves again.
    fn build_packed<'a>(
        n: usize,
        row: impl Fn(usize) -> &'a [u8] + Copy,
        q: usize,
        mode: QgramMode,
        id_bits: u32,
        pos_bits: u32,
    ) -> Self {
        assert!((1..=MAX_Q).contains(&q), "q must be in 1..={MAX_Q}");
        let grams_of = |id: usize| row(id).len() + q - 1;
        let fits = |&id: &usize| {
            (id as u64) >> id_bits == 0 && (grams_of(id) as u64).saturating_sub(1) >> pos_bits == 0
        };
        let indexed = || (0..n).filter(fits);
        let total: usize = indexed().map(grams_of).sum();
        u32::try_from(total).expect("a q-gram index holds under 2^32 postings");
        let mut postings: Vec<u32> = Vec::with_capacity(total);
        for id in indexed() {
            postings.extend(packed_grams(row(id), q).map(|(sig, _)| sig));
        }
        postings.sort_unstable();
        let distinct =
            postings.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(total > 0);
        let mut sigs = Vec::with_capacity(distinct);
        let mut starts = Vec::with_capacity(distinct + 1);
        for (at, &sig) in postings.iter().enumerate() {
            if sigs.last() != Some(&sig) {
                sigs.push(sig);
                starts.push(at as u32);
            }
        }
        starts.push(total as u32);

        let slots = Slots::new(&sigs, q);
        for id in indexed() {
            let posting_row = (id as u32) << pos_bits;
            for (sig, pos) in packed_grams(row(id), q) {
                let next = &mut starts[slots.of(sig)];
                postings[*next as usize] = posting_row | pos;
                *next += 1;
            }
        }
        // Every cursor has reached the next run's start: back one place.
        starts.rotate_right(1);
        starts[0] = 0;
        QgramFilter {
            q,
            mode,
            sigs,
            starts,
            postings,
            pos_bits,
            overflow: (0..n).filter(|id| !fits(id)).map(|id| id as u32).collect(),
            lengths: (0..n).map(|id| row(id).len() as u32).collect(),
            total_grams: (0..n).map(grams_of).sum(),
        }
    }

    /// Gram size.
    pub fn q(&self) -> usize {
        self.q
    }

    /// False-dismissal policy.
    pub fn mode(&self) -> QgramMode {
        self.mode
    }

    /// Total grams stored (the auxiliary table's row count).
    pub fn total_grams(&self) -> usize {
        self.total_grams
    }

    /// Number of strings indexed.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// Whether the corpus was empty.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Bytes the index's arrays hold.
    pub fn heap_bytes(&self) -> usize {
        let arrays = [
            &self.sigs,
            &self.starts,
            &self.postings,
            &self.overflow,
            &self.lengths,
        ];
        arrays.iter().map(|a| a.capacity()).sum::<usize>() * std::mem::size_of::<u32>()
    }

    /// Candidate ids for `query` under clustered distance budget `k`
    /// (absolute, not a fraction), ascending, over an index keyed on
    /// phoneme ids. Applies Length, Position and Count filters at
    /// [`QgramMode`]'s bound; no verification.
    pub fn candidates(&self, query: &PhonemeString, k: f64, operator: &LexEqual) -> Vec<u32> {
        self.candidates_with_tail(query, k, operator, self.len(), |_| &[])
    }

    /// [`candidates`](Self::candidates) over a column of `rows` rows that
    /// has grown past the index: the rows appended since the build (ids
    /// `len()..rows`, read through `row`) are each put to the same three
    /// filters pair-wise (`shared_grams` matches a row's grams the way
    /// the posting walk does), so the answer is that of an index over
    /// every row.
    pub fn candidates_with_tail<'a>(
        &self,
        query: &PhonemeString,
        k: f64,
        operator: &LexEqual,
        rows: usize,
        row: impl Fn(usize) -> &'a [u8],
    ) -> Vec<u32> {
        let (query, qlen) = (query.id_bytes(), query.len());
        let bound = self.mode.filter_bound(k, operator);
        let mut out = self.survivors(query, k, bound.unwrap_or(f64::INFINITY));
        let tail = self.lengths.len()..rows;
        if tail.is_empty() {
            return out;
        }
        let length_ok = |len: usize| length_filter_passes(len, qlen, k);
        match bound.filter(|&bound| !self.vacuous(qlen, k, bound)) {
            None => out.extend(
                tail.filter(|&id| length_ok(row(id).len()))
                    .map(|id| id as u32),
            ),
            Some(bound) => {
                let grams = sorted_grams(query, self.q);
                let reach = reach(bound);
                let mut scratch = Vec::new();
                out.extend(tail.filter_map(|id| {
                    let row = row(id);
                    let common = shared_grams(&grams, row, self.q, reach, &mut scratch);
                    let passes = length_ok(row.len())
                        && count_filter_passes(row.len(), qlen, common, bound, self.q);
                    passes.then_some(id as u32)
                }));
            }
        }
        out
    }

    /// The rows of `0..rows` inside the length filter for budget `k` whose
    /// string lies within `radius` unit edits of `query`, ascending —
    /// exactly, whatever prefix the index holds: the count filter's
    /// [`survivors`](Self::survivors) over that prefix and every row past
    /// it (ids `len()..rows`, read through `row`, as the indexed ones are)
    /// are measured with `probe`, which must be `query`'s.
    pub fn within<'a>(
        &self,
        query: &[u8],
        k: f64,
        radius: u32,
        probe: &Probe,
        rows: usize,
        row: impl Fn(usize) -> &'a [u8],
    ) -> Vec<u32> {
        let mut out = self.survivors(query, k, radius as f64);
        out.retain(|&id| probe.distance(row(id as usize)) <= radius);
        let tail = (self.lengths.len()..rows).filter(|&id| {
            let row = row(id);
            length_filter_passes(row.len(), query.len(), k) && probe.distance(row) <= radius
        });
        out.extend(tail.map(|id| id as u32));
        out
    }

    /// Whether the count filter can reject nothing the length filter
    /// admits: its requirement grows with max(|a|, |b|) and falls with the
    /// shared grams, so if the longest admissible string passes sharing
    /// none, every admitted string passes.
    fn vacuous(&self, qlen: usize, k: f64, bound: f64) -> bool {
        let longest_admitted = qlen.saturating_add((k + 1e-12).floor() as usize);
        count_filter_passes(longest_admitted, qlen, 0, bound, self.q)
    }

    /// The indexed strings that pass the Length filter at budget `k` and
    /// the Position and Count filters at Levenshtein bound `bound` against
    /// `query` (symbols of the alphabet the index was built over), ids
    /// ascending: a superset of those within `bound` unit edits of it. A
    /// string the postings could not hold passes on its length.
    pub fn survivors(&self, query: &[u8], k: f64, bound: f64) -> Vec<u32> {
        let qlen = query.len();
        let indexed = self.lengths.len();
        // Indel cost is always 1, so the length filter may use the
        // clustered budget k directly whatever the bound.
        let length_ok = |len: usize| length_filter_passes(len, qlen, k);
        if self.vacuous(qlen, k, bound) {
            // The postings have nothing to say.
            let mut out = Vec::with_capacity(indexed);
            out.extend(
                (0u32..)
                    .zip(&self.lengths)
                    .filter_map(|(id, &l)| length_ok(l as usize).then_some(id)),
            );
            return out;
        }

        let grams = sorted_grams(query, self.q);
        let reach = reach(bound);
        let pos_mask = (1u32 << self.pos_bits) - 1;
        // Position-compatible shared grams per string. One increment per
        // posting at most, so a count stays within the string's grams.
        let mut shared = vec![0u32; indexed];
        let mut runs = grams.as_slice();
        while let Some(&gram) = runs.first() {
            let sig = gram >> 32;
            let (run, rest) = runs.split_at(runs.partition_point(|g| g >> 32 == sig));
            runs = rest;
            let Ok(slot) = self.sigs.binary_search(&(sig as u32)) else {
                continue;
            };
            let (mut row, mut next) = (u32::MAX, 0);
            let postings = self.starts[slot] as usize..self.starts[slot + 1] as usize;
            for &posting in &self.postings[postings] {
                if posting >> self.pos_bits != row {
                    (row, next) = (posting >> self.pos_bits, 0);
                }
                if takes(run, &mut next, (posting & pos_mask) as i64, reach) {
                    shared[row as usize] += 1;
                }
            }
        }
        // Survivors are written over the counters already read, so the
        // answer needs no vector of its own.
        let mut overflow = self.overflow.iter().peekable();
        let mut kept = 0;
        for id in 0..indexed {
            let unindexed = overflow.next_if(|&&o| o as usize == id).is_some();
            let len = self.lengths[id] as usize;
            let passes = count_filter_passes(len, qlen, shared[id] as usize, bound, self.q);
            if length_ok(len) && (passes || unindexed) {
                shared[kept] = id as u32;
                kept += 1;
            }
        }
        shared.truncate(kept);
        shared
    }
}

/// `query`'s positional grams as `signature ‖ position`, ascending.
fn sorted_grams(query: &[u8], q: usize) -> Vec<u64> {
    let mut grams: Vec<u64> = packed_grams(query, q)
        .map(|(sig, pos)| (sig as u64) << 32 | pos as u64)
        .collect();
    grams.sort_unstable();
    grams
}

/// The position filter's window under `bound`. Positions are u32: a wider
/// window is no wider.
fn reach(bound: f64) -> i64 {
    (bound.floor() as i64).min(u32::MAX as i64)
}

/// One step of the bag match between a string's positions of one gram
/// (fed ascending) and the query's (`run`, `signature ‖ position`,
/// ascending): `pos` takes the lowest query position within `reach` that
/// no earlier one took. Both lists ascend, so one cursor finds it — what
/// it passed is taken or already behind every later window.
fn takes(run: &[u64], next: &mut usize, pos: i64, reach: i64) -> bool {
    while *next < run.len() && (run[*next] as u32 as i64) < pos - reach {
        *next += 1;
    }
    let taken = *next < run.len() && run[*next] as u32 as i64 <= pos + reach;
    *next += taken as usize;
    taken
}

/// Position-compatible grams `row` shares with a query (`grams`: its
/// [`sorted_grams`]) — the count the posting walk accumulates for an
/// indexed row, computed from the row alone.
fn shared_grams(grams: &[u64], row: &[u8], q: usize, reach: i64, scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    scratch.extend(packed_grams(row, q).map(|(sig, pos)| (sig as u64) << 32 | pos as u64));
    scratch.sort_unstable();
    let mut shared = 0;
    let mut rest = scratch.as_slice();
    while let Some(&gram) = rest.first() {
        let sig = gram >> 32;
        let positions;
        (positions, rest) = rest.split_at(rest.partition_point(|g| g >> 32 == sig));
        let run = &grams[grams.partition_point(|g| g >> 32 < sig)..];
        let run = &run[..run.partition_point(|g| g >> 32 == sig)];
        let mut next = 0;
        shared += positions
            .iter()
            .filter(|&&g| takes(run, &mut next, g as u32 as i64, reach))
            .count();
    }
    shared
}

/// The `HashMap` posting lists and per-query `HashMap` bag match that
/// [`QgramFilter`] replaced, kept verbatim as the oracle
/// `tests/qgram_differential.rs` holds the flat index to: same `Vec<u32>`
/// from `candidates` on every call where nothing overflows the key.
#[doc(hidden)]
pub mod reference {
    use super::QgramMode;
    use crate::operator::LexEqual;
    use lexequal_matcher::qgram::{
        count_filter_passes, length_filter_passes, positional_qgrams, PositionalQgram,
    };
    use lexequal_phoneme::{Phoneme, PhonemeString};
    use std::collections::HashMap;

    pub struct HashedQgramFilter {
        q: usize,
        mode: QgramMode,
        /// Signature → (string id, gram position).
        postings: HashMap<u64, Vec<(u32, u32)>>,
        /// Per-string phoneme length (for the length filter).
        lengths: Vec<u32>,
    }

    fn signature(g: &PositionalQgram<Phoneme>) -> u64 {
        g.signature(|p| p.id() as u64)
    }

    impl HashedQgramFilter {
        pub fn build(corpus: &[PhonemeString], q: usize, mode: QgramMode) -> Self {
            assert!((1..=4).contains(&q), "q must be in 1..=4");
            let mut postings: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
            let mut lengths = Vec::with_capacity(corpus.len());
            for (id, s) in corpus.iter().enumerate() {
                lengths.push(s.len() as u32);
                for g in positional_qgrams(s.as_slice(), q) {
                    postings
                        .entry(signature(&g))
                        .or_default()
                        .push((id as u32, g.pos));
                }
            }
            HashedQgramFilter {
                q,
                mode,
                postings,
                lengths,
            }
        }

        /// Candidate ids for `query` under clustered distance budget `k`
        /// (absolute, not a fraction). Applies Length, Position and Count
        /// filters; no verification.
        pub fn candidates(&self, query: &PhonemeString, k: f64, operator: &LexEqual) -> Vec<u32> {
            let bound = self.mode.filter_bound(k, operator);
            let qlen = query.len() as u32;

            // Indel cost is always 1, so the length filter may use the
            // clustered budget k directly in both modes.
            let length_ok = |cand: u32| {
                length_filter_passes(self.lengths[cand as usize] as usize, qlen as usize, k)
            };

            let Some(bound) = bound else {
                // Length filter only.
                return (0..self.lengths.len() as u32)
                    .filter(|&i| length_ok(i))
                    .collect();
            };

            // Gather position-compatible shared gram counts per candidate.
            let query_grams = positional_qgrams(query.as_slice(), self.q);
            // candidate -> list of (cand_pos, query_pos) matched grams; we
            // count bag-wise per gram signature using the same greedy pairing
            // as matcher::matching_qgrams, grouped by signature.
            let mut per_candidate: HashMap<u32, Vec<(u64, u32, u32)>> = HashMap::new();
            for g in &query_grams {
                let sig = signature(g);
                if let Some(posts) = self.postings.get(&sig) {
                    for &(cand, pos) in posts {
                        if !length_ok(cand) {
                            continue;
                        }
                        if (pos as i64 - g.pos as i64).abs() <= bound.floor() as i64 {
                            per_candidate
                                .entry(cand)
                                .or_default()
                                .push((sig, pos, g.pos));
                        }
                    }
                }
            }
            let mut out = Vec::new();
            // A string sharing zero grams still passes when the count-filter
            // requirement is non-positive (large budgets / short strings) —
            // skipping this would be a false dismissal.
            for cand in 0..self.lengths.len() as u32 {
                if per_candidate.contains_key(&cand) {
                    continue;
                }
                if !length_ok(cand) {
                    continue;
                }
                let clen = self.lengths[cand as usize] as usize;
                if count_filter_passes(clen, qlen as usize, 0, bound, self.q) {
                    out.push(cand);
                }
            }
            for (cand, mut matches) in per_candidate {
                // Bag semantics: each (signature, cand_pos) and (signature,
                // query_pos) occurrence may be used once. Greedy count per
                // signature.
                matches.sort_unstable();
                let mut shared = 0usize;
                let mut i = 0;
                while i < matches.len() {
                    let sig = matches[i].0;
                    let mut used_cand: Vec<u32> = Vec::new();
                    let mut used_query: Vec<u32> = Vec::new();
                    while i < matches.len() && matches[i].0 == sig {
                        let (_, cp, qp) = matches[i];
                        if !used_cand.contains(&cp) && !used_query.contains(&qp) {
                            used_cand.push(cp);
                            used_query.push(qp);
                            shared += 1;
                        }
                        i += 1;
                    }
                }
                let clen = self.lengths[cand as usize] as usize;
                if count_filter_passes(clen, qlen as usize, shared, bound, self.q) {
                    out.push(cand);
                }
            }
            out.sort_unstable();
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchConfig;
    use crate::store::{NameEntry, NameStore, SearchMethod};
    use lexequal_g2p::Language;
    use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases, Rng};
    use lexequal_phoneme::Phoneme;
    use std::sync::Arc;

    fn corpus(ops: &LexEqual, names: &[&str]) -> Vec<PhonemeString> {
        names
            .iter()
            .map(|n| ops.transform(n, Language::English).unwrap())
            .collect()
    }

    /// `c` as the rows of a store under `ops`, with the q = 3 filter
    /// declared in `mode` and covering every row: searched the way every
    /// caller searches it.
    fn store_of(ops: &LexEqual, c: &[PhonemeString], mode: QgramMode) -> NameStore {
        let mut s = NameStore::sharing(Arc::new(ops.clone()), None);
        let entry = |p: &PhonemeString| NameEntry::new(p.to_string(), Language::English, p.clone());
        s.extend_transformed(c.iter().map(|p| entry(p).unwrap()).collect());
        s.build_qgram(3, mode);
        s
    }

    /// Whether every id of `hits` is among `candidates`: a filter that
    /// keeps all of a scan's hits dismisses no true match.
    fn keeps(candidates: &[u32], hits: &[u32]) -> bool {
        hits.iter().all(|id| candidates.contains(id))
    }

    #[test]
    fn filter_keeps_true_matches_and_drops_garbage() {
        let ops = LexEqual::default();
        let names = ["Nehru", "Neru", "Nero", "Gandhi", "Krishnan", "Washington"];
        let s = store_of(&ops, &corpus(&ops, &names), QgramMode::Strict);
        let query = ops.transform("Nehru", Language::English).unwrap();
        let r = s.search_phonemes(&query, 0.3, SearchMethod::Qgram);
        assert!(r.ids.contains(&0), "self match");
        assert!(r.ids.contains(&1), "Neru matches Nehru");
        assert!(!r.ids.contains(&3), "Gandhi is not a match");
        // The filter must have spared us some UDF calls vs scanning all 6.
        assert!(r.verifications <= names.len());
    }

    #[test]
    fn strict_mode_matches_exhaustive_scan() {
        let ops = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.25));
        let names = [
            "Catherine",
            "Kathryn",
            "Cathy",
            "Kate",
            "Karthik",
            "Kumar",
            "Nehru",
            "Nero",
            "Neruda",
            "Gandhi",
        ];
        let c = corpus(&ops, &names);
        let s = store_of(&ops, &c, QgramMode::Strict);
        // The filter over phoneme ids under its own STRICT bound.
        let f = QgramFilter::build(&c, 3, QgramMode::Strict);
        for query_name in ["Catherine", "Nehru", "Kumar"] {
            let q = ops.transform(query_name, Language::English).unwrap();
            for e in [0.0, 0.2, 0.3, 0.5] {
                let want = scan(&ops, &c, &q, e);
                let hits = s.search_phonemes(&q, e, SearchMethod::Qgram).ids;
                assert_eq!(hits, want, "query {query_name} e={e}");
                let budget = e * q.len() as f64;
                assert!(keeps(&f.candidates(&q, budget, &ops), &want));
            }
        }
    }

    #[test]
    fn strict_mode_with_zero_cost_degrades_to_length_filter() {
        let ops = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.0));
        let names = ["Nehru", "Gandhi", "Bo"];
        let c = corpus(&ops, &names);
        let f = QgramFilter::build(&c, 3, QgramMode::Strict);
        let q = ops.transform("Nehru", Language::English).unwrap();
        let cands = f.candidates(&q, 1.0, &ops);
        // "Bo" (2 phonemes vs 4) fails the length filter at k=1; Gandhi
        // (5-6 phonemes) survives — only the length filter applies.
        assert!(!cands.contains(&2));
        assert!(cands.contains(&0));
    }

    #[test]
    fn count_filter_is_selective() {
        let ops = LexEqual::default();
        let mut names = vec!["Nehru"];
        // Pad with many dissimilar names of similar length.
        for n in ["Garcia", "Wright", "Zhukov", "Plasma", "Quartz", "Bishop"] {
            names.push(n);
        }
        let c = corpus(&ops, &names);
        let f = QgramFilter::build(&c, 3, QgramMode::Strict);
        let q = ops.transform("Neru", Language::English).unwrap();
        let cands = f.candidates(&q, 1.0, &ops);
        assert!(
            cands.len() < names.len(),
            "filters must prune: got {cands:?}"
        );
        assert!(cands.contains(&0));
    }

    /// A phoneme string spelling `ids` (inventory indices).
    fn phonemes(ids: impl IntoIterator<Item = u8>) -> PhonemeString {
        PhonemeString::new(
            ids.into_iter()
                .map(|i| Phoneme::from_id(i).unwrap())
                .collect(),
        )
    }

    /// A stripe with the shapes the key widths must survive: an empty
    /// name, a 300- and a 4 000-symbol name, repeated grams, duplicates.
    fn awkward_stripe() -> Vec<PhonemeString> {
        let mut c: Vec<PhonemeString> = ["nehru", "neru", "nero", "gandi", "kriʃnan", "neru"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        c.push(PhonemeString::empty());
        c.push(phonemes((0..300).map(|i| (i % 7) as u8)));
        c.push(phonemes((0..4000).map(|i| (i % 41) as u8)));
        c.push(phonemes((0..4000).map(|i| (i % 41 + i / 3990) as u8)));
        c.push(phonemes([3; 12]));
        c.push(phonemes([3; 9]));
        c
    }

    const BUDGETS: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 3.6, 9.0];

    fn scan(ops: &LexEqual, c: &[PhonemeString], q: &PhonemeString, e: f64) -> Vec<u32> {
        (0u32..)
            .zip(c)
            .filter(|(_, s)| ops.matches_phonemes(s, q, e))
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn padding_codes_are_outside_the_inventory() {
        assert!(lexequal_phoneme::Inventory::len() <= START as usize);
    }

    #[test]
    fn key_widths_give_ids_their_bits_first() {
        // Ids get what they need, positions the rest.
        assert_eq!(posting_widths(10_209), (14, 18));
        assert_eq!(posting_widths(3), (2, 30));
        assert_eq!(posting_widths(1 << 24), (24, 8));
        // Past 2^24 names ids go to the overflow list; positions keep
        // their eight bits.
        assert_eq!(posting_widths((1 << 24) + 1), (24, 8));
        assert_eq!(posting_widths(usize::MAX), (24, 8));
        // One string or none needs no id bit: positions may not take 32.
        assert_eq!(posting_widths(0), (0, 31));
        assert_eq!(posting_widths(1), (0, 31));
        assert_eq!(posting_widths(2), (1, 31));
    }

    /// What every `declare` builds, and the index after one `ADD`.
    #[test]
    fn an_index_over_no_row_or_one_answers() {
        let ops = LexEqual::default();
        let c = awkward_stripe();
        for q in 1..=MAX_Q {
            for covered in [0, 1] {
                let flat = QgramFilter::build(&c[..covered], q, QgramMode::PaperFaithful);
                assert_eq!(flat.pos_bits, 31);
                assert_eq!(flat.postings.len(), covered * (c[0].len() + q - 1));
                assert_eq!(flat.starts.last(), Some(&(flat.postings.len() as u32)));
                for k in BUDGETS {
                    let got = flat.candidates(&c[0], k, &ops);
                    assert_eq!(got, (0..covered as u32).collect::<Vec<_>>(), "q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn long_empty_and_repeated_names_answer_like_the_reference() {
        let ops = LexEqual::default();
        let c = awkward_stripe();
        for q in 1..=4 {
            for mode in [QgramMode::Strict, QgramMode::PaperFaithful] {
                let flat = QgramFilter::build(&c, q, mode);
                assert!(flat.overflow.is_empty(), "every name fits at q={q}");
                assert_eq!(flat.total_grams(), flat.postings.len());
                assert!(flat.sigs.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(flat.starts.len(), flat.sigs.len() + 1);
                for run in flat.starts.windows(2) {
                    let run = &flat.postings[run[0] as usize..run[1] as usize];
                    assert!(!run.is_empty() && run.windows(2).all(|w| w[0] < w[1]));
                }
                let oracle = reference::HashedQgramFilter::build(&c, q, mode);
                for query in &c {
                    for k in BUDGETS {
                        assert_eq!(
                            flat.candidates(query, k, &ops),
                            oracle.candidates(query, k, &ops),
                            "q={q} {mode:?} k={k} |query|={}",
                            query.len()
                        );
                    }
                }
            }
        }
    }

    /// An index over any prefix of the stripe, probed with the rest as
    /// its tail, answers like the index over all of it.
    #[test]
    fn a_prefix_index_with_its_tail_answers_like_the_full_index() {
        let ops = LexEqual::default();
        let c = awkward_stripe();
        for q in 1..=4 {
            for mode in [QgramMode::Strict, QgramMode::PaperFaithful] {
                let full = QgramFilter::build(&c, q, mode);
                for covered in [0, 1, c.len() / 3, c.len() - 1, c.len()] {
                    let prefix = QgramFilter::build(&c[..covered], q, mode);
                    for query in &c {
                        for k in BUDGETS {
                            assert_eq!(
                                prefix.candidates_with_tail(query, k, &ops, c.len(), |id| c[id]
                                    .id_bytes()),
                                full.candidates(query, k, &ops),
                                "q={q} {mode:?} k={k} covered={covered} |query|={}",
                                query.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn names_past_the_key_widths_are_admitted_on_length_and_still_answer_exactly() {
        let ops = LexEqual::default();
        let c = awkward_stripe();
        // Two id bits, five position bits: ids 4.. and the three long
        // names (already among them) do not fit.
        let flat =
            QgramFilter::build_packed(c.len(), |id| c[id].id_bytes(), 3, QgramMode::Strict, 2, 5);
        assert_eq!(flat.overflow, (4..c.len() as u32).collect::<Vec<_>>());
        // Five position bits alone: only the long names go.
        let narrow_pos =
            QgramFilter::build_packed(c.len(), |id| c[id].id_bytes(), 3, QgramMode::Strict, 4, 5);
        assert_eq!(narrow_pos.overflow, [7, 8, 9]);
        let oracle = reference::HashedQgramFilter::build(&c, 3, QgramMode::Strict);
        for f in [&flat, &narrow_pos] {
            assert_eq!(
                f.total_grams(),
                c.iter().map(|s| s.len() + 2).sum::<usize>()
            );
            for query in &c {
                for k in BUDGETS {
                    let got = f.candidates(query, k, &ops);
                    let want = oracle.candidates(query, k, &ops);
                    assert!(
                        got.windows(2).all(|w| w[0] < w[1])
                            && want.iter().all(|id| got.contains(id))
                    );
                    for id in got.iter().filter(|id| !want.contains(id)) {
                        assert!(f.overflow.contains(id), "only unindexed names are extra");
                    }
                }
                for e in [0.0, 0.3] {
                    let budget = e * query.len() as f64;
                    let got = f.candidates(query, budget, &ops);
                    assert!(keeps(&got, &scan(&ops, &c, query, e)));
                }
            }
        }
    }

    /// `within` is the ball inside the length filter — measured here row
    /// by row with the DP — whatever prefix the index holds and whichever
    /// rows its postings could not: what it does not index it probes.
    #[test]
    fn within_is_the_ball_at_any_coverage_and_any_posting_width() {
        use lexequal_matcher::{edit_distance, MyersPattern, UnitCost};
        // Without the 4 000-symbol names: the DP measures every pair here.
        let c: Vec<_> = (awkward_stripe().into_iter())
            .filter(|s| s.len() < 4000)
            .collect();
        let row = |id: usize| c[id].id_bytes();
        let mut filters: Vec<QgramFilter> = [0, 1, c.len() / 3, c.len() - 1, c.len()]
            .iter()
            .map(|&covered| QgramFilter::build(&c[..covered], 3, QgramMode::Strict))
            .collect();
        for (id_bits, pos_bits) in [(2, 5), (4, 5)] {
            let f =
                QgramFilter::build_packed(c.len(), row, 3, QgramMode::Strict, id_bits, pos_bits);
            assert!(!f.overflow.is_empty());
            filters.push(f);
        }
        for query in c.iter().map(|s| s.id_bytes()) {
            let pattern = MyersPattern::build(query.iter().copied());
            let probe = Probe::new(query, pattern.as_ref());
            let distances: Vec<f64> = (0..c.len())
                .map(|id| edit_distance(row(id), query, UnitCost))
                .collect();
            for (k, radius) in [(0.0, 0), (1.2, 1), (3.0, 3), (2.5, 9), (40.0, 12)] {
                let inside = |id: &usize| {
                    length_filter_passes(c[*id].len(), query.len(), k)
                        && distances[*id] <= radius as f64
                };
                let ball: Vec<u32> = (0..c.len()).filter(inside).map(|id| id as u32).collect();
                assert!(!ball.is_empty(), "the query is a row");
                for f in &filters {
                    assert_eq!(
                        f.within(query, k, radius, &probe, c.len(), row),
                        ball,
                        "k={k} radius={radius} |query|={} index over {} rows, {} unindexed",
                        query.len(),
                        f.len(),
                        f.overflow.len()
                    );
                }
            }
        }
    }

    #[test]
    fn shared_gram_counts_pass_sixteen_bits() {
        let ops = LexEqual::default();
        let c = vec![
            phonemes([5; 70_000]),
            phonemes([5; 69_990]),
            phonemes([6; 70_000]),
        ];
        let f = QgramFilter::build(&c, 3, QgramMode::PaperFaithful);
        // Requirement at k = 10: 70 000 − 1 − 9·3 = 69 972 shared grams.
        assert_eq!(f.candidates(&c[0], 10.0, &ops), [0, 1]);
    }

    /// A name of the shape `[nmkrlt][aeiou][nmkrlt]?[aeiou]?[nmkrlt]?`.
    fn syllables(rng: &mut Rng) -> String {
        let mut name = rng.string("nmkrlt", 1..=1) + &rng.string("aeiou", 1..=1);
        for class in ["nmkrlt", "aeiou", "nmkrlt"] {
            name += &rng.string(class, 0..=1);
        }
        name
    }

    /// Strict-mode completeness over random phoneme strings: a store's
    /// STRICT search (keyed on cluster strings) returns the scan's hits,
    /// and the filter over phoneme ids keeps every one of them.
    #[test]
    fn strict_never_dismisses_true_matches() {
        let ops = LexEqual::default();
        for_cases(0x9b01, 256, |rng| {
            let corpus: Vec<PhonemeString> =
                rng.vec(2..=11, |rng| syllables(rng).parse().expect("IPA letters"));
            let e = rng.f64_in(0.0..0.6);
            let query = corpus[0].clone();
            let want = scan(&ops, &corpus, &query, e);
            let s = store_of(&ops, &corpus, QgramMode::Strict);
            let hits = s.search_phonemes(&query, e, SearchMethod::Qgram).ids;
            ensure_eq((e, &hits), (e, &want))?;
            let f = QgramFilter::build(&corpus, 3, QgramMode::Strict);
            let candidates = f.candidates(&query, e * query.len() as f64, &ops);
            ensure(keeps(&candidates, &want), || {
                format!("e={e}: candidates {candidates:?} miss hits of {want:?}")
            })
        });
    }
}
