//! The candidate-verification kernel: screen-first, allocation-free.
//!
//! Every access path (scan, q-gram, phonetic index, BK-tree) ends in the
//! same loop — evaluate `LexEqual::matches_phonemes(candidate, query, e)`
//! over the surviving candidates — and the paper's measurements (Tables
//! 1–3) show that loop dominating total cost. [`Verifier`] computes the
//! *identical* decision with three refinements:
//!
//! 1. **Bit-parallel screens** (Myers, see `lexequal_matcher::myers`).
//!    With indels at cost 1 and substitutions ≤ 1, the plain Levenshtein
//!    distance over phoneme ids bounds the clustered distance from above:
//!    `lev(a, b) ≤ k` is a sound **fast-accept**. Dually, every clustered
//!    edit op costs at least the unit op it induces on the *cluster-id*
//!    strings (intra-cluster substitutions become matches, everything else
//!    a unit op), so Levenshtein over cluster ids bounds it from below:
//!    `lev(cluster(a), cluster(b)) > k` is a sound **fast-reject** — the
//!    per-pair analogue of the paper's grouped phoneme string identifier.
//!    Both distances are exact and cost O(|candidate|) word ops. No row
//!    stores its cluster string: Myers reads a text symbol only as an index
//!    into the pattern's mask table, so the query's cluster pattern is
//!    built once with that table remapped to the phoneme alphabet
//!    (`peq'[p] = peq[cluster(p)]`, one 256-entry pass), and run over the
//!    candidate's phoneme ids it computes exactly `lev(cluster(q),
//!    cluster(c))` — every text symbol `p` matches pattern position `i`
//!    iff `cluster(p) == cluster(q)[i]`, which is the cluster string's
//!    own match relation.
//! 2. **Dense cost matrix** — pairs that survive both screens run the
//!    banded DP with [`DenseSubstCost`](crate::cost::DenseSubstCost):
//!    same floats, flat-array substitution lookup.
//! 3. **Reusable scratch** — the DP rows live in the `Verifier` (one per
//!    searching thread or query loop), so a verified pair performs zero heap
//!    allocations once the rows have grown to the longest candidate.
//!
//! Because the screens are exact bounds and the fallback runs the same
//! banded decision procedure on the same floats in the same order, the
//! kernel's verdict is bit-for-bit identical to `matches_phonemes`.

use crate::operator::LexEqual;
use lexequal_embed::{embed_clustered, EMBED_DIM};
use lexequal_matcher::{
    simd_level, within_distance_dense, within_distance_scratch, DpScratch, MyersPattern, Probe,
    SimdLevel,
};
use lexequal_phoneme::PhonemeString;
use std::sync::OnceLock;

/// Maximum candidates one interleaved [`BatchVerifier`] step processes
/// (re-exported from the matcher's lane-batched Myers module).
pub const MAX_LANES: usize = lexequal_matcher::MAX_LANES;

/// One batched-verification lane: the candidate's phoneme ids (see
/// [`BatchVerifier::matches_lanes`]).
pub type Lane<'a> = &'a [u8];

/// A query preprocessed for repeated verification: its cluster-id and
/// phoneme-id vectors and the two Myers bitmask tables — over phoneme ids,
/// and over cluster ids remapped to read phoneme ids.
///
/// Built once per query via [`LexEqual::prepare_query`]; the patterns are
/// `None` when the query is empty or longer than 64 phonemes
/// ([`screens_active`](Self::screens_active) is `false`), in which case
/// the kernel skips the screens and the DP decides alone — counted by
/// the `bypass` screen counter so the condition is visible in `STATS`.
#[derive(Debug)]
pub struct PreparedQuery {
    phonemes: PhonemeString,
    phoneme_ids: Vec<u8>,
    cluster_ids: Vec<u8>,
    /// The query's phonetic embedding, computed by the first
    /// [`embed`](Self::embed) call: the kernel never reads it.
    embed: OnceLock<[u8; EMBED_DIM]>,
    phon_pattern: Option<MyersPattern>,
    /// Built over `cluster_ids` and remapped through `classes`.
    clus_pattern: Option<MyersPattern>,
    /// The operator's phoneme id → cluster id map, which the cluster probe
    /// reads a candidate through.
    classes: [u8; 256],
}

impl PreparedQuery {
    /// Preprocess `q` under `op`'s cluster table.
    pub fn new(op: &LexEqual, q: &PhonemeString) -> Self {
        let cluster_ids = op.cluster_ids(q);
        let phoneme_ids: Vec<u8> = q.iter().map(|p| p.id()).collect();
        let classes = *op.class_map();
        let phon_pattern = MyersPattern::build(phoneme_ids.iter().copied());
        let clus_pattern = MyersPattern::build(cluster_ids.iter().copied()).map(|mut pattern| {
            pattern.remap(&classes);
            pattern
        });
        PreparedQuery {
            phonemes: q.clone(),
            phoneme_ids,
            cluster_ids,
            embed: OnceLock::new(),
            phon_pattern,
            clus_pattern,
            classes,
        }
    }

    /// The query's phonetic embedding, made on first call from its
    /// phoneme and cluster ids. No kernel reads it (DESIGN §5j); kept only
    /// for the benchmark's kernel replay, and goes with ROADMAP item 2.
    #[doc(hidden)]
    pub fn embed(&self) -> &[u8; EMBED_DIM] {
        self.embed
            .get_or_init(|| embed_clustered(&self.phoneme_ids, &self.cluster_ids))
    }

    /// The query phoneme string.
    pub fn phonemes(&self) -> &PhonemeString {
        &self.phonemes
    }

    /// The query's phoneme-id sequence (`phonemes()` as raw `u8` ids —
    /// the right-hand side of the dense DP).
    pub fn phoneme_ids(&self) -> &[u8] {
        &self.phoneme_ids
    }

    /// The query's cluster-id sequence.
    pub fn cluster_ids(&self) -> &[u8] {
        &self.cluster_ids
    }

    /// The exact unit-cost distance from the query's cluster string to the
    /// cluster string of any row, given as the row's phoneme ids: through
    /// the cluster screen's pattern where there is one.
    pub fn cluster_probe(&self) -> Probe<'_> {
        Probe::classed(&self.cluster_ids, self.clus_pattern.as_ref(), &self.classes)
    }

    /// Whether the Myers fast-accept/fast-reject screens will run for
    /// this query. `false` exactly when the query is empty or longer
    /// than 64 phonemes (the single-word Myers limit): every pair then
    /// goes straight to the DP, and the kernels count it under the
    /// `bypass` screen counter.
    pub fn screens_active(&self) -> bool {
        self.phon_pattern.is_some() && self.clus_pattern.is_some()
    }
}

/// How the kernel disposed of verified pairs: screen effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenCounters {
    /// Pairs accepted without the DP (equality or Myers fast-accept).
    pub fast_accept: u64,
    /// Pairs rejected without the DP (length filter or Myers fast-reject).
    pub fast_reject: u64,
    /// Pairs that ran the full banded DP.
    pub full_dp: u64,
    /// Pairs that skipped both Myers screens because the query had no
    /// patterns (empty or >64 phonemes). These pairs are *also* counted
    /// in `full_dp` — `bypass` is a diagnostic overlay, not a fourth
    /// outcome — so it does not contribute to [`total`](Self::total).
    pub bypass: u64,
    /// Pairs an embedding screen rejected: always 0, since the kernel
    /// runs none (DESIGN §5j). Kept only for the benchmark's kernel
    /// replay; goes with ROADMAP item 2.
    #[doc(hidden)]
    pub embed_reject: u64,
}

impl ScreenCounters {
    /// Total pairs verified.
    pub fn total(&self) -> u64 {
        self.fast_accept + self.fast_reject + self.full_dp
    }

    /// Add `other` into `self` (for merging per-worker counters).
    pub fn merge(&mut self, other: &ScreenCounters) {
        self.fast_accept += other.fast_accept;
        self.fast_reject += other.fast_reject;
        self.full_dp += other.full_dp;
        self.bypass += other.bypass;
    }
}

/// The verification kernel: DP scratch plus screen counters.
///
/// One `Verifier` per searching thread (long-lived) or per query loop; it is
/// cheap to construct but reusing it is what makes verification
/// allocation-free.
#[derive(Debug, Default)]
pub struct Verifier {
    scratch: DpScratch,
    counters: ScreenCounters,
}

impl Verifier {
    /// A fresh kernel with empty scratch and zeroed counters.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Screen counters accumulated since construction or the last
    /// [`take_counters`](Self::take_counters).
    pub fn counters(&self) -> ScreenCounters {
        self.counters
    }

    /// Return and reset the accumulated counters.
    pub fn take_counters(&mut self) -> ScreenCounters {
        std::mem::take(&mut self.counters)
    }

    /// The kernel predicate: exactly `op.matches_phonemes(cand, query, e)`
    /// (note the argument order — candidate on the left, as every access
    /// path calls it), decided screen-first.
    ///
    /// `_cand_clusters` and `_cand_embed` are accepted and ignored: the
    /// cluster screen reads `cand`'s phoneme ids through the query's
    /// remapped pattern, and the embedding screen is retired (DESIGN §5j).
    /// Both arguments go with ROADMAP item 2a.
    pub fn matches(
        &mut self,
        op: &LexEqual,
        query: &PreparedQuery,
        cand: &PhonemeString,
        _cand_clusters: Option<&[u8]>,
        _cand_embed: Option<&[u8]>,
        e: f64,
    ) -> bool {
        self.matches_ids(op, query, cand.id_bytes(), e)
    }

    /// [`matches`](Self::matches) for a candidate given as its raw
    /// inventory ids — a row of a store's flat phoneme column.
    pub fn matches_ids(
        &mut self,
        op: &LexEqual,
        query: &PreparedQuery,
        cand: &[u8],
        e: f64,
    ) -> bool {
        if cand == query.phoneme_ids {
            self.counters.fast_accept += 1;
            return true;
        }
        let smaller = cand.len().min(query.phoneme_ids.len());
        // Same strict-predicate budget as `matches_phonemes`.
        let k = (e * smaller as f64 - 1e-9).max(1e-12);
        // Length filter (min_indel is 1): mirrors the first check inside
        // `within_distance`, hoisted here so it counts as a fast reject.
        if cand.len().abs_diff(query.phoneme_ids.len()) as f64 > k {
            self.counters.fast_reject += 1;
            return false;
        }
        // Both patterns exist iff 1 ≤ |query| ≤ 64.
        if let (Some(phon), Some(clus)) = (&query.phon_pattern, &query.clus_pattern) {
            // The remapped pattern reads `cand`'s phonemes as clusters.
            let lev_clus = clus.distance(cand.iter().copied());
            // Distance ≥ cluster-id Levenshtein: reject.
            if lev_clus as f64 > k + 1e-12 {
                self.counters.fast_reject += 1;
                return false;
            }
            // Clustered distance ≤ phoneme Levenshtein: accept.
            let lev_phon = phon.distance(cand.iter().copied());
            if lev_phon as f64 <= k + 1e-12 {
                self.counters.fast_accept += 1;
                return true;
            }
        } else {
            self.counters.bypass += 1;
        }
        self.counters.full_dp += 1;
        within_distance_scratch(
            cand,
            &query.phoneme_ids,
            k,
            op.dense_cost(),
            &mut self.scratch,
        )
    }
}

/// Batch-shape statistics for [`BatchVerifier`]: how many interleaved
/// steps ran and how full their lanes were, split by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Interleaved verification steps ([`BatchVerifier::matches_lanes`]
    /// invocations).
    pub calls: u64,
    /// Sum of lane counts over all calls (`lanes_sum / calls` is the
    /// mean batch fill).
    pub lanes_sum: u64,
    /// Widest batch seen.
    pub lanes_max: u64,
    /// Lanes decided by equality or the phoneme fast-accept screen.
    pub lane_accept: u64,
    /// Lanes decided by the length filter or the cluster fast-reject
    /// screen.
    pub lane_reject: u64,
    /// Lanes drained through the dense banded DP.
    pub lane_dp: u64,
}

impl BatchCounters {
    /// Add `other` into `self` (`lanes_max` merges by maximum).
    pub fn merge(&mut self, other: &BatchCounters) {
        self.calls += other.calls;
        self.lanes_sum += other.lanes_sum;
        self.lanes_max = self.lanes_max.max(other.lanes_max);
        self.lane_accept += other.lane_accept;
        self.lane_reject += other.lane_reject;
        self.lane_dp += other.lane_dp;
    }
}

/// The batched verification kernel: verdicts over a slice of up to
/// [`MAX_LANES`] candidates per step, bit-for-bit identical to running
/// [`Verifier::matches`] on each candidate in turn.
///
/// Where the pair-at-a-time kernel leaves instruction-level parallelism
/// on the table (both the Myers recurrence and the DP column scan are
/// serial dependency chains), the batched kernel restructures the work
/// per *batch*:
///
/// 1. per-lane scalar pre-screens (equality, threshold, length filter);
/// 2. one **interleaved** Myers pass of the remapped cluster pattern over
///    the phoneme ids of all surviving lanes (struct-of-arrays state,
///    shared pattern masks — see `lexequal_matcher::myers_batch`) for the
///    fast-reject bound;
/// 3. one interleaved Myers pass over the phoneme-id strings of the
///    remainder for the fast-accept bound;
/// 4. a DP drain of still-undecided lanes through the **dense SIMD**
///    banded DP (`lexequal_matcher::simd`), with the backend fixed at
///    construction from [`simd_level`].
///
/// Exactness: the lanes never interact — each step computes exactly the
/// distances and comparisons the scalar kernel computes per pair, on the
/// same floats in the same per-pair order — so reordering work *across*
/// lanes cannot change any verdict.
///
/// Like [`Verifier`], it owns its DP scratch and reads every lane in
/// place, so steady-state verification performs zero heap allocations.
#[derive(Debug)]
pub struct BatchVerifier {
    scratch: DpScratch,
    counters: ScreenCounters,
    batch: BatchCounters,
    width: usize,
    level: SimdLevel,
    /// Screen scratch, kept across calls so each flush skips ~0.4KB of
    /// array zero-inits: per-slot Myers distances, survivor lane
    /// indices and undecided (DP-bound) lane indices.
    scr_dists: [usize; MAX_LANES],
    scr_surv: [usize; MAX_LANES],
    scr_dp: [usize; MAX_LANES],
}

impl Default for BatchVerifier {
    fn default() -> Self {
        BatchVerifier::new()
    }
}

impl BatchVerifier {
    /// A fresh kernel at the full [`MAX_LANES`] width, with the DP
    /// backend from the process-wide [`simd_level`] dispatch.
    pub fn new() -> Self {
        BatchVerifier::with_width_and_level(MAX_LANES, simd_level())
    }

    /// A kernel with an explicit batch width (`1..=MAX_LANES`) and DP
    /// backend — the differential suites and benchmarks sweep these.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds [`MAX_LANES`].
    pub fn with_width_and_level(width: usize, level: SimdLevel) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&width),
            "batch width must be in 1..={MAX_LANES}"
        );
        BatchVerifier {
            scratch: DpScratch::default(),
            counters: ScreenCounters::default(),
            batch: BatchCounters::default(),
            width,
            level,
            scr_dists: [0; MAX_LANES],
            scr_surv: [0; MAX_LANES],
            scr_dp: [0; MAX_LANES],
        }
    }

    /// The batch width [`verify_ids`](Self::verify_ids) fills lanes to.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The DP backend this kernel drains undecided lanes with.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// Screen counters accumulated since construction or the last
    /// [`take_counters`](Self::take_counters) — same per-pair semantics
    /// as [`Verifier::counters`].
    pub fn counters(&self) -> ScreenCounters {
        self.counters
    }

    /// Return and reset the accumulated screen counters.
    pub fn take_counters(&mut self) -> ScreenCounters {
        std::mem::take(&mut self.counters)
    }

    /// Batch-shape counters accumulated since construction or the last
    /// [`take_batch_counters`](Self::take_batch_counters).
    pub fn batch_counters(&self) -> BatchCounters {
        self.batch
    }

    /// Return and reset the accumulated batch-shape counters.
    pub fn take_batch_counters(&mut self) -> BatchCounters {
        std::mem::take(&mut self.batch)
    }

    /// Decide `op.matches_phonemes(cand, query, e)` for every lane:
    /// `verdicts[l]` receives the verdict for `lanes[l]`, bit-for-bit
    /// what [`Verifier::matches`] returns for that pair.
    ///
    /// Each lane is a candidate's phoneme ids, read in place by both
    /// screens and the DP.
    ///
    /// # Panics
    ///
    /// Panics when `lanes.len() > MAX_LANES` or `verdicts` is shorter
    /// than `lanes`.
    pub fn matches_lanes(
        &mut self,
        op: &LexEqual,
        query: &PreparedQuery,
        lanes: &[Lane<'_>],
        e: f64,
        verdicts: &mut [bool],
    ) {
        let w = lanes.len();
        assert!(w <= MAX_LANES, "at most {MAX_LANES} lanes per call");
        assert!(verdicts.len() >= w, "verdicts must hold one bool per lane");
        self.batch.calls += 1;
        self.batch.lanes_sum += w as u64;
        self.batch.lanes_max = self.batch.lanes_max.max(w as u64);

        // Per-lane pre-screens: equality accept, threshold, length
        // filter — identical arithmetic to the scalar kernel.
        let mut ks = [0.0f64; MAX_LANES];
        let mut pending = [0usize; MAX_LANES];
        let mut n_pending = 0;
        for (l, &cand) in lanes.iter().enumerate() {
            if cand == query.phoneme_ids {
                self.counters.fast_accept += 1;
                self.batch.lane_accept += 1;
                verdicts[l] = true;
                continue;
            }
            let smaller = cand.len().min(query.phoneme_ids.len());
            // Same strict-predicate budget as `matches_phonemes`.
            let k = (e * smaller as f64 - 1e-9).max(1e-12);
            ks[l] = k;
            if cand.len().abs_diff(query.phoneme_ids.len()) as f64 > k {
                self.counters.fast_reject += 1;
                self.batch.lane_reject += 1;
                verdicts[l] = false;
                continue;
            }
            pending[n_pending] = l;
            n_pending += 1;
        }

        self.screen_pending(op, query, lanes, &ks, &pending[..n_pending], verdicts);
    }

    /// The interleaved-screen core: decide every `pending` lane (indices
    /// into `lanes`, each already past the equality and length filters,
    /// with its budget in `ks`) through the lock-step Myers screens and
    /// the SIMD DP drain. Shared by [`matches_lanes`](Self::matches_lanes)
    /// and the id-stream flush path, which computes `ks` while chunking
    /// and so skips the per-lane pre-screen here.
    fn screen_pending(
        &mut self,
        op: &LexEqual,
        query: &PreparedQuery,
        lanes: &[Lane<'_>],
        ks: &[f64; MAX_LANES],
        pending: &[usize],
        verdicts: &mut [bool],
    ) {
        let n_pending = pending.len();

        // Lane indices still undecided after the screens.
        let mut n_dp = 0;

        if let (Some(phon), Some(clus)) = (&query.phon_pattern, &query.clus_pattern) {
            // Interleaved cluster screen: one pass advances every
            // pending lane's Myers recurrence in lock-step, the remapped
            // pattern reading each lane's phoneme ids in place.
            let mut texts: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
            for (slot, &l) in pending[..n_pending].iter().enumerate() {
                texts[slot] = lanes[l];
            }
            clus.distance_batch(&texts[..n_pending], &mut self.scr_dists, self.level);
            // Distance ≥ cluster-id Levenshtein: reject.
            let mut n_surv = 0;
            for (slot, &l) in pending[..n_pending].iter().enumerate() {
                if self.scr_dists[slot] as f64 > ks[l] + 1e-12 {
                    self.counters.fast_reject += 1;
                    self.batch.lane_reject += 1;
                    verdicts[l] = false;
                } else {
                    self.scr_surv[n_surv] = l;
                    n_surv += 1;
                }
            }

            // Interleaved phoneme screen over the survivors.
            let mut texts: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
            for (slot, &l) in self.scr_surv[..n_surv].iter().enumerate() {
                texts[slot] = lanes[l];
            }
            phon.distance_batch(&texts[..n_surv], &mut self.scr_dists, self.level);
            // Clustered distance ≤ phoneme Levenshtein: accept.
            for slot in 0..n_surv {
                let l = self.scr_surv[slot];
                if self.scr_dists[slot] as f64 <= ks[l] + 1e-12 {
                    self.counters.fast_accept += 1;
                    self.batch.lane_accept += 1;
                    verdicts[l] = true;
                } else {
                    self.scr_dp[n_dp] = l;
                    n_dp += 1;
                }
            }
        } else {
            // No patterns (query empty or >64 phonemes): every pending
            // lane bypasses the screens and goes straight to the DP.
            for &l in pending {
                self.counters.bypass += 1;
                self.scr_dp[n_dp] = l;
                n_dp += 1;
            }
        }

        // DP drain: the dense SIMD banded DP, bit-identical to the
        // generic `within_distance_scratch` on the same matrix.
        let dense = op.dense_cost();
        for i in 0..n_dp {
            let l = self.scr_dp[i];
            self.counters.full_dp += 1;
            self.batch.lane_dp += 1;
            verdicts[l] = within_distance_dense(
                lanes[l],
                &query.phoneme_ids,
                ks[l],
                dense.matrix(),
                dense.inventory_len(),
                &mut self.scratch,
                self.level,
            );
        }
    }

    /// Verify rows by id in width-sized batches, appending the matching
    /// ids to `hits` in input order; returns the number of candidates
    /// verified. `row(id)` is the candidate's phoneme ids — a store hands
    /// its row accessor in, so the kernel reads each row where it lies.
    ///
    /// Candidates the O(1) pre-screens settle (equality accept, length
    /// filter) are decided inline as the id stream arrives; only the
    /// survivors occupy batch lanes, so every interleaved step runs with
    /// [`width`](Self::width) full Myers lanes instead of carrying
    /// already-decided passengers. Hit order stays exactly the input id
    /// order: an equality accept (the one inline disposition that emits
    /// a hit) first flushes any pending partial batch, whose lanes all
    /// precede it in the stream.
    pub fn verify_rows<'a>(
        &mut self,
        op: &LexEqual,
        query: &PreparedQuery,
        row: impl Fn(u32) -> Lane<'a>,
        ids: impl IntoIterator<Item = u32>,
        e: f64,
        hits: &mut Vec<u32>,
    ) -> usize {
        let mut lane_ids = [0u32; MAX_LANES];
        let mut lane_ks = [0.0f64; MAX_LANES];
        let mut lanes: [Lane<'a>; MAX_LANES] = [&[]; MAX_LANES];
        let mut filled = 0;
        let mut verified = 0;
        for id in ids {
            verified += 1;
            let cand = row(id);
            if cand == query.phoneme_ids {
                // Keep hits in input order: everything pending precedes
                // this id in the stream, so decide it first.
                self.flush(op, query, &lanes[..filled], &lane_ids, &lane_ks, hits);
                filled = 0;
                self.counters.fast_accept += 1;
                hits.push(id);
                continue;
            }
            let smaller = cand.len().min(query.phoneme_ids.len());
            // Same strict-predicate budget as `matches_phonemes`.
            let k = (e * smaller as f64 - 1e-9).max(1e-12);
            if cand.len().abs_diff(query.phoneme_ids.len()) as f64 > k {
                self.counters.fast_reject += 1;
                continue;
            }
            (lanes[filled], lane_ids[filled], lane_ks[filled]) = (cand, id, k);
            filled += 1;
            if filled == self.width {
                self.flush(op, query, &lanes[..filled], &lane_ids, &lane_ks, hits);
                filled = 0;
            }
        }
        self.flush(op, query, &lanes[..filled], &lane_ids, &lane_ks, hits);
        verified
    }

    /// [`verify_rows`](Self::verify_rows) over row-shaped slices: `corpus`
    /// holds the candidates. `_cluster_ids` and `_embeds` are accepted and
    /// ignored: the cluster screen reads each candidate's phoneme ids
    /// through the query's remapped pattern, and the embedding screen is
    /// retired (DESIGN §5j). Both arguments go with ROADMAP item 2a. A thin
    /// adapter for tests and benchmarks that hold their corpus as vectors;
    /// stores verify through their row accessor.
    #[allow(clippy::too_many_arguments)]
    pub fn verify_ids<I, C, E>(
        &mut self,
        op: &LexEqual,
        query: &PreparedQuery,
        corpus: &[PhonemeString],
        _cluster_ids: Option<&[C]>,
        _embeds: Option<&[E]>,
        ids: I,
        e: f64,
        hits: &mut Vec<u32>,
    ) -> usize
    where
        I: IntoIterator<Item = u32>,
        C: AsRef<[u8]>,
        E: AsRef<[u8]>,
    {
        let row = |id: u32| corpus[id as usize].id_bytes();
        self.verify_rows(op, query, row, ids, e, hits)
    }

    /// Flush one batch of pre-screened lanes (lane `l` is id `ids[l]` with
    /// its precomputed budget `ks[l]`) through the interleaved screens,
    /// pushing matches onto `hits` in lane order.
    fn flush(
        &mut self,
        op: &LexEqual,
        query: &PreparedQuery,
        lanes: &[Lane<'_>],
        ids: &[u32; MAX_LANES],
        ks: &[f64; MAX_LANES],
        hits: &mut Vec<u32>,
    ) {
        let n = lanes.len();
        if n == 0 {
            return;
        }
        self.batch.calls += 1;
        self.batch.lanes_sum += n as u64;
        self.batch.lanes_max = self.batch.lanes_max.max(n as u64);
        // Every flushed lane is pending by construction.
        const IDENT: [usize; MAX_LANES] = {
            let mut a = [0usize; MAX_LANES];
            let mut i = 0;
            while i < MAX_LANES {
                a[i] = i;
                i += 1;
            }
            a
        };
        let mut verdicts = [false; MAX_LANES];
        self.screen_pending(op, query, lanes, ks, &IDENT[..n], &mut verdicts);
        hits.extend((ids[..n].iter().zip(verdicts)).filter_map(|(&id, hit)| hit.then_some(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchConfig;
    use lexequal_phoneme::testkit::{ensure_eq, for_cases, Rng};

    /// Phoneme strings of length 0..=70 (past the 64-symbol Myers limit to
    /// exercise the no-screen path).
    fn corpus(seed: u64, count: usize) -> Vec<PhonemeString> {
        let mut rng = Rng::new(seed);
        (0..count).map(|_| rng.phonemes(0..=70)).collect()
    }

    #[test]
    fn kernel_agrees_with_reference_on_random_strings() {
        for intra in [0.0, 0.25, 1.0] {
            let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(intra));
            let mut v = Verifier::new();
            let strings = corpus(0x5eed_0001 + intra.to_bits(), 40);
            for q in &strings {
                let prepared = op.prepare_query(q);
                let q_check = op.cluster_ids(q);
                assert_eq!(prepared.cluster_ids(), &q_check[..]);
                for c in &strings {
                    for e in [0.0, 0.15, 0.35, 0.5, 1.0] {
                        assert_eq!(
                            v.matches_ids(&op, &prepared, c.id_bytes(), e),
                            op.matches_phonemes(c, q, e),
                            "|q|={} |c|={} e={e} intra={intra}",
                            q.len(),
                            c.len()
                        );
                    }
                }
            }
            let c = v.counters();
            assert_eq!(c.total(), (strings.len() * strings.len() * 5) as u64);
            assert!(c.fast_accept > 0 && c.fast_reject > 0);
        }
    }

    #[test]
    fn counters_take_and_merge() {
        let op = LexEqual::new(MatchConfig::default());
        let mut v = Verifier::new();
        let strings = corpus(0xabcd, 6);
        let prepared = op.prepare_query(&strings[0]);
        for c in &strings {
            v.matches(&op, &prepared, c, None, None, 0.35);
        }
        let first = v.take_counters();
        assert_eq!(first.total(), strings.len() as u64);
        assert_eq!(v.counters(), ScreenCounters::default());
        let mut sum = ScreenCounters::default();
        sum.merge(&first);
        sum.merge(&first);
        assert_eq!(sum.total(), 2 * first.total());
    }

    /// Verifier::matches == matches_phonemes on random phoneme strings up
    /// to length 64 (the Myers screen window).
    #[test]
    fn kernel_equals_reference() {
        let ops = [0.0, 0.25, 0.5, 1.0]
            .map(|intra| LexEqual::new(MatchConfig::default().with_intra_cluster_cost(intra)));
        let mut v = Verifier::new();
        for_cases(0x7e01, 256, |rng| {
            let (q, c) = (rng.phonemes(0..=64), rng.phonemes(0..=64));
            let (e, op) = (rng.f64_in(0.0..1.2), rng.pick(&ops));
            let prepared = op.prepare_query(&q);
            let want = op.matches_phonemes(&c, &q, e);
            ensure_eq(v.matches_ids(op, &prepared, c.id_bytes(), e), want)
        });
    }
}
