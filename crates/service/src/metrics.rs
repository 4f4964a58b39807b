//! Built-in observability: atomic request/match counters and a
//! log2-bucket latency histogram per access path.
//!
//! Everything here is lock-free (relaxed atomics): recording a sample on
//! the request path costs one increment, and a `STATS` snapshot reads
//! whatever is current without stopping traffic. Buckets are powers of
//! two in nanoseconds — bucket `i` counts samples with
//! `2^i ≤ ns < 2^(i+1)` — which spans 1 ns to ~18 s in 35 buckets and
//! needs no configuration.

use lexequal::{BatchCounters, ScreenCounters, SearchMethod};
use lexequal_g2p::Script;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets (covers up to `2^35` ns ≈ 34 s).
pub const HISTOGRAM_BUCKETS: usize = 36;

/// A lock-free log2-bucketed latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, elapsed: Duration) {
        self.record_count((elapsed.as_nanos() as u64).max(1));
    }

    /// Record an arbitrary non-negative magnitude (the buckets are just
    /// powers of two — nothing about them is nanosecond-specific, so the
    /// same histogram tracks e.g. pipeline depths).
    pub fn record_count(&self, value: u64) {
        let v = value.max(1);
        let bucket = (63 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Current bucket counts (`counts[i]` is samples in `[2^i, 2^(i+1))` ns).
    pub fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.snapshot().iter().sum()
    }

    /// Upper-bound estimate of the `q`-quantile (0.0–1.0) in
    /// nanoseconds — the upper edge of the bucket holding that rank.
    pub fn quantile_upper_ns(&self, q: f64) -> Option<u64> {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        None
    }
}

/// Stable array index for a [`SearchMethod`] (used by the per-path
/// histogram array and the wire `STATS` rendering).
pub fn method_index(method: SearchMethod) -> usize {
    match method {
        SearchMethod::Scan => 0,
        SearchMethod::Qgram => 1,
        SearchMethod::PhoneticIndex => 2,
        SearchMethod::BkTree => 3,
    }
}

/// Short lowercase wire name of a method.
pub fn method_name(method: SearchMethod) -> &'static str {
    match method {
        SearchMethod::Scan => "scan",
        SearchMethod::Qgram => "qgram",
        SearchMethod::PhoneticIndex => "phonidx",
        SearchMethod::BkTree => "bktree",
    }
}

/// All four access paths in `method_index` order.
pub const ALL_METHODS: [SearchMethod; 4] = [
    SearchMethod::Scan,
    SearchMethod::Qgram,
    SearchMethod::PhoneticIndex,
    SearchMethod::BkTree,
];

/// Counters for the whole service plus one histogram per access path.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Lookup requests received (single lookups; a batch of k counts k).
    pub requests: AtomicU64,
    /// Total matching ids returned.
    pub matches_returned: AtomicU64,
    /// Lookups answered `NoResource`.
    pub no_resource: AtomicU64,
    /// Lookups answered `NotBuilt`.
    pub not_built: AtomicU64,
    /// Lookups whose text failed to transform.
    pub bad_input: AtomicU64,
    /// Per-access-path search counts and latencies (`method_index` order);
    /// latency covers the sharded fan-out + merge, not the transform.
    pub per_method: [PathMetrics; 4],
    /// Untagged-request path (`ADD -` / `MATCH -`): script detections,
    /// fan-out widths, dedupe hits.
    pub untagged: UntaggedMetrics,
}

/// Counters for the untagged-request subsystem (script profiling +
/// routing + fan-out merge). Same lock-free relaxed-atomic discipline as
/// the rest of this module: one increment per event on the request path.
#[derive(Debug, Default)]
pub struct UntaggedMetrics {
    /// Untagged requests received (`ADD -` and `MATCH -`).
    pub requests: AtomicU64,
    /// Primary-script detections, indexed by [`Script::index`].
    pub per_script: [AtomicU64; Script::COUNT],
    /// Sum of fan-out widths (converters actually queried per request);
    /// `sum / requests` is the mean width.
    pub fanout_width_sum: AtomicU64,
    /// Widest fan-out ever issued.
    pub fanout_width_max: AtomicU64,
    /// Untagged requests that resolved to `NORESOURCE` (Hangul/Thai, or
    /// a single-script language absent from the registry).
    pub no_resource: AtomicU64,
    /// Fan-out candidates dropped because another language produced the
    /// identical phoneme string (merge dedupe before the shards).
    pub dedup_hits: AtomicU64,
}

impl UntaggedMetrics {
    /// Record the routing decision for one untagged request: the primary
    /// script (if any letters) and, once candidates are known, the
    /// fan-out width via [`record_fanout`](Self::record_fanout).
    pub fn record_request(&self, primary: Option<Script>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = primary {
            self.per_script[s.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record the number of unique phoneme queries issued (`width`) and
    /// how many candidates deduped away before the shards (`deduped`).
    pub fn record_fanout(&self, width: u64, deduped: u64) {
        self.fanout_width_sum.fetch_add(width, Ordering::Relaxed);
        self.fanout_width_max.fetch_max(width, Ordering::Relaxed);
        self.dedup_hits.fetch_add(deduped, Ordering::Relaxed);
    }

    /// Point-in-time values for `STATS`.
    pub fn snapshot(&self) -> UntaggedStats {
        UntaggedStats {
            requests: self.requests.load(Ordering::Relaxed),
            per_script: std::array::from_fn(|i| self.per_script[i].load(Ordering::Relaxed)),
            fanout_width_sum: self.fanout_width_sum.load(Ordering::Relaxed),
            fanout_width_max: self.fanout_width_max.load(Ordering::Relaxed),
            no_resource: self.no_resource.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
        }
    }
}

/// An [`UntaggedMetrics`] snapshot (the `STATS` untagged-path fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UntaggedStats {
    /// Untagged requests received.
    pub requests: u64,
    /// Primary-script detections, indexed by [`Script::index`].
    pub per_script: [u64; Script::COUNT],
    /// Sum of fan-out widths.
    pub fanout_width_sum: u64,
    /// Widest fan-out ever issued.
    pub fanout_width_max: u64,
    /// Untagged `NORESOURCE` outcomes.
    pub no_resource: u64,
    /// Candidates deduped before the shards.
    pub dedup_hits: u64,
}

/// One access path's counters.
#[derive(Debug, Default)]
pub struct PathMetrics {
    /// Searches served through this path.
    pub searches: AtomicU64,
    /// Fan-out + merge latency.
    pub latency: LatencyHistogram,
}

/// Verification-kernel screen counters aggregated across every shard
/// worker. Each worker owns a long-lived `lexequal::BatchVerifier` and flushes
/// its per-search [`ScreenCounters`] here after answering, so a `STATS`
/// snapshot shows how many verified pairs the bit-parallel screens
/// disposed of without the full DP.
#[derive(Debug, Default)]
pub struct ScreenTotals {
    /// Pairs accepted without the DP (equality or Myers fast-accept).
    pub fast_accept: AtomicU64,
    /// Pairs rejected without the DP (length filter or Myers fast-reject).
    pub fast_reject: AtomicU64,
    /// Pairs that ran the full banded DP.
    pub full_dp: AtomicU64,
    /// Pairs that skipped both Myers screens (query empty or >64
    /// phonemes) — a diagnostic overlay on `full_dp`, not a fourth
    /// outcome.
    pub bypass: AtomicU64,
}

impl ScreenTotals {
    /// Fold one worker's counters into the totals.
    pub fn add(&self, c: &ScreenCounters) {
        self.fast_accept.fetch_add(c.fast_accept, Ordering::Relaxed);
        self.fast_reject.fetch_add(c.fast_reject, Ordering::Relaxed);
        self.full_dp.fetch_add(c.full_dp, Ordering::Relaxed);
        self.bypass.fetch_add(c.bypass, Ordering::Relaxed);
    }

    /// Current totals as a plain value.
    pub fn snapshot(&self) -> ScreenCounters {
        ScreenCounters {
            fast_accept: self.fast_accept.load(Ordering::Relaxed),
            fast_reject: self.fast_reject.load(Ordering::Relaxed),
            full_dp: self.full_dp.load(Ordering::Relaxed),
            bypass: self.bypass.load(Ordering::Relaxed),
            ..ScreenCounters::default()
        }
    }
}

/// Batch-shape counters aggregated across every shard worker, the
/// lock-free mirror of [`BatchCounters`]: each worker owns a long-lived
/// `lexequal::BatchVerifier` and flushes here after answering, so a
/// `STATS` snapshot shows how many interleaved steps ran and how full
/// their lanes were.
#[derive(Debug, Default)]
pub struct BatchTotals {
    /// Interleaved verification steps.
    pub calls: AtomicU64,
    /// Sum of lane counts over all steps.
    pub lanes_sum: AtomicU64,
    /// Widest batch seen (merged with `fetch_max`).
    pub lanes_max: AtomicU64,
    /// Lanes decided by equality or the phoneme fast-accept screen.
    pub lane_accept: AtomicU64,
    /// Lanes decided by the length filter or cluster fast-reject screen.
    pub lane_reject: AtomicU64,
    /// Lanes drained through the dense banded DP.
    pub lane_dp: AtomicU64,
}

impl BatchTotals {
    /// Fold one worker's counters into the totals.
    pub fn add(&self, c: &BatchCounters) {
        self.calls.fetch_add(c.calls, Ordering::Relaxed);
        self.lanes_sum.fetch_add(c.lanes_sum, Ordering::Relaxed);
        self.lanes_max.fetch_max(c.lanes_max, Ordering::Relaxed);
        self.lane_accept.fetch_add(c.lane_accept, Ordering::Relaxed);
        self.lane_reject.fetch_add(c.lane_reject, Ordering::Relaxed);
        self.lane_dp.fetch_add(c.lane_dp, Ordering::Relaxed);
    }

    /// Current totals as a plain value.
    pub fn snapshot(&self) -> BatchCounters {
        BatchCounters {
            calls: self.calls.load(Ordering::Relaxed),
            lanes_sum: self.lanes_sum.load(Ordering::Relaxed),
            lanes_max: self.lanes_max.load(Ordering::Relaxed),
            lane_accept: self.lane_accept.load(Ordering::Relaxed),
            lane_reject: self.lane_reject.load(Ordering::Relaxed),
            lane_dp: self.lane_dp.load(Ordering::Relaxed),
        }
    }
}

/// Serving-path gauges for the TCP front-ends: connection counts, the
/// verify-dispatch queue, and per-connection pipelining depth. Owned by
/// a serving loop (not by [`crate::MatchService`]) and surfaced through
/// the `STATS` response.
#[derive(Debug, Default)]
pub struct ConnMetrics {
    conns_current: AtomicU64,
    conns_peak: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    pipeline_max: AtomicU64,
    dispatches: AtomicU64,
    /// Log2 histogram of the in-flight window size observed at each
    /// dispatch (depth 1 = the client waited for every response — no
    /// pipelining; bigger buckets mean the window is actually used).
    pipeline_depths: LatencyHistogram,
}

impl ConnMetrics {
    /// A connection was accepted.
    pub fn conn_opened(&self) {
        let now = self.conns_current.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// A connection was closed.
    pub fn conn_closed(&self) {
        self.conns_current.fetch_sub(1, Ordering::Relaxed);
    }

    /// A job entered the verify-dispatch queue.
    pub fn queue_pushed(&self) {
        let now = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// `n` jobs left the verify-dispatch queue.
    pub fn queue_popped(&self, n: u64) {
        self.queue_depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// A request was dispatched while its connection had `depth`
    /// requests in flight (including this one).
    pub fn observe_pipeline(&self, depth: u64) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.pipeline_max.fetch_max(depth, Ordering::Relaxed);
        self.pipeline_depths.record_count(depth);
    }

    /// Point-in-time values for `STATS`.
    pub fn snapshot(&self) -> ConnStats {
        ConnStats {
            conns_current: self.conns_current.load(Ordering::Relaxed),
            conns_peak: self.conns_peak.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            pipeline_max: self.pipeline_max.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            pipeline_p99: self.pipeline_depths.quantile_upper_ns(0.99),
        }
    }
}

/// A [`ConnMetrics`] snapshot (the `STATS` serving-gauge fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnStats {
    /// Connections open right now.
    pub conns_current: u64,
    /// Most connections ever open at once.
    pub conns_peak: u64,
    /// Jobs sitting in the verify-dispatch queue right now.
    pub queue_depth: u64,
    /// Deepest the dispatch queue has ever been.
    pub queue_peak: u64,
    /// Largest per-connection in-flight window ever observed.
    pub pipeline_max: u64,
    /// Requests dispatched to the worker pool.
    pub dispatches: u64,
    /// Upper edge of the p99 bucket of observed pipeline depths.
    pub pipeline_p99: Option<u64>,
}

/// Write-ahead-log counters (appends, fsyncs, bytes) — relaxed atomics
/// bumped once per committed mutation by [`crate::wal::Wal::append`].
#[derive(Debug, Default)]
pub struct WalMetrics {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
}

impl WalMetrics {
    /// Record one durable append of `bytes` record bytes (one fsync).
    pub fn record_append(&self, bytes: usize) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// A [`WalMetrics`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// fsyncs issued (one per append today).
    pub fsyncs: u64,
    /// Record bytes written (magic excluded).
    pub bytes: u64,
}

/// Which side of the replication link a daemon is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplRole {
    /// Owns the WAL and serves the stream.
    Primary,
    /// Applies the stream; read-only.
    Replica,
}

/// Replication state as surfaced by `STATS` — a plain value struct so
/// [`crate::StatsSnapshot`] stays `Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplStats {
    /// This daemon's role.
    pub role: ReplRole,
    /// Head LSN: the WAL head on a primary, the last head heard from
    /// the primary on a replica.
    pub head_lsn: u64,
    /// Last LSN applied to the local store (= `head_lsn` on a primary).
    pub applied_lsn: u64,
    /// `head_lsn - applied_lsn` (0 when caught up).
    pub lag: u64,
    /// Replica: whether the stream link is currently up.
    pub connected: bool,
    /// Primary: replica streams attached right now.
    pub replicas: u64,
    /// Primary: WAL counters.
    pub wal: Option<WalStats>,
    /// Replica: the primary's address.
    pub primary_addr: Option<String>,
    /// Primary: live (post-compaction) WAL file size in bytes.
    pub wal_bytes_live: u64,
    /// Primary: completed checkpoint-and-truncate cycles.
    pub compactions: u64,
    /// Primary: LSN covered by the newest durable checkpoint (0 = none).
    pub checkpoint_lsn: u64,
    /// Snapshot-transfer catch-ups served (primary) or performed
    /// (replica) because an incremental stream was impossible.
    pub reseeds: u64,
    /// Divergent-history detections: a replica ahead of its primary.
    pub divergences: u64,
    /// Primary: longest single hold of the commit lock since start (µs).
    pub commit_hold_max_us: u64,
    /// Primary: duration (ms) of the newest snapshot written (`SAVE` or
    /// compaction checkpoint; 0 before the first).
    pub checkpoint_ms_last: u64,
    /// Primary: rows in that snapshot.
    pub checkpoint_rows_last: u64,
}

impl ServiceMetrics {
    /// Record one served search on `method`.
    pub fn record_search(&self, method: SearchMethod, elapsed: Duration, matches: usize) {
        let m = &self.per_method[method_index(method)];
        m.searches.fetch_add(1, Ordering::Relaxed);
        m.latency.record(elapsed);
        self.matches_returned
            .fetch_add(matches as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(3)); // bucket 1
        h.record(Duration::from_nanos(1024)); // bucket 10
        let s = h.snapshot();
        assert_eq!(s[0], 1);
        assert_eq!(s[1], 1);
        assert_eq!(s[10], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn zero_duration_lands_in_the_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.snapshot()[0], 1);
    }

    #[test]
    fn huge_samples_clamp_to_the_last_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(3600));
        assert_eq!(h.snapshot()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_upper_ns(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket 6: [64, 128)
        }
        h.record(Duration::from_micros(100)); // bucket 16
        assert_eq!(h.quantile_upper_ns(0.5), Some(128));
        assert_eq!(h.quantile_upper_ns(1.0), Some(1 << 17));
    }

    #[test]
    fn method_indices_are_distinct_and_named() {
        let mut seen = [false; 4];
        for m in ALL_METHODS {
            let i = method_index(m);
            assert!(!seen[i]);
            seen[i] = true;
            assert!(!method_name(m).is_empty());
        }
    }

    #[test]
    fn conn_metrics_track_gauges_and_peaks() {
        let m = ConnMetrics::default();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.queue_pushed();
        m.queue_pushed();
        m.queue_popped(2);
        m.observe_pipeline(1);
        m.observe_pipeline(9);
        m.observe_pipeline(4);
        let s = m.snapshot();
        assert_eq!(s.conns_current, 1);
        assert_eq!(s.conns_peak, 2);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.queue_peak, 2);
        assert_eq!(s.pipeline_max, 9);
        assert_eq!(s.dispatches, 3);
        assert!(s.pipeline_p99.unwrap() >= 9);
    }

    #[test]
    fn untagged_metrics_track_scripts_and_fanout() {
        let m = UntaggedMetrics::default();
        m.record_request(Some(Script::Latin));
        m.record_fanout(3, 0);
        m.record_request(Some(Script::Latin));
        m.record_fanout(2, 1);
        m.record_request(Some(Script::Cyrillic));
        m.record_fanout(1, 0);
        m.record_request(None);
        let s = m.snapshot();
        assert_eq!(s.requests, 4);
        assert_eq!(s.per_script[Script::Latin.index()], 2);
        assert_eq!(s.per_script[Script::Cyrillic.index()], 1);
        assert_eq!(s.fanout_width_sum, 6);
        assert_eq!(s.fanout_width_max, 3);
        assert_eq!(s.dedup_hits, 1);
    }

    #[test]
    fn record_search_updates_the_right_path() {
        let m = ServiceMetrics::default();
        m.record_search(SearchMethod::Qgram, Duration::from_micros(5), 3);
        assert_eq!(
            m.per_method[method_index(SearchMethod::Qgram)]
                .searches
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(m.matches_returned.load(Ordering::Relaxed), 3);
        assert_eq!(
            m.per_method[method_index(SearchMethod::Scan)]
                .searches
                .load(Ordering::Relaxed),
            0
        );
    }
}
