//! Closed-loop load generation for shard-scaling measurements.
//!
//! [`run`] stands up one [`MatchService`] per configured shard count,
//! bulk-loads the same synthetic lexicon (paper §5's pairwise
//! concatenation dataset, pre-transformed so loading measures serving,
//! not G2P), then drives it with `clients` closed-loop threads cycling a
//! shared hot-query pool. Per-operation latencies are collected exactly
//! (nanosecond `Instant` pairs, not the histogram) so the report's
//! quantiles are true order statistics; throughput is total ops over
//! wall-clock.
//!
//! The report records `available_parallelism` because shard scaling is
//! physically bounded by it: on a 1-CPU host the 4-shard and 1-shard
//! configurations time-slice the same core and throughput stays flat —
//! the numbers only spread on real multicore hardware.
//!
//! [`run_net`] is the socket-level companion: it stands up a real
//! `lexequald` listener per (serve mode × connection count) cell and
//! drives it with pipelined windows over many concurrent TCP
//! connections, producing `results/evented_bench.json` — the
//! evented-vs-threaded serving comparison.

use crate::event_loop::ShutdownSignal;
use crate::server::{serve_with, ServeMode, ServeOptions};
use crate::service::{
    AutoMatchRequest, MatchOutcome, MatchRequest, MatchService, ServiceConfig, SnapshotFormat,
};
use crate::shard::BuildSpec;
use lexequal::store::NameEntry;
use lexequal::{MatchConfig, QgramMode, SearchMethod};
use lexequal_lexicon::build_dataset;
use lexequal_mdb::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// What to measure.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target synthetic lexicon size (actual size is reported).
    pub dataset_size: usize,
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Lookups each client performs per shard configuration.
    pub ops_per_client: usize,
    /// Shard counts to compare.
    pub shard_counts: Vec<usize>,
    /// Access path under test.
    pub method: SearchMethod,
    /// Match threshold for every lookup.
    pub threshold: f64,
    /// Transform-cache capacity.
    pub cache_capacity: usize,
    /// Number of distinct hot queries in the shared pool.
    pub query_pool: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            dataset_size: 50_000,
            clients: 4,
            ops_per_client: 250,
            shard_counts: vec![1, 2, 4],
            method: SearchMethod::Qgram,
            threshold: 0.35,
            cache_capacity: 4096,
            query_pool: 64,
        }
    }
}

/// One shard configuration's measurements.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shards (worker threads) in the store.
    pub shards: usize,
    /// Total lookups performed.
    pub total_ops: usize,
    /// Wall-clock seconds for the measurement window.
    pub elapsed_secs: f64,
    /// Lookups per second.
    pub throughput: f64,
    /// Median per-op latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-op latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-op latency, microseconds.
    pub p99_us: f64,
    /// Transform-cache hits after the run.
    pub cache_hits: u64,
    /// Transform-cache misses after the run.
    pub cache_misses: u64,
    /// Total matching ids returned across all lookups.
    pub matches_returned: u64,
}

/// The full report [`run`] produces and [`write_json`] persists.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Actual number of names loaded.
    pub dataset_size: usize,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// the hard ceiling on shard scaling.
    pub available_parallelism: usize,
    /// Client threads used.
    pub clients: usize,
    /// Access path measured.
    pub method: SearchMethod,
    /// Threshold used.
    pub threshold: f64,
    /// One entry per shard count, in configured order.
    pub runs: Vec<ShardRun>,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1_000.0
}

/// Measure one shard configuration over a pre-built dataset.
pub fn run_one(config: &LoadgenConfig, shards: usize, dataset: &[NameEntry]) -> ShardRun {
    let service = Arc::new(MatchService::new(ServiceConfig {
        match_config: MatchConfig::default(),
        shards,
        cache_capacity: config.cache_capacity,
    }));
    service.extend_transformed(dataset.to_vec());
    match config.method {
        SearchMethod::Scan => {}
        SearchMethod::Qgram => service.build(BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        }),
        SearchMethod::PhoneticIndex => service.build(BuildSpec::PhoneticIndex),
        SearchMethod::BkTree => service.build(BuildSpec::BkTree),
    }

    // Hot-query pool: every k-th stored name, so each query has at least
    // one true match and repeats exercise the transform cache.
    let stride = (dataset.len() / config.query_pool.max(1)).max(1);
    let pool: Vec<(String, lexequal::Language)> = dataset
        .iter()
        .step_by(stride)
        .take(config.query_pool.max(1))
        .map(|e| (e.text.clone(), e.language))
        .collect();

    let start = Instant::now();
    let mut all_ns: Vec<u64> = Vec::with_capacity(config.clients * config.ops_per_client);
    let mut matched = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|c| {
                let service = Arc::clone(&service);
                let pool = &pool;
                scope.spawn(move || {
                    let mut ns = Vec::with_capacity(config.ops_per_client);
                    let mut matched = 0u64;
                    for i in 0..config.ops_per_client {
                        let (text, language) = &pool[(c + i) % pool.len()];
                        let req = MatchRequest {
                            text: text.clone(),
                            language: *language,
                            threshold: Some(config.threshold),
                            method: Some(config.method),
                        };
                        let t = Instant::now();
                        let out = service.lookup(&req);
                        ns.push(t.elapsed().as_nanos() as u64);
                        if let MatchOutcome::Matches { ids, .. } = out {
                            matched += ids.len() as u64;
                        }
                    }
                    (ns, matched)
                })
            })
            .collect();
        for h in handles {
            let (ns, m) = h.join().expect("client thread");
            all_ns.extend(ns);
            matched += m;
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    all_ns.sort_unstable();
    let (cache_hits, cache_misses) = service.cache().stats();
    ShardRun {
        shards,
        total_ops: all_ns.len(),
        elapsed_secs: elapsed,
        throughput: all_ns.len() as f64 / elapsed.max(f64::EPSILON),
        p50_us: percentile_us(&all_ns, 0.50),
        p95_us: percentile_us(&all_ns, 0.95),
        p99_us: percentile_us(&all_ns, 0.99),
        cache_hits,
        cache_misses,
        matches_returned: matched,
    }
}

/// Run the whole comparison.
pub fn run(config: &LoadgenConfig) -> LoadgenReport {
    let dataset = build_dataset(&MatchConfig::default(), config.dataset_size);
    let runs = config
        .shard_counts
        .iter()
        .map(|&s| run_one(config, s, &dataset))
        .collect();
    LoadgenReport {
        dataset_size: dataset.len(),
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        clients: config.clients,
        method: config.method,
        threshold: config.threshold,
        runs,
    }
}

/// Render the report as JSON.
pub fn to_json(report: &LoadgenReport) -> Json {
    Json::Obj(vec![
        (
            "dataset_size".to_owned(),
            Json::Int(report.dataset_size as i64),
        ),
        (
            "available_parallelism".to_owned(),
            Json::Int(report.available_parallelism as i64),
        ),
        ("clients".to_owned(), Json::Int(report.clients as i64)),
        (
            "method".to_owned(),
            Json::Str(crate::metrics::method_name(report.method).to_owned()),
        ),
        ("threshold".to_owned(), Json::Float(report.threshold)),
        (
            "runs".to_owned(),
            Json::Arr(
                report
                    .runs
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("shards".to_owned(), Json::Int(r.shards as i64)),
                            ("total_ops".to_owned(), Json::Int(r.total_ops as i64)),
                            ("elapsed_secs".to_owned(), Json::Float(r.elapsed_secs)),
                            ("throughput".to_owned(), Json::Float(r.throughput)),
                            ("p50_us".to_owned(), Json::Float(r.p50_us)),
                            ("p95_us".to_owned(), Json::Float(r.p95_us)),
                            ("p99_us".to_owned(), Json::Float(r.p99_us)),
                            ("cache_hits".to_owned(), Json::Int(r.cache_hits as i64)),
                            ("cache_misses".to_owned(), Json::Int(r.cache_misses as i64)),
                            (
                                "matches_returned".to_owned(),
                                Json::Int(r.matches_returned as i64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Write the report to `path` as JSON (creating parent directories).
pub fn write_json(report: &LoadgenReport, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_json(report).render())
}

// ---------------------------------------------------------------------------
// Snapshot cold-start comparison (`--snapshot-bench`)
// ---------------------------------------------------------------------------

/// What the snapshot cold-start bench measures.
#[derive(Debug, Clone)]
pub struct SnapshotBenchConfig {
    /// Target synthetic lexicon size.
    pub dataset_size: usize,
    /// Store shards for both sides of the comparison.
    pub shards: usize,
    /// Transform-cache capacity.
    pub cache_capacity: usize,
}

impl Default for SnapshotBenchConfig {
    fn default() -> Self {
        SnapshotBenchConfig {
            dataset_size: 20_000,
            shards: 2,
            cache_capacity: 4096,
        }
    }
}

/// Three-way cold-start timings: building a serving store from the
/// corpus (G2P pass + load + index builds), restoring it from the JSON
/// snapshot document (read + decode + validation + parallel index
/// rebuild), and mmapping the binary image (validate header/checksums,
/// serve directly from the mapping — index rebuilds deferred and timed
/// separately).
#[derive(Debug, Clone)]
pub struct SnapshotBenchReport {
    /// Actual number of names.
    pub dataset_size: usize,
    /// Store shards used on all sides.
    pub shards: usize,
    /// Host `available_parallelism` (bounds all sides equally).
    pub available_parallelism: usize,
    /// The G2P transform share of the corpus build, seconds.
    pub g2p_secs: f64,
    /// Full build-from-corpus cold start, seconds (G2P + bulk load +
    /// all three access-path builds).
    pub build_cold_start_secs: f64,
    /// Writing the JSON snapshot document, seconds.
    pub save_secs: f64,
    /// JSON snapshot size on disk, bytes.
    pub snapshot_bytes: u64,
    /// Full load-from-JSON cold start, seconds (read + decode +
    /// fingerprint/cluster validation + parallel index rebuild).
    pub snapshot_cold_start_secs: f64,
    /// `build_cold_start_secs / snapshot_cold_start_secs`.
    pub cold_start_speedup: f64,
    /// Writing the binary mmap image, seconds.
    pub mmap_save_secs: f64,
    /// Binary image size on disk, bytes.
    pub mmap_snapshot_bytes: u64,
    /// mmap + validate + serve-ready, seconds: after this the scan path
    /// answers MATCH straight out of the mapping.
    pub mmap_load_secs: f64,
    /// Rebuilding the recorded access paths afterwards, seconds (runs
    /// in the background in `lexequald`; measured synchronously here).
    pub mmap_build_secs: f64,
    /// `snapshot_cold_start_secs / mmap_load_secs` — how much faster
    /// the mapping reaches serve-ready than the JSON parse path.
    pub mmap_vs_json_speedup: f64,
    /// `build_cold_start_secs / mmap_load_secs`.
    pub mmap_cold_start_speedup: f64,
}

/// Run the cold-start comparison. The snapshot itself is written to a
/// temporary file and removed afterwards; only the timings survive.
pub fn run_snapshot_bench(config: &SnapshotBenchConfig) -> SnapshotBenchReport {
    let match_config = MatchConfig::default();

    // Side A: cold start from the corpus.
    let t0 = Instant::now();
    let dataset = build_dataset(&match_config, config.dataset_size);
    let g2p_secs = t0.elapsed().as_secs_f64();
    let service = MatchService::new(ServiceConfig {
        match_config: match_config.clone(),
        shards: config.shards,
        cache_capacity: config.cache_capacity,
    });
    let n = dataset.len();
    service.extend_transformed(dataset);
    service.build_all(3, QgramMode::Strict);
    let build_cold_start_secs = t0.elapsed().as_secs_f64();

    // Save both formats once (not part of any cold start).
    let json_path = std::env::temp_dir().join(format!(
        "lexequal_snapshot_bench_{}_{}.json",
        std::process::id(),
        config.dataset_size
    ));
    let mmap_path = std::env::temp_dir().join(format!(
        "lexequal_snapshot_bench_{}_{}.lexmm",
        std::process::id(),
        config.dataset_size
    ));
    let t1 = Instant::now();
    service
        .save_snapshot_with_lsn_format(&json_path, 0, SnapshotFormat::Json)
        .expect("save json snapshot");
    let save_secs = t1.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&json_path).map(|m| m.len()).unwrap_or(0);
    let t1m = Instant::now();
    service
        .save_snapshot_with_lsn_format(&mmap_path, 0, SnapshotFormat::Mmap)
        .expect("save mmap snapshot");
    let mmap_save_secs = t1m.elapsed().as_secs_f64();
    let mmap_snapshot_bytes = std::fs::metadata(&mmap_path).map(|m| m.len()).unwrap_or(0);
    drop(service);

    // Side B: cold start from the JSON document (parse + validate +
    // parallel index rebuild).
    let t2 = Instant::now();
    let loaded = MatchService::load_snapshot(
        match_config.clone(),
        None,
        config.cache_capacity,
        &json_path,
    )
    .expect("load json snapshot");
    let snapshot_cold_start_secs = t2.elapsed().as_secs_f64();
    assert_eq!(loaded.len(), n, "snapshot dropped names");
    drop(loaded);
    std::fs::remove_file(&json_path).ok();

    // Side C: mmap the binary image. Serve-ready (scan path live) and
    // the deferred index rebuilds are timed separately — `lexequald`
    // runs the latter in the background while already serving.
    let t3 = Instant::now();
    let mmap_loaded =
        MatchService::load_snapshot_auto(match_config, None, config.cache_capacity, &mmap_path)
            .expect("load mmap snapshot");
    let mmap_load_secs = t3.elapsed().as_secs_f64();
    assert_eq!(mmap_loaded.service.len(), n, "mmap image dropped names");
    let t4 = Instant::now();
    for spec in mmap_loaded.pending_builds {
        mmap_loaded.service.build(spec);
    }
    let mmap_build_secs = t4.elapsed().as_secs_f64();
    std::fs::remove_file(&mmap_path).ok();

    SnapshotBenchReport {
        dataset_size: n,
        shards: config.shards,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        g2p_secs,
        build_cold_start_secs,
        save_secs,
        snapshot_bytes,
        snapshot_cold_start_secs,
        cold_start_speedup: build_cold_start_secs / snapshot_cold_start_secs.max(f64::EPSILON),
        mmap_save_secs,
        mmap_snapshot_bytes,
        mmap_load_secs,
        mmap_build_secs,
        mmap_vs_json_speedup: snapshot_cold_start_secs / mmap_load_secs.max(f64::EPSILON),
        mmap_cold_start_speedup: build_cold_start_secs / mmap_load_secs.max(f64::EPSILON),
    }
}

/// Render the snapshot bench report as JSON.
pub fn snapshot_bench_to_json(report: &SnapshotBenchReport) -> Json {
    Json::Obj(vec![
        (
            "dataset_size".to_owned(),
            Json::Int(report.dataset_size as i64),
        ),
        ("shards".to_owned(), Json::Int(report.shards as i64)),
        (
            "available_parallelism".to_owned(),
            Json::Int(report.available_parallelism as i64),
        ),
        ("g2p_secs".to_owned(), Json::Float(report.g2p_secs)),
        (
            "build_cold_start_secs".to_owned(),
            Json::Float(report.build_cold_start_secs),
        ),
        ("save_secs".to_owned(), Json::Float(report.save_secs)),
        (
            "snapshot_bytes".to_owned(),
            Json::Int(report.snapshot_bytes as i64),
        ),
        (
            "snapshot_cold_start_secs".to_owned(),
            Json::Float(report.snapshot_cold_start_secs),
        ),
        (
            "cold_start_speedup".to_owned(),
            Json::Float(report.cold_start_speedup),
        ),
        (
            "mmap_save_secs".to_owned(),
            Json::Float(report.mmap_save_secs),
        ),
        (
            "mmap_snapshot_bytes".to_owned(),
            Json::Int(report.mmap_snapshot_bytes as i64),
        ),
        (
            "mmap_load_secs".to_owned(),
            Json::Float(report.mmap_load_secs),
        ),
        (
            "mmap_build_secs".to_owned(),
            Json::Float(report.mmap_build_secs),
        ),
        (
            "mmap_vs_json_speedup".to_owned(),
            Json::Float(report.mmap_vs_json_speedup),
        ),
        (
            "mmap_cold_start_speedup".to_owned(),
            Json::Float(report.mmap_cold_start_speedup),
        ),
    ])
}

/// Write the snapshot bench report to `path` as JSON.
pub fn write_snapshot_bench_json(
    report: &SnapshotBenchReport,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, snapshot_bench_to_json(report).render())
}

// ---------------------------------------------------------------------------
// Socket-level serving-mode comparison (`--net`)
// ---------------------------------------------------------------------------

/// What the socket-level bench measures.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Target synthetic lexicon size.
    pub dataset_size: usize,
    /// Concurrent TCP connection counts to compare.
    pub connections: Vec<usize>,
    /// Requests pipelined per window on each connection.
    pub pipeline: usize,
    /// Total requests each connection sends (rounded down to whole
    /// windows).
    pub ops_per_conn: usize,
    /// Client threads multiplexing the connections.
    pub client_threads: usize,
    /// Serve modes to compare.
    pub modes: Vec<ServeMode>,
    /// Verify workers for the evented mode.
    pub workers: usize,
    /// Access path under test.
    pub method: SearchMethod,
    /// Match threshold for every lookup.
    pub threshold: f64,
    /// Number of distinct hot queries in the shared pool.
    pub query_pool: usize,
    /// Transform-cache capacity.
    pub cache_capacity: usize,
    /// Store shards.
    pub shards: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            dataset_size: 20_000,
            connections: vec![64, 256, 1024],
            pipeline: 8,
            ops_per_conn: 32,
            client_threads: 4,
            modes: vec![ServeMode::Threaded, ServeMode::Evented],
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            method: SearchMethod::PhoneticIndex,
            threshold: 0.35,
            query_pool: 64,
            cache_capacity: 4096,
            shards: 2,
        }
    }
}

/// One (mode × connection count) cell of the socket bench.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// Serve mode measured.
    pub mode: ServeMode,
    /// Concurrent connections driven.
    pub connections: usize,
    /// Pipeline window depth per connection.
    pub pipeline: usize,
    /// Total MATCH requests completed.
    pub total_ops: usize,
    /// Wall-clock seconds for the measurement window (connect + drive).
    pub elapsed_secs: f64,
    /// Requests per second.
    pub throughput: f64,
    /// Median per-request latency, microseconds. Measured per pipelined
    /// window round-trip and divided by the window depth, so it is an
    /// amortized figure, not a single-request RTT.
    pub p50_us: f64,
    /// 95th percentile (same amortized basis).
    pub p95_us: f64,
    /// 99th percentile (same amortized basis).
    pub p99_us: f64,
    /// Server-reported peak concurrent connections (`STATS`).
    pub conns_peak: u64,
    /// Server-reported per-connection max pipeline depth (`STATS`).
    pub pipeline_max: u64,
    /// Server-reported verify-queue depth peak (`STATS`, evented only).
    pub queue_peak: u64,
    /// Server-reported batched-verifier steps across all shards (`STATS`).
    pub batch_calls: u64,
    /// Server-reported candidate lanes occupied across those steps
    /// (`STATS`); `batch_lanes_sum / batch_calls` is the mean fill.
    pub batch_lanes_sum: u64,
    /// Server-reported widest single batched step (`STATS`).
    pub batch_lanes_max: u64,
    /// Server-reported SIMD dispatch level for the batched DP drain
    /// (`STATS`): `avx2`, `sse2`, or `scalar`.
    pub simd: String,
}

/// The full socket-bench report.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Actual number of names loaded into each server.
    pub dataset_size: usize,
    /// Host `available_parallelism` — everything below time-slices it.
    pub available_parallelism: usize,
    /// Client threads multiplexing the sockets.
    pub client_threads: usize,
    /// Access path measured.
    pub method: SearchMethod,
    /// One entry per (mode × connection count), modes outermost.
    pub runs: Vec<NetRun>,
}

/// Pull a `key=value` integer out of a STATS line.
fn stat_u64(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Pull a `key=value` string out of a STATS line.
fn stat_str(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or("")
        .to_owned()
}

/// Drive one (mode × connection count) cell against a fresh server.
pub fn run_net_one(
    config: &NetConfig,
    mode: ServeMode,
    conns: usize,
    dataset: &[NameEntry],
) -> NetRun {
    let service = Arc::new(MatchService::new(ServiceConfig {
        match_config: MatchConfig::default(),
        shards: config.shards,
        cache_capacity: config.cache_capacity,
    }));
    service.extend_transformed(dataset.to_vec());
    match config.method {
        SearchMethod::Scan => {}
        SearchMethod::Qgram => service.build(BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        }),
        SearchMethod::PhoneticIndex => service.build(BuildSpec::PhoneticIndex),
        SearchMethod::BkTree => service.build(BuildSpec::BkTree),
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind bench listener");
    let addr = listener.local_addr().expect("listener addr");
    let shutdown = ShutdownSignal::new().expect("shutdown signal");
    let opts = ServeOptions {
        workers: config.workers,
        // Leave the window wider than the client's so server-side
        // backpressure never throttles the measurement itself.
        max_pipeline: (2 * config.pipeline).max(16),
        ..ServeOptions::default()
    };
    let server = {
        let shutdown = shutdown.clone();
        std::thread::spawn(move || serve_with(mode, listener, service, opts, shutdown))
    };

    // Pre-render the request lines clients cycle through.
    let stride = (dataset.len() / config.query_pool.max(1)).max(1);
    let method = crate::metrics::method_name(config.method);
    let pool: Vec<String> = dataset
        .iter()
        .step_by(stride)
        .take(config.query_pool.max(1))
        .map(|e| {
            format!(
                "MATCH {} {} {} {}\n",
                e.language, method, config.threshold, e.text
            )
        })
        .collect();

    let windows = (config.ops_per_conn / config.pipeline).max(1);
    let threads = config.client_threads.max(1);
    let start = Instant::now();
    let mut window_ns: Vec<u64> = Vec::with_capacity(conns * windows);
    let mut total_ops = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let pool = &pool;
                scope.spawn(move || {
                    let my_conns = (t..conns).step_by(threads).count();
                    let mut socks = Vec::with_capacity(my_conns);
                    for _ in 0..my_conns {
                        let stream = TcpStream::connect(addr).expect("connect bench conn");
                        stream.set_nodelay(true).expect("nodelay");
                        let reader = BufReader::new(stream.try_clone().expect("clone"));
                        socks.push((stream, reader));
                    }
                    let mut ns = Vec::with_capacity(my_conns * windows);
                    let mut ops = 0usize;
                    let mut line = String::new();
                    for w in 0..windows {
                        // Lock-step: write every connection's window, then
                        // collect every connection's responses. While one
                        // socket waits the server is busy with the others,
                        // so all `conns` stay concurrently in flight.
                        let mut starts = Vec::with_capacity(socks.len());
                        for (i, (stream, _)) in socks.iter_mut().enumerate() {
                            let mut batch = String::new();
                            for k in 0..config.pipeline {
                                batch.push_str(&pool[(t + i + w + k) % pool.len()]);
                            }
                            starts.push(Instant::now());
                            stream.write_all(batch.as_bytes()).expect("write window");
                        }
                        for (i, (_, reader)) in socks.iter_mut().enumerate() {
                            for _ in 0..config.pipeline {
                                line.clear();
                                reader.read_line(&mut line).expect("read response");
                                assert!(
                                    line.starts_with("OK ") || line.starts_with("NO"),
                                    "bench got {line:?}"
                                );
                                ops += 1;
                            }
                            ns.push(starts[i].elapsed().as_nanos() as u64);
                        }
                    }
                    (ns, ops)
                })
            })
            .collect();
        for h in handles {
            let (ns, ops) = h.join().expect("bench client thread");
            window_ns.extend(ns);
            total_ops += ops;
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    // Scrape the server's own gauges before shutting it down.
    let stats_line = {
        let stream = TcpStream::connect(addr).expect("connect stats conn");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut s = stream;
        s.write_all(b"STATS\nQUIT\n").expect("write stats");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read stats");
        line
    };
    shutdown.trigger();
    server.join().expect("server thread").expect("serve loop");

    window_ns.sort_unstable();
    let per_op = |p: f64| percentile_us(&window_ns, p) / config.pipeline as f64;
    NetRun {
        mode,
        connections: conns,
        pipeline: config.pipeline,
        total_ops,
        elapsed_secs: elapsed,
        throughput: total_ops as f64 / elapsed.max(f64::EPSILON),
        p50_us: per_op(0.50),
        p95_us: per_op(0.95),
        p99_us: per_op(0.99),
        conns_peak: stat_u64(&stats_line, "conns_peak"),
        pipeline_max: stat_u64(&stats_line, "pipeline_max"),
        queue_peak: stat_u64(&stats_line, "queue_peak"),
        batch_calls: stat_u64(&stats_line, "batch_calls"),
        batch_lanes_sum: stat_u64(&stats_line, "batch_lanes_sum"),
        batch_lanes_max: stat_u64(&stats_line, "batch_lanes_max"),
        simd: stat_str(&stats_line, "simd"),
    }
}

/// Run the whole serving-mode comparison.
pub fn run_net(config: &NetConfig) -> NetReport {
    let dataset = build_dataset(&MatchConfig::default(), config.dataset_size);
    let mut runs = Vec::new();
    for &mode in &config.modes {
        for &conns in &config.connections {
            eprintln!("loadgen: net {} x {conns} connections...", mode.name());
            runs.push(run_net_one(config, mode, conns, &dataset));
        }
    }
    NetReport {
        dataset_size: dataset.len(),
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        client_threads: config.client_threads,
        method: config.method,
        runs,
    }
}

/// Render the socket-bench report as JSON.
pub fn net_to_json(report: &NetReport) -> Json {
    Json::Obj(vec![
        (
            "dataset_size".to_owned(),
            Json::Int(report.dataset_size as i64),
        ),
        (
            "available_parallelism".to_owned(),
            Json::Int(report.available_parallelism as i64),
        ),
        (
            "client_threads".to_owned(),
            Json::Int(report.client_threads as i64),
        ),
        (
            "method".to_owned(),
            Json::Str(crate::metrics::method_name(report.method).to_owned()),
        ),
        (
            "latency_note".to_owned(),
            Json::Str(
                "latencies are window round-trips divided by pipeline depth (amortized)".to_owned(),
            ),
        ),
        (
            "runs".to_owned(),
            Json::Arr(
                report
                    .runs
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("mode".to_owned(), Json::Str(r.mode.name().to_owned())),
                            ("connections".to_owned(), Json::Int(r.connections as i64)),
                            ("pipeline".to_owned(), Json::Int(r.pipeline as i64)),
                            ("total_ops".to_owned(), Json::Int(r.total_ops as i64)),
                            ("elapsed_secs".to_owned(), Json::Float(r.elapsed_secs)),
                            ("throughput".to_owned(), Json::Float(r.throughput)),
                            ("p50_us".to_owned(), Json::Float(r.p50_us)),
                            ("p95_us".to_owned(), Json::Float(r.p95_us)),
                            ("p99_us".to_owned(), Json::Float(r.p99_us)),
                            ("conns_peak".to_owned(), Json::Int(r.conns_peak as i64)),
                            ("pipeline_max".to_owned(), Json::Int(r.pipeline_max as i64)),
                            ("queue_peak".to_owned(), Json::Int(r.queue_peak as i64)),
                            ("batch_calls".to_owned(), Json::Int(r.batch_calls as i64)),
                            (
                                "batch_lanes_sum".to_owned(),
                                Json::Int(r.batch_lanes_sum as i64),
                            ),
                            (
                                "batch_lanes_max".to_owned(),
                                Json::Int(r.batch_lanes_max as i64),
                            ),
                            ("simd".to_owned(), Json::Str(r.simd.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Write the socket-bench report to `path` as JSON.
pub fn write_net_json(report: &NetReport, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, net_to_json(report).render())
}

// ---------------------------------------------------------------------------
// Replication apply/lag measurement (`--repl-bench`)
// ---------------------------------------------------------------------------

/// What the replication bench measures.
#[derive(Debug, Clone)]
pub struct ReplBenchConfig {
    /// Names preloaded into the primary before the replica attaches
    /// (they travel in the initial snapshot transfer).
    pub dataset_size: usize,
    /// Mutations committed through the WAL while the replica streams.
    pub ops: usize,
    /// Store shards on both sides.
    pub shards: usize,
    /// Transform-cache capacity.
    pub cache_capacity: usize,
}

impl Default for ReplBenchConfig {
    fn default() -> Self {
        ReplBenchConfig {
            dataset_size: 20_000,
            ops: 2_000,
            shards: 2,
            cache_capacity: 4096,
        }
    }
}

/// Replication timings: a real primary (WAL + replication listener) and
/// a real replica linked over a socket, measuring the snapshot transfer,
/// the primary's fsynced commit rate, the replica's apply rate, and the
/// lag the stream sustains while commits flow.
#[derive(Debug, Clone)]
pub struct ReplBenchReport {
    /// Names in the initial snapshot transfer.
    pub dataset_size: usize,
    /// Streamed mutations measured.
    pub ops: usize,
    /// Store shards on both sides.
    pub shards: usize,
    /// Host `available_parallelism` (primary, replica and bench driver
    /// all time-slice it).
    pub available_parallelism: usize,
    /// Initial sync wall-clock, seconds (connect + snapshot transfer +
    /// restore + index rebuild).
    pub sync_secs: f64,
    /// Primary-side committed mutations per second (validate + WAL
    /// append + fsync + apply, serialized on the commit lock).
    pub commit_ops_per_sec: f64,
    /// Replica-side applied ops per second over the same window
    /// (first commit until the replica reports zero lag).
    pub apply_ops_per_sec: f64,
    /// How long the replica needed to drain the residual lag after the
    /// last commit, milliseconds.
    pub catch_up_ms: f64,
    /// Median sampled lag (LSNs behind) while commits flowed.
    pub lag_p50: u64,
    /// Worst sampled lag while commits flowed.
    pub lag_max: u64,
    /// Lag after catch-up (must be 0 for a healthy stream).
    pub final_lag: u64,
}

/// Run the replication bench. The WAL lives in a temporary file and is
/// removed afterwards; only the timings survive.
pub fn run_repl_bench(config: &ReplBenchConfig) -> ReplBenchReport {
    use crate::metrics::WalMetrics;
    use crate::repl::{self, ReplicaState, Replicator};
    use crate::wal::Wal;
    use std::sync::atomic::{AtomicBool, Ordering};

    let match_config = MatchConfig::default();
    // One corpus: the head seeds the primary (and travels in the
    // snapshot), the tail becomes the streamed commits. Every entry is
    // a real G2P-transformable name, so commits never fail validation.
    let dataset = build_dataset(&match_config, config.dataset_size + config.ops);
    let ops = config.ops.min(dataset.len().saturating_sub(1)).max(1);
    let (base, tail) = dataset.split_at(dataset.len() - ops);

    let primary = Arc::new(MatchService::new(ServiceConfig {
        match_config: match_config.clone(),
        shards: config.shards,
        cache_capacity: config.cache_capacity,
    }));
    primary.extend_transformed(base.to_vec());
    primary.build_all(3, QgramMode::Strict);

    let wal_path =
        std::env::temp_dir().join(format!("lexequal_repl_bench_{}.wal", std::process::id()));
    std::fs::remove_file(&wal_path).ok();
    let metrics = Arc::new(WalMetrics::default());
    let (wal, _) = Wal::open(&wal_path, 0, Arc::clone(&metrics)).expect("open bench wal");
    let replicator = Replicator::new(wal, metrics);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind repl listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let shutdown = ShutdownSignal::new().expect("shutdown signal");
    let accept = {
        let primary = Arc::clone(&primary);
        let replicator = Arc::clone(&replicator);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            repl::serve_repl_listener(listener, primary, replicator, shutdown)
        })
    };

    // Fresh replica: HELLO 0 forces the full snapshot transfer.
    let state = Arc::new(ReplicaState::new(addr.clone()));
    let t_sync = Instant::now();
    let (replica, stream, reader) = repl::initial_sync(
        &addr,
        &match_config,
        Some(config.shards),
        config.cache_capacity,
        &state,
        &shutdown,
    )
    .expect("initial sync");
    let sync_secs = t_sync.elapsed().as_secs_f64();
    let replica = Arc::new(replica);
    let apply = {
        let replica = Arc::clone(&replica);
        let state = Arc::clone(&state);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            repl::run_replica(&replica, &state, Some((stream, reader)), &shutdown)
        })
    };

    // Sample the replica's lag while commits flow.
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler = {
        let state = Arc::clone(&state);
        let sampling = Arc::clone(&sampling);
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            while sampling.load(Ordering::Acquire) {
                samples.push(state.lag());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            samples
        })
    };

    let t_commit = Instant::now();
    for entry in tail {
        replicator
            .commit_add(&primary, &entry.text, entry.language)
            .expect("bench commit");
    }
    let commit_secs = t_commit.elapsed().as_secs_f64();

    // Drain: the stream is healthy only if lag really reaches zero.
    let head = replicator.head();
    let t_drain = Instant::now();
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    while state.applied() < head {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let catch_up_ms = t_drain.elapsed().as_secs_f64() * 1_000.0;
    let apply_secs = t_commit.elapsed().as_secs_f64();
    sampling.store(false, Ordering::Release);
    let mut samples = sampler.join().expect("lag sampler");
    samples.sort_unstable();
    let final_lag = state.lag();

    shutdown.trigger();
    replicator.stop_and_join();
    let _ = apply.join().expect("apply thread");
    let _ = accept.join().expect("accept thread");
    std::fs::remove_file(&wal_path).ok();

    ReplBenchReport {
        dataset_size: base.len(),
        ops,
        shards: config.shards,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        sync_secs,
        commit_ops_per_sec: ops as f64 / commit_secs.max(f64::EPSILON),
        apply_ops_per_sec: ops as f64 / apply_secs.max(f64::EPSILON),
        catch_up_ms,
        lag_p50: samples.get(samples.len() / 2).copied().unwrap_or(0),
        lag_max: samples.last().copied().unwrap_or(0),
        final_lag,
    }
}

/// Render the replication bench report as JSON.
pub fn repl_bench_to_json(report: &ReplBenchReport) -> Json {
    Json::Obj(vec![
        (
            "dataset_size".to_owned(),
            Json::Int(report.dataset_size as i64),
        ),
        ("ops".to_owned(), Json::Int(report.ops as i64)),
        ("shards".to_owned(), Json::Int(report.shards as i64)),
        (
            "available_parallelism".to_owned(),
            Json::Int(report.available_parallelism as i64),
        ),
        ("sync_secs".to_owned(), Json::Float(report.sync_secs)),
        (
            "commit_ops_per_sec".to_owned(),
            Json::Float(report.commit_ops_per_sec),
        ),
        (
            "apply_ops_per_sec".to_owned(),
            Json::Float(report.apply_ops_per_sec),
        ),
        ("catch_up_ms".to_owned(), Json::Float(report.catch_up_ms)),
        ("lag_p50".to_owned(), Json::Int(report.lag_p50 as i64)),
        ("lag_max".to_owned(), Json::Int(report.lag_max as i64)),
        ("final_lag".to_owned(), Json::Int(report.final_lag as i64)),
    ])
}

/// Write the replication bench report to `path` as JSON.
pub fn write_repl_bench_json(
    report: &ReplBenchReport,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, repl_bench_to_json(report).render())
}

// ---------------------------------------------------------------------------
// WAL compaction soak (`--compaction-bench`)
// ---------------------------------------------------------------------------

/// What the compaction soak measures.
#[derive(Debug, Clone)]
pub struct CompactionBenchConfig {
    /// Names preloaded into the primary before the replica attaches.
    pub dataset_size: usize,
    /// Mutations committed through the WAL while the compactor runs.
    pub ops: usize,
    /// Byte threshold handed to the background compactor — kept tiny so
    /// the soak crosses it many times.
    pub wal_max_bytes: u64,
    /// Store shards on both sides.
    pub shards: usize,
    /// Transform-cache capacity.
    pub cache_capacity: usize,
    /// Lookups in the primary-vs-replica verification battery.
    pub battery: usize,
}

impl Default for CompactionBenchConfig {
    fn default() -> Self {
        CompactionBenchConfig {
            dataset_size: 3_000,
            ops: 2_000,
            wal_max_bytes: 32 * 1024,
            shards: 2,
            cache_capacity: 4096,
            battery: 64,
        }
    }
}

/// The compaction soak report: a WAL-bounded primary with a live
/// streaming replica, committing through several checkpoint-and-truncate
/// cycles and then proving the replica converged (lag 0, battery of
/// identical lookups).
#[derive(Debug, Clone)]
pub struct CompactionBenchReport {
    /// Names in the initial snapshot transfer.
    pub dataset_size: usize,
    /// Streamed mutations committed.
    pub ops: usize,
    /// Compactor byte threshold.
    pub wal_max_bytes: u64,
    /// Store shards on both sides.
    pub shards: usize,
    /// Checkpoint-and-truncate cycles that actually dropped records.
    pub compactions: u64,
    /// LSN the last durable checkpoint covers.
    pub checkpoint_lsn: u64,
    /// Snapshot re-seeds served (0 here: the replica never lapses).
    pub reseeds: u64,
    /// Total record bytes appended over the run — what an unbounded log
    /// would have held (magic excluded).
    pub bytes_appended: u64,
    /// Largest sampled live log size, bytes.
    pub wal_bytes_peak: u64,
    /// Live log size after the final cycle, bytes.
    pub wal_bytes_final: u64,
    /// Primary-side committed mutations per second while compaction
    /// cycles ran underneath.
    pub commit_ops_per_sec: f64,
    /// Replica lag after the drain (must be 0).
    pub final_lag: u64,
    /// Lookups compared primary-vs-replica.
    pub battery_queries: usize,
    /// Compared lookups whose id sets differed (must be 0).
    pub battery_mismatches: usize,
}

/// Run the compaction soak. The WAL and its checkpoint live in
/// temporary files and are removed afterwards; only the numbers survive.
pub fn run_compaction_bench(config: &CompactionBenchConfig) -> CompactionBenchReport {
    use crate::metrics::WalMetrics;
    use crate::repl::{self, CompactionPolicy, ReplicaState, Replicator};
    use crate::wal::Wal;
    use std::sync::atomic::{AtomicBool, Ordering};

    let match_config = MatchConfig::default();
    let dataset = build_dataset(&match_config, config.dataset_size + config.ops);
    let ops = config.ops.min(dataset.len().saturating_sub(1)).max(1);
    let (base, tail) = dataset.split_at(dataset.len() - ops);

    let primary = Arc::new(MatchService::new(ServiceConfig {
        match_config: match_config.clone(),
        shards: config.shards,
        cache_capacity: config.cache_capacity,
    }));
    primary.extend_transformed(base.to_vec());
    primary.build_all(3, QgramMode::Strict);

    let wal_path = std::env::temp_dir().join(format!(
        "lexequal_compaction_bench_{}.wal",
        std::process::id()
    ));
    let checkpoint_path = wal_path.with_extension("wal.checkpoint");
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&checkpoint_path).ok();
    let metrics = Arc::new(WalMetrics::default());
    let (wal, _) = Wal::open(&wal_path, 0, Arc::clone(&metrics)).expect("open bench wal");
    let replicator = Replicator::new(wal, metrics);
    replicator.set_compaction_policy(CompactionPolicy {
        checkpoint: Some(checkpoint_path.clone()),
        max_bytes: Some(config.wal_max_bytes),
        grace: std::time::Duration::from_secs(10),
    });

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind repl listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let shutdown = ShutdownSignal::new().expect("shutdown signal");
    let accept = {
        let primary = Arc::clone(&primary);
        let replicator = Arc::clone(&replicator);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            repl::serve_repl_listener(listener, primary, replicator, shutdown)
        })
    };
    replicator.adopt_thread(repl::spawn_compactor(
        Arc::clone(&replicator),
        Arc::clone(&primary),
        shutdown.clone(),
    ));

    let state = Arc::new(ReplicaState::new(addr.clone()));
    let (replica, stream, reader) = repl::initial_sync(
        &addr,
        &match_config,
        Some(config.shards),
        config.cache_capacity,
        &state,
        &shutdown,
    )
    .expect("initial sync");
    let replica = Arc::new(replica);
    let apply = {
        let replica = Arc::clone(&replica);
        let state = Arc::clone(&state);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            repl::run_replica(&replica, &state, Some((stream, reader)), &shutdown)
        })
    };

    // Sample the live log size while commits and compaction cycles race:
    // the peak is the bound the soak proves.
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler = {
        let replicator = Arc::clone(&replicator);
        let sampling = Arc::clone(&sampling);
        std::thread::spawn(move || {
            let mut peak = 0u64;
            while sampling.load(Ordering::Acquire) {
                peak = peak.max(replicator.live_bytes());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak
        })
    };

    let t_commit = Instant::now();
    for entry in tail {
        replicator
            .commit_add(&primary, &entry.text, entry.language)
            .expect("bench commit");
    }
    let commit_secs = t_commit.elapsed().as_secs_f64();

    // Drain: the replica must reach the head even though the log prefix
    // it streamed from kept disappearing underneath it.
    let head = replicator.head();
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    while state.applied() < head {
        assert!(
            Instant::now() < deadline,
            "replica never caught up past compaction"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Let the compactor finish the cycle for the final burst before the
    // peak/final byte readings settle.
    let settle = Instant::now() + std::time::Duration::from_secs(5);
    while replicator.live_bytes() > config.wal_max_bytes && Instant::now() < settle {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    sampling.store(false, Ordering::Release);
    let wal_bytes_peak = sampler.join().expect("byte sampler");
    let final_lag = state.lag();

    // Converged means *answers*, not just LSNs: the same battery of
    // lookups must return the same ids on both sides.
    let battery = config.battery.min(dataset.len()).max(1);
    let stride = (dataset.len() / battery).max(1);
    let mut battery_queries = 0usize;
    let mut battery_mismatches = 0usize;
    for entry in dataset.iter().step_by(stride).take(battery) {
        let req = MatchRequest::new(&entry.text, entry.language);
        let a = match primary.lookup(&req) {
            MatchOutcome::Matches { ids, .. } => ids,
            other => panic!("primary battery lookup failed: {other:?}"),
        };
        let b = match replica.lookup(&req) {
            MatchOutcome::Matches { ids, .. } => ids,
            other => panic!("replica battery lookup failed: {other:?}"),
        };
        battery_queries += 1;
        if a != b {
            battery_mismatches += 1;
        }
    }

    let report = CompactionBenchReport {
        dataset_size: base.len(),
        ops,
        wal_max_bytes: config.wal_max_bytes,
        shards: config.shards,
        compactions: replicator.compactions(),
        checkpoint_lsn: replicator.checkpoint_lsn(),
        reseeds: replicator.reseeds(),
        bytes_appended: replicator.wal_stats().bytes,
        wal_bytes_peak,
        wal_bytes_final: replicator.live_bytes(),
        commit_ops_per_sec: ops as f64 / commit_secs.max(f64::EPSILON),
        final_lag,
        battery_queries,
        battery_mismatches,
    };

    shutdown.trigger();
    replicator.stop_and_join();
    let _ = apply.join().expect("apply thread");
    let _ = accept.join().expect("accept thread");
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&checkpoint_path).ok();
    report
}

/// Render the compaction soak report as JSON.
pub fn compaction_bench_to_json(report: &CompactionBenchReport) -> Json {
    Json::Obj(vec![
        (
            "dataset_size".to_owned(),
            Json::Int(report.dataset_size as i64),
        ),
        ("ops".to_owned(), Json::Int(report.ops as i64)),
        (
            "wal_max_bytes".to_owned(),
            Json::Int(report.wal_max_bytes as i64),
        ),
        ("shards".to_owned(), Json::Int(report.shards as i64)),
        (
            "compactions".to_owned(),
            Json::Int(report.compactions as i64),
        ),
        (
            "checkpoint_lsn".to_owned(),
            Json::Int(report.checkpoint_lsn as i64),
        ),
        ("reseeds".to_owned(), Json::Int(report.reseeds as i64)),
        (
            "bytes_appended".to_owned(),
            Json::Int(report.bytes_appended as i64),
        ),
        (
            "wal_bytes_peak".to_owned(),
            Json::Int(report.wal_bytes_peak as i64),
        ),
        (
            "wal_bytes_final".to_owned(),
            Json::Int(report.wal_bytes_final as i64),
        ),
        (
            "commit_ops_per_sec".to_owned(),
            Json::Float(report.commit_ops_per_sec),
        ),
        ("final_lag".to_owned(), Json::Int(report.final_lag as i64)),
        (
            "battery_queries".to_owned(),
            Json::Int(report.battery_queries as i64),
        ),
        (
            "battery_mismatches".to_owned(),
            Json::Int(report.battery_mismatches as i64),
        ),
    ])
}

/// Write the compaction soak report to `path` as JSON.
pub fn write_compaction_bench_json(
    report: &CompactionBenchReport,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, compaction_bench_to_json(report).render())
}

// ---------------------------------------------------------------------------
// Untagged-query bench (`--untagged-bench`)
// ---------------------------------------------------------------------------

/// What the untagged (mixed-script) bench measures.
#[derive(Debug, Clone)]
pub struct UntaggedBenchConfig {
    /// Target synthetic lexicon size.
    pub dataset_size: usize,
    /// Store shards.
    pub shards: usize,
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Lookups each client performs.
    pub ops_per_client: usize,
    /// Percentage of ops issued *untagged* (`MATCH -` semantics), 0–100.
    pub untagged_pct: usize,
    /// Access path under test.
    pub method: SearchMethod,
    /// Match threshold for every lookup.
    pub threshold: f64,
    /// Transform-cache capacity.
    pub cache_capacity: usize,
    /// Number of distinct hot queries in the shared pool.
    pub query_pool: usize,
}

impl Default for UntaggedBenchConfig {
    fn default() -> Self {
        UntaggedBenchConfig {
            dataset_size: 20_000,
            shards: 2,
            clients: 4,
            ops_per_client: 250,
            untagged_pct: 50,
            method: SearchMethod::Qgram,
            threshold: 0.35,
            cache_capacity: 4096,
            query_pool: 64,
        }
    }
}

/// The untagged bench report: tagged-vs-untagged latency side by side,
/// plus the router's own counters (fan-out width, dedupe, NORESOURCE).
#[derive(Debug, Clone)]
pub struct UntaggedBenchReport {
    /// Actual number of names loaded.
    pub dataset_size: usize,
    /// Host `available_parallelism`.
    pub available_parallelism: usize,
    /// Store shards used.
    pub shards: usize,
    /// Client threads used.
    pub clients: usize,
    /// Configured untagged share, percent.
    pub untagged_pct: usize,
    /// Tagged lookups performed.
    pub tagged_ops: usize,
    /// Untagged lookups performed.
    pub untagged_ops: usize,
    /// Wall-clock seconds for the measurement window.
    pub elapsed_secs: f64,
    /// All lookups per second (both kinds).
    pub throughput: f64,
    /// Tagged median / p95 per-op latency, microseconds.
    pub tagged_p50_us: f64,
    /// Tagged 95th percentile, microseconds.
    pub tagged_p95_us: f64,
    /// Untagged median latency, microseconds — the fan-out overhead shows
    /// up as the gap against `tagged_p50_us`.
    pub untagged_p50_us: f64,
    /// Untagged 95th percentile, microseconds.
    pub untagged_p95_us: f64,
    /// Final untagged-subsystem counters from the service.
    pub untagged: crate::metrics::UntaggedStats,
}

/// Fixed foreign-script probes folded into the untagged stream so the
/// bench also exercises single-converter routing (Cyrillic, Greek,
/// Kana) and the `NORESOURCE` path (Hangul, Thai) — the synthetic
/// lexicon alone is Latin/Devanagari/Tamil.
const UNTAGGED_PROBES: [&str; 5] = ["Неру", "Νερού", "ネルー", "네루", "เนห์รู"];

/// Run the mixed tagged/untagged workload against one service.
pub fn run_untagged_bench(config: &UntaggedBenchConfig) -> UntaggedBenchReport {
    let dataset = build_dataset(&MatchConfig::default(), config.dataset_size);
    let service = Arc::new(MatchService::new(ServiceConfig {
        match_config: MatchConfig::default(),
        shards: config.shards,
        cache_capacity: config.cache_capacity,
    }));
    service.extend_transformed(dataset.to_vec());
    match config.method {
        SearchMethod::Scan => {}
        SearchMethod::Qgram => service.build(BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        }),
        SearchMethod::PhoneticIndex => service.build(BuildSpec::PhoneticIndex),
        SearchMethod::BkTree => service.build(BuildSpec::BkTree),
    }

    let stride = (dataset.len() / config.query_pool.max(1)).max(1);
    let pool: Vec<(String, lexequal::Language)> = dataset
        .iter()
        .step_by(stride)
        .take(config.query_pool.max(1))
        .map(|e| (e.text.clone(), e.language))
        .collect();

    let start = Instant::now();
    let mut tagged_ns: Vec<u64> = Vec::new();
    let mut untagged_ns: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|c| {
                let service = Arc::clone(&service);
                let pool = &pool;
                scope.spawn(move || {
                    let mut tagged = Vec::new();
                    let mut untagged = Vec::new();
                    let mut u = 0usize; // untagged ops issued so far
                    for i in 0..config.ops_per_client {
                        let (text, language) = &pool[(c + i) % pool.len()];
                        // Deterministic interleave at the configured
                        // ratio, exact at any op count (Bresenham).
                        let k = c + i;
                        if (k + 1) * config.untagged_pct / 100 > k * config.untagged_pct / 100 {
                            // Every 4th untagged op probes a foreign
                            // script instead of a stored name, cycling
                            // the whole probe set.
                            let text = if u % 4 == 3 {
                                UNTAGGED_PROBES[(c + u / 4) % UNTAGGED_PROBES.len()].to_owned()
                            } else {
                                text.clone()
                            };
                            u += 1;
                            let req = AutoMatchRequest {
                                text,
                                threshold: Some(config.threshold),
                                method: Some(config.method),
                            };
                            let t = Instant::now();
                            let _ = service.lookup_auto(&req);
                            untagged.push(t.elapsed().as_nanos() as u64);
                        } else {
                            let req = MatchRequest {
                                text: text.clone(),
                                language: *language,
                                threshold: Some(config.threshold),
                                method: Some(config.method),
                            };
                            let t = Instant::now();
                            let _ = service.lookup(&req);
                            tagged.push(t.elapsed().as_nanos() as u64);
                        }
                    }
                    (tagged, untagged)
                })
            })
            .collect();
        for h in handles {
            let (t, u) = h.join().expect("client thread");
            tagged_ns.extend(t);
            untagged_ns.extend(u);
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    tagged_ns.sort_unstable();
    untagged_ns.sort_unstable();
    let total = tagged_ns.len() + untagged_ns.len();

    UntaggedBenchReport {
        dataset_size: dataset.len(),
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        shards: config.shards,
        clients: config.clients,
        untagged_pct: config.untagged_pct,
        tagged_ops: tagged_ns.len(),
        untagged_ops: untagged_ns.len(),
        elapsed_secs: elapsed,
        throughput: total as f64 / elapsed.max(f64::EPSILON),
        tagged_p50_us: percentile_us(&tagged_ns, 0.50),
        tagged_p95_us: percentile_us(&tagged_ns, 0.95),
        untagged_p50_us: percentile_us(&untagged_ns, 0.50),
        untagged_p95_us: percentile_us(&untagged_ns, 0.95),
        untagged: service.stats().untagged,
    }
}

/// Render the untagged bench report as JSON.
pub fn untagged_bench_to_json(report: &UntaggedBenchReport) -> Json {
    let per_script: Vec<(String, Json)> = lexequal_g2p::Script::ALL
        .iter()
        .filter(|s| report.untagged.per_script[s.index()] > 0)
        .map(|s| {
            (
                s.name().to_owned(),
                Json::Int(report.untagged.per_script[s.index()] as i64),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "dataset_size".to_owned(),
            Json::Int(report.dataset_size as i64),
        ),
        (
            "available_parallelism".to_owned(),
            Json::Int(report.available_parallelism as i64),
        ),
        ("shards".to_owned(), Json::Int(report.shards as i64)),
        ("clients".to_owned(), Json::Int(report.clients as i64)),
        (
            "untagged_pct".to_owned(),
            Json::Int(report.untagged_pct as i64),
        ),
        ("tagged_ops".to_owned(), Json::Int(report.tagged_ops as i64)),
        (
            "untagged_ops".to_owned(),
            Json::Int(report.untagged_ops as i64),
        ),
        ("elapsed_secs".to_owned(), Json::Float(report.elapsed_secs)),
        ("throughput".to_owned(), Json::Float(report.throughput)),
        (
            "tagged_p50_us".to_owned(),
            Json::Float(report.tagged_p50_us),
        ),
        (
            "tagged_p95_us".to_owned(),
            Json::Float(report.tagged_p95_us),
        ),
        (
            "untagged_p50_us".to_owned(),
            Json::Float(report.untagged_p50_us),
        ),
        (
            "untagged_p95_us".to_owned(),
            Json::Float(report.untagged_p95_us),
        ),
        (
            "untagged_requests".to_owned(),
            Json::Int(report.untagged.requests as i64),
        ),
        (
            "fanout_width_sum".to_owned(),
            Json::Int(report.untagged.fanout_width_sum as i64),
        ),
        (
            "fanout_width_max".to_owned(),
            Json::Int(report.untagged.fanout_width_max as i64),
        ),
        (
            "dedup_hits".to_owned(),
            Json::Int(report.untagged.dedup_hits as i64),
        ),
        (
            "no_resource".to_owned(),
            Json::Int(report.untagged.no_resource as i64),
        ),
        ("per_script".to_owned(), Json::Obj(per_script)),
    ])
}

/// Write the untagged bench report to `path` as JSON.
pub fn write_untagged_bench_json(
    report: &UntaggedBenchReport,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, untagged_bench_to_json(report).render())
}

// ---------------------------------------------------------------------------
// Embedding prefilter A/B (`--prefilter-bench`)
// ---------------------------------------------------------------------------

/// What the embedding-prefilter A/B bench measures.
#[derive(Debug, Clone)]
pub struct PrefilterBenchConfig {
    /// Target synthetic lexicon size.
    pub dataset_size: usize,
    /// Distinct queries driven through each store (sampled from the
    /// stored names, so every query has at least one true match).
    pub queries: usize,
    /// Match thresholds to sweep (the paper's operating range).
    pub thresholds: Vec<f64>,
    /// Store shards.
    pub shards: usize,
    /// Transform-cache capacity.
    pub cache_capacity: usize,
}

impl Default for PrefilterBenchConfig {
    fn default() -> Self {
        PrefilterBenchConfig {
            dataset_size: 20_000,
            queries: 64,
            thresholds: vec![0.25, 0.35, 0.45],
            shards: 2,
            cache_capacity: 4096,
        }
    }
}

/// One (cost model × threshold) cell: the same scan-path workload run
/// with the embedding screen on and off, answers asserted identical.
#[derive(Debug, Clone)]
pub struct PrefilterCell {
    /// `"clustered"` or `"feature"`.
    pub cost_model: &'static str,
    /// Match threshold.
    pub threshold: f64,
    /// Verified pairs per side (queries × dataset on the scan path).
    pub pairs: u64,
    /// Pairs the screen examined (candidate embedding present, scale
    /// sound): `embed_accept + embed_reject`.
    pub embed_examined: u64,
    /// Pairs the screen rejected before any Myers screen.
    pub embed_reject: u64,
    /// `embed_reject / embed_examined` (0 when nothing was examined).
    pub reject_rate: f64,
    /// Full-DP count with the screen on / off — the screen's value is
    /// the work it keeps out of the later stages.
    pub full_dp_on: u64,
    /// Full-DP count with the screen off.
    pub full_dp_off: u64,
    /// Wall-clock seconds for the screened side.
    pub elapsed_on_secs: f64,
    /// Wall-clock seconds for the unscreened side.
    pub elapsed_off_secs: f64,
    /// Total matching ids returned (identical on both sides).
    pub matches: u64,
}

/// The prefilter bench report.
#[derive(Debug, Clone)]
pub struct PrefilterBenchReport {
    /// Actual number of names loaded.
    pub dataset_size: usize,
    /// Queries driven per cell per side.
    pub queries: usize,
    /// Host `available_parallelism`.
    pub available_parallelism: usize,
    /// SIMD backend the verification kernel dispatched to.
    pub simd_level: &'static str,
    /// One cell per (cost model × threshold).
    pub cells: Vec<PrefilterCell>,
}

/// Drive the same scan-path workload through a screened and an
/// unscreened store for each cost model and threshold, asserting
/// bit-identical answers and reporting what the screen disposed of.
///
/// The scan path is deliberate: it verifies every (query, name) pair,
/// which is exactly the verify-bound regime the prefilter exists for —
/// accelerated paths shrink the candidate set before the kernel ever
/// runs, understating the screen's effect.
///
/// # Panics
///
/// Panics if the screened and unscreened stores ever disagree on a
/// query's ids — the screen must be invisible in answers.
pub fn run_prefilter_bench(config: &PrefilterBenchConfig) -> PrefilterBenchReport {
    let dataset = build_dataset(&MatchConfig::default(), config.dataset_size);
    let stride = (dataset.len() / config.queries.max(1)).max(1);
    let pool: Vec<(String, lexequal::Language)> = dataset
        .iter()
        .step_by(stride)
        .take(config.queries.max(1))
        .map(|e| (e.text.clone(), e.language))
        .collect();

    let mut cells = Vec::new();
    for kind in [
        lexequal::CostModelKind::Clustered,
        lexequal::CostModelKind::Feature,
    ] {
        let model_name = match kind {
            lexequal::CostModelKind::Clustered => "clustered",
            lexequal::CostModelKind::Feature => "feature",
        };
        let build = |screen: bool| {
            let service = MatchService::new(ServiceConfig {
                match_config: MatchConfig::default()
                    .with_cost_model(kind)
                    .with_embed_screen(screen),
                shards: config.shards,
                cache_capacity: config.cache_capacity,
            });
            service.extend_transformed(dataset.to_vec());
            service
        };
        let on = build(true);
        let off = build(false);

        for &threshold in &config.thresholds {
            let drive = |service: &MatchService| {
                let start = Instant::now();
                let mut matches = 0u64;
                let mut ids: Vec<Vec<u32>> = Vec::with_capacity(pool.len());
                for (text, language) in &pool {
                    let out = service.lookup(&MatchRequest {
                        text: text.clone(),
                        language: *language,
                        threshold: Some(threshold),
                        method: Some(SearchMethod::Scan),
                    });
                    match out {
                        MatchOutcome::Matches { ids: hit, .. } => {
                            matches += hit.len() as u64;
                            ids.push(hit);
                        }
                        other => panic!("scan lookup degraded: {other:?}"),
                    }
                }
                (ids, matches, start.elapsed().as_secs_f64())
            };
            let before_on = on.store().screen_totals();
            let (ids_on, matches_on, elapsed_on) = drive(&on);
            let after_on = on.store().screen_totals();
            let before_off = off.store().screen_totals();
            let (ids_off, matches_off, elapsed_off) = drive(&off);
            let after_off = off.store().screen_totals();

            assert_eq!(
                ids_on, ids_off,
                "screen changed answers: model={model_name} e={threshold}"
            );
            let embed_reject = after_on.embed_reject - before_on.embed_reject;
            let embed_examined = embed_reject + (after_on.embed_accept - before_on.embed_accept);
            assert_eq!(
                after_off.embed_accept + after_off.embed_reject + after_off.embed_bypass,
                before_off.embed_accept + before_off.embed_reject + before_off.embed_bypass,
                "unscreened store counted embed screen work"
            );
            cells.push(PrefilterCell {
                cost_model: model_name,
                threshold,
                pairs: (pool.len() * dataset.len()) as u64,
                embed_examined,
                embed_reject,
                reject_rate: if embed_examined > 0 {
                    embed_reject as f64 / embed_examined as f64
                } else {
                    0.0
                },
                full_dp_on: after_on.full_dp - before_on.full_dp,
                full_dp_off: after_off.full_dp - before_off.full_dp,
                elapsed_on_secs: elapsed_on,
                elapsed_off_secs: elapsed_off,
                matches: {
                    assert_eq!(matches_on, matches_off);
                    matches_on
                },
            });
        }
    }

    PrefilterBenchReport {
        dataset_size: dataset.len(),
        queries: pool.len(),
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        simd_level: lexequal::simd_level().name(),
        cells,
    }
}

/// Render the prefilter bench report as JSON.
pub fn prefilter_bench_to_json(report: &PrefilterBenchReport) -> Json {
    Json::Obj(vec![
        (
            "dataset_size".to_owned(),
            Json::Int(report.dataset_size as i64),
        ),
        ("queries".to_owned(), Json::Int(report.queries as i64)),
        (
            "available_parallelism".to_owned(),
            Json::Int(report.available_parallelism as i64),
        ),
        (
            "simd_level".to_owned(),
            Json::Str(report.simd_level.to_owned()),
        ),
        (
            "cells".to_owned(),
            Json::Arr(
                report
                    .cells
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("cost_model".to_owned(), Json::Str(c.cost_model.to_owned())),
                            ("threshold".to_owned(), Json::Float(c.threshold)),
                            ("pairs".to_owned(), Json::Int(c.pairs as i64)),
                            (
                                "embed_examined".to_owned(),
                                Json::Int(c.embed_examined as i64),
                            ),
                            ("embed_reject".to_owned(), Json::Int(c.embed_reject as i64)),
                            ("reject_rate".to_owned(), Json::Float(c.reject_rate)),
                            ("full_dp_on".to_owned(), Json::Int(c.full_dp_on as i64)),
                            ("full_dp_off".to_owned(), Json::Int(c.full_dp_off as i64)),
                            ("elapsed_on_secs".to_owned(), Json::Float(c.elapsed_on_secs)),
                            (
                                "elapsed_off_secs".to_owned(),
                                Json::Float(c.elapsed_off_secs),
                            ),
                            ("matches".to_owned(), Json::Int(c.matches as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Write the prefilter bench report to `path` as JSON.
pub fn write_prefilter_bench_json(
    report: &PrefilterBenchReport,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, prefilter_bench_to_json(report).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_run_produces_a_sane_report() {
        let config = LoadgenConfig {
            dataset_size: 300,
            clients: 2,
            ops_per_client: 20,
            shard_counts: vec![1, 2],
            method: SearchMethod::PhoneticIndex,
            threshold: 0.35,
            cache_capacity: 64,
            query_pool: 8,
        };
        let report = run(&config);
        assert!(report.dataset_size >= 100, "{}", report.dataset_size);
        assert_eq!(report.runs.len(), 2);
        for r in &report.runs {
            assert_eq!(r.total_ops, 40);
            assert!(r.throughput > 0.0);
            assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
            // 8 hot queries over 40 ops: the cache must be hitting.
            assert!(r.cache_hits > 0, "hits={}", r.cache_hits);
            // Every pool query is a stored name, so matches come back.
            assert!(r.matches_returned > 0);
        }
        let json = to_json(&report).render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("runs").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn a_tiny_net_run_covers_both_modes() {
        let config = NetConfig {
            dataset_size: 300,
            connections: vec![8],
            pipeline: 4,
            ops_per_conn: 8,
            client_threads: 2,
            modes: vec![ServeMode::Threaded, ServeMode::Evented],
            workers: 2,
            query_pool: 8,
            ..NetConfig::default()
        };
        let report = run_net(&config);
        assert_eq!(report.runs.len(), 2);
        for r in &report.runs {
            assert_eq!(r.total_ops, 8 * 8, "{:?}", r.mode);
            assert!(r.throughput > 0.0);
            // What the harness guarantees, not what usually happens: a
            // client thread reads a reply on each of its four connections
            // while all four are open, so the server held at least four at
            // once; whether it held the other thread's four beside them —
            // or still counted all eight when the STATS connection came in
            // — is up to the scheduler (the exact `== 8` this replaces
            // failed one run in 12–24).
            assert!((4..=9).contains(&r.conns_peak), "{:?}: {r:?}", r.mode);
            // A window is four requests in one write. The evented loop
            // usually finds them in one read and dispatches them four
            // deep; nothing makes it. Threaded handlers take one line at
            // a time.
            let deepest = if r.mode == ServeMode::Evented { 4 } else { 1 };
            assert!(
                (1..=deepest).contains(&r.pipeline_max),
                "{:?}: {r:?}",
                r.mode
            );
        }
        let json = net_to_json(&report).render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("runs").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn snapshot_bench_produces_a_sane_report() {
        let report = run_snapshot_bench(&SnapshotBenchConfig {
            dataset_size: 300,
            shards: 2,
            cache_capacity: 64,
        });
        assert!(report.dataset_size >= 100, "{}", report.dataset_size);
        assert_eq!(report.shards, 2);
        assert!(report.snapshot_bytes > 0);
        assert!(report.build_cold_start_secs > 0.0);
        assert!(report.snapshot_cold_start_secs > 0.0);
        assert!(report.g2p_secs <= report.build_cold_start_secs);
        let json = snapshot_bench_to_json(&report).render();
        let parsed = Json::parse(&json).unwrap();
        assert!(parsed.get("cold_start_speedup").is_some());
    }

    #[test]
    fn a_tiny_repl_bench_converges() {
        let report = run_repl_bench(&ReplBenchConfig {
            dataset_size: 300,
            ops: 40,
            shards: 2,
            cache_capacity: 64,
        });
        assert_eq!(report.ops, 40);
        assert_eq!(report.final_lag, 0);
        assert!(report.sync_secs > 0.0);
        assert!(report.commit_ops_per_sec > 0.0);
        assert!(report.apply_ops_per_sec > 0.0);
        let json = repl_bench_to_json(&report).render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("final_lag").and_then(Json::as_i64),
            Some(0),
            "{json}"
        );
        assert!(parsed.get("available_parallelism").is_some());
    }

    #[test]
    fn a_tiny_untagged_bench_exercises_the_router() {
        let report = run_untagged_bench(&UntaggedBenchConfig {
            dataset_size: 300,
            shards: 2,
            clients: 2,
            ops_per_client: 40,
            untagged_pct: 50,
            method: SearchMethod::Qgram,
            threshold: 0.35,
            cache_capacity: 64,
            query_pool: 8,
        });
        assert_eq!(report.tagged_ops + report.untagged_ops, 80);
        // The deterministic interleave puts ops on both sides at 50%.
        assert!(report.tagged_ops > 0 && report.untagged_ops > 0);
        assert_eq!(report.untagged.requests, report.untagged_ops as u64);
        // Latin untagged lookups fan out, so width outpaces requests.
        assert!(
            report.untagged.fanout_width_sum >= report.untagged.requests,
            "sum={} requests={}",
            report.untagged.fanout_width_sum,
            report.untagged.requests
        );
        assert!(report.untagged.fanout_width_max >= 1);
        // Foreign-script probes hit Hangul/Thai at least once over 40
        // untagged ops (every 16th op cycles through 5 probes).
        assert!(report.untagged.no_resource > 0 || report.untagged_ops < 16);
        let json = untagged_bench_to_json(&report).render();
        let parsed = Json::parse(&json).unwrap();
        assert!(parsed.get("fanout_width_sum").is_some(), "{json}");
        assert!(parsed.get("per_script").is_some(), "{json}");
    }

    #[test]
    fn a_tiny_prefilter_bench_rejects_without_changing_answers() {
        let report = run_prefilter_bench(&PrefilterBenchConfig {
            dataset_size: 600,
            queries: 12,
            thresholds: vec![0.25],
            shards: 2,
            cache_capacity: 64,
        });
        assert_eq!(report.cells.len(), 2, "two cost models, one threshold");
        for c in &report.cells {
            // run_prefilter_bench itself asserts ids-identical; here we
            // pin that the screen actually ran and never added DP work.
            assert!(c.embed_examined > 0, "{c:?}");
            assert!(c.reject_rate >= 0.0 && c.reject_rate <= 1.0, "{c:?}");
            assert!(c.full_dp_on <= c.full_dp_off, "{c:?}");
            assert!(c.matches > 0, "{c:?}");
        }
        // The feature-graded model's tighter conservative scale must
        // actually reject at the paper's strict threshold. (The
        // clustered model's scale is looser — its intra-cluster
        // substitutions are cheap but move the embedding a lot — so its
        // reject rate is near zero on length-similar survivors and is
        // not asserted here.)
        let feature = report
            .cells
            .iter()
            .find(|c| c.cost_model == "feature")
            .expect("feature cell present");
        assert!(feature.embed_reject > 0, "{feature:?}");
        assert!(feature.full_dp_on < feature.full_dp_off, "{feature:?}");
        let json = prefilter_bench_to_json(&report).render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("cells").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert!(parsed.get("simd_level").is_some(), "{json}");
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&ns, 0.50), 50.0);
        assert_eq!(percentile_us(&ns, 0.95), 95.0);
        assert_eq!(percentile_us(&ns, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }
}
