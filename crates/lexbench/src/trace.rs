//! The traced run: per-layer numbers taken from **outside** the layers.
//!
//! The same seeded request stream the end-to-end run sends is replayed
//! single-threaded in-process, twice: once through the real
//! `MatchService::lookup` path (untraced — the reference time), once
//! through a mirror of that path assembled from each layer's public
//! functions with a span around every call. A kernel dissection on one
//! unsharded `NameStore` then times candidate generation and every
//! verification stage, and a write-path dissection times the WAL, the
//! commit and the compaction cycle. Nothing inside the layers is edited;
//! when a layer grows its own spans, this file is what they replace.

use crate::daemon::{Daemon, WorkDir};
use crate::e2e::{daemon_flags, write_image};
use crate::net::Conn;
use crate::report::Outcome;
use crate::spec::{
    Workload, COLD_POOL, CORPUS_TARGET, HOT_POOL, SMOKE_CORPUS_TARGET, THRESHOLD, TRACE_REQUESTS,
    WAL_MAX_BYTES,
};
use crate::stats::{median_f64, median_u64, percentile};
use crate::workload::{BenchCorpus, Req, StreamGen, Text};
use lexequal::{
    BatchVerifier, LexEqual, NameStore, PhonemeString, PhoneticIndex, QgramFilter, QgramMode,
    Route, Router, ScriptProfile, SearchMethod, Verifier, EMBED_DIM, MAX_LANES,
};
use lexequal_embed::l1;
use lexequal_matcher::{within_distance_dense, DpScratch, MyersPattern};
use lexequal_service::proto::{format_outcome, parse_request, Request};
use lexequal_service::{
    mmapstore, BuildSpec, CompactionPolicy, LineFramer, MatchOutcome, MatchService, Op, Replicator,
    ServiceConfig, Wal, WalMetrics,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One span: a call into a layer, the span that caused it, and the
/// request both belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in start order.
    pub id: u32,
    /// The enclosing span's id; 0 for a root.
    pub parent: u32,
    /// Index of the replayed request (spans of one request share it).
    pub request: u32,
    /// `<module>.<call>`.
    pub name: &'static str,
    /// Start, ns from the tracer's origin.
    pub start_ns: u64,
    /// End, ns from the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    request: std::cell::Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: std::cell::Cell::new(0),
        }
    }

    /// Spans opened from now on belong to request `index`.
    pub fn set_request(&self, index: u32) {
        self.request.set(index);
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32 + 1;
            let parent = self.stack.borrow().last().copied().unwrap_or(0);
            spans.push(Span {
                id,
                parent,
                request: self.request.get(),
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let value = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize - 1].end_ns = end;
        value
    }

    /// Every recorded span, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time per span: its duration minus the part its children cover.
/// Returned parallel to `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.duration());
        }
    }
    own
}

/// Render spans as the trace file's JSON.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut s = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        s.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            sp.id,
            sp.parent,
            sp.request,
            sp.name,
            sp.start_ns,
            sp.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    s.push_str("]}\n");
    s
}

/// What to trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Small corpus, short replay.
    pub smoke: bool,
    /// The `lexequald` binary (for the one-connection socket median).
    pub daemon: PathBuf,
    /// Where `trace_<workload>.json` goes.
    pub results_dir: PathBuf,
}

/// An in-process service plus what building it cost.
struct Built {
    service: MatchService,
    extend_ms: f64,
    qgram_ms: f64,
    phonidx_ms: f64,
    bktree_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The daemon's `--preload` sequence, each step timed from outside.
fn build_service(corpus: &BenchCorpus) -> Built {
    let service = MatchService::new(ServiceConfig {
        match_config: corpus.config.clone(),
        shards: 2,
        cache_capacity: 4096,
    });
    let entries = corpus.entries.clone();
    let t = Instant::now();
    service.extend_transformed(entries);
    let extend_ms = ms_since(t);
    let timed_build = |spec| {
        let t = Instant::now();
        service.build(spec);
        ms_since(t)
    };
    let qgram_ms = timed_build(BuildSpec::Qgram {
        q: 3,
        mode: QgramMode::Strict,
    });
    let phonidx_ms = timed_build(BuildSpec::PhoneticIndex);
    let bktree_ms = timed_build(BuildSpec::BkTree);
    Built {
        service,
        extend_ms,
        qgram_ms,
        phonidx_ms,
        bktree_ms,
    }
}

/// A primary's write path around `service`: WAL at `wal`, checkpoint
/// beside it, the daemon's compaction policy.
fn replicator(wal: &Path) -> Result<Arc<Replicator>, String> {
    let metrics = Arc::new(WalMetrics::default());
    let (log, _) = Wal::open(wal, 0, Arc::clone(&metrics)).map_err(|e| format!("wal: {e}"))?;
    let repl = Replicator::new(log, metrics);
    repl.set_compaction_policy(CompactionPolicy {
        checkpoint: Some(PathBuf::from(format!("{}.checkpoint", wal.display()))),
        max_bytes: Some(WAL_MAX_BYTES),
        ..CompactionPolicy::default()
    });
    Ok(repl)
}

/// One in-process daemon stand-in: the service, its write path (on
/// `write_mix`) and the connection's framer.
struct Node {
    service: MatchService,
    repl: Option<Arc<Replicator>>,
    framer: LineFramer,
}

impl Node {
    fn frame_parse(&mut self, line: &str) -> Result<Option<Request>, String> {
        self.framer.push(line.as_bytes());
        self.framer.push(b"\n");
        match self.framer.next_line() {
            Ok(Some(l)) => parse_request(&l),
            other => Err(format!("framing: {other:?}")),
        }
    }

    fn add(&self, text: &str, language: lexequal::Language) -> String {
        let id = match &self.repl {
            Some(repl) => repl
                .commit_add(&self.service, text, language)
                .map(|(_, id)| id)
                .map_err(|e| e.to_string()),
            None => self
                .service
                .add(text, language)
                .map_err(|e| format!("{e:?}")),
        };
        match id {
            Ok(id) => format!("OK {id}"),
            Err(e) => format!("ERR {e}"),
        }
    }

    /// Run a due compaction cycle (the daemon's background compactor
    /// does this off the request path, at the same threshold).
    fn compact_if_due(&self) {
        if let Some(repl) = &self.repl {
            if repl.live_bytes() > WAL_MAX_BYTES {
                let _ = repl.compact(&self.service);
            }
        }
    }

    /// One request through the real service path. Returns the reply and
    /// the ns spent in `lookup` / `lookup_auto` / the commit alone.
    fn serve(&mut self, line: &str) -> (String, u64) {
        let parsed = self.frame_parse(line);
        let t = Instant::now();
        let reply = match parsed {
            Ok(Some(Request::Match(req))) => {
                let outcome = self.service.lookup(&req);
                let inner = t.elapsed().as_nanos() as u64;
                return (format_outcome(&outcome), inner);
            }
            Ok(Some(Request::MatchAuto(req))) => {
                let outcome = self.service.lookup_auto(&req);
                let inner = t.elapsed().as_nanos() as u64;
                return (format_outcome(&outcome), inner);
            }
            Ok(Some(Request::Add { language, text })) => self.add(&text, language),
            other => format!("ERR unexpected request {other:?}"),
        };
        (reply, t.elapsed().as_nanos() as u64)
    }

    /// The same request through the mirror: `MatchService::lookup` /
    /// `lookup_auto` re-assembled from the layers' public functions, a
    /// span around each call.
    fn serve_traced(&mut self, t: &Tracer, line: &str) -> String {
        t.span("request", || {
            let parsed = t.span("proto.frame_parse", || self.frame_parse(line));
            let svc = &self.service;
            let config = svc.store().config();
            let transform = |text: &str, language| {
                t.span("cache.transform", || {
                    svc.cache().get_or_try_insert_with(text, language, || {
                        t.span("g2p.transform", || {
                            config.registry.transform(text, language)
                        })
                    })
                })
            };
            let outcome = match parsed {
                Ok(Some(Request::Match(req))) => {
                    let method = req.method.unwrap_or_else(|| svc.default_method());
                    let threshold = req.threshold.unwrap_or(config.threshold);
                    if !svc.is_built(method) {
                        MatchOutcome::NotBuilt(method)
                    } else {
                        match transform(&req.text, req.language) {
                            Ok(q) => {
                                let r = t.span("shard.search", || {
                                    svc.store().begin_search(&q, threshold, method).merge()
                                });
                                MatchOutcome::Matches {
                                    method,
                                    threshold,
                                    ids: r.ids,
                                    verifications: r.verifications,
                                }
                            }
                            Err(e) => MatchOutcome::BadInput(format!("{e:?}")),
                        }
                    }
                }
                Ok(Some(Request::MatchAuto(req))) => {
                    let method = req.method.unwrap_or_else(|| svc.default_method());
                    let threshold = req.threshold.unwrap_or(config.threshold);
                    let route =
                        t.span("g2p.route", || Router::route(&ScriptProfile::of(&req.text)));
                    let langs: Vec<_> = match route {
                        Route::Single(l) => vec![l],
                        Route::FanOut(set) => set.to_vec(),
                        _ => Vec::new(),
                    };
                    let mut queries: Vec<PhonemeString> = Vec::new();
                    for l in langs {
                        if let Ok(q) = transform(&req.text, l) {
                            if !queries.contains(&q) {
                                queries.push(q);
                            }
                        }
                    }
                    if queries.is_empty() || !svc.is_built(method) {
                        MatchOutcome::BadInput("unroutable in the mirror".to_owned())
                    } else {
                        let (ids, verifications) = t.span("shard.search", || {
                            let pending: Vec<_> = queries
                                .iter()
                                .map(|q| svc.store().begin_search(q, threshold, method))
                                .collect();
                            let mut ids = Vec::new();
                            let mut verifications = 0;
                            for p in pending {
                                let r = p.merge();
                                ids.extend(r.ids);
                                verifications += r.verifications;
                            }
                            ids.sort_unstable();
                            ids.dedup();
                            (ids, verifications)
                        });
                        MatchOutcome::Matches {
                            method,
                            threshold,
                            ids,
                            verifications,
                        }
                    }
                }
                Ok(Some(Request::Add { language, text })) => {
                    return t.span("repl.commit_add", || self.add(&text, language));
                }
                other => return format!("ERR unexpected request {other:?}"),
            };
            t.span("proto.format", || format_outcome(&outcome))
        })
    }
}

/// The three synthetic-dataset languages' stripe of shard 0 (`g % 2 == 0`).
fn stripe_store(corpus: &BenchCorpus) -> NameStore {
    let mut stripe = NameStore::new(corpus.config.clone());
    stripe.extend_transformed(corpus.entries.iter().step_by(2).cloned().collect());
    stripe.build_qgram(3, QgramMode::Strict);
    stripe.build_phonetic_index();
    stripe
}

fn median_ns(v: &[u64]) -> f64 {
    median_u64(v).unwrap_or(0.0)
}

/// Median duration of the spans named `name` (optionally only those of
/// requests for which `keep` holds).
fn span_median(spans: &[Span], name: &str, keep: impl Fn(u32) -> bool) -> f64 {
    let d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name && keep(s.request))
        .map(Span::duration)
        .collect();
    median_ns(&d)
}

/// Run the traced replay and the dissections for one workload.
pub fn run(cfg: &TraceConfig) -> Result<Outcome, String> {
    let w = cfg.workload;
    let write_mix = w.name == "write_mix";
    let target = if cfg.smoke {
        SMOKE_CORPUS_TARGET
    } else {
        CORPUS_TARGET
    };
    let n_requests = if cfg.smoke {
        TRACE_REQUESTS / 16
    } else {
        TRACE_REQUESTS
    };
    let mut out = Outcome::default();
    let corpus = BenchCorpus::build(target);
    let pool = if w.name == "phonidx_cold" {
        corpus.cold_pool(cfg.seed, if cfg.smoke { 8192 } else { COLD_POOL })
    } else {
        corpus.hot_pool(cfg.seed, HOT_POOL)
    };
    let work = WorkDir::create(&format!("trace-{}-{}", w.name, cfg.seed))?;

    // Connection 0's stream: the first half warms the transform cache
    // (as the end-to-end run's warm-up does), the second half is replayed.
    let mut gen = StreamGen::new(&corpus, &pool, w, cfg.seed, 0);
    let reqs: Vec<Req> = (0..2 * n_requests).map(|_| gen.next_req()).collect();
    let lines: Vec<String> = reqs.iter().map(|&r| gen.render(r)).collect();
    let (warm, replay) = lines.split_at(n_requests);
    let replay_reqs = &reqs[n_requests..];
    let tagged = |i: u32| matches!(replay_reqs[i as usize], Req::Match { tagged: true, .. });

    // Two identical nodes: one replays untraced, one traced.
    let image = work.path("corpus.img");
    let mut builds = Vec::new();
    let mut nodes = Vec::new();
    for tag in ["untraced", "traced"] {
        let built = build_service(&corpus);
        builds.push([
            built.extend_ms,
            built.qgram_ms,
            built.phonidx_ms,
            built.bktree_ms,
        ]);
        let (service, repl) = if write_mix {
            // As the daemon does: serve out of the mapped image.
            if !image.exists() {
                write_image(&corpus, &image)?;
            }
            drop(built);
            let service = MatchService::load_snapshot(corpus.config.clone(), Some(2), 4096, &image)
                .map_err(|e| format!("load image: {e}"))?;
            (
                service,
                Some(replicator(&work.path(&format!("wal-{tag}")))?),
            )
        } else {
            (built.service, None)
        };
        nodes.push(Node {
            service,
            repl,
            framer: LineFramer::new(64 * 1024),
        });
    }
    let mut traced = nodes.pop().expect("two nodes");
    let mut plain = nodes.pop().expect("two nodes");
    for line in warm {
        plain.serve(line);
        plain.compact_if_due();
        traced.serve(line);
        traced.compact_if_due();
    }

    // The replay, in alternating blocks on the two nodes — untraced for
    // the reference times and the counters, traced for the spans — so the
    // host's speed of the moment weighs on both sides of every comparison
    // while each node keeps its working set in cache for a block.
    const BLOCK: usize = 100;
    let (hits0, misses0) = plain.service.cache().stats();
    let untagged0 = plain.service.stats().untagged;
    let mut expected = Vec::with_capacity(replay.len());
    let mut inner_ns = Vec::with_capacity(replay.len());
    let mut plain_total = 0u64;
    let tracer = Tracer::new();
    let mut resp_bytes = 0usize;
    for block in (0..replay.len()).step_by(BLOCK) {
        let block = block..(block + BLOCK).min(replay.len());
        for i in block.clone() {
            let t = Instant::now();
            let (reply, inner) = plain.serve(&replay[i]);
            if matches!(replay_reqs[i], Req::Match { .. }) {
                plain_total += t.elapsed().as_nanos() as u64;
            }
            plain.compact_if_due();
            inner_ns.push(inner);
            expected.push(reply);
        }
        for i in block {
            tracer.set_request(i as u32);
            let reply = traced.serve_traced(&tracer, &replay[i]);
            traced.compact_if_due();
            out.attempted += 1;
            resp_bytes += reply.len() + 1;
            if reply != expected[i] || reply.starts_with("ERR") || reply.starts_with("NOT") {
                out.fail(format!(
                    "replay #{i} {:?}: mirror answered {reply:?}, service {:?}",
                    replay[i], expected[i]
                ));
            }
        }
    }
    let (hits1, misses1) = plain.service.cache().stats();
    let untagged1 = plain.service.stats().untagged;
    let spans = tracer.into_spans();
    let own = self_times(&spans);

    // Request-level metrics. Coverage and overhead compare the mirror
    // with the real path over MATCH requests only: an ADD is one fsync
    // whose duration varies more between two replays than any span costs.
    let is_match = |i: u32| matches!(replay_reqs[i as usize], Req::Match { .. });
    let traced_total: u64 = spans
        .iter()
        .filter(|s| s.name == "request" && is_match(s.request))
        .map(Span::duration)
        .sum();
    let covered: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| is_match(s.request))
        .filter(|(s, _)| s.name != "request" && !s.name.starts_with("proto."))
        .map(|(_, o)| *o)
        .sum();
    let inner_total: u64 = (0..replay.len())
        .filter(|&i| is_match(i as u32))
        .map(|i| inner_ns[i])
        .sum();
    let any = |_: u32| true;
    let lookup_ns: Vec<u64> = (0..replay.len())
        .filter(|&i| tagged(i as u32))
        .map(|i| inner_ns[i])
        .collect();
    let lookup_auto_ns: Vec<u64> = (0..replay.len())
        .filter(|&i| matches!(replay_reqs[i], Req::Match { tagged: false, .. }))
        .map(|i| inner_ns[i])
        .collect();
    let frame_parse = span_median(&spans, "proto.frame_parse", any);
    let format = span_median(&spans, "proto.format", any);
    let lookup_p50 = median_ns(&lookup_ns);
    out.metric("proto.frame_parse_ns", frame_parse);
    out.metric("proto.format_ns", format);
    out.metric(
        "proto.resp_bytes",
        resp_bytes as f64 / replay.len().max(1) as f64,
    );
    out.metric(
        "g2p.transform_ns",
        span_median(&spans, "g2p.transform", any),
    );
    out.metric("g2p.route_ns", span_median(&spans, "g2p.route", any));
    let cache_self: Vec<u64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "cache.transform")
        .map(|(_, o)| *o)
        .collect();
    out.metric("cache.get_ns", median_ns(&cache_self));
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    out.metric(
        "cache.hit_ratio",
        (hits1 - hits0) as f64 / lookups.max(1) as f64,
    );
    out.metric(
        "untagged.fanout_mean",
        (untagged1.fanout_width_sum - untagged0.fanout_width_sum) as f64
            / (untagged1.requests - untagged0.requests).max(1) as f64,
    );
    out.metric("service.lookup_ns", lookup_p50);
    out.metric("service.lookup_auto_ns", median_ns(&lookup_auto_ns));

    // One connection to the real daemon: what the socket adds.
    let socket_p50 = socket_median(cfg, w, target, &image, &work, warm, replay, &mut out)?;
    let all_p50 = median_ns(&inner_ns);
    out.metric(
        "net.overhead_us",
        (socket_p50 - all_p50 - frame_parse - format) / 1e3,
    );
    out.report.push(format!(
        "socket p50 (1 connection, depth 1) {:.1} us; in-process request p50 {:.1} us",
        socket_p50 / 1e3,
        (all_p50 + frame_parse + format) / 1e3
    ));

    // Shard layer against one stripe, and the kernel dissection.
    let queries = sample_queries(&corpus, &pool, replay_reqs, if cfg.smoke { 4 } else { 64 });
    let shard_search = span_median(&spans, "shard.search", tagged);
    out.metric("shard.search_ns", shard_search);
    let stripe = stripe_store(&corpus);
    let mut bv = BatchVerifier::new();
    let stripe_ns: Vec<u64> = queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            black_box(stripe.search_phonemes_batched(q, THRESHOLD, w.method, &mut bv));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    out.metric("shard.overhead_ns", shard_search - median_ns(&stripe_ns));
    let verify_share = stripe_verify_ns(&stripe, &queries, w.method) / lookup_p50.max(1.0);
    dissect_kernel(&corpus, &queries, &mut out);
    out.metric("verify.lookup_share", verify_share);
    dissect_writes(&corpus, &work, cfg, &mut out)?;
    dissect_image(&corpus, &plain.service, &work, &mut out)?;
    for (name, col) in [
        ("build.qgram_ms", 1),
        ("build.phonidx_ms", 2),
        ("build.bktree_ms", 3),
        ("store.extend_ms", 0),
    ] {
        let v: Vec<f64> = builds.iter().map(|b| b[col]).collect();
        out.metric(name, median_f64(&v).expect("two builds"));
    }
    out.metric("trace.coverage", covered as f64 / inner_total.max(1) as f64);
    out.metric(
        "trace.overhead_ratio",
        traced_total as f64 / plain_total.max(1) as f64,
    );
    out.metric("trace.spans", spans.len() as f64);

    // Spans stay in memory until here.
    std::fs::create_dir_all(&cfg.results_dir)
        .map_err(|e| format!("create {}: {e}", cfg.results_dir.display()))?;
    let path = cfg.results_dir.join(format!("trace_{}.json", w.name));
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(spans_json(w.name, cfg.seed, &spans).as_bytes()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.report.push(format!(
        "trace: {} requests replayed after {} warm-up requests, {} spans -> {}",
        replay.len(),
        warm.len(),
        spans.len(),
        path.display()
    ));
    // The table the metric names hide: self time per span name.
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (s, o) in spans.iter().zip(&own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += o;
    }
    let all_traced: u64 = by_name.values().map(|v| v.1).sum();
    for (name, (count, total)) in by_name {
        out.report.push(format!(
            "  self time {name:<18} n={count:<6} total {:>10.1} us  share of the replay {:.3}",
            total as f64 / 1e3,
            total as f64 / all_traced.max(1) as f64
        ));
    }
    Ok(out)
}

/// Median latency of `replay` sent one at a time over one connection to
/// a real daemon of the workload's shape, after `warm`.
#[allow(clippy::too_many_arguments)]
fn socket_median(
    cfg: &TraceConfig,
    w: &Workload,
    target: usize,
    image: &Path,
    work: &WorkDir,
    warm: &[String],
    replay: &[String],
    out: &mut Outcome,
) -> Result<f64, String> {
    let flags = daemon_flags(w, target, image, &work.path("wal-daemon"));
    let daemon = Daemon::spawn(&cfg.daemon, &flags)?;
    let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for line in warm {
        conn.request(line)
            .map_err(|e| format!("socket warm-up: {e}"))?;
    }
    let mut ns = Vec::with_capacity(replay.len());
    for line in replay {
        let t = Instant::now();
        let reply = conn
            .request(line)
            .map_err(|e| format!("socket replay: {e}"))?;
        ns.push(t.elapsed().as_nanos() as u64);
        out.attempted += 1;
        if !reply.starts_with("OK") {
            out.fail(format!("socket replay {line:?}: {reply:?}"));
        }
    }
    Ok(median_ns(&ns))
}

/// Phoneme strings of the first `n` distinct tagged queries replayed.
fn sample_queries(
    corpus: &BenchCorpus,
    pool: &[Text],
    reqs: &[Req],
    n: usize,
) -> Vec<PhonemeString> {
    let op = LexEqual::new(corpus.config.clone());
    let mut seen = std::collections::BTreeSet::new();
    reqs.iter()
        .filter_map(|r| match r {
            Req::Match {
                query,
                tagged: true,
            } if seen.insert(*query) => Some(&pool[*query as usize]),
            _ => None,
        })
        .filter_map(|t| op.transform(&t.text, t.language).ok())
        .take(n)
        .collect()
}

/// Median ns the batched kernel spends verifying the candidates
/// `method` produces on one stripe.
fn stripe_verify_ns(stripe: &NameStore, queries: &[PhonemeString], method: SearchMethod) -> f64 {
    let op = stripe.operator();
    let strings = stripe.phoneme_strings();
    let qgram = QgramFilter::build(strings, 3, QgramMode::Strict);
    let phonidx = PhoneticIndex::build(op.cost_model().clusters(), strings);
    let mut bv = BatchVerifier::new();
    let mut hits = Vec::new();
    let ns: Vec<u64> = queries
        .iter()
        .map(|q| {
            let ids: Vec<u32> = match method {
                SearchMethod::Qgram => qgram.candidates(q, THRESHOLD * q.len() as f64, op),
                SearchMethod::PhoneticIndex => phonidx.candidates(op.cost_model().clusters(), q),
                _ => (0..strings.len() as u32).collect(),
            };
            let prepared = op.prepare_query(q);
            hits.clear();
            let t = Instant::now();
            black_box(bv.verify_ids(
                op,
                &prepared,
                strings,
                Some(stripe.cluster_id_vectors()),
                Some(stripe.embed_vectors()),
                ids,
                THRESHOLD,
                &mut hits,
            ));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median_ns(&ns)
}

/// Candidate generation and every verification stage on one unsharded
/// store over the whole corpus, query by query.
fn dissect_kernel(corpus: &BenchCorpus, queries: &[PhonemeString], out: &mut Outcome) {
    let mut full = NameStore::new(corpus.config.clone());
    full.extend_transformed(corpus.entries.clone());
    full.build_bktree();
    let op = full.operator();
    let strings = full.phoneme_strings();
    let clus = full.cluster_id_vectors();
    let emb = full.embed_vectors();
    let n = strings.len() as u32;
    let clusters = op.cost_model().clusters();
    let e = THRESHOLD;

    // Access paths: candidates only, no verification.
    let qgram = QgramFilter::build(strings, 3, QgramMode::Strict);
    let phonidx = PhoneticIndex::build(clusters, strings);
    let (mut qg_ns, mut qg_cands, mut pi_ns, mut pi_cands) = (vec![], 0usize, vec![], 0usize);
    let (mut bk_ns, mut bk_verified) = (vec![], 0usize);
    let mut bv = BatchVerifier::new();
    for q in queries {
        let t = Instant::now();
        let c = black_box(qgram.candidates(q, e * q.len() as f64, op));
        qg_ns.push(t.elapsed().as_nanos() as u64);
        qg_cands += c.len();
        let t = Instant::now();
        let c = black_box(phonidx.candidates(clusters, q));
        pi_ns.push(t.elapsed().as_nanos() as u64);
        pi_cands += c.len();
        let t = Instant::now();
        let r = black_box(full.search_phonemes_batched(q, e, SearchMethod::BkTree, &mut bv));
        bk_ns.push(t.elapsed().as_nanos() as u64);
        bk_verified += r.verifications;
    }
    let nq = queries.len().max(1) as f64;

    // Verification over every id: default width, width 1, scalar.
    let mut hits = Vec::new();
    let mut total_hits = 0usize;
    let mut time_batch = |bv: &mut BatchVerifier| {
        let t = Instant::now();
        let mut found = 0;
        for q in queries {
            let prepared = op.prepare_query(q);
            hits.clear();
            bv.verify_ids(
                op,
                &prepared,
                strings,
                Some(clus),
                Some(emb),
                0..n,
                e,
                &mut hits,
            );
            found += black_box(&hits).len();
        }
        (t.elapsed().as_nanos() as f64, found)
    };
    let mut wide = BatchVerifier::new();
    let (wide_ns, found) = time_batch(&mut wide);
    total_hits += found;
    let (screens, lanes) = (wide.counters(), wide.batch_counters());
    let mut narrow = BatchVerifier::with_width_and_level(1, lexequal::simd_level());
    let (narrow_ns, _) = time_batch(&mut narrow);
    let t = Instant::now();
    let mut scalar = Verifier::new();
    for q in queries {
        let prepared = op.prepare_query(q);
        for id in 0..n as usize {
            black_box(scalar.matches(
                op,
                &prepared,
                &strings[id],
                Some(clus[id].as_slice()),
                Some(emb[id].as_slice()),
                e,
            ));
        }
    }
    let scalar_ns = t.elapsed().as_nanos() as f64;
    let pairs = (queries.len() as u64 * u64::from(n)).max(1) as f64;

    // Which pairs reach which stage: the kernel's decision sequence,
    // replayed here so each stage can be timed alone on exactly its input.
    let level = lexequal::simd_level();
    let scale = op.embed_scale();
    let prepared: Vec<_> = queries.iter().map(|q| op.prepare_query(q)).collect();
    let patterns: Vec<_> = prepared
        .iter()
        .map(|p| {
            (
                MyersPattern::build(p.cluster_ids().iter().copied()),
                MyersPattern::build(p.phoneme_ids().iter().copied()),
            )
        })
        .collect();
    let (mut at_embed, mut at_dp) = (vec![], vec![]);
    // Myers lanes are batched per query: one id list per query and screen.
    let mut at_clus: Vec<Vec<usize>> = vec![Vec::new(); prepared.len()];
    let mut at_phon: Vec<Vec<usize>> = vec![Vec::new(); prepared.len()];
    let (mut equal, mut by_length, mut by_embed, mut by_clus, mut by_phon) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (qi, p) in prepared.iter().enumerate() {
        for id in 0..n as usize {
            let cand = &strings[id];
            if cand == p.phonemes() {
                equal += 1;
                continue;
            }
            let k = (e * cand.len().min(p.phonemes().len()) as f64 - 1e-9).max(1e-12);
            if cand.len().abs_diff(p.phonemes().len()) as f64 > k {
                by_length += 1;
                continue;
            }
            at_embed.push((qi, id));
            if scale > 0.0
                && emb[id].len() == EMBED_DIM
                && scale * l1(emb[id].as_slice(), p.embed()) as f64 > k + 1e-6
            {
                by_embed += 1;
                continue;
            }
            if let (Some(cp), Some(pp)) = &patterns[qi] {
                at_clus[qi].push(id);
                let d = cp.distance(clus[id].as_slice().iter().copied());
                if d as f64 * op.clus_reject_scale() > k + 1e-12 {
                    by_clus += 1;
                    continue;
                }
                at_phon[qi].push(id);
                if pp.distance(cand.id_bytes().iter().copied()) as f64 <= k + 1e-12 {
                    by_phon += 1;
                    continue;
                }
            }
            at_dp.push((qi, id, k));
        }
    }
    // The replayed sequence must be the kernel's: its own exact counters say so.
    let mirror = [
        (
            "equality accepts",
            equal,
            screens.fast_accept - lanes.lane_accept,
        ),
        (
            "length rejects",
            by_length,
            screens.fast_reject - lanes.lane_reject,
        ),
        ("embed rejects", by_embed, screens.embed_reject),
        (
            "cluster-screen rejects",
            by_clus,
            lanes.lane_reject - screens.embed_reject,
        ),
        ("phoneme-screen accepts", by_phon, lanes.lane_accept),
        ("DP pairs", at_dp.len() as u64, lanes.lane_dp),
    ];
    out.attempted += mirror.len() as u64;
    for (what, mine, kernel) in mirror {
        if mine != kernel {
            out.fail(format!(
                "kernel dissection drifted: {what} {mine} here, {kernel} in the kernel's counters"
            ));
        }
    }

    // Stage kernels, each on the pairs that reach it.
    let t = Instant::now();
    let mut acc = 0u64;
    for &(qi, id) in &at_embed {
        acc += l1(emb[id].as_slice(), prepared[qi].embed());
    }
    black_box(acc);
    let embed_ns = t.elapsed().as_nanos() as f64 / at_embed.len().max(1) as f64;
    let mut dists = [0usize; MAX_LANES];
    let mut lanes_run = 0usize;
    let t = Instant::now();
    for (stage, cluster_side) in [(&at_clus, true), (&at_phon, false)] {
        for (qi, ids) in stage.iter().enumerate() {
            let (cp, pp) = &patterns[qi];
            let Some(pattern) = (if cluster_side { cp } else { pp }) else {
                continue; // no patterns, so no pair of this query got here
            };
            for chunk in ids.chunks(MAX_LANES) {
                let mut texts: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
                for (slot, &id) in chunk.iter().enumerate() {
                    texts[slot] = if cluster_side {
                        clus[id].as_slice()
                    } else {
                        strings[id].id_bytes()
                    };
                }
                pattern.distance_batch(&texts[..chunk.len()], &mut dists, level);
                black_box(&dists);
                lanes_run += chunk.len();
            }
        }
    }
    let myers_ns = t.elapsed().as_nanos() as f64 / lanes_run.max(1) as f64;
    let dense = op.dense_cost();
    let mut scratch = DpScratch::new();
    let t = Instant::now();
    for &(qi, id, k) in &at_dp {
        black_box(within_distance_dense(
            strings[id].id_bytes(),
            prepared[qi].phoneme_ids(),
            k,
            dense.matrix(),
            dense.inventory_len(),
            &mut scratch,
            level,
        ));
    }
    let dp_ns = t.elapsed().as_nanos() as f64 / at_dp.len().max(1) as f64;

    out.metric("qgram.candidates_ns", median_ns(&qg_ns));
    out.metric("qgram.candidates_per_query", qg_cands as f64 / nq);
    out.metric(
        "qgram.survivor_ratio",
        total_hits as f64 / qg_cands.max(1) as f64,
    );
    out.metric("phonidx.candidates_ns", median_ns(&pi_ns));
    out.metric("phonidx.candidates_per_query", pi_cands as f64 / nq);
    out.metric("bktree.search_ns", median_ns(&bk_ns));
    out.metric("bktree.verified_per_query", bk_verified as f64 / nq);
    out.metric("verify.batch_ns_per_pair", wide_ns / pairs);
    out.metric("verify.width1_ns_per_pair", narrow_ns / pairs);
    out.metric("verify.scalar_ns_per_pair", scalar_ns / pairs);
    out.metric(
        "verify.lanes_mean",
        lanes.lanes_sum as f64 / lanes.calls.max(1) as f64,
    );
    out.metric("verify.length_reject_ratio", by_length as f64 / pairs);
    out.metric(
        "verify.embed_reject_ratio",
        screens.embed_reject as f64 / pairs,
    );
    out.metric(
        "verify.myers_reject_ratio",
        (lanes.lane_reject - screens.embed_reject) as f64 / pairs,
    );
    out.metric(
        "verify.myers_accept_ratio",
        lanes.lane_accept as f64 / pairs,
    );
    out.metric("verify.dp_ratio", lanes.lane_dp as f64 / pairs);
    out.metric("embed.l1_ns_per_pair", embed_ns);
    out.metric("myers.batch_ns_per_lane", myers_ns);
    out.metric("dp.banded_ns_per_pair", dp_ns);
    out.report.push(format!(
        "kernel dissection: {} queries x {} names = {} pairs; reach embed {} / cluster screen {} / phoneme screen {} / DP {}; {} hits",
        queries.len(),
        n,
        pairs,
        at_embed.len(),
        at_clus.iter().map(Vec::len).sum::<usize>(),
        at_phon.iter().map(Vec::len).sum::<usize>(),
        at_dp.len(),
        total_hits
    ));
}

/// The write path: raw WAL appends, then commits through the
/// replicator with a compaction cycle whenever the log passes the cap.
fn dissect_writes(
    corpus: &BenchCorpus,
    work: &WorkDir,
    cfg: &TraceConfig,
    out: &mut Outcome,
) -> Result<(), String> {
    let write_mix = crate::spec::workload("write_mix").expect("write_mix exists");
    let pool = corpus.hot_pool(cfg.seed, HOT_POOL);
    let mut gen = StreamGen::new(corpus, &pool, write_mix, cfg.seed, 7);
    let (raw, commits) = if cfg.smoke { (40, 320) } else { (300, 1500) };
    let mut names = Vec::new();
    for _ in 0..raw + commits {
        gen.next_add();
    }
    names.extend(gen.names.iter().cloned());

    let metrics = Arc::new(WalMetrics::default());
    let (mut wal, _) = Wal::open(work.path("wal-raw"), 0, Arc::clone(&metrics))
        .map_err(|e| format!("wal: {e}"))?;
    let mut append_ns = Vec::new();
    for n in &names[..raw] {
        let op = Op::Add {
            language: n.language,
            text: n.text.clone(),
        };
        let t = Instant::now();
        wal.append(&op).map_err(|e| format!("wal append: {e}"))?;
        append_ns.push(t.elapsed().as_nanos() as u64);
    }
    let stats = metrics.stats();
    out.metric("wal.append_fsync_us", median_ns(&append_ns) / 1e3);
    out.metric(
        "wal.bytes_per_add",
        stats.bytes as f64 / stats.appends.max(1) as f64,
    );
    out.metric(
        "wal.fsyncs_per_add",
        stats.fsyncs as f64 / stats.appends.max(1) as f64,
    );

    let service = build_service(corpus).service;
    let wal_path = work.path("wal-commit");
    let repl = replicator(&wal_path)?;
    let checkpoint = PathBuf::from(format!("{}.checkpoint", wal_path.display()));
    let (mut commit_ns, mut cycle_ms, mut rewritten) = (Vec::new(), Vec::new(), 0u64);
    for n in &names[raw..] {
        let t = Instant::now();
        repl.commit_add(&service, &n.text, n.language)
            .map_err(|e| format!("commit_add: {e}"))?;
        commit_ns.push(t.elapsed().as_nanos() as u64);
        if repl.live_bytes() > WAL_MAX_BYTES {
            let t = Instant::now();
            let report = repl.compact(&service)?;
            cycle_ms.push(ms_since(t));
            rewritten +=
                std::fs::metadata(&checkpoint).map_or(0, |m| m.len()) + report.wal_bytes_live;
        }
    }
    out.metric("repl.commit_add_us", median_ns(&commit_ns) / 1e3);
    out.metric("compaction.cycles", repl.compactions() as f64);
    out.metric("compaction.cycle_ms", median_f64(&cycle_ms).unwrap_or(0.0));
    out.metric(
        "compaction.bytes_rewritten_per_add_byte",
        rewritten as f64 / repl.wal_stats().bytes.max(1) as f64,
    );
    out.report.push(format!(
        "write dissection: {raw} raw appends (p99 {:.0} us), {commits} commits (p99 {:.0} us), {} compaction cycles",
        percentile(&append_ns, 0.99).unwrap_or(0) as f64 / 1e3,
        percentile(&commit_ns, 0.99).unwrap_or(0) as f64 / 1e3,
        repl.compactions()
    ));
    repl.stop_and_join();
    Ok(())
}

/// The mmap image: encode, write, map back.
fn dissect_image(
    corpus: &BenchCorpus,
    service: &MatchService,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(), String> {
    let t = Instant::now();
    let image = mmapstore::encode(service.store(), 0).map_err(|e| format!("encode: {e}"))?;
    out.metric("mmapstore.encode_ms", ms_since(t));
    let path = work.path("dissect.img");
    mmapstore::write_image_atomic(&image, &path).map_err(|e| format!("write image: {e}"))?;
    let t = Instant::now();
    let loaded = mmapstore::load_file(corpus.config.clone(), Some(2), &path)
        .map_err(|e| format!("load image: {e}"))?;
    out.metric("mmapstore.load_ms", ms_since(t));
    out.metric(
        "mmapstore.image_bytes_per_name",
        image.len() as f64 / loaded.store.len().max(1) as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let t = Tracer::new();
        t.set_request(4);
        t.span("request", || {
            t.span("cache.transform", || {
                t.span("g2p.transform", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            t.span("shard.search", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let spans = t.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.id, s.parent, s.name)).collect();
        assert_eq!(
            names,
            [
                (1, 0, "request"),
                (2, 1, "cache.transform"),
                (3, 2, "g2p.transform"),
                (4, 1, "shard.search")
            ]
        );
        assert!(spans
            .iter()
            .all(|s| s.request == 4 && s.end_ns >= s.start_ns));
        let own = self_times(&spans);
        // Leaves keep their whole duration; parents lose their children's.
        assert_eq!(own[2], spans[2].duration());
        assert_eq!(own[1], spans[1].duration() - spans[2].duration());
        assert_eq!(
            own[0],
            spans[0].duration() - spans[1].duration() - spans[3].duration()
        );
        assert!(
            own[0] < 1_000_000,
            "root self time is glue only: {}",
            own[0]
        );
        let json = spans_json("scan_hot", 9, &spans);
        assert!(json.starts_with("{\"workload\": \"scan_hot\", \"seed\": 9, \"spans\": ["));
        assert!(json.contains("\"name\": \"g2p.transform\""));
        assert_eq!(json.matches("\"parent\"").count(), 4);
    }
}
