//! One end-to-end run of one workload: a real `lexequald` driven over
//! TCP from this process (2 connections, 2 threads), every reply checked
//! against the oracle, the end-to-end metrics out. Tracing is never on
//! here.

use crate::daemon::{Daemon, WorkDir};
use crate::net::{drive, tighten_timer_slack, Conn, Pace, Sample};
use crate::oracle::{check_match, match_ids, Oracle};
use crate::reply::{field_u64, parse_reply, Reply};
use crate::report::Outcome;
use crate::spec::{
    Workload, COLD_POOL, CONNECTIONS, CORPUS_TARGET, DAEMON_FLAGS, HOT_POOL, P50_MIN_PER_ROUND,
    P99_MIN_PER_ROUND, PHASE_SHARES, RESTART_REPEATS, ROUNDS, SETUP_REPEATS, SMOKE_CORPUS_TARGET,
    THRESHOLD, WAL_MAX_BYTES, WITHIN_LIMIT_BEST_ROUNDS,
};
use crate::stats::{mean_of_best, median_f64, median_of_windows, percentile, Windowed};
use crate::workload::{lang_code, BenchCorpus, Req, StreamGen, Text};
use lexequal::{QgramMode, SearchMethod};
use lexequal_service::{MatchService, ServiceConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct E2eConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the three timed phases take together.
    pub seconds: f64,
    /// Small corpus, quarter rates: checks the harness, not the system.
    pub smoke: bool,
    /// The `lexequald` binary.
    pub daemon: PathBuf,
}

/// The daemon flags of `workload` (the fixed shape plus its store source).
pub fn daemon_flags(workload: &Workload, target: usize, image: &Path, wal: &Path) -> Vec<String> {
    let mut flags: Vec<String> = DAEMON_FLAGS.iter().map(|s| (*s).to_owned()).collect();
    if workload.name == "write_mix" {
        flags.extend([
            "--snapshot".to_owned(),
            image.display().to_string(),
            "--wal".to_owned(),
            wal.display().to_string(),
            "--wal-max-bytes".to_owned(),
            WAL_MAX_BYTES.to_string(),
        ]);
    } else {
        flags.extend(["--preload".to_owned(), target.to_string()]);
    }
    flags
}

/// Write the mmap image `write_mix` starts from: the corpus on 2 shards
/// with every access path recorded, exactly what `--preload` followed by
/// `SAVE` would leave.
pub fn write_image(corpus: &BenchCorpus, path: &Path) -> Result<(), String> {
    let service = MatchService::new(ServiceConfig {
        match_config: corpus.config.clone(),
        shards: 2,
        cache_capacity: 16,
    });
    service.extend_transformed(corpus.entries.clone());
    service.build_all(3, QgramMode::Strict);
    service
        .save_snapshot(path)
        .map_err(|e| format!("write image {}: {e}", path.display()))
}

/// One phase's samples per connection, with the phase's place in the run.
struct PhaseLog {
    name: &'static str,
    /// Phase start, ns since the run's origin (orders writes against reads).
    origin_ns: u64,
    span: Duration,
    per_conn: Vec<Vec<Sample>>,
}

impl PhaseLog {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.per_conn.iter().flatten()
    }
}

struct Run<'a> {
    workload: &'static Workload,
    conns: Vec<Conn>,
    gens: Vec<StreamGen<'a>>,
    origin: Instant,
}

impl Run<'_> {
    fn phase(&mut self, name: &'static str, pace: Pace, span: Duration) -> PhaseLog {
        let n = self.conns.len();
        // A common start a little ahead, so both threads begin together.
        let start = Instant::now() + Duration::from_millis(5);
        let per_conn = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.gens.iter_mut())
                .enumerate()
                .map(|(i, (conn, gen))| {
                    s.spawn(move || {
                        tighten_timer_slack();
                        drive(conn, gen, pace, i, n, start, span, &mut |_| {})
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        PhaseLog {
            name,
            origin_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            span,
            per_conn,
        }
    }

    fn stats(&mut self) -> BTreeMap<String, String> {
        match self.conns[0].request("STATS").map(|l| parse_reply(&l)) {
            Ok(Ok(Reply::Fields(f))) => f,
            _ => BTreeMap::new(),
        }
    }
}

/// Spawn a daemon and time spawn → first oracle-correct answer to `probe`.
fn start_daemon(
    binary: &Path,
    flags: &[String],
    from: Instant,
    probe: &str,
    expected: &[u32],
    method: SearchMethod,
) -> Result<(Daemon, f64), String> {
    let daemon = Daemon::spawn(binary, flags)?;
    let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let line = conn.request(probe).map_err(|e| format!("probe: {e}"))?;
    check_match(&line, expected, method)
        .map_err(|e| format!("first reply wrong: {e}\n{}", daemon.log_tail(5)))?;
    Ok((daemon, from.elapsed().as_secs_f64()))
}

fn fmt_windowed(w: Option<Windowed>) -> String {
    match w {
        Some(w) if w.fallback => format!("n={} (whole phase pooled: a round is thin)", w.samples),
        Some(w) => format!("n={} (median of {ROUNDS} rounds)", w.samples),
        None => "n=0".to_owned(),
    }
}

/// The rounds of phase `name`.
fn rounds<'p>(phases: &'p [PhaseLog], name: &'p str) -> impl Iterator<Item = &'p PhaseLog> {
    phases.iter().filter(move |ph| ph.name == name)
}

/// Latencies of phase `name`, one `Vec` per round, over the samples `keep`
/// admits.
fn round_latencies(phases: &[PhaseLog], name: &str, keep: impl Fn(&Req) -> bool) -> Vec<Vec<u64>> {
    rounds(phases, name)
        .map(|ph| {
            ph.samples()
                .filter(|s| keep(&s.req))
                .filter_map(Sample::latency_ns)
                .collect()
        })
        .collect()
}

/// Record the p50 and p99 of `per_round` (ns) as µs metrics — each the
/// median over the rounds of the round's own percentile, or the whole
/// phase's when a round is too thin for it — and say what they rest on.
fn latency_metrics(
    out: &mut Outcome,
    what: &str,
    (p50, p99): (&'static str, &'static str),
    per_round: &[Vec<u64>],
) {
    let pooled: Vec<u64> = per_round.iter().flatten().copied().collect();
    for (metric, p, min) in [
        (p50, 0.5, P50_MIN_PER_ROUND),
        (p99, 0.99, P99_MIN_PER_ROUND),
    ] {
        let w = median_of_windows(per_round, p, min);
        out.metric(metric, w.map_or(0.0, |w| w.value / 1e3));
        let us = |ns: Option<u64>| format!("{:.1}", ns.unwrap_or(0) as f64 / 1e3);
        out.report.push(format!(
            "{metric}: {what} {}; per round {}; whole phase {}",
            fmt_windowed(w),
            per_round
                .iter()
                .map(|r| us(percentile(r, p)))
                .collect::<Vec<_>>()
                .join(" "),
            us(percentile(&pooled, p)),
        ));
    }
}

/// Run one workload end to end.
pub fn run(cfg: &E2eConfig) -> Result<Outcome, String> {
    let w = cfg.workload;
    let write_mix = w.name == "write_mix";
    let cold = w.name == "phonidx_cold";
    let target = if cfg.smoke {
        SMOKE_CORPUS_TARGET
    } else {
        CORPUS_TARGET
    };
    let rate_scale = if cfg.smoke { 0.25 } else { 1.0 };
    let (setup_repeats, restart_repeats) = if cfg.smoke {
        (2, 2)
    } else {
        (SETUP_REPEATS, RESTART_REPEATS)
    };
    let mut out = Outcome::default();

    // Inputs and oracle, all from the seed.
    let corpus = BenchCorpus::build(target);
    let pool = if cold {
        corpus.cold_pool(cfg.seed, if cfg.smoke { 8192 } else { COLD_POOL })
    } else {
        corpus.hot_pool(cfg.seed, HOT_POOL)
    };
    let mut oracle = Oracle::new(&corpus);
    let base_len = oracle.names() as u32;
    let work = WorkDir::create(&format!("{}-{}", w.name, cfg.seed))?;
    let image = work.path("corpus.img");
    if write_mix {
        write_image(&corpus, &image)?;
    }
    let probe = StreamGen::new(&corpus, &pool, w, cfg.seed, 0).render(Req::Match {
        query: 0,
        tagged: true,
    });
    let probe_expected = oracle.expected(&pool[0], true, w.method);

    // Set-up, several times; the last daemon serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut flags = Vec::new();
    let mut wal = PathBuf::new();
    for i in 0..setup_repeats {
        drop(daemon.take());
        wal = work.path(&format!("wal-{i}"));
        flags = daemon_flags(w, target, &image, &wal);
        let (d, secs) = start_daemon(
            &cfg.daemon,
            &flags,
            Instant::now(),
            &probe,
            &probe_expected,
            w.method,
        )?;
        setups.push(secs);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    out.attempted += setups.len() as u64;
    out.metric("setup_s", median_f64(&setups).expect("setups"));
    out.report.push(format!(
        "setup_s: n={} starts {:?}",
        setups.len(),
        setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    ));

    // The timed run: warm-up, then ROUNDS rounds of closed, open_lo, open_hi.
    let mut run = Run {
        workload: w,
        conns: (0..CONNECTIONS)
            .map(|_| Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<_, _>>()?,
        gens: (0..CONNECTIONS)
            .map(|c| StreamGen::new(&corpus, &pool, w, cfg.seed, c))
            .collect(),
        origin: Instant::now(),
    };
    let round = |share: f64| Duration::from_secs_f64(cfg.seconds * share / ROUNDS as f64);
    let warm = Duration::from_secs_f64((cfg.seconds * 0.1).clamp(0.2, 2.0));
    let mut phases = vec![run.phase("warmup", Pace::Closed, warm)];
    let stats_before = run.stats();
    for _ in 0..ROUNDS {
        for (name, share) in PHASE_SHARES {
            let pace = match name {
                "open_lo" => Pace::Open {
                    rate: w.rate_lo * rate_scale,
                },
                "open_hi" => Pace::Open {
                    rate: w.rate_hi * rate_scale,
                },
                _ => Pace::Closed,
            };
            phases.push(run.phase(name, pace, round(share)));
        }
    }
    let stats_after = run.stats();
    let rss = daemon.rss_peak_mb().unwrap_or(0.0);

    // Correctness, after the fact: the measuring threads only stored lines.
    let Checked { verdicts, acked } =
        check_phases(&phases, &run, &pool, &mut oracle, base_len, &mut out)?;
    drop(run);

    // write_mix ends with SIGKILL → restart → ready, several times, and
    // batteries over the grown store around them.
    let mut restarts = Vec::new();
    if write_mix {
        let mut ids_of: HashMap<&Text, Vec<u32>> = HashMap::new();
        for (id, name) in &acked {
            ids_of.entry(name).or_default().push(*id);
        }
        let every = battery(&pool, acked.iter().map(|a| &a.1));
        // The newest ADDs are the WAL tail a faulty replay loses first.
        let newest = battery(&pool, acked.iter().rev().take(16).map(|a| &a.1));
        check_store(
            &daemon,
            &newest,
            &ids_of,
            &oracle,
            "after the run",
            &mut out,
        );

        // Restart from the newest image, as an operator would: the compaction
        // checkpoint once one exists. (Seed finding, see the README: started
        // again from the *original* image, a daemon whose WAL was compacted to
        // empty sees no gap and silently drops every acknowledged ADD.)
        let checkpoint = PathBuf::from(format!("{}.checkpoint", wal.display()));
        if checkpoint.exists() {
            let at = flags
                .iter()
                .position(|f| f == "--snapshot")
                .expect("write_mix starts from a snapshot");
            flags[at + 1] = checkpoint.display().to_string();
        }
        let expected = oracle.expected(&pool[0], true, w.method);
        for i in 0..restart_repeats {
            let from = Instant::now();
            daemon.kill();
            let (d, secs) = start_daemon(&cfg.daemon, &flags, from, &probe, &expected, w.method)
                .map_err(|e| format!("restart {i}: {e}"))?;
            daemon = d;
            restarts.push(secs);
            out.attempted += 1;
            // Every acknowledged ADD, by name, after the first restart (the
            // one that replays what the killed daemon wrote); the newest
            // and the name count after each later one.
            let (names, when) = if i == 0 {
                (&every, "after SIGKILL + restart")
            } else {
                (&newest, "after a further restart")
            };
            check_store(&daemon, names, &ids_of, &oracle, when, &mut out);
        }
        out.report.push(format!(
            "battery: {} MATCH scan after the first restart (32 pool queries + every distinct acknowledged ADD name: each must return the ids acknowledged for it, {ORACLE_SAMPLE} of them the oracle's whole answer), {} after the run and after each later restart (the 16 newest ADDs), names= checked each time. A SIGKILL leaves the OS page cache intact: this checks the replay logic (checkpoint + WAL tail), not the device's durability",
            every.len(),
            newest.len()
        ));
    }
    daemon.kill();

    // Metrics. A phase figure is the median over the phase's rounds.
    let closed_ops: Vec<f64> = rounds(&phases, "closed")
        .map(|ph| {
            let span = ph.span.as_nanos() as u64;
            let answered = ph
                .samples()
                .filter(|s| s.done_ns.is_some_and(|d| d <= span));
            answered.count() as f64 / ph.span.as_secs_f64()
        })
        .collect();
    out.metric("closed_ops_s", median_f64(&closed_ops).unwrap_or(0.0));
    out.report.push(format!(
        "closed_ops_s: median of {ROUNDS} rounds; per round {}",
        closed_ops
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let is_match = |r: &Req| matches!(r, Req::Match { .. });
    let is_add = |r: &Req| matches!(r, Req::Add { .. });
    for (name, metrics) in [
        ("closed", ("closed_p50_us", "closed_p99_us")),
        ("open_lo", ("open_lo_p50_us", "open_lo_p99_us")),
        ("open_hi", ("open_hi_p50_us", "open_hi_p99_us")),
    ] {
        latency_metrics(
            &mut out,
            "MATCH",
            metrics,
            &round_latencies(&phases, name, is_match),
        );
        let late: Vec<u64> = rounds(&phases, name)
            .flat_map(PhaseLog::samples)
            .map(|s| s.sent_ns - s.due_ns)
            .collect();
        out.report.push(format!(
            "{name}: sent {} requests in {ROUNDS} rounds, generator lateness p99 {:.0} us, {:.4} sent >1 ms late",
            late.len(),
            percentile(&late, 0.99).unwrap_or(0) as f64 / 1e3,
            late.iter().filter(|&&l| l > 1_000_000).count() as f64 / late.len().max(1) as f64,
        ));
    }
    // Requests due in open_hi answered correctly within the limit, round by
    // round. The figure is the mean over the best rounds (see
    // `WITHIN_LIMIT_BEST_ROUNDS`); the whole phase, pooled, is printed beside it.
    let limit_ns = (w.limit_us * 1e3) as u64;
    let per_round: Vec<(usize, usize)> = phases
        .iter()
        .zip(&verdicts)
        .filter(|(ph, _)| ph.name == "open_hi")
        .map(|(ph, ok)| {
            let hit = ph
                .samples()
                .zip(ok)
                .filter(|(s, ok)| **ok && s.latency_ns().is_some_and(|l| l <= limit_ns));
            (hit.count(), ph.samples().count())
        })
        .collect();
    let shares: Vec<f64> = per_round
        .iter()
        .map(|&(within, due)| within as f64 / due.max(1) as f64)
        .collect();
    let (within, due) = per_round
        .iter()
        .fold((0, 0), |(w, d), &(within, due)| (w + within, d + due));
    out.metric(
        "open_hi_within_limit",
        mean_of_best(&shares, WITHIN_LIMIT_BEST_ROUNDS).unwrap_or(0.0),
    );
    out.report.push(format!(
        "open_hi_within_limit: mean of the best {WITHIN_LIMIT_BEST_ROUNDS} of {ROUNDS} rounds, correct within {} us at {} req/s; per round {}; whole phase {within} of {due} due = {:.4}",
        w.limit_us,
        w.rate_hi * rate_scale,
        shares
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        within as f64 / due.max(1) as f64,
    ));
    out.metric("rss_mb", rss);
    if write_mix {
        latency_metrics(
            &mut out,
            "ADD (fsynced, beside reads)",
            ("add_p50_us", "add_p99_us"),
            &round_latencies(&phases, "closed", is_add),
        );
        out.metric("restart_ready_s", median_f64(&restarts).expect("restarts"));
        out.report.push(format!(
            "restart_ready_s: n={} restarts {:?}",
            restarts.len(),
            restarts
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
        ));
    }

    // Daemon counters over the timed phases (informational; the traced
    // run produces the per-layer metrics).
    let delta = |k: &str| field_u64(&stats_after, k).saturating_sub(field_u64(&stats_before, k));
    let lookups = (delta("cache_hits") + delta("cache_misses")).max(1);
    out.report.push(format!(
        "daemon STATS over the timed phases: simd={} names={} cache_hit_ratio={:.4} untagged_fanout_mean={:.3} compactions={} wal_appends={} wal_bytes={} batch_lanes_mean={:.2}",
        stats_after.get("simd").map_or("?", String::as_str),
        field_u64(&stats_after, "names"),
        delta("cache_hits") as f64 / lookups as f64,
        delta("untagged_fanout_sum") as f64 / delta("untagged_requests").max(1) as f64,
        delta("compactions"),
        delta("wal_appends"),
        delta("wal_bytes"),
        delta("batch_lanes_sum") as f64 / delta("batch_calls").max(1) as f64,
    ));
    out.report.push(format!(
        "fail_ratio: {} failed of {} attempted = {:.6}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    Ok(out)
}

/// What the oracle pass found.
struct Checked {
    /// Parallel to the phases: per-sample verdicts, in
    /// [`PhaseLog::samples`] order.
    verdicts: Vec<Vec<bool>>,
    /// The acknowledged `ADD`s as (id, name), in id order.
    acked: Vec<(u32, Text)>,
}

/// Check every stored reply against the oracle, and extend the oracle with
/// the acknowledged `ADD`s' names.
fn check_phases(
    phases: &[PhaseLog],
    run: &Run<'_>,
    pool: &[Text],
    oracle: &mut Oracle,
    base_len: u32,
    out: &mut Outcome,
) -> Result<Checked, String> {
    let method = run.workload.method;
    // Acknowledged ADDs: id → (name, sent, acknowledged), times from the run origin.
    struct Ack<'t> {
        name: &'t Text,
        sent_ns: u64,
        done_ns: u64,
    }
    let mut acks: BTreeMap<u32, Ack<'_>> = BTreeMap::new();
    let mut add_verdicts: HashMap<(usize, usize, usize), bool> = HashMap::new();
    let mut every_add_answered = true;
    for (pi, ph) in phases.iter().enumerate() {
        for (ci, samples) in ph.per_conn.iter().enumerate() {
            let mut last_id = None;
            for (si, s) in samples.iter().enumerate() {
                let Req::Add { name } = s.req else { continue };
                let verdict = match (s.done_ns, parse_reply(&s.reply)) {
                    (Some(done), Ok(Reply::Added(id)))
                        if id >= base_len && last_id.map_or(true, |l| id > l) =>
                    {
                        last_id = Some(id);
                        acks.insert(
                            id,
                            Ack {
                                name: &run.gens[ci].names[name as usize],
                                sent_ns: ph.origin_ns + s.sent_ns,
                                done_ns: ph.origin_ns + done,
                            },
                        )
                        .is_none()
                    }
                    _ => false,
                };
                every_add_answered &= s.done_ns.is_some();
                if !verdict {
                    out.fail(format!("{} ADD #{si}: reply {:?}", ph.name, s.reply));
                }
                add_verdicts.insert((pi, ci, si), verdict);
            }
        }
    }
    if every_add_answered
        && acks
            .keys()
            .zip(base_len..)
            .any(|(&id, expect)| id != expect)
    {
        out.fail(format!(
            "acknowledged ADD ids are not the contiguous range from {base_len}"
        ));
    }

    // Expected answers over the base corpus, computed on both cores for
    // the distinct (query, tagged) pairs actually sent.
    let mut keys: Vec<(u32, bool)> = phases
        .iter()
        .flat_map(PhaseLog::samples)
        .filter_map(|s| match s.req {
            Req::Match { query, tagged } => Some((query, tagged)),
            Req::Add { .. } => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let expected: HashMap<(u32, bool), Vec<u32>> = {
        let oracle = &*oracle;
        let halves = keys.split_at(keys.len() / 2);
        std::thread::scope(|s| {
            let work = |part: &[(u32, bool)]| {
                part.iter()
                    .map(|&(q, t)| ((q, t), oracle.expected(&pool[q as usize], t, method)))
                    .collect::<Vec<_>>()
            };
            let a = s.spawn(move || work(halves.0));
            let mut all = work(halves.1);
            all.extend(a.join().expect("oracle thread panicked"));
            all.into_iter().collect()
        })
    };
    // phonidx may dismiss matches but never invent them: spot-check ⊆ scan.
    if method == SearchMethod::PhoneticIndex {
        for (&(q, t), ids) in expected.iter().take(200) {
            let scan = oracle.expected(&pool[q as usize], t, SearchMethod::Scan);
            if !ids.iter().all(|i| scan.binary_search(i).is_ok()) {
                out.fail(format!(
                    "phonidx answer for query {q} is not a subset of the scan answer"
                ));
            }
        }
    }

    // New names each sent query matches, once the oracle holds them.
    let names: Vec<Text> = acks.values().map(|a| a.name.clone()).collect();
    oracle.extend(&names)?;
    let grown: HashMap<u32, Vec<u32>> = if acks.is_empty() {
        HashMap::new()
    } else {
        keys.iter()
            .filter(|k| k.1)
            .map(|&(q, _)| {
                let ids = oracle.expected(&pool[q as usize], true, SearchMethod::Scan);
                (q, ids.into_iter().filter(|&i| i >= base_len).collect())
            })
            .collect()
    };

    let mut verdicts = Vec::with_capacity(phases.len());
    for (pi, ph) in phases.iter().enumerate() {
        let mut phase_verdicts = Vec::new();
        for (ci, samples) in ph.per_conn.iter().enumerate() {
            for (si, s) in samples.iter().enumerate() {
                out.attempted += 1;
                let (query, tagged) = match s.req {
                    Req::Add { .. } => {
                        phase_verdicts.push(add_verdicts[&(pi, ci, si)]);
                        continue;
                    }
                    Req::Match { query, tagged } => (query, tagged),
                };
                let Some(done) = s.done_ns else {
                    out.fail(format!("{} MATCH #{si}: unanswered", ph.name));
                    phase_verdicts.push(false);
                    continue;
                };
                let result = match_ids(&s.reply, method).and_then(|ids| {
                    let split = ids.partition_point(|&i| i < base_len);
                    if ids[..split] != expected[&(query, tagged)][..] {
                        return Err(format!(
                            "base ids differ: got {:?}…, expected {:?}…",
                            &ids[..split.min(6)],
                            &expected[&(query, tagged)][..expected[&(query, tagged)].len().min(6)]
                        ));
                    }
                    // Visibility of writes: an ADD acknowledged before this
                    // MATCH was sent must show; one not even sent when the
                    // reply arrived must not.
                    let (sent, done) = (ph.origin_ns + s.sent_ns, ph.origin_ns + done);
                    let new = &ids[split..];
                    for id in grown.get(&query).map_or(&[][..], Vec::as_slice) {
                        let ack = &acks[id];
                        if ack.done_ns < sent && !new.contains(id) {
                            return Err(format!("acknowledged ADD {id} missing"));
                        }
                    }
                    for id in new {
                        let known = grown.get(&query).is_some_and(|g| g.contains(id));
                        if !known || acks[id].sent_ns > done {
                            return Err(format!("id {id} does not belong in this answer"));
                        }
                    }
                    Ok(())
                });
                if let Err(e) = &result {
                    out.fail(format!(
                        "{} MATCH #{si} {:?}: {e}",
                        ph.name, pool[query as usize].text
                    ));
                }
                phase_verdicts.push(result.is_ok());
            }
        }
        verdicts.push(phase_verdicts);
    }
    out.report.push(format!(
        "oracle: {} distinct queries checked, {} ADDs acknowledged (ids {}..{})",
        keys.len(),
        acks.len(),
        base_len,
        base_len as usize + acks.len()
    ));
    let acked = acks.iter().map(|(&id, a)| (id, a.name.clone())).collect();
    Ok(Checked { verdicts, acked })
}

/// Battery texts: 32 pool queries plus `added` names, each text once.
fn battery<'t>(pool: &'t [Text], added: impl Iterator<Item = &'t Text>) -> Vec<Text> {
    let mut seen = HashSet::new();
    pool.iter()
        .take(32)
        .chain(added)
        .filter(|t| seen.insert(*t))
        .cloned()
        .collect()
}

/// Battery answers held to the oracle's whole answer (an in-process scan
/// each, which is what bounds it); the rest must hold their own ids.
const ORACLE_SAMPLE: usize = 512;

/// The daemon's store against the oracle's (corpus + acknowledged ADDs):
/// `STATS names=` must be the oracle's count, `MATCH … scan` of a battery
/// text must return every id acknowledged for that text, and — for all of
/// a short battery, evenly spaced [`ORACLE_SAMPLE`] of a long one —
/// exactly the oracle's ids.
fn check_store(
    daemon: &Daemon,
    battery: &[Text],
    ids_of: &HashMap<&Text, Vec<u32>>,
    oracle: &Oracle,
    when: &str,
    out: &mut Outcome,
) {
    out.attempted += 1 + battery.len() as u64;
    let lines: Vec<String> = battery
        .iter()
        .map(|q| {
            format!(
                "MATCH {} scan {THRESHOLD} {}",
                lang_code(q.language),
                q.text
            )
        })
        .collect();
    let replies = Conn::connect(&daemon.addr).and_then(|mut conn| {
        let stats = conn.request("STATS")?;
        Ok((stats, conn.pipeline(&lines, 32)?))
    });
    let (stats, replies) = match replies {
        Ok(r) => r,
        Err(e) => {
            for _ in 0..=battery.len() {
                out.fail(format!("battery {when}: {e}"));
            }
            return;
        }
    };
    let names = match parse_reply(&stats) {
        Ok(Reply::Fields(f)) => field_u64(&f, "names"),
        _ => 0,
    };
    if names != oracle.names() as u64 {
        out.fail(format!(
            "{when}: the daemon holds names={names}, corpus + acknowledged ADDs are {}",
            oracle.names()
        ));
    }
    let stride = battery.len().div_ceil(ORACLE_SAMPLE).max(1);
    for (i, (q, reply)) in battery.iter().zip(&replies).enumerate() {
        let verdict = match_ids(reply, SearchMethod::Scan).and_then(|ids| {
            let own = ids_of.get(q).map_or(&[][..], Vec::as_slice);
            if let Some(lost) = own.iter().find(|id| ids.binary_search(id).is_err()) {
                return Err(format!("acknowledged ADD {lost} is not in the answer"));
            }
            if i % stride == 0 && ids != oracle.expected(q, true, SearchMethod::Scan) {
                return Err("ids differ from the oracle's".to_owned());
            }
            Ok(())
        });
        if let Err(e) = verdict {
            out.fail(format!("battery {when}, {:?}: {e}", q.text));
        }
    }
}
