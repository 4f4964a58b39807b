//! `lexequald` — the LexEQUAL match daemon.
//!
//! ```text
//! lexequald [--addr HOST:PORT] [--shards N] [--cache N] [--threshold E] [--preload N]
//!           [--snapshot PATH] [--save-snapshot PATH] [--wal PATH]
//!           [--wal-max-bytes N] [--wal-ack-grace SECS]
//!           [--replica-of HOST:PORT]
//!           [--mode evented] [--workers N] [--max-pipeline N]
//!           [--max-line BYTES] [--queue N]
//! ```
//!
//! Binds a TCP listener and serves the line protocol documented in
//! `lexequal_service::proto` (ADD, BUILD, MATCH, BATCH, STATS, SAVE,
//! QUIT) on a single epoll readiness loop with a fixed pool of
//! `--workers` verify threads and up to `--max-pipeline` in-flight
//! requests per connection. `--mode evented` names that loop, the only
//! one there is; it is accepted so old command lines keep working.
//! `--shards` is validated (1..=1024) and otherwise ignored: the store is
//! one partition, and a fresh store's `STATS` echoes the value as
//! `shards=`. `--workers` is at most 1024, each a thread spawned before
//! serving. The cluster table and intra-cluster cost are `MatchConfig`
//! settings, not flags.
//!
//! Every store source starts the same way — rows in, the recorded (or
//! default) access paths *declared*, `serving on` (DESIGN §5n): a declared
//! path answers exactly from the first request, and is covered — made
//! fast — in the background when a request first names it or `BUILD`
//! asks for it. Store population, fastest first:
//!
//! * `--snapshot PATH` — restore the store from the snapshot image
//!   written by `--save-snapshot` (or the `SAVE` wire command): a file
//!   map, no G2P pass, whatever shard count the image's header names.
//! * `--preload N` — bulk-load ≈N synthetic names (paper §5 dataset; at
//!   most the 2 004 918 the lexicon can pair) and declare all three
//!   access paths.
//!
//! `--save-snapshot PATH` writes the store — its rows and declared paths
//! — to PATH once it is populated (after `--preload`, before serving), so
//! the next start can use `--snapshot PATH`. It also becomes the default
//! target for the `SAVE` wire command.
//!
//! Replication (see DESIGN §5e):
//!
//! * `--wal PATH` makes this daemon a **primary**: every mutation
//!   appends to the write-ahead op log (fsynced) before the client sees
//!   `OK`, restart replays the WAL tail past `--snapshot`'s covered
//!   LSN, and `REPL HELLO <lsn>` on any connection to `--addr` opens a
//!   replication stream — the one door a replica comes in by.
//! * `--replica-of HOST:PORT` makes this daemon a **read-only replica**:
//!   it seeds itself with a snapshot transfer from the primary, applies
//!   the op stream continuously (reconnecting with backoff), answers
//!   MATCH/BATCH/STATS locally and rejects mutations with a redirect.
//!
//! WAL compaction (see DESIGN §5i): `--wal-max-bytes N` bounds the log —
//! when it grows past N bytes a background cycle writes a durable mmap
//! checkpoint to `<wal>.checkpoint` and truncates the prefix every
//! in-grace replica has acknowledged (the `COMPACT` wire command runs
//! the same cycle by hand, threshold or not). `--wal-ack-grace SECS`
//! (default 10) is how long a silent replica keeps pinning the horizon
//! before it is written off as a straggler (it re-seeds from a snapshot
//! transfer when it comes back). On startup, if the configured
//! `--snapshot` predates a compacted log (a gap, or a log compacted to
//! empty beside a newer checkpoint), the daemon falls back to
//! `<wal>.checkpoint` automatically; with no `--snapshot` at all the
//! checkpoint is used whenever it exists.

use lexequal::config::THRESHOLD_RANGE;
use lexequal::MatchConfig;
use lexequal_service::shard::MAX_SHARDS;
use lexequal_service::{
    bind_reusable, mmapstore, repl, BuildSpec, CompactionPolicy, MatchService, ReplicaState,
    Replicator, ReqCtx, Role, ServeOptions, ServiceConfig, ShutdownSignal, Wal, WalError,
    WalMetrics, MAX_WORKERS,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn usage() -> String {
    format!(
        "usage: lexequald [--addr HOST:PORT] [--shards N] [--cache N] \
         [--threshold E] [--preload N] \
         [--snapshot PATH] [--save-snapshot PATH] \
         [--wal PATH] [--wal-max-bytes N] [--wal-ack-grace SECS] \
         [--replica-of HOST:PORT] \
         [--mode evented] [--workers N] [--max-pipeline N] [--max-line BYTES] [--queue N]\n\
         (--workers is at most {MAX_WORKERS}; --mode evented names the only serve loop; \
         it is accepted for old command lines)"
    )
}

struct Args {
    addr: String,
    /// `--shards`: partitions nothing; a fresh store's `STATS` echoes it.
    shards: usize,
    cache: usize,
    threshold: Option<f64>,
    preload: usize,
    snapshot: Option<String>,
    save_snapshot: Option<String>,
    wal: Option<String>,
    /// Size threshold for background WAL compaction (`None` = only the
    /// explicit `COMPACT` command compacts).
    wal_max_bytes: Option<u64>,
    /// Straggler grace in seconds before a silent replica stops
    /// pinning the compaction horizon (`None` = default).
    wal_ack_grace: Option<u64>,
    replica_of: Option<String>,
    serve: ServeOptions,
}

/// Parse one flag's value, naming the flag *and* the offending value in
/// the error — every numeric flag goes through here so bad input always
/// reads the same way: `--shards: invalid value "x" (expected ...)`.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str, expected: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?} (expected {expected})"))
}

/// Addresses must at least look like `HOST:PORT`; catching this at parse
/// time beats a confusing connect/bind error later.
fn parse_addr(flag: &str, value: String) -> Result<String, String> {
    if !value.contains(':') {
        return Err(format!(
            "{flag}: invalid value {value:?} (expected HOST:PORT)"
        ));
    }
    Ok(value)
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7077".to_owned(),
        shards: 1,
        cache: 4096,
        threshold: None,
        preload: 0,
        snapshot: None,
        save_snapshot: None,
        wal: None,
        wal_max_bytes: None,
        wal_ack_grace: None,
        replica_of: None,
        serve: ServeOptions::default(),
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = parse_addr("--addr", value("--addr")?)?,
            "--snapshot" => args.snapshot = Some(value("--snapshot")?),
            "--save-snapshot" => args.save_snapshot = Some(value("--save-snapshot")?),
            "--wal" => args.wal = Some(value("--wal")?),
            "--wal-max-bytes" => {
                let v = value("--wal-max-bytes")?;
                let n: u64 = parse_value("--wal-max-bytes", &v, "a positive byte count")?;
                if n == 0 {
                    return Err(format!(
                        "--wal-max-bytes: invalid value {v:?} (must be positive)"
                    ));
                }
                args.wal_max_bytes = Some(n);
            }
            "--wal-ack-grace" => {
                let v = value("--wal-ack-grace")?;
                args.wal_ack_grace =
                    Some(parse_value("--wal-ack-grace", &v, "a number of seconds")?);
            }
            "--replica-of" => {
                args.replica_of = Some(parse_addr("--replica-of", value("--replica-of")?)?);
            }
            "--shards" => {
                let v = value("--shards")?;
                let n: usize = parse_value("--shards", &v, "a positive integer")?;
                if n == 0 {
                    return Err(format!("--shards: invalid value {v:?} (must be positive)"));
                }
                if n > MAX_SHARDS {
                    return Err(format!(
                        "--shards: invalid value {v:?} (at most {MAX_SHARDS})"
                    ));
                }
                args.shards = n;
            }
            "--cache" => {
                args.cache = parse_value("--cache", &value("--cache")?, "an integer")?;
            }
            "--threshold" => {
                let v = value("--threshold")?;
                let e: f64 = parse_value("--threshold", &v, "a number in [0,1]")?;
                if !THRESHOLD_RANGE.contains(&e) {
                    return Err(format!(
                        "--threshold: invalid value {v:?} (must be in [0,1])"
                    ));
                }
                args.threshold = Some(e);
            }
            "--preload" => {
                args.preload = parse_value("--preload", &value("--preload")?, "an integer")?;
            }
            "--mode" => {
                let v = value("--mode")?;
                if !v.eq_ignore_ascii_case("evented") {
                    return Err(format!(
                        "--mode: invalid value {v:?} (expected evented; the threaded \
                         serve path was removed)"
                    ));
                }
            }
            "--workers" => {
                let v = value("--workers")?;
                args.serve.workers = parse_value("--workers", &v, "a positive integer")?;
                if args.serve.workers == 0 {
                    return Err(format!("--workers: invalid value {v:?} (must be positive)"));
                }
                if args.serve.workers > MAX_WORKERS {
                    return Err(format!(
                        "--workers: invalid value {v:?} (at most {MAX_WORKERS})"
                    ));
                }
            }
            "--max-pipeline" => {
                let v = value("--max-pipeline")?;
                args.serve.max_pipeline = parse_value("--max-pipeline", &v, "a positive integer")?;
                if args.serve.max_pipeline == 0 {
                    return Err(format!(
                        "--max-pipeline: invalid value {v:?} (must be positive)"
                    ));
                }
            }
            "--max-line" => {
                let v = value("--max-line")?;
                args.serve.max_line = parse_value("--max-line", &v, "a byte count")?;
                if args.serve.max_line < 16 {
                    return Err(format!(
                        "--max-line: invalid value {v:?} (must be at least 16 bytes)"
                    ));
                }
            }
            "--queue" => {
                let v = value("--queue")?;
                args.serve.queue_capacity = parse_value("--queue", &v, "a positive integer")?;
                if args.serve.queue_capacity == 0 {
                    return Err(format!("--queue: invalid value {v:?} (must be positive)"));
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.snapshot.is_some() && args.preload > 0 {
        return Err(
            "--snapshot and --preload are mutually exclusive (the snapshot \
                    already holds a corpus)"
                .to_owned(),
        );
    }
    if args.replica_of.is_some() {
        // A replica's store is owned by the primary's stream end to end:
        // no local WAL, no local seeding, no snapshots of its own.
        for (flag, set) in [
            ("--wal", args.wal.is_some()),
            ("--snapshot", args.snapshot.is_some()),
            ("--save-snapshot", args.save_snapshot.is_some()),
            ("--preload", args.preload > 0),
        ] {
            if set {
                return Err(format!(
                    "--replica-of and {flag} are mutually exclusive (a replica \
                     seeds itself from the primary)"
                ));
            }
        }
    }
    for (flag, set) in [
        ("--wal-max-bytes", args.wal_max_bytes.is_some()),
        ("--wal-ack-grace", args.wal_ack_grace.is_some()),
    ] {
        if set && args.wal.is_none() {
            return Err(format!(
                "{flag} requires --wal (compaction bounds the write-ahead log)"
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lexequald: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let mut match_config = MatchConfig::default();
    if let Some(e) = args.threshold {
        match_config = match_config.with_threshold(e);
    }

    let shutdown = match ShutdownSignal::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lexequald: cannot create shutdown signal: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = match &args.replica_of {
        Some(primary) => start_replica(primary, &args, &match_config, &shutdown),
        None => start_local(&args, &match_config, &shutdown),
    };
    match started {
        Some(started) => serve_role(args, started, shutdown),
        None => ExitCode::FAILURE,
    }
}

/// A daemon ready to serve: its store, the role it answers in and (on a
/// replica) the apply thread.
struct Started {
    service: Arc<MatchService>,
    role: Role,
    apply: Option<JoinHandle<()>>,
}

/// A standalone daemon, or with `--wal` a primary: recover the store
/// from the newest usable snapshot and the log, or populate a fresh one.
fn start_local(
    args: &Args,
    match_config: &MatchConfig,
    shutdown: &ShutdownSignal,
) -> Option<Started> {
    // Recovery candidates, preferred first: the explicit --snapshot,
    // then the compaction checkpoint (<wal>.checkpoint) when one
    // exists, then a fresh store. A candidate too old for a compacted
    // log (a WAL gap, or a log with no record left beside a newer next
    // candidate) falls through to the next — the checkpoint is written
    // durably before any truncation precisely so this chain always
    // lands (DESIGN §5i).
    let checkpoint_path = args.wal.as_ref().map(|w| format!("{w}.checkpoint"));

    // A daemon killed mid-checkpoint never renamed its temp file, and no
    // later process shares its pid: sweep those now, before this process
    // can begin a checkpoint of its own.
    for path in [&args.snapshot, &args.save_snapshot, &checkpoint_path]
        .into_iter()
        .flatten()
    {
        for stale in mmapstore::remove_stale_tmp(path) {
            eprintln!(
                "lexequald: removed stale checkpoint temp file {stale:?} (its writer is gone)"
            );
        }
    }

    let mut candidates: Vec<String> = Vec::new();
    if let Some(s) = &args.snapshot {
        candidates.push(s.clone());
    }
    if let Some(c) = &checkpoint_path {
        if std::path::Path::new(c).exists() {
            if args.preload > 0 {
                eprintln!(
                    "lexequald: refusing --preload: wal checkpoint {c:?} exists and \
                     already holds a corpus (remove it to start fresh)"
                );
                return None;
            }
            candidates.push(c.clone());
        }
    }

    let mut candidate = 0usize;
    let (service, replicator) = loop {
        let (service, base_lsn) = match candidates.get(candidate) {
            Some(path) => match load_snapshot_service(path, match_config, args) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("lexequald: cannot load snapshot {path:?}: {e}");
                    return None;
                }
            },
            None => fresh_service(match_config, args),
        };

        // With --wal this daemon is a primary: recover the tail past the
        // snapshot, then commit every future mutation through the log.
        let Some(path) = &args.wal else {
            break (service, None);
        };
        let start = Instant::now();
        let metrics = Arc::new(WalMetrics::default());
        let (wal, tail) = match Wal::open(path, base_lsn, Arc::clone(&metrics)) {
            Ok(v) => v,
            Err(e @ WalError::Gap { .. }) if candidate + 1 < candidates.len() => {
                eprintln!(
                    "lexequald: snapshot {:?} predates the compacted wal {path:?} ({e}); \
                     falling back to {:?}",
                    candidates[candidate],
                    candidates[candidate + 1],
                );
                candidate += 1;
                continue;
            }
            Err(e) => {
                eprintln!("lexequald: cannot open wal {path:?}: {e}");
                return None;
            }
        };
        // A log holding no record cannot show a gap: a cycle that dropped
        // every record leaves it as empty as a fresh one. Only the next
        // candidate can say whether this one is stale (an unreadable one
        // falls through too, so its load reports the real error).
        if wal.first_lsn().is_none() {
            if let Some(next) = candidates.get(candidate + 1) {
                if MatchService::snapshot_lsn(next).map_or(true, |lsn| lsn > base_lsn) {
                    eprintln!(
                        "lexequald: wal {path:?} holds no record, so it cannot vouch for \
                         snapshot {:?} (lsn {base_lsn}); falling back to {next:?}",
                        candidates[candidate],
                    );
                    candidate += 1;
                    continue;
                }
            }
        }
        let replayed = tail.len();
        let mut replay_failed = false;
        for record in tail {
            if let Err(e) = service.apply_op(&record.op) {
                eprintln!(
                    "lexequald: cannot replay wal {path:?} record lsn {}: {e:?}",
                    record.lsn
                );
                replay_failed = true;
                break;
            }
        }
        if replay_failed {
            return None;
        }
        eprintln!(
            "lexequald: wal {path:?} replayed {replayed} op(s), head lsn {} in {:.2?}",
            wal.head_lsn(),
            start.elapsed(),
        );
        break (service, Some(Replicator::new(wal, metrics)));
    };

    // Compaction policy: the checkpoint target is fixed next to the
    // wal, so recovery always knows where to look; the byte threshold
    // arms the background compactor below.
    if let Some(repl) = &replicator {
        repl.set_compaction_policy(CompactionPolicy {
            checkpoint: checkpoint_path.as_ref().map(PathBuf::from),
            max_bytes: args.wal_max_bytes,
            grace: args
                .wal_ack_grace
                .map_or(repl::DEFAULT_ACK_GRACE, Duration::from_secs),
        });
    }

    if let Some(path) = &args.save_snapshot {
        let start = Instant::now();
        let saved = match &replicator {
            Some(repl) => repl
                .save_snapshot_atomic(&service, std::path::Path::new(path))
                .map(|_| ()),
            None => service.save_snapshot(path),
        };
        if let Err(e) = saved {
            eprintln!("lexequald: cannot save snapshot {path:?}: {e}");
            return None;
        }
        eprintln!(
            "lexequald: snapshot saved to {path:?} ({} names) in {:.2?}",
            service.len(),
            start.elapsed(),
        );
    }

    // Background compactor: polls the live byte count and runs a
    // checkpoint-and-truncate cycle whenever the log outgrows the
    // threshold (DESIGN §5i). Explicit COMPACT works regardless.
    if let Some(repl) = &replicator {
        if args.wal_max_bytes.is_some() {
            repl.adopt_thread(repl::spawn_compactor(
                Arc::clone(repl),
                Arc::clone(&service),
                shutdown.clone(),
            ));
        }
    }

    Some(Started {
        service,
        role: replicator.map_or(Role::Standalone, Role::Primary),
        apply: None,
    })
}

/// Every role's tail: bind, announce, serve until shutdown, then stop
/// what the role started. The `serving on` line differs only in its
/// suffix.
fn serve_role(args: Args, started: Started, shutdown: ShutdownSignal) -> ExitCode {
    let Started {
        service,
        role,
        apply,
    } = started;
    let listener = match bind_reusable(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("lexequald: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let suffix = match &role {
        Role::Standalone => String::new(),
        Role::Primary(_) => " role=primary".to_owned(),
        Role::Replica(state) => format!(" role=replica primary={}", state.primary),
    };
    eprintln!(
        "lexequald: serving on {} workers={} max-pipeline={}{suffix}",
        listener
            .local_addr()
            .map_or_else(|_| args.addr.clone(), |a| a.to_string()),
        args.serve.workers,
        args.serve.max_pipeline,
    );
    let ctx = ReqCtx {
        role: role.clone(),
        save_path: args
            .save_snapshot
            .as_ref()
            .or(args.snapshot.as_ref())
            .map(PathBuf::from),
    };
    let result = lexequal_service::serve(listener, service, ctx, args.serve, shutdown.clone());
    shutdown.trigger();
    if let Role::Primary(repl) = &role {
        repl.stop_and_join();
    }
    if let Some(apply) = apply {
        let _ = apply.join();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lexequald: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One startup recovery candidate, loaded: the serving handle (its
/// recorded access paths declared) and the WAL LSN it covers.
type LoadedService = (Arc<MatchService>, u64);

/// Restore the store from a snapshot (or checkpoint) file, announcing
/// how it loaded. Shared by every recovery candidate in `main`.
fn load_snapshot_service(
    path: &str,
    match_config: &MatchConfig,
    args: &Args,
) -> Result<LoadedService, String> {
    let load = MatchService::load_snapshot_auto(match_config.clone(), args.cache, path)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "lexequald: snapshot {path:?} loaded via mmap: {} names, {} bytes \
         mapped, serve-ready in {}ms \
         ({} access path(s) declared, each covered when first named)",
        load.service.len(),
        load.mapped_bytes,
        load.load_ms,
        load.pending_builds.len(),
    );
    Ok((Arc::new(load.service), load.lsn))
}

/// No snapshot and no checkpoint: an empty store (optionally bulk-seeded
/// via `--preload`) starting at LSN 0.
fn fresh_service(match_config: &MatchConfig, args: &Args) -> LoadedService {
    let service = Arc::new(MatchService::new(ServiceConfig {
        match_config: match_config.clone(),
        shards: args.shards,
        cache_capacity: args.cache,
    }));
    if args.preload > 0 {
        eprintln!("lexequald: preloading ~{} synthetic names...", args.preload);
        let start = Instant::now();
        let loaded = service.preload(args.preload);
        for spec in [
            BuildSpec::Qgram {
                q: 3,
                mode: lexequal::QgramMode::Strict,
            },
            BuildSpec::PhoneticIndex,
            BuildSpec::BkTree,
        ] {
            service.store().declare(spec);
        }
        // The target rounds up to whole pairs, so fewer names than asked
        // for means the lexicon has no more base names to pair.
        let names = loaded.names;
        let capped = if names < args.preload {
            format!(" asked={} ceiling={names}", args.preload)
        } else {
            String::new()
        };
        eprintln!(
            "lexequald: preloaded names={names}{capped} base_ms={:.1} load_ms={:.1} \
             total_ms={:.1}",
            loaded.base.as_secs_f64() * 1e3,
            loaded.load.as_secs_f64() * 1e3,
            ms_since(start)
        );
    }
    (service, 0)
}

/// `--replica-of`: seed from the primary's snapshot stream (its recorded
/// paths declared) and keep applying its ops on a background thread.
fn start_replica(
    primary: &str,
    args: &Args,
    match_config: &MatchConfig,
    shutdown: &ShutdownSignal,
) -> Option<Started> {
    let state = Arc::new(ReplicaState::new(primary.to_owned()));
    let start = Instant::now();
    eprintln!("lexequald: replica of {primary}: waiting for initial sync...");
    let (service, stream, reader) =
        match repl::initial_sync(primary, match_config, args.cache, &state, shutdown) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("lexequald: initial sync with {primary} failed: {e}");
                return None;
            }
        };
    let service = Arc::new(service);
    let load = service.load_info();
    eprintln!(
        "lexequald: replica synced from {primary}: {} names at lsn {} in {:.2?} \
         (image of {} bytes, loaded in {}ms)",
        service.len(),
        state.applied(),
        start.elapsed(),
        load.mapped_bytes,
        load.load_ms,
    );

    let apply = {
        let service = Arc::clone(&service);
        let state = Arc::clone(&state);
        let shutdown = shutdown.clone();
        std::thread::Builder::new()
            .name("lexequald-apply".to_owned())
            .spawn(move || {
                if let Err(e) =
                    repl::run_replica(&service, &state, Some((stream, reader)), &shutdown)
                {
                    // A divergent replica cannot limp along serving
                    // stale answers; die loudly so a supervisor reseeds.
                    eprintln!("lexequald: replication stream failed: {e}");
                    std::process::exit(2);
                }
            })
            .expect("spawn replica apply thread")
    };
    Some(Started {
        service,
        role: Role::Replica(state),
        apply: Some(apply),
    })
}
