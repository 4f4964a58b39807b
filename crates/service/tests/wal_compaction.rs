//! In-process compaction tests: the crash-state matrix around a
//! checkpoint-and-truncate cycle (recovery must compose checkpoint +
//! surviving tail byte-identically at every intermediate filesystem
//! state), the straggler live re-seed path, divergence refusal on both
//! sides of the wire, and the incremental-serving edges around a
//! compacted base.

use lexequal::{Language, MatchConfig};
use lexequal_service::repl::{self, CompactionPolicy, ReplicaState, Replicator};
use lexequal_service::{
    bind_reusable, mmapstore, MatchRequest, MatchService, ServiceConfig, ShutdownSignal, Wal,
    WalError, WalMetrics,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p =
            std::env::temp_dir().join(format!("lexequal_compaction_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).expect("create temp dir");
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The i-th synthetic name: always alphabetic, always G2P-transformable.
fn name(i: usize) -> String {
    let heads = ["Ka", "Re", "Ni", "Mo", "Ta", "Lu"];
    let tails = ["ram", "vel", "din", "sha", "pur", "nak"];
    format!(
        "{}{}",
        heads[(i / tails.len()) % heads.len()],
        tails[i % tails.len()]
    )
}

fn fresh_service(config: &MatchConfig) -> Arc<MatchService> {
    Arc::new(MatchService::new(ServiceConfig {
        match_config: config.clone(),
        shards: 2,
        cache_capacity: 1024,
    }))
}

fn new_primary(wal_path: &Path, config: &MatchConfig) -> (Arc<MatchService>, Arc<Replicator>) {
    let service = fresh_service(config);
    let metrics = Arc::new(WalMetrics::default());
    let (wal, tail) = Wal::open(wal_path, 0, metrics.clone()).expect("open wal");
    assert!(tail.is_empty(), "fresh wal must be empty");
    (service, Replicator::new(wal, metrics))
}

/// Every answer the first `n` names produce — the byte-identical
/// equivalence check between two stores.
fn battery(service: &MatchService, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let out = service.lookup(&MatchRequest::new(name(i), Language::English));
            format!("{} => {out:?}", name(i))
        })
        .collect()
}

/// Recover a store exactly like the daemon does: sweep the temp files
/// dead checkpoint writers left behind, then the explicit snapshot (if
/// given), then the checkpoint (if one exists), then a fresh store;
/// a candidate the log shows to be stale — a gap, or no record at all
/// beside a newer next candidate — falls through to the next. Then
/// replay the WAL tail past the base that held.
fn recover(
    snapshot: Option<&Path>,
    wal_path: &Path,
    ckpt_path: &Path,
    config: &MatchConfig,
) -> Arc<MatchService> {
    for path in snapshot.into_iter().chain([ckpt_path]) {
        mmapstore::remove_stale_tmp(path);
    }
    let candidates: Vec<&Path> = snapshot
        .into_iter()
        .chain(ckpt_path.exists().then_some(ckpt_path))
        .collect();
    for (i, candidate) in candidates.iter().map(Some).chain([None]).enumerate() {
        let (service, base) = match candidate {
            Some(path) => {
                let load = MatchService::load_snapshot_auto(config.clone(), None, 1024, path)
                    .expect("load snapshot");
                for spec in load.pending_builds {
                    load.service.build(spec);
                }
                (Arc::new(load.service), load.lsn)
            }
            None => (fresh_service(config), 0),
        };
        let next = candidates.get(i + 1);
        let metrics = Arc::new(WalMetrics::default());
        let tail = match Wal::open(wal_path, base, metrics) {
            Err(WalError::Gap { .. }) if next.is_some() => continue,
            Ok((wal, _))
                if wal.first_lsn().is_none()
                    && next.is_some_and(|n| {
                        MatchService::snapshot_lsn(n).map_or(true, |lsn| lsn > base)
                    }) =>
            {
                continue
            }
            opened => opened.expect("open wal for recovery").1,
        };
        for rec in tail {
            service.apply_op(&rec.op).expect("replay op");
        }
        return service;
    }
    unreachable!("the fresh store has no next candidate to fall through to")
}

fn wait_until(what: &str, pred: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Copy the current on-disk state (WAL, optionally checkpoint and a
/// scratch file) into a named crash-state directory.
fn capture_state(dir: &Path, state: &str, files: &[(&Path, &str)]) -> PathBuf {
    let d = dir.join(state);
    std::fs::create_dir_all(&d).expect("create state dir");
    for (src, dst) in files {
        std::fs::copy(src, d.join(dst)).expect("copy state file");
    }
    d
}

/// The crash-state matrix: every intermediate filesystem state a kill
/// can leave behind during a compaction cycle must recover to the same
/// answers as the never-crashed store. The cycle's ordering invariant
/// (checkpoint durable BEFORE any log byte is dropped) is exactly what
/// makes each of these states complete.
#[test]
fn recovery_composes_checkpoint_and_surviving_tail_at_every_crash_point() {
    let dir = TempDir::new("crash_matrix");
    let wal_path = dir.path().join("primary.wal");
    let ckpt_path = dir.path().join("primary.wal.checkpoint");
    let config = MatchConfig::default();
    let (service, repl) = new_primary(&wal_path, &config);
    repl.set_compaction_policy(CompactionPolicy {
        checkpoint: Some(ckpt_path.clone()),
        max_bytes: None,
        grace: Duration::from_secs(10),
    });

    // The image an operator started the daemon from (`--snapshot`): it
    // covers lsn 6 and stays on disk, ever staler, through every state.
    let image = dir.path().join("original.img");
    for i in 0..18 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
        if i == 5 {
            let lsn = repl
                .save_snapshot_atomic(&service, &image)
                .expect("write original image");
            assert_eq!(lsn, 6);
        }
    }

    // Crash BEFORE the checkpoint landed: the full log alone recovers.
    let pre = capture_state(dir.path(), "pre", &[(&wal_path, "primary.wal")]);

    // Step 1 of the cycle: durable checkpoint at the head.
    let ckpt_lsn = repl
        .save_snapshot_atomic(&service, &ckpt_path)
        .expect("write checkpoint");
    assert_eq!(ckpt_lsn, 18);

    // Crash AFTER the checkpoint rename, BEFORE truncation: checkpoint
    // and full log coexist; recovery takes the checkpoint and replays a
    // tail the checkpoint already covers... which is empty past lsn 18.
    let mid = capture_state(
        dir.path(),
        "mid",
        &[
            (&wal_path, "primary.wal"),
            (&ckpt_path, "primary.wal.checkpoint"),
        ],
    );

    // Crash MID-STREAM, killed while the checkpoint was being written:
    // the full log, no checkpoint, and the writer's temp file — sized to
    // the whole image, a few sections in, the header (written last)
    // still zeros — under a pid that names no process. Recovery must not
    // mistake it for anything, and must delete it: no later daemon shares
    // that pid, so nothing else ever would. A live writer's temp file
    // (this process's pid) is left alone, and so is a dead writer's for
    // another artefact that merely shares the stem.
    let stream = capture_state(dir.path(), "stream", &[(&wal_path, "primary.wal")]);
    let mut partial = std::fs::read(&ckpt_path).expect("read checkpoint");
    let written = partial.len() * 3 / 5;
    partial[written..].fill(0);
    partial[..184].fill(0);
    let dead_tmp = stream.join(format!("primary.wal.checkpoint.tmp.{}", u32::MAX));
    let live_tmp = stream.join(format!("primary.wal.checkpoint.tmp.{}", std::process::id()));
    let other_tmp = stream.join(format!("primary.wal.tmp.{}", u32::MAX));
    for tmp in [&dead_tmp, &live_tmp, &other_tmp] {
        std::fs::write(tmp, &partial).expect("write a checkpoint writer's temp file");
    }

    // Crash MID-REWRITE: like `mid` plus a half-written rewrite scratch
    // that open() must sweep away.
    let tmp = capture_state(
        dir.path(),
        "tmp",
        &[
            (&wal_path, "primary.wal"),
            (&ckpt_path, "primary.wal.checkpoint"),
        ],
    );
    std::fs::write(
        tmp.join("primary.wal.compact.tmp"),
        b"#lexequal-wal v1\ntorn",
    )
    .expect("write scratch");

    // Finish the cycle for real: everything ≤ 18 is dropped.
    let report = repl.compact(&service).expect("compact");
    assert_eq!(report.horizon, 18);
    assert_eq!(report.dropped_records, 18);
    let post = capture_state(
        dir.path(),
        "post",
        &[
            (&wal_path, "primary.wal"),
            (&ckpt_path, "primary.wal.checkpoint"),
        ],
    );

    // Every state recovers with and without the original image in front
    // of the chain. `post` with the image is the state whose log, emptied
    // by the cycle, can no longer show that the image is 12 records old.
    let reference18 = battery(&service, 18);
    for state in [&pre, &stream, &mid, &tmp, &post] {
        for snapshot in [None, Some(image.as_path())] {
            let recovered = recover(
                snapshot,
                &state.join("primary.wal"),
                &state.join("primary.wal.checkpoint"),
                &config,
            );
            assert_eq!(
                recovered.len(),
                18,
                "state {state:?} from {snapshot:?} lost entries"
            );
            assert_eq!(
                battery(&recovered, 18),
                reference18,
                "state {state:?} from {snapshot:?} diverged"
            );
        }
    }
    assert!(
        !tmp.join("primary.wal.compact.tmp").exists(),
        "stale rewrite scratch must be deleted on open"
    );
    assert!(
        !dead_tmp.exists(),
        "a dead checkpoint writer's temp file must be swept at startup"
    );
    assert!(
        live_tmp.exists(),
        "a temp file whose pid names a running process is not stale"
    );
    assert!(
        other_tmp.exists(),
        "the sweep matches the checkpoint's full file name, not its stem"
    );

    // A tail committed past the checkpoint replays on top of it.
    for i in 18..24 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit tail");
    }
    let tail_state = capture_state(
        dir.path(),
        "tail",
        &[
            (&wal_path, "primary.wal"),
            (&ckpt_path, "primary.wal.checkpoint"),
        ],
    );
    let reference24 = battery(&service, 24);
    for snapshot in [None, Some(image.as_path())] {
        let recovered = recover(
            snapshot,
            &tail_state.join("primary.wal"),
            &tail_state.join("primary.wal.checkpoint"),
            &config,
        );
        assert_eq!(recovered.len(), 24, "tail replay lost entries");
        assert_eq!(battery(&recovered, 24), reference24, "tail replay diverged");
    }
}

/// A replica that disconnects, misses a compaction that truncates past
/// its position, and reconnects is re-seeded live via the snapshot
/// transfer — no restart, no error — and then continues incrementally.
#[test]
fn straggler_reseeds_live_after_compaction_passes_it() {
    let dir = TempDir::new("straggler");
    let wal_path = dir.path().join("primary.wal");
    let config = MatchConfig::default();
    let (service, repl) = new_primary(&wal_path, &config);
    repl.set_compaction_policy(CompactionPolicy {
        checkpoint: Some(dir.path().join("primary.wal.checkpoint")),
        max_bytes: None,
        grace: Duration::from_secs(10),
    });

    let listener = bind_reusable("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let shutdown = ShutdownSignal::new().expect("shutdown");
    let accept = {
        let service = Arc::clone(&service);
        let repl = Arc::clone(&repl);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || repl::serve_repl_listener(listener, service, repl, shutdown))
    };

    for i in 0..6 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }

    let state = Arc::new(ReplicaState::new(addr.clone()));
    let replica_shutdown = ShutdownSignal::new().expect("replica shutdown");
    let (replica, stream, reader) =
        repl::initial_sync(&addr, &config, Some(2), 1024, &state, &replica_shutdown)
            .expect("initial sync");
    let replica = Arc::new(replica);
    let apply = {
        let replica = Arc::clone(&replica);
        let state = Arc::clone(&state);
        let replica_shutdown = replica_shutdown.clone();
        std::thread::spawn(move || {
            repl::run_replica(&replica, &state, Some((stream, reader)), &replica_shutdown)
        })
    };
    for i in 6..10 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }
    wait_until("replica catch-up", || state.applied() == 10);

    // Disconnect the replica; the primary notices and stops counting it.
    replica_shutdown.trigger();
    apply.join().expect("apply thread").expect("clean stop");
    wait_until("primary to drop the dead link", || repl.replicas() == 0);

    // While it is away, the log is compacted past everything it holds.
    for i in 10..16 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }
    let report = repl.compact(&service).expect("compact");
    assert_eq!(report.horizon, 16);
    assert!(report.dropped_records > 0);
    assert!(
        !repl.can_serve_incremental(10),
        "the straggler's position must be gone from the log"
    );

    // Reconnect with the same state: run_replica re-seeds live.
    let replica_shutdown2 = ShutdownSignal::new().expect("replica shutdown 2");
    let apply2 = {
        let replica = Arc::clone(&replica);
        let state = Arc::clone(&state);
        let replica_shutdown2 = replica_shutdown2.clone();
        std::thread::spawn(move || repl::run_replica(&replica, &state, None, &replica_shutdown2))
    };
    wait_until("live re-seed", || state.applied() == 16);
    assert_eq!(state.reseeds(), 1, "replica must count its re-seed");
    wait_until("primary reseed counter", || repl.reseeds() == 1);
    assert_eq!(state.divergences(), 0);
    assert_eq!(repl.divergences(), 0);

    // The stream continues incrementally after the re-seed.
    for i in 16..18 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }
    wait_until("post-reseed catch-up", || state.applied() == 18);
    assert_eq!(replica.len(), service.len());
    assert_eq!(
        battery(&replica, 18),
        battery(&service, 18),
        "re-seeded replica diverged"
    );

    replica_shutdown2.trigger();
    shutdown.trigger();
    repl.stop_and_join();
    apply2.join().expect("apply2 thread").expect("clean stop");
    accept.join().expect("accept thread").ok();
}

/// A HELLO claiming an LSN past the primary's head is a diverged
/// lineage: the primary refuses loudly instead of serving a rollback.
#[test]
fn hello_ahead_of_the_head_is_refused_as_divergence() {
    let dir = TempDir::new("divergence_primary");
    let wal_path = dir.path().join("primary.wal");
    let config = MatchConfig::default();
    let (service, repl) = new_primary(&wal_path, &config);

    let listener = bind_reusable("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let shutdown = ShutdownSignal::new().expect("shutdown");
    let accept = {
        let service = Arc::clone(&service);
        let repl = Arc::clone(&repl);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || repl::serve_repl_listener(listener, service, repl, shutdown))
    };
    for i in 0..3 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }

    let mut sock = TcpStream::connect(&addr).expect("connect");
    sock.write_all(b"REPL HELLO 99 MMAP\n").expect("hello");
    let mut reply = String::new();
    BufReader::new(&sock)
        .read_line(&mut reply)
        .expect("read reply");
    assert_eq!(reply.trim_end(), "DIVERGED lsn=3", "{reply:?}");
    wait_until("divergence counter", || repl.divergences() == 1);

    shutdown.trigger();
    repl.stop_and_join();
    accept.join().expect("accept thread").ok();
}

/// The replica side of the same refusal: a primary answering `DIVERGED`
/// (here a scripted stand-in that took over the primary's address) is a
/// fatal `NeedsResync`, counted and loud — never a silent rollback.
#[test]
fn replica_treats_diverged_reply_as_fatal() {
    let dir = TempDir::new("divergence_replica");
    let wal_path = dir.path().join("primary.wal");
    let config = MatchConfig::default();
    let (service, repl) = new_primary(&wal_path, &config);

    let listener = bind_reusable("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let shutdown = ShutdownSignal::new().expect("shutdown");
    let accept = {
        let service = Arc::clone(&service);
        let repl = Arc::clone(&repl);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || repl::serve_repl_listener(listener, service, repl, shutdown))
    };
    for i in 0..3 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }

    // Seed a real replica at lsn 3, then tear the real primary down.
    let state = Arc::new(ReplicaState::new(addr.clone()));
    let replica_shutdown = ShutdownSignal::new().expect("replica shutdown");
    let (replica, stream, reader) =
        repl::initial_sync(&addr, &config, Some(2), 1024, &state, &replica_shutdown)
            .expect("initial sync");
    drop((stream, reader));
    assert_eq!(state.applied(), 3);
    shutdown.trigger();
    repl.stop_and_join();
    accept.join().expect("accept thread").ok();

    // A scripted impostor takes over the address and answers the
    // replica's `REPL HELLO 3` with a head behind it.
    let fake = bind_reusable(&addr).expect("rebind primary address");
    let impostor = std::thread::spawn(move || {
        let (conn, _) = fake.accept().expect("accept replica");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("read hello");
        assert!(hello.starts_with("REPL HELLO 3"), "{hello:?}");
        let mut conn = conn;
        conn.write_all(b"DIVERGED lsn=1\n").expect("write diverged");
    });

    let outcome = repl::run_replica(&replica, &state, None, &replica_shutdown);
    let err = outcome.expect_err("a rollback offer must be fatal");
    assert!(
        matches!(err, repl::ReplError::NeedsResync(_)),
        "wrong error: {err}"
    );
    assert_eq!(state.divergences(), 1);
    impostor.join().expect("impostor thread");
}

/// `can_serve_incremental` edges around a compacted base: the retained
/// suffix serves exactly from its base onward, never before it.
#[test]
fn incremental_serving_edges_around_the_compacted_base() {
    let dir = TempDir::new("serve_edges");
    let wal_path = dir.path().join("primary.wal");
    let config = MatchConfig::default();
    let (service, repl) = new_primary(&wal_path, &config);
    repl.set_compaction_policy(CompactionPolicy {
        checkpoint: Some(dir.path().join("primary.wal.checkpoint")),
        max_bytes: None,
        grace: Duration::from_secs(10),
    });

    for i in 0..10 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }
    let report = repl.compact(&service).expect("compact");
    assert_eq!(report.horizon, 10);
    for i in 10..14 {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }

    // Retained log: records 11..=14 anchored on base 10.
    assert!(!repl.can_serve_incremental(0), "fresh always snapshots");
    assert!(!repl.can_serve_incremental(9), "before the base: truncated");
    assert!(repl.can_serve_incremental(10), "exactly the base");
    assert!(repl.can_serve_incremental(12), "inside the suffix");
    assert!(repl.can_serve_incremental(14), "at the head: nothing owed");
    assert!(!repl.can_serve_incremental(15), "past the head");
}

/// Without a configured checkpoint path, compaction refuses to run —
/// truncating without a durable base would simply lose the prefix.
#[test]
fn compaction_refuses_without_a_checkpoint_path() {
    let dir = TempDir::new("no_checkpoint");
    let wal_path = dir.path().join("primary.wal");
    let config = MatchConfig::default();
    let (service, repl) = new_primary(&wal_path, &config);
    repl.commit_add(&service, &name(0), Language::English)
        .expect("commit");
    let err = repl.compact(&service).expect_err("must refuse");
    assert!(err.contains("checkpoint"), "{err}");
}
