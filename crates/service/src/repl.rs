//! Primary/replica replication: snapshot shipping plus WAL streaming.
//!
//! A primary started with `--wal` owns a [`Replicator`]: the single
//! commit path that appends every mutation to the log (fsynced) and
//! only then applies it to the store, under one lock — so LSN order is
//! store-apply order, on the primary and on every copy. A replica
//! (`--replica-of HOST:PORT`) opens the primary's line protocol with
//! `REPL HELLO <lsn> MMAP` and applies what comes back through the same
//! deterministic [`MatchService::apply_op`] path WAL replay uses.
//!
//! A snapshot transfer is the snapshot image ([`crate::mmapstore`]),
//! shipped verbatim and loaded zero-copy from the transfer buffer. The
//! trailing `MMAP` is a capability token from when a second format
//! existed: the replica still sends it (a primary of that generation
//! needs it to ship the image), and a primary ignores every token after
//! the LSN. A transfer that is not an image is the loader's bad-magic
//! error, and the replica retries.
//!
//! # Stream grammar (primary → replica, after the HELLO)
//!
//! ```text
//! SNAP lsn=<l> bytes=<n>\n<n image bytes>      full transfer, then streaming
//! OK lsn=<head>\n                              incremental catch-up possible
//! OP <lsn> <op payload>\n                      one committed mutation
//! PING lsn=<head>\n                            heartbeat (~500ms when idle)
//! DIVERGED lsn=<head>\n                        replica is AHEAD of this primary
//! ```
//!
//! The replica talks back on the same socket: `ACK <lsn>\n` after
//! applying (throttled, and on every heartbeat), which the primary
//! records per replica as that stream's acknowledged horizon — the
//! input to WAL compaction (see [`Replicator::compact`]).
//!
//! The primary answers `SNAP` when the replica's LSN is 0 or has fallen
//! behind the log horizon (the WAL no longer holds `lsn+1`), `OK`
//! otherwise. A mid-life `SNAP` is how a replica that outlived the
//! compacted log re-seeds: when the snapshot's history is a strict
//! extension of the replica's own (same entries, same order — which
//! non-divergent WAL history guarantees), the replica appends the
//! missing tail entries from the transfer and rebuilds the snapshot's
//! access paths, all without restarting. Only a genuine divergence —
//! the snapshot contradicting entries the replica already holds, or a
//! `DIVERGED` reply (this replica's LSN is ahead of the primary's whole
//! history, e.g. a primary restored from an old snapshot) — is the
//! fatal [`ReplError::NeedsResync`], because continuing would silently
//! roll back acknowledged state.
//!
//! [`MatchService::apply_op`]: crate::MatchService::apply_op

use crate::event_loop::ShutdownSignal;
use crate::metrics::{ReplRole, ReplStats, WalMetrics, WalStats};
use crate::mmapstore::{self, ImageError};
use crate::service::{LoadInfo, MatchService};
use crate::shard::Cut;
use crate::wal::{self, Op, Wal, WalCursor, WalError, WalRecord};
use lexequal::MatchConfig;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle-stream heartbeat interval (each carries the head LSN).
pub const HEARTBEAT: Duration = Duration::from_millis(500);
/// A replica declares the link dead after this long without a line
/// (several heartbeats worth).
const REPLICA_READ_TIMEOUT: Duration = Duration::from_secs(3);
/// Reconnect backoff start / cap.
const BACKOFF_START: Duration = Duration::from_millis(100);
const BACKOFF_CAP: Duration = Duration::from_secs(3);
/// How long a primary waits on a stuck replica socket before dropping it.
const SENDER_WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Handshake patience (covers a large snapshot transfer).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);
/// Minimum spacing between a replica's progress `ACK`s (heartbeats
/// always get one regardless, so an idle link still refreshes its
/// straggler-grace clock).
const ACK_INTERVAL: Duration = Duration::from_millis(100);
/// How often the background compactor re-checks the log size.
const COMPACTOR_POLL: Duration = Duration::from_millis(200);
/// Default straggler grace: a replica silent this long stops pinning
/// the compaction horizon (it re-seeds from a snapshot on reconnect).
pub const DEFAULT_ACK_GRACE: Duration = Duration::from_secs(10);

/// Why a commit was refused.
#[derive(Debug)]
pub enum CommitError {
    /// The input failed G2P transform — nothing was logged or applied.
    BadInput(lexequal::G2pError),
    /// The WAL append failed — nothing was applied.
    Wal(WalError),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::BadInput(e) => write!(f, "{e:?}"),
            CommitError::Wal(e) => write!(f, "wal append failed: {e}"),
        }
    }
}

/// How and when the WAL gets compacted. Installed by the daemon via
/// [`Replicator::set_compaction_policy`]; without a checkpoint path,
/// [`Replicator::compact`] refuses to run (truncating without a durable
/// checkpoint would simply lose the prefix).
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Where the pre-truncation checkpoint lands (the daemon uses
    /// `<wal>.checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Size threshold the background compactor acts on (`None` = only
    /// explicit `COMPACT`).
    pub max_bytes: Option<u64>,
    /// Straggler grace: replicas silent longer than this stop pinning
    /// the horizon.
    pub grace: Duration,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            checkpoint: None,
            max_bytes: None,
            grace: DEFAULT_ACK_GRACE,
        }
    }
}

/// One attached replica's acknowledged position, as fed back on the
/// stream socket via `ACK` lines.
#[derive(Debug, Clone, Copy)]
struct AckEntry {
    /// Highest LSN the replica acknowledged (floored at the position
    /// the stream started from, which the replica provably holds).
    acked: u64,
    /// When we last heard from it — the straggler-grace clock.
    heard: Instant,
}

/// What one [`Replicator::compact`] cycle did.
#[derive(Debug, Clone, Copy)]
pub struct CompactReport {
    /// LSN the freshly written checkpoint covers.
    pub checkpoint_lsn: u64,
    /// Horizon actually truncated to (≤ `checkpoint_lsn`).
    pub horizon: u64,
    /// Records dropped from the log.
    pub dropped_records: u64,
    /// Bytes the log shrank by.
    pub dropped_bytes: u64,
    /// Log size after the rewrite.
    pub wal_bytes_live: u64,
}

/// Primary-side replication state: the WAL behind its commit lock, the
/// published head LSN, and the sender threads feeding replicas.
pub struct Replicator {
    /// THE commit lock: append+fsync and store-apply happen under it,
    /// so apply order always equals LSN order.
    wal: Mutex<Wal>,
    head: AtomicU64,
    /// Last committed LSN, guarded separately so stream senders can
    /// block on the condvar without touching the commit lock.
    tail: Mutex<u64>,
    tail_cv: Condvar,
    replicas: AtomicU64,
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<WalMetrics>,
    /// Per-attached-replica acknowledged LSNs, keyed by a registration
    /// id handed out per stream.
    acks: Mutex<HashMap<u64, AckEntry>>,
    next_replica_id: AtomicU64,
    /// Serializes compaction cycles (an explicit `COMPACT` racing the
    /// background compactor simply reports "busy").
    compaction: Mutex<()>,
    /// Serializes snapshot file writers (`SAVE`, the compaction
    /// checkpoint), each across its whole cut → write → rename: two of
    /// them on one path share a temp file, and a file must never be
    /// replaced by an older cut than it holds (the log may already be
    /// truncated up to the newer one). Commits do not take it.
    snapshot_writer: Mutex<()>,
    policy: Mutex<CompactionPolicy>,
    compactions: AtomicU64,
    checkpoint_lsn: AtomicU64,
    reseeds: AtomicU64,
    divergences: AtomicU64,
    /// Longest single hold of the commit lock since start, in µs.
    commit_hold_max_us: AtomicU64,
    /// Duration (ms) and row count of the newest snapshot written
    /// through this replicator (`SAVE` or a compaction checkpoint).
    checkpoint_ms_last: AtomicU64,
    checkpoint_rows_last: AtomicU64,
}

/// The commit lock, held: derefs to the [`Wal`] and, when dropped, folds
/// how long it was held into `commit_hold_max_us` — so a stop-the-world
/// under this lock is readable from `STATS` on the running daemon.
struct CommitGuard<'a> {
    wal: MutexGuard<'a, Wal>,
    since: Instant,
    hold_max_us: &'a AtomicU64,
}

impl std::ops::Deref for CommitGuard<'_> {
    type Target = Wal;
    fn deref(&self) -> &Wal {
        &self.wal
    }
}

impl std::ops::DerefMut for CommitGuard<'_> {
    fn deref_mut(&mut self) -> &mut Wal {
        &mut self.wal
    }
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        let held = u64::try_from(self.since.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.hold_max_us.fetch_max(held, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("head", &self.head())
            .field("replicas", &self.replicas())
            .finish_non_exhaustive()
    }
}

impl Replicator {
    /// Wrap an opened (already replayed) WAL.
    pub fn new(wal: Wal, metrics: Arc<WalMetrics>) -> Arc<Replicator> {
        let head = wal.head_lsn();
        Arc::new(Replicator {
            wal: Mutex::new(wal),
            head: AtomicU64::new(head),
            tail: Mutex::new(head),
            tail_cv: Condvar::new(),
            replicas: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            metrics: Arc::clone(&metrics),
            acks: Mutex::new(HashMap::new()),
            next_replica_id: AtomicU64::new(1),
            compaction: Mutex::new(()),
            snapshot_writer: Mutex::new(()),
            policy: Mutex::new(CompactionPolicy::default()),
            compactions: AtomicU64::new(0),
            checkpoint_lsn: AtomicU64::new(0),
            reseeds: AtomicU64::new(0),
            divergences: AtomicU64::new(0),
            commit_hold_max_us: AtomicU64::new(0),
            checkpoint_ms_last: AtomicU64::new(0),
            checkpoint_rows_last: AtomicU64::new(0),
        })
    }

    /// Take the commit lock.
    fn commit_lock(&self) -> CommitGuard<'_> {
        let wal = self.wal.lock().expect("wal lock");
        CommitGuard {
            wal,
            since: Instant::now(),
            hold_max_us: &self.commit_hold_max_us,
        }
    }

    /// Install the compaction policy (checkpoint path, size trigger,
    /// straggler grace). The daemon calls this right after startup.
    pub fn set_compaction_policy(&self, policy: CompactionPolicy) {
        *self.policy.lock().expect("policy lock") = policy;
    }

    /// Current on-disk WAL size in bytes.
    pub fn live_bytes(&self) -> u64 {
        self.commit_lock().live_bytes()
    }

    /// First LSN still present in the WAL (`None` = empty log).
    pub fn wal_first_lsn(&self) -> Option<u64> {
        self.commit_lock().first_lsn()
    }

    /// Completed checkpoint-and-truncate cycles.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// LSN covered by the newest durable checkpoint (0 = none yet).
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn.load(Ordering::Relaxed)
    }

    /// Snapshot-transfer catch-ups served to non-fresh replicas.
    pub fn reseeds(&self) -> u64 {
        self.reseeds.load(Ordering::Relaxed)
    }

    /// Replicas that arrived *ahead* of this primary's history.
    pub fn divergences(&self) -> u64 {
        self.divergences.load(Ordering::Relaxed)
    }

    /// Longest single hold of the commit lock since start, in µs — an
    /// `ADD`'s own append + fsync unless something stops the world.
    pub fn commit_hold_max_us(&self) -> u64 {
        self.commit_hold_max_us.load(Ordering::Relaxed)
    }

    /// `(milliseconds, rows)` of the newest snapshot written through
    /// this replicator (0, 0 before the first).
    pub fn checkpoint_last(&self) -> (u64, u64) {
        (
            self.checkpoint_ms_last.load(Ordering::Relaxed),
            self.checkpoint_rows_last.load(Ordering::Relaxed),
        )
    }

    /// Last committed LSN.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Replica streams attached right now.
    pub fn replicas(&self) -> u64 {
        self.replicas.load(Ordering::Relaxed)
    }

    /// WAL counter snapshot.
    pub fn wal_stats(&self) -> WalStats {
        self.metrics.stats()
    }

    /// Commit one `ADD`: validate (transform) first, append+fsync, then
    /// apply — the client's `OK` only ever follows a durable record.
    /// Returns `(lsn, global id)`.
    pub fn commit_add(
        &self,
        service: &MatchService,
        text: &str,
        language: lexequal::Language,
    ) -> Result<(u64, u32), CommitError> {
        let entry = service
            .prepare_entry(text, language)
            .map_err(CommitError::BadInput)?;
        let op = Op::Add {
            language,
            text: text.to_owned(),
        };
        let mut wal = self.commit_lock();
        let lsn = wal.append(&op).map_err(CommitError::Wal)?;
        let id = service.apply_entry(entry);
        self.publish(lsn);
        Ok((lsn, id))
    }

    /// Commit one `BUILD`: the commit lock covers the log append and the
    /// declaration (after which the path is exact); the cover runs in the
    /// background, beside the commits that follow. Returns its LSN.
    pub fn commit_build(
        &self,
        service: &MatchService,
        spec: crate::shard::BuildSpec,
    ) -> Result<u64, CommitError> {
        let lsn = {
            let mut wal = self.commit_lock();
            let lsn = wal.append(&Op::Build(spec)).map_err(CommitError::Wal)?;
            service.store().declare(spec);
            self.publish(lsn);
            lsn
        };
        service.store().schedule_cover(spec);
        Ok(lsn)
    }

    /// Publish a committed LSN (called with the commit lock held, so
    /// `fetch_max` is belt-and-braces).
    fn publish(&self, lsn: u64) {
        self.head.fetch_max(lsn, Ordering::Release);
        let mut tail = self.tail.lock().expect("tail lock");
        *tail = (*tail).max(lsn);
        drop(tail);
        self.tail_cv.notify_all();
    }

    /// The store's [`Cut`] at the WAL head — the only thing a snapshot
    /// needs the commit lock for. Under the lock it reads the head LSN,
    /// the published row count and the recorded build specs, and lets go:
    /// O(1), whatever the corpus size. Every mutation commits under the
    /// same lock and ids are assigned in commit order, so rows
    /// `0..cut.rows` read at any later time are exactly the store at
    /// `cut.lsn`; whoever holds the cut streams them out while commits
    /// keep flowing.
    pub fn cut(&self, service: &MatchService) -> Cut {
        let wal = self.commit_lock();
        service.store().cut(wal.head_lsn())
    }

    /// Cut at the WAL head, then stream the image into `sink` with no
    /// lock held (see [`cut`](Self::cut)); returns the cut the image
    /// holds. A replica's seed is this call pointed at a `Vec` — exactly
    /// what a snapshot file holds, so the replica loads the transfer
    /// buffer directly; `SAVE` and the compaction checkpoint are the same
    /// two steps around a temp file
    /// ([`save_snapshot_atomic`](Self::save_snapshot_atomic)).
    pub fn checkpoint_to(
        &self,
        service: &MatchService,
        sink: &mut impl mmapstore::ImageSink,
    ) -> Result<Cut, ImageError> {
        let cut = self.cut(service);
        mmapstore::write_image(service.store(), &cut, sink)?;
        Ok(cut)
    }

    /// Snapshot the store to `path` atomically (temp file, fsync,
    /// rename), exact at the WAL head it is stamped with. Returns the
    /// covered LSN. The commit lock is held for the [`cut`](Self::cut)
    /// only: commits flow during the whole write, and rows they append
    /// are not in the file. Snapshot writers themselves take turns (cut
    /// included), so overlapping calls on one path each leave a whole
    /// image and the newest cut is the one that stays.
    pub fn save_snapshot_atomic(
        &self,
        service: &MatchService,
        path: &Path,
    ) -> Result<u64, ImageError> {
        self.save_cut_atomic(service, path).map(|(cut, _)| cut.lsn)
    }

    /// Cut, write the file, record `checkpoint_{ms,rows}_last`; returns
    /// the cut written and the milliseconds it took. One writer at a
    /// time, and the cut is taken inside that turn: files land in cut
    /// order, whole. A second `SAVE` waits here; a commit never does.
    fn save_cut_atomic(
        &self,
        service: &MatchService,
        path: &Path,
    ) -> Result<(Cut, u64), ImageError> {
        let _writer = self.snapshot_writer.lock().expect("snapshot writer lock");
        let start = Instant::now();
        let cut = self.cut(service);
        mmapstore::write_file_atomic(service.store(), &cut, path)?;
        let ms = start.elapsed().as_millis() as u64;
        self.checkpoint_ms_last.store(ms, Ordering::Relaxed);
        self.checkpoint_rows_last
            .store(cut.rows as u64, Ordering::Relaxed);
        Ok((cut, ms))
    }

    /// Whether an incremental catch-up from `from` loses nothing
    /// (0 always demands a snapshot — a fresh replica has no state).
    pub fn can_serve_incremental(&self, from: u64) -> bool {
        from != 0 && self.commit_lock().can_serve_from(from)
    }

    /// Records with `lsn > from`, in order.
    ///
    /// Holds the commit lock across a whole-file scan — kept only for
    /// small one-shot reads; stream senders use
    /// [`read_tail`](Self::read_tail), which does neither.
    pub fn read_from(&self, from: u64) -> Result<Vec<WalRecord>, WalError> {
        self.commit_lock().read_from(from)
    }

    /// Records at or past `cursor`, advancing it. The commit lock is
    /// held only to snapshot the log's path/generation/bounds — plain
    /// metadata — never across the file I/O, so a replica deep in
    /// catch-up cannot stall commits. The cursor makes the read itself
    /// a seek + tail scan instead of a whole-file rescan.
    ///
    /// Returns [`WalError::Gap`] when compaction has truncated past
    /// this reader (a straggler beyond its grace): the stream cannot
    /// continue and the replica must re-seed on reconnect.
    pub fn read_tail(&self, cursor: &mut WalCursor) -> Result<Vec<WalRecord>, WalError> {
        let (path, generation, first_lsn, head) = {
            let wal = self.commit_lock();
            (
                wal.path().to_owned(),
                wal.generation(),
                wal.first_lsn(),
                wal.head_lsn(),
            )
        };
        // An empty log's records are all compacted away: a reader not
        // exactly at the head has lost its suffix.
        let effective_first = first_lsn.unwrap_or(head + 1);
        if cursor.next_lsn() < effective_first {
            return Err(WalError::Gap {
                snapshot_lsn: cursor.next_lsn().saturating_sub(1),
                wal_first: effective_first,
            });
        }
        wal::read_tail(&path, generation, cursor)
    }

    /// Register one attached replica stream whose acknowledged position
    /// starts at `floor` (the LSN the stream is serving from — state
    /// the replica provably holds or is being shipped). Returns the id
    /// for [`note_ack`](Self::note_ack) / [`drop_replica`](Self::drop_replica).
    fn register_replica(&self, floor: u64) -> u64 {
        let id = self.next_replica_id.fetch_add(1, Ordering::Relaxed);
        self.acks.lock().expect("acks lock").insert(
            id,
            AckEntry {
                acked: floor,
                heard: Instant::now(),
            },
        );
        id
    }

    /// Record an `ACK <lsn>` (or any sign of life) from replica `id`.
    fn note_ack(&self, id: u64, lsn: u64) {
        if let Some(entry) = self.acks.lock().expect("acks lock").get_mut(&id) {
            entry.acked = entry.acked.max(lsn);
            entry.heard = Instant::now();
        }
    }

    /// Forget a departed replica stream.
    fn drop_replica(&self, id: u64) {
        self.acks.lock().expect("acks lock").remove(&id);
    }

    /// The lowest acknowledged LSN across attached replicas that are
    /// still inside `grace` — `None` when nothing pins the log (no
    /// replicas, or all stragglers past their grace).
    pub fn ack_floor(&self, grace: Duration) -> Option<u64> {
        self.acks
            .lock()
            .expect("acks lock")
            .values()
            .filter(|e| e.heard.elapsed() <= grace)
            .map(|e| e.acked)
            .min()
    }

    /// One checkpoint-and-truncate cycle:
    ///
    /// 1. take the [`cut`](Self::cut) at the WAL head (the commit lock
    ///    is held for that instant only) and stream it as a durable mmap
    ///    checkpoint (temp file, fsync, rename) to the policy's
    ///    checkpoint path, holding only the snapshot writers' turn;
    /// 2. compute the horizon: the checkpoint's LSN, clamped down to
    ///    the lowest acknowledged LSN of any in-grace replica;
    /// 3. under the commit lock, atomically rewrite the log, dropping
    ///    records `<= horizon` (a rewrite of at most the size cap).
    ///
    /// The ordering is the crash-safety invariant: the checkpoint is
    /// durable *before* any log byte is dropped, so recovery at every
    /// intermediate state composes a complete store from
    /// checkpoint + surviving tail. Concurrent cycles are refused
    /// ("busy") and a `SAVE` in flight is waited for (one snapshot
    /// writer at a time, so no older cut can land on the checkpoint
    /// after step 3); commits keep flowing throughout step 1 — the records
    /// they append are past the horizon and survive step 3 — and a
    /// sender whose replica the horizon passed (straggler beyond grace)
    /// gets a `Gap` on its next read and hands the replica to the
    /// snapshot re-seed path.
    pub fn compact(&self, service: &MatchService) -> Result<CompactReport, String> {
        let Ok(_guard) = self.compaction.try_lock() else {
            return Err("a compaction is already in progress".into());
        };
        let policy = self.policy.lock().expect("policy lock").clone();
        let Some(checkpoint) = policy.checkpoint else {
            return Err("no checkpoint path configured (compaction needs a wal)".into());
        };

        let (cut, checkpoint_ms) = self
            .save_cut_atomic(service, &checkpoint)
            .map_err(|e| format!("checkpoint write failed: {e}"))?;
        let checkpoint_lsn = cut.lsn;
        self.checkpoint_lsn
            .fetch_max(checkpoint_lsn, Ordering::Relaxed);

        let mut horizon = checkpoint_lsn;
        if let Some(floor) = self.ack_floor(policy.grace) {
            horizon = horizon.min(floor);
        }

        let (stats, live) = {
            let mut wal = self.commit_lock();
            let stats = wal
                .compact_to(horizon)
                .map_err(|e| format!("wal rewrite failed: {e}"))?;
            (stats, wal.live_bytes())
        };
        if stats.dropped_records > 0 {
            self.compactions.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "lexequald: wal compacted to lsn {horizon} (checkpoint lsn {checkpoint_lsn}): \
                 dropped {} records / {} bytes, {live} bytes live, \
                 checkpoint_ms={checkpoint_ms} cut_rows={}",
                stats.dropped_records, stats.dropped_bytes, cut.rows
            );
        }
        Ok(CompactReport {
            checkpoint_lsn,
            horizon,
            dropped_records: stats.dropped_records,
            dropped_bytes: stats.dropped_bytes,
            wal_bytes_live: live,
        })
    }

    /// Block until the head passes `from`, `timeout` elapses, or the
    /// replicator stops. Returns the head seen.
    fn wait_beyond(&self, from: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut tail = self.tail.lock().expect("tail lock");
        while *tail <= from && !self.stopped() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .tail_cv
                .wait_timeout(tail, deadline - now)
                .expect("tail wait");
            tail = guard;
        }
        *tail
    }

    /// Whether [`stop`](Self::stop) was called.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Ask every sender thread to wind down (they notice within one
    /// heartbeat).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.tail_cv.notify_all();
    }

    /// Track a sender/accept thread for [`stop_and_join`](Self::stop_and_join).
    pub fn adopt_thread(&self, handle: JoinHandle<()>) {
        self.threads.lock().expect("threads lock").push(handle);
    }

    /// Stop and join every tracked thread.
    pub fn stop_and_join(&self) {
        self.stop();
        let handles: Vec<_> = self
            .threads
            .lock()
            .expect("threads lock")
            .drain(..)
            .collect();
        for h in handles {
            h.join().ok();
        }
    }
}

fn io_other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Serve one replica's stream on the current thread until the link
/// drops or the replicator stops. `hello_lsn` is the replica's last
/// applied LSN (0 = fresh).
pub fn serve_replica(
    stream: TcpStream,
    hello_lsn: u64,
    service: &MatchService,
    repl: &Replicator,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(SENDER_WRITE_TIMEOUT))?;

    // A replica claiming an LSN past our whole history diverged from
    // this primary's lineage (e.g. we were restored from an older
    // snapshot). Serving it a snapshot would silently roll back state
    // it acknowledged to *its* clients — refuse loudly instead, on
    // both sides of the wire.
    let head = repl.head();
    if hello_lsn > head {
        repl.divergences.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "lexequald: DIVERGENCE: replica HELLO at lsn {hello_lsn} is ahead of this \
             primary's head {head}; its history is not a prefix of ours — refusing to \
             serve it a rollback (operator must re-seed it deliberately)"
        );
        let mut stream = stream;
        stream.write_all(format!("DIVERGED lsn={head}\n").as_bytes())?;
        return Ok(());
    }

    let reader_stream = stream.try_clone()?;
    let shutdown_handle = stream.try_clone()?;
    let mut w = BufWriter::new(stream);
    let id = repl.register_replica(hello_lsn);
    repl.replicas.fetch_add(1, Ordering::Relaxed);
    // The ack reader shares our scope (it only borrows `repl`); the
    // socket shutdown below unblocks it when the sender is done, so
    // the scope never hangs on join.
    let r = std::thread::scope(|s| {
        let reader = s.spawn(|| read_acks(reader_stream, repl, id));
        let r = stream_to_replica(&mut w, hello_lsn, service, repl, id);
        shutdown_handle.shutdown(Shutdown::Both).ok();
        let _ = reader.join();
        r
    });
    repl.replicas.fetch_sub(1, Ordering::Relaxed);
    repl.drop_replica(id);
    r
}

/// Drain `ACK <lsn>` lines a replica sends back on its stream socket,
/// feeding the compaction horizon. Exits on EOF/error or when the
/// replicator stops (the read timeout bounds how long that takes).
fn read_acks(stream: TcpStream, repl: &Replicator, id: u64) {
    if stream.set_read_timeout(Some(HEARTBEAT)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                if let Some(rest) = line.trim_end().strip_prefix("ACK ") {
                    if let Ok(lsn) = rest.trim().parse::<u64>() {
                        repl.note_ack(id, lsn);
                    }
                }
                // Unknown chatter is ignored: future replicas may say more.
                line.clear();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if repl.stopped() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn stream_to_replica(
    w: &mut impl Write,
    hello_lsn: u64,
    service: &MatchService,
    repl: &Replicator,
    id: u64,
) -> io::Result<()> {
    let mut from = hello_lsn;
    if repl.can_serve_incremental(hello_lsn) {
        writeln!(w, "OK lsn={}", repl.head())?;
    } else {
        if hello_lsn > 0 {
            // A non-fresh replica the log can no longer serve: the
            // compaction horizon passed it. The snapshot transfer
            // re-seeds it live (see `reconnect` on the other side).
            repl.reseeds.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "lexequald: replica at lsn {hello_lsn} predates the wal horizon \
                 (first retained lsn {:?}); re-seeding it via snapshot transfer",
                repl.wal_first_lsn()
            );
        }
        let mut image = Vec::new();
        let cut = repl.checkpoint_to(service, &mut image).map_err(io_other)?;
        writeln!(w, "SNAP lsn={} bytes={}", cut.lsn, image.len())?;
        w.write_all(&image)?;
        from = cut.lsn;
    }
    // The stream now owes everything past `from`, and the transfer in
    // flight provably carries state up to it — that floor (not 0) is
    // what this replica pins the compaction horizon at.
    repl.note_ack(id, from);
    w.flush()?;
    let mut cursor = WalCursor::after(from);
    while !repl.stopped() {
        let records = repl.read_tail(&mut cursor).map_err(io_other)?;
        if records.is_empty() {
            let head = repl.wait_beyond(from, HEARTBEAT);
            if head <= from {
                writeln!(w, "PING lsn={}", repl.head())?;
                w.flush()?;
            }
            continue;
        }
        for rec in records {
            writeln!(w, "OP {} {}", rec.lsn, rec.op.encode())?;
            from = rec.lsn;
        }
        w.flush()?;
    }
    Ok(())
}

/// Spawn the background compactor: polls the log size and runs
/// [`Replicator::compact`] whenever it passes the policy's `max_bytes`
/// *and* the horizon can actually drop something (so a fleet of
/// stragglers cannot make it spin writing checkpoints for nothing).
/// Returns the handle; the thread winds down when `shutdown` fires or
/// the replicator stops.
pub fn spawn_compactor(
    repl: Arc<Replicator>,
    service: Arc<MatchService>,
    shutdown: ShutdownSignal,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("lexequald-compactor".to_owned())
        .spawn(move || {
            while !shutdown.is_triggered() && !repl.stopped() {
                std::thread::sleep(COMPACTOR_POLL);
                let policy = repl.policy.lock().expect("policy lock").clone();
                let Some(max_bytes) = policy.max_bytes else {
                    continue;
                };
                if repl.live_bytes() <= max_bytes {
                    continue;
                }
                // Cheap pre-check: would the horizon drop anything?
                let Some(first) = repl.wal_first_lsn() else {
                    continue;
                };
                let horizon = repl
                    .ack_floor(policy.grace)
                    .map_or(repl.head(), |floor| floor.min(repl.head()));
                if horizon < first {
                    continue;
                }
                if let Err(e) = repl.compact(&service) {
                    eprintln!("lexequald: background compaction failed: {e}");
                }
            }
        })
        .expect("spawn compactor thread")
}

/// Accept loop for a dedicated `--repl-listen` port: each connection
/// must open with `REPL HELLO <lsn>` and is then served the stream on
/// its own thread (tracked by the replicator).
pub fn serve_repl_listener(
    listener: TcpListener,
    service: Arc<MatchService>,
    repl: Arc<Replicator>,
    shutdown: ShutdownSignal,
) -> io::Result<()> {
    const ACCEPT_POLL: Duration = Duration::from_millis(100);
    listener.set_nonblocking(true)?;
    while !shutdown.is_triggered() && !repl.stopped() {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(&service);
                let repl2 = Arc::clone(&repl);
                let handle = std::thread::Builder::new()
                    .name("lexequald-repl".to_owned())
                    .spawn(move || {
                        let _ = handshake_and_serve(stream, &service, &repl2);
                    })
                    .expect("spawn replication sender");
                repl.adopt_thread(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read the one `REPL HELLO` line a dedicated-port connection owes,
/// then stream.
fn handshake_and_serve(
    stream: TcpStream,
    service: &MatchService,
    repl: &Replicator,
) -> io::Result<()> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match crate::proto::parse_request(&line) {
        Ok(Some(crate::proto::Request::ReplHello { lsn })) => {
            stream.set_read_timeout(None)?;
            serve_replica(stream, lsn, service, repl)
        }
        _ => {
            let mut stream = stream;
            stream.write_all(b"ERR expected REPL HELLO <lsn>\n").ok();
            Ok(())
        }
    }
}

/// Replica-side gauges: what `STATS` reports and the apply loop updates.
#[derive(Debug)]
pub struct ReplicaState {
    /// The primary's `HOST:PORT`.
    pub primary: String,
    applied: AtomicU64,
    head: AtomicU64,
    connected: AtomicBool,
    reseeds: AtomicU64,
    divergences: AtomicU64,
}

impl ReplicaState {
    /// Fresh state for a replica of `primary`.
    pub fn new(primary: String) -> ReplicaState {
        ReplicaState {
            primary,
            applied: AtomicU64::new(0),
            head: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            reseeds: AtomicU64::new(0),
            divergences: AtomicU64::new(0),
        }
    }

    /// Live snapshot re-seeds this replica performed after the
    /// primary's log was compacted past it.
    pub fn reseeds(&self) -> u64 {
        self.reseeds.load(Ordering::Relaxed)
    }

    /// Divergences detected (the primary refused us as ahead of its
    /// history, or a shipped snapshot contradicted local state).
    pub fn divergences(&self) -> u64 {
        self.divergences.load(Ordering::Relaxed)
    }

    /// Last LSN applied to the local store.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Last head LSN heard from the primary.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Whether the stream link is currently up.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Acquire)
    }

    /// `head - applied` (0 when caught up).
    pub fn lag(&self) -> u64 {
        self.head().saturating_sub(self.applied())
    }

    /// The `STATS` view of this state.
    pub fn stats(&self) -> ReplStats {
        let head = self.head().max(self.applied());
        ReplStats {
            role: ReplRole::Replica,
            head_lsn: head,
            applied_lsn: self.applied(),
            lag: head.saturating_sub(self.applied()),
            connected: self.is_connected(),
            replicas: 0,
            wal: None,
            primary_addr: Some(self.primary.clone()),
            wal_bytes_live: 0,
            compactions: 0,
            checkpoint_lsn: 0,
            reseeds: self.reseeds(),
            divergences: self.divergences(),
            commit_hold_max_us: 0,
            checkpoint_ms_last: 0,
            checkpoint_rows_last: 0,
        }
    }
}

/// Why a replica's stream (or sync) failed.
#[derive(Debug)]
pub enum ReplError {
    /// Socket-level failure.
    Io(io::Error),
    /// The primary spoke something this replica doesn't understand —
    /// or went silent past the heartbeat budget.
    Protocol(String),
    /// The shipped snapshot is not an image this replica can load.
    Snapshot(ImageError),
    /// The primary demanded a full snapshot transfer after this
    /// replica's store already held data: the lineages diverged (e.g.
    /// the primary lost its WAL) and live re-seeding is not supported —
    /// restart the replica to sync from scratch.
    NeedsResync(String),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication io: {e}"),
            ReplError::Protocol(what) => write!(f, "replication protocol: {what}"),
            ReplError::Snapshot(e) => write!(f, "replication snapshot: {e}"),
            ReplError::NeedsResync(what) => write!(f, "replica needs resync: {what}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<io::Error> for ReplError {
    fn from(e: io::Error) -> Self {
        ReplError::Io(e)
    }
}

/// `key=value` → value, from a stream header line.
fn kv_u64(tokens: &str, key: &str) -> Result<u64, ReplError> {
    tokens
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .ok_or_else(|| ReplError::Protocol(format!("missing {key}= in {tokens:?}")))
}

/// The transfer a `SNAP lsn=<l> bytes=<n>` header announces (`header` is
/// the line past `SNAP `): `(image bytes, lsn)`. The buffer grows with
/// the bytes that arrive, never with what the header claims, and a
/// stream that ends short of `bytes=` — like an image stamped with another
/// LSN than its header — is a retryable [`ReplError::Protocol`]. Bytes
/// that are no image at all are left for the loader to name.
fn read_snap(header: &str, reader: &mut impl Read) -> Result<(Vec<u8>, u64), ReplError> {
    let lsn = kv_u64(header, "lsn")?;
    let announced = kv_u64(header, "bytes")?;
    let mut image = Vec::new();
    reader.take(announced).read_to_end(&mut image)?;
    if (image.len() as u64) < announced {
        return Err(ReplError::Protocol(format!(
            "snapshot transfer ended after {} of {announced} bytes",
            image.len()
        )));
    }
    match mmapstore::peek(&image) {
        Some((image_lsn, _)) if image_lsn != lsn => Err(ReplError::Protocol(format!(
            "snapshot says lsn {image_lsn} but the header said {lsn}"
        ))),
        _ => Ok((image, lsn)),
    }
}

/// Sleep `*backoff` in shutdown-checking slices, then double it
/// (capped).
fn sleep_backoff(backoff: &mut Duration, shutdown: &ShutdownSignal) {
    const SLICE: Duration = Duration::from_millis(50);
    let mut left = *backoff;
    while !left.is_zero() && !shutdown.is_triggered() {
        let step = left.min(SLICE);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
    *backoff = (*backoff * 2).min(BACKOFF_CAP);
}

/// Connect to the primary and complete the *initial* sync: a fresh
/// `REPL HELLO 0`, the full snapshot transfer, and a restored
/// [`MatchService`] ready to serve. Retries with capped backoff until
/// the primary answers or `shutdown` fires.
pub fn initial_sync(
    primary: &str,
    config: &MatchConfig,
    shards: Option<usize>,
    cache_capacity: usize,
    state: &ReplicaState,
    shutdown: &ShutdownSignal,
) -> Result<(MatchService, TcpStream, BufReader<TcpStream>), ReplError> {
    let mut backoff = BACKOFF_START;
    loop {
        if shutdown.is_triggered() {
            return Err(ReplError::Protocol("shutdown during initial sync".into()));
        }
        match try_initial_sync(primary, config, shards, cache_capacity, state) {
            Ok(link) => return Ok(link),
            Err(e) => {
                eprintln!("lexequald: initial sync with {primary} failed ({e}), retrying");
                sleep_backoff(&mut backoff, shutdown);
            }
        }
    }
}

/// One attempt of [`initial_sync`]: connect, `REPL HELLO 0 MMAP`, load the
/// transfer.
pub fn try_initial_sync(
    primary: &str,
    config: &MatchConfig,
    shards: Option<usize>,
    cache_capacity: usize,
    state: &ReplicaState,
) -> Result<(MatchService, TcpStream, BufReader<TcpStream>), ReplError> {
    let stream = TcpStream::connect(primary)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut w = stream.try_clone()?;
    // `MMAP` is what a primary from when a second format existed ships
    // the image for; today's ignores it.
    w.write_all(b"REPL HELLO 0 MMAP\n")?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ReplError::Protocol(
            "primary closed the connection during the handshake".into(),
        ));
    }
    let header = line.trim_end();
    let Some(rest) = header.strip_prefix("SNAP ") else {
        return Err(ReplError::Protocol(format!(
            "expected SNAP for a fresh replica, got {header:?}"
        )));
    };
    let (image, lsn) = read_snap(rest, &mut reader)?;
    let start = Instant::now();
    // The transfer buffer becomes the store's backing allocation.
    let image =
        mmapstore::load_bytes(config.clone(), shards, image).map_err(ReplError::Snapshot)?;
    let service = MatchService::from_store(image.store, cache_capacity);
    // A replica serves immediately after seeding, so its recorded
    // access paths are rebuilt before the handshake completes.
    for spec in image.builds {
        service.build(spec);
    }
    service.set_load_info(LoadInfo {
        format: "mmap",
        mapped_bytes: image.bytes,
        load_ms: start.elapsed().as_millis() as u64,
    });
    state.applied.store(lsn, Ordering::Release);
    state.head.fetch_max(lsn, Ordering::AcqRel);
    state.connected.store(true, Ordering::Release);
    stream.set_read_timeout(Some(REPLICA_READ_TIMEOUT))?;
    Ok((service, stream, reader))
}

/// Apply the primary's stream to `service` until `shutdown` fires,
/// reconnecting with capped exponential backoff across primary
/// restarts. The only fatal return is [`ReplError::NeedsResync`].
pub fn run_replica(
    service: &MatchService,
    state: &ReplicaState,
    first_link: Option<(TcpStream, BufReader<TcpStream>)>,
    shutdown: &ShutdownSignal,
) -> Result<(), ReplError> {
    let mut link = first_link;
    let mut backoff = BACKOFF_START;
    loop {
        if shutdown.is_triggered() {
            return Ok(());
        }
        let (stream, reader) = match link.take() {
            Some(l) => l,
            None => match reconnect(service, state) {
                Ok(l) => l,
                Err(e @ ReplError::NeedsResync(_)) => return Err(e),
                Err(_) => {
                    sleep_backoff(&mut backoff, shutdown);
                    continue;
                }
            },
        };
        state.connected.store(true, Ordering::Release);
        backoff = BACKOFF_START;
        let outcome = apply_stream(service, state, &stream, reader, shutdown);
        state.connected.store(false, Ordering::Release);
        if let Err(e @ ReplError::NeedsResync(_)) = outcome {
            return Err(e);
        }
        // Anything else — disconnect, timeout, protocol hiccup — is
        // retryable: the primary may just be restarting.
        sleep_backoff(&mut backoff, shutdown);
    }
}

/// One reconnect attempt: `REPL HELLO <applied>` expecting an
/// incremental `OK`. A `SNAP` means the primary's log was compacted
/// past us: re-seed live from the transfer (see
/// [`apply_snapshot_delta`]). A `DIVERGED` reply — or a snapshot that
/// contradicts local state — is the fatal [`ReplError::NeedsResync`].
fn reconnect(
    service: &MatchService,
    state: &ReplicaState,
) -> Result<(TcpStream, BufReader<TcpStream>), ReplError> {
    let stream = TcpStream::connect(&state.primary)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let applied = state.applied();
    let mut w = stream.try_clone()?;
    w.write_all(format!("REPL HELLO {applied} MMAP\n").as_bytes())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ReplError::Protocol(
            "primary closed the connection during the handshake".into(),
        ));
    }
    let header = line.trim_end();
    if let Some(rest) = header.strip_prefix("OK ") {
        state.head.fetch_max(kv_u64(rest, "lsn")?, Ordering::AcqRel);
        stream.set_read_timeout(Some(REPLICA_READ_TIMEOUT))?;
        return Ok((stream, reader));
    }
    if let Some(rest) = header.strip_prefix("DIVERGED ") {
        let primary_head = kv_u64(rest, "lsn").unwrap_or(0);
        state.divergences.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "lexequald: DIVERGENCE: this replica applied lsn {applied} but primary {} \
             only reaches lsn {primary_head}; continuing would roll back acknowledged \
             state — refusing",
            state.primary
        );
        return Err(ReplError::NeedsResync(format!(
            "history diverged: replica at lsn {applied} is ahead of primary head \
             {primary_head}; wipe this replica deliberately to re-seed it"
        )));
    }
    if let Some(rest) = header.strip_prefix("SNAP ") {
        let (image, lsn) = read_snap(rest, &mut reader)?;
        if lsn < applied {
            state.divergences.fetch_add(1, Ordering::Relaxed);
            return Err(ReplError::NeedsResync(format!(
                "primary's snapshot covers lsn {lsn}, behind this replica's applied \
                 {applied}: histories diverged"
            )));
        }
        let added = apply_snapshot_delta(service, image)?;
        if !(added == 0 && service.is_empty()) {
            // A genuine mid-life re-seed, not the both-sides-fresh case.
            state.reseeds.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "lexequald: primary's log was compacted past lsn {applied}; re-seeded \
                 live from its snapshot at lsn {lsn} ({added} entries appended)"
            );
        }
        state.applied.store(lsn, Ordering::Release);
        state.head.fetch_max(lsn, Ordering::AcqRel);
        stream.set_read_timeout(Some(REPLICA_READ_TIMEOUT))?;
        return Ok((stream, reader));
    }
    Err(ReplError::Protocol(format!(
        "unexpected handshake reply {header:?}"
    )))
}

/// Catch this replica up from a full snapshot transfer *without*
/// restarting: non-divergent WAL history means the local store is a
/// strict prefix of the snapshot (entries append in LSN order on every
/// copy), so it suffices to verify the prefix, append the missing tail
/// entries (already transformed — no G2P cost), and rebuild the
/// snapshot's recorded access paths. Returns how many entries were
/// appended; a snapshot that contradicts local state is
/// [`ReplError::NeedsResync`].
fn apply_snapshot_delta(service: &MatchService, image: Vec<u8>) -> Result<usize, ReplError> {
    let operator = Arc::clone(service.store().operator());
    let shards = service.store().shards();
    // Load into a detached store over the transfer buffer.
    let image = mmapstore::load_owner(operator, Some(shards), Arc::new(image))
        .map_err(ReplError::Snapshot)?;
    let (snap_store, builds) = (image.store, image.builds);

    let have = service.len() as u32;
    let snap_len = snap_store.len() as u32;
    if snap_len < have {
        return Err(ReplError::NeedsResync(format!(
            "primary's snapshot holds {snap_len} entries but this replica already has \
             {have}: histories diverged"
        )));
    }
    // Spot-check the prefix property at both ends and the middle: ids
    // assign in append order, so any divergent history shows up as a
    // mismatched entry at the same id.
    let mut probes = vec![];
    if have > 0 {
        probes.extend([0, have / 2, have - 1]);
        probes.dedup();
    }
    for id in probes {
        let mine = service.store().get(id);
        let theirs = snap_store.get(id);
        let same = match (&mine, &theirs) {
            (Some(a), Some(b)) => a.text == b.text && a.language == b.language,
            _ => false,
        };
        if !same {
            return Err(ReplError::NeedsResync(format!(
                "entry id {id} differs between this replica and the primary's snapshot \
                 ({:?} vs {:?}): histories diverged",
                mine.map(|e| e.text),
                theirs.map(|e| e.text)
            )));
        }
    }

    let mut loader = service.store().loader();
    for id in have..snap_len {
        let e = snap_store.get(id).expect("id below snapshot len");
        let local = loader
            .push(&[&e.text], e.language, &[&e.phonemes])
            .expect("a stored row passed the length check");
        debug_assert_eq!(local, id, "ids must continue the local sequence");
    }
    let added = loader.finish().len();
    // Converge the access paths to the snapshot's recorded set.
    for spec in builds {
        service.build(spec);
    }
    Ok(added)
}

/// Apply `OP`/`PING` lines until the link breaks or `shutdown` fires.
/// After applying, progress is acknowledged back on the same socket
/// (`ACK <lsn>`, throttled to [`ACK_INTERVAL`], plus one per heartbeat
/// so an idle link keeps refreshing its straggler-grace clock) — the
/// primary folds these into its compaction horizon.
fn apply_stream(
    service: &MatchService,
    state: &ReplicaState,
    stream: &TcpStream,
    mut reader: BufReader<TcpStream>,
    shutdown: &ShutdownSignal,
) -> Result<(), ReplError> {
    let mut line = String::new();
    let mut last_ack_lsn = state.applied();
    let mut last_ack_at = Instant::now();
    // Establish our position immediately: a primary deciding a
    // compaction horizon should not have to wait a full interval.
    send_ack(stream, last_ack_lsn)?;
    loop {
        if shutdown.is_triggered() {
            return Ok(());
        }
        // NB: `read_line` may buffer a partial line across a timeout, so
        // `line` is only cleared after a full line is processed.
        match reader.read_line(&mut line) {
            Ok(0) => return Err(ReplError::Protocol("primary closed the stream".into())),
            Ok(_) => {
                let is_ping = line.starts_with("PING ");
                apply_stream_line(service, state, line.trim_end())?;
                line.clear();
                let applied = state.applied();
                if is_ping || (applied > last_ack_lsn && last_ack_at.elapsed() >= ACK_INTERVAL) {
                    send_ack(stream, applied)?;
                    last_ack_lsn = applied;
                    last_ack_at = Instant::now();
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.is_triggered() {
                    return Ok(());
                }
                // Heartbeats come every ~500ms; a multi-second silence
                // means the link (or the primary) is gone.
                return Err(ReplError::Protocol(format!(
                    "primary silent for {REPLICA_READ_TIMEOUT:?}"
                )));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReplError::Io(e)),
        }
    }
}

/// Write one `ACK <lsn>` on the stream socket (the primary's ack
/// reader drains these on its side of the same connection).
fn send_ack(stream: &TcpStream, lsn: u64) -> Result<(), ReplError> {
    let mut w = stream;
    w.write_all(format!("ACK {lsn}\n").as_bytes())
        .map_err(ReplError::Io)
}

fn apply_stream_line(
    service: &MatchService,
    state: &ReplicaState,
    line: &str,
) -> Result<(), ReplError> {
    if let Some(rest) = line.strip_prefix("OP ") {
        let (lsn_tok, payload) = rest
            .split_once(' ')
            .ok_or_else(|| ReplError::Protocol(format!("malformed op line {line:?}")))?;
        let lsn: u64 = lsn_tok
            .parse()
            .map_err(|_| ReplError::Protocol(format!("bad op lsn {lsn_tok:?}")))?;
        let applied = state.applied();
        if lsn <= applied {
            // Replay overlap after a reconnect — already applied.
            return Ok(());
        }
        if lsn != applied + 1 {
            return Err(ReplError::Protocol(format!(
                "op lsn {lsn} arrived after {applied} (hole in the stream)"
            )));
        }
        let op = Op::decode(payload).map_err(ReplError::Protocol)?;
        service
            .apply_op(&op)
            .map_err(|e| ReplError::Protocol(format!("apply of lsn {lsn} failed: {e:?}")))?;
        if let Op::Build(spec) = op {
            service.store().schedule_cover(spec);
        }
        state.applied.store(lsn, Ordering::Release);
        state.head.fetch_max(lsn, Ordering::AcqRel);
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix("PING ") {
        state.head.fetch_max(kv_u64(rest, "lsn")?, Ordering::AcqRel);
        return Ok(());
    }
    if line.is_empty() {
        return Ok(());
    }
    Err(ReplError::Protocol(format!(
        "unexpected stream line {line:?}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use lexequal::{Language, SearchMethod};
    use std::path::PathBuf;

    fn temp_wal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "lexequal_repl_unit_{}_{name}.wal",
            std::process::id()
        ))
    }

    /// The one reader both handshakes share: it takes exactly the bytes
    /// the header announces and leaves the stream behind them alone, and a
    /// header the payload does not bear out is an error, not an allocation.
    #[test]
    fn a_snap_transfer_is_read_to_its_announced_length_or_refused() {
        let store = crate::shard::ShardedStore::new(MatchConfig::default(), 2);
        let image = mmapstore::encode(&store, 9).expect("image");
        let header = |lsn: u64, bytes: u64| format!("lsn={lsn} bytes={bytes}");
        let n = image.len() as u64;

        let mut stream = io::Cursor::new([&image[..], b"OP 10 A en Nehru\n"].concat());
        let (read, lsn) = read_snap(&header(9, n), &mut stream).expect("whole transfer");
        assert!(read == image && lsn == 9);
        assert_eq!(stream.position(), n, "the op line is still to be read");

        for (header, needle) in [
            (header(9, n + 1), "ended after"),
            (header(9, 4_000_000_000_000), "ended after"),
            (header(9, u64::MAX), "ended after"),
            (header(8, n), "snapshot says lsn 9"),
            ("lsn=9".to_owned(), "missing bytes="),
        ] {
            match read_snap(&header, &mut io::Cursor::new(&image)) {
                Err(ReplError::Protocol(what)) => assert!(what.contains(needle), "{what}"),
                other => panic!(
                    "{header}: {:?}",
                    other.map(|(image, lsn)| (image.len(), lsn))
                ),
            }
        }
    }

    /// A live re-seed is one load: the rows the replica lacks come out of
    /// the transferred image and in through a loader, across a chunk seam
    /// on every shard, and the replica ends up the store the primary is:
    /// every entry, every path's answers, the image.
    #[test]
    fn a_snapshot_delta_is_one_load_and_leaves_the_primarys_store() {
        use crate::shard::{BuildSpec, CHUNK_ROWS};
        let service = |rows: usize| {
            let s = MatchService::new(ServiceConfig {
                match_config: MatchConfig::default(),
                shards: 2,
                cache_capacity: 16,
            });
            let name = |i: usize| format!("Nehru{}", "a".repeat(i % 11));
            s.extend((0..rows).map(|i| (name(i), Language::English)))
                .expect("rows");
            s
        };
        let rows = 2 * CHUNK_ROWS + 7;
        let primary = service(rows);
        primary.store().declare(BuildSpec::PhoneticIndex);
        let image = mmapstore::encode(primary.store(), 0).expect("image");
        for have in [0, 5, rows] {
            let replica = service(have);
            let added = apply_snapshot_delta(&replica, image.clone());
            assert_eq!(added.expect("delta"), rows - have, "from {have}");
            assert_eq!(replica.len(), rows);
            let reencoded = mmapstore::encode(replica.store(), 0).expect("image");
            assert!(reencoded == image, "from {have}: image differs");
            let q = primary.store().get(rows as u32 - 1).unwrap().phonemes;
            for method in crate::metrics::ALL_METHODS {
                let method = Some(method).filter(|m| replica.is_built(*m));
                let method = method.unwrap_or(SearchMethod::Scan);
                assert_eq!(
                    replica.store().search_phonemes(&q, 0.35, method),
                    primary.store().search_phonemes(&q, 0.35, method),
                    "from {have}: {method:?}"
                );
            }
        }
        // A snapshot that is not a continuation is refused, nothing added.
        let other = service(0);
        other.add("Gandhi", Language::English).expect("row");
        let refused = apply_snapshot_delta(&other, image);
        assert!(matches!(refused, Err(ReplError::NeedsResync(_))));
        assert_eq!(other.len(), 1);
    }

    /// In-process end to end: primary with a WAL and a stream listener,
    /// a replica syncing (snapshot transfer) then following commits
    /// (incremental tail), converging to identical lookups.
    #[test]
    fn replica_converges_in_process() {
        let config = MatchConfig::default();
        let primary = Arc::new(MatchService::new(ServiceConfig {
            match_config: config.clone(),
            shards: 2,
            cache_capacity: 64,
        }));
        let wal_path = temp_wal("converge");
        std::fs::remove_file(&wal_path).ok();
        let metrics = Arc::new(WalMetrics::default());
        let (wal, replay) = Wal::open(&wal_path, 0, Arc::clone(&metrics)).expect("open wal");
        assert!(replay.is_empty());
        let repl = Replicator::new(wal, metrics);

        // Pre-replica history: names + builds, all through the commit path.
        for text in ["Nehru", "Nero", "Gandhi"] {
            repl.commit_add(&primary, text, Language::English)
                .expect("commit");
        }
        repl.commit_build(&primary, crate::shard::BuildSpec::BkTree)
            .expect("commit build");

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shutdown = ShutdownSignal::new().expect("shutdown signal");
        let accept = {
            let service = Arc::clone(&primary);
            let repl = Arc::clone(&repl);
            let shutdown = shutdown.clone();
            std::thread::spawn(move || serve_repl_listener(listener, service, repl, shutdown))
        };

        let state = Arc::new(ReplicaState::new(addr));
        let (replica, stream, reader) =
            initial_sync(&state.primary, &config, None, 64, &state, &shutdown).expect("sync");
        assert_eq!(replica.len(), 3, "snapshot transfer carried the corpus");
        assert_eq!(state.applied(), 4);
        let replica = Arc::new(replica);
        let apply = {
            let replica = Arc::clone(&replica);
            let state = Arc::clone(&state);
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                run_replica(&replica, &state, Some((stream, reader)), &shutdown)
            })
        };

        // Incremental tail: more names + a build.
        for text in ["Krishnan", "Bose"] {
            repl.commit_add(&primary, text, Language::English)
                .expect("commit");
        }
        repl.commit_build(&primary, crate::shard::BuildSpec::PhoneticIndex)
            .expect("commit build");

        let deadline = Instant::now() + Duration::from_secs(20);
        while state.applied() < repl.head() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(state.applied(), repl.head(), "replica caught up");
        assert_eq!(state.lag(), 0);
        assert_eq!(replica.len(), primary.len());

        // Identical answers on both copies.
        for text in ["Nehru", "Bose", "Gandhi"] {
            let req = crate::service::MatchRequest {
                threshold: Some(0.4),
                method: Some(SearchMethod::Scan),
                ..crate::service::MatchRequest::new(text, Language::English)
            };
            assert_eq!(primary.lookup(&req), replica.lookup(&req), "{text}");
        }
        assert!(replica.is_built(SearchMethod::PhoneticIndex));

        shutdown.trigger();
        repl.stop_and_join();
        apply.join().expect("apply thread").expect("stream clean");
        accept.join().expect("accept thread").expect("accept clean");
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn bad_input_never_reaches_the_log() {
        // English-only registry: a Hindi ADD fails at transform time,
        // before the commit lock ever writes a record.
        let config = crate::service::ServiceConfig {
            match_config: lexequal::MatchConfig::default()
                .with_registry(lexequal::G2pRegistry::with_languages(&[Language::English])),
            shards: 1,
            cache_capacity: 16,
        };
        let primary = MatchService::new(config);
        let wal_path = temp_wal("badinput");
        std::fs::remove_file(&wal_path).ok();
        let metrics = Arc::new(WalMetrics::default());
        let (wal, _) = Wal::open(&wal_path, 0, Arc::clone(&metrics)).expect("open wal");
        let repl = Replicator::new(wal, Arc::clone(&metrics));
        let err = repl.commit_add(&primary, "नेहरु", Language::Hindi);
        assert!(matches!(err, Err(CommitError::BadInput(_))), "{err:?}");
        assert_eq!(repl.head(), 0);
        assert_eq!(metrics.stats().appends, 0);
        assert_eq!(primary.len(), 0);
        std::fs::remove_file(&wal_path).ok();
    }
}
