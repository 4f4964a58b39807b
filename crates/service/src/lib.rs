//! # lexequal-service: phonetic match serving
//!
//! The serving subsystem that turns the LexEQUAL library into a system:
//! a multi-threaded [`MatchService`] over the paper's operator
//! and access paths, plus the `lexequald` line-oriented TCP front-end
//! (benchmarked from outside, over its socket, by `crates/lexbench`).
//! Everything is built on `std` concurrency only — threads, locks and
//! atomics; no async runtime.
//!
//! ## Layers
//!
//! * [`shard`] — [`Store`]: one [`NameStore`](lexequal::NameStore)
//!   behind one read-write lock, owning no thread but its coverer; a
//!   global id is the row id. A search is one call under the read lock
//!   on the caller's thread; an append takes the write lock for one chunk
//!   on the loading thread. Access paths are declared (exact at once) and
//!   covered by indices built on one background coverer thread, off the
//!   lock, behind the traffic; appends are their tails, never an
//!   invalidation.
//! * [`cache`] — [`TransformCache`]: a sharded-mutex LRU memoizing
//!   `(text, language) → PhonemeString` with hit/miss counters.
//! * [`metrics`] — lock-free request counters and a log2-bucket latency
//!   histogram per access path.
//! * [`service`] — [`MatchService`]: the request-level API. Tagged and
//!   untagged lookups run one ladder — a language tag is a route of one,
//!   no tag lets the script pick the route — with per-request
//!   threshold/method overrides and graceful degraded outcomes
//!   (`NoResource`, `NotBuilt`, `BadInput`) instead of errors.
//! * [`proto`] / [`server`] — the `lexequald` wire protocol (with
//!   incremental line framing) and the one request entry point,
//!   [`respond`](server::respond), answered in the daemon's one
//!   [`Role`] (standalone, primary or replica) carried by its [`ReqCtx`].
//! * [`event_loop`] / `conn` — the one serving loop, [`serve`]: an
//!   epoll readiness thread, pipelined per-connection state machines,
//!   backpressure rules and a fixed verify worker pool, stoppable via
//!   [`ShutdownSignal`].
//! * [`mmapstore`] — the snapshot image, the one persistent form of the
//!   store (rows in global-id order, declared paths, covered WAL LSN,
//!   checksummed sections): what `SAVE` and a checkpoint write, what
//!   `lexequald --snapshot` maps and serves in place, and what a
//!   replica is seeded with.
//! * [`wal`] — the write-ahead op log: length-prefixed checksummed
//!   records with monotonic LSNs; every mutation is durable before the
//!   client sees `OK`, and restart replays the tail past the snapshot.
//!   Cursor-based tail reads and an atomic checkpoint-and-truncate
//!   rewrite ([`Wal::compact_to`](wal::Wal::compact_to)) keep the file
//!   bounded.
//! * [`repl`] — replication: the primary's [`Replicator`] (WAL commit
//!   lock + per-replica sender threads, started by a `REPL HELLO` on the
//!   serving port, streaming snapshots and op records, replica ACK
//!   tracking, and the [`spawn_compactor`] checkpoint/compaction loop
//!   with replica-aware horizons) and the replica side behind `lexequald
//!   --replica-of`: one handshake that [`initial_sync`] seeds with and
//!   [`run_replica`] reconnects with, re-seeding live after being
//!   compacted past and refusing a divergent history.
//!
//! ## Threads
//!
//! A daemon runs a fixed set of threads, whatever its connection count:
//! the event loop, `--workers` verify workers (each runs a request whole,
//! a lookup's search included) and the store's one coverer; plus, when those are on, a primary's compactor and one
//! sender a replica streaming from it, or a replica's apply thread.
//!
//! ## Example
//!
//! ```
//! use lexequal_service::{MatchOutcome, MatchRequest, MatchService, ServiceConfig};
//! use lexequal::Language;
//!
//! let service = MatchService::new(ServiceConfig::default());
//! service.extend([
//!     ("Nehru".to_owned(), Language::English),
//!     ("नेहरु".to_owned(), Language::Hindi),
//! ]).unwrap();
//! let out = service.lookup(&MatchRequest {
//!     threshold: Some(0.45),
//!     ..MatchRequest::new("Nehru", Language::English)
//! });
//! let MatchOutcome::Matches { ids, .. } = out else { panic!() };
//! assert_eq!(ids, vec![0, 1]); // the Hindi spelling matches cross-script
//! ```

pub mod cache;
pub(crate) mod conn;
pub mod event_loop;
pub mod metrics;
pub mod mmapstore;
pub mod proto;
pub mod repl;
pub mod server;
pub mod service;
pub mod shard;
pub mod wal;

pub use cache::TransformCache;
pub use event_loop::{serve, ShutdownSignal};
pub use metrics::{
    ConnMetrics, ConnStats, ReplRole, ReplStats, ScreenTotals, ServiceMetrics, WalMetrics, WalStats,
};
pub use mmapstore::{ImageError, ImageSink, LoadedImage, Mmap};
pub use proto::{FrameError, LineFramer};
pub use repl::{
    initial_sync, run_replica, spawn_compactor, CommitError, CompactReport, CompactionPolicy,
    ReplError, ReplicaState, Replicator,
};
pub use server::{bind_reusable, ReqCtx, Role, ServeOptions, MAX_WORKERS};
pub use service::{
    AddResolution, AutoMatchRequest, LoadInfo, MatchOutcome, MatchRequest, MatchService, Preloaded,
    ServiceConfig, SnapshotLoad, StatsSnapshot,
};
pub use shard::{BuildSpec, CoverStats, Cut, Loader, Store};
pub use wal::{CompactionStats, Op, Wal, WalCursor, WalError, WalRecord};
