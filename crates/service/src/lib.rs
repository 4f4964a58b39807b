//! # lexequal-service: phonetic match serving
//!
//! The serving subsystem that turns the LexEQUAL library into a system:
//! a sharded, multi-threaded [`MatchService`] over the paper's operator
//! and access paths, plus the `lexequald` line-oriented TCP front-end
//! (benchmarked from outside, over its socket, by `crates/lexbench`).
//! Everything is built on `std` concurrency only — threads, channels,
//! mutexes and atomics; no async runtime.
//!
//! ## Layers
//!
//! * [`shard`] — [`ShardedStore`]: N [`NameStore`](lexequal::NameStore)
//!   shards (at most [`MAX_SHARDS`](shard::MAX_SHARDS)), each owned by a
//!   worker thread; global ids stripe round-robin (`id % N` picks the
//!   shard, `id / N` the local slot), searches fan out over channels and
//!   merge exactly. Access paths are declared (exact at once) and covered
//!   by indices built off the workers, behind the traffic; appends are
//!   their tails, never an invalidation.
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
//!   [`respond`](server::respond), routed through a
//!   [`ReqCtx`] (standalone, primary or replica).
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
//!   lock + per-replica sender threads streaming snapshots and op
//!   records, replica ACK tracking, and the [`spawn_compactor`]
//!   checkpoint/compaction loop with replica-aware horizons) and the
//!   replica side ([`initial_sync`] / [`run_replica`]) behind `lexequald
//!   --replica-of`, including live re-seed after being compacted past and
//!   fatal divergence detection.
//!
//! ## Example
//!
//! ```
//! use lexequal_service::{MatchOutcome, MatchRequest, MatchService, ServiceConfig};
//! use lexequal::Language;
//!
//! let service = MatchService::new(ServiceConfig { shards: 2, ..Default::default() });
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
    initial_sync, run_replica, serve_repl_listener, serve_replica, spawn_compactor, CommitError,
    CompactReport, CompactionPolicy, ReplError, ReplicaState, Replicator,
};
pub use server::{bind_reusable, ReqCtx, ServeOptions};
pub use service::{
    AddResolution, AutoMatchRequest, LoadInfo, MatchOutcome, MatchRequest, MatchService, Preloaded,
    ServiceConfig, SnapshotLoad, StatsSnapshot,
};
pub use shard::{BuildSpec, CoverStats, Cut, Loader, PendingSearch, ShardedStore};
pub use wal::{CompactionStats, Op, Wal, WalCursor, WalError, WalRecord};
