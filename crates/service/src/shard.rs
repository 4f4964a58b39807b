//! [`ShardedStore`]: a [`NameStore`] partitioned across worker threads.
//!
//! Names are striped across `N` shards round-robin by global id: global id
//! `g` lives on shard `g % N` at local id `g / N`. Each shard is a plain
//! single-threaded [`NameStore`] *owned* by a dedicated worker thread;
//! all access goes through that worker's command channel, so no shard
//! state is ever shared between threads. A search fans out to every shard
//! and merges the per-shard [`SearchResult`]s — local ids are remapped
//! back to global ids and verification counts are summed, so the merged
//! result is bit-identical to what an unsharded store over the same rows
//! would return (see `tests/shard_equivalence.rs`).
//!
//! An access path is *declared* on every shard (`declare`) and exact from
//! that moment; making it fast is *covering* (DESIGN §5n): a cover copies
//! the prefix of the column a path is keyed on out of a shard in chunks,
//! builds the index on its own thread — never on a worker's command loop,
//! under no lock — and hands it back to be installed. Appends invalidate nothing; a tail that
//! outgrows the re-cover rule schedules a background cover.
//!
//! Rows come in one way, whatever their source — a generator, a vector of
//! entries, a snapshot being restored, one `ADD`: through a [`Loader`],
//! the prefix reader run backwards. It stripes the rows it is pushed into
//! one [`RowChunk`] a shard and sends each full chunk to its worker, which
//! derives the cluster ids and embeddings and hands the buffer back; the
//! length is published once, when the load ends.

use crate::metrics::{BatchTotals, ScreenTotals};
use lexequal::rows::Base;
pub(crate) use lexequal::store::CHUNK_ROWS;
use lexequal::store::{cover_due, NameEntry, SearchResult};
pub use lexequal::BuildSpec;
use lexequal::{
    BatchCounters, BatchVerifier, ClusterTable, G2pError, KeyColumn, Language, LexEqual, LoadSize,
    MatchConfig, Memory, NameStore, PathIndex, PhonemeString, RowChunk, ScreenCounters,
    SearchMethod, SymbolColumn,
};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// A point-in-time cut of an append-only store: "the store at `lsn`" is
/// rows `0..rows` with `builds` declared. Rows never change once
/// appended and ids are assigned in commit order, so the prefix read at
/// any later time *is* the store as it stood when the cut was taken —
/// which is why taking one copies nothing (see
/// [`ShardedStore::cut`] and [`crate::repl::Replicator::cut`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// WAL LSN the cut covers (0 = no WAL).
    pub lsn: u64,
    /// Number of rows (global ids `0..rows`) the cut holds.
    pub rows: usize,
    /// Access paths declared at the cut.
    pub builds: Vec<BuildSpec>,
}

/// How many of global rows `0..rows` live on `shard` of `shards` (its
/// local rows `0..n`): row `g` is shard `g % shards`'s local `g / shards`.
fn local_rows(rows: usize, shard: usize, shards: usize) -> usize {
    (rows + shards - 1 - shard) / shards
}

/// A shard's row count, its declared paths with the rows each index
/// covers, and what the rows cost it ([`NameStore::memory`]).
type Coverage = (usize, Vec<(BuildSpec, usize)>, Memory);

/// One request to a shard worker. Replies travel over per-call mpsc
/// channels so any number of client threads can have requests in flight.
enum Cmd {
    /// Append `chunk`'s rows (a [`Loader`]'s; infallible: every row was
    /// transformed and measured before it was pushed). `load` is what the
    /// whole load brings this shard, sent with its first chunk. Replies
    /// with the shard index, the buffer — to be refilled — and whether
    /// some path's tail now meets the re-cover rule.
    Append {
        chunk: RowChunk,
        load: LoadSize,
        shard: usize,
        reply: Sender<Appended>,
    },
    /// Declare an access path (an index over zero rows unless the path
    /// already holds this spec).
    Declare { spec: BuildSpec, reply: Sender<()> },
    /// See [`Coverage`].
    Coverage { reply: Sender<Coverage> },
    /// Adopt an index a cover built over a prefix of this shard's rows;
    /// replies whether it was accepted (see [`NameStore::install`]).
    Install {
        index: PathIndex,
        reply: Sender<bool>,
    },
    /// Search this shard; echoes the shard index so the coordinator can
    /// remap local ids while collecting replies out of order.
    Search {
        query: PhonemeString,
        e: f64,
        method: SearchMethod,
        shard: usize,
        reply: Sender<(usize, SearchResult)>,
    },
    /// Fetch one entry by local id.
    Get {
        local: u32,
        reply: Sender<Option<NameEntry>>,
    },
    /// `(text bytes, phoneme bytes)` of local rows `0..rows` (a snapshot
    /// writer's lengths-only pass).
    PrefixBytes {
        rows: usize,
        reply: Sender<(usize, usize)>,
    },
    /// Append local rows `rows`' strings in `column` to `keys` and send it
    /// back (a cover copying the prefix it will index).
    ReadKeys {
        column: KeyColumn,
        rows: Range<usize>,
        keys: SymbolColumn,
        reply: Sender<SymbolColumn>,
    },
    /// Copy local rows `rows` into `chunk` and send it back (snapshot
    /// capture); echoes the shard index so the reader can collect out of
    /// order. The buffer travels both ways so its allocations are reused.
    ReadRows {
        rows: Range<usize>,
        chunk: RowChunk,
        shard: usize,
        reply: Sender<(usize, RowChunk)>,
    },
}

/// A worker's reply to [`Cmd::Append`].
type Appended = (usize, RowChunk, bool);

fn worker(
    mut store: NameStore,
    rx: Receiver<Cmd>,
    screens: Arc<ScreenTotals>,
    batches: Arc<BatchTotals>,
) {
    // One long-lived batched verification kernel per worker: its DP
    // scratch and lane buffers grow to the longest candidate once and
    // every later verification on this shard is allocation-free. The
    // evented front-end feeds whole candidate slices through here, so
    // each search step verifies up to MAX_LANES candidates interleaved.
    let mut verifier = BatchVerifier::new();
    for cmd in rx {
        match cmd {
            Cmd::Append {
                chunk,
                load,
                shard,
                reply,
            } => {
                store.append_rows(&chunk, load);
                let _ = reply.send((shard, chunk, store.cover_due()));
            }
            Cmd::Declare { spec, reply } => {
                store.declare(spec);
                let _ = reply.send(());
            }
            Cmd::Coverage { reply } => {
                let _ = reply.send((store.len(), store.coverage(), store.memory()));
            }
            Cmd::Install { index, reply } => {
                let _ = reply.send(store.install(index));
            }
            Cmd::Search {
                query,
                e,
                method,
                shard,
                reply,
            } => {
                let result = store.search_phonemes_batched(&query, e, method, &mut verifier);
                screens.add(&verifier.take_counters());
                batches.add(&verifier.take_batch_counters());
                let _ = reply.send((shard, result));
            }
            Cmd::Get { local, reply } => {
                let _ = reply.send(store.get(local));
            }
            Cmd::PrefixBytes { rows, reply } => {
                let _ = reply.send(store.prefix_bytes(rows));
            }
            Cmd::ReadKeys {
                column,
                rows,
                mut keys,
                reply,
            } => {
                store.read_keys(column, rows, &mut keys);
                let _ = reply.send(keys);
            }
            Cmd::ReadRows {
                rows,
                mut chunk,
                shard,
                reply,
            } => {
                store.read_rows(rows, &mut chunk);
                let _ = reply.send((shard, chunk));
            }
        }
    }
}

/// Send one command to a worker and wait for its reply.
fn ask<T>(worker: &Sender<Cmd>, cmd: impl FnOnce(Sender<T>) -> Cmd) -> T {
    let (tx, rx) = channel();
    worker.send(cmd(tx)).expect("shard worker alive");
    rx.recv().expect("shard worker replies")
}

/// What covering shares between the store and its background coverer — a
/// thread that holds this and its own clones of the command channels,
/// never the store, which therefore drops when its owner says.
struct Covering {
    clusters: Arc<ClusterTable>,
    /// Declared access paths in declaration order — what a [`Cut`]
    /// records and a load re-declares.
    declared: Mutex<Vec<BuildSpec>>,
    /// The same as a bitmask (bit = `method_index`), for the request
    /// path: set once every shard holds the declaration, never cleared.
    declared_mask: AtomicU8,
    /// One cover at a time; the next finds what this one left.
    turn: Mutex<()>,
    /// Paths the next background cover finishes whatever their tail.
    forced: Mutex<Vec<BuildSpec>>,
    /// A background cover has been asked for and has not begun.
    scheduled: AtomicBool,
    /// The store is dropping: the coverer ends after the cover in hand.
    stopping: AtomicBool,
    /// Covers that installed an index, and how long the last one took.
    covers: AtomicU64,
    cover_ms_last: AtomicU64,
}

impl Covering {
    /// The background coverer's life: parked until a cover is asked for
    /// ([`ShardedStore::cover_in_background`] unparks it), then one cover
    /// of the paths [`ShardedStore::schedule_cover`] named and any path
    /// the re-cover rule names.
    fn run(&self, workers: &[Sender<Cmd>]) {
        loop {
            // Cleared before the cover looks at anything, so whatever is
            // asked from here on gets a cover of its own.
            while !self.scheduled.swap(false, Ordering::AcqRel) {
                if self.stopping.load(Ordering::Acquire) {
                    return;
                }
                std::thread::park();
            }
            let forced = std::mem::take(&mut *self.forced.lock().expect("forced lock"));
            let want = |spec, covered, rows| forced.contains(&spec) || cover_due(covered, rows);
            self.cover(workers, &want, &|| {});
        }
    }

    /// On every shard in turn, build and install an index over the rows
    /// the shard holds now for each declared path `want(spec, covered,
    /// rows)` names. All of it happens on the calling thread — a worker is
    /// asked for its coverage, for one chunk of rows at a time, and to
    /// adopt the finished index, each a command of microseconds between
    /// which it serves its queue — and under no lock but the covers' own
    /// turn. One thread, so a cover takes one core from the traffic it
    /// runs behind however many shards there are, and holds one shard's
    /// prefix copy at a time. `on_chunk` runs after every chunk read
    /// (tests park a cover there).
    fn cover(
        &self,
        workers: &[Sender<Cmd>],
        want: &dyn Fn(BuildSpec, usize, usize) -> bool,
        on_chunk: &dyn Fn(),
    ) {
        let _turn = self.turn.lock().expect("cover turn");
        let start = Instant::now();
        // One copy buffer for the whole cover, refilled shard after shard.
        let mut prefix = SymbolColumn::default();
        let installed = workers.iter().fold(false, |any, worker| {
            self.cover_shard(worker, want, &mut prefix, on_chunk) | any
        });
        if installed {
            self.covers.fetch_add(1, Ordering::Relaxed);
            let ms = start.elapsed().as_millis() as u64;
            self.cover_ms_last.store(ms, Ordering::Relaxed);
        }
    }

    fn cover_shard(
        &self,
        worker: &Sender<Cmd>,
        want: &dyn Fn(BuildSpec, usize, usize) -> bool,
        prefix: &mut SymbolColumn,
        on_chunk: &dyn Fn(),
    ) -> bool {
        let (rows, coverage, _) = ask(worker, |reply| Cmd::Coverage { reply });
        let wanted: Vec<BuildSpec> = coverage
            .into_iter()
            .filter(|&(spec, covered)| covered < rows && want(spec, covered, rows))
            .map(|(spec, _)| spec)
            .collect();
        // One copy a key column in use — the cluster strings, unless a
        // q-gram filter is declared as the paper ran it.
        let mut installed = false;
        for column in [KeyColumn::Clusters, KeyColumn::Phonemes] {
            let mut keyed = wanted.iter().filter(|spec| spec.key() == column).peekable();
            if keyed.peek().is_none() {
                continue;
            }
            // Copy the prefix off the worker, a chunk of rows a command:
            // the worker is held for one chunk's memcpy at a time. A
            // row's cluster string is as long as its phoneme string.
            let (_, bytes) = ask(worker, |reply| Cmd::PrefixBytes { rows, reply });
            prefix.reset(rows, bytes);
            for first in (0..rows).step_by(CHUNK_ROWS) {
                let rows = first..(first + CHUNK_ROWS).min(rows);
                *prefix = ask(worker, |reply| Cmd::ReadKeys {
                    column,
                    rows,
                    keys: std::mem::take(prefix),
                    reply,
                });
                on_chunk();
            }
            for &spec in keyed {
                let index = PathIndex::build(spec, &self.clusters, rows, |id| prefix.row(id));
                installed |= ask(worker, |reply| Cmd::Install { index, reply });
            }
        }
        installed
    }
}

/// A multiscript name collection partitioned across worker threads.
pub struct ShardedStore {
    /// The one operator of this store: every shard's [`NameStore`] shares
    /// it, and snapshot writers and loaders borrow it.
    operator: Arc<LexEqual>,
    senders: Vec<Sender<Cmd>>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes global-id assignment so the round-robin stripe stays
    /// aligned with each shard's local insertion order: a [`Loader`]
    /// holds it for its life, and fills the buffers it guards.
    grow: Mutex<LoadBuffers>,
    /// The published row count: stored (under `grow`) only after every
    /// shard has appended, so a reader that sees `n` can resolve every
    /// id below `n` — and never waits behind an append to learn it.
    len: AtomicU32,
    /// Kernel screen counters, flushed by every worker after each search.
    screens: Arc<ScreenTotals>,
    /// Batch-shape counters, flushed alongside the screen counters.
    batches: Arc<BatchTotals>,
    covering: Arc<Covering>,
    /// The background coverer (see [`Covering::run`]), to unpark.
    coverer: std::thread::Thread,
}

/// What `STATS` reports of the access paths' coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverStats {
    /// Declared access paths.
    pub declared: usize,
    /// Rows no index covers yet, per path in
    /// [`method_index`](crate::metrics::method_index) order, summed over
    /// the shards (0 for a scan and for an undeclared path).
    pub tails: [usize; 4],
    /// Covers that installed an index since start.
    pub covers: u64,
    /// How long the last of them took, in ms.
    pub cover_ms_last: u64,
    /// Bytes the shards' owned row columns hold (arenas and offsets, by
    /// capacity), image bytes their base rows occupy, and bytes the
    /// q-gram, phonetic and BK-tree indices' arrays hold — each summed
    /// over the shards.
    pub row_bytes: usize,
    /// See [`row_bytes`](Self::row_bytes).
    pub mapped_bytes: usize,
    /// See [`row_bytes`](Self::row_bytes).
    pub index_bytes: [usize; 3],
}

/// The most shards a store may have, a flag may ask for and an image may
/// declare: each is a worker thread, so an unchecked count (four bytes of
/// a hostile header) could demand more than the host can spawn.
pub const MAX_SHARDS: usize = 1024;

impl ShardedStore {
    /// Create an empty store with `shards` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or above [`MAX_SHARDS`].
    pub fn new(config: MatchConfig, shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "need 1..={MAX_SHARDS} shards, not {shards}"
        );
        Self::over(Arc::new(LexEqual::new(config)), (0..shards).map(|_| None))
    }

    /// A store whose shard `s` starts as `bases[s]`: the rows of a
    /// snapshot image, striped `g % N` as this module stripes them and
    /// read where they lie (the image loader's way in; it has validated
    /// every row).
    pub(crate) fn over_bases(operator: Arc<LexEqual>, bases: Vec<Base>) -> Self {
        Self::over(operator, bases.into_iter().map(Some))
    }

    /// One worker thread a shard, each store empty or over its base;
    /// their rows are the published length.
    fn over(operator: Arc<LexEqual>, bases: impl Iterator<Item = Option<Base>>) -> Self {
        let stores: Vec<NameStore> = bases
            .map(|base| NameStore::sharing(Arc::clone(&operator), base))
            .collect();
        let screens = Arc::new(ScreenTotals::default());
        let batches = Arc::new(BatchTotals::default());
        let len = stores.iter().map(NameStore::len).sum::<usize>();
        let mut senders = Vec::with_capacity(stores.len());
        let mut handles = Vec::with_capacity(stores.len());
        for (i, store) in stores.into_iter().enumerate() {
            let (tx, rx) = channel();
            let screens = Arc::clone(&screens);
            let batches = Arc::clone(&batches);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lexequal-shard-{i}"))
                    .spawn(move || worker(store, rx, screens, batches))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        let covering = Arc::new(Covering {
            clusters: Arc::clone(&operator.config().clusters),
            declared: Mutex::default(),
            declared_mask: AtomicU8::new(0),
            turn: Mutex::default(),
            forced: Mutex::default(),
            scheduled: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            covers: AtomicU64::new(0),
            cover_ms_last: AtomicU64::new(0),
        });
        let coverer = {
            let (covering, workers) = (Arc::clone(&covering), senders.clone());
            std::thread::Builder::new()
                .name("lexequal-cover".to_owned())
                .spawn(move || covering.run(&workers))
                .expect("spawn coverer")
        };
        ShardedStore {
            operator,
            grow: Mutex::new(LoadBuffers::new(senders.len())),
            senders,
            coverer: coverer.thread().clone(),
            // Joined first: the workers' loops end only once the coverer
            // has let go of its command channels too.
            handles: std::iter::once(coverer).chain(handles).collect(),
            len: AtomicU32::new(u32::try_from(len).expect("ids are u32")),
            screens,
            batches,
            covering,
        }
    }

    /// Aggregated verification-kernel screen counters across all workers.
    pub fn screen_totals(&self) -> ScreenCounters {
        self.screens.snapshot()
    }

    /// Aggregated batch-shape counters across all workers.
    pub fn batch_totals(&self) -> BatchCounters {
        self.batches.snapshot()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &MatchConfig {
        self.operator.config()
    }

    /// The operator every shard of this store matches with.
    pub fn operator(&self) -> &Arc<LexEqual> {
        &self.operator
    }

    /// Total number of stored names.
    pub fn len(&self) -> usize {
        // Acquire pairs with the Release store in `publish_len`.
        self.len.load(Ordering::Acquire) as usize
    }

    /// Publish the row count once every shard has appended (a
    /// [`Loader`]'s last act, under the grow lock).
    fn publish_len(&self, len: u32) {
        self.len.store(len, Ordering::Release);
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Send `cmd(shard, reply)` to every worker — all of them before any
    /// reply is awaited, so the shards work side by side; the replies
    /// arrive on the returned channel, one a shard.
    fn ask_all<T>(&self, mut cmd: impl FnMut(usize, Sender<T>) -> Cmd) -> Receiver<T> {
        let (tx, rx) = channel();
        for (shard, worker) in self.senders.iter().enumerate() {
            worker
                .send(cmd(shard, tx.clone()))
                .expect("shard worker alive");
        }
        rx
    }

    /// Insert one name; returns its global id.
    pub fn insert(&self, text: &str, language: Language) -> Result<u32, G2pError> {
        self.extend([(text.to_owned(), language)]).map(|r| r.start)
    }

    /// Bulk-load names; returns the contiguous global id range assigned.
    ///
    /// All rows are transformed *first* (in parallel across scoped
    /// threads when the batch is large), so a G2P failure anywhere leaves
    /// the store completely unchanged; the entries then go in as
    /// [`extend_transformed`](Self::extend_transformed) puts them.
    pub fn extend(
        &self,
        rows: impl IntoIterator<Item = (String, Language)>,
    ) -> Result<Range<u32>, G2pError> {
        let rows: Vec<(String, Language)> = rows.into_iter().collect();
        let entries = transform_rows(self.config(), rows)?;
        Ok(self.extend_transformed(entries))
    }

    /// Bulk-load pre-transformed entries through a [`Loader`]; returns the
    /// global id range. Declared access paths stay declared — the new rows
    /// are their tails — and a tail that has outgrown the re-cover rule
    /// ([`lexequal::store::cover_due`]) starts a background cover.
    ///
    /// # Panics
    ///
    /// Panics at an entry too long to store (one built around
    /// [`NameEntry::new`]), and the store takes no append after it.
    pub fn extend_transformed(&self, entries: Vec<NameEntry>) -> Range<u32> {
        let mut loader = self.loader();
        loader.reserve(entries.iter().map(|e| (e.text.len(), e.phonemes.len())));
        for e in &entries {
            loader
                .push(&[&e.text], e.language, &[&e.phonemes])
                .expect("an entry passes NameEntry::new");
        }
        loader.finish()
    }

    /// Begin a load: the returned [`Loader`] holds the grow lock until it
    /// is finished or dropped, so every id it assigns follows the last.
    pub fn loader(&self) -> Loader<'_> {
        self.loader_with(&|| {})
    }

    /// [`loader`](Self::loader) with a hook run after every chunk the
    /// load sends to a shard.
    #[doc(hidden)]
    pub fn loader_with<'a>(&'a self, on_chunk: &'a dyn Fn()) -> Loader<'a> {
        let buffers = self.grow.lock().expect("grow lock");
        let start = self.len.load(Ordering::Relaxed);
        Loader {
            store: self,
            buffers,
            start,
            next: start,
            loads: Vec::new(),
            due: false,
            on_chunk,
        }
    }

    /// Declare one access path on every shard: from the moment this
    /// returns, searches through it are exact — over the path's pair-wise
    /// rule alone until a cover installs an index. Re-declaring a path
    /// moves it to the end of the recorded order; with a different spec
    /// (another `q`) it also resets the path's coverage.
    pub fn declare(&self, spec: BuildSpec) {
        let mut declared = self.covering.declared.lock().expect("declared lock");
        self.ask_all(|_, reply| Cmd::Declare { spec, reply })
            .iter()
            .count();
        declared.retain(|d| d.method() != spec.method());
        declared.push(spec);
        let bit = 1 << crate::metrics::method_index(spec.method());
        self.covering.declared_mask.fetch_or(bit, Ordering::Release);
    }

    /// Whether `method` can serve a search: its path has been declared on
    /// every shard (a scan needs none). Lock-free; never revoked.
    pub fn is_declared(&self, method: SearchMethod) -> bool {
        let bit = 1 << crate::metrics::method_index(method);
        method == SearchMethod::Scan
            || self.covering.declared_mask.load(Ordering::Acquire) & bit != 0
    }

    /// Declare one access path and [`cover`](Self::cover) it.
    pub fn build(&self, spec: BuildSpec) {
        self.declare(spec);
        self.cover(&[spec]);
    }

    /// Cover those of `specs` that are declared, on this thread, up to
    /// the rows stored when the call began.
    pub fn cover(&self, specs: &[BuildSpec]) {
        self.cover_with(specs, &|| {});
    }

    /// [`cover`](Self::cover) with a hook run after every chunk of rows
    /// the cover reads.
    #[doc(hidden)]
    pub fn cover_with(&self, specs: &[BuildSpec], on_chunk: &dyn Fn()) {
        let want = |spec, _, _| specs.contains(&spec);
        self.covering.cover(&self.senders, &want, on_chunk);
    }

    /// Leave covering a declared path, whatever its tail, to a background
    /// thread (the non-blocking half of a wire `BUILD`, after
    /// [`declare`](Self::declare)).
    pub fn schedule_cover(&self, spec: BuildSpec) {
        self.covering.forced.lock().expect("forced lock").push(spec);
        self.cover_in_background();
    }

    /// Ask the background coverer for a cover; asks made before it begins
    /// are one cover.
    fn cover_in_background(&self) {
        self.covering.scheduled.store(true, Ordering::Release);
        self.coverer.unpark();
    }

    /// The declared access paths, in declaration order (what a snapshot
    /// records and a load re-declares).
    pub fn built_specs(&self) -> Vec<BuildSpec> {
        self.covering
            .declared
            .lock()
            .expect("declared lock")
            .clone()
    }

    /// Coverage gauges for `STATS`: asks every worker (one queue slot
    /// each), so the tails are what the shards hold, not what a
    /// coordinator-side counter believes.
    pub fn cover_stats(&self) -> CoverStats {
        let mut stats = CoverStats {
            declared: self.built_specs().len(),
            covers: self.covering.covers.load(Ordering::Relaxed),
            cover_ms_last: self.covering.cover_ms_last.load(Ordering::Relaxed),
            ..CoverStats::default()
        };
        for (rows, coverage, memory) in self.ask_all(|_, reply| Cmd::Coverage { reply }) {
            for (spec, covered) in coverage {
                stats.tails[crate::metrics::method_index(spec.method())] += rows - covered;
            }
            stats.row_bytes += memory.owned;
            stats.mapped_bytes += memory.mapped;
            for (total, bytes) in stats.index_bytes.iter_mut().zip(memory.indices) {
                *total += bytes;
            }
        }
        stats
    }

    /// The cut of this store as it stands: the published row count and
    /// the declared access paths, stamped `lsn`. Two loads, no copy, no
    /// grow lock. The caller makes the stamp exact by holding its own
    /// writes off for these two loads (the primary takes it under the
    /// commit lock, see [`crate::repl::Replicator::cut`]).
    pub fn cut(&self, lsn: u64) -> Cut {
        Cut {
            lsn,
            rows: self.len(),
            builds: self.built_specs(),
        }
    }

    /// `(text bytes, phoneme bytes)` held by global rows `0..rows`,
    /// summed on the shard workers — no row is copied.
    pub(crate) fn prefix_bytes(&self, rows: usize) -> (usize, usize) {
        let shard_rows = |shard| local_rows(rows, shard, self.shards());
        self.ask_all(|shard, reply| Cmd::PrefixBytes {
            rows: shard_rows(shard),
            reply,
        })
        .iter()
        .fold((0, 0), |(t, p), (dt, dp)| (t + dt, p + dp))
    }

    /// Read global rows `0..rows` in id order, [`CHUNK_ROWS`] at a time —
    /// the one capture path of both snapshot formats. `rows` must not
    /// exceed a length this store has published; rows below it never
    /// change, so no lock is held and appends and covers interleave
    /// freely with the reader.
    pub(crate) fn prefix_reader(&self, rows: usize) -> PrefixReader<'_> {
        debug_assert!(rows <= self.len(), "prefix past the published length");
        let (reply, replies) = channel();
        PrefixReader {
            store: self,
            rows,
            next: 0,
            chunks: (0..self.shards()).map(|_| RowChunk::default()).collect(),
            reply,
            replies,
        }
    }

    /// Entry by global id.
    pub fn get(&self, id: u32) -> Option<NameEntry> {
        let n = self.shards();
        ask(&self.senders[id as usize % n], |reply| Cmd::Get {
            local: id / n as u32,
            reply,
        })
    }

    /// Fan a pre-transformed query out over every shard and merge: local
    /// ids remap to global ids, verification counts sum, the merged id
    /// list is sorted ascending (same order an unsharded scan produces).
    ///
    /// # Panics
    ///
    /// Panics (on the worker thread) if the access path was never
    /// declared; see [`crate::MatchService`] for the graceful front-end.
    pub fn search_phonemes(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> SearchResult {
        self.begin_search(q, e, method).merge()
    }

    /// Enqueue one query's fan-out on every shard worker and return
    /// without waiting. The caller collects the merged result with
    /// [`PendingSearch::merge`] whenever it likes; beginning several
    /// searches before merging any is exactly how the daemon's verify
    /// workers keep all shards busy at once.
    pub fn begin_search(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> PendingSearch {
        PendingSearch {
            rx: self.ask_all(|shard, reply| Cmd::Search {
                query: q.clone(),
                e,
                method,
                shard,
                reply,
            }),
            shards: self.shards(),
        }
    }
}

/// What a load fills and the grow lock guards: per shard the chunk being
/// filled and a second buffer for while that one is with the worker, and
/// the channel the workers hand buffers back on. They outlive a load that
/// never filled a chunk, so an `ADD` allocates nothing here.
struct LoadBuffers {
    filling: Vec<RowChunk>,
    /// The buffer not being filled; `None` while it is with the worker.
    spare: Vec<Option<RowChunk>>,
    reply: Sender<Appended>,
    replies: Receiver<Appended>,
}

impl LoadBuffers {
    fn new(shards: usize) -> Self {
        let (reply, replies) = channel();
        LoadBuffers {
            filling: (0..shards).map(|_| RowChunk::default()).collect(),
            spare: (0..shards).map(|_| Some(RowChunk::default())).collect(),
            reply,
            replies,
        }
    }
}

/// One load into a [`ShardedStore`] (from [`ShardedStore::loader`]) — the
/// `PrefixReader` run backwards, and the only way rows come in. Rows are
/// [`push`](Self::push)ed in global-id order; row `g` goes into the chunk
/// of shard `g % N`, a chunk of [`CHUNK_ROWS`] rows goes to its worker as
/// one command, and the worker derives cluster ids and embeddings while
/// the source fills the shard's other buffer. The loader holds the grow
/// lock for its life, so a load's ids are contiguous, and the store's
/// length moves once: [`finish`](Self::finish) — or dropping the loader,
/// after a refused row, say — sends what is still buffered, waits for the
/// shards and publishes exactly the rows that were accepted, so no shard
/// ever holds a row that a published length does not come to cover.
pub struct Loader<'a> {
    store: &'a ShardedStore,
    buffers: MutexGuard<'a, LoadBuffers>,
    /// The published length when the load began, and the next id.
    start: u32,
    next: u32,
    /// What the load brings each shard, until its first chunk takes it
    /// along (empty unless [`reserve`](Self::reserve) was called).
    loads: Vec<LoadSize>,
    due: bool,
    on_chunk: &'a dyn Fn(),
}

impl Loader<'_> {
    /// Announce the rows to come, each as `(text bytes, phoneme bytes)`
    /// in push order, so that every shard sizes its columns once, for
    /// exactly its stripe. Optional; call it before the first push.
    pub fn reserve(&mut self, rows: impl Iterator<Item = (usize, usize)>) {
        debug_assert_eq!(self.next, self.start, "sizes announced mid-load");
        let shards = self.store.shards();
        self.loads = vec![LoadSize::default(); shards];
        for (offset, (text_bytes, phoneme_bytes)) in rows.enumerate() {
            self.loads[(self.next as usize + offset) % shards].add(text_bytes, phoneme_bytes);
        }
    }

    /// Append one row — text and phonemes each given as parts, to be
    /// stored back to back — and return its global id, or refuse it as
    /// too long to store ([`lexequal::rows::check_field_bytes`]): the load
    /// is then as it was before the call.
    pub fn push(
        &mut self,
        text: &[&str],
        language: Language,
        phonemes: &[&PhonemeString],
    ) -> Result<u32, G2pError> {
        let id = self.next;
        let next = id.checked_add(1).expect("ids are u32");
        let shard = id as usize % self.store.shards();
        self.buffers.filling[shard].push(text, language, phonemes)?;
        self.next = next;
        if self.buffers.filling[shard].len() == CHUNK_ROWS {
            self.send(shard);
        }
        Ok(id)
    }

    /// End the load: everything pushed is appended and published; returns
    /// the global id range the rows took.
    pub fn finish(mut self) -> Range<u32> {
        self.flush();
        self.start..self.next
    }

    /// Hand shard `shard`'s filling chunk to its worker and go on filling
    /// its other buffer, waiting first for that one to come back if it is
    /// still out.
    fn send(&mut self, shard: usize) {
        while self.buffers.spare[shard].is_none() {
            self.receive();
        }
        let b = &mut *self.buffers;
        let refill = b.spare[shard].take().expect("waited for it");
        let cmd = Cmd::Append {
            chunk: std::mem::replace(&mut b.filling[shard], refill),
            load: self
                .loads
                .get_mut(shard)
                .map(std::mem::take)
                .unwrap_or_default(),
            shard,
            reply: b.reply.clone(),
        };
        self.store.senders[shard]
            .send(cmd)
            .expect("shard worker alive");
        (self.on_chunk)();
    }

    /// Take one buffer back from a worker.
    fn receive(&mut self) {
        let b = &mut *self.buffers;
        let (shard, mut chunk, due) = b.replies.recv().expect("shard worker replies");
        chunk.clear();
        b.spare[shard] = Some(chunk);
        self.due |= due;
    }

    fn flush(&mut self) {
        let shards = self.store.shards();
        for shard in 0..shards {
            if !self.buffers.filling[shard].is_empty() {
                self.send(shard);
            }
        }
        while self.buffers.spare.iter().any(Option::is_none) {
            self.receive();
        }
        self.store.publish_len(self.next);
        // A bulk load's buffers, grown to a chunk each, go with it.
        if (self.next - self.start) as usize >= CHUNK_ROWS {
            *self.buffers = LoadBuffers::new(shards);
        }
        if std::mem::take(&mut self.due) {
            self.store.cover_in_background();
        }
    }
}

impl Drop for Loader<'_> {
    fn drop(&mut self) {
        // After `finish` there is nothing left to send or wait for. Not
        // while unwinding: a flush can panic (a dead worker), and the grow
        // lock this guard poisons on its way out ends all appending anyway,
        // so no later load can be striped onto the rows left unpublished.
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

/// Chunked reader over a store's row prefix (from
/// [`ShardedStore::prefix_reader`]). It owns one [`RowChunk`] per shard
/// and sends each to its worker to be refilled, so a whole pass over the
/// store allocates what the largest chunk needs, once.
pub(crate) struct PrefixReader<'a> {
    store: &'a ShardedStore,
    rows: usize,
    /// First global row of the next chunk.
    next: usize,
    chunks: Vec<RowChunk>,
    reply: Sender<(usize, RowChunk)>,
    replies: Receiver<(usize, RowChunk)>,
}

impl PrefixReader<'_> {
    /// Fetch the next chunk; `None` once the prefix is exhausted. The
    /// rows come back through [`PrefixChunk::rows`] in global-id order.
    pub(crate) fn next_chunk(&mut self) -> Option<PrefixChunk<'_>> {
        if self.next >= self.rows {
            return None;
        }
        let first = self.next;
        let end = (first + CHUNK_ROWS).min(self.rows);
        self.next = end;
        let mut expected = 0usize;
        for (shard, s) in self.store.senders.iter().enumerate() {
            let n = self.store.shards();
            let rows = local_rows(first, shard, n)..local_rows(end, shard, n);
            if rows.is_empty() {
                continue;
            }
            expected += 1;
            s.send(Cmd::ReadRows {
                rows,
                chunk: std::mem::take(&mut self.chunks[shard]),
                shard,
                reply: self.reply.clone(),
            })
            .expect("shard worker alive");
        }
        for _ in 0..expected {
            let (shard, chunk) = self.replies.recv().expect("shard worker replies");
            self.chunks[shard] = chunk;
        }
        Some(PrefixChunk {
            first,
            len: end - first,
            chunks: &self.chunks,
        })
    }
}

/// One chunk of consecutive global rows, still striped per shard.
pub(crate) struct PrefixChunk<'a> {
    first: usize,
    len: usize,
    chunks: &'a [RowChunk],
}

impl<'a> PrefixChunk<'a> {
    /// The rows in global-id order, each `(text bytes, language, phoneme
    /// ids)`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&'a [u8], Language, &'a [u8])> {
        let (n, first, chunks) = (self.chunks.len(), self.first, self.chunks);
        // A shard's slice of a contiguous global range is contiguous and
        // ascending, so global row g sits in shard g % n's chunk at its
        // local id less the chunk's first.
        (first..first + self.len).map(move |g| {
            let shard = g % n;
            chunks[shard].row(g / n - local_rows(first, shard, n))
        })
    }
}

/// A search whose per-shard fan-out has been enqueued but whose replies
/// have not been collected yet (from [`ShardedStore::begin_search`]).
///
/// Dropping a `PendingSearch` without merging is safe — the shard
/// workers still run the search, their replies just land on a
/// disconnected channel.
pub struct PendingSearch {
    rx: Receiver<(usize, SearchResult)>,
    shards: usize,
}

impl PendingSearch {
    /// Block until every shard has replied and merge, exactly like
    /// [`ShardedStore::search_phonemes`].
    pub fn merge(self) -> SearchResult {
        merge_replies(self.rx, self.shards)
    }
}

/// Collect one reply per shard and merge: local ids remap to global ids,
/// verification counts sum, ids sort ascending.
fn merge_replies(rx: Receiver<(usize, SearchResult)>, n: usize) -> SearchResult {
    let mut ids = Vec::new();
    let mut verifications = 0usize;
    let mut replies = 0usize;
    for (shard, result) in rx {
        replies += 1;
        verifications += result.verifications;
        ids.extend(
            result
                .ids
                .iter()
                .map(|local| local * n as u32 + shard as u32),
        );
        if replies == n {
            break;
        }
    }
    // A worker that died (e.g. searching an undeclared access path) hangs up
    // instead of replying; a partial merge must never be passed off as a
    // complete result.
    assert_eq!(replies, n, "a shard worker died mid-search");
    ids.sort_unstable();
    SearchResult { ids, verifications }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        self.covering.stopping.store(true, Ordering::Release);
        self.coverer.unpark();
        // Hanging up every command channel ends the worker loops.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Transform rows to [`NameEntry`]s, fanning the G2P work out across
/// scoped threads for large batches. Order is preserved; the first error
/// wins and discards all work.
fn transform_rows(
    config: &MatchConfig,
    rows: Vec<(String, Language)>,
) -> Result<Vec<NameEntry>, G2pError> {
    /// Below this size the spawn overhead outweighs the parallelism.
    const PARALLEL_THRESHOLD: usize = 4096;
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if rows.len() < PARALLEL_THRESHOLD || workers < 2 {
        return rows
            .into_iter()
            .map(|(text, language)| {
                let phonemes = config.registry.transform(&text, language)?;
                NameEntry::new(text, language, phonemes)
            })
            .collect();
    }
    let chunk = rows.len().div_ceil(workers);
    let chunks: Vec<&[(String, Language)]> = rows.chunks(chunk).collect();
    let transformed: Vec<Result<Vec<NameEntry>, G2pError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(text, language)| {
                            let phonemes = config.registry.transform(text, *language)?;
                            NameEntry::new(text.clone(), *language, phonemes)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    let mut out = Vec::with_capacity(rows.len());
    for part in transformed {
        out.extend(part?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_rows() -> Vec<(String, Language)> {
        [
            ("Nehru", Language::English),
            ("नेहरु", Language::Hindi),
            ("நேரு", Language::Tamil),
            ("Nero", Language::English),
            ("Gandhi", Language::English),
            ("गांधी", Language::Hindi),
            ("Krishnan", Language::English),
        ]
        .into_iter()
        .map(|(t, l)| (t.to_owned(), l))
        .collect()
    }

    #[test]
    fn global_ids_follow_insertion_order() {
        let s = ShardedStore::new(MatchConfig::default(), 3);
        let range = s.extend(demo_rows()).unwrap();
        assert_eq!(range, 0..7);
        assert_eq!(s.len(), 7);
        assert_eq!(s.get(1).unwrap().text, "नेहरु");
        assert_eq!(s.get(6).unwrap().text, "Krishnan");
        assert!(s.get(7).is_none());
    }

    #[test]
    fn sharded_scan_matches_unsharded() {
        let rows = demo_rows();
        let mut flat = NameStore::new(MatchConfig::default());
        for (t, l) in &rows {
            flat.insert(t, *l).unwrap();
        }
        let sharded = ShardedStore::new(MatchConfig::default(), 3);
        sharded.extend(rows).unwrap();
        let a = flat
            .search("Nehru", Language::English, 0.45, SearchMethod::Scan)
            .unwrap();
        let q = sharded
            .config()
            .registry
            .transform("Nehru", Language::English)
            .unwrap();
        let b = sharded.search_phonemes(&q, 0.45, SearchMethod::Scan);
        assert_eq!(a, b);
        assert!(b.ids.contains(&1), "cross-script नेहरु: {:?}", b.ids);
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn a_store_wider_than_max_shards_is_refused() {
        ShardedStore::new(MatchConfig::default(), MAX_SHARDS + 1);
    }

    #[test]
    fn failed_transform_leaves_store_unchanged() {
        let s = ShardedStore::new(MatchConfig::default(), 2);
        // The second row's script does not match its language tag.
        let err = s.extend([
            ("Nehru".to_owned(), Language::English),
            ("नेहरु".to_owned(), Language::Tamil),
        ]);
        assert!(err.is_err());
        assert_eq!(s.len(), 0);
    }

    /// `STATS`' `names=` and a checkpoint's cut must not queue behind an
    /// append or a cover: both read the published length.
    #[test]
    fn len_and_cut_do_not_take_the_grow_lock_or_a_covers_turn() {
        let s = ShardedStore::new(MatchConfig::default(), 2);
        s.extend(demo_rows()).unwrap();
        s.build(BuildSpec::BkTree);
        let _in_flight = s.grow.lock().unwrap();
        let _covering = s.covering.turn.lock().unwrap();
        assert_eq!(s.len(), 7);
        assert_eq!(
            s.cut(9),
            Cut {
                lsn: 9,
                rows: 7,
                builds: vec![BuildSpec::BkTree]
            }
        );
    }

    fn plain_names(n: usize) -> Vec<NameEntry> {
        (0..n)
            .map(|i| NameEntry {
                text: format!("n{i}"),
                language: Language::English,
                phonemes: format!("ne{}ru", "a".repeat(i % 9)).parse().unwrap(),
            })
            .collect()
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn appends_become_tails_and_a_due_tail_is_covered_in_the_background() {
        use lexequal::store::cover_due;
        let s = ShardedStore::new(MatchConfig::default(), 2);
        s.extend_transformed(plain_names(200));
        s.build(BuildSpec::PhoneticIndex);
        s.declare(BuildSpec::BkTree);
        let stats = s.cover_stats();
        assert_eq!((stats.declared, stats.covers), (2, 1));
        assert_eq!(stats.tails, [0, 0, 0, 200], "declared is not covered");
        // Under the floor nothing moves: the rows are every path's tail.
        s.extend_transformed(plain_names(2 * 3900));
        assert!(!cover_due(100, 4000) && !cover_due(0, 4000));
        assert_eq!(s.cover_stats().tails, [0, 0, 7800, 8000]);
        assert_eq!(s.cover_stats().covers, 1);
        // The append that takes a shard's tails to the floor starts a
        // cover of every due path — here both — and nobody waits for it.
        s.extend_transformed(plain_names(2 * 196));
        assert!(cover_due(100, 4196) && cover_due(0, 4196));
        wait_for("the background cover", || s.cover_stats().covers == 2);
        assert_eq!(s.cover_stats().tails, [0; 4]);
        assert_eq!(
            s.built_specs(),
            [BuildSpec::PhoneticIndex, BuildSpec::BkTree]
        );
    }

    /// `BUILD QGRAM 2 PAPER` landing while `q = 3` is being covered wins:
    /// the finished `q = 3` index has no path to go to.
    #[test]
    fn a_cover_that_lost_to_a_redeclaration_is_dropped() {
        let q3 = BuildSpec::Qgram {
            q: 3,
            mode: lexequal::QgramMode::Strict,
        };
        let q2 = BuildSpec::Qgram {
            q: 2,
            mode: lexequal::QgramMode::PaperFaithful,
        };
        let s = ShardedStore::new(MatchConfig::default(), 1);
        s.extend_transformed(plain_names(50));
        s.declare(q3);
        let (parked, release) = (channel(), channel::<()>());
        let release_rx = Mutex::new(release.1);
        std::thread::scope(|scope| {
            let cover = scope.spawn(|| {
                s.cover_with(&[q3], &|| {
                    parked.0.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                })
            });
            parked.1.recv().expect("the cover reads its first chunk");
            s.declare(q2);
            release.0.send(()).unwrap();
            cover.join().unwrap();
        });
        let (rows, coverage, _) = ask(&s.senders[0], |reply| Cmd::Coverage { reply });
        assert_eq!((rows, coverage), (50, vec![(q2, 0)]));
        assert_eq!(s.cover_stats().covers, 0, "nothing was installed");
        s.cover(&[q3, q2]);
        assert_eq!(s.cover_stats().tails, [0; 4]);
    }

    #[test]
    fn prefix_reader_yields_the_cut_in_id_order_across_chunk_seams() {
        let rows = 2 * CHUNK_ROWS + 5;
        let names: Vec<(String, Language)> = (0..rows + 9)
            .map(|i| (format!("Nehru{}", "a".repeat(i % 7)), Language::English))
            .collect();
        let entries = transform_rows(&MatchConfig::default(), names).unwrap();
        for shards in 1..=3 {
            let s = ShardedStore::new(MatchConfig::default(), shards);
            s.extend_transformed(entries.clone());
            // Rows past the cut are in the store and not in the read.
            let (mut seen, mut text_bytes, mut phoneme_bytes) = (0usize, 0usize, 0usize);
            let mut reader = s.prefix_reader(rows);
            while let Some(chunk) = reader.next_chunk() {
                for (text, language, ids) in chunk.rows() {
                    let entry = &entries[seen];
                    assert_eq!(
                        (text, language, ids),
                        (
                            entry.text.as_bytes(),
                            entry.language,
                            entry.phonemes.id_bytes()
                        ),
                        "{shards} shard(s), id {seen}"
                    );
                    text_bytes += text.len();
                    phoneme_bytes += ids.len();
                    seen += 1;
                }
            }
            assert_eq!(seen, rows, "{shards} shard(s)");
            assert_eq!(s.prefix_bytes(rows), (text_bytes, phoneme_bytes));
        }
    }

    #[test]
    fn incremental_insert_interleaves_with_bulk() {
        let s = ShardedStore::new(MatchConfig::default(), 2);
        let id = s.insert("Nehru", Language::English).unwrap();
        assert_eq!(id, 0);
        let range = s.extend(demo_rows()).unwrap();
        assert_eq!(range, 1..8);
        assert_eq!(s.get(0).unwrap().text, "Nehru");
        assert_eq!(s.get(7).unwrap().text, "Krishnan");
    }
}
