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
//! Index builds (`build`) are dispatched to all workers at once, so the
//! q-gram / phonetic-index / BK-tree builds run in parallel across
//! shards. Bulk loads parallelize the expensive G2P transform across
//! scoped threads before striping the finished entries.

use crate::metrics::{BatchTotals, ScreenTotals};
use lexequal::store::{NameEntry, SearchResult};
use lexequal::{
    BatchCounters, BatchVerifier, G2pError, Language, MatchConfig, NameStore, PhonemeString,
    QgramMode, RowChunk, ScreenCounters, SearchMethod, SharedEntry,
};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Which access path to construct on every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSpec {
    /// Positional q-gram filter.
    Qgram {
        /// Gram length.
        q: usize,
        /// False-dismissal policy.
        mode: QgramMode,
    },
    /// Grouped-phoneme-identifier index.
    PhoneticIndex,
    /// BK-tree over the Levenshtein phoneme metric.
    BkTree,
}

impl BuildSpec {
    /// The access path this spec constructs.
    pub fn method(self) -> SearchMethod {
        match self {
            BuildSpec::Qgram { .. } => SearchMethod::Qgram,
            BuildSpec::PhoneticIndex => SearchMethod::PhoneticIndex,
            BuildSpec::BkTree => SearchMethod::BkTree,
        }
    }
}

/// A point-in-time cut of an append-only store: "the store at `lsn`" is
/// rows `0..rows` with `builds` recorded. Rows never change once
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
    /// Access paths recorded as built at the cut.
    pub builds: Vec<BuildSpec>,
}

/// Rows a snapshot writer pulls from the shard workers per round trip
/// ([`PrefixReader`]): bounds a checkpoint's transient memory at one
/// chunk whatever the corpus size.
pub(crate) const CHUNK_ROWS: usize = 1024;

/// How many of global rows `0..rows` live on `shard` of `shards` (its
/// local rows `0..n`): row `g` is shard `g % shards`'s local `g / shards`.
fn local_rows(rows: usize, shard: usize, shards: usize) -> usize {
    (rows + shards - 1 - shard) / shards
}

/// One request to a shard worker. Replies travel over per-call mpsc
/// channels so any number of client threads can have requests in flight.
enum Cmd {
    /// Append pre-transformed entries (infallible: transforms already
    /// happened on the coordinator side, so a failed row can never leave
    /// the shards striped inconsistently).
    Extend {
        entries: Vec<NameEntry>,
        reply: Sender<usize>,
    },
    /// Append zero-copy entries whose columns are views into a shared
    /// allocation (the memory-mapped snapshot load path). Entries were
    /// validated by the loader; the store re-validates on adoption.
    ExtendShared {
        entries: Vec<SharedEntry>,
        reply: Sender<usize>,
    },
    /// Construct an access path.
    Build { spec: BuildSpec, reply: Sender<()> },
    /// Fill in any missing per-entry phonetic embeddings (entries adopted
    /// from a v1 snapshot image predate the embedding column). Replies
    /// with the number of entries filled on this shard.
    BuildEmbeds { reply: Sender<usize> },
    /// Count entries still missing an embedding on this shard.
    PendingEmbeds { reply: Sender<usize> },
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
            Cmd::Extend { entries, reply } => {
                let n = entries.len();
                store.extend_transformed(entries);
                let _ = reply.send(n);
            }
            Cmd::ExtendShared { entries, reply } => {
                let n = entries.len();
                store.reserve(n);
                for e in entries {
                    // The mmap loader validated every view against the
                    // mapping (arena-wide) before striping; re-checking
                    // 20K entries here would double the cold start.
                    store.push_shared_entry_prevalidated(e);
                }
                let _ = reply.send(n);
            }
            Cmd::Build { spec, reply } => {
                match spec {
                    BuildSpec::Qgram { q, mode } => store.build_qgram(q, mode),
                    BuildSpec::PhoneticIndex => store.build_phonetic_index(),
                    BuildSpec::BkTree => store.build_bktree(),
                }
                let _ = reply.send(());
            }
            Cmd::BuildEmbeds { reply } => {
                let _ = reply.send(store.build_embeddings());
            }
            Cmd::PendingEmbeds { reply } => {
                let _ = reply.send(store.pending_embeddings());
            }
            Cmd::Search {
                query,
                e,
                method,
                shard,
                reply,
            } => {
                // The front-end's built-mask check and this command's
                // arrival are not atomic: an append can land in between
                // and invalidate the access path the caller saw as
                // built. Degrading to a scan keeps the answer exact
                // (every accelerator is a filter over the same
                // verifier) instead of panicking and killing the
                // worker — and with it the whole shard — for good.
                let method = if store.is_built(method) {
                    method
                } else {
                    SearchMethod::Scan
                };
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

/// A multiscript name collection partitioned across worker threads.
pub struct ShardedStore {
    config: MatchConfig,
    senders: Vec<Sender<Cmd>>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes global-id assignment so the round-robin stripe stays
    /// aligned with each shard's local insertion order. Also held across
    /// every [`build`](Self::build), so a build and an append can never
    /// interleave — the recorded build specs (and the service's built
    /// mask, updated under this lock via the `_with` hooks) always agree
    /// with the actual per-shard index state.
    grow: Mutex<()>,
    /// The published row count: stored (under `grow`) only after every
    /// shard has appended, so a reader that sees `n` can resolve every
    /// id below `n` — and never waits behind an append or an index
    /// build to learn it.
    len: AtomicU32,
    /// Kernel screen counters, flushed by every worker after each search.
    screens: Arc<ScreenTotals>,
    /// Batch-shape counters, flushed alongside the screen counters.
    batches: Arc<BatchTotals>,
    /// Access paths currently built on every shard, in build order —
    /// recorded so a snapshot can rebuild exactly the same paths on
    /// load. Cleared whenever an append invalidates the shard indexes.
    builds: Mutex<Vec<BuildSpec>>,
}

impl ShardedStore {
    /// Create an empty store with `shards` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: MatchConfig, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let screens = Arc::new(ScreenTotals::default());
        let batches = Arc::new(BatchTotals::default());
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = channel();
            let store = NameStore::new(config.clone());
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
        ShardedStore {
            config,
            senders,
            handles,
            grow: Mutex::new(()),
            len: AtomicU32::new(0),
            screens,
            batches,
            builds: Mutex::new(Vec::new()),
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
        &self.config
    }

    /// Total number of stored names.
    pub fn len(&self) -> usize {
        // Acquire pairs with the Release store in `publish_len`.
        self.len.load(Ordering::Acquire) as usize
    }

    /// Publish the row count once every shard has appended (caller holds
    /// the grow lock).
    fn publish_len(&self, len: u32) {
        self.len.store(len, Ordering::Release);
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert one name; returns its global id.
    pub fn insert(&self, text: &str, language: Language) -> Result<u32, G2pError> {
        self.extend([(text.to_owned(), language)]).map(|r| r.start)
    }

    /// Bulk-load names; returns the contiguous global id range assigned.
    ///
    /// All rows are transformed *first* (in parallel across scoped
    /// threads when the batch is large), so a G2P failure anywhere leaves
    /// the store completely unchanged; the pre-transformed entries are
    /// then striped round-robin and appended by every shard worker
    /// concurrently, invalidating each shard's access paths once.
    pub fn extend(
        &self,
        rows: impl IntoIterator<Item = (String, Language)>,
    ) -> Result<Range<u32>, G2pError> {
        let rows: Vec<(String, Language)> = rows.into_iter().collect();
        let entries = transform_rows(&self.config, rows)?;
        Ok(self.extend_transformed(entries))
    }

    /// [`extend`](Self::extend) with the
    /// [`extend_transformed_with`](Self::extend_transformed_with) hook.
    pub(crate) fn extend_with(
        &self,
        rows: impl IntoIterator<Item = (String, Language)>,
        after: impl FnOnce(),
    ) -> Result<Range<u32>, G2pError> {
        let rows: Vec<(String, Language)> = rows.into_iter().collect();
        let entries = transform_rows(&self.config, rows)?;
        Ok(self.extend_transformed_with(entries, after))
    }

    /// Bulk-load pre-transformed entries; returns the global id range.
    pub fn extend_transformed(&self, entries: Vec<NameEntry>) -> Range<u32> {
        self.extend_transformed_with(entries, || {})
    }

    /// [`extend_transformed`](Self::extend_transformed) with a hook run
    /// under the grow lock after the recorded build specs are cleared
    /// (only when at least one row was appended). [`crate::MatchService`]
    /// invalidates its built-path mask here, so the mask can never claim
    /// a path is built while the appends have just torn it down — a
    /// concurrent [`build`](Self::build) serializes behind the same lock.
    pub(crate) fn extend_transformed_with(
        &self,
        entries: Vec<NameEntry>,
        after: impl FnOnce(),
    ) -> Range<u32> {
        let n = self.shards();
        let _guard = self.grow.lock().expect("grow lock");
        let start = self.len.load(Ordering::Relaxed);
        let mut per_shard: Vec<Vec<NameEntry>> = (0..n).map(|_| Vec::new()).collect();
        for (offset, entry) in entries.into_iter().enumerate() {
            per_shard[(start as usize + offset) % n].push(entry);
        }
        let (tx, rx) = channel();
        let mut added = 0u32;
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.senders[shard]
                .send(Cmd::Extend {
                    entries: batch,
                    reply: tx.clone(),
                })
                .expect("shard worker alive");
        }
        drop(tx);
        for count in rx {
            added += count as u32;
        }
        let end = start + added;
        if added > 0 {
            // The appends invalidated every shard's access paths.
            self.builds.lock().expect("builds lock").clear();
            after();
        }
        self.publish_len(end);
        start..end
    }

    /// Build one access path on every shard, in parallel.
    pub fn build(&self, spec: BuildSpec) {
        self.build_with(spec, |_| {});
    }

    /// [`build`](Self::build) with a hook run under the grow lock after
    /// the spec is recorded, receiving the full recorded list.
    ///
    /// The grow lock is held across the *entire* build — dispatch, every
    /// shard's completion, and the spec record. Without that, an append
    /// racing the build could invalidate the freshly built per-shard
    /// indexes and clear the recorded specs, after which this method's
    /// record (and the caller's built-mask update in `after`) would
    /// re-mark the path as built anyway; the next search via that path
    /// would then panic inside a shard worker. Serializing build against
    /// mutations makes the recorded state truthful by construction.
    pub(crate) fn build_with(&self, spec: BuildSpec, after: impl FnOnce(&[BuildSpec])) {
        let _guard = self.grow.lock().expect("grow lock");
        let (tx, rx) = channel();
        for s in &self.senders {
            s.send(Cmd::Build {
                spec,
                reply: tx.clone(),
            })
            .expect("shard worker alive");
        }
        drop(tx);
        for _ in rx {}
        let mut builds = self.builds.lock().expect("builds lock");
        // Rebuilding the same path replaces its recorded spec (a second
        // q-gram build with a different `q` overwrites the old filter).
        builds.retain(|b| std::mem::discriminant(b) != std::mem::discriminant(&spec));
        builds.push(spec);
        after(&builds);
    }

    /// The access paths currently built on every shard, in build order
    /// (what a snapshot records and a load rebuilds).
    pub fn built_specs(&self) -> Vec<BuildSpec> {
        self.builds.lock().expect("builds lock").clone()
    }

    /// Fill in missing per-entry phonetic embeddings on every shard, in
    /// parallel; returns the total number of entries filled. Entries
    /// adopted from a v1 snapshot image have no embedding column and are
    /// served with the embedding screen bypassed until this runs.
    ///
    /// Held under the grow lock so the fill can never interleave with an
    /// append (embedding rows and entry rows stay column-aligned) — but
    /// note the fill does *not* invalidate access paths: embeddings feed
    /// only the verification screen, never candidate generation.
    pub fn build_embeddings(&self) -> usize {
        let _guard = self.grow.lock().expect("grow lock");
        let (tx, rx) = channel();
        for s in &self.senders {
            s.send(Cmd::BuildEmbeds { reply: tx.clone() })
                .expect("shard worker alive");
        }
        drop(tx);
        rx.into_iter().sum()
    }

    /// Total number of entries across all shards still missing an
    /// embedding (nonzero only after adopting a v1 snapshot image, until
    /// [`build_embeddings`](Self::build_embeddings) runs).
    pub fn pending_embeddings(&self) -> usize {
        let _guard = self.grow.lock().expect("grow lock");
        let (tx, rx) = channel();
        for s in &self.senders {
            s.send(Cmd::PendingEmbeds { reply: tx.clone() })
                .expect("shard worker alive");
        }
        drop(tx);
        rx.into_iter().sum()
    }

    /// The cut of this store as it stands: the published row count and
    /// the recorded build specs, stamped `lsn`. Two loads, no copy, no
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
        let (tx, rx) = channel();
        for (shard, s) in self.senders.iter().enumerate() {
            s.send(Cmd::PrefixBytes {
                rows: local_rows(rows, shard, self.shards()),
                reply: tx.clone(),
            })
            .expect("shard worker alive");
        }
        drop(tx);
        rx.into_iter()
            .fold((0, 0), |(t, p), (dt, dp)| (t + dt, p + dp))
    }

    /// Read global rows `0..rows` in id order, [`CHUNK_ROWS`] at a time —
    /// the one capture path of both snapshot formats. `rows` must not
    /// exceed a length this store has published; rows below it never
    /// change, so no lock is held and appends and builds interleave
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

    /// Place pre-striped sections on the shards — the snapshot restore
    /// path. Section `s` becomes shard `s`'s entries verbatim, so global
    /// ids are exactly what they were in the store that was saved (shard
    /// `s` local `l` is global `l * N + s`). All appends are enqueued
    /// before any is awaited, so the per-shard bulk loads run in
    /// parallel. Only valid on an empty store whose shard count equals
    /// `sections.len()` and whose sections form a round-robin stripe —
    /// [`crate::snapshot`] validates both before calling.
    pub(crate) fn import_shards(&self, sections: Vec<Vec<NameEntry>>) {
        debug_assert_eq!(sections.len(), self.shards());
        let _guard = self.grow.lock().expect("grow lock");
        debug_assert_eq!(self.len(), 0, "import into a non-empty store");
        let total: usize = sections.iter().map(Vec::len).sum();
        let (tx, rx) = channel();
        let mut expected = 0usize;
        for (shard, batch) in sections.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            expected += 1;
            self.senders[shard]
                .send(Cmd::Extend {
                    entries: batch,
                    reply: tx.clone(),
                })
                .expect("shard worker alive");
        }
        drop(tx);
        for _ in 0..expected {
            rx.recv().expect("shard worker replies");
        }
        self.publish_len(total as u32);
    }

    /// Place pre-striped zero-copy sections on the shards — the
    /// memory-mapped restore path, the borrowed twin of
    /// [`import_shards`](Self::import_shards): same round-robin layout
    /// contract, but each entry is three `Arc` bumps into the mapping
    /// instead of an owned row.
    pub(crate) fn import_shared(&self, sections: Vec<Vec<SharedEntry>>) {
        debug_assert_eq!(sections.len(), self.shards());
        let _guard = self.grow.lock().expect("grow lock");
        debug_assert_eq!(self.len(), 0, "import into a non-empty store");
        let total: usize = sections.iter().map(Vec::len).sum();
        let (tx, rx) = channel();
        let mut expected = 0usize;
        for (shard, batch) in sections.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            expected += 1;
            self.senders[shard]
                .send(Cmd::ExtendShared {
                    entries: batch,
                    reply: tx.clone(),
                })
                .expect("shard worker alive");
        }
        drop(tx);
        for _ in 0..expected {
            rx.recv().expect("shard worker replies");
        }
        self.publish_len(total as u32);
    }

    /// Entry by global id.
    pub fn get(&self, id: u32) -> Option<NameEntry> {
        let n = self.shards();
        let (tx, rx) = channel();
        self.senders[id as usize % n]
            .send(Cmd::Get {
                local: id / n as u32,
                reply: tx,
            })
            .expect("shard worker alive");
        rx.recv().expect("shard worker replies")
    }

    /// Search with a query string: transform, then fan out.
    pub fn search(
        &self,
        query: &str,
        language: Language,
        e: f64,
        method: SearchMethod,
    ) -> Result<SearchResult, G2pError> {
        let q = self.config.registry.transform(query, language)?;
        Ok(self.search_phonemes(&q, e, method))
    }

    /// Fan a pre-transformed query out over every shard and merge: local
    /// ids remap to global ids, verification counts sum, the merged id
    /// list is sorted ascending (same order an unsharded scan produces).
    ///
    /// # Panics
    ///
    /// Panics (on the worker thread) if the access path was not built;
    /// see [`crate::MatchService`] for the graceful front-end.
    pub fn search_phonemes(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> SearchResult {
        self.begin_search(q, e, method).merge()
    }

    /// Enqueue one query's fan-out on every shard worker and return
    /// without waiting. The caller collects the merged result with
    /// [`PendingSearch::merge`] whenever it likes; beginning several
    /// searches before merging any is exactly how the batch path and the
    /// evented daemon's verify workers keep all shards busy at once.
    pub fn begin_search(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> PendingSearch {
        PendingSearch {
            rx: self.fan_out(q, e, method),
            shards: self.shards(),
        }
    }

    /// Fan a batch of pre-transformed queries out over the shards,
    /// pipelined: every item's per-shard commands are enqueued before any
    /// merge starts, so shard `s` verifies item `i + 1` while the
    /// coordinator is still collecting item `i`'s replies from slower
    /// shards. Results come back in item order; each is identical to a
    /// standalone [`search_phonemes`](Self::search_phonemes) call.
    pub fn search_phonemes_batch(
        &self,
        queries: &[(PhonemeString, f64, SearchMethod)],
    ) -> Vec<SearchResult> {
        let pending: Vec<_> = queries
            .iter()
            .map(|(q, e, method)| self.begin_search(q, *e, *method))
            .collect();
        pending.into_iter().map(PendingSearch::merge).collect()
    }

    /// Enqueue one query on every shard; replies arrive on the returned
    /// channel tagged with their shard index.
    fn fan_out(
        &self,
        q: &PhonemeString,
        e: f64,
        method: SearchMethod,
    ) -> Receiver<(usize, SearchResult)> {
        let (tx, rx) = channel();
        for (shard, s) in self.senders.iter().enumerate() {
            s.send(Cmd::Search {
                query: q.clone(),
                e,
                method,
                shard,
                reply: tx.clone(),
            })
            .expect("shard worker alive");
        }
        rx
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
    /// The rows in global-id order, each `(text, language, phoneme ids)`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&'a str, Language, &'a [u8])> {
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
    // A worker that died (e.g. searching an unbuilt access path) hangs up
    // instead of replying; a partial merge must never be passed off as a
    // complete result.
    assert_eq!(replies, n, "a shard worker died mid-search");
    ids.sort_unstable();
    SearchResult { ids, verifications }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
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
                Ok(NameEntry {
                    phonemes: config.registry.transform(&text, language)?,
                    text,
                    language,
                })
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
                            Ok(NameEntry {
                                phonemes: config.registry.transform(text, *language)?,
                                text: text.clone(),
                                language: *language,
                            })
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
        let b = sharded
            .search("Nehru", Language::English, 0.45, SearchMethod::Scan)
            .unwrap();
        assert_eq!(a, b);
        assert!(b.ids.contains(&1), "cross-script नेहरु: {:?}", b.ids);
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
    /// append or an index build: both read the published length.
    #[test]
    fn len_and_cut_do_not_take_the_grow_lock() {
        let s = ShardedStore::new(MatchConfig::default(), 2);
        s.extend(demo_rows()).unwrap();
        s.build(BuildSpec::BkTree);
        let _in_flight = s.grow.lock().unwrap();
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
                        (&*entry.text, entry.language, entry.phonemes.id_bytes()),
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
