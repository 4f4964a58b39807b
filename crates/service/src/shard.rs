//! [`Store`]: one [`NameStore`] behind one read-write lock.
//!
//! The store is the paper's one relation: one set of rows, one q-gram
//! auxiliary table, one phonetic index and one BK-tree (§4–5), a plain
//! [`NameStore`] behind a read-write lock that the store shares with its
//! coverer. A global id is the row id. Everything is a call under that
//! lock on the caller's thread: a search is one batched search under the
//! read lock, a scan one per [`CHUNK_ROWS`] rows; an append takes the
//! write lock for one chunk, as do declaring a path and installing a
//! cover's index; `get`, the coverage gauges and a prefix copy take the
//! read lock.
//!
//! Lock discipline:
//! - The store lock is taken last: after the grow lock, the `declared`
//!   list, a cover's turn and the append turn, never before them.
//! - It is not held across an `on_chunk` hook.
//!
//! An access path is *declared* (`declare`) and exact from that moment;
//! making it fast is *covering* (DESIGN §5n): a cover copies the prefix of
//! the column a path is keyed on out of the store in chunks, one read lock
//! a chunk, builds the index on its own thread under no store lock, and
//! installs it under the write lock. A path is first covered when a search
//! or a `BUILD` *names* it; a path nothing names costs its declaration
//! only. Appends invalidate nothing; a named path's tail that outgrows the
//! re-cover rule schedules a background cover.
//!
//! Rows come in one way, whatever their source — a generator, a vector of
//! entries, a snapshot being restored, one `ADD`: through a [`Loader`],
//! the prefix reader run backwards. It fills one [`RowChunk`] and appends
//! each full chunk under the write lock, on the loading thread; the length
//! is published once, when the load ends.

use crate::metrics::{BatchTotals, ScreenTotals};
use lexequal::rows::Base;
pub(crate) use lexequal::store::CHUNK_ROWS;
use lexequal::store::{cover_due, NameEntry, SearchResult};
pub use lexequal::BuildSpec;
use lexequal::{
    BatchCounters, BatchVerifier, ClusterTable, G2pError, KeyColumn, Language, LexEqual, LoadSize,
    MatchConfig, NameStore, PathIndex, PhonemeString, RowChunk, ScreenCounters, SearchMethod,
    SymbolColumn,
};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// A point-in-time cut of an append-only store: "the store at `lsn`" is
/// rows `0..rows` with `builds` declared. Rows never change once
/// appended and ids are assigned in commit order, so the prefix read at
/// any later time *is* the store as it stood when the cut was taken —
/// which is why taking one copies nothing (see
/// [`Store::cut`] and [`crate::repl::Replicator::cut`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// WAL LSN the cut covers (0 = no WAL).
    pub lsn: u64,
    /// Number of rows (global ids `0..rows`) the cut holds.
    pub rows: usize,
    /// Access paths declared at the cut.
    pub builds: Vec<BuildSpec>,
}

/// `method`'s bit in a path mask.
fn bit(method: SearchMethod) -> u8 {
    1 << crate::metrics::method_index(method)
}

thread_local! {
    /// One long-lived batched verification kernel per thread that searches:
    /// its DP scratch and lane buffers grow to the longest candidate once,
    /// and every later verification on the thread is allocation-free.
    static VERIFIER: RefCell<BatchVerifier> = RefCell::new(BatchVerifier::new());
}

/// How long the background coverer waits between being asked for a cover
/// and beginning it, so that the request that asked — a search naming a
/// path, an `ADD` whose tail fell due — sends its reply before the build
/// takes a core from it. Asks made meanwhile are the same cover.
const COVER_DELAY: Duration = Duration::from_millis(1);

/// What covering shares between the store and its background coverer — a
/// thread that holds this, never the store, which therefore drops when its
/// owner says.
struct Covering {
    clusters: Arc<ClusterTable>,
    /// The rows and indices (see the lock discipline in the module docs).
    names: RwLock<NameStore>,
    /// Declared access paths in declaration order — what a [`Cut`]
    /// records and a load re-declares.
    declared: Mutex<Vec<BuildSpec>>,
    /// The same as a bitmask (bit = `method_index`), for the request
    /// path: set once the store holds the declaration, never cleared.
    declared_mask: AtomicU8,
    /// Paths a search or a `BUILD` has named, the same way: the only
    /// paths the re-cover rule spends a cover on. Never cleared.
    named: AtomicU8,
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
    fn read(&self) -> RwLockReadGuard<'_, NameStore> {
        self.names.read().expect("store lock")
    }

    fn write(&self) -> RwLockWriteGuard<'_, NameStore> {
        self.names.write().expect("store lock")
    }

    /// Name `spec`'s path and leave covering it, whatever its tail, to the
    /// background `coverer`.
    fn schedule(&self, coverer: &Thread, spec: BuildSpec) {
        self.named.fetch_or(bit(spec.method()), Ordering::AcqRel);
        self.forced.lock().expect("forced lock").push(spec);
        self.wake(coverer);
    }

    /// Ask the background coverer for a cover; asks made before it begins
    /// are one cover.
    fn wake(&self, coverer: &Thread) {
        self.scheduled.store(true, Ordering::Release);
        coverer.unpark();
    }

    /// The background coverer's life: parked until a cover is asked for
    /// ([`wake`](Self::wake) unparks it), then one cover
    /// of the paths [`Store::schedule_cover`] was given and any
    /// named path the re-cover rule picks.
    fn run(&self) {
        loop {
            while !self.scheduled.load(Ordering::Acquire) {
                if self.stopping.load(Ordering::Acquire) {
                    return;
                }
                std::thread::park();
            }
            std::thread::sleep(COVER_DELAY);
            if self.stopping.load(Ordering::Acquire) {
                return;
            }
            // Cleared before the cover looks at anything, so whatever is
            // asked from here on gets a cover of its own.
            self.scheduled.store(false, Ordering::Release);
            let forced = std::mem::take(&mut *self.forced.lock().expect("forced lock"));
            let named = self.named.load(Ordering::Acquire);
            let want = |spec: BuildSpec, covered, rows| {
                forced.contains(&spec)
                    || (named & bit(spec.method()) != 0 && cover_due(covered, rows))
            };
            self.cover(&want, &|| {});
        }
    }

    /// Build and install an index over the rows the store holds now for
    /// each declared path `want(spec, covered, rows)` names. All of it
    /// happens on the calling thread, holding the store lock only to read
    /// its coverage, to copy one chunk of rows at a time and to adopt the
    /// finished index — microseconds each, between which searches and
    /// appends run — and the covers' own turn throughout. `on_chunk` runs
    /// after every chunk read, under no store lock (tests park a cover
    /// there).
    fn cover(&self, want: &dyn Fn(BuildSpec, usize, usize) -> bool, on_chunk: &dyn Fn()) {
        let _turn = self.turn.lock().expect("cover turn");
        let start = Instant::now();
        let (rows, coverage) = {
            let store = self.read();
            (store.len(), store.coverage())
        };
        let wanted: Vec<BuildSpec> = coverage
            .into_iter()
            .filter(|&(spec, covered)| covered < rows && want(spec, covered, rows))
            .map(|(spec, _)| spec)
            .collect();
        // One copy a key column in use — the cluster strings, unless a
        // q-gram filter is declared as the paper ran it.
        let mut prefix = SymbolColumn::default();
        let mut installed = false;
        for column in [KeyColumn::Clusters, KeyColumn::Phonemes] {
            let mut keyed = wanted.iter().filter(|spec| spec.key() == column).peekable();
            if keyed.peek().is_none() {
                continue;
            }
            // Copy the prefix out of the store a chunk of rows at a time:
            // an append waits for one chunk's memcpy at most. A row's
            // cluster string is as long as its phoneme string.
            let (_, bytes) = self.read().prefix_bytes(rows);
            prefix.reset(rows, bytes);
            for first in (0..rows).step_by(CHUNK_ROWS) {
                let chunk = first..(first + CHUNK_ROWS).min(rows);
                self.read().read_keys(column, chunk, &mut prefix);
                on_chunk();
            }
            for &spec in keyed {
                let index = PathIndex::build(spec, &self.clusters, rows, |id| prefix.row(id));
                installed |= self.write().install(index);
            }
        }
        if installed {
            self.covers.fetch_add(1, Ordering::Relaxed);
            let ms = start.elapsed().as_millis() as u64;
            self.cover_ms_last.store(ms, Ordering::Relaxed);
        }
    }
}

/// A multiscript name collection served to many threads (its rows are in
/// `covering`).
pub struct Store {
    /// The one operator of this store: its [`NameStore`] shares it, and
    /// snapshot writers and loaders borrow it.
    operator: Arc<LexEqual>,
    /// Serializes global-id assignment: a [`Loader`] holds it for its
    /// life, and fills the chunk it guards. The chunk outlives a load that
    /// never filled it, so an `ADD` allocates nothing here.
    grow: Mutex<RowChunk>,
    /// Held by an append from before it asks for the write lock until it
    /// is done; a scan passes it before each range's read lock, so it
    /// cannot take that lock back ahead of a waiting append.
    append_turn: Mutex<()>,
    /// The published row count: stored (under `grow`) only after a load
    /// has appended its last chunk, so a reader that sees `n` can resolve
    /// every id below `n` — and never waits behind an append to learn it.
    len: AtomicU32,
    /// Kernel screen counters, flushed after every search.
    screens: ScreenTotals,
    /// Batch-shape counters, flushed alongside the screen counters.
    batches: BatchTotals,
    covering: Arc<Covering>,
    /// The background coverer (see [`Covering::run`]), to unpark.
    coverer: Thread,
    /// Its handle, taken to join it when the store drops.
    cover_thread: Option<JoinHandle<()>>,
}

/// What `STATS` reports of the access paths' coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverStats {
    /// Declared access paths.
    pub declared: usize,
    /// Rows no index covers yet, per path in
    /// [`method_index`](crate::metrics::method_index) order (0 for a scan
    /// and for an undeclared path).
    pub tails: [usize; 4],
    /// Covers that installed an index since start.
    pub covers: u64,
    /// How long the last of them took, in ms.
    pub cover_ms_last: u64,
    /// Bytes the owned row columns hold (arenas and offsets, by
    /// capacity), image bytes the base rows occupy, and bytes the q-gram,
    /// phonetic and BK-tree indices' arrays hold.
    pub row_bytes: usize,
    /// See [`row_bytes`](Self::row_bytes).
    pub mapped_bytes: usize,
    /// See [`row_bytes`](Self::row_bytes).
    pub index_bytes: [usize; 3],
}

/// The most shards `lexequald --shards` accepts and an image header may
/// declare. The store is one partition whatever either says; the bound
/// keeps the flag's and the header field's validation as it was.
pub const MAX_SHARDS: usize = 1024;

impl Store {
    /// Create an empty store.
    pub fn new(config: MatchConfig) -> Self {
        Self::over(Arc::new(LexEqual::new(config)), None)
    }

    /// A store empty or over `base` — the rows of a snapshot image, read
    /// where they lie (the image loader's way in; it has validated every
    /// row); its rows are the published length. The coverer is the one
    /// thread a store spawns.
    pub(crate) fn over(operator: Arc<LexEqual>, base: Option<Base>) -> Self {
        let names = NameStore::sharing(Arc::clone(&operator), base);
        let len = names.len();
        let covering = Arc::new(Covering {
            clusters: Arc::clone(&operator.config().clusters),
            names: RwLock::new(names),
            declared: Mutex::default(),
            declared_mask: AtomicU8::new(0),
            named: AtomicU8::new(0),
            turn: Mutex::default(),
            forced: Mutex::default(),
            scheduled: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            covers: AtomicU64::new(0),
            cover_ms_last: AtomicU64::new(0),
        });
        let cover_thread = {
            let covering = Arc::clone(&covering);
            std::thread::Builder::new()
                .name("lexequal-cover".to_owned())
                .spawn(move || covering.run())
                .expect("spawn coverer")
        };
        Store {
            operator,
            grow: Mutex::default(),
            append_turn: Mutex::default(),
            coverer: cover_thread.thread().clone(),
            cover_thread: Some(cover_thread),
            len: AtomicU32::new(u32::try_from(len).expect("ids are u32")),
            screens: ScreenTotals::default(),
            batches: BatchTotals::default(),
            covering,
        }
    }

    /// Aggregated verification-kernel screen counters across all searches.
    pub fn screen_totals(&self) -> ScreenCounters {
        self.screens.snapshot()
    }

    /// Aggregated batch-shape counters across all searches.
    pub fn batch_totals(&self) -> BatchCounters {
        self.batches.snapshot()
    }

    /// The configuration in force.
    pub fn config(&self) -> &MatchConfig {
        self.operator.config()
    }

    /// The operator this store matches with.
    pub fn operator(&self) -> &Arc<LexEqual> {
        &self.operator
    }

    /// Total number of stored names.
    pub fn len(&self) -> usize {
        // Acquire pairs with the Release store in `Loader::flush`.
        self.len.load(Ordering::Acquire) as usize
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
    /// load appends, under no store lock.
    #[doc(hidden)]
    pub fn loader_with<'a>(&'a self, on_chunk: &'a dyn Fn()) -> Loader<'a> {
        let chunk = self.grow.lock().expect("grow lock");
        let start = self.len.load(Ordering::Relaxed);
        Loader {
            store: self,
            chunk,
            start,
            next: start,
            load: LoadSize::default(),
            due: 0,
            on_chunk,
        }
    }

    /// Declare one access path: from the moment this returns, searches
    /// through it are exact — over the path's pair-wise rule alone until a
    /// cover installs an index, which waits for the path to be named.
    /// Re-declaring a path moves it to the end of the recorded order; with
    /// a different spec (another `q`) it also resets the path's coverage,
    /// and a named path is then covered anew.
    pub fn declare(&self, spec: BuildSpec) {
        let mut declared = self.covering.declared.lock().expect("declared lock");
        self.covering.write().declare(spec);
        let reset = !declared.contains(&spec);
        declared.retain(|d| d.method() != spec.method());
        declared.push(spec);
        let bit = bit(spec.method());
        self.covering.declared_mask.fetch_or(bit, Ordering::Release);
        if reset && self.covering.named.load(Ordering::Acquire) & bit != 0 {
            self.schedule_cover(spec);
        }
    }

    /// Whether `method` can serve a search: its path has been declared (a
    /// scan needs none). Lock-free; never revoked.
    pub fn is_declared(&self, method: SearchMethod) -> bool {
        method == SearchMethod::Scan
            || self.covering.declared_mask.load(Ordering::Acquire) & bit(method) != 0
    }

    /// What a search through `method` names: its declared path, unless a
    /// search has named it already (a scan names nothing). The first
    /// naming of a declared path leaves its cover to the background,
    /// whatever its tail; from then on the re-cover rule keeps it covered.
    /// Costs a search one relaxed load once the path is named.
    fn naming(&self, method: SearchMethod) -> Option<BuildSpec> {
        let bit = bit(method);
        if method == SearchMethod::Scan || self.covering.named.load(Ordering::Relaxed) & bit != 0 {
            return None;
        }
        (self.built_specs().into_iter()).find(|spec| spec.method() == method)
    }

    /// Declare one access path and [`cover`](Self::cover) it; the path is
    /// named from here on.
    pub fn build(&self, spec: BuildSpec) {
        self.declare(spec);
        self.covering
            .named
            .fetch_or(bit(spec.method()), Ordering::AcqRel);
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
        self.covering.cover(&want, on_chunk);
    }

    /// Leave covering a declared path, whatever its tail, to a background
    /// thread (the non-blocking half of a wire `BUILD`, after
    /// [`declare`](Self::declare), and of a path's first naming); the path
    /// is named from here on.
    pub fn schedule_cover(&self, spec: BuildSpec) {
        self.covering.schedule(&self.coverer, spec);
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

    /// Coverage gauges for `STATS`: read off the rows under the read
    /// lock, so the tails are what the indices cover, not what a counter
    /// beside them believes.
    pub fn cover_stats(&self) -> CoverStats {
        let mut stats = CoverStats {
            declared: self.built_specs().len(),
            covers: self.covering.covers.load(Ordering::Relaxed),
            cover_ms_last: self.covering.cover_ms_last.load(Ordering::Relaxed),
            ..CoverStats::default()
        };
        let store = self.covering.read();
        for (spec, covered) in store.coverage() {
            stats.tails[crate::metrics::method_index(spec.method())] = store.len() - covered;
        }
        let memory = store.memory();
        stats.row_bytes = memory.owned;
        stats.mapped_bytes = memory.mapped;
        stats.index_bytes = memory.indices;
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

    /// `(text bytes, phoneme bytes)` held by global rows `0..rows` — no
    /// row is copied.
    pub(crate) fn prefix_bytes(&self, rows: usize) -> (usize, usize) {
        self.covering.read().prefix_bytes(rows)
    }

    /// Read global rows `0..rows` in id order, [`CHUNK_ROWS`] at a time —
    /// the one capture path of a snapshot image. `rows` must not exceed a
    /// length this store has published; rows below it never change, and
    /// each chunk is copied under the read lock alone, so appends and
    /// covers interleave freely with the reader.
    pub fn prefix_reader(&self, rows: usize) -> PrefixReader<'_> {
        debug_assert!(rows <= self.len(), "prefix past the published length");
        PrefixReader {
            store: self,
            rows,
            next: 0,
            chunk: RowChunk::default(),
        }
    }

    /// Entry by global id.
    pub fn get(&self, id: u32) -> Option<NameEntry> {
        self.covering.read().get(id)
    }

    /// Search for a pre-transformed query on this thread, under the read
    /// lock, through the thread's warm [`BatchVerifier`]; ids ascend. The
    /// first search through a declared path names it (see
    /// [`declare`](Self::declare)); its cover is scheduled once the search
    /// is done, and `COVER_DELAY` keeps it behind the reply.
    ///
    /// # Panics
    ///
    /// Panics if the access path was never declared; see
    /// [`crate::MatchService`] for the graceful front-end.
    pub fn search_phonemes(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> SearchResult {
        let naming = self.naming(method);
        let result = VERIFIER.with_borrow_mut(|verifier| {
            let result = match method {
                SearchMethod::Scan => self.scan(q, e, verifier),
                _ => (self.covering.read()).search_phonemes_batched(q, e, method, verifier),
            };
            self.screens.add(&verifier.take_counters());
            self.batches.add(&verifier.take_batch_counters());
            result
        });
        if let Some(spec) = naming {
            self.schedule_cover(spec);
        }
        result
    }

    /// A scan of the rows stored when it begins, [`CHUNK_ROWS`] at a
    /// time under one read lock each: an append waits for one range of a
    /// scan, not the whole of it.
    fn scan(&self, q: &PhonemeString, e: f64, verifier: &mut BatchVerifier) -> SearchResult {
        let query = self.operator.prepare_query(q);
        let rows = self.covering.read().len() as u32;
        let (mut ids, mut verifications) = (Vec::new(), 0);
        for first in (0..rows).step_by(CHUNK_ROWS) {
            let range = first..rows.min(first + CHUNK_ROWS as u32);
            drop(self.append_turn.lock().expect("append turn"));
            let store = self.covering.read();
            verifications += store.verify_ids(verifier, &query, range, e, &mut ids);
        }
        SearchResult { ids, verifications }
    }

    /// [`search_phonemes`](Self::search_phonemes), run now, its result
    /// handed back through [`PendingSearch::merge`]: a shim that keeps
    /// lexbench's trace compiling until ROADMAP item 2a moves it onto
    /// `search_phonemes`.
    #[doc(hidden)]
    pub fn begin_search(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> PendingSearch {
        PendingSearch(self.search_phonemes(q, e, method))
    }
}

/// A search [`Store::begin_search`] has run already: a shim kept for
/// lexbench's trace until ROADMAP item 2a.
#[doc(hidden)]
pub struct PendingSearch(SearchResult);

impl PendingSearch {
    /// The result (a shim kept until ROADMAP item 2a).
    #[doc(hidden)]
    pub fn merge(self) -> SearchResult {
        self.0
    }
}

/// One load into a [`Store`] (from [`Store::loader`]) — the
/// `PrefixReader` run backwards, and the only way rows come in. Rows are
/// [`push`](Self::push)ed in global-id order into one chunk, and a chunk
/// of [`CHUNK_ROWS`] rows is appended under the write lock, on this
/// thread, and refilled. The loader holds the grow lock for its life, so
/// a load's ids are contiguous, and the store's length moves once:
/// [`finish`](Self::finish) — or dropping the loader, after a refused
/// row, say — appends what is still buffered and publishes exactly the
/// rows that were accepted, so the store never holds a row that a
/// published length does not come to cover.
pub struct Loader<'a> {
    store: &'a Store,
    /// The chunk the rows fill until it is appended.
    chunk: MutexGuard<'a, RowChunk>,
    /// The published length when the load began, and the next id.
    start: u32,
    next: u32,
    /// What the load brings, until its first chunk takes it along (empty
    /// unless [`reserve`](Self::reserve) was called).
    load: LoadSize,
    /// Paths whose tails an append left due a re-cover.
    due: u8,
    on_chunk: &'a dyn Fn(),
}

impl Loader<'_> {
    /// Announce the rows to come, each as `(text bytes, phoneme bytes)`
    /// in push order, so that the store sizes its columns once. Optional;
    /// call it before the first push.
    pub fn reserve(&mut self, rows: impl Iterator<Item = (usize, usize)>) {
        debug_assert_eq!(self.next, self.start, "sizes announced mid-load");
        self.load = LoadSize::default();
        for (text_bytes, phoneme_bytes) in rows {
            self.load.add(text_bytes, phoneme_bytes);
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
        self.chunk.push(text, language, phonemes)?;
        self.next = next;
        if self.chunk.len() == CHUNK_ROWS {
            self.append();
        }
        Ok(id)
    }

    /// End the load: everything pushed is appended and published; returns
    /// the global id range the rows took.
    pub fn finish(mut self) -> Range<u32> {
        self.flush();
        self.start..self.next
    }

    /// Append the chunk under the write lock, note the paths its tails
    /// leave due, and empty the chunk.
    fn append(&mut self) {
        {
            let _turn = self.store.append_turn.lock().expect("append turn");
            let mut store = self.store.covering.write();
            store.append_rows(&self.chunk, std::mem::take(&mut self.load));
            self.due |= store.due_paths().fold(0, |due, method| due | bit(method));
        }
        self.chunk.clear();
        (self.on_chunk)();
    }

    fn flush(&mut self) {
        if !self.chunk.is_empty() {
            self.append();
        }
        // Published once the last chunk is in, under the grow lock.
        self.store.len.store(self.next, Ordering::Release);
        // A bulk load's chunk, grown to a chunk's rows, goes with it.
        if (self.next - self.start) as usize >= CHUNK_ROWS {
            *self.chunk = RowChunk::default();
        }
        // A due tail of a path nothing has named wakes nobody.
        let named = self.store.covering.named.load(Ordering::Acquire);
        if std::mem::take(&mut self.due) & named != 0 {
            (self.store.covering).wake(&self.store.coverer);
        }
    }
}

impl Drop for Loader<'_> {
    fn drop(&mut self) {
        // After `finish` there is nothing left to append. Not while
        // unwinding: the grow lock this guard poisons on its way out ends
        // all appending anyway, so no later load can land on the rows
        // left unpublished.
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

/// Chunked reader over a store's row prefix (from
/// [`Store::prefix_reader`]). It owns one [`RowChunk`] and refills it
/// under the read lock, so a whole pass over the store allocates what one
/// chunk needs, once.
pub struct PrefixReader<'a> {
    store: &'a Store,
    rows: usize,
    /// First global row of the next chunk.
    next: usize,
    chunk: RowChunk,
}

impl PrefixReader<'_> {
    /// Fetch the next chunk: its rows in global-id order, each `(text
    /// bytes, language, phoneme ids)`; `None` once the prefix is exhausted.
    pub fn next_chunk(&mut self) -> Option<impl Iterator<Item = (&[u8], Language, &[u8])> + '_> {
        if self.next >= self.rows {
            return None;
        }
        let rows = self.next..(self.next + CHUNK_ROWS).min(self.rows);
        self.next = rows.end;
        (self.store.covering.read()).read_rows(rows.clone(), &mut self.chunk);
        let chunk = &self.chunk;
        Some((0..rows.len()).map(move |i| chunk.row(i)))
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.covering.stopping.store(true, Ordering::Release);
        self.coverer.unpark();
        if let Some(coverer) = self.cover_thread.take() {
            let _ = coverer.join();
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
    use std::sync::mpsc::channel;

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
        let s = Store::new(MatchConfig::default());
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
        let served = Store::new(MatchConfig::default());
        served.extend(rows).unwrap();
        let a = flat
            .search("Nehru", Language::English, 0.45, SearchMethod::Scan)
            .unwrap();
        let q = served
            .config()
            .registry
            .transform("Nehru", Language::English)
            .unwrap();
        let b = served.search_phonemes(&q, 0.45, SearchMethod::Scan);
        assert_eq!(a, b);
        assert!(b.ids.contains(&1), "cross-script नेहरु: {:?}", b.ids);
    }

    #[test]
    fn failed_transform_leaves_store_unchanged() {
        let s = Store::new(MatchConfig::default());
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
        let s = Store::new(MatchConfig::default());
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
        let s = Store::new(MatchConfig::default());
        s.extend_transformed(plain_names(200));
        s.build(BuildSpec::PhoneticIndex);
        s.declare(BuildSpec::BkTree);
        let stats = s.cover_stats();
        assert_eq!((stats.declared, stats.covers), (2, 1));
        assert_eq!(stats.tails, [0, 0, 0, 200], "declared is not covered");
        // Under the floor nothing moves: the rows are every path's tail.
        s.extend_transformed(plain_names(3800));
        assert!(!cover_due(200, 4000) && !cover_due(0, 4000));
        assert_eq!(s.cover_stats().tails, [0, 0, 3800, 4000]);
        assert_eq!(s.cover_stats().covers, 1);
        // The append that takes the tails to the floor starts a cover of
        // every due path a build or a search has named — here the
        // phonetic index alone — and nobody waits for it.
        s.extend_transformed(plain_names(296));
        assert!(cover_due(200, 4296) && cover_due(0, 4296));
        wait_for("the background cover", || s.cover_stats().covers == 2);
        assert_eq!(s.cover_stats().tails, [0, 0, 0, 4296]);
        // The first search through the BK-tree names it, and covers it.
        let q: PhonemeString = "neru".parse().unwrap();
        let before = s.search_phonemes(&q, 0.3, SearchMethod::BkTree);
        wait_for("the named path's cover", || s.cover_stats().covers == 3);
        assert_eq!(s.cover_stats().tails, [0; 4]);
        assert_eq!(s.search_phonemes(&q, 0.3, SearchMethod::BkTree), before);
        assert_eq!(
            s.built_specs(),
            [BuildSpec::PhoneticIndex, BuildSpec::BkTree]
        );
    }

    /// A due tail of a path nothing has named does not wake the coverer:
    /// every `ADD` past the floor would otherwise send it over the store
    /// for nothing. The coverer is held inside a cover (the test holds the
    /// turn), so a wake would stay visible as `scheduled`.
    #[test]
    fn an_unnamed_paths_due_tail_wakes_no_cover() {
        let s = Store::new(MatchConfig::default());
        let turn = s.covering.turn.lock().unwrap();
        // Names a path the store does not declare: the coverer wakes, then waits
        // for the turn.
        s.schedule_cover(BuildSpec::PhoneticIndex);
        wait_for("the coverer to wake", || {
            !s.covering.scheduled.load(Ordering::Acquire)
        });
        s.declare(BuildSpec::BkTree);
        s.extend_transformed(plain_names(2 * 4096));
        assert!(!s.covering.scheduled.load(Ordering::Acquire), "woken");
        assert_eq!(s.cover_stats().tails, [0, 0, 0, 8192]);
        // Named, the same tail wakes it.
        s.search_phonemes(&"neru".parse().unwrap(), 0.3, SearchMethod::BkTree);
        assert!(s.covering.scheduled.load(Ordering::Acquire));
        drop(turn);
        wait_for("the named path's cover", || s.cover_stats().tails == [0; 4]);
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
        let s = Store::new(MatchConfig::default());
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
        let (rows, coverage) = {
            let store = s.covering.read();
            (store.len(), store.coverage())
        };
        assert_eq!((rows, coverage), (50, vec![(q2, 0)]));
        assert_eq!(s.cover_stats().covers, 0, "nothing was installed");
        s.cover(&[q3, q2]);
        assert_eq!(s.cover_stats().tails, [0; 4]);
    }

    /// Re-declaring a named path with another spec (a live re-seed that
    /// changes `q`) covers it anew, however small the store: below the
    /// re-cover rule's floor nothing else would, and the path would stay a
    /// whole tail until the next `BUILD`.
    #[test]
    fn a_named_path_redeclared_with_another_spec_is_covered_anew() {
        let q3 = BuildSpec::Qgram {
            q: 3,
            mode: lexequal::QgramMode::Strict,
        };
        let q2 = BuildSpec::Qgram {
            q: 2,
            mode: lexequal::QgramMode::PaperFaithful,
        };
        let s = Store::new(MatchConfig::default());
        s.extend_transformed(plain_names(50));
        s.declare(q3);
        let q: PhonemeString = "neru".parse().unwrap();
        s.search_phonemes(&q, 0.3, SearchMethod::Qgram);
        wait_for("the first naming's cover", || s.cover_stats().covers == 1);
        assert_eq!(s.cover_stats().tails, [0; 4]);
        s.declare(q2);
        wait_for("the new spec's cover", || s.cover_stats().covers == 2);
        assert_eq!(s.cover_stats().tails, [0; 4]);
        let (rows, coverage) = {
            let store = s.covering.read();
            (store.len(), store.coverage())
        };
        assert_eq!((rows, coverage), (50, vec![(q2, 50)]));
    }

    #[test]
    fn prefix_reader_yields_the_cut_in_id_order_across_chunk_seams() {
        let rows = 2 * CHUNK_ROWS + 5;
        let names: Vec<(String, Language)> = (0..rows + 9)
            .map(|i| (format!("Nehru{}", "a".repeat(i % 7)), Language::English))
            .collect();
        let entries = transform_rows(&MatchConfig::default(), names).unwrap();
        let s = Store::new(MatchConfig::default());
        s.extend_transformed(entries.clone());
        // Rows past the cut are in the store and not in the read.
        let (mut seen, mut text_bytes, mut phoneme_bytes) = (0usize, 0usize, 0usize);
        let mut reader = s.prefix_reader(rows);
        while let Some(chunk) = reader.next_chunk() {
            for (text, language, ids) in chunk {
                let entry = &entries[seen];
                assert_eq!(
                    (text, language, ids),
                    (
                        entry.text.as_bytes(),
                        entry.language,
                        entry.phonemes.id_bytes()
                    ),
                    "id {seen}"
                );
                text_bytes += text.len();
                phoneme_bytes += ids.len();
                seen += 1;
            }
        }
        assert_eq!(seen, rows);
        assert_eq!(s.prefix_bytes(rows), (text_bytes, phoneme_bytes));
    }

    /// A read is a call under the store's read lock, not a turn behind
    /// the searches holding it: with 64 scans running on the store from
    /// another thread, `get`, the coverage gauges and a prefix chunk each
    /// answer in a fraction of the time the scans take to drain.
    #[test]
    fn reads_do_not_wait_behind_running_searches() {
        let s = Store::new(MatchConfig::default());
        s.extend_transformed(plain_names(20_000));
        let q: PhonemeString = "neru".parse().unwrap();
        let timed = |read: &dyn Fn()| {
            let t = Instant::now();
            read();
            t.elapsed()
        };
        let start = Instant::now();
        let (reads, results) = std::thread::scope(|scope| {
            let scans = scope.spawn(|| {
                (0..64)
                    .map(|_| s.search_phonemes(&q, 0.3, SearchMethod::Scan))
                    .collect::<Vec<_>>()
            });
            // The first scan has been merged; 63 are still to run.
            wait_for("the first scan", || s.batch_totals().calls > 0);
            let reads = [
                ("get", timed(&|| assert!(s.get(0).is_some()))),
                (
                    "cover_stats",
                    timed(&|| assert_eq!(s.cover_stats().declared, 0)),
                ),
                (
                    "prefix chunk",
                    timed(&|| assert!(s.prefix_reader(s.len()).next_chunk().is_some())),
                ),
            ];
            (reads, scans.join().expect("scans"))
        });
        let drained = start.elapsed();
        assert!(!results[0].ids.is_empty());
        assert!(results.iter().all(|r| *r == results[0]));
        for (what, took) in reads {
            assert!(
                took < drained / 4,
                "{what} took {took:?} beside scans that drained in {drained:?}"
            );
        }
    }

    #[test]
    fn incremental_insert_interleaves_with_bulk() {
        let s = Store::new(MatchConfig::default());
        let id = s.insert("Nehru", Language::English).unwrap();
        assert_eq!(id, 0);
        let range = s.extend(demo_rows()).unwrap();
        assert_eq!(range, 1..8);
        assert_eq!(s.get(0).unwrap().text, "Nehru");
        assert_eq!(s.get(7).unwrap().text, "Krishnan");
    }
}
