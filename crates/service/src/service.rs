//! [`MatchService`]: the request-level API over the sharded store.
//!
//! This is the layer a front-end (TCP daemon, embedded server, load
//! generator) talks to. It owns the [`ShardedStore`], memoizes query
//! transforms in the [`TransformCache`], tracks which access paths have
//! been declared so a request for one that never was degrades to a
//! structured outcome instead of a worker panic, and records request
//! metrics.

use crate::cache::TransformCache;
use crate::metrics::{method_index, ConnStats, ServiceMetrics, UntaggedStats};
use crate::mmapstore::{self, ImageError};
use crate::shard::{BuildSpec, CoverStats, PendingSearch, ShardedStore};
use lexequal::store::NameEntry;
use lexequal::{G2pError, Language, MatchConfig, PhonemeString, QgramMode, SearchMethod};
use lexequal_g2p::{Route, Router, ScriptProfile};
use lexequal_lexicon::{Corpus, SyntheticDataset, SyntheticPairs};
use std::io::Read;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How this service's corpus came to be — surfaced in `STATS`
/// (`snapshot_format=`/`mmap_bytes=`/`load_ms=`) and the daemon's
/// startup log, so the 0.67x "snapshot loads slower than rebuild" class
/// of regression is visible instead of silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadInfo {
    /// `"mmap"` (started from an image: a file, or a replica's
    /// transfer) or `"rebuild"` (fresh store, corpus built from source).
    pub format: &'static str,
    /// Bytes mapped or transferred; 0 for a rebuild.
    pub mapped_bytes: u64,
    /// Validate-to-serve-ready time in milliseconds.
    pub load_ms: u64,
}

impl Default for LoadInfo {
    fn default() -> Self {
        LoadInfo {
            format: "rebuild",
            mapped_bytes: 0,
            load_ms: 0,
        }
    }
}

/// What [`MatchService::load_snapshot_auto`] produced.
pub struct SnapshotLoad {
    /// The serving handle (scan path ready; see `pending_builds`).
    pub service: MatchService,
    /// WAL LSN the snapshot covers (0 when it was written without a WAL).
    pub lsn: u64,
    /// Bytes mapped.
    pub mapped_bytes: u64,
    /// Validate-to-serve-ready time in milliseconds.
    pub load_ms: u64,
    /// Access paths the snapshot records: declared — exact — but not
    /// covered yet. Each is covered when a search first names it, or
    /// here and now by [`MatchService::build`].
    pub pending_builds: Vec<BuildSpec>,
}

/// What [`MatchService::preload`] loaded, and what it took.
#[derive(Debug, Clone, Copy)]
pub struct Preloaded {
    /// Names loaded: the target rounded up to whole pairs, or the
    /// lexicon's ceiling where the target is past it.
    pub names: usize,
    /// G2P of the base names.
    pub base: Duration,
    /// First push to the end of the load.
    pub load: Duration,
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Operator configuration (threshold default, cost model, registry).
    pub match_config: MatchConfig,
    /// Number of store shards (worker threads).
    pub shards: usize,
    /// Transform-cache capacity in entries.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            match_config: MatchConfig::default(),
            shards: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cache_capacity: 4096,
        }
    }
}

/// One lookup: the query plus per-request overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchRequest {
    /// Query text as written.
    pub text: String,
    /// Language whose converter transforms it.
    pub language: Language,
    /// Threshold override (`None` → the configured default).
    pub threshold: Option<f64>,
    /// Access-path override (`None` → the best built path).
    pub method: Option<SearchMethod>,
}

impl MatchRequest {
    /// A request with no overrides.
    pub fn new(text: impl Into<String>, language: Language) -> Self {
        MatchRequest {
            text: text.into(),
            language,
            threshold: None,
            method: None,
        }
    }
}

/// One **untagged** lookup (`MATCH -`): the query plus per-request
/// overrides, with the language left to script profiling + routing.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoMatchRequest {
    /// Query text as written.
    pub text: String,
    /// Threshold override (`None` → the configured default).
    pub threshold: Option<f64>,
    /// Access-path override (`None` → the best built path).
    pub method: Option<SearchMethod>,
}

impl AutoMatchRequest {
    /// An untagged request with no overrides.
    pub fn new(text: impl Into<String>) -> Self {
        AutoMatchRequest {
            text: text.into(),
            threshold: None,
            method: None,
        }
    }
}

/// How an untagged `ADD` resolved its language tag. The WAL logs the
/// *resolved* language, never "untagged", so replay and replicas converge
/// byte-identically with no knowledge of the routing table.
#[derive(Debug, Clone, PartialEq)]
pub enum AddResolution {
    /// Commit under this tag.
    Resolved(Language),
    /// The script is recognized but no converter ships (paper
    /// `NORESOURCE`).
    NoResource(Language),
    /// Nothing to detect from, unroutable script, or every fan-out
    /// converter rejected the text.
    BadInput(String),
}

/// What a lookup produced. Every degraded case is a value, not an error:
/// a serving loop answers all of these over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// The search ran.
    Matches {
        /// Access path that served it.
        method: SearchMethod,
        /// Threshold in force.
        threshold: f64,
        /// Global ids of matching names, ascending.
        ids: Vec<u32>,
        /// Exact-predicate evaluations spent.
        verifications: usize,
    },
    /// The query language has no installed converter (paper Figure 8's
    /// `NORESOURCE`).
    NoResource(Language),
    /// The requested access path was never declared (no `BUILD`, no
    /// `--preload`, none recorded in the snapshot).
    NotBuilt(SearchMethod),
    /// The query text failed to transform.
    BadInput(String),
}

/// The serving subsystem: sharded store + transform cache + metrics.
pub struct MatchService {
    store: ShardedStore,
    cache: TransformCache,
    metrics: ServiceMetrics,
    /// How the corpus was loaded (STATS / startup-log provenance).
    load_info: LoadInfo,
}

impl MatchService {
    /// Build a service from the configuration.
    pub fn new(config: ServiceConfig) -> Self {
        MatchService {
            store: ShardedStore::new(config.match_config, config.shards),
            cache: TransformCache::new(config.cache_capacity),
            metrics: ServiceMetrics::default(),
            load_info: LoadInfo::default(),
        }
    }

    /// Wrap an existing store (typically one restored from a snapshot):
    /// a path the snapshot recorded is declared on it, and serves
    /// immediately.
    pub fn from_store(store: ShardedStore, cache_capacity: usize) -> Self {
        MatchService {
            store,
            cache: TransformCache::new(cache_capacity),
            metrics: ServiceMetrics::default(),
            load_info: LoadInfo::default(),
        }
    }

    /// How this service's corpus was loaded (shown in `STATS` and the
    /// daemon startup log).
    pub fn load_info(&self) -> LoadInfo {
        self.load_info
    }

    /// Persist the store (entries, striping, declared access paths) to
    /// `path` as a snapshot image — see [`crate::mmapstore`].
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), ImageError> {
        self.save_snapshot_with_lsn(path, 0)
    }

    /// Build a service around a store loaded from a snapshot file, its
    /// recorded access paths covered before it returns. `shards`: `None`
    /// accepts the snapshot's own shard count, `Some(m)` insists on `m`.
    pub fn load_snapshot(
        match_config: MatchConfig,
        shards: Option<usize>,
        cache_capacity: usize,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, ImageError> {
        let load = Self::load_snapshot_auto(match_config, shards, cache_capacity, path)?;
        for spec in load.pending_builds {
            load.service.build(spec);
        }
        Ok(load.service)
    }

    /// Map the snapshot image at `path` and serve out of the mapping:
    /// the scan path and every recorded access path answer as soon as
    /// validation passes — an O(1) cold start. The returned
    /// [`SnapshotLoad`] carries provenance for logs/STATS plus the
    /// recorded access paths, none covered yet. A file that is not an
    /// image is [`crate::mmapstore`]'s bad-magic error.
    pub fn load_snapshot_auto(
        match_config: MatchConfig,
        shards: Option<usize>,
        cache_capacity: usize,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SnapshotLoad, ImageError> {
        Self::from_image(cache_capacity, || {
            mmapstore::load_file(match_config, shards, path)
        })
    }

    /// Run `load` and serve the image it returns, recording its
    /// provenance: the one step from a loaded image to a service, shared
    /// by a file load and a replica's seed, so `load_ms` times the same
    /// thing for both.
    pub(crate) fn from_image(
        cache_capacity: usize,
        load: impl FnOnce() -> Result<mmapstore::LoadedImage, ImageError>,
    ) -> Result<SnapshotLoad, ImageError> {
        let start = Instant::now();
        let image = load()?;
        let load_ms = start.elapsed().as_millis() as u64;
        let mut service = MatchService::from_store(image.store, cache_capacity);
        service.load_info = LoadInfo {
            format: "mmap",
            mapped_bytes: image.bytes,
            load_ms,
        };
        Ok(SnapshotLoad {
            service,
            lsn: image.lsn,
            mapped_bytes: image.bytes,
            load_ms,
            pending_builds: image.builds,
        })
    }

    /// The WAL LSN the snapshot file at `path` covers, without restoring
    /// a store from it: a header peek.
    pub fn snapshot_lsn(path: impl AsRef<std::path::Path>) -> Result<u64, ImageError> {
        let mut header = [0u8; mmapstore::HEADER_LEN];
        std::fs::File::open(path)
            .and_then(|mut f| f.read_exact(&mut header))
            .map_err(|e| ImageError::Unsupported(format!("store snapshot open: {e}")))?;
        let (lsn, _) = mmapstore::peek(&header).ok_or_else(mmapstore::bad_magic)?;
        Ok(lsn)
    }

    /// Persist the store atomically (temp file + rename), stamping the
    /// WAL LSN the state corresponds to. The image holds the rows
    /// published when the call began; `lsn` is exact for them only if the
    /// caller holds its writes off for that instant (a primary does not
    /// come through here: it cuts under its commit lock, see
    /// [`crate::repl::Replicator::cut`]). No lock is held during the
    /// write: it reads the store's immutable prefix, so mutations proceed.
    pub fn save_snapshot_with_lsn(
        &self,
        path: impl AsRef<std::path::Path>,
        lsn: u64,
    ) -> Result<(), ImageError> {
        mmapstore::write_file_atomic(&self.store, &self.store.cut(lsn), path).map(|_| ())
    }

    /// The underlying sharded store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The transform cache.
    pub fn cache(&self) -> &TransformCache {
        &self.cache
    }

    /// The raw metric counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Number of stored names.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no names are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Add one name; returns its global id.
    pub fn add(&self, text: &str, language: Language) -> Result<u32, G2pError> {
        self.extend([(text.to_owned(), language)]).map(|r| r.start)
    }

    /// Bulk-load names; returns the assigned global id range.
    pub fn extend(
        &self,
        rows: impl IntoIterator<Item = (String, Language)>,
    ) -> Result<Range<u32>, G2pError> {
        self.store.extend(rows)
    }

    /// Bulk-load pre-transformed entries.
    pub fn extend_transformed(&self, entries: Vec<NameEntry>) -> Range<u32> {
        self.store.extend_transformed(entries)
    }

    /// Bulk-load the ≈`target` synthetic names of the paper's §5 — what
    /// `lexequald --preload` does: the base names transformed by the
    /// store's own operator, then their pairs
    /// ([`load_pairs`](Self::load_pairs)).
    pub fn preload(&self, target: usize) -> Preloaded {
        let start = Instant::now();
        let base_names = SyntheticDataset::base_names(target);
        let corpus = Corpus::build_with(self.store.operator(), base_names);
        let base = start.elapsed();
        let names = self.load_pairs(&SyntheticPairs::of(&corpus, target));
        Preloaded {
            names,
            base,
            load: start.elapsed() - base,
        }
    }

    /// Load the synthetic set `pairs` enumerates, each pair pushed into
    /// one load as the parts it is: no name is ever made outside the
    /// shards' columns. Returns how many were loaded.
    pub fn load_pairs(&self, pairs: &SyntheticPairs<'_>) -> usize {
        let mut loader = self.store.loader();
        loader.reserve(pairs.iter().map(|(a, b)| {
            let phonemes = a.phonemes.len() + b.phonemes.len();
            (a.text.len() + b.text.len(), phonemes)
        }));
        for (a, b) in pairs.iter() {
            let (text, phonemes) = ([&*a.text, &*b.text], [&a.phonemes, &b.phonemes]);
            loader
                .push(&text, a.language, &phonemes)
                .expect("two base names fit a row");
        }
        loader.finish().len()
    }

    /// Declare one access path and cover it before returning (see
    /// [`ShardedStore::build`]: the cover runs on this thread; appends
    /// and searches proceed meanwhile). A front-end that must not wait
    /// uses the store's [`declare`](ShardedStore::declare) +
    /// [`schedule_cover`](ShardedStore::schedule_cover) instead.
    pub fn build(&self, spec: BuildSpec) {
        self.store.build(spec);
    }

    /// Build every access path (q-gram with the given parameters).
    pub fn build_all(&self, q: usize, mode: QgramMode) {
        self.build(BuildSpec::Qgram { q, mode });
        self.build(BuildSpec::PhoneticIndex);
        self.build(BuildSpec::BkTree);
    }

    /// Transform one name (through the cache) into the entry an `ADD`
    /// would append — the *fallible* half of a WAL-logged mutation, run
    /// before the op is appended so a bad input (one that does not
    /// transform, or is too long to store) never reaches the log.
    pub fn prepare_entry(&self, text: &str, language: Language) -> Result<NameEntry, G2pError> {
        let phonemes = self.cache.get_or_try_insert_with(text, language, || {
            self.store.config().registry.transform(text, language)
        })?;
        NameEntry::new(text.to_owned(), language, phonemes)
    }

    /// Append one pre-transformed entry — the infallible half of an
    /// `ADD`: a load of one row, one message to one shard. Returns the
    /// assigned global id.
    pub fn apply_entry(&self, entry: NameEntry) -> u32 {
        self.store
            .loader()
            .push(&[&entry.text], entry.language, &[&entry.phonemes])
            .expect("an entry passes NameEntry::new")
    }

    /// Deterministically apply one logged op, exactly as the original
    /// mutation did. WAL replay on restart and replicas applying the
    /// primary's stream both come through here, and the primary's own
    /// commit path splits into the same [`prepare_entry`]/[`apply_entry`]
    /// halves — so every copy of the store converges byte-for-byte.
    /// Returns the assigned global id for an `Add`.
    ///
    /// [`prepare_entry`]: Self::prepare_entry
    /// [`apply_entry`]: Self::apply_entry
    pub fn apply_op(&self, op: &crate::wal::Op) -> Result<Option<u32>, G2pError> {
        match op {
            crate::wal::Op::Add { language, text } => {
                let entry = self.prepare_entry(text, *language)?;
                Ok(Some(self.apply_entry(entry)))
            }
            // Declared only: a log replays many ops, and a path is
            // covered when a request first names it (a replica's stream
            // loop covers a replicated `BUILD` as the primary did).
            crate::wal::Op::Build(spec) => {
                self.store.declare(*spec);
                Ok(None)
            }
        }
    }

    /// Whether `method` can serve a search: its path has been declared
    /// (a scan needs none).
    pub fn is_built(&self, method: SearchMethod) -> bool {
        self.store.is_declared(method)
    }

    /// The access path an override-free request uses: the cheapest
    /// declared accelerator, falling back to a scan.
    pub fn default_method(&self) -> SearchMethod {
        for m in [
            SearchMethod::PhoneticIndex,
            SearchMethod::Qgram,
            SearchMethod::BkTree,
        ] {
            if self.is_built(m) {
                return m;
            }
        }
        SearchMethod::Scan
    }

    /// Serve one lookup.
    pub fn lookup(&self, req: &MatchRequest) -> MatchOutcome {
        self.finish(self.begin(&req.text, Some(req.language), req.method, req.threshold))
    }

    /// Serve one **untagged** lookup (`MATCH -`): the same ladder as
    /// [`lookup`](Self::lookup), on the route the text's script picks
    /// (Latin fans out over every enabled converter, the answers unioned).
    pub fn lookup_auto(&self, req: &AutoMatchRequest) -> MatchOutcome {
        self.finish(self.begin(&req.text, None, req.method, req.threshold))
    }

    /// Start one lookup without waiting for the shards. A tag is a route
    /// of one; without one the script picks it ([`Router::route`]). Then:
    /// no enabled converter on the route → `NoResource`, an undeclared
    /// path → `NotBuilt`, a cached transform per enabled language (`BadInput`
    /// if none takes the text), identical renderings deduped, and one
    /// [`ShardedStore::begin_search`] each — enqueued, so a caller that
    /// begins several lookups before finishing any keeps every shard busy.
    /// The `untagged_*` counters move only when `tag` is `None`.
    pub(crate) fn begin(
        &self,
        text: &str,
        tag: Option<Language>,
        method: Option<SearchMethod>,
        threshold: Option<f64>,
    ) -> PendingLookup {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let route = tag.map_or_else(
            || {
                let profile = ScriptProfile::of(text);
                self.metrics.untagged.record_request(profile.primary());
                Router::route(&profile)
            },
            Route::Single,
        );
        let languages: &[Language] = match &route {
            Route::Single(l) => std::slice::from_ref(l),
            Route::FanOut(set) => set,
            Route::NoResource(l) => return self.no_resource(*l, tag),
            Route::Unsupported(s) => return self.bad_input(format!("unsupported script {s}")),
            Route::NoLetters => return self.bad_input("no letters to detect a script from".into()),
        };
        let config = self.store.config();
        let enabled = || languages.iter().filter(|l| config.registry.supports(**l));
        if enabled().next().is_none() {
            return self.no_resource(languages[0], tag);
        }
        let method = method.unwrap_or_else(|| self.default_method());
        if !self.is_built(method) {
            self.metrics.not_built.fetch_add(1, Ordering::Relaxed);
            return PendingLookup::Ready(MatchOutcome::NotBuilt(method));
        }
        let threshold = threshold.unwrap_or(config.threshold);
        let mut queries: Vec<PhonemeString> = Vec::with_capacity(languages.len());
        let (mut deduped, mut last_err) = (0u64, None);
        for &lang in enabled() {
            match self
                .cache
                .get_or_try_insert_with(text, lang, || config.registry.transform(text, lang))
            {
                Ok(q) if queries.contains(&q) => deduped += 1,
                Ok(q) => queries.push(q),
                Err(e) => last_err = Some(e),
            }
        }
        if tag.is_none() {
            let width = queries.len() as u64;
            self.metrics.untagged.record_fanout(width, deduped);
        }
        if queries.is_empty() {
            let e = last_err.expect("an enabled language either transformed or failed");
            return self.bad_input(format!("{e:?}"));
        }
        let start = Instant::now();
        PendingLookup::Searching {
            searches: queries
                .iter()
                .map(|q| self.store.begin_search(q, threshold, method))
                .collect(),
            method,
            threshold,
            start,
        }
    }

    /// Collect a lookup started by [`begin`](Self::begin): merge every
    /// rendering's search, union + dedupe the ids (a fan-out can only add
    /// recall; every id was confirmed by the same verifier), sum the
    /// verification work and record the begin→finish latency.
    pub(crate) fn finish(&self, pending: PendingLookup) -> MatchOutcome {
        match pending {
            PendingLookup::Ready(outcome) => outcome,
            PendingLookup::Searching {
                searches,
                method,
                threshold,
                start,
            } => {
                let (mut ids, mut verifications) = (Vec::new(), 0);
                for search in searches {
                    let result = search.merge();
                    ids.extend(result.ids);
                    verifications += result.verifications;
                }
                ids.sort_unstable();
                ids.dedup();
                self.metrics
                    .record_search(method, start.elapsed(), ids.len());
                MatchOutcome::Matches {
                    method,
                    threshold,
                    ids,
                    verifications,
                }
            }
        }
    }

    fn no_resource(&self, language: Language, tag: Option<Language>) -> PendingLookup {
        self.metrics.no_resource.fetch_add(1, Ordering::Relaxed);
        if tag.is_none() {
            let untagged = &self.metrics.untagged.no_resource;
            untagged.fetch_add(1, Ordering::Relaxed);
        }
        PendingLookup::Ready(MatchOutcome::NoResource(language))
    }

    fn bad_input(&self, msg: String) -> PendingLookup {
        self.metrics.bad_input.fetch_add(1, Ordering::Relaxed);
        PendingLookup::Ready(MatchOutcome::BadInput(msg))
    }

    /// Resolve the language tag an untagged `ADD` commits under: route by
    /// primary script, and for a fan-out set take the *first* language
    /// (registry order — English before French/Spanish) whose converter
    /// accepts the text. The WAL then logs the resolved tag through the
    /// ordinary [`prepare_entry`](Self::prepare_entry) /
    /// [`apply_entry`](Self::apply_entry) halves, so replay and replicas
    /// never see "untagged" and convergence stays byte-identical.
    pub fn resolve_add_language(&self, text: &str) -> AddResolution {
        let profile = ScriptProfile::of(text);
        self.metrics.untagged.record_request(profile.primary());
        let config = self.store.config();
        let candidates: Vec<Language> = match Router::route(&profile) {
            Route::Single(l) => vec![l],
            Route::FanOut(set) => set.to_vec(),
            Route::NoResource(l) => {
                self.metrics
                    .untagged
                    .no_resource
                    .fetch_add(1, Ordering::Relaxed);
                return AddResolution::NoResource(l);
            }
            Route::Unsupported(s) => {
                return AddResolution::BadInput(format!("unsupported script {s}"));
            }
            Route::NoLetters => {
                return AddResolution::BadInput("no letters to detect a script from".to_owned());
            }
        };
        let mut attempts = 0u64;
        let mut last_err: Option<G2pError> = None;
        for &lang in &candidates {
            if !config.registry.supports(lang) {
                last_err = Some(G2pError::NoResource(lang));
                continue;
            }
            attempts += 1;
            match self
                .cache
                .get_or_try_insert_with(text, lang, || config.registry.transform(text, lang))
            {
                Ok(_) => {
                    self.metrics.untagged.record_fanout(attempts, 0);
                    return AddResolution::Resolved(lang);
                }
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(G2pError::NoResource(l)) => {
                self.metrics
                    .untagged
                    .no_resource
                    .fetch_add(1, Ordering::Relaxed);
                AddResolution::NoResource(l)
            }
            Some(e) => AddResolution::BadInput(format!("{e:?}")),
            None => AddResolution::BadInput("no candidate languages".to_owned()),
        }
    }

    /// A point-in-time snapshot of every counter (for `STATS`).
    pub fn stats(&self) -> StatsSnapshot {
        let (cache_hits, cache_misses) = self.cache.stats();
        let screens = self.store.screen_totals();
        let batches = self.store.batch_totals();
        StatsSnapshot {
            names: self.store.len(),
            shards: self.store.shards(),
            requests: self.metrics.requests.load(Ordering::Relaxed),
            matches_returned: self.metrics.matches_returned.load(Ordering::Relaxed),
            no_resource: self.metrics.no_resource.load(Ordering::Relaxed),
            not_built: self.metrics.not_built.load(Ordering::Relaxed),
            bad_input: self.metrics.bad_input.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            screen_fast_accept: screens.fast_accept,
            screen_fast_reject: screens.fast_reject,
            screen_full_dp: screens.full_dp,
            screen_bypass: screens.bypass,
            batch_calls: batches.calls,
            batch_lanes_sum: batches.lanes_sum,
            batch_lanes_max: batches.lanes_max,
            batch_lane_accept: batches.lane_accept,
            batch_lane_reject: batches.lane_reject,
            batch_lane_dp: batches.lane_dp,
            simd_level: lexequal::simd_level().name(),
            transform_entries: self.cache.len(),
            transform_bytes: self.cache.bytes(),
            per_method: crate::metrics::ALL_METHODS.map(|m| {
                let pm = &self.metrics.per_method[method_index(m)];
                MethodStats {
                    method: m,
                    searches: pm.searches.load(Ordering::Relaxed),
                    p50_upper_ns: pm.latency.quantile_upper_ns(0.5),
                    p99_upper_ns: pm.latency.quantile_upper_ns(0.99),
                }
            }),
            conn: None,
            repl: None,
            untagged: self.metrics.untagged.snapshot(),
            load: self.load_info(),
            cover: self.store.cover_stats(),
        }
    }
}

/// A lookup in flight (from [`MatchService::begin`]): resolved up front
/// (a degraded outcome never reaches the shards) or waiting on one search
/// per distinct phoneme rendering of the query.
pub(crate) enum PendingLookup {
    Ready(MatchOutcome),
    Searching {
        searches: Vec<PendingSearch>,
        method: SearchMethod,
        threshold: f64,
        start: Instant,
    },
}

/// One access path's share of a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodStats {
    /// The access path.
    pub method: SearchMethod,
    /// Searches served.
    pub searches: u64,
    /// Upper edge of the median latency bucket, if any samples.
    pub p50_upper_ns: Option<u64>,
    /// Upper edge of the p99 latency bucket, if any samples.
    pub p99_upper_ns: Option<u64>,
}

/// Everything `STATS` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Stored names.
    pub names: usize,
    /// Store shards.
    pub shards: usize,
    /// Lookup requests served.
    pub requests: u64,
    /// Total matching ids returned.
    pub matches_returned: u64,
    /// Lookups answered `NoResource`.
    pub no_resource: u64,
    /// Lookups answered `NotBuilt`.
    pub not_built: u64,
    /// Lookups with untransformable text.
    pub bad_input: u64,
    /// Transform-cache hits.
    pub cache_hits: u64,
    /// Transform-cache misses.
    pub cache_misses: u64,
    /// Verified pairs the kernel accepted without the DP.
    pub screen_fast_accept: u64,
    /// Verified pairs the kernel rejected without the DP.
    pub screen_fast_reject: u64,
    /// Verified pairs that ran the full banded DP.
    pub screen_full_dp: u64,
    /// Verified pairs that skipped both screens (query empty or >64
    /// phonemes) — an overlay on `screen_full_dp`.
    pub screen_bypass: u64,
    /// Interleaved verification steps run by the batched kernels.
    pub batch_calls: u64,
    /// Sum of lane counts over those steps (`/ batch_calls` = mean fill).
    pub batch_lanes_sum: u64,
    /// Widest batch any worker ran.
    pub batch_lanes_max: u64,
    /// Lanes disposed of by equality / phoneme fast-accept.
    pub batch_lane_accept: u64,
    /// Lanes disposed of by the length filter / cluster fast-reject.
    pub batch_lane_reject: u64,
    /// Lanes drained through the dense banded DP.
    pub batch_lane_dp: u64,
    /// The SIMD backend the DP drain dispatched to at startup
    /// (`avx2` | `sse2` | `scalar`).
    pub simd_level: &'static str,
    /// Transforms the cache holds now.
    pub transform_entries: usize,
    /// Heap bytes the transform cache holds: slot arenas, indices and
    /// entries ([`TransformCache::bytes`]).
    pub transform_bytes: usize,
    /// Per-access-path counters.
    pub per_method: [MethodStats; 4],
    /// Serving-loop connection/queue/pipelining gauges. `None` from
    /// [`MatchService::stats`] (the service doesn't own connections); a
    /// TCP front-end fills this in before formatting `STATS`.
    pub conn: Option<ConnStats>,
    /// Replication role/lag gauges. `None` from [`MatchService::stats`]
    /// (and on a daemon with neither `--wal` nor `--replica-of`); the
    /// serving layer fills this in from its request context.
    pub repl: Option<crate::metrics::ReplStats>,
    /// Untagged-path counters (`ADD -` / `MATCH -`): script detections,
    /// fan-out widths, dedupe hits. All-zero until the first untagged
    /// request, and the `STATS` line omits the block while it is.
    pub untagged: UntaggedStats,
    /// How the store came up: `format: "mmap"` with the bytes mapped and
    /// the validate-to-serve-ready time, or `format: "rebuild"` when no
    /// snapshot was loaded.
    pub load: LoadInfo,
    /// Declared access paths, the rows their indices do not cover yet,
    /// and what covering has cost.
    pub cover: CoverStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(shards: usize) -> MatchService {
        let s = MatchService::new(ServiceConfig {
            shards,
            ..ServiceConfig::default()
        });
        s.extend(
            [
                ("Nehru", Language::English),
                ("नेहरु", Language::Hindi),
                ("நேரு", Language::Tamil),
                ("Nero", Language::English),
                ("Gandhi", Language::English),
            ]
            .map(|(t, l)| (t.to_owned(), l)),
        )
        .unwrap();
        s
    }

    #[test]
    fn lookup_over_scan_needs_no_build() {
        let s = service(2);
        let out = s.lookup(&MatchRequest {
            threshold: Some(0.45),
            ..MatchRequest::new("Nehru", Language::English)
        });
        match out {
            MatchOutcome::Matches { ids, method, .. } => {
                assert_eq!(method, SearchMethod::Scan);
                assert!(ids.contains(&1), "नेहरु: {ids:?}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn unbuilt_path_is_a_graceful_outcome() {
        let s = service(2);
        let out = s.lookup(&MatchRequest {
            method: Some(SearchMethod::Qgram),
            ..MatchRequest::new("Nehru", Language::English)
        });
        assert_eq!(out, MatchOutcome::NotBuilt(SearchMethod::Qgram));
        // And serving still works afterwards (no worker died).
        s.build(BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        });
        let out = s.lookup(&MatchRequest {
            method: Some(SearchMethod::Qgram),
            threshold: Some(0.45),
            ..MatchRequest::new("Nehru", Language::English)
        });
        assert!(matches!(out, MatchOutcome::Matches { .. }));
    }

    /// The defect this replaces: one `ADD` used to turn every accelerated
    /// `MATCH` into `NOTBUILT` for good.
    #[test]
    fn adds_leave_every_path_declared_and_exact() {
        let s = service(2);
        s.build_all(3, QgramMode::Strict);
        assert_eq!(s.default_method(), SearchMethod::PhoneticIndex);
        let id = s.add("Bose", Language::English).unwrap();
        assert_eq!(s.default_method(), SearchMethod::PhoneticIndex);
        let fresh = service(2);
        fresh.add("Bose", Language::English).unwrap();
        fresh.build_all(3, QgramMode::Strict);
        for method in crate::metrics::ALL_METHODS {
            let req = MatchRequest {
                method: Some(method),
                ..MatchRequest::new("Bose", Language::English)
            };
            let got = s.lookup(&req);
            assert_eq!(got, fresh.lookup(&req), "{method:?}");
            match got {
                MatchOutcome::Matches { ids, .. } => assert!(ids.contains(&id), "{method:?}"),
                other => panic!("{method:?} answered {other:?}"),
            }
        }
        let stats = s.stats();
        assert_eq!(stats.not_built, 0);
        assert_eq!(stats.cover.declared, 3);
        assert_eq!(stats.cover.tails, [0, 1, 1, 1], "one uncovered row each");
        assert_eq!(fresh.stats().cover.tails, [0; 4]);
    }

    /// Regression, first for a race (a rebuild re-marking paths an append
    /// had torn down, so the next pinned MATCH panicked inside a shard
    /// worker and every later request died on the closed channel) and now
    /// for the rule that removed it: a declared path stays declared, a
    /// cover only ever adds coverage, so builds hammering beside appends
    /// never cost a request its path or a worker its life.
    #[test]
    fn covers_racing_adds_never_cost_a_request_its_path() {
        use std::sync::atomic::AtomicBool;

        let s = std::sync::Arc::new(service(3));
        s.store.declare(BuildSpec::PhoneticIndex);
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let builder = {
            let s = std::sync::Arc::clone(&s);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    s.build(BuildSpec::PhoneticIndex);
                    s.build(BuildSpec::Qgram {
                        q: 3,
                        mode: QgramMode::Strict,
                    });
                }
            })
        };
        for i in 0..200 {
            let name = format!("Name{i}");
            let id = s.add(&name, Language::English).unwrap();
            let out = s.lookup(&MatchRequest {
                method: Some(SearchMethod::PhoneticIndex),
                threshold: Some(0.45),
                ..MatchRequest::new(name, Language::English)
            });
            match out {
                MatchOutcome::Matches { ids, method, .. } => {
                    assert_eq!(method, SearchMethod::PhoneticIndex);
                    assert!(ids.contains(&id), "the row just added matches itself");
                }
                other => panic!("mid-race lookup produced {other:?}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
        builder.join().expect("builder thread panicked");
        assert_eq!(s.len(), 5 + 200);
        s.build(BuildSpec::PhoneticIndex);
        let stats = s.stats();
        assert_eq!((stats.not_built, stats.cover.tails[2]), (0, 0));
    }

    #[test]
    fn noresource_language_is_reported_not_errored() {
        let config = MatchConfig::default()
            .with_registry(lexequal::G2pRegistry::with_languages(&[Language::English]));
        let s = MatchService::new(ServiceConfig {
            match_config: config,
            shards: 2,
            cache_capacity: 16,
        });
        s.extend([("Nehru".to_owned(), Language::English)]).unwrap();
        assert_eq!(
            s.lookup(&MatchRequest::new("नेहरु", Language::Hindi)),
            MatchOutcome::NoResource(Language::Hindi)
        );
    }

    #[test]
    fn bad_input_is_reported_not_errored() {
        let s = service(2);
        let out = s.lookup(&MatchRequest::new("नेहरु", Language::Tamil));
        assert!(matches!(out, MatchOutcome::BadInput(_)), "{out:?}");
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_count_stats() {
        let s = service(2);
        for _ in 0..3 {
            s.lookup(&MatchRequest {
                threshold: Some(0.45),
                ..MatchRequest::new("Nehru", Language::English)
            });
        }
        let st = s.stats();
        assert_eq!(st.requests, 3);
        assert_eq!(st.cache_misses, 1);
        assert_eq!(st.cache_hits, 2);
        assert_eq!(st.names, 5);
        assert_eq!(st.shards, 2);
        let scan = st.per_method[method_index(SearchMethod::Scan)];
        assert_eq!(scan.searches, 3);
        assert!(scan.p50_upper_ns.is_some());
        assert!(st.matches_returned >= 3, "{}", st.matches_returned);
    }

    /// Every reply line `lines` get from a standalone `respond`.
    fn respond_all(s: &MatchService, lines: &[&str]) -> Vec<String> {
        let (ctx, mut quit) = (crate::server::ReqCtx::default(), false);
        lines
            .iter()
            .flat_map(|line| crate::server::respond(line, s, &ctx, None, &mut quit))
            .collect()
    }

    #[test]
    fn batch_equals_per_item_lookups_including_degraded_outcomes() {
        let a = service(3);
        let b = service(3);
        for s in [&a, &b] {
            s.build(BuildSpec::Qgram {
                q: 3,
                mode: QgramMode::Strict,
            });
        }
        let batched = respond_all(
            &a,
            &[
                "BATCH en - 0.45 Nehru",
                // Script/language mismatch → BadInput.
                "BATCH ta - - नेहरु",
                "BATCH en bktree - Nero",
                "BATCH en - - Gandhi|Nero",
            ],
        );
        let singles = respond_all(
            &b,
            &[
                "MATCH en - 0.45 Nehru",
                "MATCH ta - - नेहरु",
                "MATCH en bktree - Nero",
                "MATCH en - - Gandhi",
                "MATCH en - - Nero",
            ],
        );
        assert_eq!(batched, singles);
        assert!(batched[1].starts_with("ERR bad input"), "{batched:?}");
        assert_eq!(batched[2], "NOTBUILT bktree");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.requests, sb.requests);
        assert_eq!(sa.bad_input, 1);
        assert_eq!(sa.not_built, 1);
        assert_eq!(sa.matches_returned, sb.matches_returned);
    }

    #[test]
    fn screen_counters_surface_in_stats() {
        let s = service(2);
        s.lookup(&MatchRequest {
            threshold: Some(0.45),
            ..MatchRequest::new("Nehru", Language::English)
        });
        let st = s.stats();
        let screened = st.screen_fast_accept + st.screen_fast_reject + st.screen_full_dp;
        // A scan verifies every stored name exactly once.
        assert_eq!(screened, st.names as u64);
        assert!(st.screen_fast_reject > 0, "{st:?}");
        assert_eq!(st.screen_bypass, 0, "short queries keep their screens");
    }

    #[test]
    fn batch_counters_surface_in_stats() {
        let s = service(2);
        s.lookup(&MatchRequest {
            threshold: Some(0.45),
            ..MatchRequest::new("Nehru", Language::English)
        });
        let st = s.stats();
        // The shard workers verify through the batched kernel: every
        // pair the O(1) pre-screens can't settle inline becomes a lane
        // of some interleaved step, so the lane totals are bounded by
        // (and here nonzero under) the per-pair screen totals.
        assert!(st.batch_calls > 0, "{st:?}");
        assert!(st.batch_lanes_sum > 0, "{st:?}");
        assert!(
            st.batch_lanes_sum <= st.screen_fast_accept + st.screen_fast_reject + st.screen_full_dp,
            "{st:?}"
        );
        assert_eq!(
            st.batch_lanes_sum,
            st.batch_lane_accept + st.batch_lane_reject + st.batch_lane_dp,
            "{st:?}"
        );
        assert!(st.batch_lanes_max >= 1 && st.batch_lanes_max <= lexequal::MAX_LANES as u64);
        assert!(
            ["scalar", "sse2", "avx2"].contains(&st.simd_level),
            "{st:?}"
        );
    }

    #[test]
    fn untagged_latin_merge_equals_union_of_tagged_queries() {
        let s = service(3);
        s.extend(
            [("Descartes", Language::French), ("Nero", Language::Spanish)]
                .map(|(t, l)| (t.to_owned(), l)),
        )
        .unwrap();
        let text = "Nehru";
        let mut union: Vec<u32> = Vec::new();
        for lang in [Language::English, Language::French, Language::Spanish] {
            match s.lookup(&MatchRequest {
                threshold: Some(0.45),
                ..MatchRequest::new(text, lang)
            }) {
                MatchOutcome::Matches { ids, .. } => union.extend(ids),
                other => panic!("tagged lookup failed: {other:?}"),
            }
        }
        union.sort_unstable();
        union.dedup();
        let out = s.lookup_auto(&AutoMatchRequest {
            threshold: Some(0.45),
            ..AutoMatchRequest::new(text)
        });
        match out {
            MatchOutcome::Matches { ids, .. } => assert_eq!(ids, union),
            other => panic!("untagged lookup failed: {other:?}"),
        }
    }

    #[test]
    fn unambiguous_untagged_is_byte_identical_to_tagged() {
        let tagged = service(2);
        let untagged = service(2);
        let t = tagged.lookup(&MatchRequest {
            threshold: Some(0.45),
            ..MatchRequest::new("नेहरु", Language::Hindi)
        });
        let u = untagged.lookup_auto(&AutoMatchRequest {
            threshold: Some(0.45),
            ..AutoMatchRequest::new("नेहरु")
        });
        assert_eq!(t, u);
        assert!(matches!(t, MatchOutcome::Matches { .. }));
    }

    #[test]
    fn untagged_cyrillic_routes_to_russian() {
        let s = service(2);
        s.add("Неру", Language::Russian).unwrap();
        let out = s.lookup_auto(&AutoMatchRequest {
            threshold: Some(0.45),
            ..AutoMatchRequest::new("Неру")
        });
        match out {
            MatchOutcome::Matches { ids, .. } => {
                // Matches the Cyrillic entry *and* the cross-script ones
                // (Неру renders to the same phonemes as English Nehru).
                assert!(ids.contains(&5), "{ids:?}");
                assert!(ids.contains(&0), "{ids:?}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn untagged_hangul_and_thai_are_noresource() {
        let s = service(2);
        assert_eq!(
            s.lookup_auto(&AutoMatchRequest::new("네루")),
            MatchOutcome::NoResource(Language::Korean)
        );
        assert_eq!(
            s.lookup_auto(&AutoMatchRequest::new("เนห์รู")),
            MatchOutcome::NoResource(Language::Thai)
        );
        assert!(matches!(
            s.lookup_auto(&AutoMatchRequest::new("北京")),
            MatchOutcome::BadInput(_)
        ));
        assert!(matches!(
            s.lookup_auto(&AutoMatchRequest::new("123 !?")),
            MatchOutcome::BadInput(_)
        ));
        let st = s.stats();
        assert_eq!(st.untagged.requests, 4);
        assert_eq!(st.untagged.no_resource, 2);
    }

    #[test]
    fn untagged_stats_track_fanout_and_scripts() {
        let s = service(2);
        s.lookup_auto(&AutoMatchRequest {
            threshold: Some(0.45),
            ..AutoMatchRequest::new("Nehru")
        });
        let st = s.stats();
        assert_eq!(st.untagged.requests, 1);
        assert_eq!(
            st.untagged.per_script[lexequal_g2p::Script::Latin.index()],
            1
        );
        // All three Latin converters produced a rendering; at least one
        // shard query was issued and the width never exceeds three.
        assert!(st.untagged.fanout_width_max >= 1);
        assert!(st.untagged.fanout_width_max <= 3);
        assert_eq!(
            st.untagged.fanout_width_sum + st.untagged.dedup_hits,
            3,
            "3 candidates split between issued queries and dedupe hits: {:?}",
            st.untagged
        );
    }

    #[test]
    fn resolve_add_language_commits_to_one_tag() {
        let s = service(2);
        assert_eq!(
            s.resolve_add_language("Nehru"),
            AddResolution::Resolved(Language::English)
        );
        assert_eq!(
            s.resolve_add_language("नेहरु"),
            AddResolution::Resolved(Language::Hindi)
        );
        assert_eq!(
            s.resolve_add_language("Неру"),
            AddResolution::Resolved(Language::Russian)
        );
        assert_eq!(
            s.resolve_add_language("네루"),
            AddResolution::NoResource(Language::Korean)
        );
        assert!(matches!(
            s.resolve_add_language("!!!"),
            AddResolution::BadInput(_)
        ));
    }

    #[test]
    fn batch_preserves_request_order() {
        let s = service(3);
        s.build(BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        });
        let outs = respond_all(&s, &["BATCH en - 0.45 Nehru|Gandhi"]);
        assert_eq!(outs.len(), 2);
        assert_eq!(
            outs,
            respond_all(&s, &["MATCH en - 0.45 Nehru", "MATCH en - 0.45 Gandhi"])
        );
        for out in outs {
            assert!(out.starts_with("OK n="), "{out}");
        }
    }
}
