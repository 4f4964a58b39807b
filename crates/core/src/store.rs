//! [`NameStore`]: a multiscript name collection with every access path.
//!
//! This is the library-level packaging of the paper's system: store names
//! in any supported script, then search phonetically via
//!
//! * [`SearchMethod::Scan`] — exact semantics, O(n) predicate evaluations
//!   (the paper's Table 1 baseline);
//! * [`SearchMethod::Qgram`] — q-gram filtered (Table 2);
//! * [`SearchMethod::PhoneticIndex`] — grouped-identifier probe (Table 3,
//!   admits false dismissals);
//! * [`SearchMethod::BkTree`] — a metric-tree alternative implementing the
//!   paper's future-work direction (§6).

use crate::config::MatchConfig;
use crate::operator::LexEqual;
use crate::phonidx::PhoneticIndex;
use crate::qgram_plan::{QgramFilter, QgramMode};
use crate::verify::{BatchVerifier, PreparedQuery, Verifier};
use lexequal_embed::EMBED_DIM;
use lexequal_g2p::{G2pError, Language};
use lexequal_matcher::BkTree;
use lexequal_phoneme::{Bytes, ClusterTable, PhonemeString, SharedBytes};
use std::fmt;
use std::ops::Range;

/// One stored name.
#[derive(Debug, Clone)]
pub struct NameEntry {
    /// The lexicographic string as stored.
    pub text: String,
    /// Its language tag.
    pub language: Language,
    /// Its phonemic representation.
    pub phonemes: PhonemeString,
}

/// One name's columns as validated views into a shared allocation —
/// the unit the memory-mapped snapshot loader feeds to
/// [`NameStore::push_shared_entry`]. All four views alias the same
/// owner (the mapping), so adopting an entry is three `Arc` bumps,
/// never a copy.
#[derive(Clone)]
pub struct SharedEntry {
    /// UTF-8 text bytes.
    pub text: SharedBytes,
    /// Language tag.
    pub language: Language,
    /// Raw phoneme inventory ids.
    pub phonemes: SharedBytes,
    /// Cluster ids, parallel to `phonemes`.
    pub clusters: SharedBytes,
    /// Stored phonetic embedding: either [`EMBED_DIM`] bytes, or an
    /// empty view meaning "not persisted" (v1 images) — the store then
    /// bypasses the embedding screen for this entry until
    /// [`NameStore::build_embeddings`] fills it in.
    pub embed: SharedBytes,
}

/// Why [`NameStore::push_shared_entry`] refused an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedEntryError {
    /// The text bytes are not valid UTF-8.
    TextNotUtf8,
    /// A phoneme byte is outside the inventory.
    BadPhonemeId,
    /// The cluster-id vector disagrees with the configured cost model
    /// (wrong length or wrong cluster for a phoneme).
    ClusterMismatch,
    /// The stored embedding vector disagrees with what the configured
    /// embedder computes for the entry's phonemes (wrong length or wrong
    /// bytes; an *empty* vector is legal and means "rebuild later").
    EmbedMismatch,
}

impl fmt::Display for SharedEntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharedEntryError::TextNotUtf8 => write!(f, "entry text is not valid UTF-8"),
            SharedEntryError::BadPhonemeId => {
                write!(f, "entry contains a phoneme id outside the inventory")
            }
            SharedEntryError::ClusterMismatch => write!(
                f,
                "stored cluster ids disagree with the configured cost model"
            ),
            SharedEntryError::EmbedMismatch => {
                write!(f, "stored embedding disagrees with the configured embedder")
            }
        }
    }
}

impl std::error::Error for SharedEntryError {}

/// The phoneme-id strings of consecutive rows, back to back in one buffer:
/// what a cover copies a store's prefix into ([`NameStore::read_phonemes`])
/// to build an index from on its own thread — two allocations a column,
/// none a row.
#[derive(Debug, Default)]
pub struct PhonemeColumn {
    ids: Vec<u8>,
    /// Row `i` ends at `ends[i]`.
    ends: Vec<u32>,
}

impl PhonemeColumn {
    /// Empty the column, keeping its buffers, and make room for `rows`
    /// rows of `bytes` ids in all.
    pub fn reset(&mut self, rows: usize, bytes: usize) {
        self.clear();
        self.ids.reserve(bytes);
        self.ends.reserve(rows);
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the column holds no row.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Row `i`'s inventory ids.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.ids[start as usize..self.ends[i] as usize]
    }

    fn push(&mut self, ids: &[u8]) {
        self.ids.extend_from_slice(ids);
        self.ends.push(self.ids.len() as u32);
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.ends.clear();
    }
}

/// A run of consecutive rows copied out of a [`NameStore`] as a few flat
/// buffers (see [`NameStore::read_rows`]): no per-row `String` or
/// [`PhonemeString`], and refilling a chunk reuses its allocations.
#[derive(Debug, Default)]
pub struct RowChunk {
    languages: Vec<Language>,
    /// All texts back to back; row `i` ends at `text_ends[i]`.
    texts: String,
    text_ends: Vec<usize>,
    phonemes: PhonemeColumn,
}

impl RowChunk {
    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.languages.len()
    }

    /// Whether the chunk holds no row.
    pub fn is_empty(&self) -> bool {
        self.languages.is_empty()
    }

    /// Row `i` as `(text, language, phoneme inventory ids)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> (&str, Language, &[u8]) {
        let start = if i == 0 { 0 } else { self.text_ends[i - 1] };
        (
            &self.texts[start..self.text_ends[i]],
            self.languages[i],
            self.phonemes.row(i),
        )
    }

    fn clear(&mut self) {
        self.languages.clear();
        self.texts.clear();
        self.text_ends.clear();
        self.phonemes.clear();
    }
}

/// Entry text: an owned string for wire-`ADD`ed names, a borrowed
/// UTF-8-validated view for mmap-loaded corpora.
enum StoredText {
    Owned(String),
    /// Invariant: the viewed bytes are valid UTF-8 (checked at
    /// construction in [`NameStore::push_shared_entry`]).
    Shared(SharedBytes),
}

impl StoredText {
    fn as_str(&self) -> &str {
        match self {
            StoredText::Owned(s) => s,
            // SAFETY: UTF-8 validity was checked when the view was
            // adopted, and the shared allocation is immutable.
            StoredText::Shared(b) => unsafe { std::str::from_utf8_unchecked(b.as_slice()) },
        }
    }
}

/// Which access path a search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMethod {
    /// Evaluate the predicate on every row.
    Scan,
    /// Q-gram filters, then verify survivors.
    Qgram,
    /// Grouped-phoneme-identifier probe, then verify. May miss matches
    /// whose edits cross clusters (paper: 4–5%).
    PhoneticIndex,
    /// BK-tree range query on Levenshtein radius, then verify.
    BkTree,
}

/// Outcome of a search: matching ids plus the work done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Ids (insertion order positions) of matching names.
    pub ids: Vec<u32>,
    /// How many exact-predicate evaluations were needed.
    pub verifications: usize,
}

/// Which access path to keep over a store's rows.
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
    /// The access path this spec serves.
    pub fn method(self) -> SearchMethod {
        match self {
            BuildSpec::Qgram { .. } => SearchMethod::Qgram,
            BuildSpec::PhoneticIndex => SearchMethod::PhoneticIndex,
            BuildSpec::BkTree => SearchMethod::BkTree,
        }
    }
}

/// One access path's index over the first [`covered`](Self::covered) rows
/// of a phoneme column. Rows never change once appended, so an index
/// built from any copy of a prefix — on any thread — is the index of that
/// prefix for good; [`NameStore::install`] adopts it.
pub enum PathIndex {
    /// See [`QgramFilter`].
    Qgram(QgramFilter),
    /// See [`PhoneticIndex`].
    PhoneticIndex(PhoneticIndex),
    /// Ids into the column under integer Levenshtein distance (the
    /// clustered distance is not integer-valued; Levenshtein bounds it
    /// from above, see `NameStore::candidates`).
    BkTree(BkTree),
}

impl PathIndex {
    /// Build `spec`'s index over rows `0..rows` of a phoneme column
    /// (`row(i)`: row `i`'s inventory ids) clustered by `clusters`.
    pub fn build<'a>(
        spec: BuildSpec,
        clusters: &ClusterTable,
        rows: usize,
        row: impl Fn(usize) -> &'a [u8] + Copy,
    ) -> Self {
        match spec {
            BuildSpec::Qgram { q, mode } => {
                PathIndex::Qgram(QgramFilter::build_rows(rows, row, q, mode))
            }
            BuildSpec::PhoneticIndex => {
                PathIndex::PhoneticIndex(PhoneticIndex::build_rows(clusters, rows, row))
            }
            BuildSpec::BkTree => {
                PathIndex::BkTree(BkTree::build(rows as u32, |id| row(id as usize)))
            }
        }
    }

    /// The spec this index was built to.
    pub fn spec(&self) -> BuildSpec {
        match self {
            PathIndex::Qgram(f) => qgram_spec(f),
            PathIndex::PhoneticIndex(_) => BuildSpec::PhoneticIndex,
            PathIndex::BkTree(_) => BuildSpec::BkTree,
        }
    }

    /// How many rows the index holds.
    pub fn covered(&self) -> usize {
        match self {
            PathIndex::Qgram(f) => f.len(),
            PathIndex::PhoneticIndex(idx) => idx.len(),
            PathIndex::BkTree(t) => t.len(),
        }
    }
}

fn qgram_spec(f: &QgramFilter) -> BuildSpec {
    BuildSpec::Qgram {
        q: f.q(),
        mode: f.mode(),
    }
}

/// Whether an index over `covered` of a store's `rows` rows is due a
/// re-cover: its tail holds at least [`RECOVER_FLOOR`] rows and a quarter
/// of the prefix. A search then does pair-wise work on at most a quarter
/// of what its index spares it, and rebuilding over `n` rows every `n / 4`
/// appends keeps covering amortised O(1) per append; the floor keeps small
/// stores, where the pair-wise tail is cheaper than any rebuild, from
/// re-covering at all.
pub fn cover_due(covered: usize, rows: usize) -> bool {
    rows - covered >= RECOVER_FLOOR.max(covered / 4)
}

const RECOVER_FLOOR: usize = 4096;

/// A searchable multiscript name collection.
///
/// Storage is column-oriented (texts, languages, phoneme strings,
/// cluster-id vectors in parallel arrays), and every column is
/// borrowed-or-owned: wire-`ADD`ed rows own their buffers, rows loaded
/// from a memory-mapped snapshot are views into the mapping.
///
/// An access path is *declared* ([`declare`](Self::declare), or any
/// `build_*`) and from then on answers every search exactly: its index
/// covers rows `0..covered`, the rows appended since are its tail, and a
/// search verifies the index's candidates over the prefix plus the tail
/// rows the path's own pair-wise rule admits — the same candidate set
/// whatever `covered` is. Appends therefore invalidate nothing; covering
/// ([`build`](Self::build), or [`install`](Self::install) of an index
/// built elsewhere) only makes a path fast.
pub struct NameStore {
    operator: LexEqual,
    texts: Vec<StoredText>,
    languages: Vec<Language>,
    phonemes: Vec<PhonemeString>,
    /// Per-string cluster-id vectors, parallel to `phonemes` — feeds the
    /// verification kernel's fast-reject screen without per-pair lookups.
    cluster_ids: Vec<Bytes>,
    /// Per-string phonetic embeddings, parallel to `phonemes`: either
    /// [`EMBED_DIM`] bytes, or empty for "not yet built" (entries adopted
    /// from a v1 snapshot image) — the embedding screen bypasses empty
    /// rows until [`build_embeddings`](Self::build_embeddings) fills them.
    embeds: Vec<Bytes>,
    /// The declared paths' indices, each over a prefix of `phonemes`.
    qgram: Option<QgramFilter>,
    phonidx: Option<PhoneticIndex>,
    bktree: Option<BkTree>,
}

impl NameStore {
    /// Create an empty store with the given configuration.
    pub fn new(config: MatchConfig) -> Self {
        NameStore {
            operator: LexEqual::new(config),
            texts: Vec::new(),
            languages: Vec::new(),
            phonemes: Vec::new(),
            cluster_ids: Vec::new(),
            embeds: Vec::new(),
            qgram: None,
            phonidx: None,
            bktree: None,
        }
    }

    /// The operator (for direct predicate access).
    pub fn operator(&self) -> &LexEqual {
        &self.operator
    }

    /// Number of stored names.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Entry by id, materialized (the store no longer keeps row-shaped
    /// entries; mmap-backed rows borrow their bytes from the mapping).
    pub fn get(&self, id: u32) -> Option<NameEntry> {
        let i = id as usize;
        if i >= self.texts.len() {
            return None;
        }
        Some(NameEntry {
            text: self.texts[i].as_str().to_owned(),
            language: self.languages[i],
            phonemes: self.phonemes[i].clone(),
        })
    }

    /// Entry text by id, in place — no materialization.
    pub fn text(&self, id: u32) -> Option<&str> {
        self.texts.get(id as usize).map(StoredText::as_str)
    }

    /// Entry language by id.
    pub fn language(&self, id: u32) -> Option<Language> {
        self.languages.get(id as usize).copied()
    }

    /// Insert a name; returns its id.
    pub fn insert(&mut self, text: &str, language: Language) -> Result<u32, G2pError> {
        self.extend([(text.to_owned(), language)]).map(|r| r.start)
    }

    /// Bulk-load names; returns the contiguous id range assigned.
    ///
    /// All rows are transformed *first*, so a G2P failure on any row
    /// leaves the store unchanged.
    pub fn extend(
        &mut self,
        rows: impl IntoIterator<Item = (String, Language)>,
    ) -> Result<Range<u32>, G2pError> {
        let entries = rows
            .into_iter()
            .map(|(text, language)| {
                Ok(NameEntry {
                    phonemes: self.operator.transform(&text, language)?,
                    text,
                    language,
                })
            })
            .collect::<Result<Vec<_>, G2pError>>()?;
        Ok(self.extend_transformed(entries))
    }

    /// Bulk-load pre-transformed entries (the serving layer transforms on
    /// its own threads); returns the contiguous id range assigned.
    pub fn extend_transformed(&mut self, entries: Vec<NameEntry>) -> Range<u32> {
        let start = self.texts.len() as u32;
        // A bulk load sizes the columns once; doubling its way up would
        // leave freed buffers half the columns' size behind in the heap.
        self.reserve(entries.len());
        for e in entries {
            self.cluster_ids
                .push(Bytes::from(self.operator.cluster_ids(&e.phonemes)));
            self.embeds
                .push(Bytes::from(self.operator.embed_for(&e.phonemes).to_vec()));
            self.phonemes.push(e.phonemes);
            self.languages.push(e.language);
            self.texts.push(StoredText::Owned(e.text));
        }
        start..self.texts.len() as u32
    }

    /// Adopt one validated entry whose columns are views into a shared
    /// allocation (the mmap-load fast path: three `Arc` bumps per row,
    /// no per-entry heap allocation).
    ///
    /// Every view is re-validated here so the zero-copy invariants
    /// never depend on the caller: text must be UTF-8, phoneme bytes
    /// must be inventory ids, and the cluster ids must be exactly what
    /// the configured cost model assigns to those phonemes.
    pub fn push_shared_entry(&mut self, entry: SharedEntry) -> Result<u32, SharedEntryError> {
        let SharedEntry {
            text,
            language,
            phonemes,
            clusters,
            embed,
        } = entry;
        if std::str::from_utf8(text.as_slice()).is_err() {
            return Err(SharedEntryError::TextNotUtf8);
        }
        let phonemes =
            PhonemeString::from_shared(phonemes).map_err(|_| SharedEntryError::BadPhonemeId)?;
        if clusters.len() != phonemes.len() {
            return Err(SharedEntryError::ClusterMismatch);
        }
        let table = self.operator.cost_model().clusters();
        let agree = phonemes
            .as_slice()
            .iter()
            .zip(clusters.as_slice())
            .all(|(&p, &c)| table.cluster_of(p).0 == c);
        if !agree {
            return Err(SharedEntryError::ClusterMismatch);
        }
        match embed.len() {
            // Empty means "not persisted" (v1 image); the screen bypasses
            // the row until `build_embeddings` fills it.
            0 => {}
            EMBED_DIM => {
                let expect = self.operator.embedder().embed_ids(phonemes.id_bytes());
                if embed.as_slice() != expect {
                    return Err(SharedEntryError::EmbedMismatch);
                }
            }
            _ => return Err(SharedEntryError::EmbedMismatch),
        }
        let id = self.texts.len() as u32;
        self.cluster_ids.push(Bytes::Shared(clusters));
        self.embeds.push(Bytes::Shared(embed));
        self.phonemes.push(phonemes);
        self.languages.push(language);
        self.texts.push(StoredText::Shared(text));
        Ok(id)
    }

    /// Pre-size the column vectors for `additional` more entries —
    /// bulk import paths know the count up front, so growth reallocs
    /// (and their copies) are wasted work.
    pub fn reserve(&mut self, additional: usize) {
        self.texts.reserve(additional);
        self.languages.reserve(additional);
        self.phonemes.reserve(additional);
        self.cluster_ids.reserve(additional);
        self.embeds.reserve(additional);
    }

    /// [`push_shared_entry`](Self::push_shared_entry) for entries a
    /// loader has already validated arena-wide (the mmap snapshot
    /// loader checks UTF-8, phoneme ids and cluster agreement over the
    /// whole file before striping) — re-validating 20K entries per
    /// shard would double the cold-start cost for nothing. Debug builds
    /// still assert the invariants; an unvalidated entry here corrupts
    /// answers, not memory (every downstream read is bounds-checked).
    #[doc(hidden)]
    pub fn push_shared_entry_prevalidated(&mut self, entry: SharedEntry) -> u32 {
        debug_assert!(std::str::from_utf8(entry.text.as_slice()).is_ok());
        debug_assert_eq!(entry.clusters.len(), entry.phonemes.len());
        debug_assert!(entry.embed.is_empty() || entry.embed.len() == EMBED_DIM);
        let SharedEntry {
            text,
            language,
            phonemes,
            clusters,
            embed,
        } = entry;
        let phonemes = PhonemeString::from_shared_prevalidated(phonemes);
        let id = self.texts.len() as u32;
        self.cluster_ids.push(Bytes::Shared(clusters));
        self.embeds.push(Bytes::Shared(embed));
        self.phonemes.push(phonemes);
        self.languages.push(language);
        self.texts.push(StoredText::Shared(text));
        id
    }

    /// Fill in the embedding for every row that lacks one (rows adopted
    /// from a v1 snapshot image arrive with empty embed views). Returns
    /// how many rows were filled; idempotent.
    ///
    /// Embeddings only feed the conservative screen, never candidate
    /// generation: rows simply stop being screen-bypassed.
    pub fn build_embeddings(&mut self) -> usize {
        let mut filled = 0usize;
        for (i, e) in self.embeds.iter_mut().enumerate() {
            if e.len() != EMBED_DIM {
                *e = Bytes::from(self.operator.embed_for(&self.phonemes[i]).to_vec());
                filled += 1;
            }
        }
        filled
    }

    /// How many rows still lack an embedding (empty embed view).
    pub fn pending_embeddings(&self) -> usize {
        self.embeds.iter().filter(|e| e.len() != EMBED_DIM).count()
    }

    /// Whether `method` can serve a [`search`](Self::search): its path has
    /// been declared (scans need none). Never revoked.
    pub fn is_built(&self, method: SearchMethod) -> bool {
        match method {
            SearchMethod::Scan => true,
            SearchMethod::Qgram => self.qgram.is_some(),
            SearchMethod::PhoneticIndex => self.phonidx.is_some(),
            SearchMethod::BkTree => self.bktree.is_some(),
        }
    }

    /// The declared paths, each with the rows its index covers.
    pub fn coverage(&self) -> Vec<(BuildSpec, usize)> {
        self.paths().collect()
    }

    fn paths(&self) -> impl Iterator<Item = (BuildSpec, usize)> {
        let qgram = self.qgram.as_ref().map(|f| (qgram_spec(f), f.len()));
        let phonidx = (self.phonidx.as_ref()).map(|idx| (BuildSpec::PhoneticIndex, idx.len()));
        let bktree = (self.bktree.as_ref()).map(|t| (BuildSpec::BkTree, t.len()));
        [qgram, phonidx, bktree].into_iter().flatten()
    }

    /// Whether some declared path is [due a re-cover](cover_due).
    pub fn cover_due(&self) -> bool {
        self.paths()
            .any(|(_, covered)| cover_due(covered, self.len()))
    }

    /// Declare `spec`'s path: from here on searches through it are exact,
    /// over an index of zero rows until one is [`install`](Self::install)ed.
    /// Declaring the spec a path already has changes nothing; another spec
    /// for the same path (a different `q`) replaces it.
    pub fn declare(&mut self, spec: BuildSpec) {
        if !self.paths().any(|(declared, _)| declared == spec) {
            self.put(PathIndex::build(spec, self.clusters(), 0, |_| &[]));
        }
    }

    /// Adopt an index built over a prefix of this store's rows. Accepted
    /// only if its spec is the declared one and it covers more rows than
    /// the index in place — a cover that raced a re-declaration, or lost
    /// to a later cover, is dropped.
    pub fn install(&mut self, index: PathIndex) -> bool {
        debug_assert!(index.covered() <= self.len(), "covers rows not stored");
        let spec = index.spec();
        let wanted =
            (self.paths()).any(|(declared, covered)| declared == spec && covered < index.covered());
        if wanted {
            self.put(index);
        }
        wanted
    }

    fn put(&mut self, index: PathIndex) {
        match index {
            PathIndex::Qgram(f) => self.qgram = Some(f),
            PathIndex::PhoneticIndex(idx) => self.phonidx = Some(idx),
            PathIndex::BkTree(t) => self.bktree = Some(t),
        }
    }

    fn clusters(&self) -> &ClusterTable {
        self.operator.cost_model().clusters()
    }

    /// Declare `spec`'s path and cover every row, here and now.
    pub fn build(&mut self, spec: BuildSpec) {
        if !self.paths().any(|path| path == (spec, self.len())) {
            let row = |id: usize| self.phonemes[id].id_bytes();
            self.put(PathIndex::build(spec, self.clusters(), self.len(), row));
        }
    }

    /// [`build`](Self::build) the q-gram access path.
    pub fn build_qgram(&mut self, q: usize, mode: QgramMode) {
        self.build(BuildSpec::Qgram { q, mode });
    }

    /// [`build`](Self::build) the phonetic-index access path.
    pub fn build_phonetic_index(&mut self) {
        self.build(BuildSpec::PhoneticIndex);
    }

    /// [`build`](Self::build) the BK-tree access path (Levenshtein metric
    /// over phonemes).
    pub fn build_bktree(&mut self) {
        self.build(BuildSpec::BkTree);
    }

    /// The rows `method`'s path asks the verifier about for `q` at
    /// threshold `e`: its index's candidates over the covered prefix, then
    /// the tail rows its pair-wise rule admits. `None` means every row —
    /// a scan, or a BK-tree under a model with a free substitution (the
    /// radius is `k / min positive op cost`; none is finite then).
    ///
    /// # Panics
    ///
    /// Panics if the path was never declared.
    fn candidates(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> Option<Vec<u32>> {
        let undeclared = || -> ! { panic!("the {method:?} access path was never declared") };
        match method {
            SearchMethod::Scan => None,
            SearchMethod::Qgram => {
                let f = self.qgram.as_ref().unwrap_or_else(|| undeclared());
                // Budget depends on the candidate: e · min(|q|, |c|).
                // Filter with the largest possible budget (e · |q|) to
                // stay conservative; each is verified with its own.
                let k_max = e * q.len() as f64;
                let tail = &self.phonemes[f.len()..];
                Some(f.candidates_with_tail(q, k_max, &self.operator, tail))
            }
            SearchMethod::PhoneticIndex => {
                let idx = self.phonidx.as_ref().unwrap_or_else(|| undeclared());
                let tail = &self.phonemes[idx.len()..];
                Some(idx.candidates_with_tail(self.clusters(), q, tail))
            }
            SearchMethod::BkTree => {
                let t = self.bktree.as_ref().unwrap_or_else(|| undeclared());
                let radius = e * q.len() as f64 / self.operator.min_nonzero_cost()?;
                let key = |id: u32| self.phonemes[id as usize].id_bytes();
                let rows = self.phonemes.len() as u32;
                let hits = t.range_through(key, q.id_bytes(), radius.floor() as u32, rows);
                Some(hits.into_iter().map(|(id, _)| id).collect())
            }
        }
    }

    /// Search for names phonetically equal to `query` (in `language`)
    /// within threshold `e`, via the chosen access path.
    ///
    /// # Panics
    ///
    /// Panics if the chosen access path has not been built.
    pub fn search(
        &self,
        query: &str,
        language: Language,
        e: f64,
        method: SearchMethod,
    ) -> Result<SearchResult, G2pError> {
        let q = self.operator.transform(query, language)?;
        Ok(self.search_phonemes(&q, e, method))
    }

    /// Search with a pre-transformed query.
    pub fn search_phonemes(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> SearchResult {
        self.search_phonemes_with(q, e, method, &mut Verifier::new())
    }

    /// [`search_phonemes`](Self::search_phonemes) with a caller-owned
    /// [`Verifier`]: identical results, but the kernel's DP scratch and
    /// screen counters persist across calls.
    pub fn search_phonemes_with(
        &self,
        q: &PhonemeString,
        e: f64,
        method: SearchMethod,
        verifier: &mut Verifier,
    ) -> SearchResult {
        let prepared = self.operator.prepare_query(q);
        let mut matches = |id: &u32| {
            let i = *id as usize;
            let cc = Some(self.cluster_ids[i].as_slice());
            let ce = Some(self.embeds[i].as_slice());
            verifier.matches(&self.operator, &prepared, &self.phonemes[i], cc, ce, e)
        };
        match self.candidates(q, e, method) {
            None => SearchResult {
                ids: (0..self.len() as u32).filter(&mut matches).collect(),
                verifications: self.len(),
            },
            Some(candidates) => {
                let verifications = candidates.len();
                let mut ids: Vec<u32> = candidates.into_iter().filter(&mut matches).collect();
                ids.sort_unstable();
                SearchResult { ids, verifications }
            }
        }
    }

    /// [`search_phonemes_with`](Self::search_phonemes_with) through the
    /// batched kernel: the access path produces candidate ids as before,
    /// and one [`BatchVerifier::verify_ids`] call disposes of them in
    /// width-sized interleaved steps. Hits and verification counts are
    /// bit-for-bit identical to the pair-at-a-time form on every method
    /// (the shard workers serve through this form).
    pub fn search_phonemes_batched(
        &self,
        q: &PhonemeString,
        e: f64,
        method: SearchMethod,
        verifier: &mut BatchVerifier,
    ) -> SearchResult {
        let prepared = self.operator.prepare_query(q);
        let mut ids = Vec::new();
        let verifications = match self.candidates(q, e, method) {
            None => {
                let all = 0..self.phonemes.len() as u32;
                self.verify_ids(verifier, &prepared, all, e, &mut ids)
            }
            Some(candidates) => self.verify_ids(verifier, &prepared, candidates, e, &mut ids),
        };
        // Only the BK-tree walk yields ids out of order.
        ids.sort_unstable();
        SearchResult { ids, verifications }
    }

    fn verify_ids(
        &self,
        verifier: &mut BatchVerifier,
        query: &PreparedQuery,
        candidates: impl IntoIterator<Item = u32>,
        e: f64,
        hits: &mut Vec<u32>,
    ) -> usize {
        verifier.verify_ids(
            &self.operator,
            query,
            &self.phonemes,
            Some(&self.cluster_ids),
            Some(&self.embeds),
            candidates,
            e,
            hits,
        )
    }

    /// `(text bytes, phoneme bytes)` held by rows `0..rows` — the
    /// lengths-only pass a streaming snapshot writer lays its arenas out
    /// from before it copies a single row.
    pub fn prefix_bytes(&self, rows: usize) -> (usize, usize) {
        let texts = self.texts[..rows].iter().map(|t| t.as_str().len()).sum();
        let phonemes = self.phonemes[..rows].iter().map(PhonemeString::len).sum();
        (texts, phonemes)
    }

    /// Copy rows `rows` into `out`'s flat buffers, replacing what it
    /// held — the export side of snapshot persistence. `out` keeps its
    /// allocations, so a caller that hands the same chunk back for every
    /// range copies a whole store without a per-row allocation.
    pub fn read_rows(&self, rows: Range<usize>, out: &mut RowChunk) {
        out.clear();
        for i in rows {
            out.languages.push(self.languages[i]);
            out.texts.push_str(self.texts[i].as_str());
            out.text_ends.push(out.texts.len());
            out.phonemes.push(self.phonemes[i].id_bytes());
        }
    }

    /// Append rows `rows`' phoneme strings to `out` — how a cover copies
    /// the prefix it will index, a chunk of rows a call.
    pub fn read_phonemes(&self, rows: Range<usize>, out: &mut PhonemeColumn) {
        for p in &self.phonemes[rows] {
            out.push(p.id_bytes());
        }
    }

    /// Per-string cluster-id vectors, parallel to
    /// [`phoneme_strings`](Self::phoneme_strings).
    pub fn cluster_id_vectors(&self) -> &[Bytes] {
        &self.cluster_ids
    }

    /// Per-string embedding vectors, parallel to
    /// [`phoneme_strings`](Self::phoneme_strings) — [`EMBED_DIM`] bytes
    /// each, or empty where not yet built.
    pub fn embed_vectors(&self) -> &[Bytes] {
        &self.embeds
    }

    /// The phoneme strings (benchmark access).
    pub fn phoneme_strings(&self) -> &[PhonemeString] {
        &self.phonemes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> NameStore {
        let mut s = NameStore::new(MatchConfig::default());
        for (n, l) in [
            ("Nehru", Language::English),
            ("नेहरु", Language::Hindi),
            ("நேரு", Language::Tamil),
            ("Nero", Language::English),
            ("Gandhi", Language::English),
            ("गांधी", Language::Hindi),
            ("Krishnan", Language::English),
        ] {
            s.insert(n, l).unwrap();
        }
        s.build_qgram(3, QgramMode::Strict);
        s.build_phonetic_index();
        s.build_bktree();
        s
    }

    #[test]
    fn scan_finds_cross_script_matches() {
        let s = store();
        let r = s
            .search("Nehru", Language::English, 0.45, SearchMethod::Scan)
            .unwrap();
        assert!(r.ids.contains(&0)); // itself
        assert!(r.ids.contains(&1)); // नेहरु
        assert!(r.ids.contains(&2)); // நேரு
        assert!(!r.ids.contains(&4)); // not Gandhi
        assert_eq!(r.verifications, s.len());
    }

    #[test]
    fn qgram_matches_scan_in_strict_mode() {
        let s = store();
        for query in ["Nehru", "Gandhi", "Krishnan"] {
            let scan = s
                .search(query, Language::English, 0.3, SearchMethod::Scan)
                .unwrap();
            let qg = s
                .search(query, Language::English, 0.3, SearchMethod::Qgram)
                .unwrap();
            assert_eq!(scan.ids, qg.ids, "query {query}");
            assert!(qg.verifications <= scan.verifications);
        }
    }

    #[test]
    fn bktree_matches_scan() {
        let s = store();
        for query in ["Nehru", "Gandhi"] {
            let scan = s
                .search(query, Language::English, 0.3, SearchMethod::Scan)
                .unwrap();
            let bk = s
                .search(query, Language::English, 0.3, SearchMethod::BkTree)
                .unwrap();
            assert_eq!(scan.ids, bk.ids, "query {query}");
        }
    }

    #[test]
    fn phonetic_index_is_sound_but_may_dismiss() {
        let s = store();
        let scan = s
            .search("Nehru", Language::English, 0.3, SearchMethod::Scan)
            .unwrap();
        let pi = s
            .search("Nehru", Language::English, 0.3, SearchMethod::PhoneticIndex)
            .unwrap();
        for id in &pi.ids {
            assert!(scan.ids.contains(id), "false positive from index");
        }
        assert!(pi.verifications <= scan.verifications);
    }

    #[test]
    fn kernel_path_is_identical_to_reference_on_every_method() {
        // The kernel (screens + dense DP + scratch) must reproduce the
        // raw `matches_phonemes` decision bit-for-bit on every access
        // path; the phonetic index may dismiss but never diverge on what
        // it verifies.
        let s = store();
        let mut verifier = Verifier::new();
        for query in ["Nehru", "Nero", "Gandhi", "Krishnan", "Bose"] {
            let q = s.operator().transform(query, Language::English).unwrap();
            for e in [0.0, 0.15, 0.3, 0.45, 0.75] {
                let reference: Vec<u32> = (0..s.len() as u32)
                    .filter(|&i| {
                        s.operator()
                            .matches_phonemes(&s.phoneme_strings()[i as usize], &q, e)
                    })
                    .collect();
                for method in [
                    SearchMethod::Scan,
                    SearchMethod::Qgram,
                    SearchMethod::BkTree,
                ] {
                    let r = s.search_phonemes_with(&q, e, method, &mut verifier);
                    assert_eq!(r.ids, reference, "{query} e={e} {method:?}");
                }
                let pi = s.search_phonemes_with(&q, e, SearchMethod::PhoneticIndex, &mut verifier);
                for id in &pi.ids {
                    assert!(reference.contains(id), "{query} e={e} index false positive");
                }
            }
        }
        let c = verifier.counters();
        assert!(c.total() > 0);
        assert!(c.fast_reject > 0, "screens never fired: {c:?}");
    }

    #[test]
    fn gandhi_matches_its_hindi_form() {
        let s = store();
        let r = s
            .search("Gandhi", Language::English, 0.4, SearchMethod::Scan)
            .unwrap();
        assert!(r.ids.contains(&5), "गांधी should match Gandhi: {:?}", r.ids);
    }

    #[test]
    fn get_returns_entries() {
        let s = store();
        let e = s.get(1).unwrap();
        assert_eq!(e.text, "नेहरु");
        assert_eq!(e.language, Language::Hindi);
        assert!(s.get(99).is_none());
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn searching_an_undeclared_path_panics() {
        let mut s = NameStore::new(MatchConfig::default());
        s.insert("Nehru", Language::English).unwrap();
        let _ = s.search("Nehru", Language::English, 0.3, SearchMethod::Qgram);
    }

    #[test]
    fn read_rows_copies_a_range_into_a_reused_chunk() {
        let s = store();
        let mut chunk = RowChunk::default();
        for range in [0..s.len(), 1..3, 2..2] {
            s.read_rows(range.clone(), &mut chunk);
            assert_eq!(chunk.len(), range.len());
            assert_eq!(chunk.is_empty(), range.is_empty());
            for (i, id) in range.enumerate() {
                let e = s.get(id as u32).unwrap();
                assert_eq!(
                    chunk.row(i),
                    (&*e.text, e.language, e.phonemes.id_bytes()),
                    "id {id}"
                );
            }
        }
        let (texts, phonemes) = s.prefix_bytes(2);
        assert_eq!(texts, s.text(0).unwrap().len() + s.text(1).unwrap().len());
        assert_eq!(
            phonemes,
            s.phoneme_strings()[..2]
                .iter()
                .map(PhonemeString::len)
                .sum::<usize>()
        );
    }

    #[test]
    fn extend_assigns_contiguous_ids_and_matches_inserts() {
        let a = store();
        let mut b = NameStore::new(MatchConfig::default());
        let range = b
            .extend(
                (0..a.len() as u32)
                    .map(|i| a.get(i).unwrap())
                    .map(|e| (e.text.clone(), e.language)),
            )
            .unwrap();
        assert_eq!(range, 0..7);
        b.build_qgram(3, QgramMode::Strict);
        for (method, built) in [(SearchMethod::Scan, true), (SearchMethod::Qgram, true)] {
            assert_eq!(b.is_built(method), built);
            let x = a.search("Nehru", Language::English, 0.45, method).unwrap();
            let y = b.search("Nehru", Language::English, 0.45, method).unwrap();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn extend_is_all_or_nothing() {
        let mut s = NameStore::new(MatchConfig::default());
        // Second row's script contradicts its language tag: the whole
        // batch must be rejected.
        let r = s.extend([
            ("Nehru".to_owned(), Language::English),
            ("नेहरु".to_owned(), Language::Tamil),
        ]);
        assert!(r.is_err());
        assert!(s.is_empty());
    }

    /// A store that grew past its indices answers like one built over
    /// every row — ids and verification counts, both search forms.
    #[test]
    fn appends_leave_every_path_declared_and_exact() {
        let mut grown = store();
        grown
            .extend(
                [("Bose", Language::English), ("Neru", Language::English)]
                    .map(|(t, l)| (t.to_owned(), l)),
            )
            .unwrap();
        let tail = [
            (qgram3(), 7),
            (BuildSpec::PhoneticIndex, 7),
            (BuildSpec::BkTree, 7),
        ];
        assert_eq!(grown.coverage(), tail);
        assert!(!grown.cover_due(), "two rows are far below the floor");
        let mut fresh = NameStore::new(MatchConfig::default());
        fresh.extend_transformed((0..9).map(|i| grown.get(i).unwrap()).collect());
        for (spec, _) in tail {
            fresh.build(spec);
        }
        assert_eq!(fresh.coverage(), tail.map(|(spec, _)| (spec, 9)));
        let mut batched = BatchVerifier::new();
        for query in ["Nehru", "Neru", "Bose", "Gandhi"] {
            let q = grown
                .operator()
                .transform(query, Language::English)
                .unwrap();
            for method in [
                SearchMethod::Scan,
                SearchMethod::Qgram,
                SearchMethod::PhoneticIndex,
                SearchMethod::BkTree,
            ] {
                for e in [0.0, 0.1, 0.3, 0.45] {
                    let want = fresh.search_phonemes(&q, e, method);
                    assert_eq!(grown.search_phonemes(&q, e, method), want, "{query} {e}");
                    assert_eq!(
                        grown.search_phonemes_batched(&q, e, method, &mut batched),
                        want,
                        "{query} {e} {method:?} batched"
                    );
                }
            }
        }
    }

    fn qgram3() -> BuildSpec {
        BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        }
    }

    #[test]
    fn install_takes_the_declared_spec_and_more_coverage_only() {
        let mut s = NameStore::new(MatchConfig::default());
        let full = store();
        s.extend_transformed((0..7).map(|i| full.get(i).unwrap()).collect());
        let clusters = s.operator().cost_model().clusters().clone();
        let cover = |spec, rows: usize| {
            PathIndex::build(spec, &clusters, rows, |id| {
                s.phoneme_strings()[id].id_bytes()
            })
        };
        let (three, five) = (cover(qgram3(), 3), cover(qgram3(), 5));
        let other = cover(
            BuildSpec::Qgram {
                q: 2,
                mode: QgramMode::PaperFaithful,
            },
            7,
        );
        assert!(!s.is_built(SearchMethod::Qgram));
        s.declare(qgram3());
        assert_eq!(s.coverage(), [(qgram3(), 0)]);
        assert!(!s.install(other), "not the declared spec");
        assert!(s.install(five));
        assert!(!s.install(three), "covers less than what is in place");
        assert_eq!(s.coverage(), [(qgram3(), 5)]);
        // Declaring the same spec again keeps the index; another resets it.
        s.declare(qgram3());
        assert_eq!(s.coverage(), [(qgram3(), 5)]);
        s.declare(BuildSpec::Qgram {
            q: 2,
            mode: QgramMode::Strict,
        });
        assert_eq!(s.coverage()[0].1, 0);
    }

    #[test]
    fn a_cover_falls_due_at_the_floor_and_a_quarter_of_the_prefix() {
        let name = |i: usize| NameEntry {
            text: String::new(),
            language: Language::English,
            phonemes: format!("ne{}ru", "a".repeat(i % 5)).parse().unwrap(),
        };
        let mut s = NameStore::new(MatchConfig::default());
        s.extend_transformed((0..RECOVER_FLOOR - 1).map(name).collect());
        assert!(!s.cover_due(), "nothing declared");
        s.declare(BuildSpec::PhoneticIndex);
        assert!(!s.cover_due());
        s.extend_transformed(vec![name(0)]);
        assert!(
            s.cover_due(),
            "the whole store is tail, and it is 4096 rows"
        );
        s.build_phonetic_index();
        s.extend_transformed((0..RECOVER_FLOOR - 1).map(name).collect());
        assert!(!s.cover_due(), "a quarter of 4096 is under the floor");
        s.extend_transformed((0..RECOVER_FLOOR * 4 + 1).map(name).collect());
        s.build_phonetic_index();
        assert_eq!(s.coverage(), [(BuildSpec::PhoneticIndex, 24_576)]);
        s.extend_transformed((0..24_576 / 4 - 1).map(name).collect());
        assert!(!s.cover_due());
        s.extend_transformed(vec![name(1)]);
        assert!(s.cover_due(), "a quarter of 24 576");
    }
}
