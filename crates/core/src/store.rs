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
use crate::phonidx::{grouped_id_of_clusters, PhoneticIndex};
use crate::qgram_plan::{QgramFilter, QgramMode, MAX_Q};
use crate::rows::{check_field_bytes, Base, Columns, KeyColumn, Row, Rows};
use crate::verify::{BatchVerifier, PreparedQuery, Verifier};
use lexequal_embed::{embed_clustered, EMBED_DIM};
use lexequal_g2p::{G2pError, Language};
use lexequal_matcher::qgram::length_filter_passes;
use lexequal_matcher::BkTree;
use lexequal_phoneme::{ClusterTable, Phoneme, PhonemeString};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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

impl NameEntry {
    /// The entry for `text`, which transformed to `phonemes` — unless
    /// either is too long to store ([`check_field_bytes`]).
    pub fn new(
        text: String,
        language: Language,
        phonemes: PhonemeString,
    ) -> Result<Self, G2pError> {
        check_field_bytes(text.len(), phonemes.len())?;
        Ok(NameEntry {
            text,
            language,
            phonemes,
        })
    }
}

/// One symbol string a row for consecutive rows — their phoneme ids, or the
/// cluster ids those project to — back to back in one buffer: what a row
/// chunk carries its phonemes in, and what every index build copies the
/// column it will index into ([`NameStore::read_keys`]) — two allocations
/// a column, none a row.
#[derive(Debug, Default)]
pub struct SymbolColumn {
    ids: Vec<u8>,
    /// Row `i` ends at `ends[i]`.
    ends: Vec<u32>,
}

impl SymbolColumn {
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

    /// Row `i`'s symbols.
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

    /// Push `ids` with every symbol mapped through `class`.
    fn push_mapped(&mut self, ids: &[u8], class: &[u8; 256]) {
        self.ids.extend(ids.iter().map(|&id| class[id as usize]));
        self.ends.push(self.ids.len() as u32);
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.ends.clear();
    }
}

/// Rows a chunk carries between a store and whatever reads or loads it: a
/// snapshot writer's transient memory is one chunk whatever the corpus
/// size, and a bulk load hands a store its rows this many at a time.
pub const CHUNK_ROWS: usize = 1024;

/// What a bulk load will append to one store in all, so that each column
/// is grown once however many chunks the rows arrive in (zeros: unknown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSize {
    /// Rows.
    pub rows: usize,
    /// Text bytes of all of them.
    pub text_bytes: usize,
    /// Phoneme ids of all of them.
    pub phoneme_bytes: usize,
}

impl LoadSize {
    /// Count one more row of `text_bytes` and `phoneme_bytes`.
    pub fn add(&mut self, text_bytes: usize, phoneme_bytes: usize) {
        self.rows += 1;
        self.text_bytes += text_bytes;
        self.phoneme_bytes += phoneme_bytes;
    }
}

/// A run of rows as a few flat buffers — the unit rows travel in, both
/// ways: [`NameStore::read_rows`] copies a range of a store's rows out
/// into one, [`push`](Self::push) fills one from a source, and
/// [`NameStore::append_rows`] appends one to a store. Nothing is allocated
/// per row, and refilling a chunk reuses its allocations.
#[derive(Debug, Default)]
pub struct RowChunk {
    languages: Vec<Language>,
    /// All texts back to back; row `i` ends at `text_ends[i]`.
    texts: Vec<u8>,
    text_ends: Vec<usize>,
    phonemes: SymbolColumn,
}

impl RowChunk {
    /// Append the row whose text is `text`'s parts back to back and whose
    /// phoneme string is `phonemes`' — unless it is too long to store
    /// ([`check_field_bytes`]; the chunk is then unchanged).
    pub fn push(
        &mut self,
        text: &[&str],
        language: Language,
        phonemes: &[&PhonemeString],
    ) -> Result<(), G2pError> {
        check_field_bytes(
            text.iter().map(|part| part.len()).sum(),
            phonemes.iter().map(|part| part.len()).sum(),
        )?;
        for part in text {
            self.texts.extend_from_slice(part.as_bytes());
        }
        self.text_ends.push(self.texts.len());
        self.languages.push(language);
        for part in phonemes {
            self.phonemes.ids.extend_from_slice(part.id_bytes());
        }
        let end = u32::try_from(self.phonemes.ids.len()).expect("a chunk under 4 GiB");
        self.phonemes.ends.push(end);
        Ok(())
    }

    /// Make room for `more` on top of the rows held.
    pub fn reserve(&mut self, more: LoadSize) {
        self.languages.reserve(more.rows);
        self.texts.reserve(more.text_bytes);
        self.text_ends.reserve(more.rows);
        self.phonemes.ids.reserve(more.phoneme_bytes);
        self.phonemes.ends.reserve(more.rows);
    }

    /// The rows held, counted as a load ([`LoadSize`]).
    pub fn size(&self) -> LoadSize {
        LoadSize {
            rows: self.len(),
            text_bytes: self.texts.len(),
            phoneme_bytes: self.phonemes.ids.len(),
        }
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.languages.len()
    }

    /// Whether the chunk holds no row.
    pub fn is_empty(&self) -> bool {
        self.languages.is_empty()
    }

    /// Row `i` as `(text, language, phoneme inventory ids)` — the text as
    /// its bytes (UTF-8, as every stored name is: an image writer copies
    /// them as they are, nothing on that path re-validates them).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> (&[u8], Language, &[u8]) {
        let start = if i == 0 { 0 } else { self.text_ends[i - 1] };
        (
            &self.texts[start..self.text_ends[i]],
            self.languages[i],
            self.phonemes.row(i),
        )
    }

    /// Empty the chunk, keeping its buffers.
    pub fn clear(&mut self) {
        self.languages.clear();
        self.texts.clear();
        self.text_ends.clear();
        self.phonemes.clear();
    }
}

/// What a store's rows cost it, in bytes ([`NameStore::memory`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Memory {
    /// The arenas and offsets the store allocated, by capacity.
    pub owned: usize,
    /// Image bytes its base rows occupy.
    pub mapped: usize,
    /// The index arrays of the q-gram, phonetic-index and BK-tree paths
    /// (0 for one never declared).
    pub indices: [usize; 3],
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

/// A q-gram length no index can be built at (see [`BuildSpec::qgram`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadGramLength(pub usize);

impl std::fmt::Display for BadGramLength {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q-gram length {} is outside 1..={MAX_Q}", self.0)
    }
}

impl std::error::Error for BadGramLength {}

impl BuildSpec {
    /// The q-gram spec for gram length `q` — the one door a `q` from
    /// outside the program (the wire, a log, an image, a JSON snapshot)
    /// comes in through: a length [`QgramFilter`] would refuse to build
    /// at is an error here, before anything is logged or applied.
    pub fn qgram(q: usize, mode: QgramMode) -> Result<Self, BadGramLength> {
        if (1..=MAX_Q).contains(&q) {
            Ok(BuildSpec::Qgram { q, mode })
        } else {
            Err(BadGramLength(q))
        }
    }

    /// The access path this spec serves.
    pub fn method(self) -> SearchMethod {
        match self {
            BuildSpec::Qgram { .. } => SearchMethod::Qgram,
            BuildSpec::PhoneticIndex => SearchMethod::PhoneticIndex,
            BuildSpec::BkTree => SearchMethod::BkTree,
        }
    }

    /// The row column this spec's index is keyed on: the cluster strings —
    /// the paper's grouped phoneme string — for every path but the q-gram
    /// filter as the paper ran it, over the phonemes themselves.
    pub fn key(self) -> KeyColumn {
        match self {
            BuildSpec::Qgram {
                mode: QgramMode::PaperFaithful,
                ..
            } => KeyColumn::Phonemes,
            _ => KeyColumn::Clusters,
        }
    }
}

/// One access path's index over the first [`covered`](Self::covered) rows
/// of the column it is keyed on ([`BuildSpec::key`]). Rows never change
/// once appended, so an index built from any copy of a prefix — on any
/// thread — is the index of that prefix for good; [`NameStore::install`]
/// adopts it.
pub enum PathIndex {
    /// See [`QgramFilter`].
    Qgram(QgramFilter),
    /// See [`PhoneticIndex`].
    PhoneticIndex(PhoneticIndex),
    /// Ids keyed on their cluster strings under integer Levenshtein
    /// distance (the clustered distance is not integer-valued; the cluster
    /// strings' Levenshtein distance bounds it from below, see
    /// `NameStore::candidates`).
    BkTree(BkTree),
}

impl PathIndex {
    /// Build `spec`'s index over rows `0..rows` of its key column
    /// (`row(i)`: row `i`'s string in [`spec.key()`](BuildSpec::key), as
    /// [`NameStore::read_keys`] copies it) under the cluster table
    /// `clusters`.
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
/// re-cover: its tail holds at least `RECOVER_FLOOR` rows and a quarter
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
/// The rows are flat columns ([`crate::rows`]): an optional immutable base
/// read in place out of a snapshot image, and an owned tail every append
/// goes to. Everything that reads a row reads it through
/// [`rows`](Self::rows), so no answer depends on which segment holds it.
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
    /// Shared with whoever else reads or writes these rows (a serving
    /// store's loaders and snapshot writers): its tables are built once.
    operator: Arc<LexEqual>,
    columns: Columns,
    /// The declared paths' indices, each over a prefix of the rows.
    qgram: Option<QgramFilter>,
    phonidx: Option<PhoneticIndex>,
    bktree: Option<BkTree>,
    /// Row-shaped copies of two columns, and the embeddings computed from
    /// them, for the `#[doc(hidden)]` benchmark views below; never filled
    /// on a serving path.
    views: OnceLock<RowViews>,
}

#[derive(Default)]
struct RowViews {
    phonemes: Vec<PhonemeString>,
    clusters: Vec<Vec<u8>>,
    embeds: Vec<[u8; EMBED_DIM]>,
}

impl NameStore {
    /// Create an empty store with the given configuration.
    pub fn new(config: MatchConfig) -> Self {
        Self::sharing(Arc::new(LexEqual::new(config)), None)
    }

    /// Create a store whose first rows are `base`'s, read where they lie.
    /// The caller vouches for them: every phoneme byte must be an inventory
    /// id (the image loader checks).
    pub fn with_base(config: MatchConfig, base: Base) -> Self {
        Self::sharing(Arc::new(LexEqual::new(config)), Some(base))
    }

    /// Create a store around an operator built elsewhere — empty, or over
    /// `base` as [`with_base`](Self::with_base) is.
    pub fn sharing(operator: Arc<LexEqual>, base: Option<Base>) -> Self {
        NameStore {
            operator,
            columns: base.map_or_else(Columns::default, Columns::with_base),
            qgram: None,
            phonidx: None,
            bktree: None,
            views: OnceLock::new(),
        }
    }

    /// The operator (for direct predicate access).
    pub fn operator(&self) -> &LexEqual {
        &self.operator
    }

    /// Number of stored names.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows, resolved for reading: `rows().row(i)` is row `i` as
    /// `(text, language, phonemes)`, in place.
    pub fn rows(&self) -> Rows<'_> {
        self.columns.rows()
    }

    fn row(&self, id: u32) -> Option<Row<'_>> {
        ((id as usize) < self.len()).then(|| self.rows().row(id as usize))
    }

    /// Entry by id, materialized.
    pub fn get(&self, id: u32) -> Option<NameEntry> {
        self.row(id).map(|row| NameEntry {
            text: row.text().to_owned(),
            language: row.language,
            phonemes: phoneme_string(row.phonemes),
        })
    }

    /// Entry text by id, in place — no materialization.
    pub fn text(&self, id: u32) -> Option<&str> {
        self.row(id).map(|row| row.text())
    }

    /// Insert a name; returns its id.
    pub fn insert(&mut self, text: &str, language: Language) -> Result<u32, G2pError> {
        self.extend([(text.to_owned(), language)]).map(|r| r.start)
    }

    /// Bulk-load names; returns the contiguous id range assigned.
    ///
    /// All rows are transformed *first*, so a G2P failure on any row — or
    /// one too long to store — leaves the store unchanged.
    pub fn extend(
        &mut self,
        rows: impl IntoIterator<Item = (String, Language)>,
    ) -> Result<Range<u32>, G2pError> {
        let entries = rows
            .into_iter()
            .map(|(text, language)| {
                let phonemes = self.operator.transform(&text, language)?;
                NameEntry::new(text, language, phonemes)
            })
            .collect::<Result<Vec<_>, G2pError>>()?;
        Ok(self.extend_transformed(entries))
    }

    /// Bulk-load pre-transformed entries, a chunk at a time through
    /// [`append_rows`](Self::append_rows); returns the contiguous id range
    /// assigned.
    ///
    /// # Panics
    ///
    /// Panics at an entry too long to store (one built around
    /// [`NameEntry::new`]); the entries before it are in.
    pub fn extend_transformed(&mut self, entries: Vec<NameEntry>) -> Range<u32> {
        let start = self.len() as u32;
        let size = |part: &[NameEntry]| {
            let mut size = LoadSize::default();
            for e in part {
                size.add(e.text.len(), e.phonemes.len());
            }
            size
        };
        let mut load = size(&entries);
        let mut chunk = RowChunk::default();
        for part in entries.chunks(CHUNK_ROWS) {
            chunk.clear();
            chunk.reserve(size(part));
            for e in part {
                chunk
                    .push(&[&e.text], e.language, &[&e.phonemes])
                    .expect("an entry passes NameEntry::new");
            }
            self.append_rows(&chunk, std::mem::take(&mut load));
        }
        start..self.len() as u32
    }

    /// Append `chunk`'s rows — the one way in, whatever the source: the
    /// only place the columns grow. `load` is everything the load this
    /// chunk begins will append here, this chunk included: the columns are sized for it now, once (doubling their
    /// way up would leave freed buffers half their size behind in the
    /// heap). Returns the contiguous id range assigned.
    pub fn append_rows(&mut self, chunk: &RowChunk, load: LoadSize) -> Range<u32> {
        let start = self.len() as u32;
        self.views = OnceLock::new();
        let held = chunk.size();
        self.columns.reserve(
            load.rows.max(held.rows),
            load.text_bytes.max(held.text_bytes),
            load.phoneme_bytes.max(held.phoneme_bytes),
        );
        // Texts went in as `&str` parts, or came out of a store's rows.
        let texts = std::str::from_utf8(&chunk.texts).expect("a chunk's texts are UTF-8");
        let mut text_start = 0;
        for (i, &text_end) in chunk.text_ends.iter().enumerate() {
            let (text, ids) = (&texts[text_start..text_end], chunk.phonemes.row(i));
            self.columns.push(text, chunk.languages[i], ids);
            text_start = text_end;
        }
        start..self.len() as u32
    }

    /// What the rows cost this store. Exact for a given history of loads
    /// and covers.
    pub fn memory(&self) -> Memory {
        Memory {
            owned: self.columns.owned_bytes(),
            mapped: self.columns.mapped_bytes(),
            indices: [
                self.qgram.as_ref().map_or(0, QgramFilter::heap_bytes),
                self.phonidx.as_ref().map_or(0, PhoneticIndex::heap_bytes),
                self.bktree.as_ref().map_or(0, BkTree::heap_bytes),
            ],
        }
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

    /// The declared paths [due a re-cover](cover_due).
    pub fn due_paths(&self) -> impl Iterator<Item = SearchMethod> + '_ {
        self.paths()
            .filter(|&(_, covered)| cover_due(covered, self.len()))
            .map(|(spec, _)| spec.method())
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

    /// Declare `spec`'s path and cover every row, here and now, from a
    /// copy of its key column ([`read_keys`](Self::read_keys)).
    pub fn build(&mut self, spec: BuildSpec) {
        let rows = self.len();
        if !self.paths().any(|path| path == (spec, rows)) {
            let mut keys = SymbolColumn::default();
            keys.reset(rows, self.prefix_bytes(rows).1);
            self.read_keys(spec.key(), 0..rows, &mut keys);
            let row = |id: usize| keys.row(id);
            self.put(PathIndex::build(spec, self.clusters(), rows, row));
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
    /// over cluster strings).
    pub fn build_bktree(&mut self) {
        self.build(BuildSpec::BkTree);
    }

    /// The rows `method`'s path asks the verifier about for `query` at
    /// threshold `e`; `None` means every row (a scan).
    ///
    /// The two sound paths answer with one set, a function of the rows,
    /// the query and `e` alone: the rows inside the length filter whose
    /// cluster string lies within [`LexEqual::cluster_radius`] unit edits
    /// of the query's. The BK-tree enumerates it by its walk, the q-gram
    /// filter (under `Strict`) by confirming its count filter's survivors
    /// with the walk's probe, and a row past either index is put to that
    /// probe directly. The probe reads each row's phoneme ids as its
    /// cluster string ([`PreparedQuery::cluster_probe`]), so both indices,
    /// built over cluster strings, are walked and confirmed over the
    /// phoneme column. The two lossy paths — the phonetic index, and the
    /// q-gram filter as the paper ran it — answer with their index's
    /// candidates over the covered prefix, then the tail rows their own
    /// pair-wise rule admits.
    ///
    /// # Panics
    ///
    /// Panics if the path was never declared.
    fn candidates(&self, query: &PreparedQuery, e: f64, method: SearchMethod) -> Option<Vec<u32>> {
        let undeclared = || -> ! { panic!("the {method:?} access path was never declared") };
        let rows = self.rows();
        let n = rows.len();
        let phonemes = |id: usize| rows.row(id).phonemes;
        let q = query.phonemes();
        // Budget depends on the candidate: e · min(|q|, |c|). Filter with
        // the largest possible budget (e · |q|) to stay conservative; each
        // is verified with its own.
        let k_max = e * q.len() as f64;
        let radius = self.operator.cluster_radius(k_max);
        match method {
            SearchMethod::Scan => None,
            SearchMethod::Qgram => {
                let f = self.qgram.as_ref().unwrap_or_else(|| undeclared());
                Some(match f.mode() {
                    QgramMode::Strict => {
                        let probe = &query.cluster_probe();
                        f.within(query.cluster_ids(), k_max, radius, probe, n, phonemes)
                    }
                    QgramMode::PaperFaithful => {
                        f.candidates_with_tail(q, k_max, &self.operator, n, phonemes)
                    }
                })
            }
            SearchMethod::PhoneticIndex => {
                let idx = self.phonidx.as_ref().unwrap_or_else(|| undeclared());
                let key = grouped_id_of_clusters(self.clusters(), query.cluster_ids());
                Some(idx.candidates_with_tail(key, self.clusters(), n, phonemes))
            }
            SearchMethod::BkTree => {
                let t = self.bktree.as_ref().unwrap_or_else(|| undeclared());
                let key = |id: u32| phonemes(id as usize);
                let mut out = Vec::new();
                t.walk(key, &query.cluster_probe(), radius, n as u32, |id, _| {
                    if length_filter_passes(key(id).len(), q.len(), k_max) {
                        out.push(id);
                    }
                });
                Some(out)
            }
        }
    }

    /// Search for names phonetically equal to `query` (in `language`)
    /// within threshold `e`, via the chosen access path: the text entry
    /// point, which transforms the query and then runs
    /// [`search_phonemes`](Self::search_phonemes).
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

    /// Search with a pre-transformed query, one candidate at a time
    /// through the scalar [`Verifier`]: the reference the served path,
    /// [`search_phonemes_batched`](Self::search_phonemes_batched), is held
    /// to — same ids, same verification count — by the differential
    /// suites and the benchmark's oracle.
    ///
    /// # Panics
    ///
    /// Panics if the chosen access path has not been declared.
    pub fn search_phonemes(&self, q: &PhonemeString, e: f64, method: SearchMethod) -> SearchResult {
        let prepared = self.operator.prepare_query(q);
        let mut verifier = Verifier::new();
        let rows = self.rows();
        let mut matches = |id: &u32| {
            let cand = rows.row(*id as usize).phonemes;
            verifier.matches_ids(&self.operator, &prepared, cand, e)
        };
        match self.candidates(&prepared, e, method) {
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

    /// [`search_phonemes`](Self::search_phonemes) through the batched
    /// kernel — the path a served search takes: the access path produces
    /// candidate ids as before, and one [`BatchVerifier::verify_rows`] call
    /// disposes of them in width-sized interleaved steps. Hits and
    /// verification counts are bit-for-bit identical to the
    /// pair-at-a-time reference on every method.
    pub fn search_phonemes_batched(
        &self,
        q: &PhonemeString,
        e: f64,
        method: SearchMethod,
        verifier: &mut BatchVerifier,
    ) -> SearchResult {
        let prepared = self.operator.prepare_query(q);
        let mut ids = Vec::new();
        let verifications = match self.candidates(&prepared, e, method) {
            None => self.verify_ids(verifier, &prepared, 0..self.len() as u32, e, &mut ids),
            Some(candidates) => self.verify_ids(verifier, &prepared, candidates, e, &mut ids),
        };
        // Only the BK-tree walk yields ids out of order.
        ids.sort_unstable();
        SearchResult { ids, verifications }
    }

    /// Verify `candidates` against `query` through the batched kernel,
    /// pushing the ids that match onto `hits` in candidate order; returns
    /// the number verified.
    pub fn verify_ids(
        &self,
        verifier: &mut BatchVerifier,
        query: &PreparedQuery,
        candidates: impl IntoIterator<Item = u32>,
        e: f64,
        hits: &mut Vec<u32>,
    ) -> usize {
        let rows = self.rows();
        let lane = |id: u32| rows.row(id as usize).phonemes;
        verifier.verify_rows(&self.operator, query, lane, candidates, e, hits)
    }

    /// `(text bytes, phoneme bytes)` held by rows `0..rows` — the
    /// lengths-only pass a streaming snapshot writer lays its arenas out
    /// from before it copies a single row.
    pub fn prefix_bytes(&self, rows: usize) -> (usize, usize) {
        let all = self.rows();
        (0..rows).map(|i| all.row(i)).fold((0, 0), |(t, p), row| {
            (t + row.text_bytes().len(), p + row.phonemes.len())
        })
    }

    /// Copy rows `rows` into `out`'s flat buffers, replacing what it
    /// held — the export side of snapshot persistence. `out` keeps its
    /// allocations, so a caller that hands the same chunk back for every
    /// range copies a whole store without a per-row allocation.
    pub fn read_rows(&self, rows: Range<usize>, out: &mut RowChunk) {
        out.clear();
        let all = self.rows();
        for row in rows.map(|i| all.row(i)) {
            out.languages.push(row.language);
            out.texts.extend_from_slice(row.text_bytes());
            out.text_ends.push(out.texts.len());
            out.phonemes.push(row.phonemes);
        }
    }

    /// Append rows `rows`' strings in `column` to `out` — the phoneme ids,
    /// or the cluster ids they map to through the operator's
    /// [`class_map`](LexEqual::class_map). How every index build copies
    /// the prefix it will index: [`build`](Self::build) in one call, a
    /// background cover a chunk of rows a call.
    pub fn read_keys(&self, column: KeyColumn, rows: Range<usize>, out: &mut SymbolColumn) {
        let all = self.rows();
        let class = self.operator.class_map();
        for phonemes in rows.map(|i| all.row(i).phonemes) {
            match column {
                KeyColumn::Phonemes => out.push(phonemes),
                KeyColumn::Clusters => out.push_mapped(phonemes, class),
            }
        }
    }

    /// The three row-shaped views below, made from the flat columns on
    /// first use and dropped by the next append.
    fn views(&self) -> &RowViews {
        self.views.get_or_init(|| {
            let rows = self.rows();
            let mut views = RowViews::default();
            let class = self.operator.class_map();
            for phonemes in (0..rows.len()).map(|i| rows.row(i).phonemes) {
                let clusters: Vec<u8> = phonemes.iter().map(|&p| class[p as usize]).collect();
                views.phonemes.push(phoneme_string(phonemes));
                views.embeds.push(embed_clustered(phonemes, &clusters));
                views.clusters.push(clusters);
            }
            views
        })
    }

    /// Per-string cluster-id vectors, parallel to
    /// [`phoneme_strings`](Self::phoneme_strings): computed from the
    /// phoneme column on first call, one heap block a row — for the
    /// benchmark's kernel replay, never for serving. No kernel reads them
    /// (the cluster screen reads phoneme ids through the remapped query
    /// pattern); goes with ROADMAP item 2a.
    #[doc(hidden)]
    pub fn cluster_id_vectors(&self) -> &[Vec<u8>] {
        &self.views().clusters
    }

    /// Per-string embedding vectors, parallel to
    /// [`phoneme_strings`](Self::phoneme_strings), computed from the
    /// phoneme column on first call. No row stores one and no
    /// kernel reads one (DESIGN §5j); kept only for the benchmark's kernel
    /// replay, and goes with ROADMAP item 2.
    #[doc(hidden)]
    pub fn embed_vectors(&self) -> &[[u8; EMBED_DIM]] {
        &self.views().embeds
    }

    /// The phoneme strings; a copy made on first call, as
    /// [`cluster_id_vectors`](Self::cluster_id_vectors) is.
    #[doc(hidden)]
    pub fn phoneme_strings(&self) -> &[PhonemeString] {
        &self.views().phonemes
    }
}

/// A stored row's inventory ids as a [`PhonemeString`].
fn phoneme_string(ids: &[u8]) -> PhonemeString {
    let phoneme = |&id| Phoneme::from_id(id).expect("stored phoneme ids are inventory ids");
    ids.iter().map(phoneme).collect()
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
        // Both kernels (screens + dense DP + scratch), the scalar reference
        // and the served batched one, must reproduce the raw
        // `matches_phonemes` decision bit-for-bit on every access path;
        // the phonetic index may dismiss but never diverge on what it
        // verifies.
        let s = store();
        let mut batch = BatchVerifier::new();
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
                    let r = s.search_phonemes(&q, e, method);
                    assert_eq!(r.ids, reference, "{query} e={e} {method:?}");
                    let b = s.search_phonemes_batched(&q, e, method, &mut batch);
                    assert_eq!(b, r, "{query} e={e} {method:?} batched");
                }
                let pi = s.search_phonemes(&q, e, SearchMethod::PhoneticIndex);
                for id in &pi.ids {
                    assert!(reference.contains(id), "{query} e={e} index false positive");
                }
                let method = SearchMethod::PhoneticIndex;
                assert_eq!(s.search_phonemes_batched(&q, e, method, &mut batch), pi);
            }
        }
        let c = batch.counters();
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
                    (e.text.as_bytes(), e.language, e.phonemes.id_bytes()),
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

    /// The write face is the read face run backwards: rows pushed as parts
    /// append as the rows `insert` stores, a chunk read out of one store
    /// appends to another as it is, and a row too long to store is refused
    /// at the push, leaving the chunk as it was.
    #[test]
    fn a_chunk_takes_parts_and_appends_what_insert_stores() {
        let full = store();
        let mut chunk = RowChunk::default();
        for id in 0..3 {
            let e = full.get(id).unwrap();
            let cut = e.text.char_indices().nth(1).map_or(0, |(at, _)| at);
            let (head, tail) = e.text.split_at(cut);
            let ids = e.phonemes.as_slice();
            let (front, back) = ids.split_at(ids.len() / 2);
            let parts = [front, back].map(|p| p.iter().copied().collect::<PhonemeString>());
            chunk
                .push(&[head, tail], e.language, &[&parts[0], &parts[1]])
                .unwrap();
        }
        let limit = crate::rows::MAX_FIELD_BYTES;
        let long = "x".repeat(limit / 2 + 1);
        let before = chunk.size();
        let err = chunk.push(&[&long, &long], Language::English, &[]);
        let bytes = 2 * (limit / 2 + 1);
        assert_eq!(err, Err(G2pError::TooLong { bytes, limit }));
        assert_eq!((chunk.size(), chunk.len()), (before, 3));

        let mut copy = NameStore::new(MatchConfig::default());
        assert_eq!(copy.append_rows(&chunk, LoadSize::default()), 0..3);
        // The rest straight out of the other store, two rows a chunk.
        for first in (3..7).step_by(2) {
            full.read_rows(first..first + 2, &mut chunk);
            let ids = copy.append_rows(&chunk, LoadSize::default());
            assert_eq!(ids, first as u32..first as u32 + 2);
        }
        assert_eq!(copy.append_rows(&RowChunk::default(), chunk.size()), 7..7);
        for id in 0..7 {
            let (a, b) = (full.rows().row(id), copy.rows().row(id));
            assert_eq!(
                (a.text(), a.language, a.phonemes),
                (b.text(), b.language, b.phonemes),
                "id {id}"
            );
        }
    }

    /// A store over a base and a tail reads — entries, row chunks, phoneme
    /// columns, byte counts, answers — as the tail-only store holding the
    /// same rows does, wherever a range starts or ends.
    #[test]
    fn reads_and_searches_cross_the_base_tail_seam() {
        let full = store();
        let mut seed = NameStore::new(MatchConfig::default());
        seed.extend_transformed((0..4).map(|i| full.get(i).unwrap()).collect());
        let (image, layout) = crate::rows::tests::image_of(seed.rows());
        let base = Base::new(image, layout).expect("a framed image");
        let mut seamed = NameStore::with_base(MatchConfig::default(), base);
        assert_eq!(
            seamed.memory().owned,
            0,
            "adopting a base allocates no column"
        );
        seamed.extend_transformed((4..7).map(|i| full.get(i).unwrap()).collect());
        let Memory { owned, mapped, .. } = seamed.memory();
        assert!(owned > 0 && mapped > 0 && full.memory().mapped == 0);

        assert_eq!(seamed.len(), 7);
        for id in 0..8 {
            let (a, b) = (full.get(id), seamed.get(id));
            assert_eq!(a.is_some(), id < 7);
            assert_eq!(
                a.map(|e| (e.text, e.phonemes)),
                b.map(|e| (e.text, e.phonemes))
            );
            assert_eq!(full.text(id), seamed.text(id));
        }
        let (mut want, mut got) = (RowChunk::default(), RowChunk::default());
        for range in [0..7, 0..4, 2..6, 3..4, 3..5, 4..5, 4..7, 5..5] {
            full.read_rows(range.clone(), &mut want);
            seamed.read_rows(range.clone(), &mut got);
            assert_eq!(got.len(), range.len());
            for i in 0..range.len() {
                assert_eq!(got.row(i), want.row(i), "{range:?} row {i}");
            }
            for column in [KeyColumn::Phonemes, KeyColumn::Clusters] {
                let (mut want, mut got) = (SymbolColumn::default(), SymbolColumn::default());
                full.read_keys(column, range.clone(), &mut want);
                seamed.read_keys(column, range.clone(), &mut got);
                assert_eq!(got.len(), range.len());
                let op = full.operator();
                for (i, id) in range.clone().enumerate() {
                    assert_eq!(got.row(i), want.row(i), "{range:?} {column:?} {i}");
                    let e = full.get(id as u32).unwrap();
                    let key = match column {
                        KeyColumn::Phonemes => e.phonemes.id_bytes().to_vec(),
                        KeyColumn::Clusters => op.cluster_ids(&e.phonemes),
                    };
                    assert_eq!(got.row(i), key);
                }
            }
        }
        for rows in 0..=7 {
            assert_eq!(seamed.prefix_bytes(rows), full.prefix_bytes(rows), "{rows}");
        }

        for (spec, _) in full.coverage() {
            seamed.declare(spec);
        }
        let mut batched = BatchVerifier::new();
        for covered in [false, true] {
            for query in ["Nehru", "Nero", "Gandhi", "Krishnan", "Bose"] {
                let q = full.operator().transform(query, Language::English).unwrap();
                for method in [
                    SearchMethod::Scan,
                    SearchMethod::Qgram,
                    SearchMethod::PhoneticIndex,
                    SearchMethod::BkTree,
                ] {
                    for e in [0.0, 0.3, 0.45] {
                        let want = full.search_phonemes(&q, e, method);
                        let what = format!("{query} {e} {method:?} covered={covered}");
                        assert_eq!(seamed.search_phonemes(&q, e, method), want, "{what}");
                        let got = seamed.search_phonemes_batched(&q, e, method, &mut batched);
                        assert_eq!(got, want, "{what} batched");
                    }
                }
            }
            for (spec, _) in full.coverage() {
                seamed.build(spec);
            }
        }
        assert_eq!(seamed.memory().indices, full.memory().indices);
        assert!(full.memory().indices.iter().all(|&bytes| bytes > 0));
    }

    #[test]
    fn a_row_too_long_to_save_is_refused_and_the_batch_with_it() {
        let mut s = NameStore::new(MatchConfig::default());
        // `x` is /ks/ (/z/ up front), so n of them are 2n − 1 phonemes:
        // the text fits the limit, its phonemes do not.
        let limit = crate::rows::MAX_FIELD_BYTES;
        let long = "x".repeat(limit / 2 + 2);
        let err = s.extend([
            ("Nehru".to_owned(), Language::English),
            (long.clone(), Language::English),
        ]);
        let bytes = limit + 2;
        assert_eq!(err, Err(G2pError::TooLong { bytes, limit }));
        assert!(s.is_empty());
        // At the limit a row is stored, and read back whole.
        let fits = &long[1..];
        assert_eq!(s.insert(fits, Language::English), Ok(0));
        assert_eq!(s.rows().row(0).phonemes.len(), limit);
        assert_eq!(s.text(0), Some(fits));
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
        assert_eq!(
            grown.due_paths().count(),
            0,
            "two rows are far below the floor"
        );
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
        let cover = |spec: BuildSpec, rows: usize| {
            let mut keys = SymbolColumn::default();
            s.read_keys(spec.key(), 0..rows, &mut keys);
            PathIndex::build(spec, &clusters, rows, |id| keys.row(id))
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
        let due = |s: &NameStore| s.due_paths().collect::<Vec<_>>();
        assert_eq!(due(&s), [], "nothing declared");
        s.declare(BuildSpec::PhoneticIndex);
        assert_eq!(due(&s), []);
        s.extend_transformed(vec![name(0)]);
        assert_eq!(
            due(&s),
            [SearchMethod::PhoneticIndex],
            "the whole store is tail, and it is 4096 rows"
        );
        s.build_phonetic_index();
        s.extend_transformed((0..RECOVER_FLOOR - 1).map(name).collect());
        assert_eq!(due(&s), [], "a quarter of 4096 is under the floor");
        s.extend_transformed((0..RECOVER_FLOOR * 4 + 1).map(name).collect());
        s.build_phonetic_index();
        assert_eq!(s.coverage(), [(BuildSpec::PhoneticIndex, 24_576)]);
        s.extend_transformed((0..24_576 / 4 - 1).map(name).collect());
        assert_eq!(due(&s), []);
        s.extend_transformed(vec![name(1)]);
        assert_eq!(
            due(&s),
            [SearchMethod::PhoneticIndex],
            "a quarter of 24 576"
        );
    }
}
