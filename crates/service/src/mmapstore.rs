//! The snapshot image: the one persistent form of a sharded store.
//!
//! The paper's systems claim is that LexEQUAL matching runs over
//! *persistent* database structures, not throwaway in-memory ones (§2.3,
//! contrasting Zobel & Dart's in-memory evaluation). This module is that
//! boundary for the serving layer, and the only one: `SAVE`, the
//! compaction checkpoint, `--snapshot` and a replica's seed all write or
//! read the image below, and nothing else in the crate knows what a
//! snapshot's bytes look like. It is an offset-based binary image where
//! **the file is the runtime representation**: all entry data (texts,
//! languages, phoneme strings, cluster-id vectors) lives in aligned,
//! length-prefixed arenas addressed by relative offsets. Loading is
//! `mmap` + one validation pass; each shard then reads its stripe of the
//! rows where they lie (`lexequal::rows::Base`): no parse, no heap
//! allocation or reference count a row, no copy. Replica seeding ships
//! these same bytes verbatim and the replica serves straight out of the
//! transfer buffer.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "LEXEQMM1"
//!      8     4  format version (2)
//!     12     4  endianness tag (= 0x01020304; a big-endian writer
//!               would produce 0x04030201, rejected on load)
//!     16     4  shard count N
//!     20     4  entry count E
//!     24     8  covered LSN
//!     32     4  section count (6)
//!     36     4  reserved (0)
//!     40  S×24  section table: S × { offset u64, len u64, checksum u64 }
//!               (checksum: FNV-1a folded over LE u64 words, zero-padded
//!               tail — 8 bytes per round so whole-file validation fits
//!               the cold-start budget)
//!   40+S×24     sections, each 8-byte aligned, zero-padded between:
//!               [0] build specs   8 bytes each { tag, q, mode, pad[5] }
//!               [1] entry table  16 bytes each (see below)
//!               [2] text arena    UTF-8 bytes
//!               [3] phoneme arena raw inventory ids
//!               [4] cluster arena cluster ids, parallel to [3]
//!               [5] embed arena   E × EMBED_DIM bytes, entry g's
//!                   phonetic embedding at g·EMBED_DIM
//! ```
//!
//! Version 1 (five sections, no embedding arena) was never written
//! outside tests and is no longer read: a header tagged with it is the
//! `unsupported format version` error.
//!
//! One entry-table record (16 bytes, `lexequal::rows::EntryRecord`):
//!
//! ```text
//! { text_off u32, phon_off u32, text_len u16, phon_len u16,
//!   language u8 (index into Language::ALL), pad[3] }
//! ```
//!
//! Offsets are relative to their arena's start. The cluster arena is
//! parallel to the phoneme arena byte-for-byte (one cluster id per
//! phoneme id), so entry records address both with the same
//! `(phon_off, phon_len)` window.
//!
//! Entries are stored in **global-id order**. Shard striping is the
//! pure function `g % N` / `g / N` (see [`crate::shard`]), so the
//! loader reconstructs each shard's rows without any per-shard
//! sections, and the writer reads the rows back in global order through
//! the store's chunked prefix reader.
//!
//! # Streaming writer
//!
//! [`write_image`] never holds the corpus: it takes a [`Cut`] (a row
//! count, not a copy), sizes the six sections from a lengths-only pass
//! on the shard workers, then pulls the prefix a fixed 1024 rows at a
//! time and writes each chunk's slice of every section at its final
//! offset, folding a running checksum per section; the header goes in
//! last. Transient memory is one chunk plus five small output buffers,
//! whatever the corpus size, and no store lock is held at any point —
//! rows below a published length never change (DESIGN §5m).
//!
//! # Hostile-file discipline
//!
//! Nothing in the image is trusted: header fields, section windows
//! (bounds, 8-byte alignment, FNV-1a checksums) and every per-entry
//! offset are validated against the mapping before the first
//! dereference, and all reads go through `from_le_bytes` on bounds-
//! checked subslices — no pointer-cast struct reads, no alignment UB,
//! no panics. A corrupt file — or one that is not an image at all —
//! comes back as a named [`ImageError`], never a crash
//! (`tests/mmap_corruption.rs` is the battery).

use crate::shard::{BuildSpec, Cut, ShardedStore, CHUNK_ROWS, MAX_SHARDS};
use lexequal::rows::{Base, EntryRecord, ImageBytes, ImageLayout};
use lexequal::{Language, LexEqual, MatchConfig, Phoneme, QgramMode, EMBED_DIM};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First eight bytes of every binary snapshot.
pub const MAGIC: [u8; 8] = *b"LEXEQMM1";
/// The format version, written and read.
pub const FORMAT_VERSION: u32 = 2;
/// Endianness canary: reads back as written only on a same-endian host.
const ENDIAN_TAG: u32 = 0x0102_0304;
/// Sections in an image: specs, entries, texts, phonemes, clusters,
/// embeddings.
const SECTIONS: usize = 6;
/// Bytes before the first section; also the up-front length gate.
pub(crate) const HEADER_LEN: usize = 40 + SECTIONS * 24;
/// Bytes per build-spec record.
const SPEC_RECORD: usize = 8;

/// Why an image could not be written, read or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The bytes are not a valid image (bad magic, a failed checksum, an
    /// out-of-bounds window, a foreign cost model), or could not be read
    /// or written at all.
    Parse(String),
    /// A well-formed image this load cannot take: the shard-pin
    /// contract, or a file that cannot be opened.
    Unsupported(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ImageError::Parse(what) | ImageError::Unsupported(what)) = self;
        f.write_str(what)
    }
}

impl std::error::Error for ImageError {}

fn err(what: impl std::fmt::Display) -> ImageError {
    ImageError::Parse(format!("mmap snapshot: {what}"))
}

/// What a file or transfer that is not an image is.
pub(crate) fn bad_magic() -> ImageError {
    err("bad magic (not a binary snapshot)")
}

/// Raw `mmap`/`munmap`/`flock` shims. `std` links libc, so these
/// symbols are always available; declaring them here keeps the
/// workspace dependency-free (same pattern as the epoll shims in
/// [`crate::event_loop`]).
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_SHARED: c_int = 0x01;
    pub const LOCK_SH: c_int = 1;
    pub const LOCK_NB: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn flock(fd: c_int, operation: c_int) -> c_int;
    }
}

/// A read-only shared mapping of a snapshot file.
///
/// `MAP_SHARED` + `PROT_READ` means every process serving the same
/// snapshot shares one copy of the page cache, and pages fault in
/// lazily — load time is O(validation), not O(corpus).
///
/// # Truncation hazard
///
/// The header/offset/checksum validation defends against hostile file
/// *contents*, but no userspace check can defend against the file
/// **shrinking while mapped**: reads beyond the new EOF raise `SIGBUS`
/// and kill the process. The daemon's own save path never does this —
/// [`write_image_atomic`] writes a temp file and `rename`s it over the
/// target, so the mapped inode lives on unchanged — but an operator
/// truncating or rewriting the snapshot *in place* (`truncate`, `>`
/// redirection, `cp` onto it) would. As a tripwire for cooperating
/// tools, the mapping holds a shared advisory `flock` on the file for
/// its whole lifetime (best-effort; some filesystems don't support it):
/// `flock -x -n <snapshot>` fails while a daemon serves from it.
/// Replace a live snapshot only via rename (as `SAVE` does).
pub struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
    /// Keeps the mapped file's descriptor (and with it the advisory
    /// shared lock taken at map time) alive as long as the mapping.
    _file: File,
}

// SAFETY: the mapping is immutable (PROT_READ) and lives until Drop;
// the raw pointer is only ever read through `as_ref`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map an open file read-only in its entirety, taking (best-effort)
    /// a shared advisory lock on it for the mapping's lifetime — see
    /// the truncation hazard in the type docs.
    pub fn map(file: File) -> std::io::Result<Mmap> {
        use std::os::fd::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty file can
            // never be a valid snapshot anyway.
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "cannot map an empty file",
            ));
        }
        let len = usize::try_from(len)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::Unsupported, "file too large"))?;
        // Advisory only (cannot *stop* a truncate, which would SIGBUS
        // us) and best-effort (some filesystems reject flock): a shared
        // lock never blocks other readers, and the non-blocking probe
        // means an unsupported filesystem degrades to today's behavior
        // instead of failing the load.
        // SAFETY: fd is a valid open file; the result is only observed.
        unsafe {
            sys::flock(file.as_raw_fd(), sys::LOCK_SH | sys::LOCK_NB);
        }
        // SAFETY: fd is a valid open file, len is its nonzero size;
        // failures return MAP_FAILED which we check.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr,
            len,
            _file: file,
        })
    }

    /// Mapping size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a live mapping).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: ptr/len come from a successful mmap that lives until
        // Drop; the mapping is read-only.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: ptr/len are the exact values mmap returned.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

/// Whether a byte buffer starts with the binary-snapshot magic.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Minimal peek at an already-transferred image: `(covered LSN, entry
/// count)`. Validates only the fixed header prefix; `None` if the
/// buffer is not a plausible binary snapshot.
pub fn peek(bytes: &[u8]) -> Option<(u64, u32)> {
    if !is_binary(bytes) || bytes.len() < HEADER_LEN {
        return None;
    }
    let entries = u32::from_le_bytes(bytes[20..24].try_into().ok()?);
    let lsn = u64::from_le_bytes(bytes[24..32].try_into().ok()?);
    Some((lsn, entries))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn spec_to_record(spec: &BuildSpec) -> Result<[u8; SPEC_RECORD], ImageError> {
    let mut rec = [0u8; SPEC_RECORD];
    match spec {
        BuildSpec::Qgram { q, mode } => {
            rec[0] = 0;
            rec[1] = u8::try_from(*q).map_err(|_| err("q-gram length exceeds format limit"))?;
            rec[2] = match mode {
                QgramMode::Strict => 0,
                QgramMode::PaperFaithful => 1,
            };
        }
        BuildSpec::PhoneticIndex => rec[0] = 1,
        BuildSpec::BkTree => rec[0] = 2,
    }
    Ok(rec)
}

fn spec_from_record(rec: &[u8]) -> Result<BuildSpec, ImageError> {
    match rec[0] {
        0 => {
            let mode = match rec[2] {
                0 => QgramMode::Strict,
                1 => QgramMode::PaperFaithful,
                m => return Err(err(format!("unknown q-gram mode {m}"))),
            };
            BuildSpec::qgram(rec[1] as usize, mode).map_err(|e| err(format!("build spec: {e}")))
        }
        1 => Ok(BuildSpec::PhoneticIndex),
        2 => Ok(BuildSpec::BkTree),
        t => Err(err(format!("unknown build-spec tag {t}"))),
    }
}

/// Section checksum: FNV-1a folded over little-endian u64 words, the
/// zero-padded tail as one final word. One multiply per 8 bytes instead
/// of per byte — every load checksums the whole file, so this pass has
/// to fit inside the cold-start budget. Padding is unambiguous because
/// the section length is stored (and verified) separately.
///
/// Incremental: the streaming writer feeds a section chunk by chunk, and
/// a chunk boundary need not fall on a word, so up to seven bytes carry
/// over between [`update`](Self::update) calls.
struct SectionSum {
    h: u64,
    carry: [u8; 8],
    carried: usize,
}

impl SectionSum {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        SectionSum {
            h: Self::BASIS,
            carry: [0; 8],
            carried: 0,
        }
    }

    fn word(&mut self, w: [u8; 8]) {
        self.h = (self.h ^ u64::from_le_bytes(w)).wrapping_mul(Self::PRIME);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.carried > 0 {
            let take = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            self.word(self.carry);
            self.carried = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(w.try_into().expect("8-byte chunk"));
        }
        let rem = words.remainder();
        self.carry[..rem.len()].copy_from_slice(rem);
        self.carried = rem.len();
    }

    fn finish(mut self) -> u64 {
        if self.carried > 0 {
            self.carry[self.carried..].fill(0);
            self.word(self.carry);
        }
        self.h
    }
}

fn section_checksum(bytes: &[u8]) -> u64 {
    let mut sum = SectionSum::new();
    sum.update(bytes);
    sum.finish()
}

/// Where [`write_image`] puts the image: positional writes into a
/// pre-sized target. A file and a `Vec<u8>` are the two real sinks;
/// tests substitute their own (a gate that blocks mid-file, a counter).
pub trait ImageSink {
    /// Size the target to exactly `len` bytes, zero-filled — called once,
    /// before the first write, so the alignment padding between sections
    /// never has to be written.
    fn preallocate(&mut self, len: u64) -> io::Result<()>;
    /// Write all of `bytes` at `offset` (inside the length set above).
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()>;
}

impl ImageSink for File {
    fn preallocate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(self, bytes, offset)
    }
}

impl ImageSink for Vec<u8> {
    fn preallocate(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(io::Error::other)?;
        self.clear();
        self.resize(len, 0);
        Ok(())
    }
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        usize::try_from(offset)
            .ok()
            .and_then(|at| self.get_mut(at..at.checked_add(bytes.len())?))
            .ok_or_else(|| io::Error::other("write past the image length"))?
            .copy_from_slice(bytes);
        Ok(())
    }
}

/// Index of each section in the table (and in file order).
const SPECS: usize = 0;
const ENTRIES: usize = 1;
const TEXTS: usize = 2;
const PHONEMES: usize = 3;
const CLUSTERS: usize = 4;
const EMBEDS: usize = 5;

/// One section while it is streamed: its window in the file, how much
/// of it has been written, and the checksum of that much.
struct SectionWriter {
    off: u64,
    len: u64,
    written: u64,
    sum: SectionSum,
}

impl SectionWriter {
    fn put(&mut self, sink: &mut impl ImageSink, bytes: &[u8]) -> io::Result<()> {
        self.sum.update(bytes);
        sink.write_at(self.off + self.written, bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }
}

/// The cluster id of every inventory id under `operator`'s cluster table
/// (`None` for a byte outside the inventory).
fn cluster_lut(operator: &LexEqual) -> [Option<u8>; 256] {
    let table = operator.cost_model().clusters();
    std::array::from_fn(|id| {
        let p = Phoneme::from_id(id as u8).ok()?;
        Some(table.cluster_of(p).0)
    })
}

/// Stream the store's rows `0..cut.rows` into `sink` as a binary
/// snapshot image covering `cut.lsn` and recording `cut.builds`; returns
/// the image length.
///
/// Reads the prefix through the store's chunked reader with no lock held
/// (commits, appends and index builds proceed meanwhile — rows below the
/// cut never change), so the image is the store exactly as it stood when
/// the cut was taken. Cluster ids and embeddings are recomputed from the
/// phonemes under the configured cost model, making the image
/// self-consistent by construction.
pub fn write_image(
    store: &ShardedStore,
    cut: &Cut,
    sink: &mut impl ImageSink,
) -> Result<u64, ImageError> {
    let io_err = |e: io::Error| err(format!("write image: {e}"));
    let shards =
        u32::try_from(store.shards()).map_err(|_| err("shard count exceeds format limit"))?;
    let entry_count =
        u32::try_from(cut.rows).map_err(|_| err("entry count exceeds format limit"))?;
    let mut specs = Vec::with_capacity(cut.builds.len() * SPEC_RECORD);
    for spec in &cut.builds {
        specs.extend_from_slice(&spec_to_record(spec)?);
    }

    // Lengths-only pass, then the layout: six sections, 8-byte aligned.
    let (text_bytes, phoneme_bytes) = store.prefix_bytes(cut.rows);
    let mut lens = [0usize; SECTIONS];
    lens[SPECS] = specs.len();
    lens[ENTRIES] = cut.rows * EntryRecord::BYTES;
    lens[TEXTS] = text_bytes;
    lens[PHONEMES] = phoneme_bytes;
    lens[CLUSTERS] = phoneme_bytes;
    lens[EMBEDS] = cut.rows * EMBED_DIM;
    let mut end = HEADER_LEN as u64;
    let mut sections = lens.map(|len| {
        let off = end.next_multiple_of(8);
        end = off + len as u64;
        SectionWriter {
            off,
            len: len as u64,
            written: 0,
            sum: SectionSum::new(),
        }
    });
    sink.preallocate(end).map_err(io_err)?;
    sections[SPECS].put(sink, &specs).map_err(io_err)?;

    // The rows, a chunk at a time: each chunk's slice of every arena is
    // assembled in five reused buffers and written at its final offset.
    let operator = store.operator();
    let lut = cluster_lut(operator);
    let chunk_rows = CHUNK_ROWS.min(cut.rows);
    let mut entries = Vec::with_capacity(chunk_rows * EntryRecord::BYTES);
    let mut embeds = Vec::with_capacity(chunk_rows * EMBED_DIM);
    let (mut texts, mut phonemes, mut clusters) = (Vec::new(), Vec::new(), Vec::new());
    let (mut text_off, mut phon_off) = (0usize, 0usize);
    let mut reader = store.prefix_reader(cut.rows);
    while let Some(chunk) = reader.next_chunk() {
        for buf in [
            &mut entries,
            &mut texts,
            &mut phonemes,
            &mut clusters,
            &mut embeds,
        ] {
            buf.clear();
        }
        for (text, language, phon) in chunk.rows() {
            // Neither length can exceed its field: every row came in past
            // `lexequal::rows::check_field_bytes`, which holds it to the
            // same limit.
            let record = EntryRecord {
                text_off: u32::try_from(text_off).map_err(|_| err("text arena exceeds 4 GiB"))?,
                phon_off: u32::try_from(phon_off)
                    .map_err(|_| err("phoneme arena exceeds 4 GiB"))?,
                text_len: u16::try_from(text.len())
                    .map_err(|_| err("entry text exceeds format limit"))?,
                phon_len: u16::try_from(phon.len())
                    .map_err(|_| err("entry phoneme string exceeds format limit"))?,
                language: Language::ALL
                    .iter()
                    .position(|l| *l == language)
                    .expect("every language is in Language::ALL") as u8,
            };
            texts.extend_from_slice(text);
            phonemes.extend_from_slice(phon);
            clusters.extend(
                phon.iter()
                    .map(|&p| lut[p as usize].expect("stored phoneme ids are inventory ids")),
            );
            embeds.extend_from_slice(&operator.embedder().embed_ids(phon));
            entries.extend_from_slice(&record.encode());
            text_off += text.len();
            phon_off += phon.len();
        }
        for (section, buf) in [
            (ENTRIES, &entries),
            (TEXTS, &texts),
            (PHONEMES, &phonemes),
            (CLUSTERS, &clusters),
            (EMBEDS, &embeds),
        ] {
            sections[section].put(sink, buf).map_err(io_err)?;
        }
    }

    // Every section must have come out exactly as long as it was laid
    // out; then the header and section table, last.
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    header[16..20].copy_from_slice(&shards.to_le_bytes());
    header[20..24].copy_from_slice(&entry_count.to_le_bytes());
    header[24..32].copy_from_slice(&cut.lsn.to_le_bytes());
    header[32..36].copy_from_slice(&(SECTIONS as u32).to_le_bytes());
    for (i, section) in sections.into_iter().enumerate() {
        if section.written != section.len {
            return Err(err(format!(
                "section {i} streamed {} bytes into a {}-byte window",
                section.written, section.len
            )));
        }
        let at = 40 + i * 24;
        header[at..at + 8].copy_from_slice(&section.off.to_le_bytes());
        header[at + 8..at + 16].copy_from_slice(&section.len.to_le_bytes());
        header[at + 16..at + 24].copy_from_slice(&section.sum.finish().to_le_bytes());
    }
    sink.write_at(0, &header).map_err(io_err)?;
    Ok(end)
}

/// Serialize the store as it stands into a binary snapshot image
/// covering `lsn`: [`write_image`] pointed at a `Vec`. The image is the
/// prefix the store had published when the call began; the caller makes
/// `lsn` exact for it by holding its own writes off for that instant
/// (the primary cuts under the commit lock and calls [`write_image`]).
pub fn encode(store: &ShardedStore, lsn: u64) -> Result<Vec<u8>, ImageError> {
    let mut image = Vec::new();
    write_image(store, &store.cut(lsn), &mut image)?;
    Ok(image)
}

/// Where a snapshot writer of this process stages `path`:
/// `<file name>.tmp.<pid>` beside it — the one pattern
/// [`remove_stale_tmp`] matches.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(tmp)
}

/// Run `write` on a fresh temp sibling of `path`, fsync it and rename it
/// over `path` — a reader (or a crash) never sees a half-written file;
/// on any error the temp file is removed.
fn write_atomic<T>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<T, ImageError>,
) -> Result<T, ImageError> {
    let tmp = tmp_sibling(path);
    let io_err = |e: io::Error| err(format!("write {}: {e}", path.display()));
    let result = (|| {
        let mut f = File::create(&tmp).map_err(io_err)?;
        let out = write(&mut f)?;
        f.sync_all().map_err(io_err)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(io_err)?;
        Ok(out)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Stream the cut of `store` to `path` atomically ([`write_image`] into
/// a temp file, fsync, rename); returns the image length.
pub fn write_file_atomic(
    store: &ShardedStore,
    cut: &Cut,
    path: impl AsRef<Path>,
) -> Result<u64, ImageError> {
    write_atomic(path.as_ref(), |f| write_image(store, cut, f))
}

/// Write an already-encoded image atomically (the replica seeding path
/// persists the transferred bytes verbatim).
pub fn write_image_atomic(image: &[u8], path: impl AsRef<Path>) -> Result<(), ImageError> {
    let path = path.as_ref();
    write_atomic(path, |f| {
        f.write_all(image)
            .map_err(|e| err(format!("write {}: {e}", path.display())))
    })
}

/// Remove the temp files dead writers left beside `path`: a process
/// killed mid-checkpoint never reaches its rename, and the next daemon
/// has another pid, so nothing else would ever delete its
/// `<file name>.tmp.<pid>`. A pid that still names a running process is left
/// alone, and so is everything on a host without `/proc`, where no pid
/// can be told dead. Returns what was removed.
pub fn remove_stale_tmp(path: impl AsRef<Path>) -> Vec<PathBuf> {
    let path = path.as_ref();
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if !Path::new("/proc/self").exists() {
        return Vec::new();
    }
    let Ok(listing) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut removed = Vec::new();
    for entry in listing.flatten() {
        let file = entry.file_name();
        let Some(pid) = file
            .to_str()
            .and_then(|f| f.strip_prefix(name)?.strip_prefix(".tmp."))
            .filter(|pid| !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit()))
        else {
            continue;
        };
        if Path::new("/proc").join(pid).exists() {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed.push(entry.path());
        }
    }
    removed
}

// ---------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------

/// A store loaded zero-copy from a binary snapshot image.
pub struct LoadedImage {
    /// The populated store: every shard reads its rows in place in the
    /// image (the mapping or the transfer buffer).
    pub store: ShardedStore,
    /// Access paths the image records. The loader declares them on the
    /// store — every one answers exactly at once (that's the O(1) cold
    /// start) — and covers none; callers decide whether to cover
    /// synchronously (tests, replicas) or in the background
    /// (`lexequald`).
    pub builds: Vec<BuildSpec>,
    /// The WAL LSN the image covers.
    pub lsn: u64,
    /// Image size in bytes (what was mapped or transferred).
    pub bytes: u64,
}

/// Little-endian reads over the image, every access bounds-checked so
/// hostile headers can never index out of the buffer.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&self, off: usize, len: usize) -> Result<&'a [u8], ImageError> {
        off.checked_add(len)
            .and_then(|end| self.0.get(off..end))
            .ok_or_else(|| err(format!("read of {len} bytes at {off} is out of bounds")))
    }
    fn u32(&self, off: usize) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.bytes(off, 4)?.try_into().unwrap()))
    }
    fn u64(&self, off: usize) -> Result<u64, ImageError> {
        Ok(u64::from_le_bytes(self.bytes(off, 8)?.try_into().unwrap()))
    }
}

/// One validated section window (absolute offsets into the image).
#[derive(Clone, Copy)]
struct Section {
    off: usize,
    len: usize,
}

/// Validate the header, section table and section checksums; returns
/// `(shards, entry_count, lsn, sections)`.
fn validate_frame(image: &[u8]) -> Result<(usize, usize, u64, [Section; SECTIONS]), ImageError> {
    let r = Reader(image);
    if image.len() < HEADER_LEN {
        return Err(err(format!(
            "file too small ({} bytes) to hold a snapshot header",
            image.len()
        )));
    }
    if image[..8] != MAGIC {
        return Err(bad_magic());
    }
    let version = r.u32(8)?;
    if version != FORMAT_VERSION {
        return Err(err(format!(
            "unsupported format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let endian = r.u32(12)?;
    if endian != ENDIAN_TAG {
        return Err(err(format!(
            "endianness tag 0x{endian:08x} does not match 0x{ENDIAN_TAG:08x}: \
             written on an incompatible host"
        )));
    }
    let shards = r.u32(16)? as usize;
    if shards == 0 {
        return Err(err("zero shard count"));
    }
    if shards > MAX_SHARDS {
        return Err(err(format!(
            "implausible shard count {shards} (this build caps snapshots at {MAX_SHARDS} shards)"
        )));
    }
    let entry_count = r.u32(20)? as usize;
    let lsn = r.u64(24)?;
    let section_count = r.u32(32)? as usize;
    if section_count != SECTIONS {
        return Err(err(format!(
            "section count {section_count} (version {version} holds {SECTIONS})"
        )));
    }
    let read_section = |i: usize| -> Result<Section, ImageError> {
        let at = 40 + i * 24;
        let off = r.u64(at)?;
        let len = r.u64(at + 8)?;
        let sum = r.u64(at + 16)?;
        let off = usize::try_from(off).map_err(|_| err(format!("section {i} offset overflow")))?;
        let len = usize::try_from(len).map_err(|_| err(format!("section {i} length overflow")))?;
        if off < HEADER_LEN {
            return Err(err(format!("section {i} overlaps the header")));
        }
        if off % 8 != 0 {
            return Err(err(format!("section {i} is misaligned (offset {off})")));
        }
        let payload = r
            .bytes(off, len)
            .map_err(|_| err(format!("section {i} is out of bounds")))?;
        let computed = section_checksum(payload);
        if computed != sum {
            return Err(err(format!(
                "section {i} checksum mismatch (stored {sum:#018x}, computed {computed:#018x})"
            )));
        }
        Ok(Section { off, len })
    };
    let mut sections = [Section { off: 0, len: 0 }; SECTIONS];
    for (i, s) in sections.iter_mut().enumerate() {
        *s = read_section(i)?;
    }
    Ok((shards, entry_count, lsn, sections))
}

/// Load a binary snapshot from an owned image buffer (the replica path:
/// the transfer buffer becomes the store's backing allocation).
pub fn load_bytes(
    config: MatchConfig,
    shards: Option<usize>,
    bytes: Vec<u8>,
) -> Result<LoadedImage, ImageError> {
    load_owner(Arc::new(LexEqual::new(config)), shards, Arc::new(bytes))
}

/// Load a binary snapshot by mapping the file at `path` (the daemon
/// path: the mapping becomes the store's backing allocation and pages
/// are shared with every other process serving the same file).
pub fn load_file(
    config: MatchConfig,
    shards: Option<usize>,
    path: impl AsRef<Path>,
) -> Result<LoadedImage, ImageError> {
    let path = path.as_ref();
    let io_err = |e: std::io::Error| err(format!("open {}: {e}", path.display()));
    let file = File::open(path).map_err(io_err)?;
    let map = Mmap::map(file).map_err(io_err)?;
    load_owner(Arc::new(LexEqual::new(config)), shards, Arc::new(map))
}

/// The loader core: validate everything once — with the operator the
/// store then keeps — and hand each shard its stripe of the image to read
/// in place.
pub(crate) fn load_owner(
    operator: Arc<LexEqual>,
    shards: Option<usize>,
    owner: ImageBytes,
) -> Result<LoadedImage, ImageError> {
    let image: &[u8] = (*owner).as_ref();
    let bytes = image.len() as u64;
    let (snap_shards, entry_count, lsn, sections) = validate_frame(image)?;
    if let Some(requested) = shards {
        if requested != snap_shards {
            // A contract error, not corruption: the stripe is `g % N`,
            // so an N-shard image read by M workers would scramble ids.
            return Err(ImageError::Unsupported(format!(
                "snapshot holds {snap_shards} shard(s) but {requested} were requested; \
                 re-striping at load is not supported (ROADMAP: shard rebalancing) — \
                 load with {snap_shards} shard(s) or rebuild from the corpus"
            )));
        }
    }
    let [specs, entries, texts, phonemes, clusters, embeds] = sections;

    // Build specs.
    if specs.len % SPEC_RECORD != 0 {
        return Err(err("build-spec section length is not a record multiple"));
    }
    let specs_bytes = &image[specs.off..specs.off + specs.len];
    let builds = specs_bytes
        .chunks_exact(SPEC_RECORD)
        .map(spec_from_record)
        .collect::<Result<Vec<_>, _>>()?;

    // Entry table shape.
    let expect = entry_count
        .checked_mul(EntryRecord::BYTES)
        .ok_or_else(|| err("entry count overflow"))?;
    if entries.len != expect {
        return Err(err(format!(
            "entry table holds {} bytes but {entry_count} entries need {expect}",
            entries.len
        )));
    }

    // Arena-wide invariants. The cluster arena must be the phoneme
    // arena's parallel twin, every phoneme byte a valid inventory id,
    // and every cluster byte exactly what the *configured* cost model
    // assigns — a snapshot written under a different MatchConfig is
    // rejected here, never left to change match semantics silently.
    if clusters.len != phonemes.len {
        return Err(err(format!(
            "cluster arena ({} bytes) is not parallel to the phoneme arena ({} bytes)",
            clusters.len, phonemes.len
        )));
    }
    let phon_arena = &image[phonemes.off..phonemes.off + phonemes.len];
    let clus_arena = &image[clusters.off..clusters.off + clusters.len];
    let lut = cluster_lut(&operator);
    for (i, (&p, &c)) in phon_arena.iter().zip(clus_arena).enumerate() {
        match lut[p as usize] {
            None => {
                return Err(err(format!(
                    "phoneme arena byte {i} (id {p}) is outside the inventory"
                )))
            }
            Some(expect) if expect != c => {
                return Err(err(
                    "stored cluster ids disagree with the configured cost model \
                     (snapshot written under a different MatchConfig?)",
                ))
            }
            Some(_) => {}
        }
    }

    // The text arena validates as UTF-8 once, whole; a window into it
    // is then valid iff both endpoints land on char boundaries — two
    // O(1) byte tests per entry instead of 20K `from_utf8` calls.
    let text_arena = std::str::from_utf8(&image[texts.off..texts.off + texts.len])
        .map_err(|_| err("text arena is not valid UTF-8"))?;

    // The embedding arena is fixed-stride: exactly EMBED_DIM bytes per
    // entry, in global-id order. Its shape is pinned here; the bytes are
    // verified per entry below once each phoneme window is known, so a
    // stale or doctored arena is rejected rather than silently
    // mis-screening candidates.
    let expect = entry_count
        .checked_mul(EMBED_DIM)
        .ok_or_else(|| err("embedding arena size overflow"))?;
    if embeds.len != expect {
        return Err(err(format!(
            "embedding arena holds {} bytes but {entry_count} entries need {expect}",
            embeds.len
        )));
    }

    // Per-entry windows. The entry-table section bounds were validated
    // with its checksum, so records parse from a fixed slice —
    // `chunks_exact` gives the optimizer fixed-size windows with no
    // per-field bounds checks.
    let entry_table = &image[entries.off..entries.off + entries.len];
    for (g, rec) in entry_table.chunks_exact(EntryRecord::BYTES).enumerate() {
        let rec = EntryRecord::decode(rec.try_into().expect("record"));
        let (text_off, text_len) = (rec.text_off as usize, rec.text_len as usize);
        let (phon_off, phon_len) = (rec.phon_off as usize, rec.phon_len as usize);
        let oob = |what: &str| err(format!("entry {g}: {what} window is out of bounds"));
        let text_end = text_off
            .checked_add(text_len)
            .filter(|&e| e <= texts.len)
            .ok_or_else(|| oob("text"))?;
        if !text_arena.is_char_boundary(text_off) || !text_arena.is_char_boundary(text_end) {
            return Err(err(format!(
                "entry {g}: text window splits a UTF-8 sequence"
            )));
        }
        let phon_end = phon_off
            .checked_add(phon_len)
            .filter(|&e| e <= phonemes.len)
            .ok_or_else(|| oob("phoneme"))?;
        let ids = &phon_arena[phon_off..phon_end];
        let lang = rec.language;
        if Language::ALL.get(lang as usize).is_none() {
            return Err(err(format!("entry {g}: unknown language tag {lang}")));
        }
        // Verify the stored embedding against a recompute from the
        // (already-validated) phoneme window — same discipline as the
        // cluster arena: a mismatch means the image was written under
        // a different cluster table or doctored, and a wrong embedding
        // could silently drop true matches.
        let stored = &image[embeds.off + g * EMBED_DIM..][..EMBED_DIM];
        if stored != operator.embedder().embed_ids(ids) {
            return Err(err(format!(
                "entry {g}: stored embedding disagrees with the configured embedder \
                 (snapshot written under a different MatchConfig?)"
            )));
        }
    }

    // Everything the rows read was validated above: each shard reads its
    // stripe of the image where it lies.
    let window = |s: Section| s.off..s.off + s.len;
    let layout = ImageLayout {
        entries: window(entries),
        texts: window(texts),
        phonemes: window(phonemes),
        clusters: window(clusters),
        embeds: window(embeds),
    };
    let bases = (0..snap_shards)
        .map(|s| Base::new(Arc::clone(&owner), layout.clone(), snap_shards, s))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| err("validated sections do not frame a row store"))?;
    let store = ShardedStore::over_bases(operator, bases);
    for &spec in &builds {
        store.declare(spec);
    }
    Ok(LoadedImage {
        store,
        builds,
        lsn,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexequal::Language;

    fn populated(shards: usize) -> ShardedStore {
        let store = ShardedStore::new(MatchConfig::default(), shards);
        store
            .extend(
                [
                    ("Nehru", Language::English),
                    ("नेहरु", Language::Hindi),
                    ("நேரு", Language::Tamil),
                    ("Gandhi", Language::English),
                    ("Krishnan", Language::English),
                ]
                .map(|(t, l)| (t.to_owned(), l)),
            )
            .unwrap();
        store.build(BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        });
        store.build(BuildSpec::PhoneticIndex);
        store
    }

    #[test]
    fn encode_load_round_trips_entries_builds_and_lsn() {
        let store = populated(2);
        let image = encode(&store, 42).unwrap();
        assert!(is_binary(&image));
        assert_eq!(peek(&image), Some((42, 5)));
        let loaded = load_bytes(MatchConfig::default(), None, image).unwrap();
        assert_eq!(loaded.lsn, 42);
        assert_eq!(loaded.store.len(), 5);
        assert_eq!(loaded.store.shards(), 2);
        assert_eq!(loaded.builds, store.built_specs());
        for id in 0..5u32 {
            let a = store.get(id).unwrap();
            let b = loaded.store.get(id).unwrap();
            assert_eq!(a.text, b.text, "id {id}");
            assert_eq!(a.language, b.language, "id {id}");
            assert_eq!(a.phonemes, b.phonemes, "id {id}");
        }
    }

    #[test]
    fn shard_pin_mismatch_names_both_counts() {
        let store = populated(2);
        let image = encode(&store, 0).unwrap();
        let msg = match load_bytes(MatchConfig::default(), Some(3), image) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("3-shard load of a 2-shard image must fail"),
        };
        assert!(msg.contains("2 shard"), "{msg}");
        assert!(msg.contains("3 were requested"), "{msg}");
        assert!(msg.contains("rebalancing"), "{msg}");
    }

    #[test]
    fn sections_are_aligned_and_checksummed() {
        let store = populated(1);
        let image = encode(&store, 0).unwrap();
        let (_, _, _, sections) = validate_frame(&image).unwrap();
        for s in sections {
            assert_eq!(s.off % 8, 0);
        }
        assert_eq!(sections[SECTIONS - 1].len, store.len() * EMBED_DIM);
    }

    #[test]
    fn loaded_entries_carry_validated_embeddings() {
        let store = populated(2);
        let image = encode(&store, 0).unwrap();
        let loaded = load_bytes(MatchConfig::default(), None, image).unwrap();
        let q = loaded
            .store
            .config()
            .registry
            .transform("Nehru", Language::English)
            .unwrap();
        loaded
            .store
            .search_phonemes(&q, 0.45, lexequal::SearchMethod::Scan);
        let screens = loaded.store.screen_totals();
        assert!(screens.embed_accept + screens.embed_reject > 0);
        assert_eq!(screens.embed_bypass, 0, "the screen examined every row");
    }

    #[test]
    fn empty_store_round_trips() {
        let store = ShardedStore::new(MatchConfig::default(), 3);
        let image = encode(&store, 7).unwrap();
        let loaded = load_bytes(MatchConfig::default(), None, image).unwrap();
        assert_eq!(loaded.store.len(), 0);
        assert_eq!(loaded.store.shards(), 3);
        assert_eq!(loaded.lsn, 7);
    }
}
