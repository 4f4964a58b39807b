//! Write-ahead op log for the serving layer.
//!
//! Every successful mutation (`ADD`, `BUILD`) is appended here — and
//! fsynced — *before* the client sees `OK`, so a crashed daemon can
//! recover by loading its last snapshot and replaying the log tail.
//! The same records double as the replication stream payload
//! (see [`crate::repl`]): a replica applies them in LSN order through
//! the deterministic [`MatchService::apply_op`] path the primary's own
//! recovery uses, so both sides converge byte-for-byte.
//!
//! # File format
//!
//! An ASCII magic line followed by binary records:
//!
//! ```text
//! #lexequal-wal v1\n
//! [u32 LE payload_len][u64 LE lsn][payload utf-8][u64 LE checksum]
//! ...
//! ```
//!
//! The checksum is FNV-1a 64 over `payload_len LE ++ lsn LE ++ payload`
//! (the same primitive the snapshot fingerprint uses). LSNs start at 1
//! and are strictly `previous + 1` within a file.
//!
//! # Recovery policy
//!
//! - a record (or its header) extending past EOF, or a checksum/UTF-8
//!   failure in the *final* record, is a torn tail from a crashed
//!   append: the log is truncated to the last good record and stays
//!   usable;
//! - the same failures *mid-file* mean bit rot, not a torn write, and
//!   come back as [`WalError::Corrupt`] — never a silent skip;
//! - an LSN that is not `previous + 1` (duplicates included) is a
//!   [`WalError::SequenceBreak`];
//! - an empty file is a fresh log (the magic is written on open);
//! - anchoring against a snapshot: the snapshot's LSN must fall inside
//!   `[first_lsn - 1, last_lsn]`, else [`WalError::Gap`] /
//!   [`WalError::SnapshotAhead`].
//!
//! # Compaction
//!
//! [`Wal::compact_to`] drops every record at or below a horizon by
//! atomically rewriting the file: surviving records are re-encoded
//! (the encoding is deterministic, so surviving bytes are identical)
//! into `<path>.compact.tmp`, fsynced, renamed over the log, and the
//! directory fsynced. A compacted log legitimately starts at an LSN
//! above 1; the anchoring rules above already handle that, provided a
//! checkpoint covering `first_lsn - 1` exists — which is why the
//! daemon writes its checkpoint durably *before* truncating (see
//! [`crate::repl::Replicator::compact`]). Each rewrite bumps the log's
//! generation so [`WalCursor`] readers know their byte offsets went
//! stale.
//!
//! [`MatchService::apply_op`]: crate::MatchService::apply_op

use crate::metrics::WalMetrics;
use crate::shard::BuildSpec;
use lexequal::{Language, QgramMode};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First line of every WAL file.
pub const WAL_MAGIC: &[u8] = b"#lexequal-wal v1\n";

/// Per-record header: `u32` payload length + `u64` LSN.
const HEADER_LEN: usize = 12;
/// Trailing FNV-1a checksum.
const CHECKSUM_LEN: usize = 8;
/// Sanity bound on a single op payload — far above any real `ADD`.
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// One logged mutation, the unit of both recovery replay and
/// replication. Text-encoded inside the record payload so the stream
/// protocol can carry it on a single line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `ADD`: one name in one script.
    Add {
        /// Source language/script of `text`.
        language: Language,
        /// The name as written.
        text: String,
    },
    /// `BUILD` of one access path (a wire `BUILD ALL` logs three).
    Build(BuildSpec),
}

impl Op {
    /// Single-line text encoding (`A <lang> <text>` / `B QGRAM <q>
    /// <mode>` / `B PHONIDX` / `B BKTREE`). `Language` renders via
    /// `Display`, which `FromStr` round-trips exactly.
    pub fn encode(&self) -> String {
        match self {
            Op::Add { language, text } => format!("A {language} {text}"),
            Op::Build(BuildSpec::Qgram { q, mode }) => {
                let mode = match mode {
                    QgramMode::Strict => "STRICT",
                    QgramMode::PaperFaithful => "PAPER",
                };
                format!("B QGRAM {q} {mode}")
            }
            Op::Build(BuildSpec::PhoneticIndex) => "B PHONIDX".to_owned(),
            Op::Build(BuildSpec::BkTree) => "B BKTREE".to_owned(),
        }
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(s: &str) -> Result<Op, String> {
        let (tag, rest) = s.split_once(' ').unwrap_or((s, ""));
        match tag {
            "A" => {
                let (lang, text) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("op {s:?}: ADD needs a language and a name"))?;
                let language: Language = lang
                    .parse()
                    .map_err(|e| format!("op {s:?}: bad language: {e}"))?;
                if text.is_empty() {
                    return Err(format!("op {s:?}: empty name"));
                }
                Ok(Op::Add {
                    language,
                    text: text.to_owned(),
                })
            }
            "B" => {
                let mut toks = rest.split_whitespace();
                match toks.next() {
                    Some("QGRAM") => {
                        let q = toks
                            .next()
                            .and_then(|t| t.parse::<usize>().ok())
                            .ok_or_else(|| format!("op {s:?}: bad q"))?;
                        let mode = match toks.next() {
                            Some("STRICT") => QgramMode::Strict,
                            Some("PAPER") => QgramMode::PaperFaithful,
                            other => return Err(format!("op {s:?}: bad qgram mode {other:?}")),
                        };
                        let spec = BuildSpec::qgram(q, mode);
                        Ok(Op::Build(spec.map_err(|e| format!("op {s:?}: {e}"))?))
                    }
                    Some("PHONIDX") => Ok(Op::Build(BuildSpec::PhoneticIndex)),
                    Some("BKTREE") => Ok(Op::Build(BuildSpec::BkTree)),
                    other => Err(format!("op {s:?}: unknown build {other:?}")),
                }
            }
            _ => Err(format!("op {s:?}: unknown tag {tag:?}")),
        }
    }
}

/// One decoded log record: the op plus the LSN it committed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic log sequence number (first record of a fresh log is 1).
    pub lsn: u64,
    /// The mutation.
    pub op: Op,
}

/// Everything that can go wrong opening, reading or appending a WAL.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`].
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// Bit rot before the final record — unrecoverable without the
    /// snapshot, and never silently skipped.
    Corrupt {
        /// Byte offset of the bad record.
        offset: u64,
        /// What failed (checksum, length bound, payload decode, ...).
        what: String,
    },
    /// An LSN out of sequence (duplicates included).
    SequenceBreak {
        /// Byte offset of the offending record.
        offset: u64,
        /// The LSN the sequence demanded.
        expected: u64,
        /// The LSN found on disk.
        found: u64,
    },
    /// The snapshot is newer than the whole log — the WAL file belongs
    /// to an older lineage and must not be replayed.
    SnapshotAhead {
        /// LSN the snapshot covers.
        snapshot_lsn: u64,
        /// Last LSN present in the log.
        wal_head: u64,
    },
    /// The log starts after the snapshot ends — ops in between are
    /// lost, so replay would silently drop history.
    Gap {
        /// LSN the snapshot covers.
        snapshot_lsn: u64,
        /// First LSN present in the log.
        wal_first: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::BadMagic { path } => {
                write!(f, "wal {path:?}: missing magic (not a lexequal wal file)")
            }
            WalError::Corrupt { offset, what } => {
                write!(f, "wal corrupt at byte {offset}: {what}")
            }
            WalError::SequenceBreak {
                offset,
                expected,
                found,
            } => write!(
                f,
                "wal sequence break at byte {offset}: expected lsn {expected}, found {found}"
            ),
            WalError::SnapshotAhead {
                snapshot_lsn,
                wal_head,
            } => write!(
                f,
                "snapshot covers lsn {snapshot_lsn} but the wal ends at lsn {wal_head}; \
                 the wal belongs to an older lineage — remove it or use its snapshot"
            ),
            WalError::Gap {
                snapshot_lsn,
                wal_first,
            } => write!(
                f,
                "snapshot covers lsn {snapshot_lsn} but the wal starts at lsn {wal_first}; \
                 ops in between are missing, refusing to replay with a hole"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// FNV-1a 64 over the concatenation of `parts` (same constants as the
/// snapshot fingerprint).
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Result of scanning a WAL byte image.
struct Scan {
    records: Vec<WalRecord>,
    /// Prefix length (including magic) covering all good records.
    valid_len: u64,
    /// Why the tail past `valid_len` was discarded, if it was.
    torn: Option<String>,
}

/// Scan records after the magic. `offset0` is the absolute offset of
/// `bytes[0]` in the file (for error reporting).
fn scan_records(bytes: &[u8], offset0: u64) -> Result<Scan, WalError> {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut torn = None;
    while at < bytes.len() {
        let offset = offset0 + at as u64;
        let rest = &bytes[at..];
        if rest.len() < HEADER_LEN {
            torn = Some("record header extends past end of file".to_owned());
            break;
        }
        let len_le: [u8; 4] = rest[0..4].try_into().expect("4-byte slice");
        let lsn_le: [u8; 8] = rest[4..12].try_into().expect("8-byte slice");
        let len = u32::from_le_bytes(len_le) as usize;
        let lsn = u64::from_le_bytes(lsn_le);
        if len > MAX_PAYLOAD {
            return Err(WalError::Corrupt {
                offset,
                what: format!("record length {len} exceeds the {MAX_PAYLOAD}-byte bound"),
            });
        }
        let rec_len = HEADER_LEN + len + CHECKSUM_LEN;
        if rest.len() < rec_len {
            torn = Some("record body extends past end of file".to_owned());
            break;
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        let stored = u64::from_le_bytes(
            rest[HEADER_LEN + len..rec_len]
                .try_into()
                .expect("8-byte slice"),
        );
        let at_tail = rest.len() == rec_len;
        if fnv1a(&[&len_le, &lsn_le, payload]) != stored {
            if at_tail {
                torn = Some(format!("final record (lsn {lsn}) failed its checksum"));
                break;
            }
            return Err(WalError::Corrupt {
                offset,
                what: format!("record lsn {lsn} failed its checksum"),
            });
        }
        let text = match std::str::from_utf8(payload) {
            Ok(t) => t,
            Err(_) if at_tail => {
                torn = Some(format!("final record (lsn {lsn}) payload is not UTF-8"));
                break;
            }
            Err(_) => {
                return Err(WalError::Corrupt {
                    offset,
                    what: format!("record lsn {lsn} payload is not UTF-8"),
                })
            }
        };
        let op = Op::decode(text).map_err(|what| WalError::Corrupt { offset, what })?;
        if let Some(last) = records.last() {
            let last: &WalRecord = last;
            if lsn != last.lsn + 1 {
                return Err(WalError::SequenceBreak {
                    offset,
                    expected: last.lsn + 1,
                    found: lsn,
                });
            }
        }
        records.push(WalRecord { lsn, op });
        at += rec_len;
    }
    Ok(Scan {
        records,
        valid_len: offset0 + at as u64,
        torn,
    })
}

/// Serialize one record exactly as [`Wal::append`] lays it on disk:
/// header, payload, trailing checksum. `Op::encode` is deterministic,
/// so re-encoding a decoded record is byte-identical — compaction
/// relies on this to preserve the surviving suffix bit-for-bit.
fn encode_record(lsn: u64, op: &Op) -> Vec<u8> {
    let payload = op.encode();
    let len_le = (payload.len() as u32).to_le_bytes();
    let lsn_le = lsn.to_le_bytes();
    let sum = fnv1a(&[&len_le, &lsn_le, payload.as_bytes()]);
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    buf.extend_from_slice(&len_le);
    buf.extend_from_slice(&lsn_le);
    buf.extend_from_slice(payload.as_bytes());
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Scan a whole file image, magic included. A torn magic (shorter than
/// [`WAL_MAGIC`] but a prefix of it) counts as a torn tail at offset 0.
fn scan_file(bytes: &[u8], path: &Path) -> Result<Scan, WalError> {
    if bytes.starts_with(WAL_MAGIC) {
        scan_records(&bytes[WAL_MAGIC.len()..], WAL_MAGIC.len() as u64)
    } else if WAL_MAGIC.starts_with(bytes) {
        Ok(Scan {
            records: Vec::new(),
            valid_len: 0,
            torn: Some("torn file header".to_owned()),
        })
    } else {
        Err(WalError::BadMagic {
            path: path.to_owned(),
        })
    }
}

/// An open, append-positioned write-ahead log.
///
/// `append` is `&mut self`: callers that share a WAL across threads
/// (the daemon does, via [`crate::repl::Replicator`]) wrap it in a
/// mutex, which doubles as the commit lock keeping LSN order equal to
/// store-apply order.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// LSN the next append will get.
    next_lsn: u64,
    /// First LSN present in the file, if any record is.
    first_lsn: Option<u64>,
    /// Current length of the file in bytes (magic included).
    file_bytes: u64,
    /// Bumped by every [`compact_to`](Self::compact_to) rewrite, so
    /// [`WalCursor`] readers can tell their byte offsets went stale.
    generation: u64,
    metrics: Arc<WalMetrics>,
}

/// What one [`Wal::compact_to`] rewrite dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionStats {
    /// Records removed from the file.
    pub dropped_records: u64,
    /// Bytes the file shrank by.
    pub dropped_bytes: u64,
}

/// The scratch file a compaction rewrite stages into before renaming
/// over `path`. A leftover (crash mid-rewrite) is inert and deleted on
/// the next [`Wal::open`].
fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".compact.tmp");
    path.with_file_name(name)
}

impl Wal {
    /// Open (or create) the log at `path`, anchored to a snapshot
    /// covering `base_lsn` (0 = no snapshot). Returns the log positioned
    /// for append plus the replay tail: every record with
    /// `lsn > base_lsn`, in order. A torn final record is truncated
    /// away; mid-file damage and anchoring mismatches are errors.
    pub fn open(
        path: impl AsRef<Path>,
        base_lsn: u64,
        metrics: Arc<WalMetrics>,
    ) -> Result<(Wal, Vec<WalRecord>), WalError> {
        let path = path.as_ref().to_owned();
        // A crash between a compaction's tmp write and its rename leaves
        // an inert scratch file behind; the real log is untouched.
        std::fs::remove_file(compact_tmp_path(&path)).ok();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.is_empty() {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            let wal = Wal {
                file,
                path,
                next_lsn: base_lsn + 1,
                first_lsn: None,
                file_bytes: WAL_MAGIC.len() as u64,
                generation: 0,
                metrics,
            };
            return Ok((wal, Vec::new()));
        }

        let scan = scan_file(&bytes, &path)?;
        if scan.torn.is_some() {
            // Crash mid-append: drop the torn tail (and rewrite the
            // magic if even that was torn).
            if scan.valid_len < WAL_MAGIC.len() as u64 {
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(WAL_MAGIC)?;
            } else {
                file.set_len(scan.valid_len)?;
            }
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;

        let first_lsn = scan.records.first().map(|r| r.lsn);
        let next_lsn = match (first_lsn, scan.records.last().map(|r| r.lsn)) {
            (None, _) | (_, None) => base_lsn + 1,
            (Some(first), Some(last)) => {
                if base_lsn > last {
                    return Err(WalError::SnapshotAhead {
                        snapshot_lsn: base_lsn,
                        wal_head: last,
                    });
                }
                if base_lsn + 1 < first {
                    return Err(WalError::Gap {
                        snapshot_lsn: base_lsn,
                        wal_first: first,
                    });
                }
                last + 1
            }
        };
        let replay = scan
            .records
            .into_iter()
            .filter(|r| r.lsn > base_lsn)
            .collect();
        let wal = Wal {
            file,
            path,
            next_lsn,
            first_lsn,
            // After the torn-tail truncation above the file is exactly
            // the valid prefix (never shorter than the magic).
            file_bytes: scan.valid_len.max(WAL_MAGIC.len() as u64),
            generation: 0,
            metrics,
        };
        Ok((wal, replay))
    }

    /// Append one op, fsync it, and return the LSN it committed at.
    /// The record is durable before this returns.
    pub fn append(&mut self, op: &Op) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        let buf = encode_record(lsn, op);
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.metrics.record_append(buf.len());
        self.next_lsn += 1;
        self.file_bytes += buf.len() as u64;
        if self.first_lsn.is_none() {
            self.first_lsn = Some(lsn);
        }
        Ok(lsn)
    }

    /// LSN of the last committed record (or the snapshot anchor if the
    /// log is empty).
    pub fn head_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// First LSN present in the file, if any.
    pub fn first_lsn(&self) -> Option<u64> {
        self.first_lsn
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current on-disk size of the log in bytes (magic included).
    pub fn live_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Rewrite counter: bumped by every [`compact_to`](Self::compact_to)
    /// that replaces the file, so byte offsets cached by readers
    /// ([`WalCursor`]) can be detected as stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drop every record with `lsn <= horizon` by atomically rewriting
    /// the file: surviving records go to `<path>.compact.tmp`, the tmp
    /// is fsynced, renamed over the log, and the directory fsynced, so
    /// a crash at any instant leaves either the old complete log or the
    /// new complete log — never a partial one. The caller must hold the
    /// commit lock (no append may be in flight) and must have made a
    /// checkpoint covering `horizon` durable *first*, or the dropped
    /// prefix is simply lost.
    ///
    /// A horizon below `first_lsn` (or an empty log) is a no-op; a
    /// horizon above the head is clamped to it.
    pub fn compact_to(&mut self, horizon: u64) -> Result<CompactionStats, WalError> {
        let horizon = horizon.min(self.head_lsn());
        match self.first_lsn {
            None => return Ok(CompactionStats::default()),
            Some(first) if horizon < first => return Ok(CompactionStats::default()),
            Some(_) => {}
        }

        // Re-scan our own file. Under the commit lock nothing can be
        // mid-append, so a torn or damaged record here is real trouble —
        // refuse to rewrite rather than silently shrink history.
        let mut f = File::open(&self.path)?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        let scan = scan_file(&bytes, &self.path)?;
        if let Some(what) = scan.torn {
            return Err(WalError::Corrupt {
                offset: scan.valid_len,
                what: format!("torn record with no append in flight: {what}"),
            });
        }

        let total = scan.records.len() as u64;
        let keep: Vec<&WalRecord> = scan.records.iter().filter(|r| r.lsn > horizon).collect();
        let dropped_records = total - keep.len() as u64;
        if dropped_records == 0 {
            return Ok(CompactionStats::default());
        }

        let tmp = compact_tmp_path(&self.path);
        let mut out = File::create(&tmp)?;
        out.write_all(WAL_MAGIC)?;
        let mut new_bytes = WAL_MAGIC.len() as u64;
        for rec in &keep {
            let buf = encode_record(rec.lsn, &rec.op);
            out.write_all(&buf)?;
            new_bytes += buf.len() as u64;
        }
        out.sync_all()?;
        drop(out);
        std::fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable before the old bytes can be
        // considered gone.
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                d.sync_all().ok();
            }
        }

        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        let stats = CompactionStats {
            dropped_records,
            dropped_bytes: self.file_bytes.saturating_sub(new_bytes),
        };
        self.file = file;
        self.first_lsn = keep.first().map(|r| r.lsn);
        self.file_bytes = new_bytes;
        self.generation += 1;
        Ok(stats)
    }

    /// Whether every record in `(from, head]` is present in this file —
    /// i.e. an incremental catch-up from `from` loses nothing.
    pub fn can_serve_from(&self, from: u64) -> bool {
        if from >= self.head_lsn() {
            return from == self.head_lsn();
        }
        match self.first_lsn {
            Some(first) => from + 1 >= first,
            None => false,
        }
    }

    /// Re-read the file and return every record with `lsn > from`.
    /// Read-only: a torn tail is tolerated (not truncated) so this is
    /// safe to interleave with appends under the caller's lock.
    pub fn read_from(&self, from: u64) -> Result<Vec<WalRecord>, WalError> {
        let mut f = File::open(&self.path)?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            return Ok(Vec::new());
        }
        let scan = scan_file(&bytes, &self.path)?;
        Ok(scan.records.into_iter().filter(|r| r.lsn > from).collect())
    }
}

/// A tail reader's memoized position: the byte offset where the next
/// unread record starts, validated against the LSN expected there and
/// the file generation it was computed on. Lets replica senders fetch
/// new records with a seek + tail read instead of re-scanning the whole
/// file on every poll (which made catch-up quadratic in log size).
///
/// The cursor self-heals: a generation bump (compaction rewrote the
/// file) or an LSN mismatch at the remembered offset falls back to one
/// full scan, after which seeking resumes.
#[derive(Debug, Clone)]
pub struct WalCursor {
    /// LSN of the next record this reader wants.
    next_lsn: u64,
    /// Byte offset where that record will begin, valid for `generation`.
    offset: u64,
    /// File generation `offset` was computed against (`u64::MAX` until
    /// the first successful read).
    generation: u64,
}

impl WalCursor {
    /// A cursor positioned just past `lsn` (0 = start of history).
    pub fn after(lsn: u64) -> WalCursor {
        WalCursor {
            next_lsn: lsn + 1,
            offset: 0,
            generation: u64::MAX,
        }
    }

    /// LSN of the next record this cursor will return.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

/// Read every record at or past `cursor` from the log file at `path`,
/// advancing the cursor past what was returned. `generation` is the
/// log's current rewrite generation (snapshot it under the commit lock;
/// the read itself needs no lock — see [`Wal::read_from`] on why a
/// concurrent torn tail is harmless).
///
/// When the cursor's generation matches, this seeks straight to the
/// remembered offset and scans only the new tail; otherwise (first
/// read, or the file was rewritten underneath us) it rescans from the
/// magic. Returns [`WalError::Gap`] if the file's first record is
/// already past `cursor.next_lsn` — the records this reader still owes
/// its consumer were compacted away, so the consumer must re-seed.
pub fn read_tail(
    path: &Path,
    generation: u64,
    cursor: &mut WalCursor,
) -> Result<Vec<WalRecord>, WalError> {
    if cursor.generation == generation && cursor.offset >= WAL_MAGIC.len() as u64 {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(cursor.offset))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            return Ok(Vec::new());
        }
        // A scan error here can be an artifact of the file having been
        // rewritten under a stale generation snapshot (our offset lands
        // mid-record in the new file): fall through to a full scan,
        // which re-validates from the magic.
        if let Ok(scan) = scan_records(&bytes, cursor.offset) {
            match scan.records.first() {
                // Nothing but a torn in-flight append past our offset.
                None => return Ok(Vec::new()),
                Some(first) if first.lsn == cursor.next_lsn => {
                    cursor.offset = scan.valid_len;
                    cursor.next_lsn = scan.records.last().expect("nonempty scan").lsn + 1;
                    return Ok(scan.records);
                }
                Some(_) => {}
            }
        }
    }

    let mut f = File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let scan = scan_file(&bytes, path)?;
    if let Some(first) = scan.records.first() {
        if first.lsn > cursor.next_lsn {
            return Err(WalError::Gap {
                snapshot_lsn: cursor.next_lsn - 1,
                wal_first: first.lsn,
            });
        }
    }
    let records: Vec<WalRecord> = scan
        .records
        .into_iter()
        .filter(|r| r.lsn >= cursor.next_lsn)
        .collect();
    cursor.generation = generation;
    cursor.offset = scan.valid_len;
    if let Some(last) = records.last() {
        cursor.next_lsn = last.lsn + 1;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lexequal_wal_unit_{}_{name}", std::process::id()))
    }

    #[test]
    fn ops_round_trip_through_the_text_encoding() {
        let ops = [
            Op::Add {
                language: Language::English,
                text: "Nehru".to_owned(),
            },
            Op::Add {
                language: Language::Hindi,
                text: "नेहरु".to_owned(),
            },
            Op::Add {
                language: Language::Tamil,
                text: "நேரு with spaces".to_owned(),
            },
            Op::Build(BuildSpec::Qgram {
                q: 3,
                mode: QgramMode::Strict,
            }),
            Op::Build(BuildSpec::Qgram {
                q: 2,
                mode: QgramMode::PaperFaithful,
            }),
            Op::Build(BuildSpec::PhoneticIndex),
            Op::Build(BuildSpec::BkTree),
        ];
        for op in ops {
            let line = op.encode();
            assert_eq!(Op::decode(&line).expect("decode"), op, "{line}");
        }
        assert!(Op::decode("A en").is_err());
        assert!(Op::decode("B QGRAM x STRICT").is_err());
        for q in [0, 5, 255] {
            let refused = Op::decode(&format!("B QGRAM {q} STRICT")).unwrap_err();
            assert!(refused.contains("is outside 1..=4"), "{refused}");
        }
        assert!(Op::decode("Z what").is_err());
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = temp("roundtrip");
        std::fs::remove_file(&path).ok();
        let metrics = Arc::new(WalMetrics::default());
        let (mut wal, replay) = Wal::open(&path, 0, metrics.clone()).expect("open fresh");
        assert!(replay.is_empty());
        assert_eq!(wal.head_lsn(), 0);
        let ops = [
            Op::Add {
                language: Language::English,
                text: "Bose".to_owned(),
            },
            Op::Build(BuildSpec::BkTree),
            Op::Add {
                language: Language::English,
                text: "Tagore".to_owned(),
            },
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(wal.append(op).expect("append"), i as u64 + 1);
        }
        assert_eq!(wal.head_lsn(), 3);
        assert!(wal.can_serve_from(0));
        assert!(wal.can_serve_from(2));
        assert!(!wal.can_serve_from(4));
        let stats = metrics.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.fsyncs, 3);
        assert!(stats.bytes > 0);
        drop(wal);

        let (wal, replay) = Wal::open(&path, 0, Arc::new(WalMetrics::default())).expect("reopen");
        assert_eq!(wal.head_lsn(), 3);
        assert_eq!(replay.len(), 3);
        for (i, (rec, op)) in replay.iter().zip(&ops).enumerate() {
            assert_eq!(rec.lsn, i as u64 + 1);
            assert_eq!(&rec.op, op);
        }
        // Anchored reopen filters the replay to the tail past the snapshot.
        let (wal2, replay) =
            Wal::open(&path, 2, Arc::new(WalMetrics::default())).expect("anchored");
        assert_eq!(wal2.head_lsn(), 3);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].lsn, 3);
        drop(wal);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_from_filters_and_tolerates_live_tail() {
        let path = temp("readfrom");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, 0, Arc::new(WalMetrics::default())).expect("open");
        for text in ["Patel", "Mehta", "Iyer"] {
            wal.append(&Op::Add {
                language: Language::English,
                text: text.to_owned(),
            })
            .expect("append");
        }
        let tail = wal.read_from(1).expect("read");
        assert_eq!(tail.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![2, 3]);
        assert!(wal.read_from(3).expect("read").is_empty());
        std::fs::remove_file(&path).ok();
    }

    fn add(text: &str) -> Op {
        Op::Add {
            language: Language::English,
            text: text.to_owned(),
        }
    }

    #[test]
    fn compact_drops_prefix_and_reopen_anchors_on_the_base() {
        let path = temp("compact");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, 0, Arc::new(WalMetrics::default())).expect("open");
        for i in 1..=5 {
            wal.append(&add(&format!("name{i}"))).expect("append");
        }
        let before = wal.live_bytes();
        let stats = wal.compact_to(3).expect("compact");
        assert_eq!(stats.dropped_records, 3);
        assert!(stats.dropped_bytes > 0);
        assert_eq!(wal.first_lsn(), Some(4));
        assert_eq!(wal.head_lsn(), 5);
        assert_eq!(wal.generation(), 1);
        assert!(wal.live_bytes() < before);
        assert_eq!(
            wal.live_bytes(),
            std::fs::metadata(&path).expect("meta").len()
        );

        // can_serve_from edges around the compacted base: 3 is the last
        // position an incremental catch-up can start from.
        assert!(!wal.can_serve_from(2));
        assert!(wal.can_serve_from(3));
        assert!(wal.can_serve_from(4));
        assert!(wal.can_serve_from(5));
        assert!(!wal.can_serve_from(6));

        // Appends keep flowing after the rewrite.
        assert_eq!(wal.append(&add("post")).expect("append"), 6);
        drop(wal);

        // A checkpoint at the base LSN anchors a reopen; older ones gap.
        let (wal, replay) = Wal::open(&path, 3, Arc::new(WalMetrics::default())).expect("reopen");
        assert_eq!(wal.first_lsn(), Some(4));
        assert_eq!(replay.iter().map(|r| r.lsn).collect::<Vec<_>>(), [4, 5, 6]);
        drop(wal);
        match Wal::open(&path, 2, Arc::new(WalMetrics::default())) {
            Err(WalError::Gap {
                snapshot_lsn: 2,
                wal_first: 4,
            }) => {}
            other => panic!("expected Gap, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_to_full_horizon_empties_the_log() {
        let path = temp("compact_all");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, 0, Arc::new(WalMetrics::default())).expect("open");
        for i in 1..=3 {
            wal.append(&add(&format!("n{i}"))).expect("append");
        }
        // Horizons above the head clamp; a second compact is a no-op.
        let stats = wal.compact_to(99).expect("compact");
        assert_eq!(stats.dropped_records, 3);
        assert_eq!(wal.first_lsn(), None);
        assert_eq!(wal.head_lsn(), 3);
        assert_eq!(wal.live_bytes(), WAL_MAGIC.len() as u64);
        assert_eq!(wal.compact_to(3).expect("noop").dropped_records, 0);
        assert_eq!(wal.generation(), 1);
        // LSNs continue from the head even though the file is empty.
        assert_eq!(wal.append(&add("after")).expect("append"), 4);
        assert_eq!(wal.first_lsn(), Some(4));
        drop(wal);
        let (wal, replay) = Wal::open(&path, 3, Arc::new(WalMetrics::default())).expect("reopen");
        assert_eq!(replay.len(), 1);
        assert_eq!(wal.head_lsn(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursor_seeks_incrementally_and_survives_compaction() {
        let path = temp("cursor");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, 0, Arc::new(WalMetrics::default())).expect("open");
        for i in 1..=4 {
            wal.append(&add(&format!("c{i}"))).expect("append");
        }
        let mut cursor = WalCursor::after(0);
        let got = read_tail(&path, wal.generation(), &mut cursor).expect("first read");
        assert_eq!(got.iter().map(|r| r.lsn).collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert_eq!(cursor.next_lsn(), 5);
        // Caught up: the seek path reads nothing.
        assert!(read_tail(&path, wal.generation(), &mut cursor)
            .expect("empty")
            .is_empty());
        wal.append(&add("c5")).expect("append");
        wal.append(&add("c6")).expect("append");
        let got = read_tail(&path, wal.generation(), &mut cursor).expect("tail read");
        assert_eq!(got.iter().map(|r| r.lsn).collect::<Vec<_>>(), [5, 6]);

        // Compaction invalidates the generation; a reader still inside
        // the retained suffix full-rescans once and carries on.
        wal.compact_to(4).expect("compact");
        let mut behind = WalCursor::after(4);
        let got = read_tail(&path, wal.generation(), &mut behind).expect("post-compact");
        assert_eq!(got.iter().map(|r| r.lsn).collect::<Vec<_>>(), [5, 6]);

        // A reader whose next record was compacted away gets a Gap.
        let mut stale = WalCursor::after(2);
        match read_tail(&path, wal.generation(), &mut stale) {
            Err(WalError::Gap {
                snapshot_lsn: 2,
                wal_first: 5,
            }) => {}
            other => panic!("expected Gap, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_compaction_scratch_is_deleted_on_open() {
        let path = temp("scratch");
        std::fs::remove_file(&path).ok();
        let tmp = compact_tmp_path(&path);
        std::fs::write(&tmp, b"leftover from a crashed rewrite").expect("write tmp");
        let (wal, _) = Wal::open(&path, 0, Arc::new(WalMetrics::default())).expect("open");
        assert!(!tmp.exists(), "stale {tmp:?} must be removed");
        drop(wal);
        std::fs::remove_file(&path).ok();
    }
}
