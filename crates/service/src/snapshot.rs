//! Snapshot persistence for the sharded serving store.
//!
//! The paper's systems claim is that LexEQUAL matching runs over
//! *persistent on-disk* database structures, not throwaway in-memory
//! ones (§2.3, contrasting Zobel & Dart's in-memory evaluation). This
//! module is that persistence boundary for the serving layer: a
//! [`StoreSnapshot`] captures a [`ShardedStore`]'s full state — shard
//! count, the access paths built, and every shard's entries (text,
//! language tag, phonemic rendering, cluster-id vector) in local-id
//! order — as one versioned, self-describing JSON document written and
//! read by the in-tree [`lexequal_mdb::Json`] codec. On load the
//! entries go back in global-id order through one load of a fresh store
//! (so every global id survives) and the recorded access paths are
//! rebuilt, the same recovery strategy [`lexequal_mdb`]'s own snapshots
//! use for secondary indexes: a `lexequald --snapshot` cold start is a
//! file read plus an index rebuild instead of a full synthetic-corpus G2P
//! pass.
//!
//! ## Integrity
//!
//! Three checks make a load trustworthy rather than hopeful:
//!
//! * a **corpus fingerprint** (FNV-1a over every entry in global-id
//!   order) stored in the header and recomputed on load, so a truncated
//!   or edited document that still parses is rejected;
//! * **cluster-id validation** — every stored cluster-id vector is
//!   recompared against the loading configuration's cost model, so a
//!   snapshot written under a different clustering cannot silently
//!   change match semantics;
//! * a **shard-count check** — restoring an `N`-shard snapshot into an
//!   `M ≠ N` shard store is a clean error pointing at the still-open
//!   re-sharding work, never a scrambled stripe.
//!
//! The invariant all this buys (pinned by
//! `tests/snapshot_roundtrip.rs`): search results over a reloaded store
//! are bit-identical to the store that wrote the snapshot, on all four
//! access paths.

use crate::shard::{BuildSpec, Cut, ShardedStore};
use lexequal::{Language, MatchConfig, Phoneme, PhonemeString, QgramMode};
use lexequal_mdb::{DbError, Json};
use std::io::{Read, Write};

/// Current store-snapshot format version.
pub const STORE_SNAPSHOT_VERSION: u32 = 1;

/// The format tag every store snapshot leads with, so a stray
/// `mdb::snapshot` document (same codec, different schema) is rejected
/// with a clear message instead of a field-by-field decode failure.
pub const STORE_SNAPSHOT_FORMAT: &str = "lexequal-store-snapshot";

fn decode_err(what: impl std::fmt::Display) -> DbError {
    DbError::Parse(format!("store snapshot decode: {what}"))
}

/// One persisted entry: text, language and phonemes plus the cluster-id
/// vector (recomputed and cross-checked on load).
#[derive(Debug, Clone)]
struct SnapEntry {
    text: String,
    language: Language,
    /// IPA rendering of the phoneme string (`Display`/`FromStr` round-trip
    /// exactly, including merge-ambiguous junctions — see
    /// `lexequal_phoneme::string`).
    phonemes: String,
    cluster_ids: Vec<u8>,
}

/// A serializable image of a [`ShardedStore`]: header (version, shard
/// count, build specs, corpus fingerprint) plus per-shard entry
/// sections in local-id order.
#[derive(Debug)]
pub struct StoreSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    shards: usize,
    builds: Vec<BuildSpec>,
    fingerprint: u64,
    /// WAL LSN this snapshot covers (0 = no WAL): recovery replays the
    /// log strictly past this point, and a replica restored from the
    /// snapshot resumes the stream here. Older documents without the
    /// field read back as 0.
    lsn: u64,
    sections: Vec<Vec<SnapEntry>>,
}

/// FNV-1a 64-bit, the in-tree fingerprint primitive (no dependencies).
/// The binary snapshot format's section checksums use a word-folded
/// variant of the same construction (see `mmapstore::section_checksum`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint the corpus in *global-id* order, so the hash pins both
/// entry contents and the round-robin striping across shards.
fn fingerprint(sections: &[Vec<SnapEntry>]) -> u64 {
    let n = sections.len().max(1);
    let total: usize = sections.iter().map(Vec::len).sum();
    let mut h = Fnv::new();
    for g in 0..total {
        let e = &sections[g % n][g / n];
        h.write(e.text.as_bytes());
        h.write(&[0xff]);
        h.write(e.language.to_string().as_bytes());
        h.write(&[0xff]);
        h.write(e.phonemes.as_bytes());
        h.write(&[0xfe]);
    }
    h.0
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

fn build_to_json(b: &BuildSpec) -> Json {
    match b {
        BuildSpec::Qgram { q, mode } => Json::Obj(vec![
            ("path".to_owned(), Json::Str("qgram".to_owned())),
            ("q".to_owned(), Json::Int(*q as i64)),
            (
                "mode".to_owned(),
                Json::Str(
                    match mode {
                        QgramMode::Strict => "strict",
                        QgramMode::PaperFaithful => "paper_faithful",
                    }
                    .to_owned(),
                ),
            ),
        ]),
        BuildSpec::PhoneticIndex => {
            Json::Obj(vec![("path".to_owned(), Json::Str("phonidx".to_owned()))])
        }
        BuildSpec::BkTree => Json::Obj(vec![("path".to_owned(), Json::Str("bktree".to_owned()))]),
    }
}

fn build_from_json(j: &Json) -> Result<BuildSpec, DbError> {
    let path = j
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| decode_err("build spec missing path"))?;
    match path {
        "qgram" => {
            let q = j
                .get("q")
                .and_then(Json::as_i64)
                .and_then(|q| usize::try_from(q).ok())
                .ok_or_else(|| decode_err("qgram build spec missing q"))?;
            let mode = match j.get("mode").and_then(Json::as_str) {
                Some("strict") => QgramMode::Strict,
                Some("paper_faithful") => QgramMode::PaperFaithful,
                _ => return Err(decode_err("qgram build spec has an unknown mode")),
            };
            BuildSpec::qgram(q, mode).map_err(|e| decode_err(format!("build spec: {e}")))
        }
        "phonidx" => Ok(BuildSpec::PhoneticIndex),
        "bktree" => Ok(BuildSpec::BkTree),
        other => Err(decode_err(format!("unknown build path {other:?}"))),
    }
}

fn entry_to_json(e: &SnapEntry) -> Json {
    Json::Arr(vec![
        Json::Str(e.text.clone()),
        Json::Str(e.language.to_string()),
        Json::Str(e.phonemes.clone()),
        Json::Str(hex_encode(&e.cluster_ids)),
    ])
}

fn entry_from_json(j: &Json) -> Result<SnapEntry, DbError> {
    let fields = j.as_arr().ok_or_else(|| decode_err("malformed entry"))?;
    let [text, language, phonemes, clusters] = fields else {
        return Err(decode_err("entry does not have 4 fields"));
    };
    let text = text
        .as_str()
        .ok_or_else(|| decode_err("entry text not a string"))?
        .to_owned();
    let language: Language = language
        .as_str()
        .ok_or_else(|| decode_err("entry language not a string"))?
        .parse()
        .map_err(decode_err)?;
    let phonemes = phonemes
        .as_str()
        .ok_or_else(|| decode_err("entry phonemes not a string"))?
        .to_owned();
    let cluster_ids = clusters
        .as_str()
        .and_then(hex_decode)
        .ok_or_else(|| decode_err("entry cluster ids not a hex string"))?;
    Ok(SnapEntry {
        text,
        language,
        phonemes,
        cluster_ids,
    })
}

impl StoreSnapshot {
    /// Capture a store's entries (per shard, in local-id order), built
    /// access paths and corpus fingerprint, as the store stands. The
    /// snapshot carries no WAL anchor (lsn 0) — see
    /// [`capture_cut`](Self::capture_cut).
    pub fn capture(store: &ShardedStore) -> StoreSnapshot {
        Self::capture_cut(store, &store.cut(0))
    }

    /// Capture exactly the rows, build specs and WAL LSN of `cut`,
    /// reading the rows through the store's chunked prefix reader — no
    /// lock is held, and rows appended after the cut are not in the
    /// document.
    pub fn capture_cut(store: &ShardedStore, cut: &Cut) -> StoreSnapshot {
        let operator = store.operator();
        let shards = store.shards();
        let mut sections: Vec<Vec<SnapEntry>> = (0..shards).map(|_| Vec::new()).collect();
        let mut reader = store.prefix_reader(cut.rows);
        let mut g = 0usize;
        while let Some(chunk) = reader.next_chunk() {
            for (text, language, ids) in chunk.rows() {
                let phonemes: PhonemeString = ids
                    .iter()
                    .map(|&id| Phoneme::from_id(id).expect("stored phoneme ids are inventory ids"))
                    .collect();
                sections[g % shards].push(SnapEntry {
                    cluster_ids: operator.cluster_ids(&phonemes),
                    phonemes: phonemes.to_string(),
                    text: String::from_utf8(text.to_vec()).expect("stored names are UTF-8"),
                    language,
                });
                g += 1;
            }
        }
        StoreSnapshot {
            version: STORE_SNAPSHOT_VERSION,
            shards,
            builds: cut.builds.clone(),
            fingerprint: fingerprint(&sections),
            lsn: cut.lsn,
            sections,
        }
    }

    /// Shard count the snapshot was written with (and restores to).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// WAL LSN this snapshot covers (0 = no WAL).
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Total names across all shard sections.
    pub fn len(&self) -> usize {
        self.sections.iter().map(Vec::len).sum()
    }

    /// Whether the snapshot holds no names.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The access paths the snapshot will rebuild on restore.
    pub fn builds(&self) -> &[BuildSpec] {
        &self.builds
    }

    /// Restore into a fresh store with the snapshot's own shard count.
    ///
    /// Entries go back to their original shards (every global id is
    /// preserved), stored cluster-id vectors are validated against
    /// `config`'s cost model, a row too long to store is refused as any
    /// other door refuses it, and the recorded access paths are rebuilt.
    pub fn restore(&self, config: MatchConfig) -> Result<ShardedStore, DbError> {
        self.restore_with_shards(config, self.shards)
    }

    /// [`restore`](Self::restore), but demanding a specific shard count:
    /// a snapshot can only be loaded at the shard count it was written
    /// with — anything else needs re-sharding (ROADMAP "Shard
    /// rebalancing", still open) and errors cleanly here.
    pub fn restore_with_shards(
        &self,
        config: MatchConfig,
        shards: usize,
    ) -> Result<ShardedStore, DbError> {
        if self.version != STORE_SNAPSHOT_VERSION {
            return Err(DbError::Unsupported(format!(
                "store snapshot version {} (expected {STORE_SNAPSHOT_VERSION})",
                self.version
            )));
        }
        if shards != self.shards {
            return Err(DbError::Unsupported(format!(
                "snapshot holds {} shard(s) but {shards} were requested; \
                 re-striping at load is not supported in the binary or JSON \
                 snapshot formats (ROADMAP: shard rebalancing) — load with \
                 {} shard(s) or rebuild from the corpus",
                self.shards, self.shards
            )));
        }
        if self.shards == 0 || self.sections.len() != self.shards {
            return Err(decode_err("shard sections do not match the header count"));
        }
        let total = self.len();
        for (s, section) in self.sections.iter().enumerate() {
            // Round-robin striping: shard s holds the global ids ≡ s (mod N).
            let expected = (total + self.shards - 1 - s) / self.shards;
            if section.len() != expected {
                return Err(decode_err(format!(
                    "shard {s} holds {} entries where the round-robin stripe \
                     requires {expected}",
                    section.len()
                )));
            }
        }
        if fingerprint(&self.sections) != self.fingerprint {
            return Err(decode_err(
                "corpus fingerprint mismatch — the snapshot is corrupt or was modified",
            ));
        }

        // Parse phonemes, validate cluster ids and push each row, in
        // global-id order, into a load of the new store: the shards derive
        // their columns while the next rows are parsed, and a row that
        // fails takes the half-filled store with it.
        let store = ShardedStore::new(config, self.shards);
        let operator = store.operator();
        let entry = |g: usize| (g % self.shards, g / self.shards);
        let mut loader = store.loader();
        loader.reserve((0..total).map(|g| {
            let (s, l) = entry(g);
            let e = &self.sections[s][l];
            (e.text.len(), e.cluster_ids.len())
        }));
        for (s, l) in (0..total).map(entry) {
            let e = &self.sections[s][l];
            let phonemes: PhonemeString = e.phonemes.parse().map_err(|err| {
                decode_err(format!("shard {s} entry {l}: bad phoneme string: {err}"))
            })?;
            let stored = e.cluster_ids.iter().copied();
            if !operator.cluster_ids_of(phonemes.id_bytes()).eq(stored) {
                return Err(DbError::Unsupported(format!(
                    "shard {s} entry {l} ({:?}): stored cluster ids disagree with the \
                     configured cost model — the snapshot was written under a different \
                     MatchConfig",
                    e.text
                )));
            }
            loader
                .push(&[&e.text], e.language, &[&phonemes])
                .map_err(|err| decode_err(format!("shard {s} entry {l}: {err:?}")))?;
        }
        loader.finish();
        for &spec in &self.builds {
            store.build(spec);
        }
        Ok(store)
    }

    /// The JSON document form of this snapshot.
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "format".to_owned(),
                Json::Str(STORE_SNAPSHOT_FORMAT.to_owned()),
            ),
            ("version".to_owned(), Json::Int(self.version as i64)),
            ("shards".to_owned(), Json::Int(self.shards as i64)),
            ("names".to_owned(), Json::Int(self.len() as i64)),
            ("lsn".to_owned(), Json::Int(self.lsn as i64)),
            (
                "fingerprint".to_owned(),
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "builds".to_owned(),
                Json::Arr(self.builds.iter().map(build_to_json).collect()),
            ),
            (
                "sections".to_owned(),
                Json::Arr(
                    self.sections
                        .iter()
                        .map(|section| Json::Arr(section.iter().map(entry_to_json).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<StoreSnapshot, DbError> {
        match doc.get("format").and_then(Json::as_str) {
            Some(STORE_SNAPSHOT_FORMAT) => {}
            Some(other) => {
                return Err(decode_err(format!(
                    "document is a {other:?}, not a {STORE_SNAPSHOT_FORMAT:?}"
                )))
            }
            None => return Err(decode_err("missing format tag")),
        }
        let version = doc
            .get("version")
            .and_then(Json::as_i64)
            .filter(|&v| v >= 0)
            .ok_or_else(|| decode_err("missing version"))? as u32;
        let shards = doc
            .get("shards")
            .and_then(Json::as_i64)
            .filter(|&s| s > 0)
            .ok_or_else(|| decode_err("missing or non-positive shard count"))?
            as usize;
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| decode_err("missing fingerprint"))?;
        let builds = doc
            .get("builds")
            .and_then(Json::as_arr)
            .ok_or_else(|| decode_err("missing builds"))?
            .iter()
            .map(build_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let sections = doc
            .get("sections")
            .and_then(Json::as_arr)
            .ok_or_else(|| decode_err("missing sections"))?
            .iter()
            .map(|section| {
                section
                    .as_arr()
                    .ok_or_else(|| decode_err("malformed section"))?
                    .iter()
                    .map(entry_from_json)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let names = doc
            .get("names")
            .and_then(Json::as_i64)
            .ok_or_else(|| decode_err("missing names count"))?;
        let total: usize = sections.iter().map(Vec::len).sum();
        if names != total as i64 {
            return Err(decode_err(format!(
                "header says {names} names but the sections hold {total}"
            )));
        }
        // Pre-replication documents carry no lsn; they anchor at 0.
        let lsn = doc
            .get("lsn")
            .and_then(Json::as_i64)
            .filter(|&l| l >= 0)
            .unwrap_or(0) as u64;
        Ok(StoreSnapshot {
            version,
            shards,
            builds,
            fingerprint,
            lsn,
            sections,
        })
    }

    /// Serialize to a writer as JSON.
    pub fn write_to(&self, mut w: impl Write) -> Result<(), DbError> {
        w.write_all(self.to_json().render().as_bytes())
            .map_err(|e| DbError::Unsupported(format!("store snapshot encode: {e}")))
    }

    /// Deserialize from a reader.
    pub fn read_from(mut r: impl Read) -> Result<StoreSnapshot, DbError> {
        let mut text = String::new();
        r.read_to_string(&mut text)
            .map_err(|e| decode_err(format!("read: {e}")))?;
        let doc = Json::parse(&text).map_err(decode_err)?;
        StoreSnapshot::from_json(&doc)
    }

    /// Write to `path` atomically: the document lands in a same-directory
    /// temp file, is fsynced, then renamed over the target — a reader
    /// (or a crash) never sees a half-written snapshot.
    pub fn write_to_file_atomic(&self, path: impl AsRef<std::path::Path>) -> Result<(), DbError> {
        let path = path.as_ref();
        let tmp = crate::mmapstore::tmp_sibling(path);
        let write = (|| {
            let f = std::fs::File::create(&tmp)
                .map_err(|e| DbError::Unsupported(format!("store snapshot create: {e}")))?;
            let mut w = std::io::BufWriter::new(f);
            self.write_to(&mut w)?;
            use std::io::Write as _;
            w.flush()
                .and_then(|()| w.get_ref().sync_all())
                .map_err(|e| DbError::Unsupported(format!("store snapshot sync: {e}")))?;
            std::fs::rename(&tmp, path)
                .map_err(|e| DbError::Unsupported(format!("store snapshot rename: {e}")))
        })();
        if write.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        write
    }
}

impl ShardedStore {
    /// Persist this store (entries, striping, built access paths) to a
    /// writer as one versioned JSON document.
    pub fn save_to(&self, w: impl Write) -> Result<(), DbError> {
        StoreSnapshot::capture(self).write_to(w)
    }

    /// Persist this store to a file (see [`StoreSnapshot`]).
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), DbError> {
        let f = std::fs::File::create(path)
            .map_err(|e| DbError::Unsupported(format!("store snapshot create: {e}")))?;
        self.save_to(std::io::BufWriter::new(f))
    }

    /// Load a store previously saved with [`save_to`](Self::save_to).
    ///
    /// `shards` pins the shard count: `None` accepts whatever the
    /// snapshot was written with, `Some(m)` errors cleanly unless the
    /// snapshot holds exactly `m` shards (re-sharding on load is not
    /// supported — ROADMAP "Shard rebalancing").
    pub fn load_from(
        config: MatchConfig,
        shards: Option<usize>,
        r: impl Read,
    ) -> Result<ShardedStore, DbError> {
        let snap = StoreSnapshot::read_from(r)?;
        match shards {
            Some(m) => snap.restore_with_shards(config, m),
            None => snap.restore(config),
        }
    }

    /// Load a store from a file written by
    /// [`save_to_file`](Self::save_to_file).
    pub fn load_from_file(
        config: MatchConfig,
        shards: Option<usize>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<ShardedStore, DbError> {
        let f = std::fs::File::open(path)
            .map_err(|e| DbError::Unsupported(format!("store snapshot open: {e}")))?;
        ShardedStore::load_from(config, shards, std::io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexequal::SearchMethod;

    fn demo_store(shards: usize) -> ShardedStore {
        let store = ShardedStore::new(MatchConfig::default(), shards);
        store
            .extend(
                [
                    ("Nehru", Language::English),
                    ("नेहरु", Language::Hindi),
                    ("நேரு", Language::Tamil),
                    ("Nero", Language::English),
                    ("Gandhi", Language::English),
                    ("गांधी", Language::Hindi),
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
        store.build(BuildSpec::BkTree);
        store
    }

    #[test]
    fn memory_round_trip_preserves_entries_ids_and_builds() {
        let store = demo_store(3);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded = ShardedStore::load_from(MatchConfig::default(), None, buf.as_slice()).unwrap();
        assert_eq!(loaded.shards(), 3);
        assert_eq!(loaded.len(), store.len());
        for id in 0..store.len() as u32 {
            let (a, b) = (store.get(id).unwrap(), loaded.get(id).unwrap());
            assert_eq!(a.text, b.text, "id {id}");
            assert_eq!(a.language, b.language, "id {id}");
            assert_eq!(a.phonemes, b.phonemes, "id {id}");
        }
        assert_eq!(loaded.built_specs(), store.built_specs());
        assert_eq!(loaded.built_specs().len(), 3);
    }

    #[test]
    fn loaded_store_searches_bit_identically() {
        let store = demo_store(2);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded = ShardedStore::load_from(MatchConfig::default(), None, buf.as_slice()).unwrap();
        for method in [
            SearchMethod::Scan,
            SearchMethod::Qgram,
            SearchMethod::PhoneticIndex,
            SearchMethod::BkTree,
        ] {
            for (q, l) in [("Nehru", Language::English), ("गांधी", Language::Hindi)] {
                for e in [0.0, 0.35, 0.45] {
                    let a = store.search(q, l, e, method).unwrap();
                    let b = loaded.search(q, l, e, method).unwrap();
                    assert_eq!(a, b, "{q} e={e} {method:?}");
                }
            }
        }
    }

    #[test]
    fn shard_count_mismatch_is_a_clean_error() {
        let store = demo_store(2);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let Err(err) = ShardedStore::load_from(MatchConfig::default(), Some(3), buf.as_slice())
        else {
            panic!("2-shard snapshot into 3 shards must fail");
        };
        let msg = err.to_string();
        assert!(msg.contains("2 shard"), "{msg}");
        assert!(msg.contains("3 were requested"), "{msg}");
        assert!(msg.contains("rebalancing"), "{msg}");
        // Pinning the matching count loads fine.
        assert!(ShardedStore::load_from(MatchConfig::default(), Some(2), buf.as_slice()).is_ok());
    }

    #[test]
    fn empty_store_round_trips() {
        let store = ShardedStore::new(MatchConfig::default(), 2);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded = ShardedStore::load_from(MatchConfig::default(), None, buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.shards(), 2);
        assert!(loaded.built_specs().is_empty());
    }

    #[test]
    fn appends_keep_the_declared_paths_in_the_snapshot() {
        let store = demo_store(2);
        let declared = store.built_specs();
        assert_eq!(declared.len(), 3);
        store.insert("Bose", Language::English).unwrap();
        assert_eq!(
            store.built_specs(),
            declared,
            "an append is a tail, not an invalidation: the snapshot still records every path"
        );
    }

    #[test]
    fn tampered_document_is_rejected_by_the_fingerprint() {
        let store = demo_store(2);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Swap one stored name for another of the same length: still
        // valid JSON, still a valid stripe — only the fingerprint knows.
        let tampered = text.replace("Nero", "Nerf");
        assert_ne!(text, tampered);
        let Err(err) = ShardedStore::load_from(MatchConfig::default(), None, tampered.as_bytes())
        else {
            panic!("tampered snapshot must not load");
        };
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn different_cost_model_is_rejected_via_cluster_ids() {
        let store = demo_store(2);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        // A one-cluster-per-phoneme table clusters nothing: every stored
        // cluster-id vector disagrees with it.
        let other = MatchConfig::default().with_clusters(lexequal::ClusterTable::identity());
        let Err(err) = ShardedStore::load_from(other, None, buf.as_slice()) else {
            panic!("snapshot under a different clustering must not load");
        };
        assert!(err.to_string().contains("cost model"), "{err}");
    }

    #[test]
    fn corrupt_and_truncated_documents_error_not_panic() {
        let store = demo_store(2);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let full = String::from_utf8(buf).unwrap();
        let mut cases = vec![
            String::new(),
            "{}".to_owned(),
            "not json".to_owned(),
            r#"{"format":"lexequal-store-snapshot"}"#.to_owned(),
            r#"{"format":"mdb-snapshot","version":1}"#.to_owned(),
        ];
        // Truncations at several byte offsets (cut inside the document).
        for frac in [4, 2] {
            cases.push(full[..full.len() / frac].to_owned());
        }
        for src in cases {
            let r = ShardedStore::load_from(MatchConfig::default(), None, src.as_bytes());
            assert!(
                r.is_err(),
                "{:?}... should be rejected",
                &src[..src.len().min(40)]
            );
        }
    }

    #[test]
    fn a_recorded_gram_length_no_index_takes_is_a_named_error() {
        let mode = QgramMode::PaperFaithful;
        let good = BuildSpec::Qgram { q: 4, mode };
        assert_eq!(build_from_json(&build_to_json(&good)).unwrap(), good);
        for q in [0, 5, 255] {
            let err = build_from_json(&build_to_json(&BuildSpec::Qgram { q, mode })).unwrap_err();
            let named = format!("q-gram length {q} is outside 1..=4");
            assert!(err.to_string().contains(&named), "{err}");
        }
        let mut negative = build_to_json(&good);
        if let Json::Obj(fields) = &mut negative {
            fields[1].1 = Json::Int(-3);
        }
        assert!(build_from_json(&negative).is_err());
    }

    #[test]
    fn hex_round_trips() {
        for v in [vec![], vec![0u8], vec![0x0a, 0xff, 0x00, 0x7f]] {
            assert_eq!(hex_decode(&hex_encode(&v)).unwrap(), v);
        }
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }
}
