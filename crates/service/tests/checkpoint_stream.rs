//! The streaming checkpoint: same bytes, no stop-the-world, bounded memory.
//!
//! A checkpoint used to hold the commit lock while it cloned every row,
//! rebuilt five arenas and a sixth whole-image buffer, wrote, fsynced and
//! renamed. It is now an O(1) cut under the lock — `(lsn, row count, build
//! specs)` — followed by a chunked read of the store's immutable prefix,
//! streamed straight into the sink. These tests pin what must not have
//! changed (the image, byte for byte, against the old encoder kept here as
//! an oracle) and what must have (commits and `STATS` proceed while the
//! sink is blocked mid-file; rows committed after the cut are not in the
//! image; transient memory is one chunk, not three copies of the corpus).

use lexequal::{Language, LexEqual, MatchConfig, QgramMode, EMBED_DIM};
use lexequal_lexicon::Corpus;
use lexequal_service::mmapstore::{self, ImageSink};
use lexequal_service::server::respond;
use lexequal_service::{
    BuildSpec, Cut, MatchService, Replicator, ReqCtx, ServiceConfig, ShardedStore, Wal, WalMetrics,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

// ---------------------------------------------------------------------
// Counting allocator (style of `verify_zero_alloc.rs::allocations_in`,
// but process-wide: a checkpoint allocates on the shard workers too).
// ---------------------------------------------------------------------

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// SAFETY: defers to `System` for every operation and only counts around
// it; `realloc` keeps the default (alloc + copy + dealloc), so it is
// counted through the two methods below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            PEAK.fetch_max(live + layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide, so every test in this file takes this
/// lock: a neighbour's allocations must not land in a measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// What `f` allocated, on any thread: `(allocation count, peak live
/// bytes above the level at its start)`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed),
        PEAK.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// The oracle: the whole-store encoder this PR replaced, verbatim except
// that it reads rows through the public `get` instead of the deleted
// `export_shards`. It shares nothing with the product writer — not the
// checksum, not the layout arithmetic, not the cluster lookup.
// ---------------------------------------------------------------------

mod oracle {
    use super::*;

    const MAGIC: [u8; 8] = *b"LEXEQMM1";
    const FORMAT_VERSION: u32 = 2;
    const ENDIAN_TAG: u32 = 0x0102_0304;
    const V2_SECTIONS: usize = 6;
    const HEADER_LEN: usize = 40 + V2_SECTIONS * 24;
    const ENTRY_RECORD: usize = 16;
    const SPEC_RECORD: usize = 8;

    fn spec_to_record(spec: &BuildSpec) -> [u8; SPEC_RECORD] {
        let mut rec = [0u8; SPEC_RECORD];
        match spec {
            BuildSpec::Qgram { q, mode } => {
                rec[0] = 0;
                rec[1] = u8::try_from(*q).expect("q fits the format");
                rec[2] = match mode {
                    QgramMode::Strict => 0,
                    QgramMode::PaperFaithful => 1,
                };
            }
            BuildSpec::PhoneticIndex => rec[0] = 1,
            BuildSpec::BkTree => rec[0] = 2,
        }
        rec
    }

    fn pad_to_align(buf: &mut Vec<u8>) {
        while buf.len() % 8 != 0 {
            buf.push(0);
        }
    }

    fn section_checksum(bytes: &[u8]) -> u64 {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = BASIS;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
        }
        h
    }

    pub fn encode(store: &ShardedStore, lsn: u64) -> Vec<u8> {
        let builds = store.built_specs();
        let shards = store.shards();
        let total = store.len();
        let entry_count = u32::try_from(total).expect("entry count fits");
        let operator = LexEqual::new(store.config().clone());

        let mut entry_table = Vec::with_capacity(total * ENTRY_RECORD);
        let mut texts = Vec::new();
        let mut phonemes = Vec::new();
        let mut clusters = Vec::new();
        let mut embeds = Vec::with_capacity(total * EMBED_DIM);
        for g in 0..total {
            let entry = store.get(g as u32).expect("id below len");
            let text = entry.text.as_bytes();
            let phon = entry.phonemes.id_bytes();
            let text_off = u32::try_from(texts.len()).expect("text arena fits");
            let phon_off = u32::try_from(phonemes.len()).expect("phoneme arena fits");
            let text_len = u16::try_from(text.len()).expect("text fits");
            let phon_len = u16::try_from(phon.len()).expect("phonemes fit");
            let lang = Language::ALL
                .iter()
                .position(|l| *l == entry.language)
                .expect("every language is in Language::ALL") as u8;
            texts.extend_from_slice(text);
            phonemes.extend_from_slice(phon);
            clusters.extend_from_slice(&operator.cluster_ids(&entry.phonemes));
            embeds.extend_from_slice(&operator.embed_for(&entry.phonemes));
            entry_table.extend_from_slice(&text_off.to_le_bytes());
            entry_table.extend_from_slice(&phon_off.to_le_bytes());
            entry_table.extend_from_slice(&text_len.to_le_bytes());
            entry_table.extend_from_slice(&phon_len.to_le_bytes());
            entry_table.push(lang);
            entry_table.extend_from_slice(&[0u8; 3]);
        }
        let mut specs = Vec::with_capacity(builds.len() * SPEC_RECORD);
        for spec in &builds {
            specs.extend_from_slice(&spec_to_record(spec));
        }

        let mut image = Vec::new();
        image.extend_from_slice(&MAGIC);
        image.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        image.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        image.extend_from_slice(&(shards as u32).to_le_bytes());
        image.extend_from_slice(&entry_count.to_le_bytes());
        image.extend_from_slice(&lsn.to_le_bytes());
        image.extend_from_slice(&(V2_SECTIONS as u32).to_le_bytes());
        image.extend_from_slice(&0u32.to_le_bytes());
        image.resize(HEADER_LEN, 0);

        let payloads: [&[u8]; V2_SECTIONS] =
            [&specs, &entry_table, &texts, &phonemes, &clusters, &embeds];
        let mut table = [[0u64; 3]; V2_SECTIONS];
        for (i, payload) in payloads.iter().enumerate() {
            pad_to_align(&mut image);
            table[i] = [
                image.len() as u64,
                payload.len() as u64,
                section_checksum(payload),
            ];
            image.extend_from_slice(payload);
        }
        for (i, [off, len, sum]) in table.iter().enumerate() {
            let at = 40 + i * 24;
            image[at..at + 8].copy_from_slice(&off.to_le_bytes());
            image[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
            image[at + 16..at + 24].copy_from_slice(&sum.to_le_bytes());
        }
        image
    }
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("lexequal_ckpt_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).expect("create temp dir");
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn paper_corpus() -> Vec<(String, Language)> {
    Corpus::build(&MatchConfig::default())
        .entries
        .into_iter()
        .map(|e| (e.text, e.language))
        .collect()
}

/// The 20 418 names `lexequald --preload 20000` builds.
fn preload_set() -> Vec<lexequal::store::NameEntry> {
    let set = lexequal_lexicon::build_dataset(&MatchConfig::default(), 20_000);
    assert_eq!(set.len(), 20_418, "the set the daemon's --preload builds");
    set
}

fn all_specs() -> [BuildSpec; 3] {
    [
        BuildSpec::Qgram {
            q: 3,
            mode: QgramMode::Strict,
        },
        BuildSpec::PhoneticIndex,
        BuildSpec::BkTree,
    ]
}

/// The i-th synthetic name: always alphabetic, always G2P-transformable,
/// and distinct for every `i` (the numeral is spelled in letters).
fn name(i: usize) -> String {
    let heads = ["Ka", "Re", "Ni", "Mo", "Ta", "Lu"];
    let tails = ["ram", "vel", "din", "sha", "pur", "nak"];
    let mut s = format!("{}{}", heads[i % heads.len()], tails[(i / 6) % tails.len()]);
    let mut rest = i / 36;
    while rest > 0 {
        s.push((b'a' + (rest % 26) as u8) as char);
        rest /= 26;
    }
    s
}

fn service(shards: usize) -> Arc<MatchService> {
    Arc::new(MatchService::new(ServiceConfig {
        match_config: MatchConfig::default(),
        shards,
        cache_capacity: 256,
    }))
}

fn primary(wal_path: &Path, shards: usize) -> (Arc<MatchService>, Arc<Replicator>) {
    let metrics = Arc::new(WalMetrics::default());
    let (wal, tail) = Wal::open(wal_path, 0, Arc::clone(&metrics)).expect("open wal");
    assert!(tail.is_empty(), "fresh wal must be empty");
    (service(shards), Replicator::new(wal, metrics))
}

// ---------------------------------------------------------------------
// (a) byte-identical images
// ---------------------------------------------------------------------

fn assert_same_image(store: &ShardedStore, lsn: u64, what: &str) {
    let streamed = mmapstore::encode(store, lsn).expect("encode");
    let expected = oracle::encode(store, lsn);
    assert_eq!(streamed.len(), expected.len(), "{what}: image length");
    if let Some(at) = streamed.iter().zip(&expected).position(|(a, b)| a != b) {
        panic!("{what}: first differing byte at offset {at}");
    }
}

#[test]
fn image_is_byte_identical_to_the_whole_store_encoder() {
    let _serial = serial();
    let config = MatchConfig::default();
    let corpus = paper_corpus();
    let preload = preload_set();
    for shards in 1..=3 {
        let empty = ShardedStore::new(config.clone(), shards);
        assert_same_image(&empty, 7, &format!("empty store, {shards} shard(s)"));

        let paper = ShardedStore::new(config.clone(), shards);
        paper.extend(corpus.iter().cloned()).expect("paper corpus");
        assert_same_image(&paper, 0, &format!("paper corpus, {shards} shard(s)"));
        for spec in all_specs() {
            paper.build(spec);
        }
        assert_same_image(
            &paper,
            u64::MAX,
            &format!("paper corpus with recorded specs, {shards} shard(s)"),
        );

        // The preload set spans twenty chunks, so chunk seams fall inside
        // every arena and off every 8-byte checksum word.
        let big = ShardedStore::new(config.clone(), shards);
        big.extend_transformed(preload.clone());
        assert_same_image(&big, 41, &format!("preload set, {shards} shard(s)"));
        big.build(BuildSpec::PhoneticIndex);
        assert_same_image(
            &big,
            42,
            &format!("preload set with a recorded spec, {shards} shard(s)"),
        );
    }
}

#[test]
fn image_of_an_mmap_loaded_store_with_an_owned_tail_is_byte_identical() {
    let _serial = serial();
    let dir = TempDir::new("mmap_tail");
    let config = MatchConfig::default();
    for shards in 1..=3 {
        let path = dir.path().join(format!("base{shards}.img"));
        let base = ShardedStore::new(config.clone(), shards);
        base.extend(paper_corpus()).expect("paper corpus");
        base.build(BuildSpec::BkTree);
        mmapstore::write_file_atomic(&base, &base.cut(5), &path).expect("write base image");

        // Rows 0..n are views into the mapping, the tail rows own theirs.
        let loaded = mmapstore::load_file(config.clone(), Some(shards), &path).expect("load");
        assert_eq!(loaded.builds, vec![BuildSpec::BkTree]);
        for i in 0..3_000 {
            loaded
                .store
                .insert(&name(i), Language::English)
                .expect("ADD tail");
        }
        assert_same_image(
            &loaded.store,
            9,
            &format!("mmap-loaded + owned tail, {shards} shard(s)"),
        );
        loaded.store.build(BuildSpec::PhoneticIndex);
        assert_same_image(
            &loaded.store,
            10,
            &format!("mmap-loaded + owned tail + spec, {shards} shard(s)"),
        );
    }
}

// ---------------------------------------------------------------------
// (b) commits flow while the sink is blocked mid-file
// ---------------------------------------------------------------------

/// A `Vec` sink that stops inside its `block_at`-th write until released.
struct GatedSink {
    image: Vec<u8>,
    writes: usize,
    block_at: usize,
    blocked: Sender<()>,
    release: Receiver<()>,
}

impl ImageSink for GatedSink {
    fn preallocate(&mut self, len: u64) -> std::io::Result<()> {
        self.image.preallocate(len)
    }
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
        self.writes += 1;
        if self.writes == self.block_at {
            self.blocked.send(()).expect("test is listening");
            self.release.recv().expect("test releases the gate");
        }
        self.image.write_at(offset, bytes)
    }
}

#[test]
fn commits_and_stats_proceed_while_the_sink_is_blocked_mid_file() {
    let _serial = serial();
    let dir = TempDir::new("gated");
    let (service, repl) = primary(&dir.path().join("gated.wal"), 2);
    // Five chunks' worth, so the gate closes with most of the prefix
    // still unread.
    const ROWS: usize = 5_000;
    for i in 0..ROWS {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }

    let (blocked_tx, blocked_rx) = channel();
    let (release_tx, release_rx) = channel();
    let mut sink = GatedSink {
        image: Vec::new(),
        writes: 0,
        // Write 1 is the spec section; 2..=6 are the first chunk's five
        // arenas. Stop in the middle of those.
        block_at: 4,
        blocked: blocked_tx,
        release: release_rx,
    };
    let checkpoint = {
        let (service, repl) = (Arc::clone(&service), Arc::clone(&repl));
        std::thread::spawn(move || {
            let cut = repl.checkpoint_to(&service, &mut sink).expect("checkpoint");
            (cut, sink.image)
        })
    };
    blocked_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the checkpoint reaches its fourth write");

    // The checkpoint is parked mid-file. Under the old discipline it held
    // the commit lock here, and both of these waited on it forever; run
    // them on a thread so that failure is a timeout, not a hung test.
    let (done_tx, done_rx) = channel();
    let during = {
        let (service, repl) = (Arc::clone(&service), Arc::clone(&repl));
        std::thread::spawn(move || {
            let mut ids = Vec::new();
            for i in ROWS..ROWS + 40 {
                let (_, id) = repl
                    .commit_add(&service, &name(i), Language::English)
                    .expect("commit during the checkpoint");
                ids.push(id);
            }
            let ctx = ReqCtx {
                repl: Some(repl),
                ..ReqCtx::default()
            };
            let stats = respond("STATS", &service, &ctx, None, &mut false);
            done_tx.send((ids, stats)).expect("test is listening");
        })
    };
    let (ids, stats) = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("commit_add and STATS return while the checkpoint's sink is blocked");
    during.join().expect("commit thread");
    assert_eq!(ids, (ROWS as u32..ROWS as u32 + 40).collect::<Vec<_>>());
    assert!(
        stats[0].contains(&format!("names={}", ROWS + 40)),
        "{stats:?}"
    );
    // The new keys ride on the end of the line: every older key keeps
    // its position.
    let keys: Vec<&str> = stats[0]
        .split_whitespace()
        .filter_map(|token| token.split_once('=').map(|(key, _)| key))
        .collect();
    assert_eq!(
        keys[keys.len() - 16..],
        [
            "divergences",
            "commit_hold_max_us",
            "checkpoint_ms_last",
            "checkpoint_rows_last",
            "declared",
            "qgram_tail",
            "phonidx_tail",
            "bktree_tail",
            "covers",
            "cover_ms_last",
            "row_bytes",
            "mapped_bytes",
            "index_bytes",
            "qgram_bytes",
            "phonidx_bytes",
            "bktree_bytes"
        ],
        "{stats:?}"
    );

    release_tx.send(()).expect("checkpoint is waiting");
    let (cut, image) = checkpoint.join().expect("checkpoint thread");
    assert_eq!(
        cut,
        Cut {
            lsn: ROWS as u64,
            rows: ROWS,
            builds: Vec::new()
        }
    );

    // The forty rows committed mid-stream are not in the image: it is the
    // store at the cut, to the byte.
    let at_cut = ShardedStore::new(MatchConfig::default(), 2);
    at_cut
        .extend((0..ROWS).map(|i| (name(i), Language::English)))
        .expect("rebuild the prefix");
    assert!(
        image == oracle::encode(&at_cut, ROWS as u64),
        "the image differs from the store as it stood at the cut"
    );
    repl.stop_and_join();
}

// ---------------------------------------------------------------------
// (b') the same for a cover: parked in its first chunk, it blocks nothing
// ---------------------------------------------------------------------

/// A `BUILD` used to hold the commit lock (and the grow lock, and every
/// shard worker) for the whole index construction. A cover holds none of
/// them: with one parked right after its first chunk of rows, `BUILD ALL`,
/// forty `ADD`s, `STATS` and a `MATCH` through every path all return —
/// and the `MATCH`es, served by paths no index covers yet, say what a
/// store built from scratch says.
#[test]
fn commits_stats_and_every_path_proceed_while_a_cover_is_parked_in_its_first_chunk() {
    use lexequal::{NameStore, SearchMethod};
    use lexequal_service::{proto::format_outcome, MatchOutcome};

    let _serial = serial();
    let dir = TempDir::new("cover");
    let (service, repl) = primary(&dir.path().join("cover.wal"), 2);
    let seed = preload_set();
    service.extend_transformed(seed.clone());
    for spec in all_specs() {
        service.store().declare(spec);
    }

    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let cover = {
        let service = Arc::clone(&service);
        let release_rx = Mutex::new(release_rx);
        let first = AtomicBool::new(true);
        std::thread::spawn(move || {
            service.store().cover_with(&all_specs(), &|| {
                // One shard's cover parks; the other runs to its install.
                if first.swap(false, Ordering::SeqCst) {
                    parked_tx.send(()).expect("test is listening");
                    let gate = release_rx.lock().expect("gate");
                    gate.recv().expect("test releases the gate");
                }
            });
        })
    };
    parked_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the cover reads its first chunk");

    const ADDS: usize = 40;
    let queries = ["Nehru", "Karam", "Retel"];
    let battery = move |service: &MatchService, ctx: &ReqCtx| -> Vec<String> {
        let mut lines = respond("MATCH en scan - Karam", service, ctx, None, &mut false);
        for method in ["qgram", "phonidx", "bktree"] {
            for query in queries {
                let line = format!("MATCH en {method} - {query}");
                lines.extend(respond(&line, service, ctx, None, &mut false));
            }
        }
        lines
    };
    let (done_tx, done_rx) = channel();
    let during = {
        let (service, repl) = (Arc::clone(&service), Arc::clone(&repl));
        std::thread::spawn(move || {
            let ctx = ReqCtx {
                repl: Some(Arc::clone(&repl)),
                ..ReqCtx::default()
            };
            let built = respond("BUILD ALL", &service, &ctx, None, &mut false);
            for i in 0..ADDS {
                repl.commit_add(&service, &name(i), Language::English)
                    .expect("commit during the cover");
            }
            let stats = respond("STATS", &service, &ctx, None, &mut false);
            let lines = battery(&service, &ctx);
            done_tx
                .send((built, stats, lines))
                .expect("test is listening");
        })
    };
    let (built, stats, lines) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("BUILD ALL, commit_add, STATS and MATCH return while a cover is parked");
    during.join().expect("request thread");
    assert_eq!(built, ["OK built=all"]);
    let rows = seed.len() + ADDS;
    assert!(stats[0].contains(&format!("names={rows} ")), "{stats:?}");
    assert!(stats[0].contains(" notbuilt=0 "), "{stats:?}");
    // One shard's three indices are in; the parked shard's rows — and
    // every row added since — are still tails.
    let tail = |key: &str| -> usize {
        let (_, rest) = stats[0].split_once(key).expect("tail key");
        rest.split(' ')
            .next()
            .unwrap()
            .parse()
            .expect("a row count")
    };
    for key in [" qgram_tail=", " phonidx_tail=", " bktree_tail="] {
        assert!(
            tail(key) >= seed.len() / 2 + ADDS,
            "{key} while parked: {stats:?}"
        );
    }
    assert!(stats[0].contains(" declared=3 "), "{stats:?}");

    let mut oracle = NameStore::new(MatchConfig::default());
    oracle.extend_transformed(seed);
    for i in 0..ADDS {
        oracle.insert(&name(i), Language::English).expect("oracle");
    }
    oracle.build_qgram(3, QgramMode::Strict);
    oracle.build_phonetic_index();
    oracle.build_bktree();
    let mut expected = Vec::new();
    let mut expect = |method, query: &str| {
        let r = oracle
            .search(query, Language::English, 0.35, method)
            .unwrap();
        expected.push(format_outcome(&MatchOutcome::Matches {
            method,
            threshold: 0.35,
            ids: r.ids,
            verifications: r.verifications,
        }));
    };
    expect(SearchMethod::Scan, "Karam");
    for method in [
        SearchMethod::Qgram,
        SearchMethod::PhoneticIndex,
        SearchMethod::BkTree,
    ] {
        for query in queries {
            expect(method, query);
        }
    }
    assert_eq!(lines, expected, "answers while the cover is parked");

    release_tx.send(()).expect("the cover is waiting");
    cover.join().expect("cover thread");
    // `BUILD ALL`'s own covers queued behind the parked one; once they
    // have had their turn nothing is a tail, and no answer has moved.
    let ctx = ReqCtx {
        repl: Some(Arc::clone(&repl)),
        ..ReqCtx::default()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while service.stats().cover.tails != [0; 4] {
        assert!(
            std::time::Instant::now() < deadline,
            "covers never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(battery(&service, &ctx), expected, "answers once covered");
    repl.stop_and_join();
}

// ---------------------------------------------------------------------
// (b'') and for a load: parked mid-way, it holds up no cut, and no cut
// sees a row of it
// ---------------------------------------------------------------------

/// A bulk load is no longer one message a shard: it sends chunk after
/// chunk under the grow lock and publishes its length once, at the end. So
/// while one is parked with three chunks sent, the shards hold rows no
/// published length covers. A `SAVE` must neither wait for the load (a cut
/// takes the commit lock for an instant and never the grow lock) nor leak
/// a row of it into the image; a `commit_add` waits its turn and takes the
/// id after the load's last; a search sees what each shard holds, as it
/// did during the old one-message load; and the first `SAVE` after the
/// load holds every row.
#[test]
fn a_save_neither_waits_for_a_parked_load_nor_sees_its_rows() {
    use lexequal::store::CHUNK_ROWS;
    use lexequal::{NameStore, SearchMethod};

    let _serial = serial();
    let dir = TempDir::new("load");
    let (service, repl) = primary(&dir.path().join("load.wal"), 2);
    const BASE: usize = 1_500;
    const LOAD: usize = 4 * CHUNK_ROWS + 5;
    for i in 0..BASE {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }
    let rows: Vec<_> = (BASE..BASE + LOAD)
        .map(|i| service.prepare_entry(&name(i), Language::English).unwrap())
        .collect();

    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let load = {
        let (service, rows) = (Arc::clone(&service), rows.clone());
        std::thread::spawn(move || {
            let sent = AtomicUsize::new(0);
            let parked = move || {
                if sent.fetch_add(1, Ordering::SeqCst) == 2 {
                    parked_tx.send(()).expect("test is listening");
                    release_rx.recv().expect("test releases the load");
                }
            };
            let mut loader = service.store().loader_with(&parked);
            for e in &rows {
                loader
                    .push(&[&e.text], e.language, &[&e.phonemes])
                    .expect("a short row");
            }
            loader.finish()
        })
    };
    parked_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the load sends its third chunk");

    // Row BASE is even, so shard 0 filled first: it has been sent two
    // chunks and shard 1 one. A round trip to each worker queues behind
    // them, after which this is exactly what the shards hold:
    let held = |id: usize| id < BASE || (id - BASE) / 2 < [2, 1][id % 2] * CHUNK_ROWS;
    for shard in 0..2 {
        assert!(service.store().get(shard).is_some());
    }
    assert_eq!(service.len(), BASE, "nothing is published mid-load");
    let store = service.store();
    assert!(store.get(BASE as u32).is_some() && held(BASE));
    assert!(store.get((BASE + LOAD - 1) as u32).is_none() && !held(BASE + LOAD - 1));

    // SAVE, on a thread so that waiting for the load is a timeout here.
    let path = dir.path().join("parked.img");
    let (saved_tx, saved_rx) = channel();
    let saver = {
        let (service, repl, path) = (Arc::clone(&service), Arc::clone(&repl), path.clone());
        std::thread::spawn(move || {
            let lsn = repl.save_snapshot_atomic(&service, &path).expect("SAVE");
            saved_tx.send(lsn).expect("test is listening");
        })
    };
    let lsn = saved_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("SAVE returns while a load is parked");
    saver.join().expect("saver thread");
    assert_eq!(lsn, BASE as u64);
    let at_cut = ShardedStore::new(MatchConfig::default(), 2);
    at_cut
        .extend((0..BASE).map(|i| (name(i), Language::English)))
        .expect("rebuild the prefix");
    assert!(
        std::fs::read(&path).expect("image") == oracle::encode(&at_cut, lsn),
        "the image differs from the store as it stood before the load began"
    );
    let image = mmapstore::load_file(MatchConfig::default(), Some(2), &path).expect("load");
    assert_eq!(image.store.len(), BASE);

    // A search sees the rows the shards hold, published or not.
    let mut all = NameStore::new(MatchConfig::default());
    all.extend((0..BASE + LOAD).map(|i| (name(i), Language::English)))
        .expect("oracle");
    for id in [0, BASE, BASE + 2 * CHUNK_ROWS + 1] {
        let q = all.get(id as u32).unwrap().phonemes;
        let mut want = all.search_phonemes(&q, 0.35, SearchMethod::Scan).ids;
        want.retain(|&hit| held(hit as usize));
        let got = store.search_phonemes(&q, 0.35, SearchMethod::Scan);
        assert_eq!(got.ids, want, "scan for id {id} while the load is parked");
        assert_eq!(got.verifications, BASE + 3 * CHUNK_ROWS);
        assert_eq!(got.ids.contains(&(id as u32)), held(id));
    }

    // An ADD waits for the load and takes the id after its last.
    let (added_tx, added_rx) = channel();
    let adder = {
        let (service, repl) = (Arc::clone(&service), Arc::clone(&repl));
        std::thread::spawn(move || {
            let added = repl.commit_add(&service, "Nehru", Language::English);
            added_tx.send(added.expect("commit")).expect("listening");
        })
    };
    assert!(
        added_rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "a commit_add went ahead of a load that holds the grow lock"
    );
    release_tx.send(()).expect("the load is waiting");
    assert_eq!(
        load.join().expect("load thread"),
        BASE as u32..(BASE + LOAD) as u32
    );
    let (lsn, id) = added_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the ADD follows the load");
    adder.join().expect("adder thread");
    assert_eq!((lsn, id as usize), (BASE as u64 + 1, BASE + LOAD));

    // Finished, the load is in the next image, row for row.
    assert_eq!(service.len(), BASE + LOAD + 1);
    let lsn = repl.save_snapshot_atomic(&service, &path).expect("SAVE");
    let image = mmapstore::load_file(MatchConfig::default(), Some(2), &path).expect("load");
    assert_eq!((image.lsn, image.store.len()), (lsn, BASE + LOAD + 1));
    for id in [BASE - 1, BASE, BASE + LOAD - 1] {
        let entry = image.store.get(id as u32).expect("a saved row");
        assert_eq!(entry.text, name(id), "id {id}");
    }
    assert_eq!(image.store.get((BASE + LOAD) as u32).unwrap().text, "Nehru");
    repl.stop_and_join();
}

// ---------------------------------------------------------------------
// (c) rows committed after the cut are not in the image
// ---------------------------------------------------------------------

#[test]
fn checkpoints_under_an_add_storm_compose_with_the_wal_tail() {
    let _serial = serial();
    let dir = TempDir::new("storm");
    let wal_path = dir.path().join("storm.wal");
    let (service, repl) = primary(&wal_path, 2);
    const BASE: usize = 6_000;
    const STORM: usize = 1_500;
    for i in 0..BASE {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let (service, repl, stop) = (Arc::clone(&service), Arc::clone(&repl), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut acknowledged = BASE;
            while acknowledged < BASE + STORM || !stop.load(Ordering::Acquire) {
                let (_, id) = repl
                    .commit_add(&service, &name(acknowledged), Language::English)
                    .expect("storm commit");
                assert_eq!(id as usize, acknowledged, "ids follow commit order");
                acknowledged += 1;
            }
            acknowledged
        })
    };
    let mut images = Vec::new();
    for round in 0..6 {
        let path = dir.path().join(format!("storm{round}.img"));
        let lsn = repl
            .save_snapshot_atomic(&service, &path)
            .expect("checkpoint under the storm");
        images.push((path, lsn));
    }
    stop.store(true, Ordering::Release);
    let acknowledged = storm.join().expect("storm thread");
    assert!(
        images.windows(2).any(|w| w[0].1 < w[1].1),
        "the storm committed between checkpoints: {images:?}"
    );
    repl.stop_and_join();
    drop(repl);

    for (path, lsn) in images {
        let (loaded, image_lsn) =
            MatchService::load_snapshot_with_lsn(MatchConfig::default(), Some(2), 256, &path)
                .expect("load checkpoint");
        assert_eq!(image_lsn, lsn);
        // One ADD per LSN: the image of LSN l holds rows 0..l and not one
        // more, however many were committed while it was being written.
        assert_eq!(loaded.len() as u64, lsn, "image rows vs its cut");
        let (_wal, tail) =
            Wal::open(&wal_path, lsn, Arc::new(WalMetrics::default())).expect("reopen wal");
        for record in tail {
            loaded.apply_op(&record.op).expect("replay");
        }
        assert_eq!(
            loaded.len(),
            acknowledged,
            "names after replay from lsn {lsn}"
        );
        for id in (0..acknowledged).step_by(97).chain([acknowledged - 1]) {
            let entry = loaded.store().get(id as u32).expect("contiguous ids");
            assert_eq!(entry.text, name(id), "id {id} after replay from lsn {lsn}");
        }
    }
}

/// Snapshot writers that overlap (two `SAVE`s on two dispatch workers, a
/// `SAVE` racing the compactor) share one target path and so one temp
/// file name. With only the cut under the commit lock nothing else
/// keeps them apart: they must queue on the replicator, each a whole
/// cut → write → rename, so every call succeeds, the file is a loadable
/// image whenever one returns, and it never goes back to an older LSN.
#[test]
fn concurrent_saves_to_one_path_queue_and_never_regress_the_image() {
    let _serial = serial();
    let dir = TempDir::new("racing");
    let (service, repl) = primary(&dir.path().join("racing.wal"), 2);
    const BASE: usize = 4_000;
    for i in 0..BASE {
        repl.commit_add(&service, &name(i), Language::English)
            .expect("commit");
    }
    let path = dir.path().join("racing.img");

    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let (service, repl, stop) = (Arc::clone(&service), Arc::clone(&repl), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut next = BASE;
            while !stop.load(Ordering::Acquire) {
                repl.commit_add(&service, &name(next), Language::English)
                    .expect("storm commit");
                next += 1;
            }
        })
    };
    let savers: Vec<_> = (0..2)
        .map(|_| {
            let (service, repl, path) = (Arc::clone(&service), Arc::clone(&repl), path.clone());
            std::thread::spawn(move || {
                let mut newest = 0;
                for round in 0..40 {
                    let lsn = repl
                        .save_snapshot_atomic(&service, &path)
                        .unwrap_or_else(|e| panic!("save {round} failed: {e}"));
                    // Whichever writer renamed last, the file is whole
                    // and at least as new as what this call wrote.
                    let image = mmapstore::load_file(MatchConfig::default(), Some(2), &path)
                        .unwrap_or_else(|e| panic!("image after save {round} (lsn {lsn}): {e}"));
                    assert!(
                        image.lsn >= lsn,
                        "image at {} after saving {lsn}",
                        image.lsn
                    );
                    assert_eq!(image.store.len() as u64, image.lsn, "rows vs the cut");
                    newest = lsn;
                }
                newest
            })
        })
        .collect();
    let newest = savers
        .into_iter()
        .map(|s| s.join().expect("saver thread"))
        .max()
        .expect("two savers");
    stop.store(true, Ordering::Release);
    storm.join().expect("storm thread");
    repl.stop_and_join();

    let image = mmapstore::load_file(MatchConfig::default(), Some(2), &path).expect("final image");
    assert_eq!(image.lsn, newest, "the newest cut is the one on disk");
    let leftovers: Vec<_> = std::fs::read_dir(dir.path())
        .expect("list")
        .flatten()
        .map(|e| e.file_name())
        .filter(|n| n.to_string_lossy().contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

// ---------------------------------------------------------------------
// (d) bounded memory
// ---------------------------------------------------------------------

/// Discards the image: what remains is the writer's own memory.
struct NullSink;

impl ImageSink for NullSink {
    fn preallocate(&mut self, _len: u64) -> std::io::Result<()> {
        Ok(())
    }
    fn write_at(&mut self, _offset: u64, _bytes: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_checkpoint_holds_one_chunk_not_the_corpus() {
    let _serial = serial();
    let preload = preload_set();
    let stream = |copies: usize| {
        let store = ShardedStore::new(MatchConfig::default(), 2);
        for _ in 0..copies {
            store.extend_transformed(preload.clone());
        }
        store.build(BuildSpec::PhoneticIndex);
        let cut = store.cut(3);
        assert_eq!(cut.rows, copies * preload.len());
        allocations_in(|| mmapstore::write_image(&store, &cut, &mut NullSink).expect("stream"))
    };

    let (bytes, count, peak) = stream(1);
    assert!(
        bytes > 1_000_000,
        "a 20 418-name image is over 1 MB: {bytes}"
    );
    assert!(
        peak <= 512 * 1024,
        "a checkpoint of 20 418 names peaked {peak} bytes of live heap above its start"
    );

    // Four times the rows, chunk for chunk the same content: the same
    // buffers, refilled four times as often. All that may scale with the
    // chunk count is the worker channels' 31-message blocks.
    let (bytes4, count4, peak4) = stream(4);
    assert!(bytes4 > 4_000_000, "{bytes4}");
    assert!(
        peak4 <= 512 * 1024,
        "four times the rows peaked {peak4} bytes"
    );
    assert!(
        count4 <= count + 16,
        "allocation count grew with the row count: {count} for 20 418 rows, {count4} for 81 672"
    );
}
