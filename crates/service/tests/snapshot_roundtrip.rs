//! Snapshot round-trip equivalence: a store restored from a snapshot
//! must be indistinguishable from the store that wrote it — bit-identical
//! `SearchResult`s on all four access paths, identical entries under
//! every global id, and identical serving behaviour through
//! `MatchService`. Corrupt or truncated snapshot files must come back
//! as clean `ImageError`s, never panics.

use lexequal::{Language, MatchConfig, SearchMethod};
use lexequal_lexicon::build_dataset;
use lexequal_service::{mmapstore, MatchOutcome, MatchRequest, MatchService, ServiceConfig};
use std::path::PathBuf;

/// A self-cleaning temp path.
struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> Self {
        TempPath(std::env::temp_dir().join(format!("lexequal_{}_{name}", std::process::id())))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A populated service: the paper's flagship names plus a slice of the
/// synthetic §5 corpus, all access paths built.
fn populated_service() -> MatchService {
    let config = MatchConfig::default();
    let service = MatchService::new(ServiceConfig {
        match_config: config.clone(),
        cache_capacity: 256,
        ..ServiceConfig::default()
    });
    service
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
    service.extend_transformed(build_dataset(&config, 150));
    service.build_all(3, lexequal::QgramMode::Strict);
    service
}

const METHODS: [SearchMethod; 4] = [
    SearchMethod::Scan,
    SearchMethod::Qgram,
    SearchMethod::PhoneticIndex,
    SearchMethod::BkTree,
];

/// The query battery both stores must answer identically.
fn battery() -> Vec<(String, Language, f64)> {
    let mut queries = Vec::new();
    for (text, language) in [
        ("Nehru", Language::English),
        ("नेहरु", Language::Hindi),
        ("நேரு", Language::Tamil),
        ("Gandhi", Language::English),
        ("गांधी", Language::Hindi),
        ("Krishnan", Language::English),
        ("Bose", Language::English), // not stored: empty result sets must agree too
    ] {
        for e in [0.0, 0.35, 0.45] {
            queries.push((text.to_owned(), language, e));
        }
    }
    queries
}

#[test]
fn reloaded_service_is_bit_identical_on_all_four_access_paths() {
    let original = populated_service();
    let path = TempPath::new("roundtrip.img");
    original.save_snapshot(&path.0).expect("save");

    let loaded =
        MatchService::load_snapshot(MatchConfig::default(), None, 256, &path.0).expect("load");
    assert_eq!(loaded.len(), original.len());

    // Every rebuilt access path serves without a BUILD.
    for m in METHODS {
        assert!(loaded.is_built(m), "{m:?} lost across the round trip");
    }
    assert_eq!(loaded.default_method(), original.default_method());

    for (text, language, e) in battery() {
        for method in METHODS {
            let req = MatchRequest {
                text: text.clone(),
                language,
                threshold: Some(e),
                method: Some(method),
            };
            let a = original.lookup(&req);
            let b = loaded.lookup(&req);
            assert_eq!(a, b, "{text} e={e} {method:?} diverged after reload");
            // `MatchOutcome` equality covers ids, verifications, method
            // and threshold bit-for-bit; make the match case explicit.
            assert!(
                matches!(a, MatchOutcome::Matches { .. }),
                "{text} {method:?}"
            );
        }
    }
}

#[test]
fn store_level_search_results_survive_the_round_trip() {
    let original = populated_service();
    let image = mmapstore::encode(original.store(), 0).expect("encode");
    let image = mmapstore::load_bytes(MatchConfig::default(), image).expect("load");
    let loaded = image.store;
    for spec in image.builds {
        loaded.build(spec);
    }

    for (text, language, e) in battery() {
        for method in METHODS {
            let q = loaded.config().registry.transform(&text, language).unwrap();
            let a = original.store().search_phonemes(&q, e, method);
            let b = loaded.search_phonemes(&q, e, method);
            assert_eq!(a, b, "{text} e={e} {method:?}");
        }
    }
}

/// Every global id resolves to the same `NameEntry` before save and
/// after load, and one past the end stays out of range.
#[test]
fn get_by_global_id_is_stable_across_reload() {
    let original = populated_service();
    let path = TempPath::new("idstable.img");
    original.save_snapshot(&path.0).expect("save");
    let loaded =
        MatchService::load_snapshot(MatchConfig::default(), None, 16, &path.0).expect("load");
    assert_same_entries(&original, &loaded, "reload");
}

/// Every entry of `a` — text, language and phonemes under its global id
/// — is `b`'s, and `b` holds no more.
fn assert_same_entries(a: &MatchService, b: &MatchService, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for id in 0..a.len() as u32 {
        let x = (a.store().get(id)).unwrap_or_else(|| panic!("{what}: id {id} in the first"));
        let y = (b.store().get(id)).unwrap_or_else(|| panic!("{what}: id {id} in the second"));
        assert_eq!(x.text, y.text, "{what}: id {id}");
        assert_eq!(x.language, y.language, "{what}: id {id}");
        assert_eq!(x.phonemes, y.phonemes, "{what}: id {id}");
    }
    assert!(b.store().get(a.len() as u32).is_none(), "{what}");
}

#[test]
fn corrupted_and_truncated_snapshot_files_error_cleanly() {
    let original = populated_service();
    let path = TempPath::new("corrupt.img");
    original.save_snapshot(&path.0).expect("save");
    let full = std::fs::read(&path.0).expect("read snapshot back");

    // Truncations at several offsets, plus outright garbage.
    let mut corpses: Vec<Vec<u8>> = [full.len() / 2, full.len() / 4, 1, 0]
        .iter()
        .map(|&n| full[..n].to_vec())
        .collect();
    corpses.push(b"this is not a snapshot".to_vec());
    corpses.push(vec![0xff, 0xfe, 0x00]); // not even UTF-8

    for (i, bytes) in corpses.iter().enumerate() {
        std::fs::write(&path.0, bytes).expect("write corpse");
        let r = MatchService::load_snapshot(MatchConfig::default(), None, 16, &path.0);
        let err = match r {
            Err(e) => e,
            Ok(_) => panic!("corpse {i} ({} bytes) loaded", bytes.len()),
        };
        // A clean ImageError with a message, not a panic.
        assert!(!err.to_string().is_empty());
    }

    // A missing file is also a clean error.
    let gone = TempPath::new("never_written.img");
    assert!(MatchService::load_snapshot(MatchConfig::default(), None, 16, &gone.0).is_err());
}

/// The header's shard count is range-checked and otherwise ignored:
/// entries are stored in global-id order whatever it says, so an image
/// whose header names 2, 3 or 1024 shards — as one written by a striped
/// store did — loads the store the unpatched image does, entry for entry
/// and answer for answer on every path.
#[test]
fn any_header_shard_count_loads_the_same_store() {
    let original = populated_service();
    let path = TempPath::new("shardcount.img");
    original.save_snapshot(&path.0).expect("save");
    let image = std::fs::read(&path.0).expect("read the image back");
    assert_eq!(image[16..20], 1u32.to_le_bytes(), "written as one");
    let want =
        MatchService::load_snapshot(MatchConfig::default(), None, 16, &path.0).expect("load");
    for shards in [2u32, 3, 1024] {
        let mut patched = image.clone();
        patched[16..20].copy_from_slice(&shards.to_le_bytes());
        std::fs::write(&path.0, &patched).expect("write the patched image");
        let got = MatchService::load_snapshot(MatchConfig::default(), None, 16, &path.0)
            .unwrap_or_else(|e| panic!("a header naming {shards} shards: {e}"));
        assert_same_entries(&want, &got, &format!("{shards} shards"));
        for (text, language, e) in battery() {
            for method in METHODS {
                let req = MatchRequest {
                    text: text.clone(),
                    language,
                    threshold: Some(e),
                    method: Some(method),
                };
                let answer = want.lookup(&req);
                assert!(matches!(answer, MatchOutcome::Matches { .. }));
                assert_eq!(
                    got.lookup(&req),
                    answer,
                    "{shards} shards: {text} e={e} {method:?}"
                );
            }
        }
    }
}

#[test]
fn reloaded_service_keeps_serving_writes_and_rebuilds() {
    // The restored store is a first-class store: appends, rebuilds and
    // a second snapshot generation all work.
    let original = populated_service();
    let path = TempPath::new("generations.img");
    original.save_snapshot(&path.0).expect("save");
    let loaded =
        MatchService::load_snapshot(MatchConfig::default(), None, 16, &path.0).expect("load");

    let id = loaded.add("Bose", Language::English).expect("add");
    assert_eq!(id as usize, original.len());
    // The append left every accelerator declared, one row behind...
    assert_eq!(loaded.default_method(), SearchMethod::PhoneticIndex);
    assert_eq!(loaded.stats().cover.tails, [0, 1, 1, 1]);
    // ...which is how the second-generation snapshot records them: it
    // round-trips the larger store with no build in between.
    let path2 = TempPath::new("generations2.img");
    loaded.save_snapshot(&path2.0).expect("save gen2");
    let gen2 =
        MatchService::load_snapshot(MatchConfig::default(), None, 16, &path2.0).expect("load gen2");
    assert_eq!(gen2.len(), loaded.len());
    let req = MatchRequest {
        threshold: Some(0.35),
        ..MatchRequest::new("Bose", Language::English)
    };
    assert_eq!(gen2.lookup(&req), loaded.lookup(&req));
}
