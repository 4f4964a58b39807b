//! Differential suite for the batched verification kernel: on every
//! access path, at every batch width `1..=MAX_LANES`, under every SIMD
//! backend this machine offers (plus the forced-scalar one — run again
//! with `LEXEQUAL_FORCE_SCALAR=1` to pin the process-wide dispatch too),
//! the [`BatchVerifier`]'s verdict vector must be **bit-for-bit
//! identical** to running the scalar [`Verifier`] pair by pair — same
//! hits, same verification counts, same screen-counter totals.
//!
//! The scalar kernel is itself pinned against `matches_phonemes` by the
//! unit suites, so transitively the batched kernel computes the paper's
//! exact predicate.

use lexequal::{
    available_simd_levels, BatchVerifier, CostModelKind, Language, LexEqual, MatchConfig,
    NameStore, SearchMethod, Verifier, MAX_LANES,
};
use lexequal_phoneme::{Inventory, Phoneme, PhonemeString};

/// Deterministic xorshift phoneme strings, lengths 0..=70 so the corpus
/// crosses the 64-symbol Myers window (DP-only queries included).
fn corpus(seed: u64, count: usize) -> Vec<PhonemeString> {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = Inventory::len() as u64;
    (0..count)
        .map(|_| {
            let len = (next() % 71) as usize;
            PhonemeString::new(
                (0..len)
                    .map(|_| Phoneme::from_id((next() % n) as u8).unwrap())
                    .collect(),
            )
        })
        .collect()
}

const THRESHOLDS: [f64; 5] = [0.0, 0.15, 0.35, 0.5, 1.0];

#[test]
fn batched_pairs_equal_scalar_at_every_width_and_backend() {
    for intra in [0.0, 0.25, 1.0] {
        let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(intra));
        let strings = corpus(0xba7c_0001 + intra.to_bits(), 32);
        let cached: Vec<Vec<u8>> = strings.iter().map(|s| op.cluster_ids(s)).collect();
        let embs: Vec<_> = strings.iter().map(|s| op.embed_for(s)).collect();
        for q in strings.iter().take(5) {
            let prepared = op.prepare_query(q);
            for e in THRESHOLDS {
                // Scalar reference verdicts + counters over the corpus.
                let mut scalar = Verifier::new();
                let want: Vec<bool> = strings
                    .iter()
                    .zip(&cached)
                    .enumerate()
                    .map(|(i, (c, ids))| {
                        // Alternate cached and derive-on-the-fly cluster
                        // ids (and present/absent embeddings), as the
                        // batched lanes below do.
                        let cc = (i % 2 == 0).then_some(ids.as_slice());
                        let ce = (i % 2 == 0).then_some(embs[i].as_slice());
                        scalar.matches(&op, &prepared, c, cc, ce, e)
                    })
                    .collect();
                let want_counters = scalar.take_counters();

                for level in available_simd_levels() {
                    for width in 1..=MAX_LANES {
                        let mut batch = BatchVerifier::with_width_and_level(width, level);
                        let mut got = vec![false; strings.len()];
                        for (chunk_start, chunk) in (0..strings.len())
                            .step_by(width)
                            .map(|s| (s, &strings[s..(s + width).min(strings.len())]))
                        {
                            let lanes: Vec<lexequal::Lane<'_>> = chunk
                                .iter()
                                .enumerate()
                                .map(|(o, c)| {
                                    let i = chunk_start + o;
                                    (
                                        c.id_bytes(),
                                        (i % 2 == 0).then_some(cached[i].as_slice()),
                                        (i % 2 == 0).then_some(&embs[i]),
                                    )
                                })
                                .collect();
                            let mut verdicts = vec![false; lanes.len()];
                            batch.matches_lanes(&op, &prepared, &lanes, e, &mut verdicts);
                            got[chunk_start..chunk_start + lanes.len()].copy_from_slice(&verdicts);
                        }
                        assert_eq!(
                            got, want,
                            "verdicts diverge: intra={intra} e={e} width={width} level={level}"
                        );
                        assert_eq!(
                            batch.take_counters(),
                            want_counters,
                            "screen counters diverge: intra={intra} e={e} width={width} level={level}"
                        );
                        let shape = batch.take_batch_counters();
                        assert_eq!(shape.lanes_sum, strings.len() as u64);
                        assert_eq!(shape.lanes_max, width.min(strings.len()) as u64);
                        assert_eq!(
                            shape.lane_accept + shape.lane_reject + shape.lane_dp,
                            strings.len() as u64
                        );
                    }
                }
            }
        }
    }
}

fn fixture() -> (NameStore, LexEqual) {
    let mut s = NameStore::new(MatchConfig::default());
    for (n, l) in [
        ("Nehru", Language::English),
        ("नेहरु", Language::Hindi),
        ("நேரு", Language::Tamil),
        ("Nero", Language::English),
        ("Gandhi", Language::English),
        ("गांधी", Language::Hindi),
        ("Krishnan", Language::English),
        ("Kumar", Language::English),
        ("कुमार", Language::Hindi),
        ("Catherine", Language::English),
        ("Katherine", Language::English),
    ] {
        s.insert(n, l).unwrap();
    }
    s.build_qgram(3, lexequal::QgramMode::Strict);
    s.build_phonetic_index();
    s.build_bktree();
    (s, LexEqual::new(MatchConfig::default()))
}

#[test]
fn batched_access_paths_equal_scalar_on_every_method() {
    let (store, op) = fixture();
    let methods = [
        SearchMethod::Scan,
        SearchMethod::Qgram,
        SearchMethod::PhoneticIndex,
        SearchMethod::BkTree,
    ];
    for (query, lang) in [
        ("Nehru", Language::English),
        ("Gandhi", Language::English),
        ("நேரு", Language::Tamil),
        ("Kumari", Language::English),
    ] {
        let q = op.transform(query, lang).unwrap();
        for e in [0.0, 0.3, 0.45] {
            for method in methods {
                let want = store.search_phonemes_with(&q, e, method, &mut Verifier::new());
                for level in available_simd_levels() {
                    for width in 1..=MAX_LANES {
                        let mut batch = BatchVerifier::with_width_and_level(width, level);
                        let got = store.search_phonemes_batched(&q, e, method, &mut batch);
                        assert_eq!(
                            got, want,
                            "q={query} e={e} method={method:?} width={width} level={level}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_bktree_keeps_its_radius_at_zero_cost() {
    // Intra-cluster cost 0 leaves no finite Levenshtein radius over
    // phoneme ids, and the BK-tree used to degrade to a scan there. Over
    // the cluster strings it is keyed on a free intra-cluster substitution
    // is no edit at all: same radius, same answer as a scan, in both
    // kernels, without verifying every row.
    let mut s = NameStore::new(MatchConfig::default().with_intra_cluster_cost(0.0));
    for n in ["Nehru", "Nero", "Gandhi"] {
        s.insert(n, Language::English).unwrap();
    }
    s.build_bktree();
    let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.0));
    let q = op.transform("Nehru", Language::English).unwrap();
    let want = s.search_phonemes_with(&q, 0.45, SearchMethod::BkTree, &mut Verifier::new());
    let got = s.search_phonemes_batched(&q, 0.45, SearchMethod::BkTree, &mut BatchVerifier::new());
    assert_eq!(got, want);
    let scan = s.search_phonemes(&q, 0.45, SearchMethod::Scan);
    assert_eq!((want.ids, scan.verifications), (scan.ids, s.len()));
    assert_eq!(want.verifications, 2, "Gandhi is outside the ball");
}

/// Regression for the silent screen bypass: queries longer than the
/// 64-phoneme Myers window must still verify correctly (DP-only), be
/// observable via `screens_active`, and count every bypassed pair.
#[test]
fn long_queries_verify_correctly_through_the_dp_only_path() {
    let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.25));
    let mut strings = corpus(0x10a6_cafe, 24);
    // A 70-phoneme query: past the screen window.
    let long: PhonemeString = PhonemeString::new(
        (0..70)
            .map(|i| Phoneme::from_id((i % Inventory::len()) as u8).unwrap())
            .collect(),
    );
    strings.push(long.clone()); // its own exact match is in the corpus
    let prepared = op.prepare_query(&long);
    assert!(!prepared.screens_active(), "70 phonemes must bypass");
    assert!(
        op.prepare_query(&strings[0]).screens_active() || strings[0].is_empty(),
        "short queries keep their screens"
    );

    let mut scalar = Verifier::new();
    let mut batch = BatchVerifier::new();
    for e in THRESHOLDS {
        for c in &strings {
            let want = op.matches_phonemes(c, &long, e);
            assert_eq!(scalar.matches(&op, &prepared, c, None, None, e), want);
            let mut verdict = [false];
            let lane = (c.id_bytes(), None, None);
            batch.matches_lanes(&op, &prepared, &[lane], e, &mut verdict);
            assert_eq!(verdict[0], want);
        }
    }
    for counters in [scalar.take_counters(), batch.take_counters()] {
        assert!(counters.fast_accept > 0, "the exact copy fast-accepts");
        assert!(counters.bypass > 0, "bypassed pairs must be counted");
        assert_eq!(
            counters.bypass, counters.full_dp,
            "with no screens, every DP pair is a bypass"
        );
    }
}

/// The tentpole's soundness contract: under both cost models, turning
/// the embedding screen on must never change a single verdict, id or
/// verification count — on any access path, at any batch width, under
/// any SIMD backend (re-run with `LEXEQUAL_FORCE_SCALAR=1` to pin the
/// forced-scalar dispatch too). The screen may only change how much
/// work the exact kernel sees, which the counters make observable.
#[test]
fn embed_screen_never_changes_verdicts_under_either_cost_model() {
    let names: [(&str, Language); 11] = [
        ("Nehru", Language::English),
        ("नेहरु", Language::Hindi),
        ("நேரு", Language::Tamil),
        ("Nero", Language::English),
        ("Gandhi", Language::English),
        ("गांधी", Language::Hindi),
        ("Krishnan", Language::English),
        ("Kumar", Language::English),
        ("कुमार", Language::Hindi),
        ("Catherine", Language::English),
        ("Katherine", Language::English),
    ];
    let build = |kind: CostModelKind, screen: bool| {
        let mut s = NameStore::new(
            MatchConfig::default()
                .with_cost_model(kind)
                .with_embed_screen(screen),
        );
        for (n, l) in names {
            s.insert(n, l).unwrap();
        }
        s.build_qgram(3, lexequal::QgramMode::Strict);
        s.build_phonetic_index();
        s.build_bktree();
        s
    };
    let methods = [
        SearchMethod::Scan,
        SearchMethod::Qgram,
        SearchMethod::PhoneticIndex,
        SearchMethod::BkTree,
    ];
    for kind in [CostModelKind::Clustered, CostModelKind::Feature] {
        let on = build(kind, true);
        let off = build(kind, false);
        assert!(
            on.operator().embed_scale() > 0.0,
            "default models must admit a sound screen scale ({kind:?})"
        );
        assert_eq!(off.operator().embed_scale(), 0.0);
        let mut on_scalar = Verifier::new();
        let mut off_full_dp = 0;
        for (query, lang) in [
            ("Nehru", Language::English),
            ("Gandhi", Language::English),
            ("நேரு", Language::Tamil),
            ("Kumari", Language::English),
        ] {
            let q = on.operator().transform(query, lang).unwrap();
            for e in [0.0, 0.3, 0.45] {
                for method in methods {
                    let want = off.search_phonemes_with(&q, e, method, &mut Verifier::new());
                    let got = on.search_phonemes_with(&q, e, method, &mut on_scalar);
                    assert_eq!(got, want, "scalar {kind:?} q={query} e={e} {method:?}");
                    for level in available_simd_levels() {
                        for width in 1..=MAX_LANES {
                            let mut batch = BatchVerifier::with_width_and_level(width, level);
                            let got = on.search_phonemes_batched(&q, e, method, &mut batch);
                            assert_eq!(
                                got, want,
                                "{kind:?} q={query} e={e} {method:?} width={width} level={level}"
                            );
                        }
                    }
                    // Screen-off stores must never touch the embed counters.
                    let mut off_v = Verifier::new();
                    let _ = off.search_phonemes_with(&q, e, method, &mut off_v);
                    let c = off_v.take_counters();
                    assert_eq!(c.embed_accept + c.embed_reject + c.embed_bypass, 0);
                    off_full_dp += c.full_dp;
                }
            }
        }
        let c = on_scalar.take_counters();
        assert!(
            c.embed_accept > 0 && c.embed_reject > 0,
            "screen must both pass and prune under {kind:?}: {c:?}"
        );
        assert_eq!(c.embed_bypass, 0, "store rows all carry embeddings");
        // The same searches, screen on and off: a pair the screen settles
        // never reaches the DP, and it sends no pair there that the
        // unscreened kernel would have settled earlier.
        assert!(c.full_dp <= off_full_dp, "{kind:?}: {c:?} vs {off_full_dp}");
    }
}

/// A candidate handed to the scalar kernel without an embedding (an ad-hoc
/// caller's empty or missing slice; a store's rows always carry one) is
/// bypassed, never misjudged.
#[test]
fn missing_embeddings_bypass_until_built() {
    let op = LexEqual::new(MatchConfig::default());
    let strings = corpus(0xeb3d_0001, 24);
    let cached: Vec<Vec<u8>> = strings.iter().map(|s| op.cluster_ids(s)).collect();
    let prepared = op.prepare_query(&strings[1]);
    let mut v = Verifier::new();
    for (c, ids) in strings.iter().zip(&cached) {
        let want = op.matches_phonemes(c, &strings[1], 0.35);
        // Empty embedding slice = "not built": must bypass, not reject.
        assert_eq!(
            v.matches(&op, &prepared, c, Some(ids), Some(&[][..]), 0.35),
            want
        );
    }
    let c = v.take_counters();
    assert!(c.embed_bypass > 0, "empty embeds must count as bypasses");
    assert_eq!(c.embed_reject, 0);
}
