//! Differential suite for the batched verification kernel: on every
//! access path, at every batch width `1..=MAX_LANES`, under every SIMD
//! backend this machine offers (plus the forced-scalar one — run again
//! with `LEXEQUAL_FORCE_SCALAR=1` to pin the process-wide dispatch too),
//! the [`BatchVerifier`]'s verdict vector must be **bit-for-bit
//! identical** to running the scalar [`Verifier`] pair by pair — same
//! hits, same verification counts, same screen-counter totals.
//!
//! Both are also held directly to `matches_phonemes`, the predicate with
//! no screen in front of it: every search returns exactly the rows it
//! admits.

use lexequal::phonidx::grouped_id;
use lexequal::{
    available_simd_levels, BatchVerifier, Language, LexEqual, MatchConfig, NameStore, SearchMethod,
    Verifier, MAX_LANES,
};
use lexequal_phoneme::testkit::Rng;
use lexequal_phoneme::{Inventory, Phoneme, PhonemeString};

/// Seeded phoneme strings, lengths 0..=70 so the corpus
/// crosses the 64-symbol Myers window (DP-only queries included).
fn corpus(seed: u64, count: usize) -> Vec<PhonemeString> {
    let mut rng = Rng::new(seed);
    (0..count).map(|_| rng.phonemes(0..=70)).collect()
}

const THRESHOLDS: [f64; 5] = [0.0, 0.15, 0.35, 0.5, 1.0];

#[test]
fn batched_pairs_equal_scalar_at_every_width_and_backend() {
    for intra in [0.0, 0.25, 1.0] {
        let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(intra));
        let strings = corpus(0xba7c_0001 + intra.to_bits(), 32);
        for q in strings.iter().take(5) {
            let prepared = op.prepare_query(q);
            for e in THRESHOLDS {
                // Scalar reference verdicts + counters over the corpus.
                let mut scalar = Verifier::new();
                let want: Vec<bool> = strings
                    .iter()
                    .map(|c| scalar.matches(&op, &prepared, c, None, None, e))
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
                            let lanes: Vec<lexequal::Lane<'_>> =
                                chunk.iter().map(|c| c.id_bytes()).collect();
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
                let want = store.search_phonemes(&q, e, method);
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
    let want = s.search_phonemes(&q, 0.45, SearchMethod::BkTree);
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
            batch.matches_lanes(&op, &prepared, &[c.id_bytes()], e, &mut verdict);
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

/// The screens' soundness contract, held to the strongest oracle there
/// is: every search, scalar and batched, returns exactly the rows
/// `LexEqual::matches_phonemes` admits — the DP with no screen in front of
/// it — on every access path, at every batch width, under every SIMD
/// backend (re-run with `LEXEQUAL_FORCE_SCALAR=1` to pin the forced-scalar
/// dispatch too), at intra-cluster cost 0, 0.25 and 1.0. The phonetic index
/// answers with the admitted rows that share the query's grouped
/// identifier: its dismissals are the paper's, never a screen's. The
/// screens may only change how much work reaches the DP, which the
/// counters make observable.
#[test]
fn every_search_returns_exactly_the_rows_the_unscreened_predicate_admits() {
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
    let methods = [
        SearchMethod::Scan,
        SearchMethod::Qgram,
        SearchMethod::PhoneticIndex,
        SearchMethod::BkTree,
    ];
    for intra in [0.0, 0.25, 1.0] {
        let mut s = NameStore::new(MatchConfig::default().with_intra_cluster_cost(intra));
        for (n, l) in names {
            s.insert(n, l).unwrap();
        }
        s.build_qgram(3, lexequal::QgramMode::Strict);
        s.build_phonetic_index();
        s.build_bktree();
        let op = s.operator();
        let clusters = op.cost_model().clusters();
        let rows = s.phoneme_strings();
        let mut screened = BatchVerifier::new();
        for (query, lang) in [
            ("Nehru", Language::English),
            ("Gandhi", Language::English),
            ("நேரு", Language::Tamil),
            ("Kumari", Language::English),
        ] {
            let q = op.transform(query, lang).unwrap();
            let key = grouped_id(clusters, &q);
            for e in [0.0, 0.3, 0.45] {
                let admitted = (0u32..)
                    .zip(rows)
                    .filter(|(_, r)| op.matches_phonemes(r, &q, e));
                let admitted: Vec<u32> = admitted.map(|(id, _)| id).collect();
                for method in methods {
                    let want: Vec<u32> = match method {
                        SearchMethod::PhoneticIndex => (admitted.iter().copied())
                            .filter(|&id| grouped_id(clusters, &rows[id as usize]) == key)
                            .collect(),
                        _ => admitted.clone(),
                    };
                    let scalar = s.search_phonemes(&q, e, method);
                    assert_eq!(
                        scalar.ids, want,
                        "scalar intra={intra} q={query} e={e} {method:?}"
                    );
                    for level in available_simd_levels() {
                        for width in 1..=MAX_LANES {
                            let mut batch = BatchVerifier::with_width_and_level(width, level);
                            let got = s.search_phonemes_batched(&q, e, method, &mut batch);
                            assert_eq!(
                                got, scalar,
                                "intra={intra} q={query} e={e} {method:?} width={width} level={level}"
                            );
                        }
                    }
                    let _ = s.search_phonemes_batched(&q, e, method, &mut screened);
                }
            }
        }
        let c = screened.take_counters();
        assert!(
            c.fast_accept > 0 && c.fast_reject > 0 && c.full_dp > 0,
            "the screens settle some pairs and leave others to the DP at intra={intra}: {c:?}"
        );
    }
}

/// `s` with `edits` random single-phoneme edits (substitute, insert or
/// delete): a near neighbour that a loose threshold admits.
fn perturbed(rng: &mut Rng, s: &PhonemeString, edits: usize) -> PhonemeString {
    let mut ids: Vec<Phoneme> = s.iter().copied().collect();
    for _ in 0..edits {
        let p = Phoneme::from_id(rng.below(Inventory::len()) as u8).unwrap();
        let at = rng.below(ids.len() + 1);
        match rng.below(3) {
            0 if at < ids.len() => ids[at] = p,
            1 if at < ids.len() => {
                ids.remove(at);
            }
            _ => ids.insert(at, p),
        }
    }
    PhonemeString::new(ids)
}

/// Queries of 65–160 phonemes build no Myers pattern, so no screen stands
/// between them and the DP: on every access path, scalar and batched
/// under every backend, a search returns exactly the rows the
/// unscreened predicate admits (the phonetic index: those sharing the
/// query's grouped identifier).
#[test]
fn long_queries_return_exactly_the_rows_the_unscreened_predicate_admits() {
    let mut rng = Rng::new(0x10a6_0165);
    let queries: Vec<PhonemeString> = (0..3).map(|_| rng.phonemes(65..=160)).collect();
    let mut rows: Vec<PhonemeString> = (0..12).map(|_| rng.phonemes(0..=160)).collect();
    for q in &queries {
        rows.push(q.clone());
        for edits in [1, 4, 12, 30] {
            rows.push(perturbed(&mut rng, q, edits));
        }
    }
    let methods = [
        SearchMethod::Scan,
        SearchMethod::Qgram,
        SearchMethod::PhoneticIndex,
        SearchMethod::BkTree,
    ];
    for intra in [0.0, 0.25, 1.0] {
        let mut s = NameStore::new(MatchConfig::default().with_intra_cluster_cost(intra));
        let entries = rows.iter().enumerate().map(|(i, r)| {
            lexequal::store::NameEntry::new(format!("n{i}"), Language::English, r.clone())
        });
        s.extend_transformed(entries.collect::<Result<_, _>>().unwrap());
        s.build_qgram(3, lexequal::QgramMode::Strict);
        s.build_phonetic_index();
        s.build_bktree();
        let op = s.operator();
        let clusters = op.cost_model().clusters();
        let mut hits = 0;
        for q in &queries {
            assert!(!op.prepare_query(q).screens_active(), "|q| = {}", q.len());
            let key = grouped_id(clusters, q);
            for e in [0.0, 0.15, 0.35, 0.5] {
                let admitted = (0u32..)
                    .zip(&rows)
                    .filter(|(_, r)| op.matches_phonemes(r, q, e));
                let admitted: Vec<u32> = admitted.map(|(id, _)| id).collect();
                hits += admitted.len();
                for method in methods {
                    let want: Vec<u32> = match method {
                        SearchMethod::PhoneticIndex => (admitted.iter().copied())
                            .filter(|&id| grouped_id(clusters, &rows[id as usize]) == key)
                            .collect(),
                        _ => admitted.clone(),
                    };
                    let scalar = s.search_phonemes(q, e, method);
                    assert_eq!(scalar.ids, want, "scalar intra={intra} e={e} {method:?}");
                    // Full width under every backend, and one lane a step:
                    // the DP drain is the only stage these lanes reach.
                    let kernels = (available_simd_levels().into_iter())
                        .map(|level| (MAX_LANES, level))
                        .chain([(1, lexequal::simd_level())]);
                    for (width, level) in kernels {
                        let mut batch = BatchVerifier::with_width_and_level(width, level);
                        let got = s.search_phonemes_batched(q, e, method, &mut batch);
                        assert_eq!(
                            got, scalar,
                            "intra={intra} e={e} {method:?} width={width} level={level}"
                        );
                    }
                }
            }
        }
        assert!(hits > 4 * queries.len(), "near neighbours match: {hits}");
    }
}
