//! Table 2: LexEQUAL accelerated by q-gram filtering.
//!
//! Paper values (same dataset and queries as Table 1): scan 13.5 s
//! (vs 1418 s naive — two orders of magnitude), join 856 s (vs 4004 s —
//! about five-fold; "the improvement in join performance is not as
//! dramatic as in the case of scans, due to the additional joins that are
//! required on the large q-gram tables").
//!
//! This binary reproduces both measurements with the in-process q-gram
//! posting structure, each row timed over [`PASSES`] passes and printed
//! as the median with the min–max range (`--ablate` additionally reports per-filter
//! selectivity, and what the same filters leave at the clustered default
//! once they are keyed on the cluster strings, as a store keys them), and
//! demonstrates the Figure 14 SQL plan end-to-end on a subset.

use lexequal::qgram_plan::{QgramFilter, QgramMode};
use lexequal::udf::{load_names_table, load_qgram_aux_table, register_udfs};
use lexequal::{KeyColumn, Language, MatchConfig, NameStore, SearchMethod, SymbolColumn};
use lexequal_bench::*;
use lexequal_mdb::Database;
use std::sync::Arc;
use std::time::Duration;

const Q: usize = 3;
const THRESHOLD: f64 = 0.25;

/// Passes each of the four rows is timed over: on one pass a rerun could
/// flip which of the two speedups is the larger.
const PASSES: usize = 3;

/// One row's time a query over [`PASSES`] passes.
struct Spread {
    median: Duration,
    min: Duration,
    max: Duration,
}

impl Spread {
    /// `median (min–max)`.
    fn show(&self) -> String {
        format!(
            "{} ({}–{})",
            fmt_duration(self.median),
            fmt_duration(self.min),
            fmt_duration(self.max)
        )
    }

    /// How many times faster `fast` is than `self`: the ratio of the
    /// medians, and the least and most the passes allow.
    fn speedup(&self, fast: &Spread) -> (f64, f64, f64) {
        let ratio =
            |slow: Duration, fast: Duration| slow.as_secs_f64() / fast.as_secs_f64().max(1e-9);
        (
            ratio(self.median, fast.median),
            ratio(self.min, fast.max),
            ratio(self.max, fast.min),
        )
    }
}

/// Run `f` [`PASSES`] times, each pass timed and divided by `per` (the
/// queries it runs); the last pass's result.
fn timed_passes<T>(per: usize, mut f: impl FnMut() -> T) -> (T, Spread) {
    let mut times = Vec::with_capacity(PASSES);
    let mut out = None;
    for _ in 0..PASSES {
        let (o, t) = timed(&mut f);
        times.push(t / per as u32);
        out = Some(o);
    }
    times.sort_unstable();
    let spread = Spread {
        median: times[PASSES / 2],
        min: times[0],
        max: times[PASSES - 1],
    };
    (out.expect("at least one pass"), spread)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ablate = args.iter().any(|a| a == "--ablate");
    let opts = RunOptions::from_args();
    let op = Arc::new(levenshtein_operator());
    println!(
        "building synthetic dataset (~{} entries) …",
        opts.dataset_size
    );
    let data = synthetic(opts.dataset_size);
    let phonemes: Vec<_> = data.entries.iter().map(|e| e.phonemes.clone()).collect();

    // Under the Levenshtein operator (unit costs) the Strict and
    // PaperFaithful bounds coincide, and the filters are exact — no false
    // dismissals, as the paper assumes. (The --ablate report shows how a
    // fractional clustered cost breaks that equivalence.)
    let (filter, build_time) = timed(|| QgramFilter::build(&phonemes, Q, QgramMode::Strict));
    println!(
        "q-gram structure: {} strings, {} grams (q={Q}), built in {}",
        filter.len(),
        filter.total_grams(),
        fmt_duration(build_time)
    );

    let stride = (data.len() / opts.queries.max(1)).max(1);
    let queries: Vec<_> = data
        .entries
        .iter()
        .step_by(stride)
        .take(opts.queries)
        .collect();

    // The database stores pname as an IPA *string* column; every UDF
    // invocation parses its operands, exactly like the SQL PHONEQUAL UDF
    // (and like the paper's PL/SQL function taking VARCHAR operands).
    // Both access paths below pay this same per-verification cost, so the
    // comparison isolates what the filters save.
    let pname_col: Vec<String> = phonemes.iter().map(|p| p.to_string()).collect();
    let verify = |stored: &str, query: &str| -> bool {
        let a: lexequal_phoneme::PhonemeString = stored.parse().expect("stored IPA");
        let b: lexequal_phoneme::PhonemeString = query.parse().expect("query IPA");
        op.matches_phonemes(&a, &b, THRESHOLD)
    };

    // --- naive scan baseline (UDF on every row) ----------------------------
    let (naive_hits, t_naive) = timed_passes(queries.len(), || {
        let mut hits = 0usize;
        for q in &queries {
            let qs = q.phonemes.to_string();
            for stored in &pname_col {
                if verify(stored, &qs) {
                    hits += 1;
                }
            }
        }
        hits
    });

    // --- q-gram filtered scan (filters, then UDF per candidate) ------------
    let (qgram_stats, t_qgram) = timed_passes(queries.len(), || {
        let mut hits = 0usize;
        let mut verified = 0usize;
        for q in &queries {
            let qs = q.phonemes.to_string();
            let k = THRESHOLD * q.phonemes.len() as f64;
            for cand in filter.candidates(&q.phonemes, k, &op) {
                verified += 1;
                if verify(&pname_col[cand as usize], &qs) {
                    hits += 1;
                }
            }
        }
        (hits, verified)
    });
    let (qgram_hits, total_verified) = qgram_stats;
    let scan_dismissed = naive_hits.saturating_sub(qgram_hits);

    // --- joins over the 0.2% subset ----------------------------------------
    let subset_len = (data.len() / 500).max(50);
    // Strided so all three languages appear (the dataset is laid out
    // in language blocks).
    let subset: Vec<&lexequal_lexicon::SyntheticEntry> = data
        .entries
        .iter()
        .step_by((data.len() / subset_len).max(1))
        .take(subset_len)
        .collect();
    let subset_col: Vec<String> = subset.iter().map(|e| e.phonemes.to_string()).collect();
    let (naive_join_pairs, t_naive_join) = timed_passes(1, || {
        let mut pairs = 0usize;
        for (i, a) in subset.iter().enumerate() {
            for (j, b) in subset.iter().enumerate() {
                if a.language != b.language && verify(&subset_col[j], &subset_col[i]) {
                    pairs += 1;
                }
            }
        }
        pairs
    });
    let subset_phonemes: Vec<_> = subset.iter().map(|e| e.phonemes.clone()).collect();
    let (qgram_join, t_qgram_join) = timed_passes(1, || {
        let subset_filter = QgramFilter::build(&subset_phonemes, Q, QgramMode::Strict);
        let mut pairs = 0usize;
        for (i, a) in subset.iter().enumerate() {
            let k = THRESHOLD * a.phonemes.len() as f64;
            for id in subset_filter.candidates(&a.phonemes, k, &op) {
                if subset[id as usize].language != a.language
                    && verify(&subset_col[id as usize], &subset_col[i])
                {
                    pairs += 1;
                }
            }
        }
        pairs
    });
    let join_dismissed = naive_join_pairs.saturating_sub(qgram_join);

    print_table(
        &format!(
            "Table 2 — Q-Gram Filter Performance ({} rows, {}-row join subset, avg over {} queries; \
             median (min–max) of {PASSES} passes)",
            data.len(),
            subset_len,
            queries.len()
        ),
        &["Query", "Matching Methodology", "Time", "UDF calls/query"],
        &[
            vec![
                "Scan".into(),
                "Naive LexEQUAL UDF".into(),
                t_naive.show(),
                format!("{}", phonemes.len()),
            ],
            vec![
                "Scan".into(),
                "LexEQUAL UDF + q-gram filters".into(),
                t_qgram.show(),
                format!("{}", total_verified / queries.len()),
            ],
            vec![
                "Join".into(),
                "Naive LexEQUAL UDF (nested loop)".into(),
                t_naive_join.show(),
                format!("{}", subset_len),
            ],
            vec![
                "Join".into(),
                "LexEQUAL UDF + q-gram filters".into(),
                t_qgram_join.show(),
                "-".into(),
            ],
        ],
    );
    let (scan_x, scan_lo, scan_hi) = t_naive.speedup(&t_qgram);
    let (join_x, join_lo, join_hi) = t_naive_join.speedup(&t_qgram_join);
    println!(
        "\nspeedup: scan {scan_x:.1}x ({scan_lo:.1}–{scan_hi:.1})   \
         join {join_x:.1}x ({join_lo:.1}–{join_hi:.1})   ({} scan hits, {} join pairs; \
         false dismissals vs exact answer: scan {}, join {})",
        naive_hits, naive_join_pairs, scan_dismissed, join_dismissed,
    );

    if ablate {
        ablate_filters(&op, &filter, &phonemes, &queries);
        ablate_key_space(opts.dataset_size, &queries);
    }

    sql_figure14_demo(&op, &data);

    // The shape, read off this run's own median ratios rather than
    // asserted, and left open while the passes cannot order them.
    let join_shape = if scan_lo <= join_hi && join_lo <= scan_hi {
        "unresolved: the two ratios' ranges over the passes overlap"
    } else if join_x < scan_x {
        "the join gains less than the scan, as in the paper"
    } else {
        "the join gains more than the scan, unlike the paper"
    };
    let empty_join = if naive_join_pairs == 0 {
        "; the join matched 0 pairs, so its ratio times filters over an empty answer \
         (ROADMAP item 4, open)"
    } else {
        ""
    };
    let dismissed = scan_dismissed + join_dismissed;
    let answers = if dismissed == 0 {
        "identical result sets (the filters admit no false dismissals)".to_owned()
    } else {
        format!("{dismissed} false dismissals")
    };
    paper_note(&format!(
        "paper: scan 13.5 s (105x over the naive 1418 s), join 856 s (4.7x over 4004 s) \
         — scans gain an order of magnitude+, joins less because of the auxiliary \
         q-gram table joins. Measured here (medians of {PASSES} passes): scan {scan_x:.1}x, \
         join {join_x:.1}x — \
         {join_shape}{empty_join}; {answers}.",
    ));
}

/// Filter-composition ablation: how many candidates survive length-only
/// vs +count/position filtering (DESIGN.md §5).
fn ablate_filters(
    op: &lexequal::LexEqual,
    filter: &QgramFilter,
    phonemes: &[lexequal_phoneme::PhonemeString],
    queries: &[&lexequal_lexicon::SyntheticEntry],
) {
    let strict = QgramFilter::build(phonemes, Q, QgramMode::Strict);
    let mut rows = Vec::new();
    for q in queries.iter().take(5) {
        let k = THRESHOLD * q.phonemes.len() as f64;
        let length_only = phonemes
            .iter()
            .filter(|p| (p.len() as f64 - q.phonemes.len() as f64).abs() <= k)
            .count();
        let faithful = filter.candidates(&q.phonemes, k, op).len();
        let conservative = strict.candidates(&q.phonemes, k, op).len();
        rows.push(vec![
            q.text.chars().take(18).collect::<String>(),
            format!("{}", phonemes.len()),
            format!("{length_only}"),
            format!("{faithful}"),
            format!("{conservative}"),
        ]);
    }
    print_table(
        "Table 2 (ablation) — candidates surviving each filter stage",
        &[
            "query",
            "all rows",
            "length",
            "+count/pos (paper)",
            "+count/pos (strict)",
        ],
        &rows,
    );
}

/// The clustered default (intra-cluster cost 0.25, `e` = 0.35), where a
/// sound bound over phoneme ids is `k / 0.25` and the filters admit nearly
/// everything the length filter does: the same filters keyed on the
/// cluster strings at `⌊k⌋`, the survivors confirmed against the ball of
/// that radius, and the matches the verifier finds among those — held to
/// a scan's.
fn ablate_key_space(dataset_size: usize, queries: &[&lexequal_lexicon::SyntheticEntry]) {
    let config = MatchConfig::default();
    let e = config.threshold;
    // The synthetic set again, entry for entry, as store rows.
    let entries = lexequal_lexicon::build_dataset(&config, dataset_size);
    let phonemes: Vec<_> = entries.iter().map(|e| e.phonemes.clone()).collect();
    let by_phoneme = QgramFilter::build(&phonemes, Q, QgramMode::Strict);
    let mut store = NameStore::new(config);
    store.extend_transformed(entries);
    store.build_qgram(Q, QgramMode::Strict);
    let (rows, op) = (store.rows(), store.operator());
    let mut keys = SymbolColumn::default();
    store.read_keys(KeyColumn::Clusters, 0..rows.len(), &mut keys);
    let clusters = |id: usize| keys.row(id);
    let (by_cluster, build_time) =
        timed(|| QgramFilter::build_rows(rows.len(), clusters, Q, QgramMode::Strict));
    // The confirmation reads the phoneme column through the query's
    // remapped cluster probe, as the store's own path does.
    let phonemes = |id: usize| rows.row(id).phonemes;
    let (mut phoneme_keyed, mut survivors, mut ball) = (0, 0, 0);
    let (mut matches, mut dismissed) = (0, [0, 0]);
    let mut t_ball = std::time::Duration::ZERO;
    for q in queries {
        let prepared = op.prepare_query(&q.phonemes);
        let k = e * q.phonemes.len() as f64;
        let (key, radius) = (prepared.cluster_ids(), op.cluster_radius(k));
        let admitted = by_phoneme.candidates(&q.phonemes, k, op);
        phoneme_keyed += admitted.len();
        survivors += by_cluster.survivors(key, k, radius as f64).len();
        let probe = prepared.cluster_probe();
        let (confirmed, t) =
            timed(|| by_cluster.within(key, k, radius, &probe, rows.len(), phonemes));
        t_ball += t;
        ball += confirmed.len();
        // What the store's own q-gram path hands its verifier, and finds.
        let found = store.search_phonemes(&q.phonemes, e, SearchMethod::Qgram);
        let scan = store.search_phonemes(&q.phonemes, e, SearchMethod::Scan);
        assert_eq!(found.verifications, confirmed.len());
        matches += found.ids.len();
        for (dismissed, kept) in dismissed.iter_mut().zip([&admitted, &found.ids]) {
            *dismissed += (scan.ids.iter())
                .filter(|id| kept.binary_search(id).is_err())
                .count();
        }
    }
    let per_query = |total: usize| format!("{}", total / queries.len());
    print_table(
        &format!(
            "Table 2 (ablation) — sound filtering at the clustered default (cost 0.25, e = {e}, \
             mean of {} queries)",
            queries.len(),
        ),
        &[
            "filters keyed on",
            "bound",
            "+count/pos",
            "confirmed ball",
            "matches",
            "dismissed",
        ],
        &[
            vec![
                "phoneme ids".into(),
                "k / 0.25".into(),
                per_query(phoneme_keyed),
                "-".into(),
                per_query(matches),
                format!("{}", dismissed[0]),
            ],
            vec![
                "cluster ids".into(),
                "floor(k)".into(),
                per_query(survivors),
                per_query(ball),
                per_query(matches),
                format!("{}", dismissed[1]),
            ],
        ],
    );
    println!(
        "cluster-keyed structure: built in {}, {:.2} bytes a gram; filters + confirmation {} a query",
        fmt_duration(build_time),
        by_cluster.heap_bytes() as f64 / by_cluster.total_grams() as f64,
        fmt_duration(t_ball / queries.len() as u32)
    );
}

/// Run the paper's Figure 14 SQL (length/position filters + GROUP BY
/// count filter + UDF verification) end-to-end on a small subset.
fn sql_figure14_demo(op: &Arc<lexequal::LexEqual>, data: &lexequal_lexicon::SyntheticDataset) {
    let n = 1_000.min(data.len());
    let names: Vec<(String, Language)> = data.entries[..n]
        .iter()
        .map(|e| (e.text.clone(), e.language))
        .collect();
    let mut db = Database::new();
    register_udfs(&mut db, op.clone());
    load_names_table(&mut db, "names", &names, op).expect("load names");
    load_qgram_aux_table(&mut db, "auxnames", "names", Q).expect("load aux");

    let q = &data.entries[0];
    let qp = q.phonemes.to_string();
    let qlen = q.phonemes.len();
    let k = THRESHOLD * qlen as f64;
    // Strict-mode Levenshtein bound (intra-cluster cost 0.25).
    let bound = k / op.cost_model().min_nonzero_cost().unwrap_or(1.0);
    db.execute("CREATE TABLE query (id INT, str TEXT)")
        .expect("create query");
    db.execute(&format!("INSERT INTO query VALUES (0, '{qp}')"))
        .expect("insert query");
    db.execute("CREATE TABLE auxquery (id INT, qgram TEXT, pos INT)")
        .expect("create auxquery");
    load_aux_for_query(&mut db, &qp);

    let sql = format!(
        "SELECT N.id, N.pname \
         FROM names N, auxnames AN, query Q, auxquery AQ \
         WHERE N.id = AN.id AND Q.id = AQ.id AND AN.qgram = AQ.qgram \
           AND ABS(LEN(N.pname) - LEN(Q.str)) <= {k} \
           AND ABS(AN.pos - AQ.pos) <= {bound} \
         GROUP BY N.id, N.pname \
         HAVING COUNT(*) >= LEN(N.pname) - 1 - ({bound} - 1) * {Q} \
            AND PHONEQUAL(N.pname, MIN(Q.str), {THRESHOLD})"
    );
    let (rs, t) = timed(|| db.execute(&sql).expect("figure 14 SQL"));
    println!(
        "\nFigure 14 SQL over a {n}-row subset: {} matches in {} \
         (UDF invoked {} times instead of {n})",
        rs.rows.len(),
        fmt_duration(t),
        db.stats().udf_calls("PHONEQUAL"),
    );
}

fn load_aux_for_query(db: &mut Database, qp: &str) {
    use lexequal_matcher::qgram::{positional_qgrams, QgramSymbol};
    let p: lexequal_phoneme::PhonemeString = qp.parse().expect("query IPA");
    for g in positional_qgrams(p.as_slice(), Q) {
        let text: String = g
            .gram
            .iter()
            .map(|s| match s {
                QgramSymbol::Start => "◁".to_owned(),
                QgramSymbol::End => "▷".to_owned(),
                QgramSymbol::Sym(p) => p.symbol().to_owned(),
            })
            .collect();
        db.execute(&format!(
            "INSERT INTO auxquery VALUES (0, '{text}', {})",
            g.pos
        ))
        .expect("insert aux gram");
    }
}
