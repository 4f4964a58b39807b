//! End-to-end SQL integration: the paper's queries running through the
//! full stack (parser → planner → executor → UDFs → G2P → matcher).

use lexequal::udf::{load_names_table, load_qgram_aux_table, register_udfs};
use lexequal::{Language, LexEqual, MatchConfig};
use lexequal_mdb::{Database, DbError, Value};
use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::Arc;

fn catalog_db() -> Database {
    let mut db = Database::new();
    register_udfs(&mut db, Arc::new(LexEqual::new(MatchConfig::default())));
    db.execute("CREATE TABLE books (author TEXT, title TEXT, price FLOAT, language TEXT)")
        .expect("create");
    for (author, title, price, lang) in [
        (
            "Descartes",
            "Les Méditations Metaphysiques",
            49.00,
            "French",
        ),
        ("நேரு", "ஆசிய ஜோதி", 250.0, "Tamil"),
        ("Σαρρη", "Παιχνίδια στο Πιάνο", 15.50, "Greek"),
        ("Nero", "The Coronation of the Virgin", 99.00, "English"),
        ("Nehru", "Discovery of India", 9.95, "English"),
        ("नेहरु", "भारत एक खोज", 175.0, "Hindi"),
    ] {
        db.execute(&format!(
            "INSERT INTO books VALUES ('{author}', '{title}', {price}, '{lang}')"
        ))
        .expect("insert");
    }
    db
}

#[test]
fn figure3_selection_returns_figure4_rows() {
    let mut db = catalog_db();
    let rs = db
        .execute(
            "select Author, Title, Price from Books \
             where Author LexEQUAL 'Nehru' Threshold 0.45 \
             inlanguages { English, Hindi, Tamil, Greek }",
        )
        .expect("query");
    let authors: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    // The Figure 4 result set: the English, Tamil and Hindi renderings.
    assert!(authors.contains(&"Nehru".into()), "{authors:?}");
    assert!(authors.contains(&"நேரு".into()), "{authors:?}");
    assert!(authors.contains(&"नेहरु".into()), "{authors:?}");
    // French row must never appear.
    assert!(!authors.contains(&"Descartes".into()));
}

#[test]
fn language_restriction_excludes_scripts() {
    let mut db = catalog_db();
    let rs = db
        .execute(
            "select Author from Books \
             where Author LexEQUAL 'Nehru' Threshold 0.45 \
             inlanguages { English, Tamil }",
        )
        .expect("query");
    let authors: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(authors.contains(&"நேரு".into()));
    assert!(
        !authors.contains(&"नेहरु".into()),
        "Hindi must be excluded when not in INLANGUAGES: {authors:?}"
    );
}

#[test]
fn figure5_join_finds_multilingual_authors() {
    let mut db = catalog_db();
    let rs = db
        .execute(
            "select B1.Author from Books B1, Books B2 \
             where B1.Author LexEQUAL B2.Author Threshold 0.45 \
             and B1.Language <> B2.Language",
        )
        .expect("join");
    // Nehru renderings appear in all pairs; Descartes/Σαρρη never.
    assert!(!rs.rows.is_empty());
    for row in &rs.rows {
        let a = row[0].to_string();
        assert!(
            ["Nehru", "नेहरु", "நேரு", "Nero"].contains(&a.as_str()),
            "unexpected join participant {a}"
        );
    }
}

#[test]
fn orderby_limit_and_aggregates_compose_with_lexequal() {
    let mut db = catalog_db();
    let rs = db
        .execute(
            "select COUNT(*), MIN(Price), MAX(Price) from Books \
             where Author LexEQUAL 'Nehru' Threshold 0.45 inlanguages *",
        )
        .expect("agg");
    let n = rs.rows[0][0].as_i64().expect("count");
    assert!(n >= 3, "expected at least the three Nehru renderings");
    assert_eq!(rs.rows[0][1], Value::Float(9.95));
    // The same selection in descending price order: the Tamil rendering
    // (250.0) first, the English one (9.95) last.
    let selection = "select Author, Price from Books \
                     where Author LexEQUAL 'Nehru' Threshold 0.45 inlanguages * \
                     order by Price desc";
    let rs = db.execute(selection).expect("order by");
    assert_eq!(rs.rows.len() as i64, n);
    let prices: Vec<f64> = rs
        .rows
        .iter()
        .map(|r| r[1].as_f64().expect("price"))
        .collect();
    assert!(prices.windows(2).all(|w| w[0] >= w[1]), "{prices:?}");
    assert_eq!(rs.rows[0][0], Value::from("நேரு"));
    assert_eq!(rs.rows[rs.rows.len() - 1][0], Value::from("Nehru"));
    // LIMIT is outside the engine's SQL subset: a named error, not a cut.
    assert!(matches!(
        db.execute(&format!("{selection} limit 2")),
        Err(DbError::Unsupported(_))
    ));
}

#[test]
fn full_accelerated_pipeline_over_names_table() {
    let op = LexEqual::new(MatchConfig::default());
    let mut db = Database::new();
    register_udfs(&mut db, Arc::new(op.clone()));
    let names: Vec<(String, Language)> = [
        ("Nehru", Language::English),
        ("नेहरु", Language::Hindi),
        ("நேரு", Language::Tamil),
        ("Nero", Language::English),
        ("Gandhi", Language::English),
        ("गांधी", Language::Hindi),
        ("Krishnan", Language::English),
        ("Kumar", Language::English),
    ]
    .into_iter()
    .map(|(n, l)| (n.to_owned(), l))
    .collect();
    load_names_table(&mut db, "names", &names, &op).expect("names");
    load_qgram_aux_table(&mut db, "auxnames", "names", 3).expect("aux");
    db.execute("CREATE INDEX ix_gpid ON names (gpid)")
        .expect("index");

    // Aux table has one row per positional q-gram.
    let rs = db.execute("SELECT COUNT(*) FROM auxnames").expect("count");
    let grams = rs.rows[0][0].as_i64().expect("int");
    assert!(grams > names.len() as i64 * 3);

    // Phonetic-index plan (Figure 15): index scan + UDF.
    let q = op.transform("Nehru", Language::English).expect("ok");
    let key = lexequal::phonidx::grouped_id(op.cost_model().clusters(), &q);
    let sql =
        format!("SELECT name FROM names WHERE gpid = {key} AND PHONEQUAL(pname, '{q}', 0.45)");
    assert!(db.explain(&sql).expect("explain").contains("IndexScan"));
    let rs = db.execute(&sql).expect("exec");
    let found: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(found.contains(&"Nehru".into()));

    // Index lookups recorded, UDF not called for every row.
    assert!(db.stats().index_lookups() >= 1);
    assert!(db.stats().udf_calls("PHONEQUAL") < names.len() as u64);
}

#[test]
fn thresholds_outside_the_unit_interval_are_named_errors() {
    let mut db = catalog_db();
    let select = |e: &str| {
        format!(
            "SELECT author FROM books WHERE author LEXEQUAL 'Nehru' THRESHOLD {e} INLANGUAGES *"
        )
    };
    for (sql, range_error) in [
        (select("-1"), true),
        (select("7"), true),
        (select("0"), false),
        (select("1"), false),
        (
            "SELECT author FROM books WHERE PHONEQUAL('nɛru', 'nɛru', -3)".into(),
            true,
        ),
        (
            "SELECT author FROM books WHERE PHONEQUAL('nɛru', 'nɛru', 1)".into(),
            false,
        ),
    ] {
        match db.execute(&sql) {
            Err(DbError::Udf(msg)) if range_error => {
                assert!(msg.contains("outside [0,1]"), "{msg}")
            }
            Ok(rs) if !range_error => assert!(!rs.rows.is_empty(), "{sql}"),
            other => panic!("{sql}: {other:?}"),
        }
    }
}

#[test]
fn integer_sum_overflow_is_a_named_error() {
    let mut db = catalog_db();
    let err = db
        .execute("SELECT SUM(9223372036854775807) FROM books")
        .unwrap_err();
    assert_eq!(
        err,
        DbError::Type("integer overflow: SUM over 6 rows".into())
    );
    let rs = db.execute("SELECT SUM(1) FROM books").expect("sum");
    assert_eq!(rs.rows[0][0], Value::Int(6));
}

/// The shell as a pipe sees it: results only (no banner, no prompt),
/// errors on stderr, and `.save` is not a command (it reaches the SQL
/// parser and writes nothing).
#[test]
fn shell_answers_piped_input_without_a_prompt() {
    let dir = std::env::temp_dir().join(format!("lexequal-shell-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_lexequal_shell"))
        .current_dir(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shell");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"select * from books where author lexequal 'Nehru' threshold 0.45 inlanguages *\n\
              .tables\n\
              .save x\n",
        )
        .expect("write");
    let out = child.wait_with_output().expect("shell exits");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(out.status.success(), "{stderr}");
    let authors: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split(" | ").next())
        .filter(|a| ["Nehru", "नेहरु", "நேரு", "Nero", "ネルー"].contains(a))
        .collect();
    assert_eq!(authors.len(), 5, "{stdout}");
    assert!(stdout.contains("(5 rows)"), "{stdout}");
    assert!(stdout.contains("books (8 rows)"), "{stdout}");
    assert!(
        !stdout.contains("lexequal"),
        "banner or prompt on a pipe: {stdout}"
    );
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error: ")).count(),
        1,
        "{stderr}"
    );
    assert!(!dir.join("x").exists(), ".save wrote a file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lexequal_treats_unknown_script_as_nonmatch() {
    let mut db = catalog_db();
    db.execute("INSERT INTO books VALUES ('العمارة', 'Arabic title', 75.0, 'Arabic')")
        .expect("insert");
    let rs = db
        .execute(
            "select Author from Books where Author LexEQUAL 'Nehru' Threshold 0.45 inlanguages *",
        )
        .expect("query");
    let authors: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(!authors.contains(&"العمارة".into()));
}
