//! An interactive SQL shell with the LexEQUAL operator installed.
//!
//! ```sh
//! cargo run --release -p lexequal-bench --bin lexequal_shell
//! echo "select * from books where author lexequal 'Nehru' threshold 0.45 inlanguages *" \
//!   | cargo run --release -p lexequal-bench --bin lexequal_shell
//! ```
//!
//! Starts with the Figure 1 demo catalog preloaded (table `books`); all
//! LexEQUAL UDFs are registered. Dot-commands:
//!
//! * `.tables` — list tables
//! * `.quit`

use lexequal::udf::register_udfs;
use lexequal::{LexEqual, MatchConfig};
use lexequal_mdb::{Database, ResultSet};
use std::io::{BufRead, IsTerminal, Write};
use std::sync::Arc;

fn demo_db() -> Database {
    let mut db = Database::new();
    register_udfs(&mut db, Arc::new(LexEqual::new(MatchConfig::default())));
    db.execute("CREATE TABLE books (author TEXT, title TEXT, price FLOAT, language TEXT)")
        .expect("create demo table");
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
        ("بهنسي", "العمارة عبر التاريخ", 75.0, "Arabic"),
        ("Nehru", "Discovery of India", 9.95, "English"),
        ("ネルー", "インドの発見", 7500.0, "Japanese"),
        ("नेहरु", "भारत एक खोज", 175.0, "Hindi"),
    ] {
        db.execute(&format!(
            "INSERT INTO books VALUES ('{author}', '{title}', {price}, '{lang}')"
        ))
        .expect("insert demo row");
    }
    db
}

fn print_result(rs: &ResultSet) {
    if rs.columns.is_empty() {
        println!("ok");
        return;
    }
    println!("{}", rs.columns.join(" | "));
    println!("{}", "-".repeat(rs.columns.len() * 12));
    for row in &rs.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    println!("({} rows)", rs.rows.len());
}

fn main() {
    let mut db = demo_db();
    let stdin = std::io::stdin();
    // Banner and prompt only for a person at a terminal; piped input
    // gets the results alone.
    let interactive = stdin.is_terminal();
    if interactive {
        println!(
            "lexequal shell — demo catalog loaded (table: books).\n\
             Try: select author, title from books where author lexequal 'Nehru' \
             threshold 0.45 inlanguages *"
        );
    }
    loop {
        if interactive {
            print!("lexequal> ");
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".tables" => {
                let mut names: Vec<&str> = db.catalog().table_names().collect();
                names.sort_unstable();
                for n in names {
                    let rows = db.catalog().table(n).map(|t| t.len()).unwrap_or(0);
                    println!("{n} ({rows} rows)");
                }
            }
            sql => match db.execute(sql) {
                Ok(rs) => print_result(&rs),
                Err(e) => eprintln!("error: {e}"),
            },
        }
    }
}
