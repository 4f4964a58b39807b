//! The `Database` facade.

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::exec::ExecContext;
pub use crate::exec::ResultSet;
use crate::expr::literal_value;
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::sql::ast::Statement;
use crate::sql::parser::parse;
use crate::stats::Stats;
use crate::udf::{Udf, UdfRegistry};

/// An in-memory database: catalog + UDFs + statistics, with a SQL
/// entry point and a programmatic API.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    udfs: UdfRegistry,
    stats: Stats,
}

impl Database {
    /// A fresh, empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a scalar UDF (callable from SQL by name).
    pub fn register_udf(&mut self, udf: Udf) {
        self.udfs.register(udf);
    }

    /// The accumulated execution statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The catalog (programmatic access to tables/indexes).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Insert a row programmatically (faster than SQL INSERT for bulk
    /// loads; still maintains indexes).
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), DbError> {
        self.catalog.insert_row(table, row)
    }

    /// Insert a batch of rows programmatically, amortizing the table and
    /// index lookups over the whole batch; returns the number of rows
    /// inserted. A bad row aborts the batch before anything is stored.
    pub fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> Result<usize, DbError> {
        self.catalog.insert_rows(table, rows)
    }

    /// Execute one SQL statement. `CREATE` and `INSERT` return empty
    /// result sets.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        match parse(sql)? {
            Statement::Select(select) => {
                let ctx = ExecContext {
                    catalog: &self.catalog,
                    udfs: &self.udfs,
                    stats: &self.stats,
                };
                ctx.run_select(&select)
            }
            Statement::Explain(select) => {
                let plan = crate::plan::plan_relational(&self.catalog, &select)?;
                Ok(ResultSet {
                    columns: vec!["plan".into()],
                    rows: vec![vec![crate::value::Value::Str(plan.describe())]],
                })
            }
            Statement::Insert { table, rows } => {
                for lits in rows {
                    let row: Row = lits.iter().map(literal_value).collect();
                    self.catalog.insert_row(&table, row)?;
                }
                Ok(ResultSet {
                    columns: vec![],
                    rows: vec![],
                })
            }
            Statement::CreateTable { name, columns } => {
                let schema =
                    Schema::new(columns.iter().map(|(n, t)| Column::new(n, *t)).collect())?;
                self.catalog.create_table(&name, schema)?;
                Ok(ResultSet {
                    columns: vec![],
                    rows: vec![],
                })
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                self.catalog.create_index(&name, &table, &column)?;
                Ok(ResultSet {
                    columns: vec![],
                    rows: vec![],
                })
            }
        }
    }

    /// EXPLAIN-style plan description for a SELECT (for tests/benches).
    pub fn explain(&self, sql: &str) -> Result<String, DbError> {
        match parse(sql)? {
            Statement::Select(select) => {
                let plan = crate::plan::plan_relational(&self.catalog, &select)?;
                Ok(plan.describe())
            }
            _ => Err(DbError::Unsupported("EXPLAIN only covers SELECT".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn books_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE books (author TEXT, title TEXT, price FLOAT, language TEXT)")
            .unwrap();
        for (a, t, p, l) in [
            ("Descartes", "Les Méditations", 49.0, "French"),
            ("நேரு", "ஆசிய ஜோதி", 250.0, "Tamil"),
            ("Nero", "The Coronation", 99.0, "English"),
            ("Nehru", "Discovery of India", 9.95, "English"),
            ("नेहरु", "भारत एक खोज", 175.0, "Hindi"),
        ] {
            db.execute(&format!(
                "INSERT INTO books VALUES ('{a}', '{t}', {p}, '{l}')"
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn end_to_end_select() {
        let mut db = books_db();
        let rs = db
            .execute("SELECT author, price FROM books WHERE price < 100 ORDER BY price DESC")
            .unwrap();
        assert_eq!(rs.columns, vec!["author", "price"]);
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::from("Nero"));
        assert_eq!(rs.rows[2][0], Value::from("Nehru"));
    }

    #[test]
    fn multilingual_strings_round_trip() {
        let mut db = books_db();
        let rs = db
            .execute("SELECT title FROM books WHERE author = 'नेहरु'")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("भारत एक खोज")]]);
    }

    #[test]
    fn self_join() {
        let mut db = books_db();
        let rs = db
            .execute(
                "SELECT b1.author FROM books b1, books b2 \
                 WHERE b1.author = b2.author AND b1.language <> b2.language",
            )
            .unwrap();
        // No author string repeats across languages in this catalog.
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn group_by_having_count() {
        let mut db = books_db();
        let rs = db
            .execute(
                "SELECT language, COUNT(*) FROM books GROUP BY language \
                 HAVING COUNT(*) >= 2 ORDER BY language",
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("English"), Value::Int(2)]]);
    }

    #[test]
    fn global_aggregates_without_group_by() {
        let mut db = books_db();
        let rs = db
            .execute("SELECT COUNT(*), MIN(price), MAX(price), AVG(price) FROM books")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(5));
        assert_eq!(rs.rows[0][1], Value::Float(9.95));
        assert_eq!(rs.rows[0][2], Value::Float(250.0));
    }

    #[test]
    fn aggregate_on_empty_table() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        let rs = db.execute("SELECT COUNT(*), SUM(x) FROM t").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn index_is_used_and_maintained() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        for i in 0..100 {
            db.insert("t", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        db.execute("CREATE INDEX ix_t_id ON t (id)").unwrap();
        assert!(db
            .explain("SELECT name FROM t WHERE id = 42")
            .unwrap()
            .starts_with("IndexScan"));
        let rs = db.execute("SELECT name FROM t WHERE id = 42").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("n42")]]);
        // Stats recorded an index lookup, not a 100-row scan.
        assert_eq!(db.stats().index_lookups(), 1);
    }

    #[test]
    fn udf_from_sql() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.register_udf(Udf::new("square", |args| {
            let v = args[0].as_i64()?;
            Ok(Value::Int(v * v))
        }));
        let rs = db
            .execute("SELECT SQUARE(x) FROM t WHERE SQUARE(x) > 3 ORDER BY x")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(4)], vec![Value::Int(9)]]);
        assert_eq!(db.stats().udf_calls("SQUARE"), 5); // 3 in WHERE + 2 projected
    }

    #[test]
    fn wildcard_projection() {
        let mut db = books_db();
        let rs = db.execute("SELECT * FROM books").unwrap();
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn hash_join_matches_nested_loop_semantics() {
        let mut db = Database::new();
        db.execute("CREATE TABLE l (k INT, a TEXT)").unwrap();
        db.execute("CREATE TABLE r (k INT, b TEXT)").unwrap();
        db.execute("INSERT INTO l VALUES (1,'x'), (2,'y'), (2,'z'), (3,'w')")
            .unwrap();
        db.execute("INSERT INTO r VALUES (2,'p'), (2,'q'), (3,'r'), (4,'s')")
            .unwrap();
        let hash = db
            .execute("SELECT l.a, r.b FROM l, r WHERE l.k = r.k ORDER BY l.a, r.b")
            .unwrap();
        // 2x2 for k=2 plus 1 for k=3.
        assert_eq!(hash.rows.len(), 5);
        // Same result through a nested-loop (non-equi disguise).
        let nl = db
            .execute("SELECT l.a, r.b FROM l, r WHERE l.k <= r.k AND l.k >= r.k ORDER BY l.a, r.b")
            .unwrap();
        assert_eq!(hash.rows, nl.rows);
    }
}

#[cfg(test)]
mod extended_sql_tests {
    use super::*;
    use crate::value::Value;

    fn names_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT, price FLOAT)")
            .unwrap();
        for (i, n, p) in [
            (1, "Nehru", 9.95),
            (2, "Nero", 99.0),
            (3, "Neruda", 20.0),
            (4, "Gandhi", 15.0),
            (5, "Tagore", 30.0),
        ] {
            db.execute(&format!("INSERT INTO t VALUES ({i}, '{n}', {p})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn explain_statement() {
        let mut db = names_db();
        let rs = db
            .execute("EXPLAIN SELECT name FROM t WHERE id = 3")
            .unwrap();
        assert_eq!(rs.columns, vec!["plan"]);
        let plan = rs.rows[0][0].to_string();
        assert!(plan.contains("Scan"), "{plan}");
        // With an index the plan changes.
        db.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        let rs = db
            .execute("EXPLAIN SELECT name FROM t WHERE id = 3")
            .unwrap();
        assert!(rs.rows[0][0].to_string().contains("IndexScan"));
    }

    #[test]
    fn dangling_not_is_a_parse_error() {
        let mut db = names_db();
        assert!(db.execute("SELECT name FROM t WHERE id NOT 3").is_err());
    }

    /// SQL outside the subset the paper's queries use is refused with a
    /// named error, before it can touch a table.
    #[test]
    fn shed_syntax_is_a_named_error_and_changes_no_table() {
        let mut db = names_db();
        db.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        let rows = |db: &Database| db.catalog().table("t").unwrap().len();
        for sql in [
            "DELETE FROM t WHERE id = 1",
            "DELETE FROM t",
            "UPDATE t SET price = price * 2 WHERE name = 'Nero'",
            "SELECT DISTINCT name FROM t",
            "SELECT name FROM t ORDER BY name LIMIT 2",
            "SELECT * FROM t LIMIT 2",
            "SELECT name FROM t WHERE id IN (1, 3)",
            "SELECT name FROM t WHERE id NOT IN (1, 3)",
            "SELECT name FROM t WHERE price BETWEEN 10 AND 30",
            "SELECT name FROM t WHERE id BETWEEN 1 AND 3",
            "SELECT name FROM t WHERE name LIKE 'Ne%'",
            "SELECT name FROM t WHERE name NOT LIKE 'Ne%'",
            "EXPLAIN SELECT name FROM t WHERE id IN (1, 3)",
        ] {
            match db.execute(sql) {
                Err(DbError::Parse(_) | DbError::Unsupported(_)) => {}
                other => panic!("{sql}: {other:?}"),
            }
            assert_eq!(rows(&db), 5, "{sql}");
        }
        let rs = db.execute("SELECT COUNT(*) FROM t WHERE id = 2").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    }
}

/// Range predicates on an indexed column: the index answers equality
/// probes only, so a range conjunct is a filter over what they return.
#[cfg(test)]
mod range_scan_tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn equality_still_preferred_over_range() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        for i in 0..1000 {
            db.insert("t", vec![Value::Int(i), Value::from(format!("n{i:04}"))])
                .unwrap();
        }
        db.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        let sql = "SELECT name FROM t WHERE id = 5 AND id < 100";
        assert_eq!(db.explain(sql).unwrap(), "Filter(IndexScan(T via ix_id))");
        assert_eq!(
            db.execute(sql).unwrap().rows,
            vec![vec![Value::from("n0005")]]
        );
        assert_eq!(
            db.explain("SELECT name FROM t WHERE id < 100").unwrap(),
            "Filter(Scan(T))"
        );
    }
}
