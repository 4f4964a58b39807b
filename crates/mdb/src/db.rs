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

    /// Execute one SQL statement. DDL/DML return empty result sets.
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
            Statement::Delete {
                table,
                where_clause,
            } => {
                let rids = self.matching_rids(&table, where_clause.as_ref())?;
                let mut n = 0i64;
                for rid in rids {
                    if self.catalog.delete_row(&table, rid)? {
                        n += 1;
                    }
                }
                Ok(ResultSet {
                    columns: vec!["deleted".into()],
                    rows: vec![vec![crate::value::Value::Int(n)]],
                })
            }
            Statement::Update {
                table,
                set,
                where_clause,
            } => {
                let rids = self.matching_rids(&table, where_clause.as_ref())?;
                // Bind assignments against the table schema.
                let t = self.catalog.table(&table)?;
                let schema = crate::expr::BoundSchema {
                    columns: t
                        .schema()
                        .columns()
                        .iter()
                        .map(|c| (table.to_uppercase(), c.name.to_uppercase()))
                        .collect(),
                };
                let mut binder = crate::expr::Binder::new(&schema);
                let mut assignments = Vec::new();
                for (col, e) in &set {
                    let idx = t
                        .schema()
                        .index_of(col)
                        .ok_or_else(|| DbError::NoSuchColumn(col.clone()))?;
                    let bound = binder.bind(e)?;
                    if !binder.aggregates.is_empty() {
                        return Err(DbError::Unsupported("aggregate in UPDATE SET".into()));
                    }
                    assignments.push((idx, bound));
                }
                // Compute new rows first (immutably), then apply.
                let mut updates = Vec::new();
                for rid in rids {
                    let t = self.catalog.table(&table)?;
                    let Some(row) = t.row(rid) else { continue };
                    let mut new_row = row.clone();
                    for (idx, e) in &assignments {
                        let ctx = crate::expr::EvalCtx {
                            row,
                            udfs: &self.udfs,
                            aggs: None,
                            stats: &self.stats,
                        };
                        new_row[*idx] = e.eval(&ctx)?;
                    }
                    updates.push((rid, new_row));
                }
                let n = updates.len() as i64;
                for (rid, new_row) in updates {
                    self.catalog.update_row(&table, rid, new_row)?;
                }
                Ok(ResultSet {
                    columns: vec!["updated".into()],
                    rows: vec![vec![crate::value::Value::Int(n)]],
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

    /// Row ids of a table matching an optional predicate.
    fn matching_rids(
        &self,
        table: &str,
        predicate: Option<&crate::sql::ast::SqlExpr>,
    ) -> Result<Vec<crate::row::RowId>, DbError> {
        let t = self.catalog.table(table)?;
        let schema = crate::expr::BoundSchema {
            columns: t
                .schema()
                .columns()
                .iter()
                .map(|c| (table.to_uppercase(), c.name.to_uppercase()))
                .collect(),
        };
        let bound = match predicate {
            Some(p) => {
                let mut binder = crate::expr::Binder::new(&schema);
                let e = binder.bind(p)?;
                if !binder.aggregates.is_empty() {
                    return Err(DbError::Unsupported("aggregate in DML WHERE".into()));
                }
                Some(e)
            }
            None => None,
        };
        let mut rids = Vec::new();
        for (rid, row) in t.scan() {
            let keep = match &bound {
                Some(e) => {
                    let ctx = crate::expr::EvalCtx {
                        row,
                        udfs: &self.udfs,
                        aggs: None,
                        stats: &self.stats,
                    };
                    e.eval(&ctx)?.truthy()
                }
                None => true,
            };
            if keep {
                rids.push(rid);
            }
        }
        Ok(rids)
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
        let rs = db.execute("SELECT * FROM books LIMIT 2").unwrap();
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 2);
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
    fn in_list() {
        let mut db = names_db();
        let rs = db
            .execute("SELECT name FROM t WHERE id IN (1, 3, 99) ORDER BY id")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::from("Nehru")], vec![Value::from("Neruda")]]
        );
        let rs = db
            .execute("SELECT COUNT(*) FROM t WHERE id NOT IN (1, 3)")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn between() {
        let mut db = names_db();
        let rs = db
            .execute("SELECT name FROM t WHERE price BETWEEN 10 AND 30 ORDER BY price")
            .unwrap();
        assert_eq!(rs.rows.len(), 3); // 15, 20, 30 (inclusive)
        let rs = db
            .execute("SELECT COUNT(*) FROM t WHERE price NOT BETWEEN 10 AND 30")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn like_patterns() {
        let mut db = names_db();
        let rs = db
            .execute("SELECT name FROM t WHERE name LIKE 'Ne%' ORDER BY name")
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        let rs = db
            .execute("SELECT name FROM t WHERE name LIKE 'Ner_'")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("Nero")]]);
        let rs = db
            .execute("SELECT name FROM t WHERE name LIKE '%dhi'")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("Gandhi")]]);
        let rs = db
            .execute("SELECT COUNT(*) FROM t WHERE name NOT LIKE 'Ne%'")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn like_on_multiscript_text() {
        let mut db = Database::new();
        db.execute("CREATE TABLE b (author TEXT)").unwrap();
        db.execute("INSERT INTO b VALUES ('नेहरु'), ('நேரு'), ('Nehru')")
            .unwrap();
        let rs = db
            .execute("SELECT author FROM b WHERE author LIKE 'नेह%'")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("नेहरु")]]);
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
}

#[cfg(test)]
mod dml_tests {
    use super::*;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT, price FLOAT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1,'a',10.0), (2,'b',20.0), (3,'c',30.0), (4,'b',40.0)")
            .unwrap();
        db
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = db();
        let rs = db.execute("DELETE FROM t WHERE name = 'b'").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        // Deleted rows do not reappear anywhere.
        let rs = db.execute("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    #[test]
    fn delete_all_and_reinsert() {
        let mut db = db();
        db.execute("DELETE FROM t").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
        db.execute("INSERT INTO t VALUES (9,'z',1.0)").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }

    #[test]
    fn delete_respects_indexes() {
        let mut db = db();
        db.execute("CREATE INDEX ix ON t (id)").unwrap();
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
        // Index probe must not resurrect the tombstoned row.
        let rs = db.execute("SELECT name FROM t WHERE id = 2").unwrap();
        assert!(rs.rows.is_empty());
        assert!(db
            .explain("SELECT name FROM t WHERE id = 2")
            .unwrap()
            .contains("IndexScan"));
    }

    #[test]
    fn update_values_and_expressions() {
        let mut db = db();
        let rs = db
            .execute("UPDATE t SET price = price * 2 WHERE name = 'b'")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        let rs = db
            .execute("SELECT price FROM t WHERE name = 'b' ORDER BY price")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::Float(40.0)], vec![Value::Float(80.0)]]
        );
        // Row count is unchanged by updates.
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(4)
        );
    }

    #[test]
    fn update_indexed_column_moves_index_entry() {
        let mut db = db();
        db.execute("CREATE INDEX ix ON t (id)").unwrap();
        db.execute("UPDATE t SET id = 99 WHERE id = 1").unwrap();
        let rs = db.execute("SELECT name FROM t WHERE id = 99").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("a")]]);
        let rs = db.execute("SELECT name FROM t WHERE id = 1").unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn update_missing_column_fails() {
        let mut db = db();
        assert!(db.execute("UPDATE t SET nope = 1").is_err());
    }

    #[test]
    fn select_distinct() {
        let mut db = db();
        let rs = db
            .execute("SELECT DISTINCT name FROM t ORDER BY name")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::from("a")],
                vec![Value::from("b")],
                vec![Value::from("c")]
            ]
        );
        // DISTINCT over multiple columns keeps distinct combinations.
        let rs = db.execute("SELECT DISTINCT name, price FROM t").unwrap();
        assert_eq!(rs.rows.len(), 4);
    }
}

#[cfg(test)]
mod range_scan_tests {
    use super::*;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        for i in 0..1000 {
            db.insert("t", vec![Value::Int(i), Value::from(format!("n{i:04}"))])
                .unwrap();
        }
        db.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        db
    }

    #[test]
    fn range_scan_results_match_full_scan() {
        let mut db = db();
        for sql in [
            "SELECT COUNT(*) FROM t WHERE id < 17",
            "SELECT COUNT(*) FROM t WHERE id <= 17",
            "SELECT COUNT(*) FROM t WHERE id > 990",
            "SELECT COUNT(*) FROM t WHERE id >= 990",
            "SELECT COUNT(*) FROM t WHERE id BETWEEN 100 AND 110",
            "SELECT COUNT(*) FROM t WHERE 500 > id",
        ] {
            let plan = db.explain(sql).unwrap();
            assert!(plan.contains("IndexRangeScan"), "{sql} -> {plan}");
            let indexed = db.execute(sql).unwrap();
            // Same predicate against the unindexed name column-less rewrite:
            // force a scan by wrapping with a no-op arithmetic identity.
            let scanned = db.execute(&sql.replace("id", "(id + 0)")).unwrap();
            assert_eq!(indexed.rows, scanned.rows, "{sql}");
        }
    }

    #[test]
    fn range_scan_respects_residual_filters() {
        let mut db = db();
        let sql = "SELECT COUNT(*) FROM t WHERE id < 100 AND name LIKE '%7'";
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains("IndexRangeScan"), "{plan}");
        let rs = db.execute(sql).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(10)); // 7, 17, ..., 97
    }

    #[test]
    fn range_scan_sees_tombstones_and_updates() {
        let mut db = db();
        db.execute("DELETE FROM t WHERE id = 5").unwrap();
        db.execute("UPDATE t SET id = 3 WHERE id = 7").unwrap();
        let rs = db.execute("SELECT COUNT(*) FROM t WHERE id < 10").unwrap();
        // 0..10 originally; minus deleted 5, 7 moved to 3 (still < 10).
        assert_eq!(rs.rows[0][0], Value::Int(9));
    }

    #[test]
    fn equality_still_preferred_over_range() {
        let db = db();
        let plan = db
            .explain("SELECT name FROM t WHERE id = 5 AND id < 100")
            .unwrap();
        assert!(plan.contains("IndexScan("), "{plan}");
    }
}
