//! `lexequal-mdb`: a small in-process relational engine.
//!
//! The LexEQUAL paper (Kumaran & Haritsa, EDBT 2004) evaluates its
//! multiscript matching operator *inside a database system*: as a UDF
//! called from SQL, accelerated by auxiliary q-gram tables (joins +
//! GROUP BY/HAVING) and by a B-tree index over grouped phoneme string
//! identifiers. Reproducing those experiments therefore needs a database
//! substrate with no more than those queries use:
//!
//! * typed, append-only tables ([`Table`], [`Schema`], [`Value`]);
//! * **secondary indexes** answering equality probes: std's `BTreeMap`
//!   from a column value to the ids of the rows holding it ([`Catalog`]);
//! * a **SQL subset** — `SELECT`/`INSERT`/`CREATE TABLE`/`CREATE INDEX`
//!   and `EXPLAIN`, with multi-table joins, `WHERE`, `GROUP BY`/`HAVING`
//!   and `ORDER BY` ([`sql`]); `DELETE`, `UPDATE`, `DISTINCT`, `LIMIT`,
//!   `IN`, `BETWEEN` and `LIKE` are refused with a named [`DbError`];
//! * an executor with full scans, index scans, **hash joins** for
//!   equi-predicates, nested-loop joins, grouping and aggregation
//!   ([`exec`]);
//! * **scalar UDFs** registered by name ([`UdfRegistry`]) — the vehicle for
//!   the LexEQUAL operator itself, exactly as the paper deployed it on
//!   Oracle 9i via PL/SQL;
//! * execution statistics (UDF calls, index lookups) so the paper
//!   binaries can report *why* a plan is fast ([`Stats`]).
//!
//! The engine is single-threaded and fully in-memory, matching the paper's
//! single-connection experimental setup; see DESIGN.md §2 for the
//! substitution argument.
//!
//! # Example
//!
//! ```
//! use lexequal_mdb::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE books (author TEXT, title TEXT, price FLOAT)").unwrap();
//! db.execute("INSERT INTO books VALUES ('Nehru', 'Discovery of India', 9.95)").unwrap();
//! db.execute("INSERT INTO books VALUES ('Nero', 'Coronation', 99.0)").unwrap();
//! let rs = db.execute("SELECT author FROM books WHERE price < 50 ORDER BY author").unwrap();
//! assert_eq!(rs.rows[0][0], Value::from("Nehru"));
//! ```

pub mod catalog;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod row;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod table;
pub mod udf;
pub mod value;

pub use catalog::Catalog;
pub use db::{Database, ResultSet};
pub use error::DbError;
pub use expr::Expr;
pub use row::{Row, RowId};
pub use schema::{Column, Schema};
pub use stats::Stats;
pub use table::Table;
pub use udf::{Udf, UdfRegistry};
pub use value::{DataType, Value};
