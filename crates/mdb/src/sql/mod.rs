//! SQL subset: lexer, AST, parser.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! stmt      := [EXPLAIN] select | insert | create_table | create_index
//! select    := SELECT item (, item)* FROM rel (, rel)*
//!              [WHERE expr] [GROUP BY colref (, colref)*] [HAVING expr]
//!              [ORDER BY expr [ASC|DESC] (, expr [ASC|DESC])*]
//! item      := expr [[AS] ident] | *
//! rel       := ident [ident]                      -- table [alias]
//! insert    := INSERT INTO ident VALUES ( lit (, lit)* ) (, ( ... ))*
//! create_table := CREATE TABLE ident ( col type (, col type)* )
//! create_index := CREATE INDEX ident ON ident ( col )
//! expr      := OR-chains of AND-chains of comparisons over arithmetic,
//!              function calls, aggregates (COUNT/SUM/MIN/MAX/AVG),
//!              and the LEXEQUAL extension:
//!                 operand LEXEQUAL operand THRESHOLD number
//!                         [INLANGUAGES { ident (, ident)* } | INLANGUAGES *]
//! ```
//!
//! A statement naming `DELETE`, `UPDATE`, `DISTINCT`, `LIMIT`, `IN`,
//! `BETWEEN` or `LIKE` is refused whole with
//! [`DbError::Unsupported`](crate::DbError::Unsupported): the paper's
//! queries need none of them, and the tables are append-only.
//!
//! The `LEXEQUAL … THRESHOLD … INLANGUAGES …` form is this engine's single
//! syntax extension, mirroring the paper's Figure 3. It lowers to a call of
//! the registered scalar UDF `LEXEQUAL(left, right, threshold, languages)`
//! — the engine itself knows nothing about phonetics.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{Aggregate, BinOp, Literal, OrderBy, SelectItem, SqlExpr, Statement, UnOp};
pub use parser::parse;
