//! SQL abstract syntax tree.

use crate::value::DataType;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT … FROM … [WHERE …] [GROUP BY …] [HAVING …] [ORDER BY …]`
    Select(Select),
    /// `EXPLAIN SELECT …` — returns the plan description as one row.
    Explain(Select),
    /// `INSERT INTO table VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Row literals.
        rows: Vec<Vec<Literal>>,
    },
    /// `CREATE TABLE name (col ty, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
    },
    /// `CREATE INDEX name ON table (column)`
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
}

/// The SELECT statement body.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM relations: (table, alias).
    pub from: Vec<(String, String)>,
    /// WHERE predicate.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY column references.
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate (may contain aggregates).
    pub having: Option<SqlExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderBy>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with optional alias.
    Expr {
        /// The projected expression.
        expr: SqlExpr,
        /// Output column name, if given with AS.
        alias: Option<String>,
    },
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Sort expression (usually a column reference).
    pub expr: SqlExpr,
    /// Ascending (default) or descending.
    pub asc: bool,
}

/// Literal constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// TRUE / FALSE.
    Bool(bool),
    /// NULL.
    Null,
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `||` string concatenation.
    Concat,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// COUNT(*) or COUNT(expr).
    Count,
    /// SUM(expr).
    Sum,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
    /// AVG(expr).
    Avg,
}

/// SQL expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// A literal constant.
    Literal(Literal),
    /// A column reference: optional qualifier + name.
    Column {
        /// Table alias qualifier (`N` in `N.PName`).
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<SqlExpr>,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<SqlExpr>,
    },
    /// Scalar function call (builtin or UDF).
    Call {
        /// Function name, upper-cased.
        name: String,
        /// Arguments.
        args: Vec<SqlExpr>,
    },
    /// Aggregate call. `arg` is `None` for `COUNT(*)`.
    AggregateCall {
        /// Which aggregate.
        agg: Aggregate,
        /// Aggregated expression, if any.
        arg: Option<Box<SqlExpr>>,
    },
    /// The LexEQUAL syntax extension (paper Figure 3):
    /// `left LEXEQUAL right THRESHOLD t [INLANGUAGES {…} | INLANGUAGES *]`.
    LexEqual {
        /// Left operand (column or string).
        left: Box<SqlExpr>,
        /// Right operand.
        right: Box<SqlExpr>,
        /// Match threshold (fraction of the smaller phoneme string).
        threshold: Box<SqlExpr>,
        /// Target language names; `None` means `*` (all languages).
        languages: Option<Vec<String>>,
    },
}
