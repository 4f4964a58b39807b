//! Bound (resolved) expressions and their evaluation.
//!
//! The parser produces [`SqlExpr`] with textual column references; binding
//! resolves them against the schema of the row the executor will supply
//! (possibly a join row spanning several tables) and lowers the LexEQUAL
//! syntax extension to a plain UDF call. Evaluation is interpretive —
//! adequate for an experimental engine and faithful to the paper's
//! interpreted PL/SQL setting.

use crate::error::DbError;
use crate::sql::ast::{Aggregate, BinOp, Literal, SqlExpr, UnOp};
use crate::stats::Stats;
use crate::udf::UdfRegistry;
use crate::value::Value;

/// The name environment a query row exposes: one entry per column, with
/// the alias of the table it came from.
#[derive(Debug, Clone, Default)]
pub struct BoundSchema {
    /// (table alias uppercased, column name uppercased) per output column.
    pub columns: Vec<(String, String)>,
}

impl BoundSchema {
    /// Resolve a possibly-qualified column name to an index.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, DbError> {
        let name = name.to_uppercase();
        let qualifier = qualifier.map(str::to_uppercase);
        let mut hit = None;
        for (i, (q, n)) in self.columns.iter().enumerate() {
            if *n == name && qualifier.as_deref().map_or(true, |qq| qq == q) {
                if hit.is_some() {
                    return Err(DbError::NoSuchColumn(format!("{name} is ambiguous")));
                }
                hit = Some(i);
            }
        }
        hit.ok_or_else(|| {
            DbError::NoSuchColumn(match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name,
            })
        })
    }
}

/// A bound expression, ready to evaluate against a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Constant.
    Literal(Value),
    /// Column of the input row.
    Column(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Scalar function call (builtin or UDF), dispatched by name.
    Call {
        /// Upper-case function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A computed aggregate, filled in by the group-by operator.
    AggregateSlot(usize),
}

/// An aggregate extracted from an expression during binding.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAggregate {
    /// Which aggregate function.
    pub agg: Aggregate,
    /// Aggregated expression (`None` = COUNT(*)).
    pub arg: Option<Expr>,
}

/// Binder: resolves names and extracts aggregates.
pub struct Binder<'a> {
    /// The row schema expressions are bound against.
    pub schema: &'a BoundSchema,
    /// Aggregates encountered so far (slots index into this).
    pub aggregates: Vec<BoundAggregate>,
}

impl<'a> Binder<'a> {
    /// New binder over a schema.
    pub fn new(schema: &'a BoundSchema) -> Self {
        Binder {
            schema,
            aggregates: Vec::new(),
        }
    }

    /// Bind an expression. Aggregate calls allocate slots.
    pub fn bind(&mut self, e: &SqlExpr) -> Result<Expr, DbError> {
        Ok(match e {
            SqlExpr::Literal(l) => Expr::Literal(literal_value(l)),
            SqlExpr::Column { qualifier, name } => {
                Expr::Column(self.schema.resolve(qualifier.as_deref(), name)?)
            }
            SqlExpr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(self.bind(left)?),
                right: Box::new(self.bind(right)?),
            },
            SqlExpr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(self.bind(operand)?),
            },
            SqlExpr::Call { name, args } => Expr::Call {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.bind(a))
                    .collect::<Result<_, _>>()?,
            },
            SqlExpr::AggregateCall { agg, arg } => {
                let bound_arg = match arg {
                    Some(a) => Some(self.bind(a)?),
                    None => None,
                };
                let slot = self.aggregates.len();
                self.aggregates.push(BoundAggregate {
                    agg: *agg,
                    arg: bound_arg,
                });
                Expr::AggregateSlot(slot)
            }
            SqlExpr::LexEqual {
                left,
                right,
                threshold,
                languages,
            } => {
                // Lower to the registered UDF:
                // LEXEQUAL(left, right, threshold, 'lang1,lang2' | '*').
                let langs = match languages {
                    None => "*".to_owned(),
                    Some(ls) => ls.join(","),
                };
                Expr::Call {
                    name: "LEXEQUAL".to_owned(),
                    args: vec![
                        self.bind(left)?,
                        self.bind(right)?,
                        self.bind(threshold)?,
                        Expr::Literal(Value::Str(langs)),
                    ],
                }
            }
        })
    }
}

/// Convert an AST literal to a runtime value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

/// Evaluation context: the current row, UDFs, computed aggregates, stats.
pub struct EvalCtx<'a> {
    /// The input row.
    pub row: &'a [Value],
    /// UDF registry for `Call` dispatch.
    pub udfs: &'a UdfRegistry,
    /// Aggregate results for `AggregateSlot` (group-by only).
    pub aggs: Option<&'a [Value]>,
    /// Execution statistics sink.
    pub stats: &'a Stats,
}

impl Expr {
    /// Evaluate against a context.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Result<Value, DbError> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(i) => Ok(ctx
                .row
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Type(format!("row too short for column {i}")))?),
            Expr::AggregateSlot(i) => ctx
                .aggs
                .and_then(|a| a.get(*i).cloned())
                .ok_or_else(|| DbError::Type("aggregate outside GROUP BY".into())),
            Expr::Unary { op, operand } => {
                let v = operand.eval(ctx)?;
                match op {
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::Neg => match v {
                        Value::Int(i) => checked(i.checked_neg(), || format!("-({i})")),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(DbError::Type(format!("cannot negate {other}"))),
                    },
                }
            }
            Expr::Binary { op, left, right } => {
                // Short-circuit logic first.
                match op {
                    BinOp::And => {
                        return Ok(Value::Bool(
                            left.eval(ctx)?.truthy() && right.eval(ctx)?.truthy(),
                        ))
                    }
                    BinOp::Or => {
                        return Ok(Value::Bool(
                            left.eval(ctx)?.truthy() || right.eval(ctx)?.truthy(),
                        ))
                    }
                    _ => {}
                }
                let l = left.eval(ctx)?;
                let r = right.eval(ctx)?;
                eval_binop(*op, l, r)
            }
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(ctx)?);
                }
                eval_call(name, &vals, ctx)
            }
        }
    }

    /// Walk all sub-expressions (including self).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { operand, .. } => operand.walk(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }
}

fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, DbError> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(!l.is_null() && !r.is_null() && l == r)),
        Ne => Ok(Value::Bool(!l.is_null() && !r.is_null() && l != r)),
        Lt => Ok(Value::Bool(!l.is_null() && !r.is_null() && l < r)),
        Le => Ok(Value::Bool(!l.is_null() && !r.is_null() && l <= r)),
        Gt => Ok(Value::Bool(!l.is_null() && !r.is_null() && l > r)),
        Ge => Ok(Value::Bool(!l.is_null() && !r.is_null() && l >= r)),
        Concat => Ok(Value::Str(format!("{l}{r}"))),
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic when both sides are integers (except /).
            if let (&Value::Int(a), &Value::Int(b)) = (&l, &r) {
                return match op {
                    Add => checked(a.checked_add(b), || format!("{a} + {b}")),
                    Sub => checked(a.checked_sub(b), || format!("{a} - {b}")),
                    Mul => checked(a.checked_mul(b), || format!("{a} * {b}")),
                    Div => Ok(if b == 0 {
                        Value::Null
                    } else {
                        Value::Float(a as f64 / b as f64)
                    }),
                    _ => unreachable!("arithmetic op"),
                };
            }
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            Ok(match op {
                Add => Value::Float(a + b),
                Sub => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => unreachable!("arithmetic op"),
            })
        }
        And | Or => unreachable!("handled by short-circuit path"),
    }
}

/// An `i64` result, or the type error naming the expression that left
/// the integer range (never a wrapped value, never a promotion to float).
pub(crate) fn checked(v: Option<i64>, expr: impl FnOnce() -> String) -> Result<Value, DbError> {
    v.map(Value::Int)
        .ok_or_else(|| DbError::Type(format!("integer overflow: {}", expr())))
}

fn eval_call(name: &str, args: &[Value], ctx: &EvalCtx<'_>) -> Result<Value, DbError> {
    match name {
        "LEN" | "LENGTH" => {
            let [v] = args else {
                return Err(DbError::Type("LEN takes 1 argument".into()));
            };
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(v.as_str()?.chars().count() as i64))
        }
        "ABS" => {
            let [v] = args else {
                return Err(DbError::Type("ABS takes 1 argument".into()));
            };
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => checked(i.checked_abs(), || format!("ABS({i})")),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(DbError::Type(format!("ABS of {other}"))),
            }
        }
        "UPPER" => {
            let [v] = args else {
                return Err(DbError::Type("UPPER takes 1 argument".into()));
            };
            Ok(Value::Str(v.as_str()?.to_uppercase()))
        }
        "LOWER" => {
            let [v] = args else {
                return Err(DbError::Type("LOWER takes 1 argument".into()));
            };
            Ok(Value::Str(v.as_str()?.to_lowercase()))
        }
        _ => {
            let udf = ctx
                .udfs
                .get(name)
                .ok_or_else(|| DbError::NoSuchFunction(name.to_owned()))?;
            ctx.stats.record_udf_call(name);
            udf.call(args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::{SelectItem, Statement};
    use crate::sql::parser::parse;

    fn schema() -> BoundSchema {
        BoundSchema {
            columns: vec![
                ("T".into(), "A".into()),
                ("T".into(), "B".into()),
                ("U".into(), "A".into()),
            ],
        }
    }

    fn bind_where(sql: &str) -> (Expr, Vec<BoundAggregate>) {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!("expected select")
        };
        let s = schema();
        let mut b = Binder::new(&s);
        let e = b.bind(sel.where_clause.as_ref().unwrap()).unwrap();
        (e, b.aggregates)
    }

    fn eval_simple(e: &Expr, row: &[Value]) -> Value {
        let udfs = UdfRegistry::new();
        let stats = Stats::default();
        e.eval(&EvalCtx {
            row,
            udfs: &udfs,
            aggs: None,
            stats: &stats,
        })
        .unwrap()
    }

    #[test]
    fn qualified_resolution_and_ambiguity() {
        let s = schema();
        assert_eq!(s.resolve(Some("t"), "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("U"), "A").unwrap(), 2);
        assert_eq!(s.resolve(None, "b").unwrap(), 1);
        assert!(s.resolve(None, "a").is_err()); // ambiguous
        assert!(s.resolve(None, "zzz").is_err());
    }

    #[test]
    fn arithmetic_and_comparison_eval() {
        let (e, _) = bind_where("SELECT x FROM t WHERE t.b + 1 >= 2 * 2");
        let v = eval_simple(&e, &[Value::Null, Value::Int(3), Value::Null]);
        assert_eq!(v, Value::Bool(true));
        let v = eval_simple(&e, &[Value::Null, Value::Int(2), Value::Null]);
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn null_comparisons_are_false() {
        let (e, _) = bind_where("SELECT x FROM t WHERE t.b = t.b");
        let v = eval_simple(&e, &[Value::Null, Value::Null, Value::Null]);
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn builtins() {
        let (e, _) = bind_where("SELECT x FROM t WHERE LEN(t.b) = 5 AND ABS(0 - 3) = 3");
        let v = eval_simple(&e, &[Value::Null, Value::from("nehru"), Value::Null]);
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn len_counts_chars_not_bytes() {
        let (e, _) = bind_where("SELECT x FROM t WHERE LEN(t.b) = 5");
        // नेहरु is 5 chars, 15 bytes
        let v = eval_simple(&e, &[Value::Null, Value::from("नेहरु"), Value::Null]);
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn division_by_zero_is_null() {
        let (e, _) = bind_where("SELECT x FROM t WHERE 1 / 0 = 1");
        let v = eval_simple(&e, &[Value::Null, Value::Null, Value::Null]);
        assert_eq!(v, Value::Bool(false)); // NULL = 1 is false
    }

    #[test]
    fn integer_overflow_is_a_named_type_error() {
        let (max, min) = (i64::MAX, i64::MIN);
        // `{min}` cannot be written as one literal: `-9223372036854775808`
        // is the negation of an out-of-range integer.
        let min_expr = format!("(-{max} - 1)");
        for (expr, want) in [
            (format!("{max} + 1"), Err("9223372036854775807 + 1")),
            (format!("{min_expr} - 1"), Err("-9223372036854775808 - 1")),
            (format!("{max} * 2"), Err("9223372036854775807 * 2")),
            (format!("-{min_expr}"), Err("-(-9223372036854775808)")),
            (format!("ABS({min_expr})"), Err("ABS(-9223372036854775808)")),
            (format!("{max} - 1 + 1"), Ok(max)),
            (format!("{min_expr} + 0"), Ok(min)),
            (format!("-(-{max})"), Ok(max)),
            (format!("{max} * -1"), Ok(-max)),
        ] {
            let (e, _) = bind_where(&format!("SELECT x FROM t WHERE {expr}"));
            let got = e.eval(&EvalCtx {
                row: &[],
                udfs: &UdfRegistry::new(),
                aggs: None,
                stats: &Stats::default(),
            });
            match want {
                Ok(v) => assert_eq!(got, Ok(Value::Int(v)), "{expr}"),
                Err(msg) => {
                    let want = DbError::Type(format!("integer overflow: {msg}"));
                    assert_eq!(got, Err(want), "{expr}");
                }
            }
        }
    }

    #[test]
    fn aggregates_extracted_into_slots() {
        let Statement::Select(sel) =
            parse("SELECT t.a FROM t GROUP BY t.a HAVING COUNT(*) > 2 AND MAX(t.b) < 10").unwrap()
        else {
            panic!("expected select")
        };
        let s = schema();
        let mut b = Binder::new(&s);
        let e = b.bind(sel.having.as_ref().unwrap()).unwrap();
        assert_eq!(b.aggregates.len(), 2);
        let mut slots = 0;
        e.walk(&mut |x| {
            if matches!(x, Expr::AggregateSlot(_)) {
                slots += 1;
            }
        });
        assert_eq!(slots, 2);
    }

    #[test]
    fn lexequal_lowers_to_udf_call() {
        let (e, _) = bind_where(
            "SELECT x FROM t WHERE t.b LEXEQUAL 'Nehru' THRESHOLD 0.25 INLANGUAGES { English, Tamil }",
        );
        let Expr::Call { name, args } = &e else {
            panic!("expected call, got {e:?}")
        };
        assert_eq!(name, "LEXEQUAL");
        assert_eq!(args.len(), 4);
        assert_eq!(args[3], Expr::Literal(Value::from("ENGLISH,TAMIL")));
    }

    #[test]
    fn missing_udf_is_reported() {
        let (e, _) = bind_where("SELECT x FROM t WHERE MYSTERY(t.b) = 1");
        let udfs = UdfRegistry::new();
        let stats = Stats::default();
        let err = e
            .eval(&EvalCtx {
                row: &[Value::Null, Value::Int(1), Value::Null],
                udfs: &udfs,
                aggs: None,
                stats: &stats,
            })
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchFunction(_)));
    }

    #[test]
    fn select_items_bind() {
        let Statement::Select(sel) = parse("SELECT t.a, t.b || 'x' AS bx FROM t").unwrap() else {
            panic!("expected select")
        };
        let s = schema();
        let mut b = Binder::new(&s);
        for item in &sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                b.bind(expr).unwrap();
            }
        }
    }
}
