//! Relational plans and the planner.
//!
//! The planner covers what the paper's experiments exercise:
//!
//! * single-table scans with pushed-down filters;
//! * **index scans** when a `col = constant` conjunct has a matching
//!   index (the phonetic-index plan of Figure 15);
//! * multi-table FROM lists joined with **hash joins** on equi-conjuncts
//!   (the q-gram auxiliary-table joins of Figure 14) and nested loops
//!   otherwise (the UDF-join baseline of Table 1, where the paper notes
//!   Oracle also fell back to nested loops).

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::expr::{Binder, BoundSchema, Expr};
use crate::sql::ast::{BinOp, Select, SqlExpr};

/// A relational plan node producing rows.
#[derive(Debug)]
pub enum RelPlan {
    /// Full scan of a table; predicates sit in a [`Filter`](Self::Filter)
    /// above it.
    Scan {
        /// Table name.
        table: String,
        /// Output schema.
        schema: BoundSchema,
    },
    /// Index probe: the rows whose indexed column equals `key`.
    IndexScan {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Key expression — must not reference any column.
        key: Expr,
        /// Output schema.
        schema: BoundSchema,
    },
    /// Hash join on a single equi-key pair.
    HashJoin {
        /// Build side.
        left: Box<RelPlan>,
        /// Probe side.
        right: Box<RelPlan>,
        /// Key over the left schema.
        left_key: Expr,
        /// Key over the right schema.
        right_key: Expr,
        /// Combined output schema (left ++ right).
        schema: BoundSchema,
    },
    /// Nested-loop (cross) join; predicates are applied by a Filter above.
    NestedLoop {
        /// Outer input.
        left: Box<RelPlan>,
        /// Inner input.
        right: Box<RelPlan>,
        /// Combined output schema.
        schema: BoundSchema,
    },
    /// Predicate over the input.
    Filter {
        /// Input plan.
        input: Box<RelPlan>,
        /// Predicate bound to the input schema.
        predicate: Expr,
    },
}

impl RelPlan {
    /// The output schema of this node.
    pub fn schema(&self) -> &BoundSchema {
        match self {
            RelPlan::Scan { schema, .. }
            | RelPlan::IndexScan { schema, .. }
            | RelPlan::HashJoin { schema, .. }
            | RelPlan::NestedLoop { schema, .. } => schema,
            RelPlan::Filter { input, .. } => input.schema(),
        }
    }

    /// A one-line plan summary (for tests and EXPLAIN-style output).
    pub fn describe(&self) -> String {
        match self {
            RelPlan::Scan { table, .. } => format!("Scan({table})"),
            RelPlan::IndexScan { table, index, .. } => format!("IndexScan({table} via {index})"),
            RelPlan::HashJoin { left, right, .. } => {
                format!("HashJoin({}, {})", left.describe(), right.describe())
            }
            RelPlan::NestedLoop { left, right, .. } => {
                format!("NestedLoop({}, {})", left.describe(), right.describe())
            }
            RelPlan::Filter { input, .. } => format!("Filter({})", input.describe()),
        }
    }
}

/// Split an expression into its top-level AND conjuncts.
fn conjuncts(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    if let SqlExpr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        conjuncts(left, out);
        conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// Does this AST expression contain an aggregate call?
fn has_aggregate(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::AggregateCall { .. } => true,
        SqlExpr::Binary { left, right, .. } => has_aggregate(left) || has_aggregate(right),
        SqlExpr::Unary { operand, .. } => has_aggregate(operand),
        SqlExpr::Call { args, .. } => args.iter().any(has_aggregate),
        SqlExpr::LexEqual {
            left,
            right,
            threshold,
            ..
        } => has_aggregate(left) || has_aggregate(right) || has_aggregate(threshold),
        _ => false,
    }
}

/// Build the relational part (FROM + WHERE) of a SELECT.
///
/// Returns the plan; WHERE conjuncts containing aggregates are rejected
/// (they belong in HAVING).
pub fn plan_relational(catalog: &Catalog, select: &Select) -> Result<RelPlan, DbError> {
    if select.from.is_empty() {
        return Err(DbError::Unsupported("SELECT without FROM".into()));
    }
    let mut pending: Vec<SqlExpr> = Vec::new();
    if let Some(w) = &select.where_clause {
        conjuncts(w, &mut pending);
    }
    for c in &pending {
        if has_aggregate(c) {
            return Err(DbError::Unsupported(
                "aggregate in WHERE (use HAVING)".into(),
            ));
        }
    }

    let base_schema = |table: &str, alias: &str| -> Result<BoundSchema, DbError> {
        let t = catalog.table(table)?;
        Ok(BoundSchema {
            columns: t
                .schema()
                .columns()
                .iter()
                .map(|c| (alias.to_uppercase(), c.name.to_uppercase()))
                .collect(),
        })
    };

    // Single relation: try the index-scan shortcut.
    let (first_table, first_alias) = &select.from[0];
    let first_schema = base_schema(first_table, first_alias)?;
    let index_scan = match select.from.len() {
        1 => try_index_scan(catalog, first_table, &first_schema, &mut pending),
        _ => None,
    };
    let mut plan = index_scan.unwrap_or(RelPlan::Scan {
        table: first_table.clone(),
        schema: first_schema,
    });
    plan = attach_ready_filters(plan, &mut pending)?;

    for (table, alias) in &select.from[1..] {
        let right_schema = base_schema(table, alias)?;
        let right = RelPlan::Scan {
            table: table.clone(),
            schema: right_schema.clone(),
        };
        // Look for an equi-conjunct splitting across the two sides.
        let mut join_key: Option<(usize, Expr, Expr)> = None;
        for (i, c) in pending.iter().enumerate() {
            let SqlExpr::Binary {
                op: BinOp::Eq,
                left,
                right: r,
            } = c
            else {
                continue;
            };
            let try_bind = |e: &SqlExpr, s: &BoundSchema| -> Option<Expr> {
                let mut b = Binder::new(s);
                b.bind(e).ok().filter(|_| b.aggregates.is_empty())
            };
            if let (Some(lk), Some(rk)) =
                (try_bind(left, plan.schema()), try_bind(r, &right_schema))
            {
                join_key = Some((i, lk, rk));
                break;
            }
            if let (Some(lk), Some(rk)) =
                (try_bind(r, plan.schema()), try_bind(left, &right_schema))
            {
                join_key = Some((i, lk, rk));
                break;
            }
        }
        let combined = BoundSchema {
            columns: plan
                .schema()
                .columns
                .iter()
                .chain(&right_schema.columns)
                .cloned()
                .collect(),
        };
        plan = match join_key {
            Some((i, left_key, right_key)) => {
                pending.remove(i);
                RelPlan::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                    left_key,
                    right_key,
                    schema: combined,
                }
            }
            None => RelPlan::NestedLoop {
                left: Box::new(plan),
                right: Box::new(right),
                schema: combined,
            },
        };
        plan = attach_ready_filters(plan, &mut pending)?;
    }

    if !pending.is_empty() {
        // Conjuncts that never became bindable: report the first error.
        let schema = plan.schema().clone();
        let mut b = Binder::new(&schema);
        b.bind(&pending[0])?; // propagate the real binding error
        return Err(DbError::Unsupported(
            "unplaced predicate after join planning".into(),
        ));
    }
    Ok(plan)
}

/// Pop every pending conjunct that binds against the current schema and
/// fold them into one Filter.
fn attach_ready_filters(plan: RelPlan, pending: &mut Vec<SqlExpr>) -> Result<RelPlan, DbError> {
    let schema = plan.schema().clone();
    let mut bound: Vec<Expr> = Vec::new();
    pending.retain(|c| {
        let mut b = Binder::new(&schema);
        match b.bind(c) {
            Ok(e) if b.aggregates.is_empty() => {
                bound.push(e);
                false
            }
            _ => true,
        }
    });
    let Some(pred) = bound.into_iter().reduce(|a, b| Expr::Binary {
        op: BinOp::And,
        left: Box::new(a),
        right: Box::new(b),
    }) else {
        return Ok(plan);
    };
    Ok(RelPlan::Filter {
        input: Box::new(plan),
        predicate: pred,
    })
}

/// If a pending conjunct is `col = constant-expr` and an index exists on
/// that column, build an IndexScan (consuming the conjunct).
fn try_index_scan(
    catalog: &Catalog,
    table: &str,
    schema: &BoundSchema,
    pending: &mut Vec<SqlExpr>,
) -> Option<RelPlan> {
    let empty = BoundSchema::default();
    let mut found: Option<(usize, String, Expr)> = None;
    'outer: for (i, c) in pending.iter().enumerate() {
        let SqlExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, key_side) in [(left, right), (right, left)] {
            let SqlExpr::Column { qualifier, name } = col_side.as_ref() else {
                continue;
            };
            let Ok(col) = schema.resolve(qualifier.as_deref(), name) else {
                continue;
            };
            // Key must be evaluable without any row.
            let mut kb = Binder::new(&empty);
            let Ok(key) = kb.bind(key_side) else {
                continue;
            };
            if !kb.aggregates.is_empty() {
                continue;
            }
            if let Some(entry) = catalog.index_on(table, col) {
                found = Some((i, entry.name.clone(), key));
                break 'outer;
            }
        }
    }
    found.map(|(i, index, key)| {
        pending.remove(i);
        RelPlan::IndexScan {
            table: table.to_owned(),
            index,
            key,
            schema: schema.clone(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "names",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("pname", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "aux",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("qgram", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            c.insert_row("names", vec![Value::Int(i), Value::from("x")])
                .unwrap();
        }
        c.create_index("ix_names_id", "names", "id").unwrap();
        c
    }

    fn plan_of(c: &Catalog, sql: &str) -> RelPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!("expected select")
        };
        plan_relational(c, &sel).unwrap()
    }

    #[test]
    fn single_table_scan() {
        let c = catalog();
        let p = plan_of(&c, "SELECT pname FROM names");
        assert_eq!(p.describe(), "Scan(NAMES)");
    }

    #[test]
    fn filter_pushed_onto_scan() {
        let c = catalog();
        let p = plan_of(&c, "SELECT pname FROM names WHERE pname = 'x'");
        assert_eq!(p.describe(), "Filter(Scan(NAMES))");
    }

    #[test]
    fn index_scan_chosen_for_indexed_equality() {
        let c = catalog();
        let p = plan_of(&c, "SELECT pname FROM names WHERE id = 7");
        assert!(
            p.describe().starts_with("IndexScan"),
            "got {}",
            p.describe()
        );
        // And with extra residual predicates, filter goes on top.
        let p = plan_of(&c, "SELECT pname FROM names WHERE id = 7 AND pname = 'x'");
        assert_eq!(p.describe(), "Filter(IndexScan(NAMES via ix_names_id))");
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let c = catalog();
        let p = plan_of(&c, "SELECT n.pname FROM names n, aux a WHERE n.id = a.id");
        assert_eq!(p.describe(), "HashJoin(Scan(NAMES), Scan(AUX))");
    }

    #[test]
    fn non_equi_join_is_nested_loop_with_filter() {
        let c = catalog();
        let p = plan_of(&c, "SELECT n.pname FROM names n, aux a WHERE n.id < a.id");
        assert_eq!(p.describe(), "Filter(NestedLoop(Scan(NAMES), Scan(AUX)))");
    }

    #[test]
    fn aggregates_in_where_rejected() {
        let c = catalog();
        let Statement::Select(sel) = parse("SELECT id FROM names WHERE COUNT(*) > 1").unwrap()
        else {
            panic!("expected select")
        };
        assert!(plan_relational(&c, &sel).is_err());
    }

    #[test]
    fn unknown_column_is_reported() {
        let c = catalog();
        let Statement::Select(sel) = parse("SELECT id FROM names WHERE zzz = 1").unwrap() else {
            panic!("expected select")
        };
        assert!(matches!(
            plan_relational(&c, &sel),
            Err(DbError::NoSuchColumn(_))
        ));
    }
}
