//! The executor: materialized evaluation of plans and SELECT pipelines.

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::expr::{checked, Binder, BoundAggregate, EvalCtx, Expr};
use crate::plan::{plan_relational, RelPlan};
use crate::row::Row;
use crate::sql::ast::{Aggregate, Select, SelectItem, SqlExpr};
use crate::stats::Stats;
use crate::udf::UdfRegistry;
use crate::value::Value;
use std::collections::HashMap;

/// Query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

/// Everything an execution needs.
pub struct ExecContext<'a> {
    /// Tables and indexes.
    pub catalog: &'a Catalog,
    /// Registered scalar UDFs.
    pub udfs: &'a UdfRegistry,
    /// Statistics sink.
    pub stats: &'a Stats,
}

impl ExecContext<'_> {
    fn eval(&self, e: &Expr, row: &[Value], aggs: Option<&[Value]>) -> Result<Value, DbError> {
        e.eval(&EvalCtx {
            row,
            udfs: self.udfs,
            aggs,
            stats: self.stats,
        })
    }

    /// Execute a relational plan to a row vector.
    pub fn run_rel(&self, plan: &RelPlan) -> Result<Vec<Row>, DbError> {
        match plan {
            RelPlan::Scan { table, .. } => {
                let t = self.catalog.table(table)?;
                self.stats.record_scan(t.len() as u64);
                Ok(t.scan().map(|(_, row)| row.clone()).collect())
            }
            RelPlan::IndexScan {
                table, index, key, ..
            } => {
                let t = self.catalog.table(table)?;
                let entry = self.catalog.index(index)?;
                let k = self.eval(key, &[], None)?;
                self.stats.record_index_lookup();
                let rids = entry.postings.get(&k).map_or(&[][..], Vec::as_slice);
                Ok(rids.iter().map(|&rid| t.row(rid).clone()).collect())
            }
            RelPlan::Filter { input, predicate } => {
                let rows = self.run_rel(input)?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if self.eval(predicate, &row, None)?.truthy() {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            RelPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                let left_rows = self.run_rel(left)?;
                let right_rows = self.run_rel(right)?;
                // Build on the smaller side.
                let (build_rows, probe_rows, build_key, probe_key, build_is_left) =
                    if left_rows.len() <= right_rows.len() {
                        (&left_rows, &right_rows, left_key, right_key, true)
                    } else {
                        (&right_rows, &left_rows, right_key, left_key, false)
                    };
                let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
                for (i, row) in build_rows.iter().enumerate() {
                    let k = self.eval(build_key, row, None)?;
                    if k.is_null() {
                        continue; // NULL never joins
                    }
                    table.entry(k).or_default().push(i);
                }
                let mut out = Vec::new();
                for probe in probe_rows {
                    let k = self.eval(probe_key, probe, None)?;
                    if k.is_null() {
                        continue;
                    }
                    if let Some(matches) = table.get(&k) {
                        for &bi in matches {
                            self.stats.record_join(1);
                            let build = &build_rows[bi];
                            let mut row = Vec::with_capacity(build.len() + probe.len());
                            if build_is_left {
                                row.extend_from_slice(build);
                                row.extend_from_slice(probe);
                            } else {
                                row.extend_from_slice(probe);
                                row.extend_from_slice(build);
                            }
                            out.push(row);
                        }
                    }
                }
                Ok(out)
            }
            RelPlan::NestedLoop { left, right, .. } => {
                let left_rows = self.run_rel(left)?;
                let right_rows = self.run_rel(right)?;
                let mut out = Vec::new();
                for l in &left_rows {
                    for r in &right_rows {
                        self.stats.record_join(1);
                        let mut row = Vec::with_capacity(l.len() + r.len());
                        row.extend_from_slice(l);
                        row.extend_from_slice(r);
                        out.push(row);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Execute a full SELECT.
    pub fn run_select(&self, select: &Select) -> Result<ResultSet, DbError> {
        let rel = plan_relational(self.catalog, select)?;
        let rows = self.run_rel(&rel)?;
        let schema = rel.schema().clone();

        // Bind everything downstream with one shared binder so aggregate
        // slots line up across HAVING / projection / ORDER BY.
        let mut binder = Binder::new(&schema);
        let group_keys: Vec<Expr> = select
            .group_by
            .iter()
            .map(|g| binder.bind(g))
            .collect::<Result<_, _>>()?;
        let having: Option<Expr> = match &select.having {
            Some(h) => Some(binder.bind(h)?),
            None => None,
        };
        let mut out_names: Vec<String> = Vec::new();
        let mut out_exprs: Vec<Expr> = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, (_, name)) in schema.columns.iter().enumerate() {
                        out_names.push(name.to_lowercase());
                        out_exprs.push(Expr::Column(i));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    out_names.push(match alias {
                        Some(a) => a.to_lowercase(),
                        None => default_name(expr),
                    });
                    out_exprs.push(binder.bind(expr)?);
                }
            }
        }
        let order_keys: Vec<(Expr, bool)> = select
            .order_by
            .iter()
            .map(|o| Ok((binder.bind(&o.expr)?, o.asc)))
            .collect::<Result<_, DbError>>()?;
        let aggregates = binder.aggregates;

        let grouped = !select.group_by.is_empty() || !aggregates.is_empty();
        // Each output unit: (representative row, aggregate values).
        let units: Vec<(Row, Vec<Value>)> = if grouped {
            self.group(rows, &group_keys, &aggregates)?
        } else {
            rows.into_iter().map(|r| (r, Vec::new())).collect()
        };

        // HAVING.
        let mut units = units;
        if let Some(h) = &having {
            let mut kept = Vec::with_capacity(units.len());
            for (row, aggs) in units {
                if self.eval(h, &row, Some(&aggs))?.truthy() {
                    kept.push((row, aggs));
                }
            }
            units = kept;
        }

        // ORDER BY.
        type KeyedUnit = (Vec<Value>, (Row, Vec<Value>));
        if !order_keys.is_empty() {
            let mut keyed: Vec<KeyedUnit> = Vec::with_capacity(units.len());
            for unit in units {
                let mut ks = Vec::with_capacity(order_keys.len());
                for (e, _) in &order_keys {
                    ks.push(self.eval(e, &unit.0, Some(&unit.1))?);
                }
                keyed.push((ks, unit));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, asc)) in order_keys.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            units = keyed.into_iter().map(|(_, u)| u).collect();
        }

        // Projection.
        let mut out_rows = Vec::with_capacity(units.len());
        for (row, aggs) in &units {
            let mut out = Vec::with_capacity(out_exprs.len());
            for e in &out_exprs {
                out.push(self.eval(e, row, Some(aggs))?);
            }
            out_rows.push(out);
        }
        Ok(ResultSet {
            columns: out_names,
            rows: out_rows,
        })
    }

    /// Group rows and compute aggregates per group.
    fn group(
        &self,
        rows: Vec<Row>,
        keys: &[Expr],
        aggregates: &[BoundAggregate],
    ) -> Result<Vec<(Row, Vec<Value>)>, DbError> {
        // No GROUP BY but aggregates present: one global group (even if
        // empty, per SQL semantics for COUNT).
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
        for row in rows {
            let mut k = Vec::with_capacity(keys.len());
            for e in keys {
                k.push(self.eval(e, &row, None)?);
            }
            if !groups.contains_key(&k) {
                order.push(k.clone());
            }
            groups.entry(k).or_default().push(row);
        }
        if keys.is_empty() && groups.is_empty() {
            groups.insert(Vec::new(), Vec::new());
            order.push(Vec::new());
        }
        let mut out = Vec::with_capacity(order.len());
        for k in order {
            let members = groups.remove(&k).expect("group recorded");
            let mut aggs = Vec::with_capacity(aggregates.len());
            for a in aggregates {
                aggs.push(self.aggregate(a, &members)?);
            }
            // Representative row: the first member, or an all-NULL row for
            // the empty global group.
            let rep = members.into_iter().next().unwrap_or_default();
            out.push((rep, aggs));
        }
        Ok(out)
    }

    fn aggregate(&self, agg: &BoundAggregate, rows: &[Row]) -> Result<Value, DbError> {
        let vals = |arg: &Expr| -> Result<Vec<Value>, DbError> {
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let v = self.eval(arg, r, None)?;
                if !v.is_null() {
                    out.push(v);
                }
            }
            Ok(out)
        };
        Ok(match (&agg.agg, &agg.arg) {
            (Aggregate::Count, None) => Value::Int(rows.len() as i64),
            (Aggregate::Count, Some(a)) => Value::Int(vals(a)?.len() as i64),
            (Aggregate::Sum, Some(a)) => {
                let vs = vals(a)?;
                if vs.is_empty() {
                    Value::Null
                } else if vs.iter().all(|v| matches!(v, Value::Int(_))) {
                    let sum = vs
                        .iter()
                        .try_fold(0i64, |s, v| s.checked_add(v.as_i64().expect("int")));
                    checked(sum, || format!("SUM over {} rows", vs.len()))?
                } else {
                    let mut s = 0.0;
                    for v in &vs {
                        s += v.as_f64()?;
                    }
                    Value::Float(s)
                }
            }
            (Aggregate::Min, Some(a)) => vals(a)?.into_iter().min().unwrap_or(Value::Null),
            (Aggregate::Max, Some(a)) => vals(a)?.into_iter().max().unwrap_or(Value::Null),
            (Aggregate::Avg, Some(a)) => {
                let vs = vals(a)?;
                if vs.is_empty() {
                    Value::Null
                } else {
                    let mut s = 0.0;
                    for v in &vs {
                        s += v.as_f64()?;
                    }
                    Value::Float(s / vs.len() as f64)
                }
            }
            (_, None) => return Err(DbError::Type("aggregate needs an argument".into())),
        })
    }
}

/// Default output column name for an unaliased projection.
fn default_name(e: &SqlExpr) -> String {
    match e {
        SqlExpr::Column { name, .. } => name.to_lowercase(),
        SqlExpr::AggregateCall { agg, .. } => match agg {
            Aggregate::Count => "count".into(),
            Aggregate::Sum => "sum".into(),
            Aggregate::Min => "min".into(),
            Aggregate::Max => "max".into(),
            Aggregate::Avg => "avg".into(),
        },
        SqlExpr::Call { name, .. } => name.to_lowercase(),
        _ => "expr".into(),
    }
}
