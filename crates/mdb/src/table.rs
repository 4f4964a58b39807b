//! Heap tables.

use crate::error::DbError;
use crate::row::{Row, RowId};
use crate::schema::Schema;
use std::ops::Range;

/// A heap table: a schema plus an append-only row store. Row ids are
/// heap positions; a row never changes once stored.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: &str, schema: Schema) -> Self {
        Table {
            name: name.to_ascii_lowercase(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Table name (lower-cased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a batch of rows, returning the contiguous row-id range
    /// assigned. Every row's arity is checked and its values coerced to
    /// the column types *before* any is stored, so a bad row leaves the
    /// table unchanged.
    pub fn insert_many(&mut self, rows: Vec<Row>) -> Result<Range<RowId>, DbError> {
        let mut coerced_rows = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != self.schema.arity() {
                return Err(DbError::SchemaMismatch(format!(
                    "table {} expects {} columns, got {}",
                    self.name,
                    self.schema.arity(),
                    row.len()
                )));
            }
            let mut coerced = Vec::with_capacity(row.len());
            for (v, col) in row.into_iter().zip(self.schema.columns()) {
                coerced.push(v.coerce(col.ty)?);
            }
            coerced_rows.push(coerced);
        }
        let start = self.rows.len();
        self.rows.extend(coerced_rows);
        Ok(start..self.rows.len())
    }

    /// The row with id `rid`.
    ///
    /// # Panics
    ///
    /// Panics if no row has that id.
    pub fn row(&self, rid: RowId) -> &Row {
        &self.rows[rid]
    }

    /// Iterate rows with their ids.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn table() -> Table {
        Table::new(
            "T",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("price", DataType::Float),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn insert_validates_arity() {
        let mut t = table();
        assert!(t.insert_many(vec![vec![Value::Int(1)]]).is_err());
        let rids = t
            .insert_many(vec![vec![Value::Int(1), Value::from("x"), Value::Int(2)]])
            .unwrap();
        assert_eq!(rids, 0..1);
        // Int coerced into Float column.
        assert_eq!(t.row(0)[2], Value::Float(2.0));
    }

    #[test]
    fn insert_rejects_bad_types() {
        let mut t = table();
        let err = t.insert_many(vec![vec![
            Value::from("x"),
            Value::from("y"),
            Value::Float(1.0),
        ]]);
        assert!(err.is_err());
    }

    #[test]
    fn scan_yields_rows_in_insertion_order() {
        let mut t = table();
        for i in 0..5 {
            t.insert_many(vec![vec![
                Value::Int(i),
                Value::from("n"),
                Value::Float(0.0),
            ]])
            .unwrap();
        }
        let ids: Vec<RowId> = t.scan().map(|(rid, _)| rid).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.name(), "t");
    }
}
