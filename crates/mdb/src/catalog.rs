//! The catalog: named tables and their indexes.

use crate::error::DbError;
use crate::row::{Row, RowId};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Metadata + structure for one secondary index.
#[derive(Debug)]
pub struct IndexEntry {
    /// Index name (lower-cased).
    pub name: String,
    /// Indexed table (lower-cased).
    pub table: String,
    /// Indexed column position in the table schema.
    pub column: usize,
    /// Each column value's row ids, in insertion order.
    pub postings: BTreeMap<Value, Vec<RowId>>,
}

impl IndexEntry {
    /// Post rows `rids` of `table` under their column values.
    fn add(&mut self, table: &Table, rids: Range<RowId>) {
        for rid in rids {
            let key = table.row(rid)[self.column].clone();
            self.postings.entry(key).or_default().push(rid);
        }
    }
}

/// All tables and indexes of a database.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    indexes: HashMap<String, IndexEntry>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(DbError::AlreadyExists(key));
        }
        self.tables.insert(key.clone(), Table::new(&key, schema));
        Ok(())
    }

    /// Get a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Insert a row, maintaining all indexes on the table.
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<(), DbError> {
        self.insert_rows(table, vec![row]).map(drop)
    }

    /// Insert a batch of rows, maintaining all indexes on the table.
    ///
    /// One table lookup and one index scan per *batch* instead of per row
    /// — and index maintenance clones only the indexed column values, not
    /// whole rows. Returns the number of rows inserted; a bad row aborts
    /// the whole batch before anything is stored.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize, DbError> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        let range = t.insert_many(rows)?;
        for idx in self.indexes.values_mut().filter(|idx| idx.table == key) {
            idx.add(t, range.clone());
        }
        Ok(range.len())
    }

    /// Create an index over `table(column)` and load the rows it holds.
    pub fn create_index(&mut self, name: &str, table: &str, column: &str) -> Result<(), DbError> {
        let key = name.to_ascii_lowercase();
        if self.indexes.contains_key(&key) {
            return Err(DbError::AlreadyExists(key));
        }
        let t = self.table(table)?;
        let col = t
            .schema()
            .index_of(column)
            .ok_or_else(|| DbError::NoSuchColumn(column.to_owned()))?;
        let mut index = IndexEntry {
            name: key.clone(),
            table: table.to_ascii_lowercase(),
            column: col,
            postings: BTreeMap::new(),
        };
        index.add(t, 0..t.len());
        self.indexes.insert(key, index);
        Ok(())
    }

    /// Find an index on `table(column)` if one exists.
    pub fn index_on(&self, table: &str, column: usize) -> Option<&IndexEntry> {
        let table = table.to_ascii_lowercase();
        self.indexes
            .values()
            .find(|ix| ix.table == table && ix.column == column)
    }

    /// Get an index by name.
    pub fn index(&self, name: &str) -> Result<&IndexEntry, DbError> {
        self.indexes
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::NoSuchIndex(name.to_owned()))
    }

    /// All table names (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "names",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn create_and_lookup() {
        let c = catalog();
        assert!(c.table("NAMES").is_ok());
        assert!(c.table("nope").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = catalog();
        assert!(matches!(
            c.create_table("NAMES", Schema::default()),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn index_bulk_load_and_maintenance() {
        let mut c = catalog();
        for i in 0..10 {
            c.insert_row("names", vec![Value::Int(i), Value::from("x")])
                .unwrap();
        }
        c.create_index("ix_id", "names", "id").unwrap();
        // Bulk-loaded entries:
        assert_eq!(c.index("ix_id").unwrap().postings[&Value::Int(7)], vec![7]);
        // Maintained on subsequent insert:
        c.insert_row("names", vec![Value::Int(7), Value::from("y")])
            .unwrap();
        assert_eq!(
            c.index("ix_id").unwrap().postings[&Value::Int(7)],
            vec![7, 10]
        );
        // index_on finds it by (table, column).
        assert!(c.index_on("names", 0).is_some());
        assert!(c.index_on("names", 1).is_none());
    }

    #[test]
    fn bulk_insert_matches_row_at_a_time_and_maintains_indexes() {
        let mut a = catalog();
        let mut b = catalog();
        a.create_index("ix_id", "names", "id").unwrap();
        b.create_index("ix_id", "names", "id").unwrap();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Int(i % 5), Value::from(format!("n{i}"))])
            .collect();
        for r in rows.clone() {
            a.insert_row("names", r).unwrap();
        }
        assert_eq!(b.insert_rows("NAMES", rows).unwrap(), 20);
        assert_eq!(
            a.table("names").unwrap().len(),
            b.table("names").unwrap().len()
        );
        for key in 0..5 {
            let key = Value::Int(key);
            let (ha, hb) = (a.index("ix_id").unwrap(), b.index("ix_id").unwrap());
            assert_eq!(ha.postings[&key], hb.postings[&key], "key {key}");
        }
    }

    #[test]
    fn bulk_insert_is_all_or_nothing() {
        let mut c = catalog();
        let rows = vec![
            vec![Value::Int(1), Value::from("ok")],
            vec![Value::Int(2)], // wrong arity
        ];
        assert!(c.insert_rows("names", rows).is_err());
        assert!(c.table("names").unwrap().is_empty());
        assert!(c.insert_rows("missing", vec![]).is_err());
    }

    #[test]
    fn index_on_missing_column_fails() {
        let mut c = catalog();
        assert!(c.create_index("ix", "names", "zzz").is_err());
        assert!(c.create_index("ix", "missing_table", "id").is_err());
    }
}
