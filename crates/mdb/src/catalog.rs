//! The catalog: named tables and their indexes.

use crate::btree::BTreeIndex;
use crate::error::DbError;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::HashMap;

/// Metadata + structure for one secondary index.
#[derive(Debug)]
pub struct IndexEntry {
    /// Index name (lower-cased).
    pub name: String,
    /// Indexed table (lower-cased).
    pub table: String,
    /// Indexed column position in the table schema.
    pub column: usize,
    /// The B-tree itself.
    pub btree: BTreeIndex,
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

    /// Get a table mutably. Note: mutating a table invalidates its indexes
    /// only in the sense of missing new rows; use
    /// [`Catalog::insert_row`](Self::insert_row) to keep them in sync.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Insert a row, maintaining all indexes on the table.
    pub fn insert_row(&mut self, table: &str, row: crate::row::Row) -> Result<(), DbError> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        let rid = t.insert(row)?;
        let stored = t.row(rid).expect("just inserted").clone();
        for idx in self.indexes.values_mut() {
            if idx.table == key {
                idx.btree.insert(stored[idx.column].clone(), rid);
            }
        }
        Ok(())
    }

    /// Insert a batch of rows, maintaining all indexes on the table.
    ///
    /// One table lookup and one index scan per *batch* instead of per row
    /// — and index maintenance clones only the indexed column values, not
    /// whole rows. Returns the number of rows inserted; a bad row aborts
    /// the whole batch before anything is stored.
    pub fn insert_rows(
        &mut self,
        table: &str,
        rows: Vec<crate::row::Row>,
    ) -> Result<usize, DbError> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        let range = t.insert_many(rows)?;
        let inserted = range.len();
        for idx in self.indexes.values_mut() {
            if idx.table == key {
                for rid in range.clone() {
                    let stored = t.row(rid).expect("just inserted");
                    idx.btree.insert(stored[idx.column].clone(), rid);
                }
            }
        }
        Ok(inserted)
    }

    /// Tombstone a row. Index entries pointing at it become stale; every
    /// reader resolves ids through [`Table::row`], which filters them.
    pub fn delete_row(&mut self, table: &str, rid: crate::row::RowId) -> Result<bool, DbError> {
        let t = self.table_mut(table)?;
        Ok(t.delete(rid))
    }

    /// Update a row: tombstone the old version and insert the new one
    /// (secondary indexes pick up the new id on insert).
    pub fn update_row(
        &mut self,
        table: &str,
        rid: crate::row::RowId,
        new_row: crate::row::Row,
    ) -> Result<(), DbError> {
        let key = table.to_ascii_lowercase();
        {
            let t = self.table_mut(&key)?;
            if !t.delete(rid) {
                return Err(DbError::SchemaMismatch(format!(
                    "update of missing row {rid} in {key}"
                )));
            }
        }
        self.insert_row(&key, new_row)
    }

    /// Create a B-tree index over `table(column)` and bulk-load existing rows.
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
        let mut btree = BTreeIndex::new();
        for (rid, v) in t.column_values(col) {
            btree.insert(v.clone(), rid);
        }
        self.indexes.insert(
            key.clone(),
            IndexEntry {
                name: key,
                table: table.to_ascii_lowercase(),
                column: col,
                btree,
            },
        );
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
        assert_eq!(
            c.index("ix_id").unwrap().btree.lookup(&Value::Int(7)),
            vec![7]
        );
        // Maintained on subsequent insert:
        c.insert_row("names", vec![Value::Int(7), Value::from("y")])
            .unwrap();
        let mut hits = c.index("ix_id").unwrap().btree.lookup(&Value::Int(7));
        hits.sort_unstable();
        assert_eq!(hits, vec![7, 10]);
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
            let mut ha = a.index("ix_id").unwrap().btree.lookup(&Value::Int(key));
            let mut hb = b.index("ix_id").unwrap().btree.lookup(&Value::Int(key));
            ha.sort_unstable();
            hb.sort_unstable();
            assert_eq!(ha, hb, "key {key}");
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
