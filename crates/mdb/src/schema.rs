//! Table schemas.

use crate::error::DbError;
use crate::value::DataType;

/// One column: a (lower-cased) name and a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, stored lower-case (identifiers are case-insensitive).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Column {
    /// Create a column (name is lower-cased).
    pub fn new(name: &str, ty: DataType) -> Self {
        Column {
            name: name.to_ascii_lowercase(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema; column names must be unique (case-insensitive).
    pub fn new(columns: Vec<Column>) -> Result<Self, DbError> {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                if a.name == b.name {
                    return Err(DbError::SchemaMismatch(format!(
                        "duplicate column {}",
                        a.name
                    )));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let s = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::new("PName", DataType::Text),
        ])
        .unwrap();
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("pname"), Some(1));
        assert_eq!(s.index_of("PNAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.arity(), 2);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("A", DataType::Text),
        ]);
        assert!(err.is_err());
    }
}
