//! Recursive-descent parser for the SQL subset.

use crate::error::DbError;
use crate::sql::ast::*;
use crate::sql::lexer::{lex, Token};
use crate::value::DataType;

/// Keywords of SQL this engine refuses: none of the paper's queries
/// uses them.
const UNSUPPORTED: [&str; 7] = [
    "DELETE", "UPDATE", "DISTINCT", "LIMIT", "IN", "BETWEEN", "LIKE",
];

/// Parse one SQL statement.
pub fn parse(input: &str) -> Result<Statement, DbError> {
    let tokens = lex(input)?;
    for t in &tokens {
        if let Some(kw) = UNSUPPORTED.into_iter().find(|kw| t.is_kw(kw)) {
            return Err(DbError::Unsupported(format!(
                "{kw} is outside the SQL subset"
            )));
        }
    }
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(DbError::Parse(format!(
            "trailing input at token {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), DbError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {sym:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, DbError> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w),
            other => Err(DbError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement, DbError> {
        if self.eat_kw("EXPLAIN") {
            self.expect_kw("SELECT")?;
            return Ok(Statement::Explain(self.select_body()?));
        }
        if self.eat_kw("SELECT") {
            return Ok(Statement::Select(self.select_body()?));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            if self.eat_kw("INDEX") {
                return self.create_index();
            }
            return Err(DbError::Parse(
                "expected TABLE or INDEX after CREATE".into(),
            ));
        }
        Err(DbError::Parse(format!(
            "expected SELECT/INSERT/CREATE, found {:?}",
            self.peek()
        )))
    }

    fn select_body(&mut self) -> Result<Select, DbError> {
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else if let Some(Token::Word(w)) = self.peek() {
                    // bare alias, but not a clause keyword
                    const CLAUSES: &[&str] = &["FROM", "WHERE", "GROUP", "HAVING", "ORDER"];
                    if CLAUSES.contains(&w.as_str()) {
                        None
                    } else {
                        Some(self.ident()?)
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.ident()?;
            let alias = if let Some(Token::Word(w)) = self.peek() {
                const CLAUSES: &[&str] = &["WHERE", "GROUP", "HAVING", "ORDER"];
                if CLAUSES.contains(&w.as_str()) {
                    table.clone()
                } else {
                    self.ident()?
                }
            } else {
                table.clone()
            };
            from.push((table, alias));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderBy { expr, asc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        Ok(Select {
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
        })
    }

    fn insert(&mut self) -> Result<Statement, DbError> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal(&mut self) -> Result<Literal, DbError> {
        let neg = self.eat_sym("-");
        let lit = match self.next() {
            Some(Token::Int(i)) => Literal::Int(if neg { -i } else { i }),
            Some(Token::Float(f)) => Literal::Float(if neg { -f } else { f }),
            Some(Token::Str(s)) if !neg => Literal::Str(s),
            Some(Token::Word(w)) if !neg && w == "NULL" => Literal::Null,
            Some(Token::Word(w)) if !neg && w == "TRUE" => Literal::Bool(true),
            Some(Token::Word(w)) if !neg && w == "FALSE" => Literal::Bool(false),
            other => return Err(DbError::Parse(format!("expected literal, found {other:?}"))),
        };
        Ok(lit)
    }

    fn create_table(&mut self) -> Result<Statement, DbError> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_word = self.ident()?;
            let ty = match ty_word.as_str() {
                "INT" | "INTEGER" | "BIGINT" => DataType::Int,
                "FLOAT" | "REAL" | "DOUBLE" => DataType::Float,
                "TEXT" | "VARCHAR" | "STRING" => DataType::Text,
                "BOOL" | "BOOLEAN" => DataType::Bool,
                other => return Err(DbError::Parse(format!("unknown type {other}"))),
            };
            // Tolerate VARCHAR(80)-style length suffixes.
            if self.eat_sym("(") {
                self.next();
                self.expect_sym(")")?;
            }
            columns.push((col, ty));
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> Result<Statement, DbError> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym("(")?;
        let column = self.ident()?;
        self.expect_sym(")")?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<SqlExpr, DbError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = SqlExpr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = SqlExpr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, DbError> {
        if self.eat_kw("NOT") {
            let operand = self.not_expr()?;
            return Ok(SqlExpr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<SqlExpr, DbError> {
        let left = self.additive()?;
        // The LexEQUAL extension sits at comparison precedence.
        if self.eat_kw("LEXEQUAL") {
            let right = self.additive()?;
            self.expect_kw("THRESHOLD")?;
            let threshold = self.additive()?;
            let languages = if self.eat_kw("INLANGUAGES") {
                if self.eat_sym("*") {
                    None
                } else {
                    self.expect_sym("{")?;
                    let mut langs = Vec::new();
                    loop {
                        langs.push(self.ident()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                    self.expect_sym("}")?;
                    Some(langs)
                }
            } else {
                None
            };
            return Ok(SqlExpr::LexEqual {
                left: Box::new(left),
                right: Box::new(right),
                threshold: Box::new(threshold),
                languages,
            });
        }
        let op = match self.peek() {
            Some(Token::Sym("=")) => Some(BinOp::Eq),
            Some(Token::Sym("<>")) | Some(Token::Sym("!=")) => Some(BinOp::Ne),
            Some(Token::Sym("<")) => Some(BinOp::Lt),
            Some(Token::Sym("<=")) => Some(BinOp::Le),
            Some(Token::Sym(">")) => Some(BinOp::Gt),
            Some(Token::Sym(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<SqlExpr, DbError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("+")) => BinOp::Add,
                Some(Token::Sym("-")) => BinOp::Sub,
                Some(Token::Sym("||")) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr, DbError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("*")) => BinOp::Mul,
                Some(Token::Sym("/")) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<SqlExpr, DbError> {
        if self.eat_sym("-") {
            let operand = self.unary()?;
            return Ok(SqlExpr::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr, DbError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(SqlExpr::Literal(Literal::Int(i))),
            Some(Token::Float(f)) => Ok(SqlExpr::Literal(Literal::Float(f))),
            Some(Token::Str(s)) => Ok(SqlExpr::Literal(Literal::Str(s))),
            Some(Token::Sym("(")) => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Token::Word(w)) => self.word_expr(w),
            other => Err(DbError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn word_expr(&mut self, word: String) -> Result<SqlExpr, DbError> {
        match word.as_str() {
            "NULL" => return Ok(SqlExpr::Literal(Literal::Null)),
            "TRUE" => return Ok(SqlExpr::Literal(Literal::Bool(true))),
            "FALSE" => return Ok(SqlExpr::Literal(Literal::Bool(false))),
            _ => {}
        }
        // Function / aggregate call?
        if matches!(self.peek(), Some(Token::Sym("("))) {
            self.pos += 1;
            let agg = match word.as_str() {
                "COUNT" => Some(Aggregate::Count),
                "SUM" => Some(Aggregate::Sum),
                "MIN" => Some(Aggregate::Min),
                "MAX" => Some(Aggregate::Max),
                "AVG" => Some(Aggregate::Avg),
                _ => None,
            };
            if let Some(agg) = agg {
                if self.eat_sym("*") {
                    self.expect_sym(")")?;
                    if agg != Aggregate::Count {
                        return Err(DbError::Parse("only COUNT(*) takes *".into()));
                    }
                    return Ok(SqlExpr::AggregateCall { agg, arg: None });
                }
                let arg = self.expr()?;
                self.expect_sym(")")?;
                return Ok(SqlExpr::AggregateCall {
                    agg,
                    arg: Some(Box::new(arg)),
                });
            }
            let mut args = Vec::new();
            if !self.eat_sym(")") {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
            }
            return Ok(SqlExpr::Call { name: word, args });
        }
        // Qualified column?
        if self.eat_sym(".") {
            let name = self.ident()?;
            return Ok(SqlExpr::Column {
                qualifier: Some(word),
                name,
            });
        }
        Ok(SqlExpr::Column {
            qualifier: None,
            name: word,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let s = parse("SELECT author, title FROM books WHERE price < 50").unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select");
        };
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.from, vec![("BOOKS".into(), "BOOKS".into())]);
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn aliases_and_joins() {
        let s =
            parse("SELECT B1.Author FROM Books B1, Books B2 WHERE B1.Author = B2.Author").unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select");
        };
        assert_eq!(
            sel.from,
            vec![("BOOKS".into(), "B1".into()), ("BOOKS".into(), "B2".into())]
        );
    }

    #[test]
    fn lexequal_selection_syntax_from_figure3() {
        let s = parse(
            "select Author, Title from Books \
             where Author LexEQUAL 'Nehru' Threshold 0.25 \
             inlanguages { English, Hindi, Tamil, Greek }",
        )
        .unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select");
        };
        let Some(SqlExpr::LexEqual {
            threshold,
            languages,
            ..
        }) = sel.where_clause
        else {
            panic!("expected LexEQUAL predicate, got {:?}", sel.where_clause);
        };
        assert_eq!(*threshold, SqlExpr::Literal(Literal::Float(0.25)));
        assert_eq!(
            languages,
            Some(vec![
                "ENGLISH".into(),
                "HINDI".into(),
                "TAMIL".into(),
                "GREEK".into()
            ])
        );
    }

    #[test]
    fn lexequal_join_syntax_from_figure5() {
        let s = parse(
            "select B1.Author from Books B1, Books B2 \
             where B1.Author LexEQUAL B2.Author Threshold 0.25 \
             and B1.Language <> B2.Language",
        )
        .unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select");
        };
        // The top of the WHERE tree is AND(LexEQUAL, <>).
        let Some(SqlExpr::Binary {
            op: BinOp::And,
            left,
            ..
        }) = sel.where_clause
        else {
            panic!("expected AND");
        };
        assert!(matches!(*left, SqlExpr::LexEqual { .. }));
    }

    #[test]
    fn lexequal_wildcard_languages() {
        let s = parse("SELECT a FROM t WHERE a LEXEQUAL 'x' THRESHOLD 0.3 INLANGUAGES *").unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select")
        };
        let Some(SqlExpr::LexEqual { languages, .. }) = sel.where_clause else {
            panic!("expected lexequal")
        };
        assert_eq!(languages, None);
    }

    #[test]
    fn group_by_having_with_aggregates() {
        let s = parse(
            "SELECT n.id, COUNT(*) FROM names n GROUP BY n.id \
             HAVING COUNT(*) >= 3 AND MIN(n.len) > 2 ORDER BY n.id DESC",
        )
        .unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select")
        };
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(!sel.order_by[0].asc);
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse("SELECT 1 + 2 * 3 FROM t").unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select")
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!("expected expr item")
        };
        // 1 + (2*3)
        let SqlExpr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = expr
        else {
            panic!("expected +: {expr:?}")
        };
        assert!(matches!(**right, SqlExpr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn insert_and_ddl() {
        let s = parse("INSERT INTO t VALUES (1, 'x', 2.5), (2, 'y', -1.0)").unwrap();
        let Statement::Insert { rows, .. } = s else {
            panic!("expected insert")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][2], Literal::Float(-1.0));

        let s = parse("CREATE TABLE t (id INT, name VARCHAR(80), price FLOAT)").unwrap();
        let Statement::CreateTable { columns, .. } = s else {
            panic!("expected create table")
        };
        assert_eq!(columns.len(), 3);
        assert_eq!(columns[1].1, DataType::Text);

        let s = parse("CREATE INDEX ix ON t (name)").unwrap();
        assert!(matches!(s, Statement::CreateIndex { .. }));
    }

    #[test]
    fn unsupported_junk_is_rejected() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t extra garbage ;").is_err());
    }

    #[test]
    fn paper_figure14_qgram_sql_parses() {
        // The full q-gram filter query from the paper (Figure 14),
        // adapted to the engine's function names.
        let sql = "
            SELECT N.ID, N.PName
            FROM Names N, AuxNames AN, Query Q, AuxQuery AQ
            WHERE N.ID = AN.ID
              AND Q.ID = AQ.ID
              AND AN.Qgram = AQ.Qgram
              AND ABS(LEN(N.PName) - LEN(Q.Str)) <= 0.25 * LEN(Q.Str)
              AND ABS(AN.Pos - AQ.Pos) <= 0.25 * LEN(Q.Str)
            GROUP BY N.ID, N.PName
            HAVING COUNT(*) >= LEN(N.PName) - 1 - (0.25 * LEN(N.PName) - 1) * 3
               AND LEXEQUAL(N.PName, MIN(Q.Str), 0.25)";
        let s = parse(sql).unwrap();
        let Statement::Select(sel) = s else {
            panic!("expected select")
        };
        assert_eq!(sel.from.len(), 4);
        assert!(sel.having.is_some());
    }
}
