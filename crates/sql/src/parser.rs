//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use crate::{Result, SqlError};

/// Parse one SQL statement.
pub fn parse_sql(sql: &str) -> Result<Statement> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, i: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if p.i != p.toks.len() {
        return Err(SqlError::new(format!("trailing tokens at {:?}", p.peek())));
    }
    Ok(stmt)
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(t) if t.is_kw(kw)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::new(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(x)) if *x == s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(SqlError::new(format!("expected '{s}', found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(SqlError::new(format!("expected identifier, found {other:?}"))),
        }
    }

    fn string_lit(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(SqlError::new(format!("expected string literal, found {other:?}"))),
        }
    }

    fn uint_lit(&mut self) -> Result<usize> {
        match self.next() {
            Some(Token::Number(s)) => {
                s.parse().map_err(|_| SqlError::new(format!("expected integer, found {s}")))
            }
            other => Err(SqlError::new(format!("expected integer, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("select") {
            return Ok(Statement::Select(self.select_body()?));
        }
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("view") {
                let name = self.ident()?;
                self.expect_kw("as")?;
                self.expect_kw("select")?;
                let select = self.select_body()?;
                return Ok(Statement::CreateView { name, select });
            }
            return Err(SqlError::new("expected TABLE or VIEW after CREATE"));
        }
        if self.eat_kw("insert") {
            self.expect_kw("into")?;
            let name = self.ident()?;
            self.expect_kw("values")?;
            let mut rows = Vec::new();
            loop {
                self.expect_sym("(")?;
                let mut vals = Vec::new();
                loop {
                    vals.push(self.expr()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
                rows.push(vals);
                if !self.eat_sym(",") {
                    break;
                }
            }
            return Ok(Statement::Insert { name, rows });
        }
        Err(SqlError::new(format!("unsupported statement start: {:?}", self.peek())))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = if self.eat_kw("json") {
                let mut storage = "text".to_string();
                let mut dataguide = false;
                if self.eat_kw("store") {
                    self.expect_kw("as")?;
                    storage = self.ident()?.to_lowercase();
                }
                // `CHECK (col IS JSON)` accepted but the JSON type implies
                // validation; `WITH DATAGUIDE` enables guide maintenance
                let mut is_json = true;
                if self.eat_kw("check") {
                    self.expect_sym("(")?;
                    let _c = self.ident()?;
                    self.expect_kw("is")?;
                    self.expect_kw("json")?;
                    self.expect_sym(")")?;
                    is_json = true;
                }
                if self.eat_kw("without") {
                    self.expect_kw("validation")?;
                    is_json = false;
                }
                if self.eat_kw("with") {
                    self.expect_kw("dataguide")?;
                    dataguide = true;
                }
                CreateColType::Json { storage, is_json, dataguide }
            } else {
                CreateColType::Scalar(self.type_name()?)
            };
            columns.push(CreateColumn { name: col, ty });
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn type_name(&mut self) -> Result<SqlTypeName> {
        let t = self.ident()?.to_lowercase();
        match t.as_str() {
            "number" => Ok(SqlTypeName::Number),
            "boolean" => Ok(SqlTypeName::Boolean),
            "varchar2" | "varchar" => {
                self.expect_sym("(")?;
                let n = self.uint_lit()?;
                self.expect_sym(")")?;
                Ok(SqlTypeName::Varchar2(n))
            }
            other => Err(SqlError::new(format!("unknown type {other}"))),
        }
    }

    fn select_body(&mut self) -> Result<Select> {
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Wildcard);
            } else {
                // alias.* ?
                let save = self.i;
                if let Ok(id) = self.ident() {
                    if self.eat_sym(".") && self.eat_sym("*") {
                        items.push(SelectItem::QualifiedWildcard(id));
                        if self.eat_sym(",") {
                            continue;
                        }
                        break;
                    }
                }
                self.i = save;
                let e = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    match self.peek() {
                        Some(Token::Ident(s)) if !is_clause_kw(s) => {
                            let a = s.clone();
                            self.i += 1;
                            Some(a)
                        }
                        Some(Token::QuotedIdent(s)) => {
                            let a = s.clone();
                            self.i += 1;
                            Some(a)
                        }
                        _ => None,
                    }
                };
                items.push(SelectItem::Expr(e, alias));
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        let mut sample_pct = None;
        loop {
            if self.eat_kw("json_table") {
                from.push(self.json_table_source()?);
            } else {
                let name = self.ident()?;
                if self.eat_kw("sample") {
                    self.expect_sym("(")?;
                    let pct = match self.next() {
                        Some(Token::Number(s)) => {
                            s.parse::<f64>().map_err(|_| SqlError::new("bad sample percentage"))?
                        }
                        other => {
                            return Err(SqlError::new(format!("bad sample clause: {other:?}")))
                        }
                    };
                    self.expect_sym(")")?;
                    sample_pct = Some(pct);
                }
                let alias = match self.peek() {
                    Some(Token::Ident(s))
                        if !is_clause_kw(s) && !s.eq_ignore_ascii_case("json_table") =>
                    {
                        let a = s.clone();
                        self.i += 1;
                        Some(a)
                    }
                    _ => None,
                };
                from.push(FromSource::Table { name, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_kw("limit") {
            limit = Some(self.uint_lit()?);
        } else if self.eat_kw("fetch") {
            self.expect_kw("first")?;
            let n = self.uint_lit()?;
            self.expect_kw("rows")?;
            self.expect_kw("only")?;
            limit = Some(n);
        }
        Ok(Select { items, from, where_clause, group_by, order_by, limit, sample_pct })
    }

    fn json_table_source(&mut self) -> Result<FromSource> {
        self.expect_sym("(")?;
        let column = self.expr()?;
        // optional `FORMAT JSON`
        if self.eat_kw("format") {
            self.expect_kw("json")?;
        }
        self.expect_sym(",")?;
        let row_path = self.string_lit()?;
        self.expect_kw("columns")?;
        let columns = self.jt_columns()?;
        self.expect_sym(")")?;
        let alias = match self.peek() {
            Some(Token::Ident(s)) if !is_clause_kw(s) => {
                let a = s.clone();
                self.i += 1;
                Some(a)
            }
            _ => None,
        };
        Ok(FromSource::JsonTable { column, row_path, columns, alias })
    }

    fn jt_columns(&mut self) -> Result<Vec<JtColumn>> {
        self.expect_sym("(")?;
        let mut cols = Vec::new();
        loop {
            if self.eat_kw("nested") {
                self.expect_kw("path")?;
                let path = self.string_lit()?;
                self.expect_kw("columns")?;
                let inner = self.jt_columns()?;
                cols.push(JtColumn::Nested { path, columns: inner });
            } else {
                let name = self.ident()?;
                if self.eat_kw("for") {
                    self.expect_kw("ordinality")?;
                    cols.push(JtColumn::Ordinality { name });
                } else if self.eat_kw("exists") {
                    self.expect_kw("path")?;
                    let path = self.string_lit()?;
                    cols.push(JtColumn::Exists { name, path });
                } else {
                    let ty = self.type_name()?;
                    self.expect_kw("path")?;
                    let path = self.string_lit()?;
                    cols.push(JtColumn::Value { name, ty, path });
                }
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(cols)
    }

    // ---- expressions: OR > AND > NOT > comparison > additive > multiplicative > primary

    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = SqlExpr::Binary(Box::new(lhs), "OR".into(), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = SqlExpr::Binary(Box::new(lhs), "AND".into(), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("not") {
            return Ok(SqlExpr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<SqlExpr> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let not = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(SqlExpr::IsNull(Box::new(lhs), not));
        }
        if self.eat_kw("between") {
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            return Ok(SqlExpr::Between(Box::new(lhs), Box::new(lo), Box::new(hi)));
        }
        if self.eat_kw("like") {
            let pat = self.string_lit()?;
            return Ok(SqlExpr::Like(Box::new(lhs), pat));
        }
        let not_in = if matches!(self.peek(), Some(t) if t.is_kw("not"))
            && matches!(self.toks.get(self.i + 1), Some(t) if t.is_kw("in"))
        {
            self.i += 2;
            true
        } else if self.eat_kw("in") {
            false
        } else {
            for op in ["=", "<>", "<=", ">=", "<", ">"] {
                if self.eat_sym(op) {
                    let rhs = self.add_expr()?;
                    return Ok(SqlExpr::Binary(Box::new(lhs), op.to_string(), Box::new(rhs)));
                }
            }
            return Ok(lhs);
        };
        self.expect_sym("(")?;
        let mut list = Vec::new();
        loop {
            list.push(self.expr()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(SqlExpr::InList(Box::new(lhs), list, not_in))
    }

    fn add_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            if self.eat_sym("+") {
                let rhs = self.mul_expr()?;
                lhs = SqlExpr::Binary(Box::new(lhs), "+".into(), Box::new(rhs));
            } else if self.eat_sym("-") {
                let rhs = self.mul_expr()?;
                lhs = SqlExpr::Binary(Box::new(lhs), "-".into(), Box::new(rhs));
            } else if self.eat_sym("||") {
                let rhs = self.mul_expr()?;
                lhs = SqlExpr::Binary(Box::new(lhs), "||".into(), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.primary()?;
        loop {
            if self.eat_sym("*") {
                let rhs = self.primary()?;
                lhs = SqlExpr::Binary(Box::new(lhs), "*".into(), Box::new(rhs));
            } else if self.eat_sym("/") {
                let rhs = self.primary()?;
                lhs = SqlExpr::Binary(Box::new(lhs), "/".into(), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        match self.peek().cloned() {
            Some(Token::Sym("(")) => {
                self.i += 1;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Token::Sym("?")) => {
                self.i += 1;
                Ok(SqlExpr::Bind)
            }
            Some(Token::Sym("-")) => {
                self.i += 1;
                // a negative number literal keeps every digit of its text
                if let Some(Token::Number(n)) = self.peek().cloned() {
                    self.i += 1;
                    return Ok(SqlExpr::NumLit(format!("-{n}")));
                }
                let e = self.primary()?;
                Ok(SqlExpr::Binary(Box::new(SqlExpr::NumLit("0".into())), "-".into(), Box::new(e)))
            }
            Some(Token::Number(n)) => {
                self.i += 1;
                Ok(SqlExpr::NumLit(n))
            }
            Some(Token::Str(s)) => {
                self.i += 1;
                Ok(SqlExpr::StrLit(s))
            }
            Some(Token::QuotedIdent(q)) => {
                self.i += 1;
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    Ok(SqlExpr::Ident(Some(q), col))
                } else {
                    Ok(SqlExpr::Ident(None, q))
                }
            }
            Some(Token::Ident(id)) => {
                self.i += 1;
                let up = id.to_uppercase();
                if up == "NULL" {
                    return Ok(SqlExpr::Null);
                }
                if matches!(self.peek(), Some(Token::Sym("("))) {
                    return self.call(up);
                }
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    return Ok(SqlExpr::Ident(Some(id), col));
                }
                Ok(SqlExpr::Ident(None, id))
            }
            other => Err(SqlError::new(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn call(&mut self, name: String) -> Result<SqlExpr> {
        self.expect_sym("(")?;
        match name.as_str() {
            "COUNT" if self.eat_sym("*") => {
                self.expect_sym(")")?;
                Ok(SqlExpr::CountStar)
            }
            "JSON_VALUE" => {
                let col = self.expr()?;
                self.expect_sym(",")?;
                let path = self.string_lit()?;
                let ret = if self.eat_kw("returning") { Some(self.type_name()?) } else { None };
                self.expect_sym(")")?;
                Ok(SqlExpr::JsonValue(Box::new(col), path, ret))
            }
            "JSON_EXISTS" => {
                let col = self.expr()?;
                self.expect_sym(",")?;
                let path = self.string_lit()?;
                self.expect_sym(")")?;
                Ok(SqlExpr::JsonExists(Box::new(col), path))
            }
            "LAG" => {
                let expr = self.expr()?;
                let mut offset = 1usize;
                let mut default = None;
                if self.eat_sym(",") {
                    offset = self.uint_lit()?;
                    if self.eat_sym(",") {
                        default = Some(Box::new(self.expr()?));
                    }
                }
                self.expect_sym(")")?;
                self.expect_kw("over")?;
                self.expect_sym("(")?;
                self.expect_kw("order")?;
                self.expect_kw("by")?;
                let mut order = Vec::new();
                loop {
                    let e = self.expr()?;
                    let desc = if self.eat_kw("desc") {
                        true
                    } else {
                        self.eat_kw("asc");
                        false
                    };
                    order.push(OrderItem { expr: e, desc });
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
                Ok(SqlExpr::Lag { expr: Box::new(expr), offset, default, order })
            }
            _ => {
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
                Ok(SqlExpr::Call(name, args))
            }
        }
    }
}

fn is_clause_kw(s: &str) -> bool {
    matches!(
        s.to_lowercase().as_str(),
        "where"
            | "group"
            | "order"
            | "from"
            | "limit"
            | "fetch"
            | "on"
            | "join"
            | "as"
            | "and"
            | "or"
            | "not"
            | "in"
            | "like"
            | "between"
            | "is"
            | "desc"
            | "asc"
            | "sample"
            | "union"
            | "having"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_table13_q2() {
        let s = parse_sql("select costcenter, count(*) from po_mv group by costcenter order by 1")
            .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.group_by.len(), 1);
                assert_eq!(sel.order_by.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_table13_q6_window() {
        let s = parse_sql(
            "select Partno, Reference, Quantity, QUANTITY - LAG(QUANTITY,1,QUANTITY) over \
             (ORDER BY SUBSTR(REFERENCE, INSTR(REFERENCE,'-') + 1)) as DIFFERENCE \
             from po_item_dmdv where Partno = '97' \
             order by SUBSTR(REFERENCE, INSTR(REFERENCE, '-') + 1) desc",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(
                    &sel.items[3],
                    SelectItem::Expr(SqlExpr::Binary(_, op, rhs), Some(a))
                        if op == "-" && a == "DIFFERENCE"
                            && matches!(**rhs, SqlExpr::Lag { .. })
                ));
                assert!(sel.order_by[0].desc);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_json_table_from() {
        let s = parse_sql(
            "SELECT p.did, jt.* FROM po p, JSON_TABLE(p.jdoc, '$.purchaseOrder' COLUMNS ( \
               id number PATH '$.id', \
               NESTED PATH '$.items[*]' COLUMNS ( \
                 name varchar2(8) PATH '$.name', \
                 seq FOR ORDINALITY, \
                 has_parts EXISTS PATH '$.parts'))) jt",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.from.len(), 2);
                match &sel.from[1] {
                    FromSource::JsonTable { columns, row_path, alias, .. } => {
                        assert_eq!(row_path, "$.purchaseOrder");
                        assert_eq!(alias.as_deref(), Some("jt"));
                        assert_eq!(columns.len(), 2);
                        assert!(matches!(&columns[1], JtColumn::Nested { columns, .. }
                            if columns.len() == 3));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_create_table_and_insert() {
        let s = parse_sql("create table po (did number, jdoc json store as oson with dataguide)")
            .unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "po");
                assert!(
                    matches!(&columns[1].ty, CreateColType::Json { storage, dataguide: true, .. }
                    if storage == "oson")
                );
            }
            other => panic!("{other:?}"),
        }
        let ins = parse_sql("insert into po values (1, '{\"a\":1}'), (2, '{}')").unwrap();
        match ins {
            Statement::Insert { rows, .. } => assert_eq!(rows.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_predicates() {
        let s = parse_sql(
            "select * from t where a between 1 and 5 and b in ('x','y') and c like 'p%' \
             and d is not null and not (e = 1 or f <> 2)",
        );
        assert!(s.is_ok(), "{s:?}");
    }

    #[test]
    fn parses_sample_and_dataguideagg() {
        let s = parse_sql("select json_dataguideagg(jcol) from po sample (50)").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.sample_pct, Some(50.0));
                // an ordinary call: the planner maps the name to the aggregate
                assert!(matches!(&sel.items[0],
                    SelectItem::Expr(SqlExpr::Call(f, args), None)
                        if f == "JSON_DATAGUIDEAGG" && args.len() == 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_binds_and_json_ops() {
        let s = parse_sql(
            "select count(*) from po_mv p where p.reference = ? and \
             json_exists(p.jdoc, '$.items') and \
             json_value(p.jdoc, '$.id' returning number) > 5",
        );
        assert!(s.is_ok(), "{s:?}");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "select",
            "select from t",
            "select * t",
            "insert po values (1)",
            "create table t (a unknown_type)",
            "select * from t where",
        ] {
            assert!(parse_sql(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn fetch_first_limit() {
        let s = parse_sql("select * from t fetch first 10 rows only").unwrap();
        match s {
            Statement::Select(sel) => assert_eq!(sel.limit, Some(10)),
            other => panic!("{other:?}"),
        }
        let s2 = parse_sql("select * from t limit 5").unwrap();
        match s2 {
            Statement::Select(sel) => assert_eq!(sel.limit, Some(5)),
            other => panic!("{other:?}"),
        }
    }
}
