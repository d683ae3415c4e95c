//! `JSON_TABLE()`: the virtual table that projects relational rows out of
//! a JSON document (§3.3.2, §5.1).
//!
//! A definition has a row path, a list of columns, and nested
//! definitions. Semantics follow the paper exactly:
//!
//! * a **child** NESTED PATH un-nests its array with *left-outer-join*
//!   semantics — the parent row appears (with NULL child columns) even if
//!   the nested path matches nothing;
//! * **sibling** NESTED PATHs at the same level combine with *union join*
//!   semantics — "a full outer join with an impossible condition": each
//!   sibling's rows appear with every other sibling's columns NULL, never
//!   as a cross product.
//!
//! Execution goes through a [`JsonTableCursor`]: one expansion routine
//! that reports rows as block contexts, and column evaluation on demand.

use fsdm_json::{JsonDom, NodeRef};

use crate::datum::{Datum, SqlType};
use crate::engine::PathEvaluator;
use crate::ops::{json_value_at, OnError};
use crate::path::{parse_path, JsonPath};

/// Column kinds of a JSON_TABLE definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// Ordinary `PATH` column: JSON_VALUE semantics.
    Value,
    /// `EXISTS PATH` column: 1/0.
    Exists,
    /// `FOR ORDINALITY`: 1-based row number within the row set of this
    /// nesting level.
    Ordinality,
}

/// One output column.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name in the produced row.
    pub name: String,
    /// SQL type the value is coerced to.
    pub ty: SqlType,
    /// Column path, relative to the row node (ignored for Ordinality).
    pub path: JsonPath,
    /// Column kind.
    pub kind: ColKind,
}

impl ColumnDef {
    /// Ordinary value column.
    pub fn value(name: impl Into<String>, ty: SqlType, path: JsonPath) -> Self {
        ColumnDef { name: name.into(), ty, path, kind: ColKind::Value }
    }

    /// EXISTS column.
    pub fn exists(name: impl Into<String>, path: JsonPath) -> Self {
        ColumnDef { name: name.into(), ty: SqlType::Number, path, kind: ColKind::Exists }
    }

    /// FOR ORDINALITY column.
    pub fn ordinality(name: impl Into<String>) -> Self {
        let path = parse_path("$").expect("static path");
        ColumnDef { name: name.into(), ty: SqlType::Number, path, kind: ColKind::Ordinality }
    }
}

/// A NESTED PATH block.
#[derive(Debug, Clone)]
pub struct NestedDef {
    /// Row path relative to the parent row node.
    pub path: JsonPath,
    /// Columns of this block.
    pub columns: Vec<ColumnDef>,
    /// Child blocks (outer-joined below this block's rows).
    pub nested: Vec<NestedDef>,
}

/// A complete JSON_TABLE definition.
#[derive(Debug, Clone)]
pub struct JsonTableDef {
    /// Root row path (evaluated against the document root).
    pub row_path: JsonPath,
    /// Columns at the root level.
    pub columns: Vec<ColumnDef>,
    /// NESTED PATH blocks (siblings union-join; each child outer-joins).
    pub nested: Vec<NestedDef>,
}

impl JsonTableDef {
    /// All output columns in positional order (this level's columns, then
    /// each nested block's, depth-first — matching the generated view's
    /// SELECT list).
    pub fn flat_columns(&self) -> Vec<&ColumnDef> {
        fn walk<'d>(cols: &'d [ColumnDef], nested: &'d [NestedDef], out: &mut Vec<&'d ColumnDef>) {
            out.extend(cols);
            for n in nested {
                walk(&n.columns, &n.nested, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.columns, &self.nested, &mut out);
        out
    }

    /// All output column names in positional order.
    pub fn column_names(&self) -> Vec<String> {
        self.flat_columns().iter().map(|c| c.name.clone()).collect()
    }

    /// Total output width.
    pub fn width(&self) -> usize {
        self.flat_columns().len()
    }

    /// Compute all rows for one document. Convenience wrapper building a
    /// fresh cursor; hot loops over many documents should build one
    /// [`JsonTableCursor`] and reuse it so path evaluators (and their
    /// field-id look-back caches, §4.2.1) persist across documents.
    pub fn rows<D: JsonDom>(&self, dom: &D) -> Vec<Vec<Datum>> {
        JsonTableCursor::new(self).rows(dom)
    }

    /// Every path this definition evaluates, as a path from the document
    /// root: the row path, then each NESTED PATH and each `PATH` /
    /// `EXISTS PATH` column composed onto its block's row path —
    /// `$.items[*]` + `$.partno` → `$.items[*].partno`. What static
    /// analysis checks against a DataGuide.
    pub fn document_paths(&self) -> Vec<JsonPath> {
        let composed = self.composed().into_iter().filter_map(|(_, path)| path);
        std::iter::once(self.row_path.clone()).chain(composed).collect()
    }

    /// Each output column's path from the document root, in positional
    /// order, composed as in [`JsonTableDef::document_paths`]; `None` for
    /// `FOR ORDINALITY` and where no path composes.
    pub fn column_paths(&self) -> Vec<Option<JsonPath>> {
        self.composed().into_iter().filter_map(|(column, path)| column.then_some(path)).collect()
    }

    /// The one composition of paths from the document root, depth-first:
    /// a block's columns (`true`), then each NESTED PATH (`false`) and its
    /// block in turn, every path composed onto its block's row path —
    /// `$.items[*]` + `$.partno` → `$.items[*].partno`. A mode keyword on
    /// a sub-path is dropped (the row path's mode governs evaluation).
    /// `None` for `FOR ORDINALITY`, and where no path composes (an item
    /// method in the middle) — and so for everything under such a block.
    fn composed(&self) -> Vec<(bool, Option<JsonPath>)> {
        type Out = Vec<(bool, Option<JsonPath>)>;
        fn walk(row: Option<&JsonPath>, cols: &[ColumnDef], nested: &[NestedDef], out: &mut Out) {
            // both halves parsed on their own
            let onto_row = |sub: &JsonPath| {
                let (_, steps) = sub.text().split_once('$')?;
                parse_path(&format!("{}{steps}", row?.text().trim_end())).ok()
            };
            let value = |c: &ColumnDef| (c.kind != ColKind::Ordinality).then(|| onto_row(&c.path));
            out.extend(cols.iter().map(|c| (true, value(c).flatten())));
            for n in nested {
                let path = onto_row(&n.path);
                out.push((false, path.clone()));
                walk(path.as_ref(), &n.columns, &n.nested, out);
            }
        }
        let mut out = Vec::new();
        walk(Some(&self.row_path), &self.columns, &self.nested, &mut out);
        out
    }
}

/// What one definition block contributes to an output row: the node its
/// columns are evaluated from, and that node's 1-based position among the
/// block's rows under its parent (`FOR ORDINALITY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// The block's row node.
    pub node: NodeRef,
    /// 1-based ordinality; 0 marks [`Ctx::NONE`].
    pub ord: u32,
}

impl Ctx {
    /// The block is not on the row's path: its columns are NULL.
    pub const NONE: Ctx = Ctx { node: 0, ord: 0 };
}

/// Reusable execution state for one JSON_TABLE definition: one compiled
/// evaluator per path, kept across documents.
///
/// Execution is split in two, so that a caller can expand first and
/// evaluate columns later, for the rows and columns it turns out to need:
/// [`JsonTableCursor::expand`] walks the row path and the NESTED PATHs and
/// reports each output row as the [`Ctx`] of every block on its path;
/// [`JsonTableCursor::cell`] evaluates one column from its block's
/// context. [`JsonTableCursor::rows`] is the two put together.
pub struct JsonTableCursor {
    /// Definition blocks in depth-first pre-order; block 0 is the root
    /// level.
    blocks: Vec<BlockCursor>,
    /// Output columns in positional order.
    cols: Vec<ColCursor>,
}

struct BlockCursor {
    path_ev: PathEvaluator,
    /// Child blocks, in definition order.
    children: Vec<usize>,
}

struct ColCursor {
    block: usize,
    kind: ColKind,
    ty: SqlType,
    ev: PathEvaluator,
}

impl JsonTableCursor {
    /// Compile the definition's paths once.
    pub fn new(def: &JsonTableDef) -> Self {
        let mut cursor = JsonTableCursor { blocks: Vec::new(), cols: Vec::new() };
        cursor.add_block(&def.row_path, &def.columns, &def.nested);
        cursor
    }

    fn add_block(&mut self, path: &JsonPath, columns: &[ColumnDef], nested: &[NestedDef]) -> usize {
        let block = self.blocks.len();
        self.blocks
            .push(BlockCursor { path_ev: PathEvaluator::new(path.clone()), children: Vec::new() });
        self.cols.extend(columns.iter().map(|c| ColCursor {
            block,
            kind: c.kind,
            ty: c.ty,
            ev: PathEvaluator::new(c.path.clone()),
        }));
        for n in nested {
            let child = self.add_block(&n.path, &n.columns, &n.nested);
            self.blocks[block].children.push(child);
        }
        block
    }

    /// Number of definition blocks (the length of the slice `expand`
    /// hands its sink).
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block output column `col` belongs to.
    pub fn block_of(&self, col: usize) -> usize {
        self.cols[col].block
    }

    /// **The one expansion routine.** Calls `sink` once per output row of
    /// `dom`, in output order, with the context of every block (indexed by
    /// block, [`Ctx::NONE`] off the row's path). A child block outer-joins
    /// its parent, sibling blocks union-join; no column is evaluated.
    pub fn expand<D: JsonDom>(&mut self, dom: &D, sink: &mut impl FnMut(&[Ctx])) {
        expand_blocks(&mut self.blocks, dom, sink);
    }

    /// The value of output column `col` for a row whose context in that
    /// column's block is `ctx`.
    pub fn cell<D: JsonDom>(&mut self, dom: &D, col: usize, ctx: Ctx) -> Datum {
        self.cols[col].cell(dom, ctx)
    }

    /// Compute all rows for one document: the expansion with every column
    /// demanded and a row sink. A block's columns are evaluated once per
    /// row node, not once per output row.
    pub fn rows<D: JsonDom>(&mut self, dom: &D) -> Vec<Vec<Datum>> {
        let JsonTableCursor { blocks, cols } = self;
        let mut out = Vec::new();
        let mut row = vec![Datum::Null; cols.len()];
        let mut filled = vec![Ctx::NONE; blocks.len()];
        expand_blocks(blocks, dom, &mut |ctx: &[Ctx]| {
            for (cell, col) in row.iter_mut().zip(cols.iter_mut()) {
                if ctx[col.block] != filled[col.block] {
                    *cell = col.cell(dom, ctx[col.block]);
                }
            }
            filled.copy_from_slice(ctx);
            out.push(row.clone());
        });
        out
    }
}

fn expand_blocks<D: JsonDom>(blocks: &mut [BlockCursor], dom: &D, sink: &mut impl FnMut(&[Ctx])) {
    let mut ctx = vec![Ctx::NONE; blocks.len()];
    let rows = node_outputs(blocks[0].path_ev.evaluate(dom));
    for (ord, node) in (1..).zip(rows) {
        ctx[0] = Ctx { node, ord };
        expand_below(blocks, dom, 0, &mut ctx, sink);
    }
}

/// Emit the rows below `block`'s current row node, depth first.
fn expand_below<D: JsonDom>(
    blocks: &mut [BlockCursor],
    dom: &D,
    block: usize,
    ctx: &mut [Ctx],
    sink: &mut impl FnMut(&[Ctx]),
) {
    let mut any = false;
    // each sibling block's rows appear with the other siblings off the
    // path (union join)
    for k in 0..blocks[block].children.len() {
        let child = blocks[block].children[k];
        let rows = node_outputs(blocks[child].path_ev.evaluate_from(dom, ctx[block].node));
        for (ord, node) in (1..).zip(rows) {
            ctx[child] = Ctx { node, ord };
            expand_below(blocks, dom, child, ctx, sink);
            any = true;
        }
        ctx[child] = Ctx::NONE;
    }
    if !any {
        // a leaf block — or the left outer join: the parent row survives
        // with NULL nested columns
        sink(ctx);
    }
}

impl ColCursor {
    fn cell<D: JsonDom>(&mut self, dom: &D, ctx: Ctx) -> Datum {
        if ctx == Ctx::NONE {
            return Datum::Null;
        }
        match self.kind {
            ColKind::Ordinality => Datum::from(i64::from(ctx.ord)),
            ColKind::Exists => Datum::from(i64::from(self.ev.count_first(dom, ctx.node).0 > 0)),
            // JSON_VALUE semantics, NULL ON ERROR
            ColKind::Value => json_value_at(dom, ctx.node, &mut self.ev, self.ty, OnError::Null)
                .unwrap_or(Datum::Null),
        }
    }
}

fn node_outputs(outs: Vec<crate::engine::PathOutput>) -> Vec<NodeRef> {
    outs.into_iter()
        .filter_map(|o| match o {
            crate::engine::PathOutput::Node(n) => Some(n),
            crate::engine::PathOutput::Computed(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;
    use fsdm_json::{parse, ValueDom};

    fn p(s: &str) -> JsonPath {
        parse_path(s).unwrap()
    }

    /// The Table 8 document shape: items with nested parts, plus sibling
    /// discount_items.
    const DOC: &str = r#"{"purchaseOrder":{"id":3,"podate":"2015-06-03","foreign_id":"CDEG35",
      "items":[
        {"name":"TV","price":345.55,"quantity":1,
         "parts":[{"partName":"remoteCon","partQuantity":"1"},
                  {"partName":"power cord","partQuantity":"1"}]},
        {"name":"PC","price":546.78,"quantity":10,
         "parts":[{"partName":"mouse","partQuantity":"2"},
                  {"partName":"keyboard","partQuantity":"1"}]}],
      "discount_items":[
        {"dis_itemName":"lamp","dis_itemPrice":10.5,
         "dis_parts":[{"dis_partName":"bulb","dis_partQuantity":2}]}]}}"#;

    fn table8_def() -> JsonTableDef {
        JsonTableDef {
            row_path: p("$"),
            columns: vec![
                ColumnDef::value("id", SqlType::Number, p("$.purchaseOrder.id")),
                ColumnDef::value("podate", SqlType::Varchar2(16), p("$.purchaseOrder.podate")),
                ColumnDef::value(
                    "foreign_id",
                    SqlType::Varchar2(8),
                    p("$.purchaseOrder.foreign_id"),
                ),
            ],
            nested: vec![
                NestedDef {
                    path: p("$.purchaseOrder.items[*]"),
                    columns: vec![
                        ColumnDef::value("name", SqlType::Varchar2(8), p("$.name")),
                        ColumnDef::value("price", SqlType::Number, p("$.price")),
                        ColumnDef::value("quantity", SqlType::Number, p("$.quantity")),
                    ],
                    nested: vec![NestedDef {
                        path: p("$.parts[*]"),
                        columns: vec![
                            ColumnDef::value("partName", SqlType::Varchar2(16), p("$.partName")),
                            ColumnDef::value(
                                "partQuantity",
                                SqlType::Varchar2(4),
                                p("$.partQuantity"),
                            ),
                        ],
                        nested: vec![],
                    }],
                },
                NestedDef {
                    path: p("$.purchaseOrder.discount_items[*]"),
                    columns: vec![
                        ColumnDef::value("dis_itemName", SqlType::Varchar2(8), p("$.dis_itemName")),
                        ColumnDef::value("dis_itemPrice", SqlType::Number, p("$.dis_itemPrice")),
                    ],
                    nested: vec![NestedDef {
                        path: p("$.dis_parts[*]"),
                        columns: vec![ColumnDef::value(
                            "dis_partName",
                            SqlType::Varchar2(16),
                            p("$.dis_partName"),
                        )],
                        nested: vec![],
                    }],
                },
            ],
        }
    }

    #[test]
    fn column_layout() {
        let def = table8_def();
        assert_eq!(
            def.column_names(),
            vec![
                "id",
                "podate",
                "foreign_id",
                "name",
                "price",
                "quantity",
                "partName",
                "partQuantity",
                "dis_itemName",
                "dis_itemPrice",
                "dis_partName"
            ]
        );
        assert_eq!(def.width(), 11);
    }

    #[test]
    fn dmdv_expansion_child_outer_and_sibling_union() {
        let v = parse(DOC).unwrap();
        let dom = ValueDom::new(&v);
        let rows = table8_def().rows(&dom);
        // items block: 2 items × 2 parts = 4 rows; discount block: 1 item ×
        // 1 part = 1 row; union join → 5 rows total
        assert_eq!(rows.len(), 5);
        // master fields repeat on every row
        for r in &rows {
            assert_eq!(r[0], Datum::from(3i64));
            assert_eq!(r[2], Datum::from("CDEG35"));
        }
        // item rows have NULL discount columns and vice versa (union join)
        let item_rows: Vec<_> = rows.iter().filter(|r| !r[3].is_null()).collect();
        let disc_rows: Vec<_> = rows.iter().filter(|r| !r[8].is_null()).collect();
        assert_eq!(item_rows.len(), 4);
        assert_eq!(disc_rows.len(), 1);
        for r in &item_rows {
            assert!(r[8].is_null() && r[9].is_null() && r[10].is_null());
        }
        for r in &disc_rows {
            assert!(r[3].is_null() && r[4].is_null());
            assert_eq!(r[10], Datum::from("bulb"));
        }
    }

    /// Rows rendered one per line, cells joined by `|`.
    fn render(rows: &[Vec<Datum>]) -> String {
        let line = |r: &Vec<Datum>| r.iter().map(Datum::to_string).collect::<Vec<_>>().join("|");
        rows.iter().map(line).collect::<Vec<_>>().join("\n")
    }

    /// NESTED inside NESTED beside a sibling, `FOR ORDINALITY` at every
    /// level, an `EXISTS` column, an empty and a missing array, a row
    /// path matching several nodes.
    fn deep_def() -> JsonTableDef {
        JsonTableDef {
            row_path: p("$.o[*]"),
            columns: vec![
                ColumnDef::ordinality("n"),
                ColumnDef::value("id", SqlType::Number, p("$.id")),
            ],
            nested: vec![
                NestedDef {
                    path: p("$.a[*]"),
                    columns: vec![
                        ColumnDef::ordinality("an"),
                        ColumnDef::value("x", SqlType::Varchar2(4), p("$.x")),
                        ColumnDef::exists("hasb", p("$.b")),
                    ],
                    nested: vec![NestedDef {
                        path: p("$.b[*]"),
                        columns: vec![
                            ColumnDef::ordinality("bn"),
                            ColumnDef::value("y", SqlType::Number, p("$.y")),
                        ],
                        nested: vec![],
                    }],
                },
                NestedDef {
                    path: p("$.c[*]"),
                    columns: vec![ColumnDef::value("z", SqlType::Boolean, p("$.z"))],
                    nested: vec![],
                },
            ],
        }
    }

    const DEEP: &str = r#"{"o":[
        {"id":1,"a":[{"x":"p","b":[{"y":1},{"y":2}]},{"x":"q","b":[]}],"c":[{"z":true}]},
        {"id":2,"a":[]},
        {"id":3}]}"#;

    /// The row API over the expansion routine returns, cell for cell and in
    /// order, what the row-major routine it replaced returned (captured
    /// from it before it went).
    #[test]
    fn rows_equal_the_replaced_row_major_expansion() {
        let dom_rows = |def: &JsonTableDef, doc: &str| {
            let v = parse(doc).unwrap();
            render(&def.rows(&ValueDom::new(&v)))
        };
        assert_eq!(
            dom_rows(&table8_def(), DOC),
            "3|2015-06-03|CDEG35|TV|345.55|1|remoteCon|1|NULL|NULL|NULL\n\
             3|2015-06-03|CDEG35|TV|345.55|1|power cord|1|NULL|NULL|NULL\n\
             3|2015-06-03|CDEG35|PC|546.78|10|mouse|2|NULL|NULL|NULL\n\
             3|2015-06-03|CDEG35|PC|546.78|10|keyboard|1|NULL|NULL|NULL\n\
             3|2015-06-03|CDEG35|NULL|NULL|NULL|NULL|NULL|lamp|10.5|bulb"
        );
        assert_eq!(
            dom_rows(&deep_def(), DEEP),
            "1|1|1|p|1|1|1|NULL\n\
             1|1|1|p|1|2|2|NULL\n\
             1|1|2|q|1|NULL|NULL|NULL\n\
             1|1|NULL|NULL|NULL|NULL|NULL|true\n\
             2|2|NULL|NULL|NULL|NULL|NULL|NULL\n\
             3|3|NULL|NULL|NULL|NULL|NULL|NULL"
        );
        // a row path that matches nothing yields no row at all
        assert_eq!(dom_rows(&deep_def(), r#"{"o":[]}"#), "");
        assert_eq!(dom_rows(&deep_def(), r#"{"p":1}"#), "");
    }

    #[test]
    fn expand_reports_contexts_and_cells_evaluate_on_demand() {
        let v = parse(DEEP).unwrap();
        let dom = ValueDom::new(&v);
        let mut cursor = JsonTableCursor::new(&deep_def());
        assert_eq!(cursor.blocks(), 4, "root, a, b, c");
        assert_eq!(
            (0..8).map(|c| cursor.block_of(c)).collect::<Vec<_>>(),
            [0, 0, 1, 1, 1, 2, 2, 3]
        );
        let mut paths: Vec<Vec<u32>> = Vec::new();
        cursor.expand(&dom, &mut |ctx| paths.push(ctx.iter().map(|c| c.ord).collect()));
        // ordinality per block, 0 = off the row's path
        let want: [[u32; 4]; 6] =
            [[1, 1, 1, 0], [1, 1, 2, 0], [1, 2, 0, 0], [1, 0, 0, 1], [2, 0, 0, 0], [3, 0, 0, 0]];
        assert_eq!(paths, want);
        // a column is evaluated from its block's context, on demand
        let mut first = Vec::new();
        cursor.expand(&dom, &mut |ctx| first.push(ctx.to_vec()));
        assert_eq!(cursor.cell(&dom, 3, first[2][1]), Datum::from("q"));
        assert_eq!(cursor.cell(&dom, 6, first[1][2]), Datum::from(2i64));
        assert_eq!(cursor.cell(&dom, 6, first[2][2]), Datum::Null, "off the path");
    }

    #[test]
    fn outer_join_keeps_parent_without_details() {
        let doc = r#"{"purchaseOrder":{"id":9,"podate":"2016-01-01","items":[]}}"#;
        let v = parse(doc).unwrap();
        let dom = ValueDom::new(&v);
        let rows = table8_def().rows(&dom);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Datum::from(9i64));
        assert!(rows[0][3].is_null(), "no item columns");
    }

    #[test]
    fn items_without_parts_outer_join() {
        let doc = r#"{"purchaseOrder":{"id":1,"items":[{"name":"x","price":5,"quantity":1}]}}"#;
        let v = parse(doc).unwrap();
        let dom = ValueDom::new(&v);
        let rows = table8_def().rows(&dom);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][3], Datum::from("x"));
        assert!(rows[0][6].is_null(), "partName is NULL");
    }

    #[test]
    fn ordinality_and_exists_columns() {
        let def = JsonTableDef {
            row_path: p("$.purchaseOrder.items[*]"),
            columns: vec![
                ColumnDef::ordinality("seq"),
                ColumnDef::value("name", SqlType::Varchar2(8), p("$.name")),
                ColumnDef::exists("has_parts", p("$.parts")),
            ],
            nested: vec![],
        };
        let v = parse(DOC).unwrap();
        let dom = ValueDom::new(&v);
        let rows = def.rows(&dom);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Datum::from(1i64));
        assert_eq!(rows[1][0], Datum::from(2i64));
        assert_eq!(rows[0][2], Datum::from(1i64));
    }

    #[test]
    fn document_paths_compose_through_nested_blocks() {
        let texts = |def: &JsonTableDef| -> Vec<String> {
            def.document_paths().iter().map(|p| p.text().to_string()).collect()
        };
        assert_eq!(
            texts(&deep_def()),
            [
                "$.o[*]",
                "$.o[*].id",
                "$.o[*].a[*]",
                "$.o[*].a[*].x",
                "$.o[*].a[*].b",
                "$.o[*].a[*].b[*]",
                "$.o[*].a[*].b[*].y",
                "$.o[*].c[*]",
                "$.o[*].c[*].z",
            ]
        );
        // a sub-path's mode keyword is dropped, the row path's kept
        let def = JsonTableDef {
            row_path: p("strict $.items[*]"),
            columns: vec![ColumnDef::value("n", SqlType::Number, p("lax $.n"))],
            nested: vec![],
        };
        assert_eq!(texts(&def), ["strict $.items[*]", "strict $.items[*].n"]);
        // per column, in positional order: the same composition, with a
        // hole for what names no document path
        let def = JsonTableDef {
            row_path: p("$.a.*"),
            columns: vec![
                ColumnDef::ordinality("i"),
                ColumnDef::value("x", SqlType::Number, p("$.x")),
            ],
            nested: vec![NestedDef {
                path: p("$.size()"),
                columns: vec![ColumnDef::exists("y", p("$.y"))],
                nested: vec![],
            }],
        };
        let texts: Vec<Option<String>> =
            def.column_paths().iter().map(|p| p.as_ref().map(|p| p.text().to_string())).collect();
        assert_eq!(texts, [None, Some("$.a.*.x".to_string()), None]);
    }

    #[test]
    fn value_coercion_in_columns() {
        // price exceeds varchar2(2): NULL ON ERROR per JSON_VALUE defaults
        let def = JsonTableDef {
            row_path: p("$.purchaseOrder.items[*]"),
            columns: vec![ColumnDef::value("price", SqlType::Varchar2(2), p("$.price"))],
            nested: vec![],
        };
        let v = parse(DOC).unwrap();
        let dom = ValueDom::new(&v);
        let rows = def.rows(&dom);
        assert!(rows.iter().all(|r| r[0].is_null()));
    }
}
