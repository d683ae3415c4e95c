//! Virtual relational schema generation driven by the DataGuide (§3.3):
//! `AddVC()` virtual columns and `CreateViewOnPath()` de-normalized
//! master-detail views (DMDV).

use std::collections::HashMap;

use fsdm_sqljson::json_table::{ColumnDef, JsonTableDef, NestedDef};
use fsdm_sqljson::path::{parse_path, path_step_text};
use fsdm_sqljson::SqlType;

use crate::guide::{DataGuide, GuideNode, ScalarKind};
use crate::hierarchical::{frequency_pct, pow2_length};

/// A generated `JSON_VALUE()` virtual column (§3.3.1, Table 7).
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualColumnDef {
    /// Column name, `<jsoncol>$<field>` as in the paper's Table 7.
    pub name: String,
    /// Absolute SQL/JSON path of the singleton scalar.
    pub path: String,
    /// RETURNING type.
    pub ty: SqlType,
    /// The defining SQL expression.
    pub sql: String,
}

/// User annotations applied to generated columns (the paper's "annotate
/// the computed DataGuide by picking fields, renaming column names,
/// changing the maximum length of data types").
#[derive(Debug, Clone, Default)]
pub struct ColumnOverride {
    /// Replacement column name.
    pub rename: Option<String>,
    /// Replacement SQL type.
    pub retype: Option<SqlType>,
    /// Exclude this path from the view entirely.
    pub exclude: bool,
}

/// A generated DMDV view (§3.3.2, Table 8).
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// The executable JSON_TABLE definition.
    pub table_def: JsonTableDef,
    /// Equivalent `CREATE VIEW … JSON_TABLE(…)` SQL text.
    pub sql: String,
}

/// `AddVC()`: derive a virtual column for every singleton scalar path —
/// scalars with a one-to-one relationship to the document (never under an
/// array). `min_frequency_pct` prunes sparse fields (0 keeps everything).
pub fn add_vc(guide: &DataGuide, json_col: &str, min_frequency_pct: i64) -> Vec<VirtualColumnDef> {
    let mut out = Vec::new();
    let mut used = HashMap::new();
    collect_vc(
        &guide.root,
        "$".to_string(),
        json_col,
        guide.doc_count,
        min_frequency_pct,
        &mut used,
        &mut out,
    );
    out
}

fn collect_vc(
    node: &GuideNode,
    path: String,
    json_col: &str,
    total_docs: u64,
    min_freq: i64,
    used: &mut HashMap<String, usize>,
    out: &mut Vec<VirtualColumnDef>,
) {
    for (name, child) in node.children() {
        let child_path = format!("{path}{}", path_step_text(name));
        if child.is_singleton_scalar() {
            let freq = frequency_pct(child.scalars.doc_count(), total_docs);
            if freq >= min_freq {
                let col = unique_name(format!("{json_col}${name}"), used);
                let ty = scalar_sql_type(child);
                let sql = format!("JSON_VALUE({json_col}, '{child_path}' returning {ty})");
                out.push(VirtualColumnDef { name: col, path: child_path.clone(), ty, sql });
            }
        }
        // descend through objects only: a scalar under an array is not a
        // singleton (those belong in the DMDV)
        if child.object.seen() && !child.array.seen() {
            collect_vc(child, child_path, json_col, total_docs, min_freq, used, out);
        }
    }
}

/// `CreateViewOnPath()`: generate the DMDV `JSON_TABLE` view rooted at
/// `root_path` ("$" for the full expansion). Child arrays become NESTED
/// PATH blocks (left-outer-join un-nesting); sibling arrays union-join.
/// `min_frequency_pct` drops sparse/outlier fields; `overrides` applies
/// user annotations keyed by absolute path.
pub fn create_view_on_path(
    guide: &DataGuide,
    root_path: &str,
    json_col: &str,
    view_name: &str,
    min_frequency_pct: i64,
    overrides: &HashMap<String, ColumnOverride>,
) -> Option<ViewDef> {
    let node = guide.node_at(root_path)?;
    let ctx = Ctx { json_col, total_docs: guide.doc_count, min_freq: min_frequency_pct, overrides };
    let mut used = HashMap::new();
    let mut abs = root_path.to_string();
    if abs == "$" {
        abs.clear();
        abs.push('$');
    }
    let (columns, nested) = build_level(node, &abs, "$", &ctx, &mut used);
    let table_def = JsonTableDef { row_path: parse_path(root_path).ok()?, columns, nested };
    let sql = render_sql(view_name, json_col, root_path, &table_def);
    Some(ViewDef { name: view_name.to_string(), table_def, sql })
}

struct Ctx<'a> {
    json_col: &'a str,
    total_docs: u64,
    min_freq: i64,
    overrides: &'a HashMap<String, ColumnOverride>,
}

/// Walk one nesting level: scalars (and scalars inside plain objects)
/// become columns; arrays become NESTED PATH blocks.
fn build_level(
    node: &GuideNode,
    abs_path: &str,
    rel_path: &str,
    ctx: &Ctx<'_>,
    used: &mut HashMap<String, usize>,
) -> (Vec<ColumnDef>, Vec<NestedDef>) {
    let mut columns = Vec::new();
    let mut nested = Vec::new();
    // scalar elements of the array this level un-nests ("$" column)
    if rel_path == "$" && node.scalars.any_under_array() && !node.scalars.kinds.is_empty() {
        // handled by the parent when creating the block; nothing here
    }
    walk_level(node, abs_path, rel_path, ctx, used, &mut columns, &mut nested);
    (columns, nested)
}

fn walk_level(
    node: &GuideNode,
    abs_path: &str,
    rel_path: &str,
    ctx: &Ctx<'_>,
    used: &mut HashMap<String, usize>,
    columns: &mut Vec<ColumnDef>,
    nested: &mut Vec<NestedDef>,
) {
    for (name, child) in node.children() {
        let step = path_step_text(name);
        let abs = format!("{abs_path}{step}");
        let rel = format!("{rel_path}{step}");
        let over = ctx.overrides.get(&abs);
        if over.is_some_and(|o| o.exclude) {
            continue;
        }
        let docs = child.object.doc_count.max(child.array.doc_count).max(child.scalars.doc_count());
        if frequency_pct(docs, ctx.total_docs) < ctx.min_freq {
            continue;
        }
        // scalar at this path (not through an additional array) → column
        if !child.scalars.kinds.is_empty() && !child.array.seen() {
            columns.push(make_column(name, child, &abs, &rel, ctx, used, over));
        }
        // array → NESTED PATH block
        if child.array.seen() {
            let block_rel = format!("{rel}[*]");
            let mut block_cols = Vec::new();
            let mut block_nested = Vec::new();
            // scalar elements of the array itself → one column at '$'
            if !child.scalars.kinds.is_empty() {
                columns.reserve(0);
                block_cols.push(make_column(name, child, &abs, "$", ctx, used, over));
            }
            walk_level(child, &abs, "$", ctx, used, &mut block_cols, &mut block_nested);
            if !block_cols.is_empty() || !block_nested.is_empty() {
                nested.push(NestedDef {
                    path: parse_path(&block_rel).expect("generated path parses"),
                    columns: block_cols,
                    nested: block_nested,
                });
            }
        }
        // plain object → inline (columns keep dotted paths, no new block)
        if child.object.seen() && !child.array.seen() {
            walk_level(child, &abs, &rel, ctx, used, columns, nested);
        }
    }
}

fn make_column(
    field: &str,
    node: &GuideNode,
    _abs: &str,
    rel: &str,
    ctx: &Ctx<'_>,
    used: &mut HashMap<String, usize>,
    over: Option<&ColumnOverride>,
) -> ColumnDef {
    let default_name = format!("{}${}", ctx.json_col, field);
    let name =
        over.and_then(|o| o.rename.clone()).unwrap_or_else(|| unique_name(default_name, used));
    let ty = over.and_then(|o| o.retype).unwrap_or_else(|| scalar_sql_type(node));
    ColumnDef::value(name, ty, parse_path(rel).expect("generated path parses"))
}

fn scalar_sql_type(node: &GuideNode) -> SqlType {
    match node.scalars.generalized() {
        ScalarKind::Number => SqlType::Number,
        ScalarKind::Boolean => SqlType::Boolean,
        ScalarKind::Null => SqlType::Varchar2(1),
        ScalarKind::String => SqlType::Varchar2(pow2_length(node.scalars.max_len.max(1)) as usize),
    }
}

fn unique_name(base: String, used: &mut HashMap<String, usize>) -> String {
    let n = used.entry(base.clone()).or_insert(0);
    *n += 1;
    if *n == 1 {
        base
    } else {
        format!("{base}_{}", *n - 1)
    }
}

/// Render the Table 8–style SQL text of a DMDV view.
fn render_sql(view_name: &str, json_col: &str, root_path: &str, def: &JsonTableDef) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str(&format!(
        "CREATE VIEW {view_name} AS\n  SELECT JT.*\n  FROM SRC,\n  JSON_TABLE(\"{json_col}\" FORMAT JSON, '{root_path}'\n    COLUMNS (\n"
    ));
    render_cols(&mut s, &def.columns, &def.nested, 6);
    s.push_str("    )) JT");
    s
}

fn render_cols(s: &mut String, cols: &[ColumnDef], nested: &[NestedDef], indent: usize) {
    let pad = " ".repeat(indent);
    let mut first = true;
    for c in cols {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!("{pad}\"{}\" {} path '{}'", c.name, c.ty, c.path.text()));
    }
    for n in nested {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!("{pad}NESTED PATH '{}' COLUMNS (\n", n.path.text()));
        render_cols(s, &n.columns, &n.nested, indent + 2);
        s.push_str(&format!("\n{pad})"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;
    use fsdm_json::ValueDom;

    fn guide(docs: &[&str]) -> DataGuide {
        let mut g = DataGuide::new();
        for d in docs {
            g.add_document(&parse(d).unwrap());
        }
        g
    }

    const PO1: &str = r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
        {"name":"phone","price":100,"quantity":2},
        {"name":"ipad","price":350.86,"quantity":3}]}}"#;
    const PO3: &str = r#"{"purchaseOrder":{"id":3,"podate":"2015-06-03","foreign_id":"CDEG35",
        "items":[{"name":"TV","price":345.55,"quantity":1,
                  "parts":[{"partName":"remoteCon","partQuantity":"1"}]}]}}"#;

    /// Table 7: AddVC produces JSON_VALUE virtual columns for the three
    /// singleton scalars.
    #[test]
    fn add_vc_table7() {
        let g = guide(&[PO1, PO3]);
        let vcs = add_vc(&g, "JCOL", 0);
        // children iterate in name order, not document order
        let names: Vec<&str> = vcs.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["JCOL$foreign_id", "JCOL$id", "JCOL$podate"]);
        let id = vcs.iter().find(|v| v.name == "JCOL$id").unwrap();
        assert_eq!(id.ty, SqlType::Number);
        assert!(id.sql.contains("JSON_VALUE(JCOL, '$.purchaseOrder.id'"));
        let podate = vcs.iter().find(|v| v.name == "JCOL$podate").unwrap();
        assert_eq!(podate.ty, SqlType::Varchar2(16));
    }

    #[test]
    fn add_vc_respects_frequency_threshold() {
        let g = guide(&[PO1, PO3]);
        // foreign_id occurs in 1 of 2 docs = 50%
        let vcs = add_vc(&g, "JCOL", 60);
        assert!(vcs.iter().all(|v| v.name != "JCOL$foreign_id"));
        assert_eq!(vcs.len(), 2);
    }

    #[test]
    fn add_vc_excludes_array_scalars() {
        let g = guide(&[PO1]);
        let vcs = add_vc(&g, "JCOL", 0);
        assert!(vcs.iter().all(|v| !v.path.contains("items")));
    }

    /// Table 8: the generated DMDV un-nests items (outer join) and parts
    /// (outer join below items).
    #[test]
    fn create_view_generates_dmdv() {
        let g = guide(&[PO1, PO3]);
        let view = create_view_on_path(&g, "$", "JCOL", "PO_RV", 0, &HashMap::new()).unwrap();
        let names = view.table_def.column_names();
        assert!(names.contains(&"JCOL$id".to_string()));
        assert!(names.contains(&"JCOL$name".to_string()));
        assert!(names.contains(&"JCOL$partName".to_string()));
        assert!(
            view.sql.contains("NESTED PATH '$.items[*]'")
                || view.sql.contains("NESTED PATH '$.purchaseOrder.items[*]'"),
            "{}",
            view.sql
        );

        // executing the generated view over the documents produces the
        // de-normalized master-detail rows
        let v = parse(PO3).unwrap();
        let dom = ValueDom::new(&v);
        let rows = view.table_def.rows(&dom);
        assert_eq!(rows.len(), 1, "1 item × 1 part");
        let idx_id = names.iter().position(|n| n == "JCOL$id").unwrap();
        let idx_part = names.iter().position(|n| n == "JCOL$partName").unwrap();
        assert_eq!(rows[0][idx_id], fsdm_sqljson::Datum::from(3i64));
        assert_eq!(rows[0][idx_part], fsdm_sqljson::Datum::from("remoteCon"));
    }

    #[test]
    fn create_view_on_subpath() {
        let g = guide(&[PO1, PO3]);
        let view = create_view_on_path(
            &g,
            "$.purchaseOrder.items",
            "JCOL",
            "ITEMS_RV",
            0,
            &HashMap::new(),
        )
        .unwrap();
        let names = view.table_def.column_names();
        assert!(names.contains(&"JCOL$name".to_string()));
        assert!(!names.contains(&"JCOL$podate".to_string()));
        let v = parse(PO1).unwrap();
        let dom = ValueDom::new(&v);
        // row path $.purchaseOrder.items un-nests per lax semantics via
        // the nested path blocks below it
        assert!(!view.table_def.rows(&dom).is_empty());
    }

    #[test]
    fn overrides_rename_retype_exclude() {
        let g = guide(&[PO1]);
        let mut ov = HashMap::new();
        ov.insert(
            "$.purchaseOrder.podate".to_string(),
            ColumnOverride {
                rename: Some("ORDER_DATE".into()),
                retype: Some(SqlType::Varchar2(32)),
                exclude: false,
            },
        );
        ov.insert(
            "$.purchaseOrder.items.quantity".to_string(),
            ColumnOverride { exclude: true, ..Default::default() },
        );
        let view = create_view_on_path(&g, "$", "JCOL", "V", 0, &ov).unwrap();
        let names = view.table_def.column_names();
        assert!(names.contains(&"ORDER_DATE".to_string()));
        assert!(!names.iter().any(|n| n.contains("quantity")));
    }

    #[test]
    fn scalar_array_becomes_nested_scalar_column() {
        let g = guide(&[r#"{"name":"n","tags":["a","b"]}"#]);
        let view = create_view_on_path(&g, "$", "J", "V", 0, &HashMap::new()).unwrap();
        let v = parse(r#"{"name":"n","tags":["a","b"]}"#).unwrap();
        let dom = ValueDom::new(&v);
        let rows = view.table_def.rows(&dom);
        assert_eq!(rows.len(), 2, "one row per tag");
        let names = view.table_def.column_names();
        let idx = names.iter().position(|n| n == "J$tags").unwrap();
        assert_eq!(rows[0][idx], fsdm_sqljson::Datum::from("a"));
        assert_eq!(rows[1][idx], fsdm_sqljson::Datum::from("b"));
    }

    #[test]
    fn name_collisions_get_suffixes() {
        let g = guide(&[r#"{"a":{"x":1},"b":[{"x":"s"}]}"#]);
        let view = create_view_on_path(&g, "$", "J", "V", 0, &HashMap::new()).unwrap();
        let names = view.table_def.column_names();
        assert!(names.contains(&"J$x".to_string()));
        assert!(names.contains(&"J$x_1".to_string()), "{names:?}");
    }

    #[test]
    fn frequency_prunes_sparse_fields_from_view() {
        // one common field, one field present in 1% of docs
        let mut g = DataGuide::new();
        for i in 0..100 {
            let doc = if i == 0 {
                r#"{"common":1,"rare":2}"#.to_string()
            } else {
                r#"{"common":1}"#.to_string()
            };
            g.add_document(&parse(&doc).unwrap());
        }
        let view = create_view_on_path(&g, "$", "J", "V", 50, &HashMap::new()).unwrap();
        let names = view.table_def.column_names();
        assert!(names.contains(&"J$common".to_string()));
        assert!(!names.contains(&"J$rare".to_string()));
    }
}
