//! The two JSON renderings of a DataGuide (§3.2.2): the *flat* form (the
//! `$DG` rows as a JSON array) and the *hierarchical* form (a JSON-schema-
//! like document with `o:`-prefixed annotations that users can edit and
//! pass back to `CreateViewOnPath()`).

use fsdm_json::{JsonValue, Object};

use crate::guide::{DataGuide, GuideNode};

/// Flat form: a JSON array of `$DG` rows.
pub fn to_flat_json(g: &DataGuide) -> JsonValue {
    let rows = g
        .rows()
        .into_iter()
        .map(|r| {
            let mut o = Object::new();
            o.push("o:path", r.path);
            o.push("type", r.type_str);
            o.push("o:frequency", frequency_pct(r.doc_count, g.doc_count));
            if r.max_len > 0 {
                o.push("o:length", pow2_length(r.max_len));
            }
            if let Some(m) = r.min {
                o.push("o:low_value", m);
            }
            if let Some(m) = r.max {
                o.push("o:high_value", m);
            }
            if r.nulls > 0 {
                o.push("o:num_nulls", r.nulls as i64);
            }
            JsonValue::Object(o)
        })
        .collect();
    JsonValue::Array(rows)
}

/// Hierarchical form: a single JSON document mirroring the guide tree.
pub fn to_hierarchical_json(g: &DataGuide) -> JsonValue {
    node_json(&g.root, g.doc_count, None)
}

fn node_json(n: &GuideNode, total_docs: u64, name: Option<&str>) -> JsonValue {
    let mut o = Object::new();
    let children: Vec<(&str, &GuideNode)> = n.children().collect();
    let mut types: Vec<JsonValue> = Vec::new();
    if n.object.seen() || (!children.is_empty() && !n.array.seen()) {
        types.push("object".into());
    }
    if n.array.seen() {
        types.push("array".into());
    }
    if !n.scalars.kinds.is_empty() {
        types.push(n.scalars.generalized().name().into());
    }
    match types.len() {
        0 => o.push("type", "object"),
        1 => o.push("type", types.pop().unwrap()),
        _ => o.push("type", JsonValue::Array(types)),
    }
    if let Some(nm) = name {
        o.push("o:preferred_column_name", preferred_column_name(nm));
    }
    let docs = n.object.doc_count.max(n.array.doc_count).max(n.scalars.doc_count());
    if total_docs > 0 && docs > 0 {
        o.push("o:frequency", frequency_pct(docs, total_docs));
    }
    if n.scalars.max_len > 0 {
        o.push("o:length", pow2_length(n.scalars.max_len));
    }
    if !children.is_empty() {
        let mut props = Object::new();
        for (k, c) in children {
            props.push(k, node_json(c, total_docs, Some(k)));
        }
        // array nodes expose element structure under "items", object
        // nodes under "properties" — when both kinds occur, both appear
        if n.array.seen() {
            o.push("items", JsonValue::Object(props.clone()));
        }
        if n.object.seen() || !n.array.seen() {
            o.push("properties", JsonValue::Object(props));
        }
    }
    JsonValue::Object(o)
}

/// Oracle reports `o:length` rounded up to a power of two.
pub fn pow2_length(len: usize) -> i64 {
    let mut p = 1usize;
    while p < len {
        p *= 2;
    }
    p as i64
}

/// Frequency as an integer percentage of documents.
pub fn frequency_pct(docs: u64, total: u64) -> i64 {
    if total == 0 {
        0
    } else {
        ((docs as f64 / total as f64) * 100.0).round() as i64
    }
}

/// A column name derived from a field name: uppercased identifier with
/// non-alphanumerics folded to `_` (Oracle's preferred-name convention).
pub fn preferred_column_name(field: &str) -> String {
    let mut s: String = field
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_uppercase() } else { '_' })
        .collect();
    if s.is_empty() || s.as_bytes()[0].is_ascii_digit() {
        s.insert(0, '_');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    fn guide(docs: &[&str]) -> DataGuide {
        let mut g = DataGuide::new();
        for d in docs {
            g.add_document(&parse(d).unwrap());
        }
        g
    }

    #[test]
    fn an_empty_guide_renders_no_rows() {
        assert_eq!(to_flat_json(&DataGuide::new()), JsonValue::Array(vec![]));
    }

    #[test]
    fn flat_form_shape() {
        let g = guide(&[r#"{"a":1,"b":[{"c":"xy"}]}"#, r#"{"a":2}"#]);
        let flat = to_flat_json(&g);
        let rows = flat.as_array().unwrap();
        assert_eq!(rows.len(), g.distinct_paths());
        let a_row = rows.iter().find(|r| r.get("o:path").unwrap().as_str() == Some("$.a")).unwrap();
        assert_eq!(a_row.get("type").unwrap().as_str(), Some("number"));
        assert_eq!(a_row.get("o:frequency").unwrap().as_i64(), Some(100));
        let b_row = rows.iter().find(|r| r.get("o:path").unwrap().as_str() == Some("$.b")).unwrap();
        assert_eq!(b_row.get("o:frequency").unwrap().as_i64(), Some(50));
    }

    #[test]
    fn hierarchical_form_shape() {
        let g = guide(&[r#"{"purchaseOrder":{"id":7,"items":[{"name":"tv"}]}}"#]);
        let h = to_hierarchical_json(&g);
        assert_eq!(h.get("type").unwrap().as_str(), Some("object"));
        let po = h.get("properties").unwrap().get("purchaseOrder").unwrap();
        assert_eq!(po.get("type").unwrap().as_str(), Some("object"));
        let items = po.get("properties").unwrap().get("items").unwrap();
        assert_eq!(items.get("type").unwrap().as_str(), Some("array"));
        let name = items.get("items").unwrap().get("name").unwrap();
        assert_eq!(name.get("type").unwrap().as_str(), Some("string"));
        assert_eq!(name.get("o:length").unwrap().as_i64(), Some(2));
        assert_eq!(name.get("o:preferred_column_name").unwrap().as_str(), Some("NAME"));
    }

    #[test]
    fn mixed_type_nodes_list_all_types() {
        let g = guide(&[r#"{"x":1}"#, r#"{"x":{"y":2}}"#]);
        let h = to_hierarchical_json(&g);
        let x = h.get("properties").unwrap().get("x").unwrap();
        let types = x.get("type").unwrap().as_array().unwrap();
        assert_eq!(types.len(), 2);
    }

    #[test]
    fn pow2_rounding() {
        assert_eq!(pow2_length(1), 1);
        assert_eq!(pow2_length(2), 2);
        assert_eq!(pow2_length(3), 4);
        assert_eq!(pow2_length(17), 32);
    }

    #[test]
    fn preferred_names() {
        assert_eq!(preferred_column_name("podate"), "PODATE");
        assert_eq!(preferred_column_name("foreign id"), "FOREIGN_ID");
        assert_eq!(preferred_column_name("9lives"), "_9LIVES");
    }

    #[test]
    fn forms_are_valid_json_text() {
        let g = guide(&[r#"{"a":[1,2],"b":{"c":null}}"#]);
        let flat = fsdm_json::to_string(&to_flat_json(&g));
        let hier = fsdm_json::to_string(&to_hierarchical_json(&g));
        assert!(fsdm_json::parse(&flat).is_ok());
        assert!(fsdm_json::parse(&hier).is_ok());
    }
}
