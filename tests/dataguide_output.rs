//! The DataGuide's rendered output, pinned: the flat (`JSON_DATAGUIDEAGG`)
//! and hierarchical texts and the `AddVC()` / `CreateViewOnPath()`
//! definitions over a NOBENCH corpus are compared by FNV-1a hash with the
//! values the BTreeMap-ordered guide produced. Any change in member order,
//! extreme selection, length statistics or column naming changes a hash.

use std::collections::HashMap;

use fsdm_dataguide::hierarchical::{to_flat_json, to_hierarchical_json};
use fsdm_dataguide::{add_vc, create_view_on_path, DataGuide};
use fsdm_json::JsonValue;

const DOCS: usize = 2_000;

fn fnv1a(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// NOBENCH documents (`dyn1`/`dyn2` mix strings and numbers) where every
/// 50th document brings a field no other document has, its value cycling
/// through a negative decimal, a string, a boolean, an array of objects
/// and an object whose `num` member collides with the root's column name.
fn corpus() -> Vec<JsonValue> {
    let mut rng = fsdm_workloads::rng_for("nobench", 42);
    (0..DOCS)
        .map(|i| {
            let mut doc = fsdm_workloads::nobench::doc(&mut rng, i);
            if i % 50 == 0 {
                let value = match (i / 50) % 5 {
                    0 => format!("-{i}.25"),
                    1 => format!("\"added {i}\""),
                    2 => (i % 100 == 0).to_string(),
                    3 => format!(r#"[{{"k":{i},"w":"w{i}"}},{{"k":-1.5}}]"#),
                    _ => format!(r#"{{"num":{i},"str":"s{i}"}}"#),
                };
                let JsonValue::Object(o) = &mut doc else { unreachable!("NOBENCH is objects") };
                o.push(format!("added_{:02}", i / 50), fsdm_json::parse(&value).unwrap());
            }
            doc
        })
        .collect()
}

#[test]
fn guide_texts_and_generated_definitions_are_pinned() {
    let docs = corpus();
    let mut guide = DataGuide::new();
    for d in &docs {
        guide.add_document(d);
    }
    let flat_text = fsdm_json::to_string(&to_flat_json(&guide));
    let hier_text = fsdm_json::to_string(&to_hierarchical_json(&guide));
    assert_eq!(guide.rows().len(), 1_084, "$DG rows");

    let vcs: String = add_vc(&guide, "jdoc", 0)
        .iter()
        .map(|v| format!("{}|{}|{}|{}\n", v.name, v.path, v.ty, v.sql))
        .collect();
    let view = create_view_on_path(&guide, "$", "jdoc", "nobench_dmdv", 0, &HashMap::new())
        .expect("the root path has a view");

    assert_eq!(fnv1a(flat_text.as_bytes()), "7c4017f9716518e5", "flat text");
    assert_eq!(fnv1a(hier_text.as_bytes()), "79148cf65c4c4914", "hierarchical text");
    assert_eq!(fnv1a(vcs.as_bytes()), "92b7f9fb4434804b", "add_vc:\n{vcs}");
    assert_eq!(fnv1a(view.sql.as_bytes()), "76c5c2f352b56271", "view:\n{}", view.sql);
}
