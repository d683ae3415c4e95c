//! Schema discovery on a heterogeneous collection: watch the DataGuide
//! evolve (the §3.2.1 walkthrough), compute transient guides with the SQL
//! aggregate, and customize the generated view with annotations.
//!
//! ```sh
//! cargo run --release --example schema_discovery
//! ```

use std::collections::HashMap;

use fsdm::dataguide::views::{create_view_on_path, ColumnOverride};
use fsdm::sqljson::SqlType;
use fsdm::{CollectionOptions, FsdmDatabase};

fn main() {
    let mut db = FsdmDatabase::new();
    db.create_collection("events", CollectionOptions::default()).unwrap();

    // heterogeneous writers: three apps logging different shapes into the
    // same collection, types drifting over time
    db.put("events", r#"{"kind":"click","ts":"2015-01-01","target":{"id":17,"area":"nav"}}"#)
        .unwrap();
    db.put("events", r#"{"kind":"click","ts":"2015-01-02","target":{"id":"a-9","area":"footer"}}"#)
        .unwrap();
    db.put(
        "events",
        r#"{"kind":"purchase","ts":"2015-01-02","cart":{"total":99.95,
            "items":[{"sku":"S1","qty":1},{"sku":"S2","qty":3}]}}"#,
    )
    .unwrap();
    db.put("events", r#"{"kind":"error","ts":"2015-01-03","message":"timeout","retries":4}"#)
        .unwrap();

    println!("== the merged soft schema ==");
    for row in db.dataguide("events").unwrap().rows() {
        println!("{:<28} {:<18} freq={}/4", row.path, row.type_str, row.doc_count);
    }
    println!("\nnote: $.target.id merged number+string → generalized to string\n");

    // transient DataGuides per group, straight from SQL (§3.4, Table 9 Q2)
    let r = db
        .sql(
            "select json_dataguideagg(jdoc), json_value(jdoc, '$.kind') from events \
             group by json_value(jdoc, '$.kind')",
        )
        .unwrap();
    println!("== one transient DataGuide per event kind ==");
    for row in &r.rows {
        let guide = fsdm::json::parse(&row[0].to_text()).unwrap();
        println!("kind {}: {} paths", row[1], guide.as_array().unwrap().len());
    }

    // user-annotated view generation (§3.2.2: "users can annotate the
    // computed DataGuide … and then call CreateViewOnPath()")
    let mut overrides = HashMap::new();
    overrides.insert(
        "$.ts".to_string(),
        ColumnOverride {
            rename: Some("EVENT_TIME".into()),
            retype: Some(SqlType::Varchar2(32)),
            exclude: false,
        },
    );
    overrides
        .insert("$.message".to_string(), ColumnOverride { exclude: true, ..Default::default() });
    let guide = db.dataguide("events").unwrap().clone();
    let view = create_view_on_path(&guide, "$", "jdoc", "EVENTS_RV", 0, &overrides).unwrap();
    println!("\n== customized view ==\n{}", view.sql);
}
