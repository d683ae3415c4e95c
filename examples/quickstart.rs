//! Quickstart: "write without schema, read with schema".
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fsdm::{CollectionOptions, FsdmDatabase};

fn main() {
    let mut db = FsdmDatabase::new();

    // 1. Create a JSON collection — no schema declared, ever.
    db.create_collection("po", CollectionOptions::default()).unwrap();

    // 2. Write documents of evolving shape.
    db.put(
        "po",
        r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
            {"name":"phone","price":100,"quantity":2},
            {"name":"ipad","price":350.86,"quantity":3}]}}"#,
    )
    .unwrap();
    db.put(
        "po",
        r#"{"purchaseOrder":{"id":2,"podate":"2015-03-04","items":[
            {"name":"table","price":52.78,"quantity":2},
            {"name":"chair","price":35.24,"quantity":4}]}}"#,
    )
    .unwrap();
    // a third document grows the schema deeper (parts) and wider (foreign_id)
    db.put(
        "po",
        r#"{"purchaseOrder":{"id":3,"podate":"2015-06-03","foreign_id":"CDEG35","items":[
            {"name":"TV","price":345.55,"quantity":1,
             "parts":[{"partName":"remoteCon","partQuantity":"1"}]}]}}"#,
    )
    .unwrap();

    // 3. The DataGuide tracked every path automatically.
    println!("== $DG rows (the soft schema) ==");
    for row in db.dataguide("po").unwrap().rows() {
        println!("{:<55} {}", row.path, row.type_str);
    }

    // 4. Project the virtual relational schema and query it with SQL.
    let schema = db.infer_relational_schema("po").unwrap();
    println!("\n== generated view SQL ==\n{}\n", schema.view_sql);

    let r = db
        .sql("select \"jdoc$name\", \"jdoc$price\" from po_dmdv where \"jdoc$price\" > 100")
        .unwrap();
    println!("== items over 100 ==");
    for row in &r.rows {
        println!("{:<10} {}", row[0], row[1]);
    }

    // 5. Ad-hoc queries still work on the raw documents: JSON_TABLE
    //    projects each item of every document as a row.
    let r = db
        .sql(
            "select did, name from po, json_table(jdoc, '$.purchaseOrder.items[*]' \
             columns (name varchar2(16) path '$.name', quantity number path '$.quantity')) jt \
             where quantity >= 3",
        )
        .unwrap();
    println!("\n== bulk items (JSON_TABLE) ==");
    for row in &r.rows {
        println!("doc {}: {}", row[0], row[1]);
    }
}
