//! Integration test: the paper's §3 worked example (Tables 1–8) run end to
//! end through the public API — documents in, $DG rows, view generation,
//! DMDV expansion.

use fsdm::{CollectionOptions, FsdmDatabase};
use fsdm_sqljson::Datum;

/// Table 1's two documents.
const DOC1: &str = r#"{"purchaseOrder": {"id" : 1, "podate" : "2014-09-08",
 "items" :
 [ {"name":"phone" , "price" : 100, "quantity" : 2},
   {"name":"ipad", "price" : 350.86, "quantity" : 3}]}}"#;
const DOC2: &str = r#"{"purchaseOrder": {"id" : 2, "podate" : "2015-03-04",
 "items" :
 [ {"name":"table", "price": 52.78, "quantity": 2},
   {"name":"chair", "price" : 35.24, "quantity" : 4}]}}"#;

/// Table 3's document: new child hierarchy "parts" + new "foreign_id".
const DOC3: &str = r#"{"purchaseOrder": {"id" : 2, "podate" : "2015-06-03",
 "foreign_id" : "CDEG35",
 "items" :
 [ {"name": "TV", "price" : 345.55, "quantity" : 1,
    "parts" : [
      {"partName" : "remoteCon", "partQuantity" : "1"},
      {"partName" : "antenna", "partQuantity" : "2"}]},
   {"name": "PC", "price" : 546.78, "quantity" : 10,
    "parts" : [
      {"partName" : "mouse", "partQuantity" : "2"},
      {"partName" : "keyboard", "partQuantity" : "1"}]}]}}"#;

/// Table 5's document: new sibling hierarchy "discount_items".
const DOC4: &str = r#"{"purchaseOrder": {"id" : 3, "podate" : "2015-07-01",
 "discount_items" :
 [ {"dis_itemName" : "lamp", "dis_itemPrice" : 15.5, "dis_itemQuanitty" : 2,
    "dis_parts" : [
      {"dis_partName" : "bulb", "dis_partQuantity" : 3}]}]}}"#;

fn paths(db: &FsdmDatabase) -> Vec<(String, String)> {
    db.dataguide("po").unwrap().rows().into_iter().map(|r| (r.path, r.type_str)).collect()
}

#[test]
fn tables_1_through_6_dataguide_evolution() {
    let mut db = FsdmDatabase::new();
    db.create_collection("po", CollectionOptions::default()).unwrap();
    db.put("po", DOC1).unwrap();
    db.put("po", DOC2).unwrap();

    // Table 2: exactly seven rows
    let p = paths(&db);
    assert_eq!(p.len(), 7, "{p:#?}");
    assert!(p.contains(&("$.purchaseOrder.items.price".into(), "array of number".into())));

    // Table 4: DOC3 adds exactly four rows (deeper + wider)
    db.put("po", DOC3).unwrap();
    let p = paths(&db);
    assert_eq!(p.len(), 11, "{p:#?}");
    assert!(p.contains(&("$.purchaseOrder.items.parts".into(), "array of array".into())));
    assert!(p.contains(&("$.purchaseOrder.foreign_id".into(), "string".into())));

    // Table 6: DOC4 adds exactly seven rows (sibling hierarchy)
    db.put("po", DOC4).unwrap();
    let p = paths(&db);
    assert_eq!(p.len(), 18, "{p:#?}");
    assert!(p.contains(&(
        "$.purchaseOrder.discount_items.dis_parts.dis_partName".into(),
        "array of string".into()
    )));
}

#[test]
fn table7_virtual_columns_and_table8_dmdv() {
    let mut db = FsdmDatabase::new();
    db.create_collection("po", CollectionOptions::default()).unwrap();
    for d in [DOC1, DOC2, DOC3, DOC4] {
        db.put("po", d).unwrap();
    }
    let schema = db.infer_relational_schema("po").unwrap();

    // Table 7: the three singleton scalars become virtual columns
    for vc in ["jdoc$id", "jdoc$podate", "jdoc$foreign_id"] {
        assert!(
            schema.virtual_columns.contains(&vc.to_string()),
            "{vc} missing from {:?}",
            schema.virtual_columns
        );
    }

    // Table 8 semantics over the generated DMDV:
    // DOC1: 2 items; DOC2: 2 items; DOC3: 2 items × 2 parts = 4;
    // DOC4: union join → 1 discount row. Total = 9.
    let r = db.sql("select * from po_dmdv").unwrap();
    assert_eq!(r.rows.len(), 9, "{:?}", r.rows.len());

    // union join: discount rows have NULL item columns and vice versa
    let name_col = r.col("jdoc$name").unwrap();
    let dis_col = r.col("jdoc$dis_itemName").unwrap();
    for row in &r.rows {
        assert!(
            row[name_col].is_null() || row[dis_col].is_null(),
            "sibling hierarchies must never populate the same row"
        );
    }

    // master fields repeat for every detail row (left outer join)
    let q = db.sql("select count(*) from po_dmdv where \"jdoc$podate\" = '2015-06-03'").unwrap();
    assert_eq!(q.rows[0][0], Datum::from(4i64));
}

#[test]
fn queries_equivalent_across_all_storages() {
    use fsdm::store::JsonStorage;
    let mut results = Vec::new();
    for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
        let mut db = FsdmDatabase::new();
        db.create_collection("po", CollectionOptions { storage, ..Default::default() }).unwrap();
        for d in [DOC1, DOC2, DOC3, DOC4] {
            db.put("po", d).unwrap();
        }
        db.infer_relational_schema("po").unwrap();
        let r1 = db.sql("select count(*) from po_dmdv where \"jdoc$price\" > 100").unwrap();
        let r2 = db
            .sql("select count(*) from po where json_exists(jdoc, '$.purchaseOrder.items[*]?(@.quantity >= 10)')")
            .unwrap();
        let r3 = db.sql("select \"jdoc$id\" from po_mv order by \"jdoc$id\" desc").unwrap();
        results.push((r1, r2, r3.rows.len()));
    }
    assert_eq!(results[0], results[1], "text vs bson");
    assert_eq!(results[0], results[2], "text vs oson");
}

#[test]
fn partial_update_roundtrip_through_collection() {
    // update a leaf in place in OSON storage and observe via SQL
    use fsdm::store::{Cell, JsonCell};
    let mut db = FsdmDatabase::new();
    db.create_collection("po", CollectionOptions::default()).unwrap();
    db.put("po", DOC1).unwrap();
    {
        let table = db.engine_mut().table_mut("po").unwrap();
        let Cell::J(JsonCell::Oson(bytes)) = &table.rows()[0][1] else {
            panic!("expected OSON cell");
        };
        let mut buf = bytes.as_ref().clone();
        let doc = fsdm::oson::OsonDoc::new(&buf).unwrap();
        use fsdm::json::{field_hash, JsonDom};
        let po = doc.get_field(doc.root(), "purchaseOrder", field_hash("purchaseOrder")).unwrap();
        let id = doc.get_field(po, "id", field_hash("id")).unwrap();
        let out =
            fsdm::oson::update_scalar(&mut buf, id, &fsdm::json::parse("42").unwrap()).unwrap();
        assert_eq!(out, fsdm::oson::UpdateOutcome::Updated);
        table.set_json_cell(0, 1, JsonCell::Oson(std::sync::Arc::new(buf))).unwrap();
    }
    let r =
        db.sql("select json_value(jdoc, '$.purchaseOrder.id' returning number) from po").unwrap();
    assert_eq!(r.rows[0][0], Datum::from(42i64));
}
