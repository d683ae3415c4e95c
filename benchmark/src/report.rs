//! Metric names and units (they must agree with `BENCHMARK.json`) and the
//! result line the contract asks for.

use std::fmt::Write as _;

/// End-to-end metrics of an untraced run: name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("lat_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics of a traced run: name, unit.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("store.optimize_us", "us"),
    ("store.exec_ms", "ms"),
    ("store.columnar_op_share", "ratio"),
    ("store.rows_examined_per_row", "ratio"),
    ("store.imc_populate_ms", "ms"),
    ("sqljson.stream_us", "us"),
    ("sqljson.oson_eval_us", "us"),
    ("sqljson.lookback_hit_ratio", "ratio"),
    ("sqljson.json_table_us", "us"),
    ("sqljson.eval.paths", "count"),
    ("oson.encode_us", "us"),
    ("oson.decode_us", "us"),
    ("oson.node.lookups", "count"),
    ("oson.node.probes_per_lookup", "ratio"),
    ("json.parse_us", "us"),
    ("json.parse_mb_s", "MB/s"),
    ("dataguide.signature_us", "us"),
    ("dataguide.add_us", "us"),
    ("dataguide.fast_path_ratio", "ratio"),
    ("index.insert_us", "us"),
    ("index.postings_per_doc", "count"),
    ("index.lookup_us", "us"),
    ("trace.attributed_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The last line of a single-workload run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. `values` must name the metrics of
/// `table`, all of them and in its order.
pub fn result_line(
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let named: Vec<&str> = values.iter().map(|(name, _)| *name).collect();
    if !table.iter().map(|(name, _)| *name).eq(named.iter().copied()) {
        return Err(format!("metrics {named:?} are not those of {table:?}"));
    }
    let mut line = format!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#,
        failed == 0
    );
    for (i, ((name, unit), (_, value))) in table.iter().zip(values).enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let value = value + 0.0; // an empty sum is -0.0: print it as 0
        let sep = if i > 0 { ", " } else { "" };
        write!(line, r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            .expect("write to String");
    }
    line.push_str("}}");
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::JsonValue;

    #[test]
    fn result_line_is_the_contract_shape() {
        let values = |v: [f64; 5]| -> Vec<(&str, f64)> {
            END_TO_END.iter().map(|(name, _)| *name).zip(v).collect()
        };
        let line =
            result_line(12, 0, &END_TO_END, &values([0.5, 95.25, 1.5, 120.0, 1.01])).expect("line");
        let v = fsdm_json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v.as_object().expect("object").iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(|a| a.as_i64()), Some(12));
        let pass = v.get("metrics").and_then(|m| m.get("pass_ms")).expect("pass_ms");
        assert_eq!(pass.get("unit").and_then(|u| u.as_str()), Some("ms"));
        assert_eq!(pass.get("value").and_then(|x| x.as_number()).map(|n| n.to_f64()), Some(95.25));
        let failed = result_line(1, 1, &END_TO_END, &values([0.5; 5])).expect("line");
        assert!(failed.contains(r#""correct": false"#));
        assert!(result_line(1, 0, &END_TO_END, &values([f64::NAN; 5])).is_err());
        // a metric missing, or out of the table's order
        assert!(result_line(1, 0, &END_TO_END, &values([1.0; 5])[..4]).is_err());
        let mut swapped = values([1.0; 5]);
        swapped.swap(0, 1);
        assert!(result_line(1, 0, &END_TO_END, &swapped).is_err());
    }

    /// `BENCHMARK.json` at the repo root names the same workloads and
    /// metrics, with the same units, as this program prints.
    #[test]
    fn benchmark_json_agrees_with_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = fsdm_json::parse(&text).expect("valid JSON");
        let named = |key: &str, field: &str| -> Vec<String> {
            let list = v.get(key).and_then(|l| l.as_array()).expect("a list");
            list.iter()
                .map(|e| e.get(field).and_then(|n| n.as_str()).expect("a string").to_string())
                .collect()
        };
        assert_eq!(named("workloads", "name"), crate::harness::WORKLOADS);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = table.iter().map(|(_, u)| *u).collect();
            assert_eq!(named(key, "name"), names, "{key} names");
            assert_eq!(named(key, "unit"), units, "{key} units");
        }
    }
}
