//! Regression test for the §4.2.1 cross-document look-back cache.
//!
//! Over a homogeneous NoBench-style collection (every document encoded
//! from the same shape, hence the same OSON field-id dictionary) the
//! evaluator must resolve nearly every field step from the cached field
//! id: ≥ 90% `sqljson.lookback.hit` rate. Over a heterogeneous
//! collection alternating between two unrelated shapes, consecutive
//! documents invalidate the cache and misses must dominate.
//!
//! This file holds a single test on purpose: it asserts exact deltas of
//! the process-global metric cells, so it must not share its test
//! binary (= process) with other metric-recording tests.

use fsdm_oson::OsonDoc;
use fsdm_sqljson::{parse_path, PathEvaluator};

fn encode(text: &str) -> Vec<u8> {
    fsdm_oson::encode(&fsdm_json::parse(text).unwrap()).unwrap()
}

#[test]
fn lookback_hits_on_homogeneous_misses_on_heterogeneous() {
    let path = parse_path("$.nested_obj.num").unwrap();

    // -- homogeneous: 100 docs, one shape (NoBench-style field names) --
    let homo: Vec<Vec<u8>> = (0..100)
        .map(|i| {
            encode(&format!(
                r#"{{"str1":"s{i}","num":{i},"bool":true,
                    "nested_obj":{{"str":"x","num":{i}}}}}"#
            ))
        })
        .collect();
    let before = fsdm_obs::snapshot();
    let mut ev = PathEvaluator::new(path.clone());
    let mut matched = 0usize;
    for bytes in &homo {
        let doc = OsonDoc::new(bytes).unwrap();
        matched += ev.evaluate_values(&doc).len();
    }
    assert_eq!(matched, 100, "every document has $.nested_obj.num");
    // instance counters: 2 field steps; only the first document resolves
    // against the dictionary, the other 99 reuse the cached field ids
    assert_eq!(ev.lookback_hits(), 198);
    assert_eq!(ev.lookback_misses(), 2);
    // the same numbers must flow into the catalog's cells
    let delta = fsdm_obs::snapshot().diff(&before);
    assert_eq!(delta.counter("sqljson.lookback.hit"), 198);
    assert_eq!(delta.counter("sqljson.lookback.miss"), 2);
    let hit = delta.counter("sqljson.lookback.hit") as f64;
    let total = hit + delta.counter("sqljson.lookback.miss") as f64;
    assert!(
        hit / total >= 0.90,
        "homogeneous look-back hit rate {:.1}% < 90%",
        100.0 * hit / total
    );
    assert_eq!(delta.counter("sqljson.eval.paths"), 100);

    // -- heterogeneous: alternating shapes => different dictionaries --
    let hetero: Vec<Vec<u8>> = (0..100)
        .map(|i| {
            if i % 2 == 0 {
                encode(&format!(r#"{{"str1":"a","num":{i},"nested_obj":{{"str":"x","num":{i}}}}}"#))
            } else {
                encode(&format!(
                    r#"{{"extra_a":1,"extra_b":2,"extra_c":3,"zz":9,
                        "nested_obj":{{"num":{i},"other":1,"deep":{{"w":0}}}}}}"#
                ))
            }
        })
        .collect();
    let before = fsdm_obs::snapshot();
    let mut ev = PathEvaluator::new(path);
    let mut matched = 0usize;
    for bytes in &hetero {
        let doc = OsonDoc::new(bytes).unwrap();
        matched += ev.evaluate_values(&doc).len();
    }
    assert_eq!(matched, 100);
    let delta = fsdm_obs::snapshot().diff(&before);
    assert_eq!(delta.counter("sqljson.lookback.hit"), ev.lookback_hits());
    assert_eq!(delta.counter("sqljson.lookback.miss"), ev.lookback_misses());
    assert!(
        ev.lookback_misses() > ev.lookback_hits(),
        "heterogeneous collection must be miss-dominated: {} hits vs {} misses",
        ev.lookback_hits(),
        ev.lookback_misses()
    );
}
