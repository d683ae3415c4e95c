//! The transient DataGuide as a SQL aggregate function (§3.4):
//! `JSON_DATAGUIDEAGG()`.
//!
//! Implemented with the classic user-defined-aggregation shape from the
//! ORDBMS lineage the paper cites: `initialize` / `iterate` / `merge`
//! (for parallel partials) / `terminate`. The relational engine drives it
//! — it is the state of `fsdm-store`'s `AggFun::DataGuide` accumulator,
//! fed by a `GroupBy` like any aggregate — over any row set, including
//! sampled, filtered or grouped subsets (Table 9's Q1 through Q3), and
//! the result is a single JSON document in flat or hierarchical form.

use fsdm_json::JsonValue;

use crate::guide::DataGuide;
use crate::hierarchical::{to_flat_json, to_hierarchical_json};

/// Output form of the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuideFormat {
    /// Flat `$DG`-row array (Oracle's `DBMS_JSON.FORMAT_FLAT`).
    #[default]
    Flat,
    /// Hierarchical JSON-schema-like document.
    Hierarchical,
}

/// Aggregation state for `JSON_DATAGUIDEAGG()`.
#[derive(Debug, Clone, Default)]
pub struct DataGuideAgg {
    guide: DataGuide,
    format: GuideFormat,
}

impl DataGuideAgg {
    /// `initialize`: fresh aggregation state.
    pub fn new(format: GuideFormat) -> Self {
        DataGuideAgg { guide: DataGuide::new(), format }
    }

    /// `iterate`: absorb one JSON document.
    pub fn iterate(&mut self, doc: &JsonValue) {
        self.guide.add_document(doc);
    }

    /// `merge`: combine a parallel partial into this state.
    pub fn merge(&mut self, other: &DataGuideAgg) {
        self.guide.merge(&other.guide);
    }

    /// `terminate`: produce the DataGuide as a single JSON document.
    pub fn terminate(&self) -> JsonValue {
        match self.format {
            GuideFormat::Flat => to_flat_json(&self.guide),
            GuideFormat::Hierarchical => to_hierarchical_json(&self.guide),
        }
    }

    /// The underlying guide (for callers that want rows/views rather than
    /// the JSON rendering).
    pub fn guide(&self) -> &DataGuide {
        &self.guide
    }

    /// Documents aggregated so far.
    pub fn count(&self) -> u64 {
        self.guide.doc_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    fn docs() -> Vec<JsonValue> {
        (0..20)
            .map(|i| {
                let extra =
                    if i % 4 == 0 { format!(",\"sparse_{i}\":true") } else { String::new() };
                parse(&format!(r#"{{"id":{i},"name":"d{i}"{extra}}}"#)).unwrap()
            })
            .collect()
    }

    #[test]
    fn iterate_then_terminate_flat() {
        let mut agg = DataGuideAgg::new(GuideFormat::Flat);
        for d in docs() {
            agg.iterate(&d);
        }
        assert_eq!(agg.count(), 20);
        let out = agg.terminate();
        let rows = out.as_array().unwrap();
        // id, name + 5 sparse fields
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn parallel_merge_equals_serial() {
        let all = docs();
        let mut serial = DataGuideAgg::new(GuideFormat::Flat);
        for d in &all {
            serial.iterate(d);
        }
        let mut left = DataGuideAgg::new(GuideFormat::Flat);
        let mut right = DataGuideAgg::new(GuideFormat::Flat);
        for (i, d) in all.iter().enumerate() {
            if i % 2 == 0 {
                left.iterate(d);
            } else {
                right.iterate(d);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), serial.count());
        assert_eq!(left.guide().rows(), serial.guide().rows());
    }

    #[test]
    fn hierarchical_output() {
        let mut agg = DataGuideAgg::new(GuideFormat::Hierarchical);
        agg.iterate(&parse(r#"{"a":{"b":[1,2]}}"#).unwrap());
        let out = agg.terminate();
        assert!(out.get("properties").unwrap().get("a").is_some());
    }

    #[test]
    fn empty_aggregate() {
        let agg = DataGuideAgg::new(GuideFormat::Flat);
        assert_eq!(agg.terminate(), JsonValue::Array(vec![]));
    }
}
