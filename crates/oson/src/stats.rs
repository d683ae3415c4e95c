//! Per-segment size statistics (reproduces Table 11's measurement).

use crate::doc::OsonDoc;
use crate::Result;

/// Byte sizes of the three OSON segments (plus fixed header) for one
/// encoded instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Header bytes (magic, flags, segment directory).
    pub header: usize,
    /// Field-id-name dictionary segment (hash-id array + names blob).
    pub dictionary: usize,
    /// Tree-node navigation segment.
    pub tree: usize,
    /// Leaf-scalar-value segment.
    pub values: usize,
}

impl SegmentStats {
    /// Measure an encoded OSON buffer (or a set member, whose dictionary
    /// segment is empty).
    pub fn of(bytes: &[u8]) -> Result<SegmentStats> {
        // `new` has checked that the segments tile the buffer in order
        let doc = OsonDoc::new(bytes)?;
        Ok(SegmentStats {
            header: doc.hash_arr,
            dictionary: doc.tree - doc.hash_arr,
            tree: doc.values - doc.tree,
            values: bytes.len() - doc.values,
        })
    }

    /// Total encoded size.
    pub fn total(&self) -> usize {
        self.header + self.dictionary + self.tree + self.values
    }

    /// Fraction of the total taken by the dictionary segment.
    pub fn dictionary_ratio(&self) -> f64 {
        self.dictionary as f64 / self.total() as f64
    }

    /// Fraction of the total taken by the tree-navigation segment.
    pub fn tree_ratio(&self) -> f64 {
        self.tree as f64 / self.total() as f64
    }

    /// Fraction of the total taken by the leaf-scalar-value segment.
    pub fn values_ratio(&self) -> f64 {
        self.values as f64 / self.total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode;
    use fsdm_json::parse;

    #[test]
    fn stats_sum_to_buffer_size() {
        let v = parse(r#"{"a":1,"b":[{"c":"x"},{"c":"y"}]}"#).unwrap();
        let bytes = encode(&v).unwrap();
        let s = SegmentStats::of(&bytes).unwrap();
        assert_eq!(s.total(), bytes.len());
        assert!(s.dictionary > 0 && s.tree > 0 && s.values > 0);
    }

    #[test]
    fn ratios_sum_near_one_minus_header() {
        let v = parse(r#"{"k1":"v1","k2":"v2"}"#).unwrap();
        let bytes = encode(&v).unwrap();
        let s = SegmentStats::of(&bytes).unwrap();
        let sum = s.dictionary_ratio() + s.tree_ratio() + s.values_ratio();
        assert!((sum + s.header as f64 / s.total() as f64 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repetitive_arrays_shrink_dictionary_share() {
        // a single object vs. 500 identically-shaped objects: the
        // dictionary is constant, so its share must collapse — the Table 11
        // TwitterMsgArchive/SensorData effect
        let one = parse(r#"[{"fieldname_one":1,"fieldname_two":2}]"#).unwrap();
        let many_text = format!(
            "[{}]",
            (0..500)
                .map(|i| format!(r#"{{"fieldname_one":{i},"fieldname_two":{i}}}"#))
                .collect::<Vec<_>>()
                .join(",")
        );
        let many = parse(&many_text).unwrap();
        let s1 = SegmentStats::of(&encode(&one).unwrap()).unwrap();
        let s2 = SegmentStats::of(&encode(&many).unwrap()).unwrap();
        assert!(s2.dictionary_ratio() < s1.dictionary_ratio() / 10.0);
    }

    #[test]
    fn rejects_non_oson() {
        assert!(SegmentStats::of(b"JSON").is_err());
    }
}
