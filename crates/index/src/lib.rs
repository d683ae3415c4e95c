//! `fsdm-index`: the schema-agnostic JSON search index (§3.2).
//!
//! A general-purpose index created on a JSON column "by maintaining an
//! inverted index for every JSON field name and every leaf scalar value
//! (strings are tokenized into a set of keywords to support full-text
//! searches)". It accelerates ad-hoc `JSON_EXISTS` / `JSON_VALUE` /
//! `JSON_TEXTCONTAINS` predicates and — crucially for this paper — is the
//! natural host of the **persistent JSON DataGuide**: the `$DG` table is a
//! component of the index, maintained incrementally as documents are
//! added, removed, or replaced.
//!
//! DataGuide maintenance is integrated with document validation the way
//! §3.2.1 describes: a structure signature is computed per instance, and
//! when the signature has been seen before the guide-merge walk is skipped
//! entirely (the "common case" fast path measured by Figures 7–8).

pub mod inverted;

pub use inverted::{DocId, SearchIndex};

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    #[test]
    fn end_to_end_index_usage() {
        let mut ix = SearchIndex::new();
        ix.insert(1, &parse(r#"{"po":{"id":1,"note":"Fast shipping requested"}}"#).unwrap());
        ix.insert(2, &parse(r#"{"po":{"id":2,"note":"gift wrap"}}"#).unwrap());
        ix.insert(3, &parse(r#"{"po":{"id":3},"extra":true}"#).unwrap());

        assert_eq!(ix.docs_with_path("$.extra"), vec![3]);
        assert_eq!(ix.docs_with_value("$.po.id", "2"), vec![2]);
        assert_eq!(ix.docs_text_contains("$.po.note", "shipping"), vec![1]);
        assert_eq!(ix.dataguide().doc_count, 3);
        assert!(ix.dataguide().distinct_paths() >= 4);
    }
}
