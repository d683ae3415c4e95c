//! The failpoint name catalog: every name the workspace may pass to
//! [`crate::fire`] is declared here as a `pub const`, mirrored in [`ALL`].
//!
//! The same discipline the obs crate applies to metric and span names
//! applies here: names are dotted `lower_snake_case`, the constants are
//! declared in ascending name order, and `ALL` lists them in declaration
//! order. fsdm-check cross-checks this file (diagnostic SN008): a
//! `fire` call site outside `crates/fault` must pass one of these
//! constants — a string literal or an undeclared identifier is flagged,
//! and a constant missing from `ALL` (or a duplicate) is a catalog bug.
//! Arming (`crate::arm`) rejects names not present in `ALL` at runtime,
//! so a typo in an `FSDM_FAILPOINTS` schedule fails loudly instead of
//! silently never firing.

/// Per-partial group-by accumulation inside the morsel closure.
pub const FP_EXEC_GROUPBY_PARTIAL: &str = "exec.groupby.partial";
/// Hash-join build side, once per build morsel.
pub const FP_EXEC_JOIN_BUILD: &str = "exec.join.build";
/// JSON_TABLE row-buffer production, once per output morsel.
pub const FP_EXEC_JSONTABLE_ROW: &str = "exec.jsontable.row";
/// Generic scan/filter morsel body — the highest-traffic point.
pub const FP_EXEC_MORSEL: &str = "exec.morsel";
/// Sort permutation apply, once per sort.
pub const FP_EXEC_SORT_PERMUTE: &str = "exec.sort.permute";
/// Row-predicate evaluation (`Expr::matches_with`), once per row.
pub const FP_EXPR_EVAL: &str = "expr.eval";
/// `Table::insert`, once per row, before any table state changes.
pub const FP_INGEST_PUT: &str = "ingest.put";
/// Vectorized columnar gather (`Batch::gather`), once per batch.
pub const FP_VECTOR_BATCH: &str = "vector.batch";

/// Every declared failpoint name, in declaration (= ascending) order.
pub const ALL: &[&str] = &[
    FP_EXEC_GROUPBY_PARTIAL,
    FP_EXEC_JOIN_BUILD,
    FP_EXEC_JSONTABLE_ROW,
    FP_EXEC_MORSEL,
    FP_EXEC_SORT_PERMUTE,
    FP_EXPR_EVAL,
    FP_INGEST_PUT,
    FP_VECTOR_BATCH,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate failpoint name {name}");
        }
    }

    #[test]
    fn names_are_sorted() {
        for pair in ALL.windows(2) {
            assert!(pair[0] < pair[1], "{} must sort before {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn names_follow_the_dotted_convention() {
        for name in ALL {
            let parts: Vec<&str> = name.split('.').collect();
            assert!(parts.len() >= 2, "{name} needs at least two dotted parts");
            for part in parts {
                assert!(!part.is_empty(), "{name} has an empty dotted part");
                assert!(
                    part.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{name} must be dotted lower_snake_case"
                );
            }
        }
    }
}
