//! The failpoint name catalog: every name the workspace may pass to
//! [`crate::fire`] is declared here, once, in the `failpoints!` list.
//!
//! The list declares both the [`Failpoint`] constants and [`ALL`], so a
//! constant that never reaches `ALL` cannot exist. Only this module
//! constructs a [`Failpoint`], so `fire` with a string literal or an
//! undeclared name does not compile. Names are dotted `lower_snake_case`
//! and the list is in ascending name order (the unit tests below assert
//! both). Arming ([`crate::arm`]) takes a name from tests or the
//! `FSDM_FAILPOINTS` schedule and rejects names not in `ALL` at runtime,
//! so a typo fails loudly instead of silently never firing.

use std::fmt;

/// A declared failpoint name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Failpoint(&'static str);

impl Failpoint {
    /// The dotted name, as `FSDM_FAILPOINTS` spells it.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for Failpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Declares each failpoint constant and [`ALL`] from one list.
macro_rules! failpoints {
    ($($(#[$doc:meta])* $name:ident = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: Failpoint = Failpoint($value);)*

        /// Every declared failpoint, in declaration (= ascending) order.
        pub const ALL: &[Failpoint] = &[$($name,)*];
    };
}

failpoints! {
    /// Per-partial group-by accumulation inside the morsel closure.
    FP_EXEC_GROUPBY_PARTIAL = "exec.groupby.partial";
    /// Hash-join build side, once per build morsel.
    FP_EXEC_JOIN_BUILD = "exec.join.build";
    /// JSON_TABLE row-buffer production, once per output morsel.
    FP_EXEC_JSONTABLE_ROW = "exec.jsontable.row";
    /// Generic scan/filter morsel body — the highest-traffic point.
    FP_EXEC_MORSEL = "exec.morsel";
    /// Sort permutation apply, once per sort.
    FP_EXEC_SORT_PERMUTE = "exec.sort.permute";
    /// Row-predicate evaluation (`Expr::matches_with`), once per row.
    FP_EXPR_EVAL = "expr.eval";
    /// `Table::insert`, once per row, before any table state changes.
    FP_INGEST_PUT = "ingest.put";
    /// Vectorized columnar gather (`Batch::gather`), once per batch.
    FP_VECTOR_BATCH = "vector.batch";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for point in ALL {
            assert!(seen.insert(point), "duplicate failpoint name {point}");
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
        for point in ALL {
            let name = point.name();
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
