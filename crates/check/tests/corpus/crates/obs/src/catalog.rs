//! Corpus fixture: the metric catalog. `PLANTED_MISSING` never reaches
//! `ALL`, which the real catalog's one `catalog!` list rules out; the
//! duplicate value, the unsorted pair and the stray `ALL` entry are what
//! the catalog's own unit tests assert since the audit.

pub const ALPHA: &str = "a.alpha";
pub const BETA: &str = "b.beta";
pub const BETA_AGAIN: &str = "b.beta";
pub const AARDVARK: &str = "a.aardvark";
pub const PLANTED_MISSING: &str = "z.missing";

pub const ALL: &[&str] = &[
    ALPHA,
    BETA,
    BETA_AGAIN,
    AARDVARK,
    STRAY,
];
