//! Corpus fixture: a failpoint catalog that drifted from the compiled
//! `fsdm_fault::catalog::ALL` (retired SN008, twice), which the real
//! catalog's one `failpoints!` list rules out.

pub const FP_PLANTED: &str = "planted.point";

pub const ALL: &[&str] = &[FP_PLANTED];
