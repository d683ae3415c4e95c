//! Corpus fixture: a failpoint catalog that drifted from the compiled
//! `fsdm_fault::catalog::ALL` (SN008, twice: the constant is unknown and
//! the counts disagree).

pub const FP_PLANTED: &str = "planted.point";

pub const ALL: &[&str] = &[FP_PLANTED];
