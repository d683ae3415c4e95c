//! Corpus fixture: an executor-crate file (`no-interior-mut` applies)
//! that is not the panic boundary (`panic-isolation` applies).

use std::cell::RefCell;

fn planted() -> i32 {
    std::panic::catch_unwind(|| 1).unwrap_or(0)
}
