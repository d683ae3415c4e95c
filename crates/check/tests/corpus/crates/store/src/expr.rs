//! Corpus fixture: retired `no-interior-mut` (a build-time `Send + Sync`
//! assertion now) and `panic-isolation` (`clippy::disallowed_methods`).

use std::cell::RefCell;

fn planted() -> i32 {
    std::panic::catch_unwind(|| 1).unwrap_or(0)
}
