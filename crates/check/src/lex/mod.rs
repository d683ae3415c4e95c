//! The syntax layer under the concurrency facts: a comment-, string- and
//! raw-string-aware scanner, and an item parser that knows which lines
//! belong to which function.

pub mod items;
pub mod scan;

pub use items::{line_idents, parse_items, FnItem, Items};
pub use scan::{scan, Scan};
