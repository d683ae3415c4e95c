//! The syntax layer under the source rules and the concurrency facts:
//! a comment-, string- and raw-string-aware scanner, and an item parser
//! that knows which lines belong to which function. Both passes read
//! sources through it, so they cannot drift in how they classify text.

pub mod items;
pub mod scan;

pub use items::{line_idents, next_non_ws, parse_items, prev_non_ws, FnItem, Items};
pub use scan::{scan, Class, Scan};
