//! `fsdm`: umbrella crate re-exporting the whole FSDM stack.
//!
//! This workspace reproduces "Closing the Functional and Performance Gap
//! between SQL and NoSQL" (SIGMOD 2016): the OSON binary JSON format, the
//! JSON DataGuide dynamic soft schema, SQL/JSON query processing, and the
//! in-memory store integration. Start with [`FsdmDatabase`].

pub use fsdm_core::*;

/// Semantic static analysis of SQL/JSON queries (FA001–FA007).
pub use fsdm_analyze as analyze;
/// BSON baseline codec.
pub use fsdm_bson as bson;
/// The JSON DataGuide.
pub use fsdm_dataguide as dataguide;
/// Catalog-checked failpoint registry for deterministic fault injection.
pub use fsdm_fault as fault;
/// The JSON search index.
pub use fsdm_index as index;
/// The JSON substrate: value model, parser, serializer, OraNum.
pub use fsdm_json as json;
/// Zero-dependency metrics + query profiling.
pub use fsdm_obs as obs;
/// The OSON binary format.
pub use fsdm_oson as oson;
/// The SQL front end.
pub use fsdm_sql as sql;
/// SQL/JSON path language and operators.
pub use fsdm_sqljson as sqljson;
/// The relational engine.
pub use fsdm_store as store;
/// Workload generators.
pub use fsdm_workloads as workloads;
