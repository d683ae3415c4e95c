//! `fsdm-dataguide`: the JSON DataGuide (§3 of the paper) — an
//! automatically computed, continuously evolving *soft schema* over a JSON
//! collection.
//!
//! A DataGuide for one document is the container-node skeleton of its DOM
//! tree with leaf scalars replaced by type and length; the DataGuide of a
//! collection is the merge-union of instance guides, where duplicate tree
//! paths collapse when node types agree, paths with different node types
//! stay distinct, conflicting scalar types generalize (to `string`), and
//! lengths take the maximum (§3.1).
//!
//! The guide materializes in two forms (§3.2.2): the **flat** form — the
//! rows of the `$DG` table (path, type, statistics) — and the
//! **hierarchical** form, a single JSON document with `o:`-prefixed
//! annotations that users can edit and feed back into the view generator.
//!
//! On top of the guide sit the §3.3 services: [`views::add_vc`]
//! (`AddVC()`) derives `JSON_VALUE` virtual columns for singleton scalars,
//! and [`views::create_view_on_path`] (`CreateViewOnPath()`) generates the
//! de-normalized master-detail view (DMDV) as a `JSON_TABLE()` definition
//! plus its SQL text — child arrays un-nest with left-outer-join
//! semantics, sibling arrays with union joins.

pub mod guide;
pub mod hierarchical;
pub mod signature;
pub mod views;

/// How `$DG` renders one field step of a path (`.name`, or `."a name"`):
/// the search index that hosts `$DG` renders its paths by the same rule.
pub use fsdm_sqljson::path::path_step_text;
pub use guide::{DataGuide, DgRow, GuideNode, ScalarKind};
pub use signature::{structure_signature, GuideMaintainer};
pub use views::{add_vc, create_view_on_path, ColumnOverride, ViewDef, VirtualColumnDef};
