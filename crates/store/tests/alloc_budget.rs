//! The allocation budget of a statement's result rows, as a deterministic
//! gate: a fused root pipeline writes each result value once. A
//! projected `JSON_VALUE … RETURNING varchar2` costs two allocations per
//! result row — the string its extraction produces, which the gather
//! moves out of the morsel's transient column, and the row — and a
//! `RETURNING number` one, the row; everything else is a constant per
//! morsel and per statement. Measured at degree 1 over two table sizes
//! with the same number of morsels, so the difference is the per-row
//! slope exactly.
//!
//! Its own test binary: the counting allocator below replaces the global
//! one. It, its twins in `crates/{index,sqljson}/tests/alloc_budget.rs`
//! and the live-byte counter in `crates/bench/tests/set_heap_size.rs` are
//! the only `unsafe` in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsdm_sqljson::{parse_path, SqlType};
use fsdm_store::table::InsertValue;
use fsdm_store::{
    ColType, ColumnSpec, ConstraintMode, Database, Expr, JsonStorage, Query, Table, TableSchema,
};
use fsdm_workloads::nobench;
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // a thread being torn down no longer counts
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the only addition
// is a counter in a const-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` NOBENCH documents as the checked text column of table `nobench`,
/// with the OSON-IMC populated when `imc` is set, run at degree 1 in
/// `MORSELS` morsels.
fn nobench(n: usize, imc: bool) -> Database {
    let mut rng = StdRng::seed_from_u64(42);
    let mut t = Table::new(TableSchema::new(
        "nobench",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Text, ConstraintMode::IsJson),
        ],
    ));
    for i in 0..n {
        let text = fsdm_json::to_string(&nobench::doc(&mut rng, i));
        t.insert(vec![(i as i64).into(), InsertValue::Json(text)]).unwrap();
    }
    if imc {
        t.populate_oson_imc().unwrap();
    }
    let mut db = Database::new();
    db.add_table(t);
    db.set_parallelism(1);
    db.set_morsel_rows(n / MORSELS);
    db
}

const MORSELS: usize = 4;
const SIZES: [usize; 2] = [400, 800];

/// `select json_value(jdoc, '<path>' returning <ty>) from nobench`.
fn project(path: &str, ty: SqlType) -> Query {
    Query::scan("nobench").project(vec![("v", Expr::json_value(1, parse_path(path).unwrap(), ty))])
}

/// Allocations per result row of `plan`: the slope between the two table
/// sizes, which run the same number of morsels.
fn per_row(imc: bool, plan: &Query) -> f64 {
    let counts: Vec<u64> = SIZES
        .iter()
        .map(|&n| {
            let db = nobench(n, imc);
            // lazily built process state is built outside the count
            db.execute(plan).unwrap();
            let mut rows = 0;
            let allocations = allocations_of(|| rows = db.execute(plan).unwrap().rows.len());
            assert_eq!(rows, n, "one result row per document");
            allocations
        })
        .collect();
    (counts[1] - counts[0]) as f64 / (SIZES[1] - SIZES[0]) as f64
}

/// One test, so nothing else in this binary allocates beside it.
#[test]
fn a_result_value_is_written_once() {
    let text = project("$.str1", SqlType::Varchar2(64));
    let number = project("$.num", SqlType::Number);
    for imc in [false, true] {
        assert_eq!(per_row(imc, &text), 2.0, "imc={imc}: the string and the row");
        assert_eq!(per_row(imc, &number), 1.0, "imc={imc}: the row");
    }
}
