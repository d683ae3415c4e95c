//! The steady-state allocation budgets of the two path engines, as
//! deterministic gates: once its buffers have grown to a collection's
//! shape, one text pass over a document allocates only for the strings it
//! keeps — no key, skipped value or position costs an allocation — and
//! the DOM engine allocates nothing at all over OSON or BSON.
//!
//! Its own test binary: the counting allocator below replaces the global
//! one. The count is per thread, so the tests here do not see each
//! other. It and its twin in `crates/index/tests/alloc_budget.rs` are the
//! only `unsafe` in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt::Write as _;

use fsdm_json::JsonDom;
use fsdm_sqljson::ops::{json_exists, json_value, OnError};
use fsdm_sqljson::streaming::{TextPass, Want};
use fsdm_sqljson::{parse_path, Datum, PathEvaluator, SqlType};

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

/// SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn word(state: &mut u64, len: usize) -> String {
    (0..len).map(|_| char::from(b'a' + (next(state) % 26) as u8)).collect()
}

/// The `i`-th NOBENCH text, shaped as the benchmark's generator shapes
/// it: common fields, `dyn1`/`dyn2` of alternating types, a nested object
/// and array, and one cluster of ten of the thousand sparse fields.
fn nobench(state: &mut u64, i: usize) -> String {
    let mut o = format!(r#"{{"str1":"{}","str2":"{}","num":{i}"#, word(state, 12), word(state, 12));
    let _ = write!(o, r#","bool":{}"#, i.is_multiple_of(2));
    if i.is_multiple_of(2) {
        let _ = write!(o, r#","dyn1":{i},"dyn2":"{}""#, word(state, 8));
    } else {
        let _ = write!(o, r#","dyn1":"{i:08}","dyn2":{i}"#);
    }
    let _ =
        write!(o, r#","nested_obj":{{"str":"{}","num":{}}}"#, word(state, 10), next(state) % 1000);
    let arr: Vec<String> =
        (0..2 + next(state) % 4).map(|_| format!("\"{}\"", word(state, 8))).collect();
    let _ = write!(o, r#","nested_arr":[{}],"thousandth":{}"#, arr.join(","), i % 1000);
    let cluster = (i % 100) * 10;
    for s in cluster..cluster + 10 {
        let _ = write!(o, r#","sparse_{s:03}":"{}""#, word(state, 8));
    }
    o.push('}');
    o
}

const WARM_UP: usize = 200;
const MEASURED: usize = 1000;

#[test]
fn a_pass_allocates_once_per_kept_string() {
    let mut state = 42;
    let docs: Vec<String> = (0..WARM_UP + MEASURED).map(|i| nobench(&mut state, i)).collect();
    let (warm_up, measured) = docs.split_at(WARM_UP);
    let paths = [
        (parse_path("$.sparse_110").unwrap(), Want::Exists),
        (parse_path("$.str1").unwrap(), Want::Value(SqlType::Any)),
        (parse_path("$.num").unwrap(), Want::Value(SqlType::Number)),
    ];
    let mut pass = TextPass::new(paths.iter().map(|(p, w)| (Cow::Borrowed(p), *w)));
    let mut run = |doc: &str| -> [Datum; 3] {
        pass.run(doc).expect("generated JSON");
        [pass.take(0), pass.take(1), pass.take(2)]
    };
    for doc in warm_up {
        run(doc);
    }
    let (mut kept_strings, mut found) = (0, 0);
    let passing = allocations_of(|| {
        for (i, doc) in measured.iter().enumerate() {
            let [sparse, str1, num] = run(doc);
            assert_eq!(num, Datum::from((WARM_UP + i) as i64));
            found += usize::from(sparse == Datum::Bool(true));
            kept_strings += usize::from(matches!(str1, Datum::Str(_)));
        }
    });
    assert_eq!((kept_strings, found), (MEASURED, MEASURED / 100), "every str1, one cluster in 100");
    assert!(
        passing <= kept_strings as u64,
        "{passing} allocations for {MEASURED} passes keeping {kept_strings} strings"
    );
}

/// NOBENCH Q8's two filters and two scalar `JSON_VALUE`s, each through
/// its own evaluator, over every document `open` makes of an encoding.
fn dom_engine_allocations<'a, D: JsonDom>(
    encoded: &'a [Vec<u8>],
    open: impl Fn(&'a [u8]) -> D,
) -> u64 {
    let mut filters = ["$.nested_arr?(@ == \"notpresent\")", "$.nested_arr?(@ starts with \"a\")"]
        .map(|p| PathEvaluator::new(parse_path(p).unwrap()));
    let mut values =
        ["$.num", "$.nested_obj.num"].map(|p| PathEvaluator::new(parse_path(p).unwrap()));
    let mut run = |bytes: &'a [u8]| -> (bool, bool, Datum, Datum) {
        let dom = open(bytes);
        let [absent, starts] = &mut filters;
        let [num, nested] = &mut values;
        (
            json_exists(&dom, absent),
            json_exists(&dom, starts),
            json_value(&dom, num, SqlType::Number, OnError::Null).unwrap(),
            json_value(&dom, nested, SqlType::Number, OnError::Null).unwrap(),
        )
    };
    let (warm_up, measured) = encoded.split_at(WARM_UP);
    for bytes in warm_up {
        run(bytes);
    }
    let mut starts_with_a = 0;
    let allocations = allocations_of(|| {
        for (i, bytes) in measured.iter().enumerate() {
            let (absent, starts, num, nested) = run(bytes);
            assert!(!absent);
            assert_eq!(num, Datum::from((WARM_UP + i) as i64));
            assert!(matches!(nested, Datum::Num(_)));
            starts_with_a += usize::from(starts);
        }
    });
    assert!(starts_with_a > 0, "some nested_arr holds a word starting with a");
    allocations
}

#[test]
fn the_dom_engine_allocates_nothing_per_document() {
    let mut state = 42;
    let docs: Vec<fsdm_json::JsonValue> = (0..WARM_UP + MEASURED)
        .map(|i| fsdm_json::parse(&nobench(&mut state, i)).unwrap())
        .collect();
    let oson: Vec<Vec<u8>> = docs.iter().map(|d| fsdm_oson::encode(d).unwrap()).collect();
    let bson: Vec<Vec<u8>> = docs.iter().map(|d| fsdm_bson::encode(d).unwrap()).collect();
    let over_oson = dom_engine_allocations(&oson, |b| fsdm_oson::OsonDoc::new(b).unwrap());
    let over_bson = dom_engine_allocations(&bson, |b| fsdm_bson::BsonDoc::new(b).unwrap());
    let per_doc = |n: u64| n as f64 / MEASURED as f64;
    assert!(
        over_oson == 0 && over_bson == 0,
        "{} allocations per document over OSON, {} over BSON ({MEASURED} documents, four paths)",
        per_doc(over_oson),
        per_doc(over_bson)
    );
}
