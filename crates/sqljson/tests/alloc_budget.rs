//! The steady-state allocation budgets of the two path engines, as
//! deterministic gates: once its buffers have grown to a collection's
//! shape, one text pass over a document allocates only for the strings it
//! keeps — no key, skipped value, position or filter test on a token
//! costs an allocation — and the DOM engine allocates nothing at all over
//! OSON (an instance or a set member) or BSON: not for a filter's `@.name` operand per array element,
//! not for a `JSON_TABLE` cell, not for the NUMBER an arithmetic result
//! becomes.
//!
//! Its own test binary: the counting allocator below replaces the global
//! one. The count is per thread, so the tests here do not see each
//! other. It, its twins in `crates/{index,store}/tests/alloc_budget.rs`
//! and the live-byte counter in `crates/bench/tests/set_heap_size.rs` are
//! the only `unsafe` in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt::Write as _;

use fsdm_json::{JsonDom, OraNum};
use fsdm_sqljson::json_table::Ctx;
use fsdm_sqljson::ops::{json_exists, json_value, OnError};
use fsdm_sqljson::streaming::{TextPass, Want};
use fsdm_sqljson::{
    parse_path, ColumnDef, Datum, JsonTableCursor, JsonTableDef, PathEvaluator, SqlType,
};

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

/// The NOBENCH texts a measurement runs over: warm-up, then measured.
fn nobench_texts() -> Vec<String> {
    let mut state = 42;
    (0..WARM_UP + MEASURED).map(|i| nobench(&mut state, i)).collect()
}

/// Allocations of one pass of `paths` over each measured document,
/// `checked` or not, after a warm-up; each document's index and answers
/// are handed to `check`, which must not allocate.
fn pass_allocations(
    docs: &[String],
    paths: &[(&str, Want)],
    checked: bool,
    mut check: impl FnMut(usize, &[Datum]),
) -> u64 {
    let compiled: Vec<_> = paths.iter().map(|(p, w)| (parse_path(p).unwrap(), *w)).collect();
    let mut pass = TextPass::new(compiled.iter().map(|(p, w)| (Cow::Borrowed(p), *w)));
    let mut answers = Vec::with_capacity(paths.len());
    let mut run = |doc: &str, answers: &mut Vec<Datum>| {
        pass.run(doc, checked).expect("generated JSON");
        answers.clear();
        answers.extend((0..paths.len()).map(|i| pass.take(i)));
    };
    let (warm_up, measured) = docs.split_at(WARM_UP);
    for doc in warm_up {
        run(doc, &mut answers);
    }
    allocations_of(|| {
        for (i, doc) in measured.iter().enumerate() {
            run(doc, &mut answers);
            check(WARM_UP + i, &answers);
        }
    })
}

#[test]
fn a_pass_allocates_once_per_kept_string() {
    let docs = nobench_texts();
    let paths = [
        ("$.sparse_110", Want::Exists),
        ("$.str1", Want::Value(SqlType::Any)),
        ("$.num", Want::Value(SqlType::Number)),
    ];
    for checked in [false, true] {
        let (mut kept_strings, mut found) = (0, 0);
        let passing = pass_allocations(&docs, &paths, checked, |i, answers| {
            let [sparse, str1, num] = answers else { panic!("three answers") };
            assert!(*num == Datum::Num((i as i64).into()), "num of document {i}");
            found += usize::from(*sparse == Datum::Bool(true));
            kept_strings += usize::from(matches!(str1, Datum::Str(_)));
        });
        assert_eq!(
            (kept_strings, found),
            (MEASURED, MEASURED / 100),
            "every str1, one cluster in 100 (checked={checked})"
        );
        assert!(
            passing <= kept_strings as u64,
            "{passing} allocations for {MEASURED} passes keeping {kept_strings} strings \
             (checked={checked})"
        );
    }
}

/// Over checked text, NOBENCH Q3's `JSON_EXISTS` — settled by the name
/// test in 99 documents of 100 — and Q8's two filters, tested on the
/// tokens of `nested_arr`, allocate nothing.
#[test]
fn checked_q3_and_q8_passes_allocate_nothing() {
    let docs = nobench_texts();
    let mut found = 0;
    let q3 = [("$.sparse_110", Want::Exists)];
    let q3 = pass_allocations(&docs, &q3, true, |_, answers| {
        found += usize::from(answers == [Datum::Bool(true)]);
    });
    assert_eq!(found, MEASURED / 100, "one cluster in 100");
    let (mut absent, mut starts) = (0, 0);
    let q8 = [
        ("$.nested_arr?(@ == \"notpresent\")", Want::Exists),
        ("$.nested_arr?(@ starts with \"a\")", Want::Exists),
    ];
    let q8 = pass_allocations(&docs, &q8, true, |_, answers| {
        absent += usize::from(answers[0] == Datum::Bool(true));
        starts += usize::from(answers[1] == Datum::Bool(true));
    });
    assert!(absent == 0 && starts > 0, "Q8 matched {absent} and {starts} documents");
    let per_doc = |n: u64| n as f64 / MEASURED as f64;
    assert!(
        q3 == 0 && q8 == 0,
        "{} allocations per document in Q3's pass, {} in Q8's ({MEASURED} documents)",
        per_doc(q3),
        per_doc(q8)
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
    // the same documents as the members of one set, the OSON-IMC's form
    let mut set = fsdm_oson::OsonSet::new();
    docs.iter().for_each(|d| set.push(d).unwrap());
    let members: Vec<Vec<u8>> =
        (0..set.len()).map(|i| set.doc(i).unwrap().as_bytes().to_vec()).collect();
    let over_oson = dom_engine_allocations(&oson, |b| fsdm_oson::OsonDoc::new(b).unwrap());
    let over_members = dom_engine_allocations(&members, |b| {
        fsdm_oson::OsonDoc::member(b, set.dictionary()).unwrap()
    });
    let over_bson = dom_engine_allocations(&bson, |b| fsdm_bson::BsonDoc::new(b).unwrap());
    let per_doc = |n: u64| n as f64 / MEASURED as f64;
    assert!(
        over_oson == 0 && over_members == 0 && over_bson == 0,
        "{} allocations per document over OSON instances, {} over set members, {} over BSON \
         ({MEASURED} documents, four paths)",
        per_doc(over_oson),
        per_doc(over_members),
        per_doc(over_bson)
    );
}

/// The `i`-th purchase order, shaped as the benchmark's generator shapes
/// it: header fields, then 3–7 line items, each with a part number drawn
/// from a thousand, a quantity and a unit price.
fn purchase_order(state: &mut u64, i: usize) -> String {
    let items: Vec<String> = (0..3 + next(state) % 5)
        .map(|n| {
            format!(
                r#"{{"itemno":{},"partno":"{}","description":"{}","quantity":{},"unitprice":{}.{:02}}}"#,
                n + 1,
                97_361_000_000 + next(state) % 1000,
                word(state, 10),
                1 + next(state) % 19,
                next(state) % 900,
                1 + next(state) % 99,
            )
        })
        .collect();
    format!(
        r#"{{"purchaseOrder":{{"id":{i},"reference":"{}-{i}","requestor":"{}","costcenter":"C{}","items":[{}]}}}}"#,
        word(state, 5).to_uppercase(),
        word(state, 8),
        next(state) % 40,
        items.join(",")
    )
}

/// What [`member_probe_allocations`] counted over the measured documents.
struct Probed {
    /// Allocations of the three `JSON_EXISTS` probes.
    probes: u64,
    /// Allocations of the `quantity` cells.
    cells: u64,
    /// Items (one cell each).
    items: usize,
    /// Documents each probe matched.
    matched: [usize; 3],
}

/// `olap.oson`'s existence probes — T3's one `@.partno` test per item,
/// T5's three, T4's `@.requestor` — and a `JSON_TABLE` number cell
/// (`quantity`) for every item, over every document `open` makes of an
/// encoding.
fn member_probe_allocations<'a, D: JsonDom>(
    encoded: &'a [Vec<u8>],
    open: impl Fn(&'a [u8]) -> D,
) -> Probed {
    let mut probes = [
        r#"$.purchaseOrder.items[*]?(@.partno == "97361000001")"#,
        r#"$.purchaseOrder.items[*]?(@.partno == "97361000002" || @.partno == "97361000003" || @.partno == "97361000004")"#,
        r#"$.purchaseOrder?(@.requestor == "nobody")"#,
    ]
    .map(|p| PathEvaluator::new(parse_path(p).unwrap()));
    let mut cursor = JsonTableCursor::new(&JsonTableDef {
        row_path: parse_path("$.purchaseOrder.items[*]").unwrap(),
        columns: vec![ColumnDef::value(
            "quantity",
            SqlType::Number,
            parse_path("$.quantity").unwrap(),
        )],
        nested: vec![],
    });
    let mut rows: Vec<Ctx> = Vec::new();
    let mut probed = Probed { probes: 0, cells: 0, items: 0, matched: [0; 3] };
    for (i, bytes) in encoded.iter().enumerate() {
        let dom = open(bytes);
        let mut found = [false; 3];
        let probing = allocations_of(|| {
            for (f, ev) in found.iter_mut().zip(&mut probes) {
                *f = json_exists(&dom, ev);
            }
        });
        // the expansion allocates its row list; the cells are measured
        rows.clear();
        cursor.expand(&dom, &mut |ctx| rows.extend(ctx.first()));
        let mut quantities = 0;
        let cells = allocations_of(|| {
            for &row in &rows {
                let quantity = cursor.cell(&dom, 0, row);
                quantities += quantity.as_num().and_then(|n| n.to_i64()).unwrap_or(0);
            }
        });
        assert!(quantities >= rows.len() as i64, "every item has a quantity of at least 1");
        if i >= WARM_UP {
            probed.probes += probing;
            probed.cells += cells;
            probed.items += rows.len();
            for (m, f) in probed.matched.iter_mut().zip(found) {
                *m += usize::from(f);
            }
        }
    }
    probed
}

#[test]
fn member_probes_and_cells_allocate_nothing() {
    let mut state = 7;
    let docs: Vec<fsdm_json::JsonValue> = (0..WARM_UP + MEASURED)
        .map(|i| fsdm_json::parse(&purchase_order(&mut state, i)).unwrap())
        .collect();
    let oson: Vec<Vec<u8>> = docs.iter().map(|d| fsdm_oson::encode(d).unwrap()).collect();
    let bson: Vec<Vec<u8>> = docs.iter().map(|d| fsdm_bson::encode(d).unwrap()).collect();
    let over_oson = member_probe_allocations(&oson, |b| fsdm_oson::OsonDoc::new(b).unwrap());
    let over_bson = member_probe_allocations(&bson, |b| fsdm_bson::BsonDoc::new(b).unwrap());
    for (format, p) in [("OSON", &over_oson), ("BSON", &over_bson)] {
        let [t3, t5, t4] = p.matched;
        assert!(t3 > 0 && t5 > t3 && t4 == 0, "{format}: probes matched {:?}", p.matched);
        let per_doc = |n: u64| n as f64 / MEASURED as f64;
        assert!(
            p.probes == 0 && p.cells == 0,
            "{format}: {} allocations per document in three probes, {} in {} quantity cells \
             ({MEASURED} documents, {} items)",
            per_doc(p.probes),
            per_doc(p.cells),
            per_doc(p.items as u64),
            p.items
        );
    }
}

/// What `sum(quantity * unitprice)` converts once per row: an exact
/// `f64` product to NUMBER, through `{:e}` on the stack; and literals
/// read straight into NUMBER.
#[test]
fn number_conversions_allocate_nothing() {
    let products: Vec<f64> = (1..=200)
        .flat_map(|k| [0.01, 350.86, 19.99, 1e-7, 123_456.789].map(|p| k as f64 * p))
        .collect();
    let literals = ["350.86", "-0.000125", "1.5e3", "000123.4500", "98765432109876543210.5e-40"];
    let mut encoded = 0;
    let allocations = allocations_of(|| {
        for &v in &products {
            encoded += usize::from(OraNum::from_f64(v).is_some());
            encoded += usize::from(matches!(Datum::from(v), Datum::Num(_)));
        }
        for s in literals {
            encoded += usize::from(OraNum::from_decimal_str(s).is_ok());
        }
    });
    assert_eq!(encoded, 2 * products.len() + literals.len());
    assert_eq!(allocations, 0, "{allocations} allocations for {encoded} conversions");
}
