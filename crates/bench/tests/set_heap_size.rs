//! `OsonSet::heap_size` is the heap the set holds: over the corpus the
//! `repro ablations` §7 row builds its set from, and over NOBENCH (whose
//! thousand sparse names grow the dictionary and need two-byte member
//! field ids), the bytes a counting allocator sees the set keep alive
//! equal the bytes the set reports.
//!
//! Its own test binary: the allocator below replaces the global one and
//! counts live bytes per thread, so the tests here do not see each other.
//! It and the allocation counters in `crates/{index,sqljson,store}/tests/
//! alloc_budget.rs` are the only `unsafe` in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsdm_json::JsonValue;
use fsdm_oson::OsonSet;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn add(bytes: isize) {
        // a thread being torn down no longer counts
        let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
    }
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the only addition
// is a counter in a const-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::add(signed(layout.size()));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::add(-signed(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::add(signed(new_size) - signed(layout.size()));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Build a set of `docs` and compare what it reports with what it holds;
/// returns the size of its dictionary.
fn check(label: &str, docs: &[JsonValue]) -> usize {
    // the first push touches process-wide state (metric cells); do it
    // outside the measurement
    OsonSet::new().push(&docs[0]).unwrap();
    let before = live();
    let mut set = OsonSet::new();
    for d in docs {
        set.push(d).unwrap();
    }
    let held = live() - before;
    let reported = signed(set.heap_size());
    assert_eq!(reported, held, "{label}: heap_size() {reported} vs live bytes {held}");
    for i in 0..set.len() {
        set.doc(i).and_then(|doc| doc.validate()).unwrap();
    }
    let names = set.dictionary().len();
    drop(set);
    assert_eq!(live(), before, "{label}: a dropped set frees everything");
    names
}

#[test]
fn heap_size_is_the_live_bytes_of_the_ablation_set() {
    check("purchaseOrders", &fsdm_bench::setup::olap_corpus(2000));
}

#[test]
fn heap_size_is_the_live_bytes_of_a_nobench_set() {
    let mut rng = fsdm_workloads::rng_for("set-heap-size", 3);
    let docs: Vec<JsonValue> =
        (0..1500).map(|i| fsdm_workloads::nobench::doc(&mut rng, i)).collect();
    let names = check("NOBENCH", &docs);
    assert!(names > 256, "{names} names");
}
