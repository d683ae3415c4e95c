//! The steady-state allocation budget of the ingest path, as a
//! deterministic gate: once a collection's paths, field names and terms
//! have been seen, indexing and encoding a document allocates per
//! document, not per posting, and the DataGuide walk not at all.
//!
//! Its own test binary: the counting allocator below replaces the global
//! one. It, its twins in `crates/{sqljson,store}/tests/alloc_budget.rs`
//! and the live-byte counter in `crates/bench/tests/set_heap_size.rs` are
//! the only `unsafe` in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsdm_dataguide::DataGuide;
use fsdm_index::SearchIndex;
use fsdm_json::JsonValue;

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

const WORDS: [&str; 7] = ["ground", "air", "sea", "rail", "road", "Express", "OVERNIGHT"];

/// One structure — a nested object, an array, every scalar type — over
/// small vocabularies: after a warm-up no document brings a new term.
fn document(i: usize) -> JsonValue {
    let text = format!(
        r#"{{"id":{},"carrier":"{}","note":"{} shipping, {} handling","tags":["{}","{}"],
            "dims":{{"w":{},"h":2.5}},"ok":{},"none":null}}"#,
        i % 50,
        WORDS[i % 7],
        WORDS[i % 5],
        WORDS[(i + 2) % 7],
        WORDS[i % 3],
        WORDS[(i + 1) % 3],
        i % 10,
        i.is_multiple_of(2),
    );
    fsdm_json::parse(&text).expect("generated JSON")
}

const WARM_UP: usize = 200;
const MEASURED: usize = 800;

/// The count is per thread: each test runs on a thread of its own.
#[test]
fn a_seen_structure_costs_allocations_per_document_not_per_posting() {
    let docs: Vec<JsonValue> = (0..WARM_UP + MEASURED).map(document).collect();
    let (warm_up, measured) = docs.split_at(WARM_UP);

    let mut index = SearchIndex::new();
    for (id, doc) in warm_up.iter().enumerate() {
        index.insert(id as u64, doc);
    }
    let paths = index.path_count();
    let indexing = allocations_of(|| {
        for (i, doc) in measured.iter().enumerate() {
            index.insert((WARM_UP + i) as u64, doc);
        }
    });
    assert_eq!(index.path_count(), paths, "the measured documents bring no new path");
    // `structure_signature` sorts each container's members in buffers
    // the thread keeps, so the only allocations left are the amortized
    // doubling of ~100 posting lists (0.43 per document, debug and release
    // alike), and the guide adds nothing (the test
    // below). Each document posts 31 times; the string-keyed index this
    // replaced allocated more than 150 times, and a signature walk with a
    // buffer per container 3 more per document.
    let per_doc = indexing as f64 / MEASURED as f64;
    assert!(per_doc <= 0.5, "{per_doc} allocations per indexed document");

    let mut encoder = fsdm_oson::Encoder::new();
    for doc in warm_up {
        encoder.encode(doc).expect("encodes");
    }
    let encoding = allocations_of(|| {
        for doc in measured {
            std::hint::black_box(encoder.encode(doc).expect("encodes"));
        }
    });
    // a debug build runs the structural verifier inside every encode
    let verifying = if cfg!(debug_assertions) {
        let encoded: Vec<Vec<u8>> =
            measured.iter().map(|d| fsdm_oson::encode(d).expect("encodes")).collect();
        allocations_of(|| {
            for bytes in &encoded {
                fsdm_oson::OsonDoc::new(bytes).and_then(|d| d.validate()).expect("verifies");
            }
        })
    } else {
        0
    };
    // the output buffer, and nothing else
    let budget = MEASURED as u64 + verifying + 2;
    assert!(encoding <= budget, "{encoding} allocations for {MEASURED} encodes");
}

/// [`document`] plus a member that is a number in even documents and a
/// string in odd ones, so the guide's extremes at that path are of two
/// kinds.
fn mixed_document(i: usize) -> JsonValue {
    let mut doc = document(i);
    let JsonValue::Object(o) = &mut doc else { unreachable!("an object") };
    if i.is_multiple_of(2) {
        o.push("dyn", JsonValue::from((i % 40) as i64 - 20));
    } else {
        o.push("dyn", format!("{:03}", i % 30));
    }
    doc
}

/// `DataGuide::add_document` over paths, kinds and extremes it has seen
/// allocates nothing. The `BTreeMap`-keyed walk it replaced made 17.5
/// allocations per document here: a name per member, a rendered literal
/// per number and two rendered texts per comparison of a number with a
/// string extreme.
#[test]
fn the_guide_walk_allocates_nothing_over_a_seen_structure() {
    let docs: Vec<JsonValue> = (0..WARM_UP + MEASURED).map(mixed_document).collect();
    let (warm_up, measured) = docs.split_at(WARM_UP);
    let mut guide = DataGuide::new();
    for doc in warm_up {
        guide.add_document(doc);
    }
    let statistics = |g: &DataGuide| -> Vec<_> {
        g.rows().into_iter().map(|r| (r.path, r.type_str, r.max_len, r.min, r.max)).collect()
    };
    let before = statistics(&guide);
    let walking = allocations_of(|| {
        for doc in measured {
            assert_eq!(guide.add_document(doc), 0, "a seen structure adds no path");
        }
    });
    assert_eq!(statistics(&guide), before, "the warm-up saw every extreme and length");
    let per_doc = walking as f64 / MEASURED as f64;
    assert_eq!(walking, 0, "{per_doc} allocations per walked document");
}
