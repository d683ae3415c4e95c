//! Every SN code demonstrably fires on a deliberately-broken fixture
//! and stays quiet on the corrected twin — the same positive/negative
//! convention the FA and PK code suites follow.

use fsdm_analyze::Code;
use fsdm_check::source::{check_sources, Source};
use fsdm_check::Report;

fn report_for(files: &[(&str, &str)]) -> Report {
    let sources: Vec<Source> = files.iter().map(|(p, t)| Source::new(p, t)).collect();
    check_sources(&sources)
}

fn codes_of(report: &Report) -> Vec<Code> {
    report.findings.iter().map(|f| f.diagnostic.code).collect()
}

fn codes(src: &str) -> Vec<Code> {
    codes_of(&report_for(&[("crates/x/src/lib.rs", src)]))
}

// --- SN001 double-lock --------------------------------------------------

#[test]
fn sn001_fires_on_relocking_a_held_lock() {
    let src = r#"
use std::sync::Mutex;
struct S { inner: Mutex<u8> }
impl S {
    fn f(&self) {
        let a = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let b = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(a);
        drop(b);
    }
}
"#;
    assert_eq!(codes(src), vec![Code::DoubleLock]);
}

#[test]
fn sn001_respects_an_explicit_drop() {
    let src = r#"
use std::sync::Mutex;
struct S { inner: Mutex<u8> }
impl S {
    fn f(&self) {
        let a = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(a);
        let b = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(b);
    }
}
"#;
    assert_eq!(codes(src), vec![]);
}

#[test]
fn sn001_sees_through_a_callee_that_relocks() {
    let src = r#"
use std::sync::Mutex;
struct S { inner: Mutex<u8> }
impl S {
    fn leaf(&self) {
        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(g);
    }
    fn f(&self) {
        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.leaf();
        drop(g);
    }
}
"#;
    assert_eq!(codes(src), vec![Code::DoubleLock]);
}

// --- SN002 lock-order-inversion -----------------------------------------

#[test]
fn sn002_fires_on_descending_acquisition() {
    let src = r#"
use std::sync::Mutex;
struct S { ring: Mutex<u8>, inner: Mutex<u8> }
impl S {
    fn f(&self) {
        let a = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let b = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(a);
        drop(b);
    }
}
"#;
    assert_eq!(codes(src), vec![Code::LockOrderInversion]);
}

#[test]
fn sn002_accepts_ascending_acquisition() {
    let src = r#"
use std::sync::Mutex;
struct S { ring: Mutex<u8>, inner: Mutex<u8> }
impl S {
    fn f(&self) {
        let a = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let b = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(a);
        drop(b);
    }
}
"#;
    assert_eq!(codes(src), vec![]);
}

// --- SN003 lock-across-executor -----------------------------------------

const EXECUTOR_STUB: &str = "pub fn run_morsels() {}\n";

#[test]
fn sn003_fires_when_a_guard_is_live_across_the_executor() {
    let caller = r#"
use std::sync::Mutex;
struct S { ring: Mutex<u8> }
impl S {
    fn f(&self) {
        let g = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        run_morsels();
        drop(g);
    }
}
"#;
    let report = report_for(&[
        ("crates/store/src/parallel.rs", EXECUTOR_STUB),
        ("crates/x/src/lib.rs", caller),
    ]);
    let codes = codes_of(&report);
    assert_eq!(codes, vec![Code::LockAcrossExecutor]);
}

#[test]
fn sn003_is_quiet_once_the_guard_is_dropped_first() {
    let caller = r#"
use std::sync::Mutex;
struct S { ring: Mutex<u8> }
impl S {
    fn f(&self) {
        let g = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(g);
        run_morsels();
    }
}
"#;
    let report = report_for(&[
        ("crates/store/src/parallel.rs", EXECUTOR_STUB),
        ("crates/x/src/lib.rs", caller),
    ]);
    assert!(report.findings.is_empty(), "{}", report.render_text());
}

// --- SN004 lock-across-panic --------------------------------------------

#[test]
fn sn004_fires_on_the_classic_lock_unwrap() {
    let src = r#"
use std::sync::Mutex;
struct S { ring: Mutex<u8> }
impl S {
    fn f(&self) -> u8 {
        let g = self.ring.lock().unwrap();
        *g
    }
}
"#;
    assert_eq!(codes(src), vec![Code::LockAcrossPanic]);
}

#[test]
fn sn004_accepts_a_poison_recovering_guard() {
    let src = r#"
use std::sync::Mutex;
struct S { ring: Mutex<u8> }
impl S {
    fn f(&self) -> u8 {
        let g = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *g
    }
}
"#;
    assert_eq!(codes(src), vec![]);
}

#[test]
fn sn004_fires_on_indexing_under_a_guard() {
    let src = r#"
use std::sync::Mutex;
struct S { ring: Mutex<Vec<u8>> }
impl S {
    fn f(&self, xs: &[u8]) -> u8 {
        let g = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let v = xs[0];
        drop(g);
        v
    }
}
"#;
    assert_eq!(codes(src), vec![Code::LockAcrossPanic]);
}

// --- SN005 atomic-ordering ----------------------------------------------

#[test]
fn sn005_fires_on_a_relaxed_handshake_store() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
struct S { epoch: AtomicU64 }
impl S {
    fn f(&self) {
        self.epoch.store(1, Ordering::Relaxed);
    }
}
"#;
    assert_eq!(codes(src), vec![Code::AtomicOrdering]);
}

#[test]
fn sn005_fires_on_an_overstrong_counter() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
struct S { count: AtomicU64 }
impl S {
    fn f(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }
}
"#;
    assert_eq!(codes(src), vec![Code::AtomicOrdering]);
}

#[test]
fn sn005_fires_on_an_undeclared_atomic() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
struct S { widget: AtomicU64 }
impl S {
    fn f(&self) -> u64 {
        self.widget.load(Ordering::Acquire)
    }
}
"#;
    assert_eq!(codes(src), vec![Code::AtomicOrdering]);
}

#[test]
fn sn005_accepts_the_declared_disciplines() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
struct S { epoch: AtomicU64, count: AtomicU64 }
impl S {
    fn f(&self) -> u64 {
        self.epoch.store(1, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.epoch.load(Ordering::Acquire)
    }
}
"#;
    assert_eq!(codes(src), vec![]);
}

// --- SN006 mut-capture-aliasing -----------------------------------------

#[test]
fn sn006_fires_on_a_shared_mut_capture() {
    let src = r#"
fn go() {
    let mut total = 0u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            total += 1;
        });
    });
    let _ = total;
}
"#;
    assert!(codes(src).contains(&Code::MutCaptureAliasing));
}

#[test]
fn sn006_is_quiet_for_move_closures_and_shadowing() {
    let src = r#"
fn go() {
    let mut total = 0u64;
    total += 1;
    std::thread::scope(|s| {
        s.spawn(move || {
            total += 1;
        });
        s.spawn(|| {
            let mut total = 0u64;
            total += 1;
        });
    });
}
"#;
    assert!(!codes(src).contains(&Code::MutCaptureAliasing));
}

// --- SN007 spawn-outside-executor ---------------------------------------

#[test]
fn sn007_fires_outside_the_executor() {
    let src = r#"
fn go() {
    std::thread::scope(|s| {
        s.spawn(move || {});
    });
}
"#;
    assert_eq!(codes(src), vec![Code::SpawnOutsideExecutor]);
}

#[test]
fn sn007_permits_spawns_in_the_executor_file() {
    let src = r#"
pub fn run_morsels() {
    std::thread::scope(|s| {
        s.spawn(move || {});
    });
}
"#;
    let report = report_for(&[("crates/store/src/parallel.rs", src)]);
    assert!(report.findings.is_empty(), "{}", report.render_text());
}

// --- report rendering ----------------------------------------------------

#[test]
fn reports_render_counts_tokens_and_stable_ids() {
    let src = r#"
use std::sync::Mutex;
struct S { ring: Mutex<u8> }
impl S {
    fn f(&self) -> u8 {
        let g = self.ring.lock().unwrap();
        *g
    }
}
"#;
    let report = report_for(&[("crates/x/src/lib.rs", src)]);
    let text = report.render_text();
    assert!(text.contains(Code::LockAcrossPanic.id()), "{text}");
    assert!(text.contains("(near `unwrap`)"), "the offending token is named: {text}");
    assert!(text.contains("crates/x/src/lib.rs:6:34:"), "{text}");
    let json = report.render_json();
    assert!(json.contains("\"errors\": 1"), "{json}");
    assert!(json.contains(&format!("\"code\": \"{}\"", Code::LockAcrossPanic.id())), "{json}");

    let clean = report_for(&[("crates/x/src/lib.rs", "fn quiet() {}\n")]);
    assert!(clean.render_json().contains("\"errors\": 0"), "{}", clean.render_json());
}
