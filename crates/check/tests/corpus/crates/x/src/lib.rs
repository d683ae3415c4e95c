//! Corpus fixture: one planted violation per concurrency code, each in
//! its own function, over the catalog-declared locks (`ring` ranks below
//! `inner`) and atomics (`epoch` is a handshake).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

struct S {
    ring: Mutex<u8>,
    inner: Mutex<u8>,
    epoch: AtomicU64,
}

impl S {
    fn sn001_double_lock(&self) {
        let a = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let b = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        drop(a);
        drop(b);
    }

    fn sn002_lock_order_inversion(&self) {
        let a = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let b = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        drop(a);
        drop(b);
    }

    fn sn003_lock_across_executor(&self) {
        let g = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        run_morsels();
        drop(g);
    }

    fn sn004_lock_across_panic(&self) -> u8 {
        let g = self.ring.lock().unwrap();
        *g
    }

    fn sn004_recovered(&self) -> u8 {
        // the poison-recovering twin: no finding, and no waiver syntax
        let g = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        *g
    }

    fn sn005_atomic_ordering(&self) {
        self.epoch.store(1, Ordering::Relaxed);
    }

    fn clean(&self) -> u64 {
        let a = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let b = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        drop(b);
        drop(a);
        self.epoch.load(Ordering::Acquire)
    }
}

fn sn006_mut_capture_and_sn007_spawn() {
    let mut total = 0u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            total += 1;
        });
    });
    let _ = total;
}

fn sn008_undeclared_failpoint() {
    fsdm_fault::fire("planted.point").ok();
}

// fsdm-check: allow(double-lock) -- retired waiver syntax, now prose
fn quiet() {}
