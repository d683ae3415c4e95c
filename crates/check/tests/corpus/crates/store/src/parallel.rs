//! Corpus fixture: the morsel executor's entry point. Spawning here is
//! the one place SN007 permits, and calls reaching it anchor SN003.

pub fn run_morsels() {
    std::thread::scope(|s| {
        s.spawn(move || {});
    });
}
