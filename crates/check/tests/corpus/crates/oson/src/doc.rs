//! Corpus fixture: a hot-path decode file; `no-panic`, `no-index` and
//! `no-as-int` are clippy lints at the top of the real file now.

fn planted(v: &[u8], o: Option<u8>, wide: u64) -> usize {
    let first = o.unwrap();
    let second = v[0];
    usize::from(first) + usize::from(second) + wide as usize
}

fn clean(v: &[u8], o: Option<u8>) -> u8 {
    o.unwrap_or(0) + v.first().copied().unwrap_or(0)
}
