//! Corpus fixture: the wire decoder, where waivers are forbidden — now by
//! `forbid(...)` at the top of the real file, not by fsdm-check.

fn planted(v: &[u8]) -> u8 {
    // fsdm-check: allow(no-index) -- not accepted here
    v[0]
}
