//! Corpus fixture: allow annotations are forbidden in the wire decoder,
//! so the annotation is rejected and the finding it names still fires.

fn planted(v: &[u8]) -> u8 {
    // fsdm-check: allow(no-index) -- not accepted here
    v[0]
}
