//! Integration test: the deep structural verifiers accept every document
//! the encoders produce across the paper's workload generators — NoBench,
//! the OLAP corpus, and all real-world collection shapes. This is the
//! end-to-end guarantee behind `debug_assert!(validate())` in the
//! encoders: no workload can emit bytes its own verifier rejects.

use fsdm::bson::BsonDoc;
use fsdm::oson::OsonDoc;
use fsdm_workloads::{generate, nobench, olap, rng_for, Collection};

fn assert_verifies(d: &fsdm::json::JsonValue, what: &str) {
    let oson = fsdm::oson::encode(d).unwrap_or_else(|e| panic!("{what}: oson encode: {e}"));
    let doc = OsonDoc::new(&oson).unwrap_or_else(|e| panic!("{what}: oson framing: {e}"));
    if let Err(e) = doc.validate() {
        panic!("{what}: oson verifier rejected encoder output: {e}");
    }
    // BSON requires an object root; every workload document is an object
    let bson = fsdm::bson::encode(d).unwrap_or_else(|e| panic!("{what}: bson encode: {e}"));
    let doc = BsonDoc::new(&bson).unwrap_or_else(|e| panic!("{what}: bson framing: {e}"));
    if let Err(e) = doc.validate() {
        panic!("{what}: bson verifier rejected encoder output: {e}");
    }
}

#[test]
fn nobench_documents_verify() {
    let mut rng = rng_for("nobench-verify", 11);
    for i in 0..200 {
        assert_verifies(&nobench::doc(&mut rng, i), "nobench");
    }
}

#[test]
fn olap_corpus_verifies() {
    let mut rng = rng_for("olap-verify", 12);
    for (i, d) in olap::corpus(&mut rng, 100).iter().enumerate() {
        assert_verifies(d, &format!("olap[{i}]"));
    }
}

#[test]
fn all_collections_verify() {
    for c in Collection::ALL {
        let n = if matches!(c, Collection::TwitterMsgArchive | Collection::SensorData) {
            2 // multi-megabyte documents: enough to cover wide-offset mode
        } else {
            25
        };
        let mut rng = rng_for(c.name(), 13);
        for i in 0..n {
            assert_verifies(&generate(c, &mut rng, i), c.name());
        }
    }
}

/// FNV-1a over the concatenated OSON bytes of a corpus.
fn oson_fingerprint(docs: impl Iterator<Item = fsdm::json::JsonValue>) -> (u64, usize) {
    let mut encoder = fsdm::oson::Encoder::new();
    let (mut hash, mut total) = (0xcbf29ce484222325u64, 0);
    for d in docs {
        let bytes = encoder.encode(&d).unwrap();
        assert_eq!(bytes, fsdm::oson::encode(&d).unwrap(), "a reused encoder equals a fresh one");
        total += bytes.len();
        for b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    (hash, total)
}

/// The OSON bytes of two workload corpora, pinned from the encoder as it
/// stood before it became one-pass: stored collections must not change.
#[test]
fn oson_bytes_of_the_workload_corpora_are_pinned() {
    let mut rng = rng_for("nobench-golden", 42);
    let nobench = oson_fingerprint((0..2000).map(|i| nobench::doc(&mut rng, i)));
    assert_eq!(nobench, (0x8aebc3dba101ed60, 1_259_301));
    let mut rng = rng_for("po-golden", 42);
    let po = oson_fingerprint(olap::corpus(&mut rng, 500).into_iter());
    assert_eq!(po, (0xb6227f1b81569a03, 465_839));
}
