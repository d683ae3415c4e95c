//! Seeded input generators, vendored here so a later engine change cannot
//! change the benchmark's input. They write JSON *text*: the engine under
//! test receives only what an application would send it.
//!
//! The shapes follow the NOBENCH collection (Chasseur, Li, Patel — WebDB
//! 2013) and the paper's §6.3 purchaseOrder collection.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and good enough to shape a corpus.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one run: different streams of
    /// the same `--seed` are independent.
    pub fn for_stream(stream: &str, seed: u64) -> Rng {
        Rng(fnv1a(stream.as_bytes()) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`). The modulo bias is below 2⁻⁴⁰ for
    /// every range used here.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    pub fn index(&mut self, len: usize) -> usize {
        self.range(0, len as u64) as usize
    }

    /// `len` lowercase letters: never needs JSON escaping.
    pub fn word(&mut self, len: usize) -> String {
        (0..len).map(|_| (b'a' + self.range(0, 26) as u8) as char).collect()
    }

    fn sentence(&mut self, words: usize) -> String {
        let mut s = String::new();
        for i in 0..words {
            if i > 0 {
                s.push(' ');
            }
            let len = self.range(3, 9) as usize;
            s.push_str(&self.word(len));
        }
        s
    }

    /// A price below `max` with two decimals, as a JSON number literal.
    fn money(&mut self, max: u64) -> String {
        let cents = self.range(1, max * 100);
        format!("{}.{:02}", cents / 100, cents % 100)
    }
}

/// FNV-1a, 64 bit: the one hash the benchmark uses for corpora and results.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash over more bytes.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Distinct sparse attributes in a NOBENCH collection.
pub const SPARSE_FIELDS: usize = 1000;
/// Sparse attributes per document: one cluster of consecutive fields.
pub const SPARSE_PER_DOC: usize = 10;

/// What the generator knows about a NOBENCH document without parsing it:
/// the brute-force side of the index-lookup oracle.
#[derive(Debug, Clone)]
pub struct NoBenchFacts {
    pub str1: String,
    pub nested_arr: Vec<String>,
}

/// The `i`-th NOBENCH document (≈ 450 bytes): `str1`, `str2`, `num` (= `i`,
/// so range predicates have a set selectivity), `bool`, `dyn1`/`dyn2`
/// (string in odd documents, number in even ones, or the reverse),
/// `nested_obj{str,num}`, `nested_arr` of 2–5 words, `thousandth`
/// (= `i % 1000`, the Q10 group key) and one cluster of ten `sparse_XXX`
/// fields out of 1000. `extra` appends one more top-level field.
pub fn nobench_doc(rng: &mut Rng, i: usize, extra: Option<&str>) -> (String, NoBenchFacts) {
    let mut o = String::with_capacity(512);
    let str1 = rng.word(12);
    write!(
        o,
        r#"{{"str1":"{str1}","str2":"{}","num":{i},"bool":{}"#,
        rng.word(12),
        i.is_multiple_of(2)
    )
    .expect("write to String");
    if i.is_multiple_of(2) {
        write!(o, r#","dyn1":{i},"dyn2":"{}""#, rng.word(8)).expect("write to String");
    } else {
        write!(o, r#","dyn1":"{i:08}","dyn2":{i}"#).expect("write to String");
    }
    write!(o, r#","nested_obj":{{"str":"{}","num":{}}}"#, rng.word(10), rng.range(0, 1_000_000))
        .expect("write to String");
    let nested_arr: Vec<String> = (0..rng.range(2, 6)).map(|_| rng.word(8)).collect();
    o.push_str(r#","nested_arr":["#);
    for (k, w) in nested_arr.iter().enumerate() {
        if k > 0 {
            o.push(',');
        }
        write!(o, r#""{w}""#).expect("write to String");
    }
    write!(o, r#"],"thousandth":{}"#, i % 1000).expect("write to String");
    let cluster = (i % (SPARSE_FIELDS / SPARSE_PER_DOC)) * SPARSE_PER_DOC;
    for s in cluster..cluster + SPARSE_PER_DOC {
        write!(o, r#","sparse_{s:03}":"{}""#, rng.word(8)).expect("write to String");
    }
    if let Some(name) = extra {
        write!(o, r#","{name}":{i}"#).expect("write to String");
    }
    o.push('}');
    (o, NoBenchFacts { str1, nested_arr })
}

/// A generated collection: the JSON texts plus the generator-side facts.
#[derive(Debug, Clone)]
pub struct Corpus<F> {
    pub docs: Vec<String>,
    pub facts: Vec<F>,
}

impl<F> Corpus<F> {
    /// Bytes of JSON text an application would send: the base of
    /// `space_amp`.
    pub fn text_bytes(&self) -> usize {
        self.docs.iter().map(String::len).sum()
    }

    /// See [`corpus_hash`].
    #[cfg(test)]
    pub fn hash(&self) -> u64 {
        corpus_hash(&self.docs)
    }
}

/// Order-sensitive hash of every document: printed with each report, so two
/// runs can be seen to have measured the same input.
pub fn corpus_hash(docs: &[String]) -> u64 {
    docs.iter().fold(fnv1a(b"corpus"), |h, d| fnv1a_extend(h, d.as_bytes()))
}

/// The NOBENCH corpus the three `nobench.*` workloads share.
pub fn nobench_corpus(seed: u64, n: usize) -> Corpus<NoBenchFacts> {
    let mut rng = Rng::for_stream("nobench-corpus", seed);
    let (docs, facts) = (0..n).map(|i| nobench_doc(&mut rng, i, None)).unzip();
    Corpus { docs, facts }
}

/// NOBENCH-shaped documents for `ingest.index`; every `new_field_every`-th
/// one carries a field no earlier document had, so the DataGuide keeps
/// changing and the structure-signature fast path keeps missing.
pub fn ingest_corpus(seed: u64, n: usize, new_field_every: usize) -> Corpus<NoBenchFacts> {
    let mut rng = Rng::for_stream("ingest-corpus", seed);
    let (docs, facts) = (0..n)
        .map(|i| {
            let extra = i.is_multiple_of(new_field_every).then(|| format!("extra_{i:05}"));
            nobench_doc(&mut rng, i, extra.as_deref())
        })
        .unzip();
    Corpus { docs, facts }
}

/// What the Table-13 query binds are drawn from.
#[derive(Debug, Clone)]
pub struct PoFacts {
    pub reference: String,
    pub requestor: String,
    pub first_partno: String,
}

/// The `i`-th purchaseOrder (≈ 860 bytes, 3–7 line items; every fourth has
/// a `specialHandling` object).
pub fn purchase_order(rng: &mut Rng, i: usize) -> (String, PoFacts) {
    let mut items = String::new();
    let mut first_partno = String::new();
    for n in 0..rng.range(3, 8) {
        let partno = format!("{}", 97_361_000_000u64 + rng.range(0, 999_999));
        if n > 0 {
            items.push(',');
        }
        write!(
            items,
            r#"{{"itemno":{},"partno":"{partno}","description":"{}","quantity":{},"unitprice":{}}}"#,
            n + 1,
            rng.sentence(3),
            rng.range(1, 20),
            rng.money(900),
        )
        .expect("write to String");
        if n == 0 {
            first_partno = partno;
        }
    }
    let reference = format!("{}-{i}", rng.word(5).to_uppercase());
    let requestor = rng.word(8);
    let mut o = String::with_capacity(1024);
    write!(
        o,
        r#"{{"purchaseOrder":{{"id":{i},"reference":"{reference}","requestor":"{requestor}","costcenter":"C{}","podate":"{:04}-{:02}-{:02}","instructions":"{}""#,
        rng.range(1, 40),
        rng.range(2010, 2016),
        rng.range(1, 13),
        rng.range(1, 29),
        rng.sentence(6),
    )
    .expect("write to String");
    write!(
        o,
        r#","shippingAddress":{{"street":"{}","city":"{}","state":"{}","zip":"{}"}}"#,
        rng.sentence(3),
        rng.word(8),
        ["CA", "NY", "TX", "WA"][rng.index(4)],
        rng.range(10_000, 99_999),
    )
    .expect("write to String");
    write!(
        o,
        r#","contact":{{"phone":"{}-{:04}","email":"{}@example.com"}},"items":[{items}]"#,
        rng.range(200, 999),
        rng.range(0, 9999),
        rng.word(7),
    )
    .expect("write to String");
    if i.is_multiple_of(4) {
        write!(
            o,
            r#","specialHandling":{{"fragile":{},"insuredValue":{}}}"#,
            rng.range(0, 2) == 1,
            rng.money(5000),
        )
        .expect("write to String");
    }
    o.push_str("}}");
    (o, PoFacts { reference, requestor, first_partno })
}

/// The purchaseOrder corpus of `olap.oson`.
pub fn po_corpus(seed: u64, n: usize) -> Corpus<PoFacts> {
    let mut rng = Rng::for_stream("po-corpus", seed);
    let (docs, facts) = (0..n).map(|i| purchase_order(&mut rng, i)).unzip();
    Corpus { docs, facts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        assert_eq!(nobench_corpus(42, 300).hash(), nobench_corpus(42, 300).hash());
        assert_ne!(nobench_corpus(42, 300).hash(), nobench_corpus(7, 300).hash());
        assert_eq!(po_corpus(42, 50).hash(), po_corpus(42, 50).hash());
        assert_ne!(po_corpus(42, 50).hash(), po_corpus(7, 50).hash());
        assert_ne!(ingest_corpus(42, 100, 50).hash(), nobench_corpus(42, 100).hash());
    }

    #[test]
    fn every_generated_document_is_json_the_engine_accepts() {
        for d in nobench_corpus(3, 120).docs.iter().chain(&po_corpus(3, 40).docs) {
            fsdm_json::parse(d).unwrap_or_else(|e| panic!("{e}: {d}"));
        }
    }

    #[test]
    fn nobench_shape() {
        let corpus = nobench_corpus(9, 400);
        let mut sparse = BTreeSet::new();
        for (i, text) in corpus.docs.iter().enumerate() {
            let d = fsdm_json::parse(text).expect("valid");
            assert_eq!(d.get("num").and_then(|v| v.as_i64()), Some(i as i64));
            assert_eq!(d.get("thousandth").and_then(|v| v.as_i64()), Some((i % 1000) as i64));
            assert_eq!(d.get("str1").and_then(|v| v.as_str()), Some(corpus.facts[i].str1.as_str()));
            // dyn1 alternates type: number in even documents, string in odd
            let dyn1 = d.get("dyn1").expect("dyn1");
            assert_eq!(dyn1.as_number().is_some(), i % 2 == 0, "doc {i}");
            assert_eq!(dyn1.as_str().is_some(), i % 2 == 1, "doc {i}");
            let fields = d.as_object().expect("object");
            let mine: Vec<usize> = fields
                .iter()
                .filter_map(|(k, _)| k.strip_prefix("sparse_"))
                .map(|s| s.parse().expect("sparse id"))
                .collect();
            assert_eq!(mine.len(), SPARSE_PER_DOC);
            sparse.extend(mine);
        }
        // 400 documents walk all 100 clusters: the universe is 1000 wide
        assert_eq!(sparse.len(), SPARSE_FIELDS);
        assert_eq!(sparse.last(), Some(&(SPARSE_FIELDS - 1)));
    }

    #[test]
    fn ingest_corpus_keeps_adding_fields() {
        let corpus = ingest_corpus(1, 200, 50);
        let with_extra = corpus.docs.iter().filter(|d| d.contains("\"extra_")).count();
        assert_eq!(with_extra, 4);
        assert!(corpus.docs[50].contains("\"extra_00050\":50"));
    }

    #[test]
    fn purchase_order_facts_match_text() {
        let corpus = po_corpus(5, 20);
        for (text, f) in corpus.docs.iter().zip(&corpus.facts) {
            let d = fsdm_json::parse(text).expect("valid");
            let po = d.get("purchaseOrder").expect("po");
            assert_eq!(po.get("reference").and_then(|v| v.as_str()), Some(f.reference.as_str()));
            assert_eq!(po.get("requestor").and_then(|v| v.as_str()), Some(f.requestor.as_str()));
            let items = po.get("items").and_then(|v| v.as_array()).expect("items");
            assert!((3..8).contains(&items.len()));
            assert_eq!(
                items[0].get("partno").and_then(|v| v.as_str()),
                Some(f.first_partno.as_str())
            );
        }
    }
}
