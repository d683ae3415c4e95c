//! Corpus fixture: plants of retired source rules (`no-debug`,
//! `metric-literal`, `span-name-from-catalog`, `diag-code-registry`,
//! `todo`, the allow syntax); golden.txt names each one's gate.

// TODO: planted without an issue reference
// TODO(#7): tracked, so clean

// fsdm-check: allow(no-debug) -- planted: suppresses nothing
fn quiet() {}

// fsdm-check: allow(no-debug)
fn planted(x: u8) -> &'static str {
    dbg!(x);
    fsdm_obs::counter!("planted.metric.name").inc();
    let _g = fsdm_obs::trace::span("planted.span");
    "PK001"
}

fn allowed(x: u8) -> u8 {
    // fsdm-check: allow(no-debug) -- planted: a used allow
    dbg!(x)
}

// the next two lines carry the hygiene violations the audit retired
// (a tab, trailing blanks); `cargo fmt --all --check` owns them now
fn hygiene() {
	let _tab = 1;
    let _trailing = 2;  
}
