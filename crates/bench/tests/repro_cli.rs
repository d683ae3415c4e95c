//! `repro` rejects what it cannot honour — a malformed flag value, an
//! unknown flag and an unknown command each exit 2 and quote the
//! offending text, instead of running the experiments at a default the
//! user did not ask for — and heads every record with its host.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro spawns")
}

#[test]
fn usage_errors_exit_2_and_quote_the_offending_text() {
    for (args, quoted) in [
        (&["table10", "--scale", "2O000"][..], "`2O000`"),
        (&["--threads", "x"][..], "`x`"),
        (&["fig5", "--scale"][..], "--scale expects a value"),
        (&["table10", "--timeout-ms", "5"][..], "unknown flag `--timeout-ms`"),
        (&["table13"][..], "unknown command `table13`"),
        (&["table10", "table11"][..], "unexpected argument `table11`"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(quoted), "{args:?}: {stderr}");
    }
}

#[test]
fn every_run_starts_by_naming_its_host_degree_and_scale() {
    // fig7 at 5 documents is the cheapest command
    let out = repro(&["fig7", "--scale", "5", "--threads", "1", "--no-metrics"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = stdout.lines().next().unwrap_or_default();
    assert!(header.starts_with("host available_parallelism = "), "{stdout}");
    assert!(header.ends_with(", executor degree = 1, scale = 5"), "{stdout}");
    assert!(stdout.contains("== Figure 7"), "{stdout}");
}
