//! End-to-end tests of the `propeller_cli` binary: the committed bench
//! baseline reproduces byte-for-byte, and the flag table turns every
//! malformed invocation into a usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_propeller_cli"))
        .args(args)
        .output()
        .expect("propeller_cli spawns")
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// The CI bench gate's run, checked here too: the zero-fault pipeline
/// must reproduce `ci/bench_baseline.json` byte-for-byte.
#[test]
fn run_reproduces_the_committed_bench_baseline() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_bench_baseline");
    let _ = std::fs::remove_dir_all(&out);
    let o =
        cli(&["run", "clang", "--scale", "0.004", "--seed", "77", "--out", out.to_str().unwrap()]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let got = std::fs::read_to_string(out.join("run_report.json")).unwrap();
    let want = std::fs::read_to_string(repo_file("ci/bench_baseline.json")).unwrap();
    assert!(got == want, "run_report.json differs from ci/bench_baseline.json");
}

/// Asserts `args` is rejected as a usage error naming `subcommand`
/// before any work runs.
fn assert_usage_error(args: &[&str], subcommand: &str) {
    let o = cli(args);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(!o.status.success(), "{args:?} was accepted");
    assert!(
        stderr.contains(&format!("usage: propeller_cli {subcommand}")),
        "{args:?} printed no {subcommand} usage line: {stderr}"
    );
    assert!(o.stdout.is_empty(), "{args:?} did work before rejecting: {:?}", o.stdout);
}

/// One subcommand for each argument shape the CLI parses: a required
/// benchmark, benchmark plus function, an optional benchmark, the
/// service family, and bare file operands.
#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    let shapes: &[(&str, &[&str], &str)] = &[
        ("run", &["run", "clang"], "--seed"),
        ("explain", &["explain", "clang", "clang_fn92"], "--scale"),
        ("chaos", &["chaos"], "--out"),
        ("fleet", &["fleet", "clang"], "--drift"),
        ("traffic", &["traffic", "clang"], "--requests"),
        ("timeline", &["timeline"], "--interval"),
        ("serve", &["serve"], "--slots"),
        ("diff", &["diff", "a.json", "b.json"], "--tolerance"),
    ];
    for (name, base, valued) in shapes {
        let unknown: Vec<&str> = base.iter().copied().chain(["--no-such-flag"]).collect();
        assert_usage_error(&unknown, name);
        let missing: Vec<&str> = base.iter().copied().chain([*valued]).collect();
        assert_usage_error(&missing, name);
    }
    assert_usage_error(&["layout-diff", "a.json", "b.json", "--json"], "layout-diff");
    assert_usage_error(&["service-diff", "a.json"], "service-diff");
}

/// Flags a subcommand never reads are rejected, not silently ignored.
#[test]
fn subcommands_reject_flags_they_ignore() {
    assert_usage_error(&["dump", "clang", "--faults", "transient=1"], "dump");
    assert_usage_error(&["map", "clang", "--jobs", "2"], "map");
    assert_usage_error(&["compare", "clang", "--flamegraph-out", "x.folded"], "compare");
    assert_usage_error(&["timeline", "--config", "slo.toml"], "timeline");
    assert_usage_error(&["slo", "--interval", "5"], "slo");
}

#[test]
fn bad_values_are_usage_errors() {
    assert_usage_error(&["run", "clang", "--scale", "big"], "run");
    assert_usage_error(&["fleet", "--jobs", "0"], "fleet");
}
