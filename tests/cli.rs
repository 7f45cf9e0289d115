//! Integration tests for the `recama` command-line tool, run against the
//! actual binary.

use std::process::Command;

fn recama() -> Command {
    Command::new(env!("CARGO_BIN_EXE_recama"))
}

#[test]
fn analyze_reports_verdict_and_occurrences() {
    // Anchored, so the streaming form keeps the first occurrence
    // unambiguous: a{3}.*b{3}.
    let out = recama()
        .args(["analyze", "^a{3}.*b{3}", "--method", "exact"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counter-AMBIGUOUS"), "{stdout}");
    assert!(
        stdout.contains("occurrence #0 {3}: unambiguous"),
        "{stdout}"
    );
    assert!(stdout.contains("occurrence #1 {3}: AMBIGUOUS"), "{stdout}");
    assert!(stdout.contains("token pairs"), "{stdout}");
}

#[test]
fn analyze_unambiguous_regex() {
    let out = recama()
        .args(["analyze", "^x[ab]{40}y"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counter-unambiguous"), "{stdout}");
}

#[test]
fn analyze_witness_variant_prints_witness() {
    let out = recama()
        .args(["analyze", ".*a{4}", "--method", "hybrid-witness"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("witness:"), "{stdout}");
}

#[test]
fn compile_emits_valid_mnrl_json() {
    let out = recama()
        .args(["compile", "x[ab]{3,5}y"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let net = recama::mnrl::MnrlNetwork::from_json(&stdout).expect("valid MNRL JSON");
    assert!(net.validate().is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bit-vector"), "{stderr}");
}

#[test]
fn compile_threshold_unfolds() {
    let out = recama()
        .args(["compile", "^a{4}b", "--threshold", "10"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 counter modules"), "{stderr}");
    assert!(stderr.contains("5 STEs"), "{stderr}");
}

#[test]
fn run_reports_matches_and_costs() {
    let out = recama()
        .args(["run", "ab{2,3}c", "--text", "zabbcz"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matches end:  [5]"), "{stdout}");
    assert!(stdout.contains("nJ/byte"), "{stdout}");
    assert!(stdout.contains("mm²"), "{stdout}");
}

/// A bad pattern, and a malformed or missing flag value, fail instead of
/// falling back to a default.
#[test]
fn bad_pattern_fails_cleanly() {
    for (args, message) in [
        (&["analyze", "a(b"][..], "parse error"),
        (
            &["compile", "^a{4}b", "--threshold", "abc"],
            "bad --threshold",
        ),
        (
            &["compile", "^a{4}b", "--threshold"],
            "--threshold needs a value",
        ),
        (&["compile", "^a{4}b", "--out"], "--out needs a value"),
        (
            &["run", "ab", "--text", "xab", "--threshold", "-1"],
            "bad --threshold",
        ),
        (&["run", "ab", "--text"], "--text needs a value"),
        (&["analyze", "^a{4}b", "--method"], "--method needs a value"),
        (&["analyze", "^a{4}b", "--method", "nope"], "unknown method"),
    ] {
        let out = recama().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn no_args_prints_usage() {
    let out = recama().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn compile_says_how_the_scan_steps_each_counter() {
    // `h.{55}`'s counting set fits a machine word, stepped from one flat
    // record; `.{69}` does not fit, and `{3,}` saturates. Under a star a
    // counting set starts itself over, which no flat record does.
    for (pattern, line) in [
        (
            "h.{55}",
            "counter 0: bit-vector for bounds {55,55}, decided by exact exploration; \
             scans as a 55-bit word (flat)",
        ),
        ("cgzndh.{69}", "scans as a counting-set queue\n"),
        ("ka{3,}b", "scans as a register\n"),
        ("(a{2,3})*b", "scans as a 3-bit word\n"),
    ] {
        let out = recama()
            .args(["compile", pattern])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(line), "{pattern}: {stderr}");
    }
}

#[test]
fn compile_says_what_decided_each_occurrence() {
    // Example 3.4 next to a plainly ambiguous run: two relaxed proofs and
    // one exact exploration for what they leave open.
    let out = recama()
        .args(["compile", "([^ac][ac]{30}|[^bc][bc]{30}|d{40})"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("analysis: 3 relaxed + 1 exact explorations over 1 iterations"),
        "{stderr}"
    );
    assert!(
        stderr.contains("counter 0: counter for bounds {30,30}, decided by relaxed proof"),
        "{stderr}"
    );
    assert!(
        stderr.contains("counter 2: bit-vector for bounds {40,40}, decided by exact exploration"),
        "{stderr}"
    );
}
