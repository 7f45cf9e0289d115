//! End-to-end pipeline integration: parse → analyze → compile → MNRL JSON
//! round trip → place → simulate, across pattern families and rulesets.

use recama::compiler::{compile, compile_ruleset, CompileOptions};
use recama::hw::{place, run, AreaGranularity, HwSimulator};
use recama::mnrl::MnrlNetwork;
use recama::nca::{Engine, UnfoldPolicy};
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::Pattern;

const PATTERNS: &[&str] = &[
    "abc",
    "a{5}",
    "^a{5}",
    "a(bc){3,7}d",
    ".*[ab][^a]{4}",
    "x[0-9]{2,64}y",
    "(GET|POST) /[a-z]{1,100}",
    "a{3}.*b{3}",
    "[ab]*a[ab]{2,5}b",
    "head(body){2,3}tail",
    "a{4,}b",
];

#[test]
fn every_stage_succeeds_for_the_pattern_zoo() {
    for p in PATTERNS {
        let pattern = Pattern::compile(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        // Network validates.
        let problems = pattern.network().validate();
        assert!(problems.is_empty(), "{p}: {problems:?}");
        // JSON round trip is the identity.
        let json = pattern.network().to_json();
        let back = MnrlNetwork::from_json(&json).unwrap_or_else(|e| panic!("{p}: {e}"));
        assert_eq!(&back, pattern.network(), "{p}: JSON round trip");
        // Placement covers every node.
        let placement = place(pattern.network());
        assert_eq!(
            placement.per_node.len(),
            pattern.network().node_count(),
            "{p}"
        );
        // Simulation runs.
        let mut hw = HwSimulator::new(pattern.network());
        let _ = hw.match_ends(b"abcdefgh");
    }
}

#[test]
fn threshold_sweep_preserves_semantics() {
    let input = b"zzabcbcbcdzz-abcd-abcbcd";
    let parsed = recama::syntax::parse("a(bc){2,3}d").unwrap();
    let mut reference: Option<Vec<usize>> = None;
    for unfold in [
        UnfoldPolicy::None,
        UnfoldPolicy::UpTo(2),
        UnfoldPolicy::UpTo(10),
        UnfoldPolicy::All,
    ] {
        let out = compile(
            &parsed.for_stream(),
            &CompileOptions {
                unfold,
                ..Default::default()
            },
        );
        let mut hw = HwSimulator::new(&out.network);
        let ends = hw.match_ends(input);
        match &reference {
            None => reference = Some(ends),
            Some(r) => assert_eq!(&ends, r, "unfold policy {unfold:?} changed semantics"),
        }
    }
    // "abcbcbcd" ends at 10; "abcbcd" ends at 24; the lone "abcd" has only
    // one bc repetition and must not match.
    assert_eq!(reference.unwrap(), vec![10, 24]);
}

#[test]
fn ruleset_end_to_end_on_all_benchmarks() {
    for id in BenchmarkId::ALL {
        let ruleset = generate(id, 0.002, 99);
        let patterns = ruleset.pattern_strings();
        let out = compile_ruleset(&patterns, &CompileOptions::default());
        assert!(
            out.rules.len() + out.rejected.len() == patterns.len(),
            "{id:?}: every pattern accounted for"
        );
        let problems = out.network.validate();
        assert!(problems.is_empty(), "{id:?}: {problems:?}");
        let input = traffic(&ruleset, 2048, 0.002, 5);
        let report = run(&out.network, &input, AreaGranularity::WholeModule);
        assert!(report.energy.nj_per_byte() > 0.0, "{id:?}: energy");
        assert!(report.area.total_mm2() > 0.0, "{id:?}: area");
    }
}

#[test]
fn software_engine_and_hardware_agree_on_traffic() {
    let ruleset = generate(BenchmarkId::Snort, 0.002, 3);
    let input = traffic(&ruleset, 4096, 0.001, 11);
    let mut checked = 0;
    for (p, _) in ruleset.patterns.iter() {
        let Ok(pattern) = Pattern::compile(p) else {
            continue;
        };
        // Keep the test fast: skip giant unfolded rules.
        if pattern.network().node_count() > 3000 {
            continue;
        }
        let sw = pattern.find_ends(&input);
        let mut hw = pattern.hardware();
        let hw_ends = hw.match_ends(&input);
        assert_eq!(sw, hw_ends, "pattern {p}");
        checked += 1;
        if checked >= 10 {
            break;
        }
    }
    assert!(checked >= 5, "too few patterns checked");
}

#[test]
fn analysis_informed_engine_reports_no_conflicts() {
    // The SingleValue storage chosen from analysis verdicts must never
    // observe two distinct valuations (dynamic validation of the static
    // analysis through the whole pipeline).
    let ruleset = generate(BenchmarkId::Suricata, 0.002, 17);
    let input = traffic(&ruleset, 2048, 0.002, 23);
    let mut checked = 0;
    for (p, _) in ruleset.patterns.iter() {
        let Ok(pattern) = Pattern::compile(p) else {
            continue;
        };
        if pattern.compiled().modules.is_empty() {
            continue;
        }
        let mut engine = pattern.engine();
        engine.match_ends(&input);
        assert_eq!(engine.conflicts(), 0, "pattern {p}");
        checked += 1;
        if checked >= 8 {
            break;
        }
    }
    assert!(checked >= 3);
}

#[test]
fn cli_binary_smoke() {
    // The CLI is part of the public artifact surface; exercise it through
    // the library entry points it wraps (binary execution is environment
    // dependent, so test the underlying calls instead).
    let parsed = recama::syntax::parse("a{10}b").unwrap();
    let out = compile(&parsed.for_stream(), &CompileOptions::default());
    assert!(out.network.to_json().contains("\"type\""));
}

#[test]
fn per_rule_report_attribution() {
    // Ruleset networks stamp every reporting node with its rule id;
    // the simulator's report vector says which rule fired at each cycle.
    let patterns: Vec<String> = vec!["^ab{2}c".into(), "xyz".into(), "q{3}".into()];
    let out = compile_ruleset(&patterns, &CompileOptions::default());
    let mut hw = HwSimulator::new(&out.network);
    assert_eq!(
        hw.match_ends_by_rule(b"abbc..xyz..qqq"),
        vec![(0, 4), (1, 9), (2, 14)]
    );
}

#[test]
fn trailing_anchor_filters_match_ends() {
    let p = Pattern::compile("ab$").unwrap();
    assert_eq!(p.find_ends(b"ab..ab"), vec![6]);
    assert!(!p.find_ends(b"xxab").is_empty());
    assert!(p.find_ends(b"abxx").is_empty());
    let unanchored = Pattern::compile("ab").unwrap();
    assert_eq!(unanchored.find_ends(b"ab..ab"), vec![2, 6]);
}
