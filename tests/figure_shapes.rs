//! Shape assertions for every figure of the paper's evaluation: the
//! absolute numbers differ (simulated hardware, synthetic rulesets), but
//! who wins, by roughly what factor, and where the knees fall must match.
//! The bench binaries (`recama-bench`) print the full tables; these tests
//! pin the claims at reduced scale so `cargo test` guards them.

use recama::analysis::{check, CheckConfig, Method};
use recama::compiler::{compile, CompileOptions};
use recama::hw::{params, run, AreaGranularity, ShardPolicy};
use recama::nca::UnfoldPolicy;
use recama::workloads::{generate, paper_table1, traffic, BenchmarkId};
use recama::Engine;

/// `patterns` compiled with `options` into one machine image, rules
/// outside the fragment skipped.
fn one_image(patterns: &[String], options: CompileOptions) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .options(options)
        .shard_policy(ShardPolicy::Single)
        .lossy(true)
        .build()
        .expect("lossy builds are infallible")
}

/// Table 1 shape: the synthetic rulesets reproduce the published
/// supported/counting/ambiguous proportions by construction.
#[test]
fn table_1_proportions() {
    for id in BenchmarkId::ALL {
        let rs = generate(id, 0.01, 1);
        let got = rs.intended_table1();
        let want = paper_table1(id);
        let close = |a: usize, b: usize, total_a: usize, total_b: usize| {
            let fa = a as f64 / total_a.max(1) as f64;
            let fb = b as f64 / total_b.max(1) as f64;
            (fa - fb).abs() < 0.05
        };
        assert!(
            close(got.supported, want.supported, got.total, want.total),
            "{id:?} supported"
        );
        assert!(
            close(got.counting, want.counting, got.total, want.total),
            "{id:?} counting"
        );
        assert!(
            close(got.ambiguous, want.ambiguous, got.total, want.total),
            "{id:?} ambiguous"
        );
    }
}

/// Fig. 2 shape: analysis cost grows with μ(r) for the exact variant, and
/// the approximate variant stays far below it on the adversarial family.
#[test]
fn fig_2_cost_growth() {
    let shape = |n: u32| format!(".*([^ac][ac]{{{n}}}|[^bc][bc]{{{n}}})");
    let mut last_pairs = 0;
    for n in [8u32, 16, 32] {
        let r = recama::syntax::parse(&shape(n)).unwrap().regex;
        let exact = check(&r, Method::Exact, &CheckConfig::default());
        assert!(
            exact.stats.pairs_created > last_pairs,
            "pairs must grow with μ"
        );
        last_pairs = exact.stats.pairs_created;
        let approx = check(&r, Method::Approximate, &CheckConfig::default());
        if n >= 16 {
            // The linear/quadratic gap needs a little headroom to show.
            assert!(
                approx.stats.pairs_created * 2 < exact.stats.pairs_created,
                "n={n}"
            );
        }
    }
}

/// Fig. 3 shape: hybrid ≪ exact on the expensive Snort/Suricata regexes;
/// hybrid ≈ exact when the exact analysis is already cheap.
#[test]
fn fig_3_hybrid_speedup() {
    let expensive = recama::syntax::parse(".*([^ac][ac]{150}|[^bc][bc]{150})")
        .unwrap()
        .regex;
    let exact = check(&expensive, Method::Exact, &CheckConfig::default());
    let hybrid = check(&expensive, Method::Hybrid, &CheckConfig::default());
    assert_eq!(exact.ambiguous, Some(false));
    assert_eq!(hybrid.ambiguous, Some(false));
    assert!(
        hybrid.stats.pairs_created * 10 < exact.stats.pairs_created,
        "hybrid {} vs exact {}",
        hybrid.stats.pairs_created,
        exact.stats.pairs_created
    );
}

/// Table 2 shape: the module delays close timing at CAMA's 2.14 GHz —
/// "no performance penalty".
#[test]
#[allow(clippy::assertions_on_constants)] // deliberate checks of Table 2 constants
fn table_2_timing_closure() {
    assert!(params::single_cycle_feasible());
    assert!(params::COUNTER_MODULE.delay_ps < params::CYCLE_PS);
    assert!(params::BITVECTOR_MODULE.delay_ps < params::CYCLE_PS);
}

/// Fig. 8 shape: counters and bit vectors beat unfolding by orders of
/// magnitude in energy at large n, with the gap growing in n.
#[test]
fn fig_8_micro_tradeoffs() {
    let input: Vec<u8> = std::iter::repeat_n(b'a', 2048).collect();
    let mut last_counter_ratio = 0.0;
    for n in [64u32, 256, 1024] {
        // Counter case: ^a{n} (counter-unambiguous).
        let anchored = recama::syntax::parse(&format!("^a{{{n}}}")).unwrap();
        let module = compile(&anchored.for_stream(), &CompileOptions::default());
        let unfolded = compile(
            &anchored.for_stream(),
            &CompileOptions {
                unfold: UnfoldPolicy::All,
                ..Default::default()
            },
        );
        let e_mod = run(&module.network, &input, AreaGranularity::ProRata)
            .energy
            .nj_per_byte();
        let e_unf = run(&unfolded.network, &input, AreaGranularity::ProRata)
            .energy
            .nj_per_byte();
        let ratio = e_unf / e_mod;
        assert!(
            ratio > last_counter_ratio,
            "gap must grow with n (n={n}, ratio={ratio:.1})"
        );
        last_counter_ratio = ratio;

        // Bit-vector case: Σ*a{n} (counter-ambiguous).
        let stream = recama::syntax::parse(&format!("a{{{n}}}")).unwrap();
        let bv = compile(&stream.for_stream(), &CompileOptions::default());
        let bv_unf = compile(
            &stream.for_stream(),
            &CompileOptions {
                unfold: UnfoldPolicy::All,
                ..Default::default()
            },
        );
        let e_bv = run(&bv.network, &input, AreaGranularity::ProRata)
            .energy
            .nj_per_byte();
        let e_bvu = run(&bv_unf.network, &input, AreaGranularity::ProRata)
            .energy
            .nj_per_byte();
        assert!(
            e_bvu / e_bv > 5.0,
            "bit vector must win at n={n}: {:.1}",
            e_bvu / e_bv
        );
    }
    assert!(
        last_counter_ratio > 100.0,
        "orders of magnitude at n=1024: {last_counter_ratio:.0}"
    );
}

/// Fig. 9 shape: MNRL node counts rise monotonically with the unfolding
/// threshold and the augmented design sits well below unfold-all for the
/// large-bound rulesets.
#[test]
fn fig_9_node_counts() {
    let rs = generate(BenchmarkId::Snort, 0.005, 9);
    let patterns = rs.pattern_strings();
    let mut last = 0usize;
    let mut first = usize::MAX;
    for policy in [
        UnfoldPolicy::None,
        UnfoldPolicy::UpTo(10),
        UnfoldPolicy::UpTo(100),
        UnfoldPolicy::All,
    ] {
        let engine = one_image(
            &patterns,
            CompileOptions {
                unfold: policy,
                ..Default::default()
            },
        );
        let n = engine.network(0).node_count();
        assert!(n >= last, "monotone in threshold");
        first = first.min(n);
        last = n;
    }
    assert!(
        last as f64 / first as f64 > 2.0,
        "full unfolding should cost ≫ augmented: {first} -> {last}"
    );
}

/// Fig. 10 shape: for the large-bound rulesets (Snort/Suricata-like) the
/// augmented design reduces energy and area substantially versus unfolding;
/// for the small-bound rulesets (Protomata/SpamAssassin-like) it is close
/// to neutral — and never substantially worse.
#[test]
fn fig_10_application_benchmarks() {
    for (id, expect_large_saving) in [(BenchmarkId::Snort, true), (BenchmarkId::Protomata, false)] {
        let rs = generate(id, 0.004, 13);
        let patterns = rs.pattern_strings();
        let input = traffic(&rs, 4096, 0.001, 3);
        let augmented = one_image(&patterns, CompileOptions::default());
        let baseline = one_image(
            &patterns,
            CompileOptions {
                unfold: UnfoldPolicy::All,
                ..Default::default()
            },
        );
        let run_a = run(augmented.network(0), &input, AreaGranularity::WholeModule);
        let run_b = run(baseline.network(0), &input, AreaGranularity::WholeModule);
        let e_saving = 1.0 - run_a.energy.nj_per_byte() / run_b.energy.nj_per_byte();
        let a_saving = 1.0 - run_a.area.total_mm2() / run_b.area.total_mm2();
        if expect_large_saving {
            assert!(e_saving > 0.4, "{id:?}: energy saving {e_saving:.2}");
            assert!(a_saving > 0.2, "{id:?}: area saving {a_saving:.2}");
        } else {
            assert!(e_saving > -0.15, "{id:?}: energy overhead {e_saving:.2}");
        }
        // Same reports from both designs.
        assert_eq!(run_a.match_ends, run_b.match_ends, "{id:?}");
    }
}
