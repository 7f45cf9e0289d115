//! Ablation benches for three design choices:
//!
//! * storage plans: analysis-informed `SingleValue` registers vs the
//!   always-sound conservative bit vectors (what the static analysis buys
//!   at runtime);
//! * the DFA baseline: lazy-DFA stepping vs the NCA engines on a
//!   counting-heavy pattern (single-lookup speed vs exponential memory);
//! * switch model on/off: the optional routing-energy refinement must not
//!   change comparative results (cost model robustness).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use recama::analysis::{analyze_nca, ExactConfig};
use recama::compiler::{compile, CompileOptions};
use recama::hw::{run_with, AreaGranularity, SwitchParams};
use recama::nca::{
    unfold, CompilePlan, CompiledEngine, DfaEngine, Engine, Nca, StateId, UnfoldPolicy,
};

fn bench_storage_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_storage_plans");
    group.sample_size(20);
    // Counter-unambiguous pattern: the analysis enables SingleValue.
    let r = recama::syntax::parse(".*[^a]a{200}b").unwrap().regex;
    let nca = Nca::from_regex(&r);
    let analysis = analyze_nca(&nca, &ExactConfig::default());
    assert!(analysis.complete);
    let input: Vec<u8> = (0..8192u32)
        .map(|i| if i % 211 == 0 { b'x' } else { b'a' })
        .collect();
    group.throughput(Throughput::Bytes(input.len() as u64));
    group.bench_function("analysis_informed_single_value", |b| {
        let plan =
            CompilePlan::with_unambiguous_states(&nca, |q: StateId| analysis.state_unambiguous(q));
        let mut e = CompiledEngine::new(&nca, plan);
        b.iter(|| e.match_ends(&input).len())
    });
    group.bench_function("conservative_bit_vectors", |b| {
        let mut e = CompiledEngine::conservative(&nca);
        b.iter(|| e.match_ends(&input).len())
    });
    group.finish();
}

fn bench_counting_representations(c: &mut Criterion) {
    // Bit vector (the paper's hardware representation) vs counting-set
    // queue (Turoňová et al., the software alternative of §5) on an
    // ambiguous σ{m,n} with a large bound.
    let mut group = c.benchmark_group("ablation_counting_representation");
    group.sample_size(20);
    let r = recama::syntax::parse("k.{500,1500}").unwrap().for_stream();
    let nca = Nca::from_regex(&r);
    let input: Vec<u8> = (0..16384u32)
        .map(|i| if i % 97 == 0 { b'k' } else { b'.' })
        .collect();
    group.throughput(Throughput::Bytes(input.len() as u64));
    group.bench_function("bit_vector_shift", |b| {
        let mut e = CompiledEngine::conservative(&nca);
        b.iter(|| e.match_ends(&input).len())
    });
    group.bench_function("counting_set_queue", |b| {
        let mut e = CompiledEngine::counting_sets(&nca);
        b.iter(|| e.match_ends(&input).len())
    });
    group.finish();
}

fn bench_dfa_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dfa_baseline");
    group.sample_size(15);
    let r = recama::syntax::parse(".*a[ab]{10}").unwrap().regex;
    let unfolded = Nca::from_regex(&unfold(&r, UnfoldPolicy::All));
    let counted = Nca::from_regex(&r);
    let input: Vec<u8> = (0..8192u32)
        .map(|i| if i % 3 == 0 { b'a' } else { b'b' })
        .collect();
    group.throughput(Throughput::Bytes(input.len() as u64));
    group.bench_function("lazy_dfa", |b| {
        let mut e = DfaEngine::new(&unfolded);
        // Warm the transition cache once so steady-state speed is measured.
        e.match_ends(&input);
        b.iter(|| e.match_ends(&input).len())
    });
    group.bench_function("compiled_nca", |b| {
        let mut e = CompiledEngine::conservative(&counted);
        b.iter(|| e.match_ends(&input).len())
    });
    group.finish();
}

fn bench_switch_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_switch_model");
    group.sample_size(10);
    let parsed = recama::syntax::parse("^a{1200}").unwrap();
    let out = compile(
        &parsed.for_stream(),
        &CompileOptions {
            unfold: UnfoldPolicy::All,
            ..Default::default()
        },
    );
    let input: Vec<u8> = std::iter::repeat_n(b'a', 4096).collect();
    group.bench_function("without_switch_energy", |b| {
        b.iter(|| {
            run_with(&out.network, &input, AreaGranularity::ProRata, None)
                .energy
                .total_fj()
        })
    });
    group.bench_function("with_switch_energy", |b| {
        let params = SwitchParams::default();
        b.iter(|| {
            run_with(
                &out.network,
                &input,
                AreaGranularity::ProRata,
                Some(&params),
            )
            .energy
            .total_fj()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_storage_plans,
    bench_counting_representations,
    bench_dfa_baseline,
    bench_switch_model
);
criterion_main!(benches);
