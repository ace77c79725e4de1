//! Criterion benches for the composition/optimization hot paths:
//!
//! * the Lemma 2 complexity claim — stay-move composition scales
//!   quadratically while the classical construction is exponential in the
//!   chain length k;
//! * interpretation of the accumulator-encoded FT∘FT composition by the
//!   reference interpreter (`run_mft`);
//! * `opt::optimize` on the nested value-doubling let adversary at
//!   n = 12/16/20 (polynomial only thanks to the inlining growth budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use foxq_core::mft::XVar;
use foxq_core::opt::optimize_with_stats;
use foxq_core::translate::translate;
use foxq_tt::{compose_ft_ft, compose_tt_tt, compose_tt_tt_naive, Mtt, TNode};
use foxq_xquery::parse_query;

fn chain_pair(k: usize) -> (Mtt, Mtt) {
    let mut m1 = Mtt::new();
    let a = m1.alphabet.intern_elem("a");
    let b = m1.alphabet.intern_elem("b");
    let q0 = m1.add_state("q0", 0);
    m1.initial = q0;
    let mut rhs = TNode::call(q0, XVar::X1, vec![]);
    for _ in 0..k {
        rhs = TNode::sym(b, rhs, TNode::Eps);
    }
    m1.rules[q0.idx()].by_sym.insert(a, rhs);
    let mut m2 = Mtt::new();
    let b2 = m2.alphabet.intern_elem("b");
    let c = m2.alphabet.intern_elem("c");
    let p0 = m2.add_state("p0", 0);
    m2.initial = p0;
    m2.rules[p0.idx()].by_sym.insert(
        b2,
        TNode::sym(
            c,
            TNode::call(p0, XVar::X1, vec![]),
            TNode::call(p0, XVar::X1, vec![]),
        ),
    );
    (m1, m2)
}

fn bench_compose(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("lemma2_composition");
    group.sample_size(10);
    for k in [4usize, 8, 12] {
        let (m1, m2) = chain_pair(k);
        group.bench_with_input(BenchmarkId::new("stay", k), &k, |b, _| {
            b.iter(|| compose_tt_tt(&m1, &m2))
        });
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, _| {
            b.iter(|| compose_tt_tt_naive(&m1, &m2, 100_000_000).unwrap())
        });
    }
    group.finish();
}

fn bench_ftft_interpretation(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("ftft_interpretation");
    group.sample_size(10);
    let doubler = foxq_core::parse_mft("q(%t(x1) x2) -> q(x2) q(x2); q(eps) -> a();").unwrap();
    let composed = compose_ft_ft(&doubler, &doubler);
    let input = foxq_forest::term::parse_forest("w x y z").unwrap();
    group.bench_function("doubling_twice/4", |b| {
        b.iter(|| foxq_core::run_mft(&composed, &input).unwrap())
    });
    group.finish();
}

use foxq_core::opt::nested_doubling_lets;

fn bench_opt_nested_lets(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("opt_nested_lets");
    group.sample_size(10);
    for n in [12usize, 16, 20] {
        let q = parse_query(&nested_doubling_lets(n)).unwrap();
        let m = translate(&q).unwrap();
        group.bench_with_input(BenchmarkId::new("optimize", n), &n, |b, _| {
            b.iter(|| optimize_with_stats(m.clone()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compose,
    bench_ftft_interpretation,
    bench_opt_nested_lets
);
criterion_main!(benches);
