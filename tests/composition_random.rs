//! Randomized equivalence tests for the §4.2 composition constructions:
//! `[[compose(M1,M2)]](t) = [[M2]]([[M1]](t))` on random transducers and
//! random inputs.

use foxq::core::mft::{OutLabel, StateId, XVar};
use foxq::forest::fcns::fcns;
use foxq::forest::{BinTree, Forest};
use foxq_tt::{compose_ft_ft, compose_tt_tt, compose_tt_tt_naive, Mtt, TNode};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SYMS: [&str; 3] = ["a", "b", "c"];

/// The fixed-seed loops run every seed in a release build (CI does) and
/// every other one in a debug build, where the §4.2 interpreters are far
/// slower.
const SEED_STRIDE: usize = if cfg!(debug_assertions) { 2 } else { 1 };

/// Random total deterministic TT without stay moves (guaranteed to
/// terminate) over the {a,b,c} alphabet.
fn random_tt(rng: &mut SmallRng) -> Mtt {
    let mut m = Mtt::new();
    for s in SYMS {
        m.alphabet.intern_elem(s);
    }
    let nstates = rng.gen_range(1..=3);
    for i in 0..nstates {
        m.add_state(format!("q{i}"), 0);
    }
    m.initial = StateId(0);
    for q in 0..nstates {
        let nsym = rng.gen_range(0..=SYMS.len());
        for s in 0..nsym {
            let rhs = random_rhs(rng, nstates, 0, true);
            m.rules[q].by_sym.insert(foxq::forest::SymId(s as u32), rhs);
        }
        m.rules[q].default = random_rhs(rng, nstates, 0, true);
        // ε-rules: ground output only (no x0 — keeps everything terminating).
        m.rules[q].eps = random_rhs(rng, nstates, 0, false);
    }
    m.validate().unwrap();
    m
}

fn random_rhs(rng: &mut SmallRng, nstates: usize, depth: usize, calls: bool) -> TNode {
    let choice = if depth >= 3 {
        rng.gen_range(0..2)
    } else {
        rng.gen_range(0..4)
    };
    match choice {
        0 => TNode::Eps,
        1 => {
            let label = if rng.gen_bool(0.8) {
                OutLabel::Sym(foxq::forest::SymId(rng.gen_range(0..SYMS.len()) as u32))
            } else {
                OutLabel::Current
            };
            // %t is invalid in ε-rules; fall back to a symbol there.
            let label = if !calls && label == OutLabel::Current {
                OutLabel::Sym(foxq::forest::SymId(0))
            } else {
                label
            };
            TNode::out(
                label,
                random_rhs(rng, nstates, depth + 1, calls),
                random_rhs(rng, nstates, depth + 1, calls),
            )
        }
        _ if calls => {
            let x = if rng.gen_bool(0.5) {
                XVar::X1
            } else {
                XVar::X2
            };
            TNode::call(StateId(rng.gen_range(0..nstates) as u32), x, vec![])
        }
        _ => TNode::Eps,
    }
}

fn random_input(rng: &mut SmallRng) -> BinTree {
    fn tree(rng: &mut SmallRng, budget: &mut usize, depth: usize) -> Forest {
        let mut out = Vec::new();
        while *budget > 0 && out.len() < 3 && rng.gen_bool(0.7) {
            *budget -= 1;
            let children = if depth < 4 {
                tree(rng, budget, depth + 1)
            } else {
                vec![]
            };
            out.push(foxq::forest::Tree {
                label: foxq::forest::Label::elem(SYMS[rng.gen_range(0..SYMS.len())]),
                children,
            });
        }
        out
    }
    let mut budget = rng.gen_range(1..12usize);
    fcns(&tree(rng, &mut budget, 0))
}

/// Random TTs can have exponential size increase, and a composition squares
/// it — bound the interpreter and run on a large stack so pathological
/// seeds are skipped instead of exhausting memory.
fn check_tt_composition(seed: u64) {
    use foxq_tt::run_mtt_with_limit;
    let mut rng = SmallRng::seed_from_u64(seed);
    let m1 = random_tt(&mut rng);
    let m2 = random_tt(&mut rng);
    let stay = compose_tt_tt(&m1, &m2);
    let naive = compose_tt_tt_naive(&m1, &m2, 1_000_000);
    for _ in 0..5 {
        let t = random_input(&mut rng);
        // Skip samples whose sequential output is already huge.
        let Ok(mid) = run_mtt_with_limit(&m1, &t, 100_000) else {
            continue;
        };
        let Ok(expected) = run_mtt_with_limit(&m2, &mid, 100_000) else {
            continue;
        };
        // The composed run takes more steps (stay chains); generous margin.
        let got = run_mtt_with_limit(&stay, &t, 50_000_000).unwrap();
        assert_eq!(
            got, expected,
            "stay composition differs (seed {seed}) on {t:?}"
        );
        if let Some(n) = &naive {
            let got_naive = run_mtt_with_limit(n, &t, 50_000_000).unwrap();
            assert_eq!(
                got_naive, expected,
                "naive composition differs (seed {seed})"
            );
        }
    }
}

/// Run `f` on a thread with a large stack (deep output trees recurse in the
/// interpreter and in `Drop`).
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn tt_composition_agrees_on_fixed_seeds() {
    with_big_stack(|| {
        for seed in (0..200u64).step_by(SEED_STRIDE) {
            check_tt_composition(seed);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn tt_composition_agrees_on_random_seeds(seed in any::<u64>()) {
        with_big_stack(move || check_tt_composition(seed));
    }
}

/// FT ∘ FT → MFT on random *forest* transducers derived from random TTs
/// via the decoding direction of Lemma 1.
#[test]
fn ft_composition_agrees_on_fixed_seeds() {
    with_big_stack(ft_composition_body);
}

fn ft_composition_body() {
    use foxq::core::stream::run_streaming_on_forest;
    use foxq::core::{run_mft_with_limits, RunLimits};
    use foxq::xml::ForestSink;
    for seed in (0..100u64).step_by(SEED_STRIDE) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let f1 = foxq_tt::mtt_to_mft(&random_tt(&mut rng));
        let f2 = foxq_tt::mtt_to_mft(&random_tt(&mut rng));
        let composed = compose_ft_ft(&f1, &f2);
        let limits = RunLimits::with_max_steps(5_000_000);
        for _ in 0..4 {
            let input = foxq::forest::fcns::unfcns(&random_input(&mut rng));
            let Ok(mid) = run_mft_with_limits(&f1, &input, limits) else {
                continue;
            };
            let Ok(expected) = run_mft_with_limits(&f2, &mid, limits) else {
                continue;
            };
            // The composed MFT runs on the streaming engine, as a query
            // would; the reference must agree too wherever it terminates
            // within its budgets.
            let (sink, _) = run_streaming_on_forest(&composed, &input, ForestSink::new()).unwrap();
            assert_eq!(sink.into_forest(), expected, "FT∘FT differs (seed {seed})");
            if let Ok(direct) = run_mft_with_limits(&composed, &input, limits) {
                assert_eq!(direct, expected, "reference on FT∘FT differs (seed {seed})");
            }
        }
    }
}
