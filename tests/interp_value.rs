//! The streaming engine against the reference interpreter (`run_mft`, the
//! §2.2 semantics) on random *general* MFTs — accumulating parameters,
//! `%t`, text rules — which the §3 translation never produces, so
//! `engine_agreement` never feeds them to the engine. Plus the reference's
//! own behaviour on translated queries and on errors (ε-rule `%t`, step
//! and output budgets).

use foxq::core::mft::{rhs, Mft, StateId, XVar};
use foxq::core::stream::run_streaming_on_forest;
use foxq::core::{run_mft_with_limits, RunError, RunLimits};
use foxq::forest::term::parse_forest;
use foxq::forest::{Forest, Label, Tree};
use foxq::xml::ForestSink;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SYMS: [&str; 3] = ["a", "b", "c"];

/// A random total deterministic MFT over {a,b,c} with accumulating
/// parameters (rank ≤ 3). Guaranteed to terminate: no `x0` (stay) calls, so
/// every call descends into `x1`/`x2`, and ε-rules are call-free.
fn random_mft(rng: &mut SmallRng) -> Mft {
    let mut m = Mft::new();
    for s in SYMS {
        m.alphabet.intern_elem(s);
    }
    let nstates = rng.gen_range(1..=3);
    let params: Vec<usize> = (0..nstates)
        .map(|i| if i == 0 { 0 } else { rng.gen_range(0..=2) })
        .collect();
    for (i, &p) in params.iter().enumerate() {
        m.add_state(format!("q{i}"), p);
    }
    m.initial = StateId(0);
    for q in 0..nstates {
        let nsym = rng.gen_range(0..=SYMS.len());
        for s in 0..nsym {
            let body = random_rhs(rng, &params, params[q], 0, true);
            m.set_sym_rule(StateId(q as u32), foxq::forest::SymId(s as u32), body);
        }
        if rng.gen_bool(0.3) {
            let body = random_rhs(rng, &params, params[q], 0, true);
            m.set_text_rule(StateId(q as u32), body);
        }
        let body = random_rhs(rng, &params, params[q], 0, true);
        m.set_default_rule(StateId(q as u32), body);
        let body = random_rhs(rng, &params, params[q], 0, false);
        m.set_eps_rule(StateId(q as u32), body);
    }
    m.validate().unwrap();
    m
}

fn random_rhs(
    rng: &mut SmallRng,
    params: &[usize],
    own_params: usize,
    depth: usize,
    calls: bool,
) -> Vec<foxq::core::RhsNode> {
    let len = if depth >= 3 {
        rng.gen_range(0..=1)
    } else {
        rng.gen_range(0..=3)
    };
    (0..len)
        .map(|_| {
            let choice = rng.gen_range(0..6);
            match choice {
                0 | 1 => rhs::out(
                    foxq::forest::SymId(rng.gen_range(0..SYMS.len()) as u32),
                    random_rhs(rng, params, own_params, depth + 1, calls),
                ),
                2 if calls => {
                    rhs::out_current(random_rhs(rng, params, own_params, depth + 1, calls))
                }
                3 if own_params > 0 => rhs::param(rng.gen_range(0..own_params)),
                4 | 5 if calls => {
                    let callee = rng.gen_range(0..params.len());
                    let x = if rng.gen_bool(0.5) {
                        XVar::X1
                    } else {
                        XVar::X2
                    };
                    let args = (0..params[callee])
                        .map(|_| random_rhs(rng, params, own_params, depth + 1, calls))
                        .collect();
                    rhs::call(StateId(callee as u32), x, args)
                }
                _ => rhs::out(foxq::forest::SymId(0), vec![]),
            }
        })
        .collect()
}

fn random_input(rng: &mut SmallRng) -> Forest {
    fn forest(rng: &mut SmallRng, budget: &mut usize, depth: usize) -> Forest {
        let mut out = Vec::new();
        while *budget > 0 && out.len() < 3 && rng.gen_bool(0.7) {
            *budget -= 1;
            let children = if depth < 4 {
                forest(rng, budget, depth + 1)
            } else {
                vec![]
            };
            let label = if rng.gen_bool(0.15) {
                Label::text("t")
            } else {
                Label::elem(SYMS[rng.gen_range(0..SYMS.len())])
            };
            out.push(Tree { label, children });
        }
        out
    }
    let mut budget = rng.gen_range(1..14usize);
    forest(rng, &mut budget, 0)
}

/// One seed: wherever the reference finishes, the streaming engine
/// produces the same forest.
fn check_agreement(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = random_mft(&mut rng);
    // Parameter-duplicating MFTs can be output-exponential: bound the
    // reference, and compare only where it finished.
    let limits = RunLimits {
        max_steps: 2_000_000,
        max_output_nodes: 50_000_000,
    };
    for _ in 0..5 {
        let input = random_input(&mut rng);
        let Ok(expected) = run_mft_with_limits(&m, &input, limits) else {
            continue;
        };
        let (sink, _) = run_streaming_on_forest(&m, &input, ForestSink::new())
            .unwrap_or_else(|e| panic!("streaming engine failed (seed {seed}): {e}\n{m:?}"));
        assert_eq!(
            sink.into_forest(),
            expected,
            "engine disagrees with the reference (seed {seed}) on {input:?}"
        );
    }
}

#[test]
fn evaluators_agree_on_fixed_seeds() {
    for seed in 0..300u64 {
        check_agreement(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn evaluators_agree_on_random_seeds(seed in any::<u64>()) {
        check_agreement(seed);
    }
}

#[test]
fn evaluators_agree_on_translated_queries() {
    // Transducers produced by the §3 translation: the reference must answer
    // as the DOM evaluator does, before and after the §4.1 optimizations.
    use foxq::core::opt::optimize;
    use foxq::core::translate::translate;
    use foxq::xml::forest_to_xml_string;
    use foxq::xquery::{eval_query, parse_query};
    let cases = [
        (
            r#"<out>{ for $b in $input/person[./p_id/text() = "person0"]
               return let $r := $b/name/text() return $r }</out>"#,
            r#"person(p_id(a() "person0") name("Jim") c() name("Li"))"#,
        ),
        ("<o>{$input//*//*}</o>", "a(b(c(d)) e) f(g)"),
        (
            "<double><r1>{$input/*}</r1>{$input/*}</double>",
            r#"site(a("x") b())"#,
        ),
    ];
    for (query, doc) in cases {
        let q = parse_query(query).unwrap();
        let unopt = translate(&q).unwrap();
        let opt = optimize(unopt.clone());
        let f = parse_forest(doc).unwrap();
        let expected = forest_to_xml_string(&eval_query(&q, &f).unwrap());
        for m in [&unopt, &opt] {
            assert_eq!(
                forest_to_xml_string(&foxq::core::run_mft(m, &f).unwrap()),
                expected,
                "{query} on {doc}"
            );
        }
    }
}

#[test]
fn step_limit_error_parity_on_stay_loops() {
    let m = foxq::core::parse_mft("q0(%) -> q0(x0);").unwrap();
    let limits = RunLimits::with_max_steps(500);
    let f = parse_forest("a").unwrap();
    let expected = Err(RunError::StepLimit { max_steps: 500 });
    assert_eq!(run_mft_with_limits(&m, &f, limits), expected);
}

#[test]
fn eps_current_label_error_parity() {
    // %t in an ε-rule is rejected by validate(); build it anyway — the
    // reference must report CurrentLabelAtEps, naming the state, whether
    // the ε-rule is reached at the top or below a node.
    let mut m = Mft::new();
    let q0 = m.add_state("q0", 0);
    let bad = m.add_state("qbad", 0);
    m.initial = q0;
    m.set_default_rule(q0, vec![rhs::call(bad, XVar::X1, vec![])]);
    m.set_eps_rule(q0, vec![rhs::call(bad, XVar::X0, vec![])]);
    m.set_default_rule(bad, vec![rhs::call(bad, XVar::X2, vec![])]);
    m.set_eps_rule(bad, vec![rhs::out_current(vec![])]);
    let expected = Err(RunError::CurrentLabelAtEps {
        state: "qbad".to_string(),
    });
    for doc in ["", "a(b)"] {
        let f = parse_forest(doc).unwrap();
        assert_eq!(foxq::core::run_mft(&m, &f), expected, "on {doc:?}");
    }
}

#[test]
fn output_budget_refuses_exponential_unfolds_cheaply() {
    // Doubling over 60 trees: 2^60 output trees. The output budget stops
    // the run after about 10,000 nodes, long before the step budget would.
    let m = foxq::core::parse_mft(
        "q(%t(x1) x2) -> q(x2) q(x2);
         q(eps) -> a();",
    )
    .unwrap();
    let f = parse_forest(&"a ".repeat(60)).unwrap();
    let limits = RunLimits {
        max_steps: 100_000,
        max_output_nodes: 10_000,
    };
    assert_eq!(
        run_mft_with_limits(&m, &f, limits),
        Err(RunError::OutputLimit {
            max_output_nodes: 10_000
        })
    );
}
