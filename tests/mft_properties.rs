//! Properties of the MFT representation itself, exercised over transducers
//! obtained by translating random MinXQuery programs (a richer family than
//! hand-written samples: predicate CPS states, qcopy, scan subsets, …).

use foxq::core::opt::{optimize_with_stats, OptStats};
use foxq::core::translate::translate;
use foxq::core::{parse_mft, print_mft, run_mft, StateId};
use foxq::forest::term::parse_forest;
use foxq::forest::Forest;
use foxq::xquery::ast::{Axis, NodeTest, Path, Pred, Query, RelPath, Step};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn random_query(rng: &mut SmallRng, nearest: &str, depth: usize) -> Query {
    let step = |rng: &mut SmallRng| {
        let mut preds = Vec::new();
        if rng.gen_bool(0.3) {
            let rel = RelPath {
                steps: vec![Step {
                    axis: Axis::Child,
                    test: NodeTest::Name(NAMES[rng.gen_range(0..4)].into()),
                    preds: vec![],
                }],
            };
            preds.push(if rng.gen_bool(0.5) {
                Pred::Exists(rel)
            } else {
                Pred::Eq(
                    RelPath {
                        steps: vec![Step {
                            axis: Axis::Child,
                            test: NodeTest::Text,
                            preds: vec![],
                        }],
                    },
                    "t1".into(),
                )
            });
        }
        Step {
            axis: if rng.gen_bool(0.7) {
                Axis::Child
            } else {
                Axis::Descendant
            },
            test: NodeTest::Name(NAMES[rng.gen_range(0..4)].into()),
            preds,
        }
    };
    let path = |rng: &mut SmallRng, start: &str| Path {
        start: start.into(),
        steps: (0..rng.gen_range(1..3)).map(|_| step(rng)).collect(),
    };
    if depth >= 2 {
        return Query::Path(path(rng, nearest));
    }
    match rng.gen_range(0..3) {
        0 => Query::Element {
            name: NAMES[rng.gen_range(0..4)].into(),
            content: vec![random_query(rng, nearest, depth + 1)],
        },
        1 => {
            let var = format!("v{depth}");
            let body = random_query(rng, &var, depth + 1);
            Query::For {
                var,
                path: path(rng, nearest),
                body: Box::new(body),
            }
        }
        _ => Query::Path(path(rng, nearest)),
    }
}

fn random_docs(rng: &mut SmallRng) -> Vec<Forest> {
    let mut docs = vec![
        parse_forest(r#"a(b("t1") c(d)) b(a("t2"))"#).unwrap(),
        parse_forest("").unwrap(),
    ];
    let names = ["a", "b", "c", "d"];
    for _ in 0..2 {
        let mut term = String::new();
        for _ in 0..rng.gen_range(1..4) {
            term.push_str(&format!(
                "{}({}(\"t{}\") {}) ",
                names[rng.gen_range(0..4)],
                names[rng.gen_range(0..4)],
                rng.gen_range(1..3),
                names[rng.gen_range(0..4)],
            ));
        }
        docs.push(parse_forest(&term).unwrap());
    }
    docs
}

/// print_mft / parse_mft round-trips behaviourally on translated queries.
#[test]
fn text_format_roundtrips_translated_transducers() {
    for seed in 0..150u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let q = random_query(&mut rng, "input", 0);
        let m = translate(&q).unwrap();
        let printed = print_mft(&m);
        let back = parse_mft(&printed)
            .unwrap_or_else(|e| panic!("reparse failed (seed {seed}): {e}\n{printed}"));
        assert_eq!(m.state_count(), back.state_count(), "seed {seed}");
        for doc in random_docs(&mut rng) {
            assert_eq!(
                run_mft(&m, &doc).unwrap(),
                run_mft(&back, &doc).unwrap(),
                "seed {seed} on {doc:?}"
            );
        }
    }
}

/// Optimization reaches a fixpoint: a second run changes nothing.
#[test]
fn optimization_is_idempotent_on_random_queries() {
    for seed in 0..150u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let q = random_query(&mut rng, "input", 0);
        let (m1, _) = optimize_with_stats(translate(&q).unwrap());
        let (m2, stats) = optimize_with_stats(m1.clone());
        assert_eq!(m1.state_count(), m2.state_count(), "seed {seed}");
        assert_eq!(
            stats,
            OptStats {
                rounds: stats.rounds,
                // A budget-kept candidate is re-skipped every run; that is a
                // diagnostic, not a rewrite.
                inline_budget_skips: stats.inline_budget_skips,
                ..OptStats::default()
            },
            "seed {seed}: second optimization still changed something"
        );
    }
}

/// Optimization never increases the size metric and never breaks validity.
#[test]
fn optimization_shrinks_and_stays_valid() {
    for seed in 0..150u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let q = random_query(&mut rng, "input", 0);
        let m0 = translate(&q).unwrap();
        let (m1, _) = optimize_with_stats(m0.clone());
        m1.validate().unwrap();
        assert!(
            m1.size() <= m0.size(),
            "seed {seed}: {} > {}",
            m1.size(),
            m0.size()
        );
        assert!(m1.state_count() <= m0.state_count(), "seed {seed}");
    }
}

/// The states the engine passes through are exactly the translator's copy:
/// over every benchmark query, the identity states after optimization are
/// the surviving states named `qcopy`.
#[test]
fn identity_states_are_the_translators_qcopy() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/queries");
    let mut queries: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    queries.sort();
    let mut copying = 0;
    for path in queries {
        let source = std::fs::read_to_string(&path).unwrap();
        let query = foxq::xquery::parse_query(&source).unwrap();
        let (m, _) = optimize_with_stats(translate(&query).unwrap());
        let states = || (0..m.state_count() as u32).map(StateId);
        let identity: Vec<_> = states().filter(|&q| m.is_identity_state(q)).collect();
        let qcopy: Vec<_> = states().filter(|&q| m.name_of(q) == "qcopy").collect();
        assert_eq!(identity, qcopy, "{}", path.display());
        copying += usize::from(!identity.is_empty());
    }
    // All 11 copy some part of their input today; the test must not
    // pass on an empty directory.
    assert!(copying > 0, "{dir}");
}
