//! Integration suite for the `foxq::service` serving layer.
//!
//! The two acceptance properties of the subsystem:
//!
//! 1. **Single-pass fan-out** — running 1 vs 4 prepared queries over the
//!    same document consumes the *identical* number of XML events from the
//!    reader, and every query's multi-run output equals its solo-run output.
//! 2. **Deterministic parallel batching** — a [`BatchDriver`] with ≥ 2
//!    threads produces byte-for-byte the same report as a single thread.
//!
//! Plus: multi-query agreement against the ground-truth DOM evaluator and
//! cache hit/eviction behaviour observable through compile counts.

use foxq::core::stream::StreamLimits;
use foxq::forest::Forest;
use foxq::service::{BatchDriver, MultiQueryEngine, PreparedQuery, QueryCache, QuerySetPlan};
use foxq::xml::{forest_to_xml_string, ForestSink, XmlEvent, XmlReader};
use foxq::xquery::eval_query;
use foxq_gen::Dataset;
use proptest::prelude::*;
use std::sync::Arc;

/// Queries with distinct shapes: child/descendant paths, predicates,
/// nesting, following-sibling, and the buffering `double` corner case.
const POOL: [&str; 6] = [
    "<o>{ for $p in $input/site/people/person return <n>{$p/name/text()}</n> }</o>",
    r#"<o>{ for $p in $input/site/people/person[./p_id/text() = "person0"]
         return $p/name/text() }</o>"#,
    "<o>{$input//keyword}</o>",
    "<o>{ for $a in $input/site/open_auctions/open_auction return
       <b>{ for $i in $a/bidder/increase return <i>{$i/text()}</i> }</b> }</o>",
    "<double><r1>{$input/site/regions/*}</r1>{$input/site/regions/*}</double>",
    "<o>{$input/site/people/person/following-sibling::person}</o>",
];

fn prepared_pool() -> Vec<Arc<PreparedQuery>> {
    let mut cache = QueryCache::new(POOL.len());
    POOL.iter()
        .map(|q| cache.get_or_compile(q).unwrap())
        .collect()
}

fn xmark(bytes: usize, seed: u64) -> Forest {
    foxq_gen::generate(Dataset::Xmark, bytes, seed)
}

fn xmark_xml(bytes: usize, seed: u64) -> Vec<u8> {
    forest_to_xml_string(&xmark(bytes, seed)).into_bytes()
}

/// Drive a `MultiQueryEngine` from a reader, returning per-query outputs and
/// the number of events the *reader* produced (the single-pass measure).
fn drive(queries: &[Arc<PreparedQuery>], doc: &[u8]) -> (Vec<String>, u64) {
    let mut reader = XmlReader::new(doc);
    let mut engine = MultiQueryEngine::new(
        queries
            .iter()
            .map(|q| (q.mft(), foxq::xml::WriterSink::new(Vec::new()))),
    );
    loop {
        match reader.next_event().unwrap() {
            XmlEvent::Open(label) => engine.open(&label),
            XmlEvent::Close(_) => engine.close(),
            XmlEvent::Eof => break,
        }
    }
    let events = reader.events_read();
    let outputs = engine
        .finish()
        .into_iter()
        .map(|r| {
            let (sink, _) = r.unwrap();
            String::from_utf8(sink.finish().unwrap()).unwrap()
        })
        .collect();
    (outputs, events)
}

#[test]
fn single_pass_fanout_consumes_identical_events() {
    let doc = xmark_xml(30_000, 0xF0E5);
    let queries = prepared_pool();

    let (solo_outputs, events_for_1) = drive(&queries[..1], &doc);
    let (multi_outputs, events_for_4) = drive(&queries[..4], &doc);

    // The reader is consumed exactly once however many queries fan out.
    assert_eq!(events_for_1, events_for_4, "fan-out re-read the input");
    assert!(events_for_1 > 0);

    // Every query's multi-run output equals its solo run.
    assert_eq!(multi_outputs[0], solo_outputs[0]);
    for (q, out) in queries[..4].iter().zip(&multi_outputs) {
        let solo = q.run_to_string(&doc, StreamLimits::serving()).unwrap();
        assert_eq!(&solo.output, out, "multi vs solo for {}", q.source());
    }
}

#[test]
fn engine_event_counters_match_the_reader() {
    let doc = xmark_xml(10_000, 3);
    let queries = prepared_pool();
    let mut reader = XmlReader::new(&doc[..]);
    let mut engine = MultiQueryEngine::new(queries.iter().map(|q| (q.mft(), foxq::xml::NullSink)));
    loop {
        match reader.next_event().unwrap() {
            XmlEvent::Open(label) => engine.open(&label),
            XmlEvent::Close(_) => engine.close(),
            XmlEvent::Eof => break,
        }
    }
    assert_eq!(engine.input_events(), reader.events_read());
    let mut prefiltered_lanes = 0;
    for r in engine.finish() {
        let (_, stats) = r.unwrap();
        // Each lane accounts for every reader event exactly once: either
        // delivered (split evenly between opens and closes) or withheld by
        // the shared label prefilter — never both, never neither.
        assert_eq!(
            stats.open_events + stats.close_events + stats.prefiltered_events,
            reader.events_read()
        );
        assert_eq!(stats.open_events, stats.close_events);
        assert_eq!(stats.events, stats.open_events + stats.close_events + 1);
        prefiltered_lanes += usize::from(stats.prefiltered_events > 0);
    }
    // The pool mixes shapes on purpose: child-path lanes are prefiltered,
    // while descendant/copying lanes pass through.
    assert!(prefiltered_lanes > 0, "no lane used the prefilter");
    assert!(prefiltered_lanes < POOL.len(), "every lane was prefiltered");
}

#[test]
fn multi_query_agrees_with_reference_evaluator() {
    let queries = prepared_pool();
    for seed in [1u64, 7, 42] {
        let input = xmark(15_000, seed);
        let mfts: Vec<_> = queries.iter().map(|q| q.mft()).collect();
        let sinks: Vec<_> = queries.iter().map(|_| ForestSink::new()).collect();
        let run = foxq::service::run_multi_on_forest(&mfts, &input, sinks);
        for (q, r) in queries.iter().zip(run.results) {
            let (sink, _) = r.unwrap();
            let expected = eval_query(q.query(), &input).unwrap();
            assert_eq!(
                forest_to_xml_string(&sink.into_forest()),
                forest_to_xml_string(&expected),
                "seed {seed}, query {}",
                q.source()
            );
        }
    }
}

#[test]
fn cache_hit_avoids_retranslation() {
    let mut cache = QueryCache::new(2);
    cache.get_or_compile(POOL[0]).unwrap();
    assert_eq!(cache.stats().compiles, 1);
    // Hit: the compile count is unchanged — no re-translation happened.
    cache.get_or_compile(POOL[0]).unwrap();
    assert_eq!(cache.stats().compiles, 1);
    assert_eq!(cache.stats().hits, 1);
    // Fill past capacity: the least-recently-used entry is evicted and
    // compiles again on the next lookup.
    cache.get_or_compile(POOL[1]).unwrap();
    cache.get_or_compile(POOL[2]).unwrap();
    assert_eq!(cache.stats().evictions, 1);
    cache.get_or_compile(POOL[0]).unwrap();
    assert_eq!(cache.stats().compiles, 4);
}

// ---------------------------------------------------------------------------
// Prefilter soundness: randomized on-vs-off agreement
// ---------------------------------------------------------------------------
//
// `Mft::projection()` is a conservative static analysis; its one obligation
// is that withholding unmatched events from an "eligible" lane never changes
// that lane's output. These proptests generate transducers *biased toward
// the eligible shapes* (pure-skip defaults, acyclic stay states, optional
// text rules) plus general ones, run every document twice — prefilter on
// and off — and require identical per-lane outcomes.

mod prefilter_agreement {
    use super::*;
    use foxq::core::mft::{rhs, Mft, StateId, XVar};
    use foxq::forest::{Forest, Label, SymId, Tree};
    use foxq::xml::{forest_to_xml_string, ForestSink};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Symbols the transducer knows (interned) …
    const KNOWN: [&str; 3] = ["a", "b", "c"];
    /// … and extra document labels it has never heard of (prefilter bait).
    const UNKNOWN: [&str; 3] = ["d", "e", "f"];

    fn general_rhs(rng: &mut SmallRng, params: &[usize], own: usize, depth: usize) -> Vec<RhsNode> {
        let len = if depth >= 3 {
            rng.gen_range(0..=1)
        } else {
            rng.gen_range(0..=3)
        };
        (0..len)
            .map(|_| match rng.gen_range(0..6) {
                0 | 1 => rhs::out(
                    SymId(rng.gen_range(0..KNOWN.len()) as u32),
                    general_rhs(rng, params, own, depth + 1),
                ),
                2 => rhs::out_current(general_rhs(rng, params, own, depth + 1)),
                3 if own > 0 => rhs::param(rng.gen_range(0..own)),
                4 | 5 => {
                    let callee = rng.gen_range(0..params.len());
                    let x = if rng.gen_bool(0.5) {
                        XVar::X1
                    } else {
                        XVar::X2
                    };
                    let args = (0..params[callee])
                        .map(|_| general_rhs(rng, params, own, depth + 1))
                        .collect();
                    rhs::call(StateId(callee as u32), x, args)
                }
                _ => rhs::out(SymId(0), vec![]),
            })
            .collect()
    }

    use foxq::core::RhsNode;

    /// `q(%t(x1)x2, ȳ) → q(x2, ȳ)` — the shape the projection rewards.
    fn pure_skip(q: usize, own: usize) -> Vec<RhsNode> {
        vec![rhs::call(
            StateId(q as u32),
            XVar::X2,
            (0..own).map(|i| vec![rhs::param(i)]).collect(),
        )]
    }

    /// A stay-state rhs: output nodes, params, and `x0` calls restricted to
    /// *lower-numbered* states (acyclic, so no stay loops).
    fn stay_rhs(
        rng: &mut SmallRng,
        params: &[usize],
        own: usize,
        q: usize,
        depth: usize,
    ) -> Vec<RhsNode> {
        let len = rng.gen_range(0..=2);
        (0..len)
            .map(|_| match rng.gen_range(0..4) {
                0 | 1 => rhs::out(
                    SymId(rng.gen_range(0..KNOWN.len()) as u32),
                    if depth < 2 {
                        stay_rhs(rng, params, own, q, depth + 1)
                    } else {
                        vec![]
                    },
                ),
                2 if own > 0 => rhs::param(rng.gen_range(0..own)),
                3 if q > 0 => {
                    let callee = rng.gen_range(0..q);
                    let args = (0..params[callee])
                        .map(|_| {
                            if depth < 2 {
                                stay_rhs(rng, params, own, q, depth + 1)
                            } else {
                                vec![]
                            }
                        })
                        .collect();
                    rhs::call(StateId(callee as u32), XVar::X0, args)
                }
                _ => rhs::out(SymId(0), vec![]),
            })
            .collect()
    }

    /// A random MFT biased so that a good fraction is prefilter-eligible.
    fn random_mft(rng: &mut SmallRng) -> Mft {
        let mut m = Mft::new();
        for s in KNOWN {
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
            let own = params[q];
            let sid = StateId(q as u32);
            for s in 0..rng.gen_range(0..=KNOWN.len()) {
                m.set_sym_rule(sid, SymId(s as u32), general_rhs(rng, &params, own, 0));
            }
            match rng.gen_range(0..4) {
                // Half the states: the skippable child-path shape.
                0 | 1 => m.set_default_rule(sid, pure_skip(q, own)),
                // A quarter: `%`-shorthand stay states (no symbol rules).
                2 => {
                    let body = stay_rhs(rng, &params, own, q, 0);
                    m.rules[q].by_sym.clear();
                    m.rules[q].text_default = None;
                    m.set_stay_rule(sid, body);
                }
                // The rest: arbitrary (these lanes go pass-through).
                _ => m.set_default_rule(sid, general_rhs(rng, &params, own, 0)),
            }
            if !m.is_stay_state(sid) {
                if rng.gen_bool(0.4) {
                    let body = if rng.gen_bool(0.5) {
                        pure_skip(q, own)
                    } else {
                        general_rhs(rng, &params, own, 0)
                    };
                    m.set_text_rule(sid, body);
                }
                if m.rules[q].default != m.rules[q].eps {
                    m.set_eps_rule(sid, general_rhs_eps(rng, own));
                }
            }
        }
        m.validate().unwrap();
        m
    }

    /// A call-free ε-rhs (ε-rules may only use x0; keep them ground).
    fn general_rhs_eps(rng: &mut SmallRng, own: usize) -> Vec<RhsNode> {
        (0..rng.gen_range(0..=2))
            .map(|_| {
                if own > 0 && rng.gen_bool(0.3) {
                    rhs::param(rng.gen_range(0..own))
                } else {
                    rhs::out(SymId(rng.gen_range(0..KNOWN.len()) as u32), vec![])
                }
            })
            .collect()
    }

    /// Random forest mixing known labels, unknown labels, and text leaves.
    fn random_input(rng: &mut SmallRng) -> Forest {
        fn forest(rng: &mut SmallRng, budget: &mut usize, depth: usize) -> Forest {
            let mut out = Vec::new();
            while *budget > 0 && out.len() < 3 && rng.gen_bool(0.7) {
                *budget -= 1;
                let label = match rng.gen_range(0..5) {
                    0 => Label::text("t"),
                    1 | 2 => Label::elem(UNKNOWN[rng.gen_range(0..UNKNOWN.len())]),
                    _ => Label::elem(KNOWN[rng.gen_range(0..KNOWN.len())]),
                };
                let children = if depth < 4 && !label.is_text() {
                    forest(rng, budget, depth + 1)
                } else {
                    vec![]
                };
                out.push(Tree { label, children });
            }
            out
        }
        let mut budget = rng.gen_range(1..16usize);
        forest(rng, &mut budget, 0)
    }

    /// Run `mfts` over `doc` through a `MultiQueryEngine`, with or without
    /// the prefilter; per-lane serialized output or error string.
    fn run(mfts: &[&Mft], doc: &Forest, prefilter: bool) -> (Vec<Result<String, String>>, u64) {
        let limits = StreamLimits {
            max_output_events: 200_000,
            ..StreamLimits::default()
        };
        let plan = if prefilter {
            QuerySetPlan::new(mfts.iter().copied())
        } else {
            QuerySetPlan::pass_through(mfts.len())
        };
        let mut engine = MultiQueryEngine::with_plan(
            mfts.iter().map(|m| (*m, ForestSink::new())),
            limits,
            &plan,
        );
        fn feed<S: foxq::xml::XmlSink>(e: &mut MultiQueryEngine<'_, S>, t: &Tree) {
            e.open(&t.label);
            for c in &t.children {
                feed(e, c);
            }
            e.close();
        }
        for t in doc {
            feed(&mut engine, t);
        }
        let skipped = engine.prefiltered_events();
        let results = engine
            .finish()
            .into_iter()
            .map(|r| {
                r.map(|(sink, _)| forest_to_xml_string(&sink.into_forest()))
                    .map_err(|e| e.to_string())
            })
            .collect();
        (results, skipped)
    }

    pub fn check_agreement(seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mfts: Vec<Mft> = (0..rng.gen_range(1..=3))
            .map(|_| random_mft(&mut rng))
            .collect();
        let refs: Vec<&Mft> = mfts.iter().collect();
        let mut skipped_total = 0;
        for _ in 0..3 {
            let doc = random_input(&mut rng);
            let (filtered, skipped) = run(&refs, &doc, true);
            let (unfiltered, zero) = run(&refs, &doc, false);
            assert_eq!(zero, 0);
            for (lane, (f, u)) in filtered.iter().zip(&unfiltered).enumerate() {
                assert_eq!(
                    f,
                    u,
                    "seed {seed}: lane {lane} diverged under the prefilter\n\
                     mft:\n{:?}\ndoc: {}",
                    mfts[lane],
                    forest_to_xml_string(&doc)
                );
            }
            skipped_total += skipped;
        }
        skipped_total
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prefilter_on_and_off_agree_on_random_transducers(seed in any::<u64>()) {
        prefilter_agreement::check_agreement(seed);
    }
}

#[test]
fn prefilter_agreement_seeds_actually_exercise_skipping() {
    // Guard against the generator drifting into never-eligible shapes: over
    // a fixed seed range, a healthy share of runs must skip something.
    let skipped: u64 = (0..64).map(prefilter_agreement::check_agreement).sum();
    assert!(skipped > 0, "no random case ever engaged the prefilter");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn batch_driver_is_deterministic_across_thread_counts(seed in any::<u64>()) {
        let queries = prepared_pool();
        let docs: Vec<Vec<u8>> = (0..5)
            .map(|i| xmark_xml(4_000 + 2_000 * i, seed.wrapping_add(i as u64)))
            .collect();
        let serial = BatchDriver::new(1).run(&docs, &queries);
        let parallel = BatchDriver::new(4).run(&docs, &queries);
        prop_assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            for (sc, pc) in s.iter().zip(p) {
                prop_assert_eq!(&sc.output, &pc.output);
            }
        }
        prop_assert_eq!(serial.input_events, parallel.input_events);
        prop_assert_eq!(serial.output_events, parallel.output_events);
        prop_assert_eq!(serial.failures, 0);
    }
}
