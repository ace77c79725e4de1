//! Property-based tests on the core data structures: term notation, fcns
//! encoding, XML serialization, and the query printer/parser pair.

use foxq::forest::fcns::{fcns, unfcns};
use foxq::forest::term::{forest_to_term, parse_forest};
use foxq::forest::{elem, text, Forest, Tree};
use foxq::xml::{forest_to_xml_string, parse_document_with, WhitespaceMode};
use proptest::prelude::*;

/// Random trees over a small vocabulary. Text content avoids whitespace-only
/// strings so XML whitespace handling cannot drop nodes.
fn arb_tree() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        prop::sample::select(vec!["a", "b", "c", "site", "x-y.z"]).prop_map(|n| elem(n, vec![])),
        prop::sample::select(vec!["t", "42", "hello world", "<&>\"'", "päper"]).prop_map(text),
    ];
    leaf.prop_recursive(4, 48, 5, |inner| {
        (
            prop::sample::select(vec!["a", "b", "c", "person", "deep"]),
            prop::collection::vec(inner, 0..5),
        )
            .prop_map(|(n, children)| elem(n, children))
    })
}

fn arb_forest() -> impl Strategy<Value = Forest> {
    prop::collection::vec(arb_tree(), 0..4)
}

proptest! {
    #[test]
    fn term_notation_roundtrips(f in arb_forest()) {
        let printed = forest_to_term(&f);
        let back = parse_forest(&printed).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn fcns_roundtrips(f in arb_forest()) {
        prop_assert_eq!(unfcns(&fcns(&f)), f);
    }

    #[test]
    fn fcns_preserves_size(f in arb_forest()) {
        prop_assert_eq!(fcns(&f).size(), foxq::forest::forest_size(&f));
    }

    #[test]
    fn xml_serialization_is_stable(f in arb_forest()) {
        // Serialized XML reparses to something that serializes identically
        // (adjacent text nodes may merge, so compare serialized forms).
        let xml = forest_to_xml_string(&f);
        let back = parse_document_with(xml.as_bytes(), WhitespaceMode::Preserve).unwrap();
        prop_assert_eq!(forest_to_xml_string(&back), xml);
    }

    #[test]
    fn identity_mft_is_identity(f in arb_forest()) {
        let m = foxq::core::parse_mft(
            "qc(%t(x1) x2) -> %t(qc(x1)) qc(x2); qc(eps) -> eps;",
        ).unwrap();
        let out = foxq::core::run_mft(&m, &f).unwrap();
        prop_assert_eq!(out, f.clone());
        // And the streaming engine agrees.
        let (sink, _) = foxq::core::stream::run_streaming_on_forest(
            &m, &f, foxq::xml::ForestSink::new(),
        ).unwrap();
        prop_assert_eq!(sink.into_forest(), f);
    }

    #[test]
    fn lemma1_holds_on_random_forests(f in arb_forest()) {
        // fcns([[M]](f)) = eval([[mft_to_mtt(M)]](fcns f)) for the identity
        // and a relabeling transducer.
        for src in [
            "qc(%t(x1) x2) -> %t(qc(x1)) qc(x2); qc(eps) -> eps;",
            "q(a(x1) x2) -> b(q(x1)) q(x2); q(%t(x1) x2) -> %t(q(x1)) q(x2); q(eps) -> eps;",
        ] {
            let m = foxq::core::parse_mft(src).unwrap();
            let n = foxq_tt::mft_to_mtt(&m);
            let expected = fcns(&foxq::core::run_mft(&m, &f).unwrap());
            let got = foxq_tt::eval_btree(&foxq_tt::run_mtt(&n, &fcns(&f)).unwrap());
            prop_assert_eq!(got, expected);
        }
    }
}

#[test]
fn stats_depth_agrees_with_tree_depth() {
    let f = parse_forest("a(b(c(d)) e) f").unwrap();
    let stats = foxq::forest::ForestStats::of_forest(&f);
    assert_eq!(stats.depth, 4);
    assert_eq!(stats.nodes, 6);
}
