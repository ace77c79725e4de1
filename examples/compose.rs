//! Transducer composition (§4.2): deforestation without intermediate trees.
//!
//! Demonstrates (1) the quadratic stay-move composition of Lemma 2 against
//! the classical exponential construction, and (2) the paper's headline
//! result that two forest transducers compose into one MFT (Theorem 3 via
//! the accumulator encoding).
//!
//! ```text
//! cargo run --release --example compose [-- <max-k>]
//! ```
//!
//! The optional argument caps the chain length k (default 12; the naive
//! construction is exponential in k, so small caps keep debug runs fast).

use foxq::core::interp::run_mft;
use foxq::core::mft::XVar;
use foxq::core::parse_mft;
use foxq::forest::term::parse_forest;
use foxq_tt::{compose_ft_ft, compose_tt_tt, compose_tt_tt_naive, run_mtt, Mtt, TNode};

fn main() {
    let max_k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    // --- Lemma 2: size of the composed TT, stay vs naive -----------------
    println!("Lemma 2 — composing a→b^k with the b→c(·,·) spawner:");
    println!("{:>4} {:>12} {:>12}", "k", "stay size", "naive size");
    for k in [2usize, 4, 8, 12].into_iter().filter(|&k| k <= max_k) {
        let (m1, m2) = chain_pair(k);
        let stay = compose_tt_tt(&m1, &m2);
        let naive = compose_tt_tt_naive(&m1, &m2, 50_000_000).unwrap();
        println!("{k:>4} {:>12} {:>12}", stay.size(), naive.size());
        // Both are equivalent. The composed output has 2^(k·depth) nodes, so
        // use the nested input only while that stays small.
        let doc = if k <= 8 { "a(a)" } else { "a" };
        let input = foxq::forest::fcns::fcns(&parse_forest(doc).unwrap());
        assert_eq!(
            run_mtt(&stay, &input).unwrap(),
            run_mtt(&naive, &input).unwrap()
        );
    }

    // --- FT ∘ FT = MFT ----------------------------------------------------
    // The doubling FT: a forest of n trees becomes 2^n `a`-leaves.
    let doubler = parse_mft(
        "q(%t(x1) x2) -> q(x2) q(x2);
         q(eps) -> a();",
    )
    .unwrap();
    let composed = compose_ft_ft(&doubler, &doubler);
    println!(
        "\nFT∘FT → MFT: doubling twice composed into one MFT with {} states, is_ft={}",
        composed.state_count(),
        composed.is_ft()
    );
    let f = parse_forest("w x y z").unwrap(); // 4 trees → 16 → 65536
    let once = run_mft(&doubler, &f).unwrap();
    let twice = run_mft(&doubler, &once).unwrap();
    let direct = run_mft(&composed, &f).unwrap();
    println!(
        "|input| = 4, |once| = {}, |twice| = {}, |composed(input)| = {}",
        once.len(),
        twice.len(),
        direct.len()
    );
    assert_eq!(direct, twice);
    println!("single-pass composition avoids materializing the intermediate forest ✓");
}

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
