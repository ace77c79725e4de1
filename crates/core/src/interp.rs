//! In-memory (denotational) MFT interpreter: the reference semantics.
//!
//! Implements the semantics of §2.2: every state `q` of rank m+1 realizes
//! `[[q]] : F^{m+1} → F`, defined by structural recursion over the input
//! forest; parameters are forest values, copied at each use. [`run_mft`]
//! is the oracle the streaming engine, the §3 translation, the §4.1
//! optimizations and the §4.2 compositions are tested against; no query
//! runs on it.
//!
//! The paper only deals with *terminating* MFTs; since stay moves can loop
//! and parameters can double, a run enforces a step budget and an output
//! budget ([`RunLimits`]), and its recursion depth is bounded by a constant.

use crate::mft::{Mft, OutLabel, Rhs, RhsNode, StateId, XVar};
use foxq_forest::{forest_size, Forest, Label, Tree};
use std::rc::Rc;

/// Limits for one interpreter run.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum number of rule applications.
    pub max_steps: u64,
    /// Maximum number of tree nodes the run may build. A parameter is
    /// copied at each use and its nodes count each time, so this bounds a
    /// parameter-doubling chain, which builds 2^n nodes in O(n) steps.
    pub max_output_nodes: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_steps: 200_000_000,
            max_output_nodes: 1_000_000_000,
        }
    }
}

impl RunLimits {
    /// Default limits with a custom step budget.
    pub fn with_max_steps(max_steps: u64) -> Self {
        RunLimits {
            max_steps,
            ..RunLimits::default()
        }
    }
}

/// How deep right-hand sides may nest during a run: a state call, an output
/// node's children and a call's argument each evaluate one level deeper. A
/// level costs one `eval_rhs` frame and at most one `eval_state` frame,
/// together 2,000 bytes in a debug build and 544 in release (rustc 1.95),
/// so this many levels take under half of the 2 MiB stack a test thread
/// gets, leaving the rest to the caller. The constant and that stack change
/// together, as the server's `WORKER_STACK_BYTES` and its nesting bound do.
const MAX_DEPTH: u32 = 512;

/// Runtime failure of an interpreter run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The step budget was exhausted (almost always a non-terminating
    /// stay-move loop).
    StepLimit { max_steps: u64 },
    /// `%t` was required in a context with no current node (an ε-rule);
    /// [`Mft::validate`] rejects such transducers statically.
    CurrentLabelAtEps { state: String },
    /// The output budget was exhausted.
    OutputLimit { max_output_nodes: u64 },
    /// The recursion nested deeper than the interpreter's stack allows (a
    /// stay-move loop, or an input too deep or too wide for it).
    DepthLimit { max_depth: u32 },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::StepLimit { max_steps } => {
                write!(
                    f,
                    "step limit of {max_steps} exceeded (non-terminating stay moves?)"
                )
            }
            RunError::CurrentLabelAtEps { state } => {
                write!(f, "%t used with no current node in state {state}")
            }
            RunError::OutputLimit { max_output_nodes } => {
                write!(f, "output limit of {max_output_nodes} nodes exceeded")
            }
            RunError::DepthLimit { max_depth } => {
                write!(f, "recursion nested deeper than {max_depth} levels")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Run `mft` on `input`, producing `[[q0]](input)`.
pub fn run_mft(mft: &Mft, input: &[Tree]) -> Result<Forest, RunError> {
    run_mft_with_limits(mft, input, RunLimits::default())
}

/// [`run_mft`] with explicit step and output budgets.
pub fn run_mft_with_limits(
    mft: &Mft,
    input: &[Tree],
    limits: RunLimits,
) -> Result<Forest, RunError> {
    let mut ctx = Ctx {
        mft,
        limits,
        steps: 0,
        produced: 0,
        depth: 0,
    };
    let mut out = Vec::new();
    ctx.eval_state(mft.initial, input, &[], &mut out)?;
    Ok(out)
}

struct Ctx<'a> {
    mft: &'a Mft,
    limits: RunLimits,
    steps: u64,
    /// Output nodes built so far, argument forests included.
    produced: u64,
    /// Nesting of `eval_rhs`, at most [`MAX_DEPTH`]. A failed run is not
    /// unwound, so it is only restored on success.
    depth: u32,
}

/// Variable bindings while evaluating one rhs.
struct Bind<'a> {
    /// x0: the full current forest.
    x0: &'a [Tree],
    /// The current label and x1/x2; `None` in ε context.
    node: Option<(&'a Label, &'a [Tree], &'a [Tree])>,
    params: &'a [Rc<Forest>],
}

impl Ctx<'_> {
    /// Append `[[q]](g0, params)` to `out`.
    fn eval_state(
        &mut self,
        q: StateId,
        g0: &[Tree],
        params: &[Rc<Forest>],
        out: &mut Forest,
    ) -> Result<(), RunError> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(RunError::StepLimit {
                max_steps: self.limits.max_steps,
            });
        }
        let rules = &self.mft.rules[q.idx()];
        match g0.split_first() {
            None => {
                let bind = Bind {
                    x0: g0,
                    node: None,
                    params,
                };
                self.eval_rhs(q, &rules.eps, &bind, out)
            }
            Some((t, rest)) => {
                let rhs = match self.mft.alphabet.lookup(&t.label) {
                    Some(sym) if rules.by_sym.contains_key(&sym) => &rules.by_sym[&sym],
                    _ if t.is_text() && rules.text_default.is_some() => {
                        rules.text_default.as_ref().unwrap()
                    }
                    _ => &rules.default,
                };
                let bind = Bind {
                    x0: g0,
                    node: Some((&t.label, &t.children, rest)),
                    params,
                };
                self.eval_rhs(q, rhs, &bind, out)
            }
        }
    }

    fn count_produced(&mut self, nodes: u64) -> Result<(), RunError> {
        self.produced = self.produced.saturating_add(nodes);
        if self.produced > self.limits.max_output_nodes {
            return Err(RunError::OutputLimit {
                max_output_nodes: self.limits.max_output_nodes,
            });
        }
        Ok(())
    }

    fn eval_rhs(
        &mut self,
        q: StateId,
        rhs: &Rhs,
        bind: &Bind<'_>,
        out: &mut Forest,
    ) -> Result<(), RunError> {
        if self.depth == MAX_DEPTH {
            return Err(RunError::DepthLimit {
                max_depth: MAX_DEPTH,
            });
        }
        self.depth += 1;
        for node in rhs {
            match node {
                RhsNode::Param(i) => {
                    let param = &bind.params[*i];
                    self.count_produced(forest_size(param) as u64)?;
                    out.extend_from_slice(param);
                }
                RhsNode::Out { label, children } => {
                    let label = match label {
                        OutLabel::Sym(s) => self.mft.alphabet.label(*s).clone(),
                        OutLabel::Current => match bind.node {
                            Some((l, _, _)) => l.clone(),
                            None => {
                                return Err(RunError::CurrentLabelAtEps {
                                    state: self.mft.name_of(q).to_string(),
                                })
                            }
                        },
                    };
                    let mut kids = Vec::new();
                    self.eval_rhs(q, children, bind, &mut kids)?;
                    self.count_produced(1)?;
                    out.push(Tree {
                        label,
                        children: kids,
                    });
                }
                RhsNode::Call { state, input, args } => {
                    let g = match input {
                        XVar::X0 => bind.x0,
                        XVar::X1 => bind.node.map(|(_, x1, _)| x1).unwrap_or(&[]),
                        XVar::X2 => bind.node.map(|(_, _, x2)| x2).unwrap_or(&[]),
                    };
                    let mut arg_vals = Vec::with_capacity(args.len());
                    for a in args {
                        let mut v = Vec::new();
                        self.eval_rhs(q, a, bind, &mut v)?;
                        arg_vals.push(Rc::new(v));
                    }
                    self.eval_state(*state, g, &arg_vals, out)?;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mft::rhs::*;
    use foxq_forest::term::{forest_to_term, parse_forest};

    /// Identity transducer: qcopy(%t(x1)x2) → %t(qcopy(x1)) qcopy(x2).
    fn identity() -> Mft {
        let mut m = Mft::new();
        let q = m.add_state("qcopy", 0);
        m.initial = q;
        m.set_default_rule(
            q,
            vec![
                out_current(vec![call(q, XVar::X1, vec![])]),
                call(q, XVar::X2, vec![]),
            ],
        );
        m.validate().unwrap();
        m
    }

    #[test]
    fn identity_copies_any_forest() {
        let m = identity();
        for src in ["", "a", "a(b(\"t\") c) d(e)"] {
            let f = parse_forest(src).unwrap();
            assert_eq!(run_mft(&m, &f).unwrap(), f, "on {src:?}");
        }
    }

    #[test]
    fn doubling_ft_has_exponential_output() {
        // §4.2: q(a(x1)x2) → q(x2)q(x2); q(ε) → a. Forest of n a's → 2^n a's.
        let mut m = Mft::new();
        let a = m.alphabet.intern_elem("a");
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_sym_rule(
            q,
            a,
            vec![call(q, XVar::X2, vec![]), call(q, XVar::X2, vec![])],
        );
        m.set_eps_rule(q, vec![out(a, vec![])]);
        m.validate().unwrap();
        let f = parse_forest("a a a a").unwrap();
        let out = run_mft(&m, &f).unwrap();
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn doubling_output_budget_is_enforced() {
        // 20 a's → 2^20 output trees; a budget below that must refuse to
        // build them, in far fewer than 2^20 steps.
        let mut m = Mft::new();
        let a = m.alphabet.intern_elem("a");
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_sym_rule(
            q,
            a,
            vec![call(q, XVar::X2, vec![]), call(q, XVar::X2, vec![])],
        );
        m.set_eps_rule(q, vec![out(a, vec![])]);
        m.validate().unwrap();
        let f = parse_forest(&"a ".repeat(20)).unwrap();
        let limits = RunLimits {
            max_steps: 10_000,
            max_output_nodes: 1_000,
        };
        assert_eq!(
            run_mft_with_limits(&m, &f, limits),
            Err(RunError::OutputLimit {
                max_output_nodes: 1_000
            })
        );
    }

    #[test]
    fn parameters_accumulate() {
        // rev(σ(x1)x2, y) → rev(x2, σ(ε) y); rev(ε, y) → y — reverses a flat
        // forest using an accumulating parameter.
        let mut m = Mft::new();
        let q0 = m.add_state("q0", 0);
        let rev = m.add_state("rev", 1);
        m.initial = q0;
        m.set_default_rule(q0, vec![call(rev, XVar::X0, vec![vec![]])]);
        m.set_eps_rule(q0, vec![call(rev, XVar::X0, vec![vec![]])]);
        m.set_default_rule(
            rev,
            vec![call(
                rev,
                XVar::X2,
                vec![vec![out_current(vec![]), param(0)]],
            )],
        );
        m.set_eps_rule(rev, vec![param(0)]);
        m.validate().unwrap();
        let f = parse_forest("a b c").unwrap();
        assert_eq!(forest_to_term(&run_mft(&m, &f).unwrap()), "c() b() a()");
    }

    #[test]
    fn stay_loop_hits_step_limit() {
        let mut m = Mft::new();
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_eps_rule(q, vec![call(q, XVar::X0, vec![])]);
        m.validate().unwrap();
        let limits = RunLimits::with_max_steps(100);
        let r = run_mft_with_limits(&m, &[], limits);
        assert_eq!(r, Err(RunError::StepLimit { max_steps: 100 }));
    }

    #[test]
    fn output_budget_stops_param_doubling() {
        // p_i(x0, y1 y1): 2^40 output nodes in ~42 steps. The output budget
        // must refuse them although the step budget never would.
        let mut src = String::from("q0(%) -> p0(x0, a());\n");
        for i in 0..40 {
            src.push_str(&format!("p{i}(%, y1) -> p{}(x0, y1 y1);\n", i + 1));
        }
        src.push_str("p40(%, y1) -> y1;\n");
        let m = crate::text::parse_mft(&src).unwrap();
        let limits = RunLimits {
            max_steps: 10_000,
            max_output_nodes: 1_000,
        };
        let expected = Err(RunError::OutputLimit {
            max_output_nodes: 1_000,
        });
        assert_eq!(run_mft_with_limits(&m, &[], limits), expected);
    }

    #[test]
    fn cyclic_stay_loop_fails_fast_under_default_limits() {
        // Every step of a pure stay loop nests one level deeper; under the
        // default 200M-step budget the run must stop at the depth bound
        // with an error, not overflow a test thread's stack or burn the
        // budget.
        let mut m = Mft::new();
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_eps_rule(q, vec![call(q, XVar::X0, vec![])]);
        m.validate().unwrap();
        let start = std::time::Instant::now();
        let r = run_mft(&m, &[]);
        assert_eq!(
            r,
            Err(RunError::DepthLimit {
                max_depth: MAX_DEPTH
            })
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "loop not stopped eagerly: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn text_default_rule_takes_precedence_for_text() {
        // q matches text nodes via %ttext, everything else via default.
        let mut m = Mft::new();
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_text_rule(q, vec![out_current(vec![]), call(q, XVar::X2, vec![])]);
        m.set_default_rule(
            q,
            vec![call(q, XVar::X1, vec![]), call(q, XVar::X2, vec![])],
        );
        m.validate().unwrap();
        let f = parse_forest(r#"a("x" b("y"))"#).unwrap();
        let out = run_mft(&m, &f).unwrap();
        assert_eq!(forest_to_term(&out), r#""x" "y""#);
    }

    #[test]
    fn sym_rule_beats_text_default() {
        // A (q,"person0")-rule fires on exactly that text constant.
        let mut m = Mft::new();
        let person0 = m.alphabet.intern_text("person0");
        let yes = m.alphabet.intern_elem("yes");
        let no = m.alphabet.intern_elem("no");
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_sym_rule(
            q,
            person0,
            vec![out(yes, vec![]), call(q, XVar::X2, vec![])],
        );
        m.set_text_rule(q, vec![out(no, vec![]), call(q, XVar::X2, vec![])]);
        m.set_default_rule(q, vec![call(q, XVar::X2, vec![])]);
        m.validate().unwrap();
        let f = parse_forest(r#""person0" "person1" e "person0""#).unwrap();
        let out = run_mft(&m, &f).unwrap();
        assert_eq!(forest_to_term(&out), "yes() no() yes()");
    }

    #[test]
    fn current_label_at_eps_error_parity() {
        // Built without validate(): %t in an ε-rule must fail with an error
        // naming the state.
        let mut m = Mft::new();
        let q = m.add_state("qbad", 0);
        m.initial = q;
        m.set_eps_rule(q, vec![out_current(vec![])]);
        let expected = Err(RunError::CurrentLabelAtEps {
            state: "qbad".to_string(),
        });
        assert_eq!(run_mft(&m, &[]), expected);
    }
}
