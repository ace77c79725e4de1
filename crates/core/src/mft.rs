//! Macro forest transducers (Definition 2 of the paper).
//!
//! An MFT is a tuple `(Q, Σ, q0, R)`:
//!
//! * `Q` — finite ranked set of states; a state of rank *m+1* takes the input
//!   forest plus *m* accumulating parameters `y1..ym`;
//! * `Σ` — finite alphabet of labels of interest (element names and string
//!   constants), interned in an [`Alphabet`];
//! * for every state and input symbol σ at most one *(q,σ)-rule*
//!   `q(σ(x1)x2, y1..ym) → rhs`; exactly one *default rule*
//!   `q(%t(x1)x2, …) → rhs` applicable to any node; exactly one *ε-rule*
//!   `q(ε, …) → rhs`. We additionally support the paper's `%ttext` pattern
//!   (see the `Mperson` example in §2.2): an optional *text-default rule*
//!   that matches any text node, taking precedence over the default rule.
//!
//! Right-hand sides are forests over `Σ ∪ Q ∪ {x0,x1,x2} ∪ {y1..ym}` where
//! x-variables appear exactly as the first argument of a state call
//! ([`RhsNode::Call`]) and parameters only at leaves ([`RhsNode::Param`]).
//! A call on `x0` is a **stay move**. `%t` in a right-hand side
//! ([`OutLabel::Current`]) copies the current input node's label.
//!
//! Transducers built through [`Mft::add_state`] are total and deterministic
//! by construction: every state starts with `default → ε` and `ε → ε` rules.

use foxq_forest::{Alphabet, FxHashMap, FxHashSet, Label, SymId};
use std::fmt;

/// Index of a state in [`Mft::states`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StateId(pub u32);

impl StateId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Which part of the input a state call recurses on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum XVar {
    /// The current position itself — a *stay move*.
    X0,
    /// The children forest of the current node.
    X1,
    /// The following-sibling forest of the current node.
    X2,
}

/// The label of an output node in a right-hand side.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OutLabel {
    /// A fixed symbol σ ∈ Σ (element or text constant).
    Sym(SymId),
    /// `%t` — the label of the current input node (only meaningful in
    /// default / text-default / (q,σ) rules, not in ε-rules).
    Current,
}

/// One node of a right-hand-side forest.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RhsNode {
    /// An output node with a forest of children.
    Out { label: OutLabel, children: Rhs },
    /// A state call `q(xi, a1, …, am)`.
    Call {
        state: StateId,
        input: XVar,
        args: Vec<Rhs>,
    },
    /// A context parameter `y_{i+1}` (stored 0-based).
    Param(usize),
}

/// A right-hand side: a forest of [`RhsNode`]s.
pub type Rhs = Vec<RhsNode>;

/// Convenience constructors for right-hand sides.
pub mod rhs {
    use super::*;

    pub fn out(sym: SymId, children: Rhs) -> RhsNode {
        RhsNode::Out {
            label: OutLabel::Sym(sym),
            children,
        }
    }

    pub fn out_current(children: Rhs) -> RhsNode {
        RhsNode::Out {
            label: OutLabel::Current,
            children,
        }
    }

    pub fn call(state: StateId, input: XVar, args: Vec<Rhs>) -> RhsNode {
        RhsNode::Call { state, input, args }
    }

    pub fn param(i: usize) -> RhsNode {
        RhsNode::Param(i)
    }
}

/// The rule set of one state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StateRules {
    /// `(q,σ)`-rules.
    pub by_sym: FxHashMap<SymId, Rhs>,
    /// Optional text-default rule (`%ttext` pattern): applies to any text
    /// node that has no `(q,σ)`-rule.
    pub text_default: Option<Rhs>,
    /// Default rule (`%t` pattern): applies to any remaining node.
    pub default: Rhs,
    /// ε-rule.
    pub eps: Rhs,
}

/// Metadata of a state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateInfo {
    /// Human-readable name (used by the printer and in errors).
    pub name: String,
    /// Number of accumulating parameters (the paper's rank is `params + 1`).
    pub params: usize,
}

/// A macro forest transducer.
#[derive(Clone, Default)]
pub struct Mft {
    // (Debug is implemented via the textual printer, see below.)
    pub alphabet: Alphabet,
    pub states: Vec<StateInfo>,
    pub rules: Vec<StateRules>,
    pub initial: StateId,
}

impl Mft {
    pub fn new() -> Self {
        Mft::default()
    }

    /// Add a state with `params` accumulating parameters. Its default and
    /// ε-rules start as `→ ε`, keeping the transducer total.
    pub fn add_state(&mut self, name: impl Into<String>, params: usize) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(StateInfo {
            name: name.into(),
            params,
        });
        self.rules.push(StateRules::default());
        id
    }

    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    pub fn params_of(&self, q: StateId) -> usize {
        self.states[q.idx()].params
    }

    pub fn name_of(&self, q: StateId) -> &str {
        &self.states[q.idx()].name
    }

    pub fn set_sym_rule(&mut self, q: StateId, sym: SymId, rhs: Rhs) {
        self.rules[q.idx()].by_sym.insert(sym, rhs);
    }

    pub fn set_text_rule(&mut self, q: StateId, rhs: Rhs) {
        self.rules[q.idx()].text_default = Some(rhs);
    }

    pub fn set_default_rule(&mut self, q: StateId, rhs: Rhs) {
        self.rules[q.idx()].default = rhs;
    }

    pub fn set_eps_rule(&mut self, q: StateId, rhs: Rhs) {
        self.rules[q.idx()].eps = rhs;
    }

    /// The paper's `q(%, …) → f` shorthand: sets both the default and the
    /// ε-rule to `f`. The rhs must not use `x1`/`x2` or `%t`
    /// (checked by [`Mft::validate`]; such states are *stay states* and can
    /// be inlined by the optimizer).
    pub fn set_stay_rule(&mut self, q: StateId, rhs: Rhs) {
        self.rules[q.idx()].default = rhs.clone();
        self.rules[q.idx()].eps = rhs;
    }

    /// Whether `q`'s rules form a `%`-shorthand stay state
    /// (default == ε rule, no `x1`/`x2`, no `%t`, no symbol rules).
    pub fn is_stay_state(&self, q: StateId) -> bool {
        let r = &self.rules[q.idx()];
        r.by_sym.is_empty()
            && r.text_default.is_none()
            && r.default == r.eps
            && rhs_iter(&r.default).all(|n| match n {
                RhsNode::Call { input, .. } => *input == XVar::X0,
                RhsNode::Out { label, .. } => *label != OutLabel::Current,
                RhsNode::Param(_) => true,
            })
    }

    /// Whether `q` is an *identity state*: no parameters, no `(q,σ)`- or
    /// text-default rule, and exactly
    /// `q(%t(x1) x2) → %t(q(x1)) q(x2); q(ε) → ε` — the translator's
    /// `qcopy`. A call of one copies its input forest unchanged, which the
    /// streaming engine exploits by passing the input events straight to
    /// its sink.
    pub fn is_identity_state(&self, q: StateId) -> bool {
        let r = &self.rules[q.idx()];
        let recurse = |node: &RhsNode, x: XVar| {
            matches!(node, RhsNode::Call { state, input, args }
                if *state == q && *input == x && args.is_empty())
        };
        self.params_of(q) == 0
            && r.by_sym.is_empty()
            && r.text_default.is_none()
            && r.eps.is_empty()
            && match r.default.as_slice() {
                [RhsNode::Out {
                    label: OutLabel::Current,
                    children,
                }, sib] => {
                    matches!(children.as_slice(), [child] if recurse(child, XVar::X1))
                        && recurse(sib, XVar::X2)
                }
                _ => false,
            }
    }

    /// A *forest transducer* (FT) is an MFT in which no state has parameters.
    pub fn is_ft(&self) -> bool {
        self.states.iter().all(|s| s.params == 0)
    }

    /// Size |M| as defined in the paper: |Σ| plus the sizes of all left- and
    /// right-hand sides. An lhs `q(σ(x1)x2, y1..ym)` counts `4 + m` (state,
    /// symbol, x1, x2, parameters); an ε-lhs counts `2 + m`. Rhs nodes count
    /// 1 each, with calls adding 1 for their x-argument.
    pub fn size(&self) -> usize {
        let mut n = self.alphabet.len();
        for (info, rules) in self.states.iter().zip(&self.rules) {
            let m = info.params;
            let mut rule_count = rules.by_sym.len() + 1; // + default
            if rules.text_default.is_some() {
                rule_count += 1;
            }
            n += rule_count * (4 + m); // binary lhs patterns
            n += 2 + m; // ε lhs
            for r in rules.by_sym.values() {
                n += rhs_size(r);
            }
            if let Some(r) = &rules.text_default {
                n += rhs_size(r);
            }
            n += rhs_size(&rules.default);
            n += rhs_size(&rules.eps);
        }
        n
    }

    /// Total number of rules (symbol + text-default + default + ε).
    pub fn rule_count(&self) -> usize {
        self.rules
            .iter()
            .map(|r| r.by_sym.len() + usize::from(r.text_default.is_some()) + 2)
            .sum()
    }

    /// Maximum number of parameters over all states.
    pub fn max_params(&self) -> usize {
        self.states.iter().map(|s| s.params).max().unwrap_or(0)
    }

    /// Whether `rhs` is the *pure-skip* right-hand side of `q`:
    /// `q(%t(x1)x2, y1..ym) → q(x2, y1..ym)` — the state ignores the node,
    /// its subtree, and passes every parameter through unchanged.
    fn is_pure_skip(&self, q: StateId, rhs: &Rhs) -> bool {
        match rhs.as_slice() {
            [RhsNode::Call {
                state,
                input: XVar::X2,
                args,
            }] if *state == q => {
                args.len() == self.params_of(q)
                    && args
                        .iter()
                        .enumerate()
                        .all(|(i, a)| matches!(a.as_slice(), [RhsNode::Param(j)] if *j == i))
            }
            _ => false,
        }
    }

    /// Static alphabet-projection analysis: which input labels can this
    /// transducer react to, and is an event carrying any *other* label —
    /// together with its entire subtree — semantically skippable?
    ///
    /// The analysis is conservative. An unmatched-label event is skippable
    /// when every state that can be *subscribed* at a forest location either
    ///
    /// * has a pure-skip default rule (`q(%t(x1)x2, ȳ) → q(x2, ȳ)`): not
    ///   expanding it and leaving it subscribed until after the skipped
    ///   subtree is exactly what the rule would have done, or
    /// * is a `%`-shorthand stay state whose rhs only re-enters skippable
    ///   states via `x0`: delaying its expansion to the next delivered event
    ///   selects the same rhs (default = ε-rule, no `(q,σ)`-rules, no `%t`)
    ///   and the delayed `x0` calls land where the immediate ones would have.
    ///
    /// States reachable only through `x1` of a *text* rule are exempt from
    /// the requirement: they subscribe under a text node, and text nodes are
    /// leaves in the XML event model (their child location is defined by the
    /// immediately following close event, which a prefilter must deliver
    /// because the text open itself was delivered).
    pub fn projection(&self) -> LabelProjection {
        let n = self.states.len();

        // Least fixpoint of the two skippability shapes.
        let mut skippable: Vec<bool> = (0..n)
            .map(|i| {
                let q = StateId(i as u32);
                self.is_pure_skip(q, &self.rules[i].default)
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                let q = StateId(i as u32);
                if !skippable[i]
                    && self.is_stay_state(q)
                    && rhs_iter(&self.rules[i].default).all(|node| match node {
                        RhsNode::Call { state, .. } => skippable[state.idx()],
                        _ => true,
                    })
                {
                    skippable[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // States that can be *subscribed* at a forest (element-content)
        // location (`at_risk`), via a mutual fixpoint with the states whose
        // open-context rules can *fire* at one (`fireable`): the initial
        // state is both; x1/x2 callees of a fireable state's open rules are
        // subscribed (hence fireable at the next open), x0 callees are
        // fireable within the same event. Exception: x1 callees of *text*
        // rules subscribe under a text node — text nodes are leaves, so the
        // subscription resolves through the ε-rule at the very next (close)
        // event and never sees an open. ε-rules themselves only use x0 and
        // expand in close context, where no subscriptions can form.
        let mut at_risk = vec![false; n];
        let mut fireable = vec![false; n];
        at_risk[self.initial.idx()] = true;
        fireable[self.initial.idx()] = true;
        loop {
            let mut changed = false;
            let mut mark =
                |rhs: &Rhs, x1_is_safe: bool, at_risk: &mut Vec<bool>, fireable: &mut Vec<bool>| {
                    for node in rhs_iter(rhs) {
                        if let RhsNode::Call { state, input, .. } = node {
                            let j = state.idx();
                            let subscribes = match input {
                                XVar::X0 => false,
                                XVar::X2 => true,
                                XVar::X1 => !x1_is_safe,
                            };
                            if subscribes && !at_risk[j] {
                                at_risk[j] = true;
                                changed = true;
                            }
                            // Subscribed and x0 callees alike can fire at this
                            // location (x1-of-text callees cannot: they resolve
                            // via ε before any open event).
                            if (subscribes || *input == XVar::X0) && !fireable[j] {
                                fireable[j] = true;
                                changed = true;
                            }
                        }
                    }
                };
            for i in 0..n {
                if !fireable[i] {
                    continue;
                }
                let rules = &self.rules[i];
                for (sym, rhs) in &rules.by_sym {
                    let x1_safe = self.alphabet.label(*sym).is_text();
                    mark(rhs, x1_safe, &mut at_risk, &mut fireable);
                }
                if let Some(rhs) = &rules.text_default {
                    mark(rhs, true, &mut at_risk, &mut fireable);
                }
                mark(&rules.default, false, &mut at_risk, &mut fireable);
            }
            if !changed {
                break;
            }
        }

        let elements = at_risk
            .iter()
            .zip(&skippable)
            .all(|(risk, skip)| !risk || *skip);

        // Skipping delays a subscribed stay state's expansion into a later
        // event, and its `x0` calls expand under that event too — so for
        // *text* events the text-default rule (which preempts the default)
        // must be pure-skip on the whole x0-closure of the at-risk set.
        let mut delayed = at_risk.clone();
        loop {
            let mut changed = false;
            for i in 0..n {
                if delayed[i] && self.is_stay_state(StateId(i as u32)) {
                    for node in rhs_iter(&self.rules[i].default) {
                        if let RhsNode::Call { state, .. } = node {
                            if !delayed[state.idx()] {
                                delayed[state.idx()] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let texts = elements
            && delayed.iter().enumerate().all(|(i, risk)| {
                !risk
                    || match &self.rules[i].text_default {
                        None => true,
                        Some(rhs) => self.is_pure_skip(StateId(i as u32), rhs),
                    }
            });

        let mut seen: FxHashSet<SymId> = FxHashSet::default();
        let mut matched = Vec::new();
        for rules in &self.rules {
            for sym in rules.by_sym.keys() {
                if seen.insert(*sym) {
                    matched.push(self.alphabet.label(*sym).clone());
                }
            }
        }
        LabelProjection {
            matched,
            elements,
            texts,
        }
    }

    /// Structural well-formedness (Definition 2 restrictions).
    pub fn validate(&self) -> Result<(), MftError> {
        if self.states.is_empty() {
            return Err(MftError::new("transducer has no states"));
        }
        if self.initial.idx() >= self.states.len() {
            return Err(MftError::new("initial state out of range"));
        }
        if self.params_of(self.initial) != 0 {
            return Err(MftError::new(format!(
                "initial state {} must have rank 1 (no parameters)",
                self.name_of(self.initial)
            )));
        }
        for (i, rules) in self.rules.iter().enumerate() {
            let q = StateId(i as u32);
            let m = self.params_of(q);
            for (sym, r) in &rules.by_sym {
                if sym.0 as usize >= self.alphabet.len() {
                    return Err(self.rule_err(q, "symbol out of range"));
                }
                self.validate_rhs(q, m, r, RuleKind::Sym)?;
            }
            if let Some(r) = &rules.text_default {
                self.validate_rhs(q, m, r, RuleKind::TextDefault)?;
            }
            self.validate_rhs(q, m, &rules.default, RuleKind::Default)?;
            self.validate_rhs(q, m, &rules.eps, RuleKind::Eps)?;
        }
        Ok(())
    }

    fn validate_rhs(&self, q: StateId, m: usize, r: &Rhs, kind: RuleKind) -> Result<(), MftError> {
        for node in rhs_iter(r) {
            match node {
                RhsNode::Param(i) => {
                    if *i >= m {
                        return Err(self
                            .rule_err(q, format!("parameter y{} exceeds rank (m = {m})", i + 1)));
                    }
                }
                RhsNode::Out { label, .. } => {
                    if kind == RuleKind::Eps && *label == OutLabel::Current {
                        return Err(self.rule_err(q, "%t output label in ε-rule"));
                    }
                    if let OutLabel::Sym(s) = label {
                        if s.0 as usize >= self.alphabet.len() {
                            return Err(self.rule_err(q, "output symbol out of range"));
                        }
                    }
                }
                RhsNode::Call { state, input, args } => {
                    if state.idx() >= self.states.len() {
                        return Err(self.rule_err(q, "call to undefined state"));
                    }
                    if kind == RuleKind::Eps && *input != XVar::X0 {
                        return Err(self.rule_err(q, "ε-rule may only use x0"));
                    }
                    if args.len() != self.params_of(*state) {
                        return Err(self.rule_err(
                            q,
                            format!(
                                "call to {} with {} arguments, expected {}",
                                self.name_of(*state),
                                args.len(),
                                self.params_of(*state)
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn rule_err(&self, q: StateId, msg: impl Into<String>) -> MftError {
        MftError::new(format!("state {}: {}", self.name_of(q), msg.into()))
    }
}

/// Rule selection for the streaming engine, built once per run from a
/// finished transducer: every state's `(q,σ)`-rules as one run of a shared
/// table, sorted by symbol, with the text-default and default rules as the
/// fall-through. Size and construction are O(number of rules) — a table
/// indexed by symbol would be O(states × |Σ|) for a query chosen to make
/// it so, and an engine is built per request.
pub(crate) struct Dispatch<'m> {
    alphabet: &'m Alphabet,
    states: Vec<StateDispatch<'m>>,
    /// The states' `(q,σ)`-rules, one run per state.
    by_sym: Vec<(SymId, &'m Rhs)>,
    /// Some `(q,σ)`-rule is on a text constant.
    text_rules: bool,
}

struct StateDispatch<'m> {
    /// `by_sym[at..end]` are this state's `(q,σ)`-rules.
    at: usize,
    end: usize,
    /// The rule for a text node without a `(q,σ)`-rule.
    text: &'m Rhs,
    default: &'m Rhs,
    eps: &'m Rhs,
    /// [`Mft::is_identity_state`].
    identity: bool,
}

impl<'m> Dispatch<'m> {
    pub(crate) fn new(mft: &'m Mft) -> Self {
        let mut by_sym = Vec::with_capacity(mft.rules.iter().map(|r| r.by_sym.len()).sum());
        let mut states = Vec::with_capacity(mft.rules.len());
        for (i, rules) in mft.rules.iter().enumerate() {
            let at = by_sym.len();
            by_sym.extend(rules.by_sym.iter().map(|(sym, rhs)| (*sym, rhs)));
            by_sym[at..].sort_unstable_by_key(|(sym, _)| *sym);
            states.push(StateDispatch {
                at,
                end: by_sym.len(),
                text: rules.text_default.as_ref().unwrap_or(&rules.default),
                default: &rules.default,
                eps: &rules.eps,
                identity: mft.is_identity_state(StateId(i as u32)),
            });
        }
        let text_rules = by_sym
            .iter()
            .any(|(sym, _)| mft.alphabet.label(*sym).is_text());
        Dispatch {
            alphabet: &mft.alphabet,
            states,
            by_sym,
            text_rules,
        }
    }

    /// The symbol of an input label, if a `(q,σ)`-rule could select on it
    /// — resolved once per input event, however many states expand on it.
    pub(crate) fn sym(&self, label: &Label) -> Option<SymId> {
        if self.by_sym.is_empty() || (label.is_text() && !self.text_rules) {
            return None;
        }
        self.alphabet.lookup(label)
    }

    /// The rule of `q` for a node whose label resolved to `sym`.
    pub(crate) fn node_rule(&self, q: StateId, sym: Option<SymId>, is_text: bool) -> &'m Rhs {
        let state = &self.states[q.idx()];
        let rules = &self.by_sym[state.at..state.end];
        sym.and_then(|sym| rules.binary_search_by_key(&sym, |(s, _)| *s).ok())
            .map(|i| rules[i].1)
            .unwrap_or(if is_text { state.text } else { state.default })
    }

    /// The ε-rule of `q`.
    pub(crate) fn eps_rule(&self, q: StateId) -> &'m Rhs {
        self.states[q.idx()].eps
    }

    /// Whether `q` is an identity state ([`Mft::is_identity_state`]).
    pub(crate) fn is_identity(&self, q: StateId) -> bool {
        self.states[q.idx()].identity
    }
}

/// Result of [`Mft::projection`]: the label alphabet this transducer can
/// react to, plus whether events outside it are skippable. Consumed by the
/// multi-query engine's shared start-tag prefilter
/// (`foxq_service::MultiQueryEngine`).
#[derive(Debug, Clone)]
pub struct LabelProjection {
    /// Labels with a `(q,σ)`-rule in some state (elements *and* text
    /// constants). Events carrying them must always be delivered.
    pub matched: Vec<Label>,
    /// Unmatched **element** events — with their entire subtrees — may be
    /// withheld from this transducer without changing its output.
    pub elements: bool,
    /// Unmatched **text** events may be withheld too. Implies nothing on its
    /// own; only meaningful when [`LabelProjection::elements`] also holds.
    pub texts: bool,
}

impl fmt::Debug for Mft {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::text::print_mft(self))
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum RuleKind {
    Sym,
    TextDefault,
    Default,
    Eps,
}

/// Validation / construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MftError {
    pub msg: String,
}

impl MftError {
    pub fn new(msg: impl Into<String>) -> Self {
        MftError { msg: msg.into() }
    }
}

impl fmt::Display for MftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for MftError {}

/// Number of nodes in a rhs forest (calls add one for the x-argument).
pub fn rhs_size(r: &Rhs) -> usize {
    rhs_iter(r)
        .map(|n| {
            if matches!(n, RhsNode::Call { .. }) {
                2
            } else {
                1
            }
        })
        .sum()
}

/// Iterate over every node of a rhs, including nodes nested in output
/// children and call arguments.
pub fn rhs_iter(r: &Rhs) -> RhsIter<'_> {
    RhsIter {
        stack: r.iter().rev().collect(),
    }
}

pub struct RhsIter<'a> {
    stack: Vec<&'a RhsNode>,
}

impl<'a> Iterator for RhsIter<'a> {
    type Item = &'a RhsNode;

    fn next(&mut self) -> Option<&'a RhsNode> {
        let n = self.stack.pop()?;
        match n {
            RhsNode::Out { children, .. } => self.stack.extend(children.iter().rev()),
            RhsNode::Call { args, .. } => {
                for a in args.iter().rev() {
                    self.stack.extend(a.iter().rev());
                }
            }
            RhsNode::Param(_) => {}
        }
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhs::*;

    /// The doubling FT from §4.2: q(a(x1)x2) → q(x2)q(x2); q(ε) → a.
    fn doubler() -> (Mft, StateId) {
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
        (m, q)
    }

    #[test]
    fn build_and_validate() {
        let (m, _) = doubler();
        m.validate().unwrap();
        assert!(m.is_ft());
        assert_eq!(m.rule_count(), 3); // a-rule + default + ε
    }

    #[test]
    fn validation_catches_bad_param() {
        let mut m = Mft::new();
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_default_rule(q, vec![param(0)]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_catches_arity_mismatch() {
        let mut m = Mft::new();
        let q = m.add_state("q", 0);
        let p = m.add_state("p", 2);
        m.initial = q;
        m.set_default_rule(q, vec![call(p, XVar::X1, vec![vec![]])]); // needs 2 args
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_rejects_x1_in_eps_rule() {
        let mut m = Mft::new();
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_eps_rule(q, vec![call(q, XVar::X1, vec![])]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_rejects_current_label_in_eps_rule() {
        let mut m = Mft::new();
        let q = m.add_state("q", 0);
        m.initial = q;
        m.set_eps_rule(q, vec![out_current(vec![])]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_requires_rank1_initial() {
        let mut m = Mft::new();
        let q = m.add_state("q", 1);
        m.initial = q;
        assert!(m.validate().is_err());
    }

    #[test]
    fn stay_state_detection() {
        let mut m = Mft::new();
        let q = m.add_state("q", 1);
        let p = m.add_state("p", 0);
        m.set_stay_rule(q, vec![call(p, XVar::X0, vec![]), param(0)]);
        assert!(m.is_stay_state(q));
        // p has default ε / eps ε — also a stay state (trivially).
        assert!(m.is_stay_state(p));
        m.set_default_rule(p, vec![call(p, XVar::X2, vec![])]);
        assert!(!m.is_stay_state(p));
    }

    #[test]
    fn identity_state_detection() {
        let identity = |src: &str| {
            let m = crate::text::parse_mft(src).unwrap();
            m.is_identity_state(m.initial)
        };
        assert!(identity("q(%t(x1) x2) -> %t(q(x1)) q(x2); q(eps) -> eps;"));
        for not_identity in [
            // Renames, reorders, drops or adds to what it reads.
            "q(%t(x1) x2) -> b(q(x1)) q(x2); q(eps) -> eps;",
            "q(%t(x1) x2) -> q(x2) %t(q(x1)); q(eps) -> eps;",
            "q(%t(x1) x2) -> %t(q(x1)); q(eps) -> eps;",
            "q(%t(x1) x2) -> %t(q(x1)) q(x2); q(eps) -> b;",
            // Recurses into another state.
            "q(%t(x1) x2) -> %t(p(x1)) q(x2); q(eps) -> eps; \
             p(%t(x1) x2) -> %t(p(x1)) p(x2); p(eps) -> eps;",
            // Has a rule besides the default.
            "q(%t(x1) x2) -> %t(q(x1)) q(x2); q(%ttext(x1) x2) -> q(x2); q(eps) -> eps;",
            "q(a(x1) x2) -> a(q(x1)) q(x2); q(%t(x1) x2) -> %t(q(x1)) q(x2); q(eps) -> eps;",
        ] {
            assert!(!identity(not_identity), "{not_identity}");
        }
    }

    #[test]
    fn projection_of_a_child_path_navigator() {
        // q0 is a stay state producing s(x0); s skips any unmatched node
        // (pure-skip default and %text rules) and reacts only to `site`.
        let mut m = Mft::new();
        let site = m.alphabet.intern_elem("site");
        let hit = m.alphabet.intern_elem("hit");
        let q0 = m.add_state("q0", 0);
        let s = m.add_state("s", 0);
        m.initial = q0;
        m.set_stay_rule(q0, vec![call(s, XVar::X0, vec![])]);
        m.set_sym_rule(s, site, vec![out(hit, vec![]), call(s, XVar::X2, vec![])]);
        m.set_text_rule(s, vec![call(s, XVar::X2, vec![])]);
        m.set_default_rule(s, vec![call(s, XVar::X2, vec![])]);
        m.validate().unwrap();
        let p = m.projection();
        assert!(p.elements, "pure-skip navigator must be skippable");
        assert!(p.texts, "pure-skip %text rule must be skippable");
        let names: Vec<&str> = p.matched.iter().map(|l| &*l.name).collect();
        assert_eq!(names, ["site"]);
    }

    #[test]
    fn projection_rejects_copying_and_looping_states() {
        // qcopy recurses into x1 of unmatched nodes: nothing is skippable.
        let copy = crate::text::parse_mft(
            "qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;",
        )
        .unwrap();
        assert!(!copy.projection().elements);

        // A stay loop is not skippable either (least fixpoint: delaying the
        // expansion would suppress the loop).
        let looping = crate::text::parse_mft("q0(%) -> q0(x0);").unwrap();
        assert!(!looping.projection().elements);
    }

    #[test]
    fn projection_exempts_text_rule_x1_callees() {
        // qcopy only ever subscribes under a text node (x1 of a %ttext
        // rule); text nodes are leaves, so the lane stays skippable for
        // elements while text events must be delivered.
        let m = crate::text::parse_mft(
            "s(%ttext(x1) x2) -> %t(qcopy(x1)) s(x2);\
             s(%t(x1) x2) -> s(x2);\
             s(eps) -> eps;\
             qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2);\
             qcopy(eps) -> eps;",
        )
        .unwrap();
        let p = m.projection();
        assert!(p.elements);
        assert!(!p.texts, "the %ttext rule does real work");
    }

    #[test]
    fn size_metric_counts_alphabet_and_rules() {
        let (m, _) = doubler();
        // |Σ| = 1; a-rule lhs 4 + rhs 4 (two calls à 2); default lhs 4 + rhs 0;
        // ε lhs 2 + rhs 1.
        assert_eq!(m.size(), 1 + 4 + 4 + 4 + 2 + 1);
    }

    #[test]
    fn rhs_iter_visits_nested() {
        let (m, q) = doubler();
        let r = vec![out(SymId(0), vec![call(q, XVar::X1, vec![]), param(0)])];
        let kinds: Vec<_> = rhs_iter(&r).collect();
        assert_eq!(kinds.len(), 3);
        let _ = m;
    }
}
