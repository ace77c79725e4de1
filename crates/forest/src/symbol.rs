//! Interned transducer alphabets.
//!
//! A forest transducer abstracts from the universal character alphabet by
//! fixing a finite set Σ of labels "of interest" (Section 2.2). [`Alphabet`]
//! interns those labels as dense [`SymId`]s so that rule lookup is a u32 hash
//! probe rather than a string comparison.

use crate::fxhash::FxHashMap;
use crate::label::Label;
use std::fmt;

/// Interned id of a symbol σ ∈ Σ.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

impl fmt::Debug for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

/// A finite alphabet Σ of labels, interned to dense ids.
#[derive(Clone, Default)]
pub struct Alphabet {
    labels: Vec<Label>,
    index: FxHashMap<Label, SymId>,
}

impl Alphabet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a label, returning its id (idempotent).
    pub fn intern(&mut self, label: Label) -> SymId {
        if let Some(&id) = self.index.get(&label) {
            return id;
        }
        let id = SymId(self.labels.len() as u32);
        self.labels.push(label.clone());
        self.index.insert(label, id);
        id
    }

    /// Intern an element label by name.
    pub fn intern_elem(&mut self, name: &str) -> SymId {
        self.intern(Label::elem(name))
    }

    /// Intern a text label (string constant) by content.
    pub fn intern_text(&mut self, content: &str) -> SymId {
        self.intern(Label::text(content))
    }

    /// Look up a label without interning.
    pub fn lookup(&self, label: &Label) -> Option<SymId> {
        self.index.get(label).copied()
    }

    /// The label of an interned symbol.
    pub fn label(&self, id: SymId) -> &Label {
        &self.labels[id.0 as usize]
    }

    /// Number of interned symbols, |Σ|.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate over `(SymId, &Label)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, &Label)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (SymId(i as u32), l))
    }
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.labels.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::NodeKind;

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let s1 = a.intern_elem("person");
        let s2 = a.intern_elem("person");
        assert_eq!(s1, s2);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn element_and_text_symbols_are_distinct() {
        let mut a = Alphabet::new();
        let e = a.intern_elem("person0");
        let t = a.intern_text("person0");
        assert_ne!(e, t);
        assert_eq!(a.len(), 2);
        assert_eq!(a.label(e).kind, NodeKind::Element);
        assert_eq!(a.label(t).kind, NodeKind::Text);
    }

    #[test]
    fn lookup_without_interning() {
        let mut a = Alphabet::new();
        let id = a.intern_elem("site");
        assert_eq!(a.lookup(&Label::elem("site")), Some(id));
        assert_eq!(a.lookup(&Label::elem("nope")), None);
    }
}
