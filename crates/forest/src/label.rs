//! Node labels: `(kind, name)` pairs.
//!
//! The paper abstracts node labels to words over a universal alphabet and
//! distinguishes node *types*; following Section 2 we keep exactly two kinds:
//! element nodes and text nodes (attributes are encoded as element children).

use std::fmt;
use std::sync::Arc;

/// The type of an XML node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum NodeKind {
    /// An element node (`<name>…</name>`); attribute nodes are encoded as
    /// element nodes whose single child is a text node.
    Element,
    /// A text node; the label's `name` is the text content.
    Text,
}

/// A node label: the pair of a [`NodeKind`] and a name.
///
/// Names are shared via `Arc<str>` so that copying subtrees (which the `qcopy`
/// state of a transducer does a lot) is cheap and the structures stay `Send`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label {
    pub kind: NodeKind,
    pub name: Arc<str>,
}

impl Label {
    /// An element label.
    pub fn elem(name: impl Into<Arc<str>>) -> Self {
        Label {
            kind: NodeKind::Element,
            name: name.into(),
        }
    }

    /// A text label; `name` is the text content.
    pub fn text(content: impl Into<Arc<str>>) -> Self {
        Label {
            kind: NodeKind::Text,
            name: content.into(),
        }
    }

    /// Whether this is a text-node label.
    pub fn is_text(&self) -> bool {
        self.kind == NodeKind::Text
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NodeKind::Element => write!(f, "{}", self.name),
            NodeKind::Text => write!(f, "{:?}", &*self.name),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_distinguish_labels() {
        let e = Label::elem("person0");
        let t = Label::text("person0");
        assert_ne!(e, t);
        assert_eq!(e.name, t.name);
        assert!(t.is_text());
        assert!(!e.is_text());
    }

    #[test]
    fn labels_are_cheap_to_clone_and_compare() {
        let a = Label::elem("site");
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.name, &b.name));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Label::elem("a")), "a");
        assert_eq!(format!("{:?}", Label::text("hi")), "\"hi\"");
    }
}
