//! XML forest data model for `foxq`.
//!
//! This crate implements the data model of Section 2 of *"XQuery Streaming by
//! Forest Transducers"* (Hakuta, Maneth, Nakano, Iwasaki; ICDE 2014):
//!
//! * an XML document is an **unranked forest** — a sequence of unranked trees
//!   ([`Tree`], [`Forest`]);
//! * every node carries a [`Label`], a pair of a [`NodeKind`] (element or
//!   text) and a name (the element name, or the text content). Attribute
//!   nodes are encoded as element children, exactly as in the paper's adapted
//!   XMark data (Table 1: *"All attribute nodes are encoded as element
//!   nodes"*);
//! * the transducer alphabet Σ is a finite set of interned labels
//!   ([`Alphabet`], [`SymId`]);
//! * forests have a **term notation** (`doc(a(b() "txt"))`, [`term`]) and the
//!   classical **first-child/next-sibling** binary encoding ([`fcns`]).

pub mod fcns;
pub mod fxhash;
pub mod label;
pub mod stats;
pub mod symbol;
pub mod term;
pub mod tree;

pub use fcns::BinTree;
pub use fxhash::{FxHashMap, FxHashSet};
pub use label::{Label, NodeKind};
pub use stats::ForestStats;
pub use symbol::{Alphabet, SymId};
pub use tree::{elem, forest_size, text, Forest, Tree};
