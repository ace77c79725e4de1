//! MinXQuery frontend: AST, parser, and ground-truth evaluator.
//!
//! MinXQuery is the downward navigational XQuery fragment of §2.1 of the
//! paper: nested `for`/`let`, element constructors, XPath with `child`,
//! `descendant` and `following-sibling` axes, and predicates that test path
//! existence, emptiness, or compare against string constants. There are no
//! where-clauses, joins, order-by, or recursive functions.
//!
//! * [`ast`] — the syntax tree (Figure 2) with a printing round-trip;
//! * [`parser`] — recursive-descent parser ([`parse_query`]);
//! * [`eval`] — reference semantics on an indexed DOM ([`eval_query`]).

pub mod ast;
pub mod eval;
pub mod parser;

pub use ast::{Axis, NodeTest, Path, Pred, Query, RelPath, Step};
pub use eval::{eval_query, Doc, XqRunError};
pub use parser::{parse_query, XqSyntaxError, MAX_NESTING};
