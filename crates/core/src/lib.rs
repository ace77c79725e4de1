//! Macro forest transducers and the XQuery streaming pipeline.
//!
//! This crate is the paper's primary contribution, end to end:
//!
//! * [`mft`] — the transducer model of Definition 2 (§2.2);
//! * [`interp`] — the denotational semantics `[[q]]` as the reference
//!   interpreter every other path is tested against;
//! * [`text`] — the paper's rule notation (parser + printer);
//! * [`stream`] — the streaming execution engine (§1 contribution (1),
//!   in the style of Nakano & Mu's pushdown machine);
//! * [`translate`] — the MinXQuery → MFT compilation of §3 (Theorem 1);
//! * [`opt`] — the optimizations of §4.1: unused/constant parameter
//!   reduction, stay-move removal, unreachable state removal (Theorem 2);
//! * [`profile`] — the per-run resource profiler: hot-state
//!   attribution and downsampled buffer timelines over the engine's
//!   [`stream::StreamObserver`] hooks;
//! * [`emit`] — earliest emission: the static which-states-can-emit-early
//!   analysis plus the [`emit::EmitSink`] boundary that releases
//!   irrevocable output prefixes downstream before end-of-input.

pub mod emit;
pub mod interp;
pub mod mft;
pub mod opt;
pub mod profile;
pub mod stream;
pub mod text;
pub mod translate;

pub use emit::{EmissionAnalysis, EmitSink, EmitWriter};
pub use interp::{run_mft, run_mft_with_limits, RunError, RunLimits};
pub use mft::{Mft, MftError, OutLabel, Rhs, RhsNode, StateId, XVar};
pub use text::{parse_mft, print_mft};
