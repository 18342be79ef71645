//! # ilogic-core
//!
//! A from-scratch implementation of the SRI **Interval Logic** of
//! *"An Interval Logic for Higher-Level Temporal Reasoning"* (Schwartz,
//! Melliar-Smith, Vogt, Plaisted; NASA CR 172262 / PODC 1983).
//!
//! The crate provides:
//!
//! * [`syntax`] / [`dsl`] — interval formulas and interval terms (`begin`,
//!   `end`, `⇒`, `⇐`, the `*` modifier), with ergonomic constructors;
//! * [`arena`] — the hash-consed formula arena (`FormulaId`/`TermId` handles,
//!   structural sharing) and the memoized arena evaluator;
//! * [`analysis`] — pre-flight static analysis: well-formedness lints with
//!   stable diagnostic codes, the structural cost estimator, and the inputs
//!   `Backend::Auto` routes on;
//! * [`session`] — the unified checking façade: `Session`, builder-style
//!   `CheckRequest`, backend selection, the uniform `Verdict`, and the
//!   batched job API (`submit` / `check_many`);
//! * [`scheduler`] — cross-request job multiplexing over the worker pool
//!   (`JobHandle`, deterministic batch execution);
//! * [`json`] — a dependency-free JSON layer behind
//!   `CheckReport::to_json`/`from_json`, so reports can cross a process
//!   boundary;
//! * [`trace`] / [`state`] — computation sequences over parameterized
//!   propositions and state components;
//! * [`semantics`] — the formal model of Chapter 3: the interval-construction
//!   function `F`, event change-sets, and the satisfaction relation;
//! * [`star`] — the Appendix A reduction eliminating the `*` modifier;
//! * [`ops`] — parameterized abstract operations (`atO`, `inO`, `afterO`) and
//!   their axioms (§2.2);
//! * [`valid`] — the valid-formula catalogue V1–V16 of Chapter 4;
//! * [`bounded`] — an exhaustive bounded-model validity checker used to confirm
//!   the catalogue and refute non-theorems;
//! * [`spec`] — Init/Axioms specifications and trace-conformance checking;
//! * [`parser`] — a concrete syntax for interval formulas;
//! * [`ltl_translate`] — a translation of a practical fragment into the
//!   linear-time temporal logic of [`ilogic_temporal`], realizing the report's
//!   "reduction to linear-time temporal logic";
//! * [`diagram`] — ASCII timeline rendering of the report's pictorial notation
//!   (the "graphical representation" listed as further work in Chapter 9);
//! * [`process`] — process naming and composition of per-process
//!   specifications into a system specification (the first two "next steps"
//!   of Chapter 9).
//!
//! # Quick example
//!
//! ```
//! use ilogic_core::dsl::*;
//! use ilogic_core::prelude::*;
//!
//! // [ A => *B ] <> D : between the next A event and the (required) B event
//! // that follows it, D must occur at some point.
//! let formula = eventually(prop("D")).within(fwd(event(prop("A")), must(event(prop("B")))));
//!
//! let trace = Trace::finite(vec![
//!     State::new(),
//!     State::new().with("A"),
//!     State::new().with("A").with("D"),
//!     State::new().with("A").with("B"),
//! ]);
//! assert!(Evaluator::new(&trace).check(&formula));
//! ```

pub mod analysis;
pub mod arena;
pub mod bounded;
pub mod diagram;
pub mod dsl;
pub mod generate;
pub mod interval;
pub mod json;
pub mod ltl_translate;
pub mod ops;
pub mod parser;
pub mod process;
pub mod scheduler;
pub mod semantics;
pub mod session;
pub mod spec;
pub mod star;
pub mod state;
pub mod syntax;
pub mod trace;
pub mod valid;
pub mod value;

/// The workspace worker pool, re-exported from [`ilogic_temporal::pool`].
///
/// The pool moved down to `ilogic-temporal` so the tableau and condition-
/// fixpoint engines (which this crate depends on, not the other way round)
/// can fan out over the same machinery; `ilogic_core::pool` remains the
/// canonical path for checker-level callers.
pub use ilogic_temporal::pool;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::analysis::{
        analyze, analyze_formula, lint_spec, Analysis, CostEstimate, Diagnostic, DiagnosticCode,
        Severity,
    };
    pub use crate::arena::{
        ArenaSnapshot, ArenaVersion, FormulaArena, FormulaId, MemoEvaluator, TermId,
    };
    pub use crate::bounded::BoundedChecker;
    pub use crate::diagram::Diagram;
    pub use crate::interval::{Constructed, Endpoint, Interval};
    pub use crate::ops::Operation;
    pub use crate::pool::{CancelToken, Exhaustion, Parallelism, ResourceBudget, WorkerPool};
    pub use crate::process::{ProcessId, ProcessSpec, System};
    pub use crate::scheduler::{JobHandle, JobId};
    pub use crate::semantics::{holds, Dir, Env, Evaluator};
    pub use crate::session::{
        Backend, CacheStats, CheckReport, CheckRequest, CheckStats, ErrorReport, RunSource,
        Session, Verdict,
    };
    pub use crate::spec::{CheckOutcome, Spec, SpecReport};
    pub use crate::state::{Prop, State};
    pub use crate::syntax::{Arg, CmpOp, Expr, Formula, IntervalTerm, Pred};
    pub use crate::trace::{Extension, Trace, TraceBuilder};
    pub use crate::value::Value;
}
