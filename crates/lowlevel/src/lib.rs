//! # ilogic-lowlevel
//!
//! The "low-level language" of Appendix C of *"An Interval Logic for
//! Higher-Level Temporal Reasoning"*: a generalization of regular expressions
//! over computation-sequence constraints, used by the report as the target of
//! a decision procedure for the interval logic.
//!
//! * [`syntax`] — the expression language (`T`, `F`, `T*`, literals,
//!   concatenation, `as`, hiding, default-false/true quantifiers, `infloop`,
//!   `iter*`, `iter(*)`);
//! * [`interp`] — partial interpretations (computation-sequence constraints)
//!   and the operations of §3;
//! * [`semantics`] — the set-of-constraints semantics restricted to bounded
//!   lengths, with a bounded satisfiability check;
//! * [`graph`] — the §4.1/§4.3 graph construction (node bases, eventualities,
//!   the marker construction for the iteration operators);
//! * [`decide`] — the §4.4 iteration method over those graphs and an exact
//!   emptiness/satisfiability check, cross-validated against [`semantics`];
//! * [`translate`] — the §7 encoding of linear-time temporal logic and the
//!   interval-logic fragment of §5 (via the `ilogic-core` reduction);
//! * [`exec`] — executable specifications (§8): synthesizing a concrete event
//!   schedule from a satisfiable expression.

pub mod decide;
pub mod exec;
pub mod graph;
pub mod interp;
pub mod semantics;
pub mod syntax;
pub mod translate;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::decide::{
        accepted_interps, prune, satisfiable_graph, satisfiable_graph_with, GraphSat, PruneStats,
    };
    pub use crate::exec::{complete, synthesize, Schedule};
    pub use crate::graph::{build_graph, GraphBuilder, GraphLimits, LowGraph};
    pub use crate::interp::{Conj, PartialInterp};
    pub use crate::semantics::{denotation, satisfiable, BoundedSat, Bounds};
    pub use crate::syntax::LowExpr;
    pub use crate::translate::{from_interval, from_ltl, TranslateError};
}
