//! Algorithm B of Appendix B §5: computing the condition formula `C`.
//!
//! Given a formula `A`, the algorithm builds `Graph(¬A)` and computes, by a
//! double fixpoint iteration, a *condition* under which the initial node would
//! be deleted.  The condition is a monotone Boolean combination of atoms
//! "□¬prop(e)" for edges `e` of the graph; written in disjunctive normal form
//! it is the maximal formula `∨ᵢ □Cᵢ` such that `TL ⊨ (∨ᵢ □Cᵢ) ⊃ A`
//! (Theorem 1).  The specialized theory is consulted only at the very end:
//!
//! * when every constraint variable is a *state* variable, `TL(T) ⊨ A` iff
//!   `T ⊨ Cᵢ` for some `i`, which (because each `Cᵢ` is a conjunction of
//!   negated edge labels) reduces to every edge label of some implicant being
//!   `T`-unsatisfiable;
//! * when every constraint variable is *extralogical*, `TL(T) ⊨ A` iff
//!   `T ⊨ ∨ᵢ Cᵢ` (Corollary 2), decided here by refuting the negation
//!   selection by selection;
//! * for a mixture the first check is still sufficient for validity, and the
//!   procedure answers [`Decision::Unknown`] when it fails (the report notes
//!   the general mixed case requires the state variables of each `Cᵢ` to be
//!   quantified separately).
//!
//! As the report describes, the fixpoint iteration is accelerated by iterating
//! over the strongly connected components of the graph in dependency order.
//!
//! # The condition store, the evaluated fixpoint, and budgets
//!
//! The §5.3 double fixpoint is where the explicit condition blows up: on
//! the `[ => Q ] []P` family the unbudgeted fixpoint over explicit
//! `BTreeSet` DNFs does not terminate in hours.  Tableau construction is
//! not cheap either, and on decisions it is the larger cost.  perfbench's
//! `--trace 1` run at seed 1 (2 hardware threads) puts `tableau.busy_ms` at
//! 2,759 ms of the 4,379 ms of `decide_corpus` check time (63%), and a
//! probe of the `[ => Q ] []P` decision measured 76–103 ms per tableau
//! build against 0.4–1.2 ms for the evaluated fixpoint that follows it.
//! Two mechanisms split the fixpoint's cost by what the caller actually
//! needs:
//!
//! * **Decisions** ([`AlgorithmB::decide`] / [`AlgorithmB::decide_budgeted`])
//!   never materialize a condition in the state-variable, mixed, and
//!   propositional modes: they run the same fixpoint over plain Booleans
//!   ([`evaluate_condition_at_budgeted_stats`]) — evaluation at an atom
//!   assignment is a lattice homomorphism onto the Booleans, so the
//!   projected fixpoint returns exactly the condition's truth value in
//!   O(graph) time.  This is what refutes the prefix-invariance family once
//!   its tableau is built.
//! * **The explicit condition artifact** ([`AlgorithmB::condition_budgeted`],
//!   [`condition_of_graph_budgeted_stats`]) runs on the interned
//!   [`crate::dnf::store::ConditionStore`]: `delete`/`fail` values are
//!   hash-consed [`DnfId`]s, products are memoized, and
//!   the shared atomic [`crate::dnf::DnfBudget`] cell charges *distinct*
//!   implicants, so heavily-absorbing computations fit budgets the old
//!   pre-absorption estimate tripped on.  The iteration itself is
//!   *semi-naive*: a reverse-dependency graph built once per tableau drives a
//!   per-component worklist, and each round re-evaluates only the equations
//!   whose inputs changed since their last evaluation — an equation whose
//!   inputs did not change would have replayed entirely from the memo tables,
//!   so skipping it leaves ids, budget charges, and trip reasons bit-identical
//!   to a full sweep.  Each round's ready set is first attempted against a
//!   frozen store view batched across the [`crate::pool`] workers, then the
//!   remainder is computed sequentially in task order — answers,
//!   `Err`-under-budget included, are identical at every worker count.  The
//!   PR 5 full-sweep discipline survives as
//!   [`condition_of_graph_full_sweep_stats`] (the differential anchor for the
//!   worklist engine), and the PR 3 `BTreeSet` fixpoint as
//!   [`condition_of_graph_baseline`], the oracle for tests and the
//!   `condition_fixpoint` bench.
//!
//! Each engine has a plain call for tests and examples (unbounded,
//! sequential) and a full call under a [`ResourceBudget`]; the `_stats`
//! forms of the full calls also hand back the [`StoreStats`] of a tripped
//! attempt, which the `Session` reports surface.
//!
//! [`AlgorithmB::with_parallelism`] routes the whole procedure (tableau,
//! fixpoint sweeps, end-of-run selection check) through the pool.

use std::collections::{BTreeMap, BTreeSet};

use crate::dnf::store::{ConditionStore, DnfId, FrozenStore, StoreStats};
use crate::dnf::{Dnf, DnfBudget};
use crate::pool::{Exhaustion, Parallelism, ResourceBudget, WorkerPool};
use crate::syntax::{Ltl, VarSpec};
use crate::tableau::{EdgeId, EventualityIndex, NodeId, SweepPlan, TableauGraph};
use crate::theory::Theory;

/// The answer of the combined decision procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The formula is valid in `TL(T)`.
    Valid,
    /// The formula is not valid in `TL(T)` (exact in the supported modes).
    NotValid,
    /// The procedure could not establish validity (mixed variable modes, or a
    /// case-split explosion was cut off); the formula may or may not be valid.
    Unknown,
}

/// The condition formula computed by Algorithm B, together with the graph it refers to.
#[derive(Debug)]
pub struct Condition {
    graph: TableauGraph,
    delete_init: Dnf,
    outer_rounds: usize,
    store_stats: StoreStats,
}

impl Condition {
    /// The tableau graph of `¬A` the condition refers to.
    pub fn graph(&self) -> &TableauGraph {
        &self.graph
    }

    /// The condition `delete(init)` as a monotone DNF over edge identifiers.
    pub fn dnf(&self) -> &Dnf {
        &self.delete_init
    }

    /// Number of outer rounds of the double fixpoint iteration.
    pub fn outer_rounds(&self) -> usize {
        self.outer_rounds
    }

    /// Interning/memoization counters of the [`ConditionStore`] the fixpoint
    /// ran on, plus the worklist counters (`rounds`, `equations_evaluated`,
    /// `equations_skipped`).  The [`condition_of_graph_baseline`] path
    /// bypasses the store — its interning counters stay zero — but still
    /// reports its rounds and evaluations.
    pub fn store_stats(&self) -> StoreStats {
        self.store_stats
    }

    /// `true` if the condition establishes validity in pure temporal logic
    /// (the condition contains the empty implicant, i.e. it is identically true).
    pub fn valid_in_pure_tl(&self) -> bool {
        self.delete_init.is_top()
    }

    /// The disjuncts `Cᵢ` of the condition, each given as the list of edge
    /// labels `prop(e)` whose henceforth-negation is conjoined in `Cᵢ`.
    pub fn disjuncts(&self) -> Vec<Vec<&[crate::syntax::Literal]>> {
        self.delete_init
            .implicants()
            .map(|imp| imp.iter().map(|&e| self.graph.edge(e).literals.as_slice()).collect())
            .collect()
    }
}

/// Algorithm B: condition computation plus the end-of-run theory check.
pub struct AlgorithmB<'t> {
    theory: &'t dyn Theory,
    vars: VarSpec,
    parallelism: Parallelism,
    /// Upper bound on the number of selections explored in the
    /// extralogical-variable check before giving up with [`Decision::Unknown`].
    pub selection_limit: usize,
}

impl<'t> AlgorithmB<'t> {
    /// Creates the procedure over the given theory and variable classification.
    pub fn new(theory: &'t dyn Theory, vars: VarSpec) -> AlgorithmB<'t> {
        AlgorithmB { theory, vars, parallelism: Parallelism::Off, selection_limit: 200_000 }
    }

    /// Fans every phase of the procedure — tableau construction, the condition
    /// fixpoint sweeps, and the end-of-run selection check — across a worker
    /// pool.  Answers (including `Unknown`-under-budget) are identical at
    /// every worker count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> AlgorithmB<'t> {
        self.parallelism = parallelism;
        self
    }

    /// Computes the condition formula for `formula` (i.e. for `Graph(¬formula)`).
    pub fn condition(&self, formula: &Ltl) -> Condition {
        self.condition_budgeted(formula, &ResourceBudget::unbounded())
            .expect("an unbounded budget cannot be exceeded")
    }

    /// [`AlgorithmB::condition`] under a [`ResourceBudget`]: the `Err` names
    /// the first resource that ran out in either the tableau construction or
    /// the condition fixpoint.  The DNF fixpoint is the dangerous phase — on
    /// the nested weak-until translations of interval formulas it explodes
    /// combinatorially even when the graph itself stays small (e.g.
    /// `¬to_ltl([ => Q ] []P)` builds a 97-node / 3362-edge graph in about
    /// 0.1 s whose fixpoint does not terminate in hours).
    pub fn condition_budgeted(
        &self,
        formula: &Ltl,
        budget: &ResourceBudget,
    ) -> Result<Condition, Exhaustion> {
        let graph =
            TableauGraph::try_build_budgeted(&formula.clone().not(), budget, self.parallelism)?;
        condition_of_graph_budgeted_stats(graph, budget, self.parallelism).0
    }

    /// Decides whether `formula` is valid in `TL(T)`.
    pub fn decide(&self, formula: &Ltl) -> Decision {
        let budget = ResourceBudget::unbounded().with_max_enumeration(self.selection_limit);
        self.decide_budgeted(formula, &budget).unwrap_or(Decision::Unknown)
    }

    /// [`AlgorithmB::decide`] under a [`ResourceBudget`]: `Err` (naming the
    /// exhausted resource) instead of hanging when the construction, the
    /// fixpoint, or the end-of-run selection enumeration blows past the
    /// budget.  Callers that only need the three-valued answer can flatten
    /// `Err(_)` to [`Decision::Unknown`].
    ///
    /// # The evaluated fixpoint
    ///
    /// In the state-variable, mixed, and purely propositional modes the
    /// decision never needs the condition *formula* — only the condition
    /// *evaluated* at up to two atom assignments: `delete(init)` contains an
    /// implicant of `T`-unsatisfiable edges iff the monotone function it
    /// denotes is true at the assignment "□¬prop(e) ↦ prop(e)
    /// T-unsatisfiable", and it is `⊥` iff it is false at the all-true
    /// assignment.  Because evaluation at a point is a lattice homomorphism
    /// from canonical monotone DNFs onto the Booleans — it commutes with `∧`,
    /// `∨`, and hence with every step of the §5.3 iteration, whose extreme
    /// fixpoints are preserved — these truth values can be computed by
    /// running the *same* double fixpoint over plain Booleans
    /// ([`evaluate_condition_at_budgeted_stats`]): O(graph) work, no DNF
    /// ever materialized, no implicant budget consumed.
    ///
    /// This is what tames the nested weak-until family for good: the
    /// `[ => Q ] []P` condition's minimal DNF is astronomically wide (the
    /// interned store pushed the explicit frontier from ~10³ to ~10⁵ distinct
    /// implicants and it still grows), but its *decision* falls out of the
    /// Boolean projection in milliseconds.  The explicit condition — the
    /// artifact the specialized-theory checks and [`Condition::disjuncts`]
    /// need — remains available through [`AlgorithmB::condition_budgeted`]
    /// under the distinct-implicant budget, and the purely-extralogical mode
    /// (whose selection check enumerates the implicants) still computes it.
    pub fn decide_budgeted(
        &self,
        formula: &Ltl,
        budget: &ResourceBudget,
    ) -> Result<Decision, Exhaustion> {
        let graph =
            TableauGraph::try_build_budgeted(&formula.clone().not(), budget, self.parallelism)?;
        self.decide_from_graph_budgeted_stats(formula, &graph, budget).0
    }

    /// [`AlgorithmB::decide_budgeted`] over an already-built `Graph(¬formula)`
    /// — for callers (the `Session` Decide backend) that also compute the
    /// explicit condition artifact from the same graph and must not pay the
    /// tableau construction twice — also reporting the fixpoint counters of
    /// the attempt on *both* outcomes.  In the evaluated (Boolean) modes the
    /// interning counters stay zero but the
    /// `rounds`/`equations_evaluated`/`equations_skipped` trio measures the
    /// worklist engine's work; in the purely extralogical mode the counters
    /// are those of the explicit condition computation.
    pub fn decide_from_graph_budgeted_stats(
        &self,
        formula: &Ltl,
        graph: &TableauGraph,
        budget: &ResourceBudget,
    ) -> (Result<Decision, Exhaustion>, StoreStats) {
        let vars = formula.variables();
        let has_state = vars.iter().any(|v| !self.vars.is_extralogical(v));
        let has_extra = vars.iter().any(|v| self.vars.is_extralogical(v));
        if has_extra && !has_state {
            // Purely extralogical: the selection check needs the actual
            // implicants, so the explicit (budgeted) condition is computed.
            let (result, stats) =
                condition_of_graph_budgeted_stats(graph.clone(), budget, self.parallelism);
            return match result {
                Ok(condition) => {
                    (self.decide_from_condition_budgeted(formula, &condition, budget), stats)
                }
                Err(cut) => (Err(cut), stats),
            };
        }
        let mut stats = StoreStats::default();
        if let Some(cut) = budget.interrupted() {
            return (Err(cut), stats);
        }
        let mut unsat = Vec::with_capacity(graph.edges().len());
        for (count, edge) in graph.edges().iter().enumerate() {
            // Theory checks can be the slow part on big graphs: honour the
            // deadline/cancellation cutoffs mid-scan like every other engine.
            if count % crate::pool::INTERRUPT_POLL_PERIOD == 0 {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
            }
            unsat.push(!self.theory.satisfiable(&edge.literals).is_sat());
        }
        let (at_unsat, eval_stats) = evaluate_condition_at_budgeted_stats(graph, &unsat, budget);
        stats.merge(eval_stats);
        match at_unsat {
            Err(cut) => return (Err(cut), stats),
            // Some implicant of delete(init) has only T-unsatisfiable edges
            // (the empty implicant of a ⊤ condition included).
            Ok(true) => return (Ok(Decision::Valid), stats),
            Ok(false) => {}
        }
        if has_state && has_extra {
            // Mixed mode: the pointwise check is only sufficient.  delete(init)
            // evaluating false even at the all-true assignment means it is ⊥ —
            // not valid in any mode; anything else stays out of reach.
            let all_true = vec![true; graph.edges().len()];
            let (at_top, eval_stats) =
                evaluate_condition_at_budgeted_stats(graph, &all_true, budget);
            stats.merge(eval_stats);
            return match at_top {
                Err(cut) => (Err(cut), stats),
                Ok(false) => (Ok(Decision::NotValid), stats),
                Ok(true) => (Ok(Decision::Unknown), stats),
            };
        }
        // Pure state-variable (or purely propositional) mode: the pointwise
        // check is exact.
        (Ok(Decision::NotValid), stats)
    }

    /// Decides validity given a previously computed condition (allows callers
    /// to time the construction and iteration phases separately), under a
    /// [`ResourceBudget`]: the extralogical-variable selection check
    /// enumerates at most `budget.max_enumeration()` selections
    /// (`Err(Enumeration)` beyond that), and the budget's
    /// deadline/cancellation cutoffs are polled before the sweep starts.
    pub fn decide_from_condition_budgeted(
        &self,
        formula: &Ltl,
        condition: &Condition,
        budget: &ResourceBudget,
    ) -> Result<Decision, Exhaustion> {
        if condition.valid_in_pure_tl() {
            return Ok(Decision::Valid);
        }
        if condition.dnf().is_bottom() {
            return Ok(Decision::NotValid);
        }
        // Sufficient check, exact when all variables are state variables:
        // some implicant has every edge label T-unsatisfiable.
        let graph = condition.graph();
        let implicant_valid = |implicant: &BTreeSet<EdgeId>| {
            implicant.iter().all(|&e| !self.theory.satisfiable(&graph.edge(e).literals).is_sat())
        };
        if condition.dnf().implicants().any(implicant_valid) {
            return Ok(Decision::Valid);
        }

        let vars = formula.variables();
        let has_state = vars.iter().any(|v| !self.vars.is_extralogical(v));
        let has_extra = vars.iter().any(|v| self.vars.is_extralogical(v));
        if !has_extra {
            // Pure state-variable (or purely propositional) mode: the check above is exact.
            return Ok(Decision::NotValid);
        }
        if has_state {
            // Mixed mode: we only implement the sufficient check.  Not a
            // budget matter — the procedure simply has no exact answer here.
            return Ok(Decision::Unknown);
        }
        // Extralogical-only mode: T ⊨ ∨ᵢ Cᵢ  iff  every selection of one edge per
        // implicant yields a T-unsatisfiable conjunction of edge labels.
        if let Some(interrupt) = budget.interrupted() {
            return Err(interrupt);
        }
        let implicants: Vec<Vec<EdgeId>> =
            condition.dnf().implicants().map(|imp| imp.iter().copied().collect()).collect();
        let cap = budget.max_enumeration();
        let total: usize = implicants
            .iter()
            .map(Vec::len)
            .try_fold(1usize, |acc, n| acc.checked_mul(n).filter(|&v| v <= cap))
            .unwrap_or(usize::MAX);
        if total == usize::MAX {
            return Err(Exhaustion::Enumeration);
        }
        // The selections are a mixed-radix enumeration (first implicant
        // varying fastest); shard it across the pool.  The answer — "does any
        // selection have a T-model?" — does not depend on *which* satisfiable
        // selection is found, and the sharded search's lowest-index-wins
        // early exit keeps even the work pattern deterministic.  Each worker
        // re-polls the budget's timing cutoffs every few hundred selections,
        // so a deadline or cancellation cuts a long sweep mid-flight (a
        // timing-dependent cut, like everywhere else those knobs apply).
        enum Hit {
            Sat,
            Cut(Exhaustion),
        }
        let pool = WorkerPool::new(self.parallelism);
        let states = vec![0usize; pool.workers()];
        let (hit, _) = pool.search(total, 0, states, |visited: &mut usize, index| {
            *visited += 1;
            if visited.is_multiple_of(crate::pool::INTERRUPT_POLL_PERIOD) {
                if let Some(cut) = budget.interrupted() {
                    return Some(Hit::Cut(cut));
                }
            }
            let mut rest = index;
            let mut literals = Vec::new();
            for imp in &implicants {
                let pick = rest % imp.len();
                rest /= imp.len();
                literals.extend(graph.edge(imp[pick]).literals.iter().cloned());
            }
            // A satisfiable selection is a T-model of the negation.
            self.theory.satisfiable(&literals).is_sat().then_some(Hit::Sat)
        });
        match hit {
            Some((_, Hit::Sat)) => Ok(Decision::NotValid),
            Some((_, Hit::Cut(cut))) => Err(cut),
            None => Ok(Decision::Valid),
        }
    }
}

/// Computes the condition `delete(init)` of a tableau graph by the double
/// fixpoint iteration of Appendix B §5.3, accelerated per strongly connected
/// component as described in §6.
pub fn condition_of_graph(graph: TableauGraph) -> Condition {
    condition_of_graph_budgeted_stats(graph, &ResourceBudget::unbounded(), Parallelism::Off)
        .0
        .expect("an unbounded budget cannot be exceeded")
}

/// [`condition_of_graph`] under a full [`ResourceBudget`], with the
/// fixpoint rounds sharded across a worker pool: enforces the
/// distinct-implicant cap *and* the budget's deadline/cancellation cutoffs
/// (polled at every round and inside large products through the shared
/// [`DnfBudget`] cell), and names the exhausted resource on `Err`.  The
/// [`ConditionStore`] counters come back on *both* outcomes — a budget trip
/// still did real interning/memoization work, and the session reports
/// surface it.  On `Ok` the same counters are also available via
/// [`Condition::store_stats`].
///
/// # Worklist rounds
///
/// The iteration is organized as *worklist rounds*: each round evaluates the
/// equations of the current component whose inputs changed since their last
/// evaluation — the ready set — against a frozen snapshot of the
/// `delete`/`fail` maps, and the results are committed together before the
/// next round.  Because each evaluated equation depends only on the snapshot
/// — not on other equations of the same round — the ready set batches freely
/// across workers, and each round's outcome is a pure function of the
/// snapshot.  Both fixpoints still converge to the same place as a
/// dependency-ordered (Gauss–Seidel) iteration would: `fail` descends
/// monotonically from `⊤` to its greatest fixpoint and `delete` ascends from
/// `⊥` to its least, and on a finite lattice chaotic iteration reaches the
/// unique extreme fixpoint in either discipline.
///
/// The implicant cap is enforced globally through the shared [`DnfBudget`]
/// cell: the first equation (on any worker) whose product exceeds the
/// budget trips the cell, every other in-flight product aborts at its next
/// step, and the whole computation answers `Err`.  Whether an equation
/// trips is a function of the round snapshot alone, so budgeted `Ok`/`Err`
/// answers — and hence `Unknown`-vs-decided verdicts upstream — are
/// identical at every worker count.
///
/// # The semi-naive interned fixpoint
///
/// Since the condition-store rewrite this function runs on a
/// [`ConditionStore`]: `delete`/`fail` values are `Copy` [`DnfId`]s, the
/// equations' `∨`/`∧` are memoized store operations, and the convergence test
/// per equation is an id comparison — which also makes *change detection*
/// O(1), the hook the PR 7 worklist engine hangs on.  A reverse-dependency
/// graph (`preds[m]` = the nodes whose equations read the values at `m`) is
/// derived once per tableau — it lives in the graph's cached sweep plan,
/// computed at the end of [`TableauGraph::try_build_budgeted`] alongside the
/// SCC order and the per-edge fulfillment tables; each inner fixpoint seeds
/// its worklist with every equation of the component and thereafter
/// re-evaluates only equations some input of which changed last round.
/// Each round runs in two phases:
///
/// 1. **Frozen phase** (batched across the pool via a sparse
///    [`WorkerPool::map_indexed`]): every ready equation is first attempted
///    against a read-only [`FrozenStore`] view, where each operation either
///    resolves by an identity shortcut or a memo hit, or defers.
/// 2. **Sequential phase**: the deferred equations are computed in task
///    order against the mutable store, interning new implicants (each
///    distinct one charged once to the shared budget cell) and growing the
///    memo tables.
///
/// A frozen evaluation succeeds exactly when the mutable evaluation would
/// have mutated nothing and yields the same id, so the store contents — ids,
/// memo tables, and the budget charge — evolve identically at every worker
/// count: answers, including `Err`-under-budget, are bit-identical from
/// `Off` to any `Fixed(n)`.  Skipping is just as conservative: an equation
/// whose inputs did not change would have replayed entirely from the memo
/// tables without mutating the store or charging the budget, so the worklist
/// run's ids, charges, and trip reasons are bit-identical to the full-sweep
/// discipline too (only `memo_hits` counts the replays a full sweep would
/// have performed).  At a single worker the frozen phase is elided — it is
/// accounting-transparent (a settleable equation replays identically from
/// memo; a deferred one records nothing), so the ready set is evaluated
/// directly against the mutable store in task order, same ids and charges,
/// minus the double memo walk.  [`condition_of_graph_full_sweep_stats`]
/// keeps the full-sweep discipline callable as the differential anchor.
pub fn condition_of_graph_budgeted_stats(
    graph: TableauGraph,
    resource_budget: &ResourceBudget,
    parallelism: Parallelism,
) -> (Result<Condition, Exhaustion>, StoreStats) {
    condition_of_graph_engine(graph, resource_budget, parallelism, true)
}

/// The PR 5 full-sweep (Jacobi) discipline of the interned fixpoint, kept
/// callable as the differential anchor for the worklist engine: every round
/// re-evaluates *every* equation of the component until none changes.
///
/// Ids, budget charges, and trip reasons are bit-identical to
/// [`condition_of_graph_budgeted_stats`] — the worklist engine only skips
/// equations that would have replayed from the memo tables — so the
/// differential tests compare conditions, implicant charges, and exhaustion
/// reasons across the two, and the `condition_fixpoint` bench measures the
/// speedup of skipping (recorded in `BENCH_PR7.json`).  Only the
/// `memo_hits`/`rounds`/`equations_*` counters legitimately differ.
pub fn condition_of_graph_full_sweep_stats(
    graph: TableauGraph,
    resource_budget: &ResourceBudget,
    parallelism: Parallelism,
) -> (Result<Condition, Exhaustion>, StoreStats) {
    condition_of_graph_engine(graph, resource_budget, parallelism, false)
}

/// The shared engine behind [`condition_of_graph_budgeted_stats`] (`delta ==
/// true`, semi-naive worklist) and [`condition_of_graph_full_sweep_stats`]
/// (`delta == false`, PR 5 Jacobi sweeps).  Both disciplines share the
/// interned store, the atom leaves, and the §5.3 two-phase outer round; they
/// differ in which equations a round evaluates — dependents of changed
/// values vs. everything again — and in the constant-factor machinery that
/// choice allows (fulfillment tables, hoisted worklist buffers, the
/// single-worker direct-evaluation sweep).
fn condition_of_graph_engine(
    graph: TableauGraph,
    resource_budget: &ResourceBudget,
    parallelism: Parallelism,
    delta: bool,
) -> (Result<Condition, Exhaustion>, StoreStats) {
    let n = graph.node_count();
    let ne = graph.eventualities().len();
    let budget = DnfBudget::from_budget(resource_budget);

    let mut store = ConditionStore::new();
    // The equations' leaves: one □¬prop(e) atom per edge, interned once and
    // shared by every equation that mentions the edge.
    let mut atoms: Vec<DnfId> = Vec::with_capacity(graph.edges().len());
    for eid in 0..graph.edges().len() {
        match store.atom(eid, &budget) {
            Some(id) => atoms.push(id),
            None => {
                let cut = budget.exhaustion().unwrap_or(Exhaustion::Implicants);
                return (Err(cut), store.stats());
            }
        }
    }

    let mut delete: Vec<DnfId> = vec![ConditionStore::BOTTOM; n];
    // fail(ev, node) at slot `ev_index * n + node`.
    let mut fail: Vec<DnfId> = vec![ConditionStore::TOP; n * ne];
    let mut outer_rounds = 0;

    let run = {
        // The worklist engine hoists the per-edge eventuality membership
        // tests and edge targets out of the hot loop into tables computed
        // once per tableau; the full-sweep anchor keeps PR 5's
        // per-evaluation `BTreeSet<Ltl>` lookups so its measured cost stays
        // that of the path it preserves.  The lookups return the same
        // booleans either way, so the DNF op sequence — and with it every
        // interned id and budget charge — is unaffected.
        let tables = if delta { Some(FulfillTables::new(&graph)) } else { None };
        let fixpoint = ConditionFixpoint {
            graph: &graph,
            eventualities: graph.eventualities(),
            atoms,
            tables,
            pool: WorkerPool::new(parallelism),
            n,
        };
        if delta {
            fixpoint.run_worklist(
                graph.sweep_plan(),
                &mut store,
                &budget,
                &mut delete,
                &mut fail,
                &mut outer_rounds,
            )
        } else {
            // The anchor re-derives the component structure per call, as
            // PR 5 did — its measured cost is that of the preserved path.
            let sccs = strongly_connected_components(&graph);
            fixpoint.run_full_sweep(
                &sccs,
                &mut store,
                &budget,
                &mut delete,
                &mut fail,
                &mut outer_rounds,
            )
        }
    };
    if let Err(cut) = run {
        return (Err(cut), store.stats());
    }

    let delete_init = store.extract(delete[graph.initial()]);
    let stats = store.stats();
    (Ok(Condition { graph, delete_init, outer_rounds, store_stats: stats }), stats)
}

/// Evaluates the condition `delete(init)` of a tableau graph as a plain
/// Boolean at the atom assignment `atom_true` (indexed by edge id), by
/// running the Appendix B §5.3 double fixpoint over the two-point lattice
/// instead of over condition DNFs.  The budget's wall-clock deadline and
/// cancellation token are polled once per fixpoint round (the structural
/// caps cannot apply — the Boolean projection allocates nothing to cap);
/// `Err` names the timing cutoff that fired.  The worklist counters of the
/// run — `rounds`, `equations_evaluated`, `equations_skipped` — come back on
/// both outcomes; the interning counters stay zero, nothing is ever
/// interned here.
///
/// Soundness is the canonicity argument of the [`crate::dnf`] module turned
/// around: evaluation at a fixed assignment is a lattice homomorphism from
/// canonical monotone DNFs onto the Booleans, so it commutes with every
/// `∧`/`∨` of the iteration and with its extreme fixpoints — the Boolean
/// returned here is exactly `delete(init)` of
/// [`condition_of_graph_budgeted_stats`] evaluated at `atom_true`, computed
/// in O(graph · rounds) time and O(graph) space however wide the explicit
/// condition would be.  [`AlgorithmB::decide_budgeted`] uses it to decide
/// the state-variable and propositional modes without materializing a single
/// implicant.
///
/// The Boolean projection uses the same semi-naive discipline as the
/// DNF-valued engine (seed everything at phase start, re-evaluate only
/// dependents of changes), but evaluates its ready set in place: over the
/// two-point lattice each value moves monotonically within a phase, so
/// chaotic in-place iteration reaches the same extreme fixpoint as the
/// snapshot rounds and skipping never changes the answer.  The run reads the
/// graph's cached sweep plan (SCC order, reverse-dependency CSR, flat
/// fulfillment tables) instead of re-deriving any of it, so repeated
/// evaluations over one tableau — the shape of an evaluated decision —
/// amortize everything but the fixpoint itself; it directly speeds the
/// `[ => Q ] []P` family decision (~2x the PR 5 sweep per call,
/// `BENCH_PR7.json`).
pub fn evaluate_condition_at_budgeted_stats(
    graph: &TableauGraph,
    atom_true: &[bool],
    budget: &ResourceBudget,
) -> (Result<bool, Exhaustion>, StoreStats) {
    let n = graph.node_count();
    let ne = graph.eventualities().len();
    let plan = graph.sweep_plan();
    let tables = FulfillTables::new(graph);
    let mut stats = StoreStats::default();
    let mut delete = vec![false; n];
    let mut fail = vec![true; n * ne];
    let mut pos: Vec<usize> = vec![usize::MAX; n];
    // fail(component[ci], ei) at task index `ci * ne + ei` (node-major, like
    // the DNF engine); delete(component[ci]) at task index `ci`.  The
    // worklist buffers are sized once for the largest component — per-trip
    // allocations inside the SCC loop dominate the runtime on tableaux with
    // thousands of trivial components.
    let max_cn = plan.sccs.iter().map(Vec::len).max().unwrap_or(0);
    let mut fail_dirty = vec![false; max_cn * ne];
    let mut delete_dirty = vec![false; max_cn];
    let mut ready: Vec<usize> = Vec::with_capacity(max_cn * ne);
    let mut queue: Vec<usize> = Vec::with_capacity(max_cn * ne);
    for component in &plan.sccs {
        let cn = component.len();
        for (i, &node) in component.iter().enumerate() {
            pos[node] = i;
        }
        loop {
            for &node in component {
                for ei in 0..ne {
                    fail[ei * n + node] = true;
                }
            }
            // fail to its greatest fixpoint within the component: the reset
            // touched everything, so every task seeds the worklist.
            queue.clear();
            queue.extend(0..cn * ne);
            fail_dirty[..cn * ne].iter_mut().for_each(|d| *d = true);
            while !queue.is_empty() {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
                std::mem::swap(&mut ready, &mut queue);
                queue.clear();
                ready.sort_unstable();
                stats.rounds += 1;
                stats.equations_evaluated += ready.len() as u64;
                stats.equations_skipped += (cn * ne - ready.len()) as u64;
                for &t in &ready {
                    fail_dirty[t] = false;
                }
                for &t in &ready {
                    let node = component[t / ne];
                    let ei = t % ne;
                    let new = graph.outgoing(node).iter().all(|&eid| {
                        let to = tables.plan.targets[eid] as usize;
                        atom_true[eid]
                            || delete[to]
                            || (tables.plan.unfulfilled[eid * ne + ei] && fail[ei * n + to])
                    });
                    if new != fail[ei * n + node] {
                        fail[ei * n + node] = new;
                        for &p in plan.preds_of(node) {
                            let pp = pos[p as usize];
                            if pp != usize::MAX {
                                let pt = pp * ne + ei;
                                if !fail_dirty[pt] {
                                    fail_dirty[pt] = true;
                                    queue.push(pt);
                                }
                            }
                        }
                    }
                }
            }
            // delete to its least fixpoint within the component; the fail
            // phase moved the inputs of every delete equation, so all seed.
            let mut rerun_outer = false;
            queue.clear();
            queue.extend(0..cn);
            delete_dirty[..cn].iter_mut().for_each(|d| *d = true);
            while !queue.is_empty() {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
                std::mem::swap(&mut ready, &mut queue);
                queue.clear();
                ready.sort_unstable();
                stats.rounds += 1;
                stats.equations_evaluated += ready.len() as u64;
                stats.equations_skipped += (cn - ready.len()) as u64;
                for &t in &ready {
                    delete_dirty[t] = false;
                }
                for &t in &ready {
                    let node = component[t];
                    let new = graph.outgoing(node).iter().all(|&eid| {
                        let to = tables.plan.targets[eid] as usize;
                        atom_true[eid]
                            || delete[to]
                            || tables.mentions(eid).iter().any(|&ei| fail[ei as usize * n + to])
                    });
                    if new != delete[node] {
                        delete[node] = new;
                        for &p in plan.preds_of(node) {
                            let pp = pos[p as usize];
                            if pp != usize::MAX {
                                // Some in-component equation reads this
                                // value, so the fail gfp it was computed
                                // against is stale: rerun the outer round.
                                // A change nothing in the component reads
                                // (every predecessor lies in a later
                                // component of the reverse-topological
                                // order) cannot move the fixpoint here.
                                rerun_outer = true;
                                if !delete_dirty[pp] {
                                    delete_dirty[pp] = true;
                                    queue.push(pp);
                                }
                            }
                        }
                    }
                }
            }
            if !rerun_outer {
                break;
            }
        }
        for &node in component {
            pos[node] = usize::MAX;
        }
    }
    (Ok(delete[graph.initial()]), stats)
}

/// The PR 5 Boolean projection, preserved verbatim as the differential
/// anchor for [`evaluate_condition_at_budgeted_stats`]: full Jacobi sweeps —
/// every component equation re-evaluated every round until an unchanged
/// round — with the per-edge `BTreeSet<Ltl>` fulfillment lookups of the
/// original hot loop.  The worklist engine must compute the identical
/// Boolean at every assignment (pinned by the differential tests); the
/// `condition_fixpoint` bench measures the delta engine's speedup against
/// this path.  Reports `rounds`/`equations_evaluated` like the engines
/// (`equations_skipped` zero by construction; nothing is ever interned).
pub fn evaluate_condition_at_full_sweep_stats(
    graph: &TableauGraph,
    atom_true: &[bool],
    budget: &ResourceBudget,
) -> (Result<bool, Exhaustion>, StoreStats) {
    let n = graph.node_count();
    let eventualities = graph.eventualities();
    let ne = eventualities.len();
    let sccs = strongly_connected_components(graph);
    let mut stats = StoreStats::default();
    let mut delete = vec![false; n];
    let mut fail = vec![true; n * ne];
    for component in &sccs {
        loop {
            for &node in component {
                for ei in 0..ne {
                    fail[ei * n + node] = true;
                }
            }
            // fail to its greatest fixpoint within the component (in-place
            // chaotic iteration reaches the same extreme fixpoint as the
            // Jacobi sweeps of the DNF-valued run).
            loop {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
                stats.rounds += 1;
                stats.equations_evaluated += (component.len() * ne) as u64;
                let mut changed = false;
                for &node in component {
                    for (ei, ev) in eventualities.iter().enumerate() {
                        let new = graph.outgoing(node).iter().all(|&eid| {
                            let edge = graph.edge(eid);
                            atom_true[eid]
                                || delete[edge.to]
                                || (!edge.fulfilled.contains(ev) && fail[ei * n + edge.to])
                        });
                        if new != fail[ei * n + node] {
                            fail[ei * n + node] = new;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            // delete to its least fixpoint within the component.
            let mut delete_changed_any = false;
            loop {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
                stats.rounds += 1;
                stats.equations_evaluated += component.len() as u64;
                let mut changed = false;
                for &node in component {
                    let new = graph.outgoing(node).iter().all(|&eid| {
                        let edge = graph.edge(eid);
                        atom_true[eid]
                            || delete[edge.to]
                            || eventualities.iter().enumerate().any(|(ei, ev)| {
                                edge.eventualities.contains(ev) && fail[ei * n + edge.to]
                            })
                    });
                    if new != delete[node] {
                        delete[node] = new;
                        changed = true;
                        delete_changed_any = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            if !delete_changed_any {
                break;
            }
        }
    }
    (Ok(delete[graph.initial()]), stats)
}

/// Which equation of the §5.3 system a sweep task evaluates.
#[derive(Clone, Copy, Debug)]
enum EqKind {
    /// `fail(A, N)` for the eventuality with this index.
    Fail(usize),
    /// `delete(N)`.
    Delete,
}

/// Per-tableau fulfillment tables: the `A ∈ ev(e)` / `A fulfilled by e`
/// membership tests of the §5.3 equations as flat arrays — borrowed from the
/// graph's cached [`EventualityIndex`] and [`SweepPlan`] — so the hot loop
/// indexes integers instead of running `BTreeSet<Ltl>` lookups (deep
/// structural comparisons) on every edge of every evaluation.  The booleans
/// are definitionally those of the set lookups, so using the tables cannot
/// change an evaluation's DNF op sequence — only its constant factor.
struct FulfillTables<'g> {
    /// The graph's eventuality index (per-edge mention lists).
    index: &'g EventualityIndex,
    /// The graph's fixpoint plan (`targets`, dense `unfulfilled`).
    plan: &'g SweepPlan,
}

impl<'g> FulfillTables<'g> {
    fn new(graph: &'g TableauGraph) -> FulfillTables<'g> {
        FulfillTables { index: graph.eventuality_index(), plan: graph.sweep_plan() }
    }

    /// Eventuality indices mentioned by edge `eid`, ascending.
    fn mentions(&self, eid: usize) -> &[u32] {
        self.index.mentions(eid)
    }
}

/// The per-graph context of the interned condition fixpoint: everything the
/// sweep equations read besides the evolving `delete`/`fail` vectors.
struct ConditionFixpoint<'g> {
    graph: &'g TableauGraph,
    eventualities: &'g [Ltl],
    /// Interned `□¬prop(e)` atom conditions, indexed by edge id.
    atoms: Vec<DnfId>,
    /// `Some` in the worklist engine; `None` in the full-sweep anchor, which
    /// keeps PR 5's per-evaluation set lookups (see
    /// [`condition_of_graph_full_sweep_stats`]).
    tables: Option<FulfillTables<'g>>,
    pool: WorkerPool,
    n: usize,
}

impl ConditionFixpoint<'_> {
    /// The semi-naive worklist discipline driving
    /// [`condition_of_graph_budgeted_stats`]: every phase seeds its full
    /// equation set (a phase boundary touches every equation's inputs), and
    /// afterwards only the dependents of values that actually changed —
    /// looked up in the reverse-dependency CSR — re-enter the ready set,
    /// which each round evaluates in ascending task order so the interning
    /// sequence matches the Jacobi path's.  The outer §5.3 round repeats
    /// only while some `delete` change is read *inside* the component;
    /// a change every reader of which lies in a later component of the
    /// reverse-topological order cannot move this component's fixpoint, so
    /// its verification round (all replays, no interning, no charges) is
    /// skipped.  Worklist buffers are sized once for the largest component;
    /// per-component allocations dominate on tableaux with thousands of
    /// trivial SCCs.
    fn run_worklist(
        &self,
        plan: &SweepPlan,
        store: &mut ConditionStore,
        budget: &DnfBudget,
        delete: &mut [DnfId],
        fail: &mut [DnfId],
        outer_rounds: &mut usize,
    ) -> Result<(), Exhaustion> {
        let sccs = &plan.sccs;
        let n = self.n;
        let ne = self.eventualities.len();
        // Dense position of each node within the component being processed;
        // `usize::MAX` marks nodes outside it (their values are already
        // final, so changes never propagate to them).
        let mut pos: Vec<usize> = vec![usize::MAX; n];
        let max_cn = sccs.iter().map(Vec::len).max().unwrap_or(0);
        let mut fail_tasks: Vec<(NodeId, EqKind)> = Vec::with_capacity(max_cn * ne);
        let mut delete_tasks: Vec<(NodeId, EqKind)> = Vec::with_capacity(max_cn);
        let mut fail_dirty = vec![false; max_cn * ne];
        let mut delete_dirty = vec![false; max_cn];
        let mut ready: Vec<usize> = Vec::with_capacity(max_cn * ne);
        let mut queue: Vec<usize> = Vec::with_capacity(max_cn * ne);
        let mut scratch: Vec<DnfId> = Vec::new();
        for component in sccs {
            let cn = component.len();
            for (i, &node) in component.iter().enumerate() {
                pos[node] = i;
            }
            // The equations of one component: every (node, eventuality) pair
            // for `fail` — task index `pos[node] * ne + ei`, node-major —
            // and every node for `delete` — task index `pos[node]`.
            fail_tasks.clear();
            fail_tasks.extend(
                component.iter().flat_map(|&node| (0..ne).map(move |ei| (node, EqKind::Fail(ei)))),
            );
            delete_tasks.clear();
            delete_tasks.extend(component.iter().map(|&node| (node, EqKind::Delete)));
            loop {
                *outer_rounds += 1;
                // Reset fail to the top element within the component (step
                // 6 / 2); the reset touched everything, so all tasks seed.
                for &node in component {
                    for ei in 0..ne {
                        fail[ei * n + node] = ConditionStore::TOP;
                    }
                }
                queue.clear();
                queue.extend(0..cn * ne);
                fail_dirty[..cn * ne].iter_mut().for_each(|d| *d = true);
                // Iterate fail to its greatest fixpoint within the component.
                while !queue.is_empty() {
                    std::mem::swap(&mut ready, &mut queue);
                    queue.clear();
                    ready.sort_unstable();
                    for &t in &ready {
                        fail_dirty[t] = false;
                    }
                    let updates =
                        self.sweep(store, budget, delete, fail, &fail_tasks, &ready, &mut scratch)?;
                    for (&t, new) in ready.iter().zip(updates) {
                        let (node, kind) = fail_tasks[t];
                        let EqKind::Fail(ei) = kind else { unreachable!("fail task") };
                        if new != fail[ei * n + node] {
                            fail[ei * n + node] = new;
                            for &p in plan.preds_of(node) {
                                let pp = pos[p as usize];
                                if pp != usize::MAX {
                                    let pt = pp * ne + ei;
                                    if !fail_dirty[pt] {
                                        fail_dirty[pt] = true;
                                        queue.push(pt);
                                    }
                                }
                            }
                        }
                    }
                }
                // Iterate delete to its least fixpoint within the component.
                // The fail phase just moved (or at least reset-and-
                // recomputed) the fail values every delete equation reads,
                // so all tasks seed.
                let mut rerun_outer = false;
                queue.clear();
                queue.extend(0..cn);
                delete_dirty[..cn].iter_mut().for_each(|d| *d = true);
                while !queue.is_empty() {
                    std::mem::swap(&mut ready, &mut queue);
                    queue.clear();
                    ready.sort_unstable();
                    for &t in &ready {
                        delete_dirty[t] = false;
                    }
                    let updates = self.sweep(
                        store,
                        budget,
                        delete,
                        fail,
                        &delete_tasks,
                        &ready,
                        &mut scratch,
                    )?;
                    for (&t, new) in ready.iter().zip(updates) {
                        let (node, _) = delete_tasks[t];
                        if new != delete[node] {
                            delete[node] = new;
                            for &p in plan.preds_of(node) {
                                let pp = pos[p as usize];
                                if pp != usize::MAX {
                                    // Some in-component equation reads this
                                    // value, so the fail gfp it was computed
                                    // against is stale: rerun the outer
                                    // round.
                                    rerun_outer = true;
                                    if !delete_dirty[pp] {
                                        delete_dirty[pp] = true;
                                        queue.push(pp);
                                    }
                                }
                            }
                        }
                    }
                }
                if !rerun_outer {
                    break;
                }
            }
            for &node in component {
                pos[node] = usize::MAX;
            }
        }
        Ok(())
    }

    /// The PR 5 discipline driving [`condition_of_graph_full_sweep_stats`]:
    /// Jacobi rounds that re-evaluate every component equation until an
    /// unchanged round, with no worklist bookkeeping — the preserved path
    /// the worklist engine is differentially pinned against and benchmarked
    /// over.
    fn run_full_sweep(
        &self,
        sccs: &[Vec<NodeId>],
        store: &mut ConditionStore,
        budget: &DnfBudget,
        delete: &mut [DnfId],
        fail: &mut [DnfId],
        outer_rounds: &mut usize,
    ) -> Result<(), Exhaustion> {
        let n = self.n;
        let ne = self.eventualities.len();
        for component in sccs {
            let fail_tasks: Vec<(NodeId, EqKind)> = component
                .iter()
                .flat_map(|&node| (0..ne).map(move |ei| (node, EqKind::Fail(ei))))
                .collect();
            let delete_tasks: Vec<(NodeId, EqKind)> =
                component.iter().map(|&node| (node, EqKind::Delete)).collect();
            loop {
                *outer_rounds += 1;
                // Reset fail to the top element within the component.
                for &node in component {
                    for ei in 0..ne {
                        fail[ei * n + node] = ConditionStore::TOP;
                    }
                }
                // Iterate fail to its greatest fixpoint within the component.
                loop {
                    let updates = self.sweep_all(store, budget, delete, fail, &fail_tasks)?;
                    let mut changed = false;
                    for (&(node, kind), new) in fail_tasks.iter().zip(updates) {
                        let EqKind::Fail(ei) = kind else { unreachable!("fail task") };
                        if new != fail[ei * n + node] {
                            fail[ei * n + node] = new;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                // Iterate delete to its least fixpoint within the component.
                let mut delete_changed_any = false;
                loop {
                    let updates = self.sweep_all(store, budget, delete, fail, &delete_tasks)?;
                    let mut changed = false;
                    for (&(node, _), new) in delete_tasks.iter().zip(updates) {
                        if new != delete[node] {
                            delete[node] = new;
                            changed = true;
                            delete_changed_any = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                if !delete_changed_any {
                    break;
                }
            }
        }
        Ok(())
    }

    /// One two-phase round over the `ready` subset of `tasks` (see
    /// [`condition_of_graph_budgeted_stats`]): frozen phase batched across the
    /// pool via the sparse [`WorkerPool::map_indexed`], deferred equations
    /// computed sequentially in task order; results aligned with `ready`, or
    /// the exhaustion that tripped the shared budget.  Records the round's
    /// evaluated/skipped tallies on the store before evaluating (so a
    /// tripped round is still counted in the trip report).
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        store: &mut ConditionStore,
        budget: &DnfBudget,
        delete: &[DnfId],
        fail: &[DnfId],
        tasks: &[(NodeId, EqKind)],
        ready: &[usize],
        scratch: &mut Vec<DnfId>,
    ) -> Result<Vec<DnfId>, Exhaustion> {
        if budget.poll_interrupts() {
            return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants));
        }
        store.record_sweep(ready.len() as u64, (tasks.len() - ready.len()) as u64);
        // A single worker gains nothing from the frozen pre-pass, and the
        // pass is accounting-transparent: a frozen-settleable equation is
        // fully memoized, so its mutable evaluation performs the identical
        // lookups (same memo hits, no interning, no charges), while a
        // deferred equation's frozen attempt records nothing and is re-done
        // mutably anyway.  Evaluating the ready set directly in task order
        // therefore produces bit-identical ids, charges, trips, and counters
        // — pinned across worker counts by the differential tests — while
        // skipping the double memo walk the anchor always pays.
        if self.pool.workers() == 1 {
            let mut results = Vec::with_capacity(ready.len());
            for &t in ready {
                let mut ops = Mutable { store, budget };
                match self.eval_scratch(&mut ops, delete, fail, tasks[t], scratch) {
                    Some(id) => results.push(id),
                    None => return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants)),
                }
            }
            return Ok(results);
        }
        // Frozen phase: settle whatever is already fully memoized.
        let frozen = store.frozen();
        let settled: Vec<(Option<DnfId>, u64)> = self.pool.map_indexed(ready, |t| {
            let mut ops = Frozen { view: frozen, hits: 0 };
            let result = self.eval(&mut ops, delete, fail, tasks[t]);
            (result, ops.hits)
        });
        // A frozen view cannot bump the store's counters, so credit the memo
        // hits of the *settled* equations here (a deferred equation's lookups
        // are re-done — and re-counted — by its mutable run below).  The
        // settled set and each equation's hit count are pure functions of the
        // frozen store, so the tally is worker-count independent.
        let frozen_hits: u64 =
            settled.iter().filter(|(slot, _)| slot.is_some()).map(|&(_, hits)| hits).sum();
        store.record_frozen_hits(frozen_hits);
        // Sequential phase: compute the rest in task order.
        let mut results = Vec::with_capacity(ready.len());
        for (i, (slot, _)) in settled.into_iter().enumerate() {
            match slot {
                Some(id) => results.push(id),
                None => {
                    let mut ops = Mutable { store, budget };
                    match self.eval_scratch(&mut ops, delete, fail, tasks[ready[i]], scratch) {
                        Some(id) => results.push(id),
                        None => return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants)),
                    }
                }
            }
        }
        Ok(results)
    }

    /// [`ConditionFixpoint::sweep`] over *every* task — the PR 5 Jacobi
    /// round, kept verbatim for the full-sweep anchor: frozen phase batched
    /// across the pool at any worker count (including one, as PR 5 always
    /// did), deferred equations sequential in task order.
    fn sweep_all(
        &self,
        store: &mut ConditionStore,
        budget: &DnfBudget,
        delete: &[DnfId],
        fail: &[DnfId],
        tasks: &[(NodeId, EqKind)],
    ) -> Result<Vec<DnfId>, Exhaustion> {
        if budget.poll_interrupts() {
            return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants));
        }
        store.record_sweep(tasks.len() as u64, 0);
        let frozen = store.frozen();
        let settled: Vec<(Option<DnfId>, u64)> = self.pool.map(tasks.len(), |t| {
            let mut ops = Frozen { view: frozen, hits: 0 };
            let result = self.eval(&mut ops, delete, fail, tasks[t]);
            (result, ops.hits)
        });
        let frozen_hits: u64 =
            settled.iter().filter(|(slot, _)| slot.is_some()).map(|&(_, hits)| hits).sum();
        store.record_frozen_hits(frozen_hits);
        let mut results = Vec::with_capacity(tasks.len());
        for (i, (slot, _)) in settled.into_iter().enumerate() {
            match slot {
                Some(id) => results.push(id),
                None => {
                    let mut ops = Mutable { store, budget };
                    match self.eval(&mut ops, delete, fail, tasks[i]) {
                        Some(id) => results.push(id),
                        None => return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants)),
                    }
                }
            }
        }
        Ok(results)
    }

    /// One equation of the §5.3 system, evaluated through `ops`:
    ///
    /// * delete(N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ ∨_{A ∈ ev(e)} fail(A, fin(e)) )
    /// * fail(A, N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ \[A not satisfied by e ∧ fail(A, fin(e))\] )
    ///
    /// `None` means whatever the ops implementation's failure mode is: "not
    /// memoized, defer to the sequential phase" for [`Frozen`], "budget
    /// tripped" for [`Mutable`].
    fn eval<O: DnfOps>(
        &self,
        ops: &mut O,
        delete: &[DnfId],
        fail: &[DnfId],
        task: (NodeId, EqKind),
    ) -> Option<DnfId> {
        let mut terms = Vec::with_capacity(self.graph.outgoing(task.0).len());
        self.eval_scratch(ops, delete, fail, task, &mut terms)
    }

    /// [`ConditionFixpoint::eval`] writing its per-edge terms into a caller
    /// scratch buffer, so sequential sweeps reuse one allocation across the
    /// whole run.  The result is a pure function of the inputs either way.
    fn eval_scratch<O: DnfOps>(
        &self,
        ops: &mut O,
        delete: &[DnfId],
        fail: &[DnfId],
        (node, kind): (NodeId, EqKind),
        terms: &mut Vec<DnfId>,
    ) -> Option<DnfId> {
        let outgoing = self.graph.outgoing(node);
        terms.clear();
        match &self.tables {
            // Worklist engine: flat-table lookups, no `Edge` struct access.
            Some(tables) => {
                let ne = self.eventualities.len();
                for &eid in outgoing {
                    let to = tables.plan.targets[eid] as usize;
                    let mut term = ops.or(self.atoms[eid], delete[to])?;
                    match kind {
                        EqKind::Delete => {
                            for &ei in tables.mentions(eid) {
                                term = ops.or(term, fail[ei as usize * self.n + to])?;
                            }
                        }
                        EqKind::Fail(ei) => {
                            if tables.plan.unfulfilled[eid * ne + ei] {
                                term = ops.or(term, fail[ei * self.n + to])?;
                            }
                        }
                    }
                    terms.push(term);
                }
            }
            // Full-sweep anchor: PR 5's per-evaluation set lookups.
            None => {
                for &eid in outgoing {
                    let edge = self.graph.edge(eid);
                    let mut term = ops.or(self.atoms[eid], delete[edge.to])?;
                    match kind {
                        EqKind::Delete => {
                            for (ei, ev) in self.eventualities.iter().enumerate() {
                                if edge.eventualities.contains(ev) {
                                    term = ops.or(term, fail[ei * self.n + edge.to])?;
                                }
                            }
                        }
                        EqKind::Fail(ei) => {
                            if !edge.fulfilled.contains(&self.eventualities[ei]) {
                                term = ops.or(term, fail[ei * self.n + edge.to])?;
                            }
                        }
                    }
                    terms.push(term);
                }
            }
        }
        ops.all(terms)
    }
}

/// The store operations an equation evaluation needs, abstracted over the
/// frozen (read-only, deferring) and mutable (interning, budgeted) phases so
/// the equation itself is written exactly once.
trait DnfOps {
    /// Disjunction; `None` in the implementation's failure mode.
    fn or(&mut self, a: DnfId, b: DnfId) -> Option<DnfId>;
    /// Conjunction of all `terms`; `None` in the implementation's failure mode.
    fn all(&mut self, terms: &[DnfId]) -> Option<DnfId>;
}

/// Frozen-phase ops: identity shortcuts and memo hits only; `None` defers the
/// equation to the sequential phase.  Memo hits are tallied locally (the
/// view is read-only) and committed by the sweep for settled equations.
struct Frozen<'s> {
    view: FrozenStore<'s>,
    hits: u64,
}

impl DnfOps for Frozen<'_> {
    fn or(&mut self, a: DnfId, b: DnfId) -> Option<DnfId> {
        self.view.or_counting(a, b, &mut self.hits)
    }

    fn all(&mut self, terms: &[DnfId]) -> Option<DnfId> {
        self.view.all_counting(terms, &mut self.hits)
    }
}

/// Sequential-phase ops: full store operations; `None` means the shared
/// budget tripped.
struct Mutable<'s, 'b> {
    store: &'s mut ConditionStore,
    budget: &'b DnfBudget,
}

impl DnfOps for Mutable<'_, '_> {
    fn or(&mut self, a: DnfId, b: DnfId) -> Option<DnfId> {
        if self.budget.tripped() {
            return None;
        }
        Some(self.store.or(a, b))
    }

    fn all(&mut self, terms: &[DnfId]) -> Option<DnfId> {
        self.store.all(terms, self.budget)
    }
}

/// The PR 3 `BTreeSet` condition fixpoint, kept as the differential
/// baseline: same Jacobi sweeps and SCC acceleration, but explicit [`Dnf`]
/// values (re-cloned and re-absorbed at every product) and the
/// pre-absorption estimate cut of [`Dnf::all_bounded_estimated`] instead of
/// the interned store's distinct-implicant accounting.  It stays naive —
/// every sweep re-evaluates every equation — but reports its `rounds` and
/// `equations_evaluated` through [`Condition::store_stats`] (interning
/// counters zero, `equations_skipped` zero by construction) so the
/// differential tests can compare convergence against the worklist engine.
///
/// Tests pin that it computes the same condition as
/// [`condition_of_graph_budgeted_stats`] wherever neither path trips its budget,
/// and the `condition_fixpoint` bench measures the speedup of the interned
/// paths against it.
pub fn condition_of_graph_baseline(
    graph: TableauGraph,
    resource_budget: &ResourceBudget,
    parallelism: Parallelism,
) -> Result<Condition, Exhaustion> {
    let pool = WorkerPool::new(parallelism);
    let budget = DnfBudget::from_budget(resource_budget);
    let n = graph.node_count();
    let eventualities = graph.eventualities();
    let sccs = strongly_connected_components(&graph);

    let mut delete: Vec<Dnf> = vec![Dnf::bottom(); n];
    let mut fail: BTreeMap<(usize, NodeId), Dnf> = BTreeMap::new();
    for (ei, _) in eventualities.iter().enumerate() {
        for node in 0..n {
            fail.insert((ei, node), Dnf::top());
        }
    }
    let mut outer_rounds = 0;
    let mut stats = StoreStats::default();

    for component in &sccs {
        let fail_tasks: Vec<(NodeId, usize)> = component
            .iter()
            .flat_map(|&node| (0..eventualities.len()).map(move |ei| (node, ei)))
            .collect();
        loop {
            outer_rounds += 1;
            for &node in component {
                for (ei, _) in eventualities.iter().enumerate() {
                    fail.insert((ei, node), Dnf::top());
                }
            }
            loop {
                stats.rounds += 1;
                stats.equations_evaluated += fail_tasks.len() as u64;
                let Some(updates) = sweep_equations(fail_tasks.len(), &pool, |i| {
                    let (node, ei) = fail_tasks[i];
                    fail_equation(&graph, node, ei, &eventualities[ei], &delete, &fail, &budget)
                }) else {
                    return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants));
                };
                let mut changed = false;
                for (&(node, ei), new) in fail_tasks.iter().zip(updates) {
                    if new != fail[&(ei, node)] {
                        fail.insert((ei, node), new);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut delete_changed_any = false;
            loop {
                stats.rounds += 1;
                stats.equations_evaluated += component.len() as u64;
                let Some(updates) = sweep_equations(component.len(), &pool, |i| {
                    delete_equation(&graph, component[i], eventualities, &delete, &fail, &budget)
                }) else {
                    return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants));
                };
                let mut changed = false;
                for (&node, new) in component.iter().zip(updates) {
                    if new != delete[node] {
                        delete[node] = new;
                        changed = true;
                        delete_changed_any = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            if !delete_changed_any {
                break;
            }
        }
    }

    let delete_init = delete[graph.initial()].clone();
    Ok(Condition { graph, delete_init, outer_rounds, store_stats: stats })
}

/// One baseline Jacobi sweep: evaluates `eval(0..count)` — each equation
/// reading only the caller's frozen snapshot — batched across the pool via
/// [`WorkerPool::map`], and returns the results in task order, or `None`
/// when any equation blew the budget.
fn sweep_equations<T, F>(count: usize, pool: &WorkerPool, eval: F) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    pool.map(count, eval).into_iter().collect()
}

/// delete(N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ ∨_{A ∈ ev(e)} fail(A, fin(e)) )
fn delete_equation(
    graph: &TableauGraph,
    node: NodeId,
    eventualities: &[Ltl],
    delete: &[Dnf],
    fail: &BTreeMap<(usize, NodeId), Dnf>,
    budget: &DnfBudget,
) -> Option<Dnf> {
    let terms = graph
        .outgoing(node)
        .iter()
        .map(|&eid| {
            let edge = graph.edge(eid);
            let mut term = Dnf::atom(eid).or(&delete[edge.to]);
            for (ei, ev) in eventualities.iter().enumerate() {
                if edge.eventualities.contains(ev) {
                    term = term.or(&fail[&(ei, edge.to)]);
                }
            }
            term
        })
        .collect();
    Dnf::all_bounded_estimated(terms, budget)
}

/// fail(A, N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ [A not satisfied by e ∧ fail(A, fin(e))] )
fn fail_equation(
    graph: &TableauGraph,
    node: NodeId,
    ev_index: usize,
    ev: &Ltl,
    delete: &[Dnf],
    fail: &BTreeMap<(usize, NodeId), Dnf>,
    budget: &DnfBudget,
) -> Option<Dnf> {
    let terms = graph
        .outgoing(node)
        .iter()
        .map(|&eid| {
            let edge = graph.edge(eid);
            let mut term = Dnf::atom(eid).or(&delete[edge.to]);
            if !edge.fulfilled.contains(ev) {
                term = term.or(&fail[&(ev_index, edge.to)]);
            }
            term
        })
        .collect();
    Dnf::all_bounded_estimated(terms, budget)
}

/// Tarjan's strongly connected components, returned in reverse topological
/// order of the condensation (components with no edges into later components
/// come first), which is the order the fixpoint iteration wants.
pub(crate) fn strongly_connected_components(graph: &TableauGraph) -> Vec<Vec<NodeId>> {
    struct Tarjan<'g> {
        graph: &'g TableauGraph,
        index: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<NodeId>,
        next_index: usize,
        components: Vec<Vec<NodeId>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: NodeId) {
            self.index[v] = Some(self.next_index);
            self.lowlink[v] = self.next_index;
            self.next_index += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for &eid in self.graph.outgoing(v) {
                let w = self.graph.edge(eid).to;
                if self.index[w].is_none() {
                    self.visit(w);
                    self.lowlink[v] = self.lowlink[v].min(self.lowlink[w]);
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w].unwrap());
                }
            }
            if self.lowlink[v] == self.index[v].unwrap() {
                let mut component = Vec::new();
                loop {
                    let w = self.stack.pop().expect("stack cannot be empty here");
                    self.on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                self.components.push(component);
            }
        }
    }
    let n = graph.node_count();
    let mut tarjan = Tarjan {
        graph,
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        components: Vec::new(),
    };
    for v in 0..n {
        if tarjan.index[v].is_none() {
            tarjan.visit(v);
        }
    }
    // Tarjan emits components in reverse topological order already.
    tarjan.components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{CmpOp, Term};
    use crate::tableau::valid_pure;
    use crate::theory::{LinearTheory, PropositionalTheory};

    fn p() -> Ltl {
        Ltl::prop("P")
    }
    fn q() -> Ltl {
        Ltl::prop("Q")
    }

    #[test]
    fn pure_temporal_agreement_with_iter() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let formulas = vec![
            p().or(p().not()),
            p().always().implies(p()),
            p().always().implies(p().eventually()),
            p().eventually().always().implies(p().always().eventually()),
            p().always().eventually().implies(p().eventually().always()),
            p().until(q()).iff(q().or(p().and(p().until(q()).next()))),
            p().eventually(),
            p().until(q()),
        ];
        for f in formulas {
            let expected = if valid_pure(&f) { Decision::Valid } else { Decision::NotValid };
            assert_eq!(alg.decide(&f), expected, "disagreement on {f}");
        }
    }

    #[test]
    fn condition_of_valid_formula_is_top() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let cond = alg.condition(&p().or(p().not()));
        assert!(cond.valid_in_pure_tl());
        assert!(cond.outer_rounds() >= 1);
    }

    #[test]
    fn state_variable_example_from_section_5_1() {
        // □(x > 0) ∨ □(x < 1): not valid when x is a state variable.
        let gt = Ltl::cmp(Term::var("x"), CmpOp::Gt, Term::int(0));
        let lt = Ltl::cmp(Term::var("x"), CmpOp::Lt, Term::int(1));
        let formula = gt.always().or(lt.always());
        let linear = LinearTheory::new();
        let alg = AlgorithmB::new(&linear, VarSpec::all_state());
        assert_eq!(alg.decide(&formula), Decision::NotValid);
    }

    #[test]
    fn extralogical_variable_example_from_section_5_1() {
        // □(x > 0) ∨ □(x < 1): valid when x is extralogical (time-independent).
        let gt = Ltl::cmp(Term::var("x"), CmpOp::Gt, Term::int(0));
        let lt = Ltl::cmp(Term::var("x"), CmpOp::Lt, Term::int(1));
        let formula = gt.always().or(lt.always());
        let linear = LinearTheory::new();
        let alg = AlgorithmB::new(&linear, VarSpec::with_extralogical(["x"]));
        assert_eq!(alg.decide(&formula), Decision::Valid);
    }

    #[test]
    fn state_theory_example_is_valid_with_algorithm_b_too() {
        let a_ge_1 = Ltl::cmp(Term::var("a"), CmpOp::Ge, Term::int(1));
        let a_gt_0 = Ltl::cmp(Term::var("a"), CmpOp::Gt, Term::int(0));
        let formula = a_ge_1.always().implies(a_gt_0.eventually());
        let linear = LinearTheory::new();
        let alg = AlgorithmB::new(&linear, VarSpec::all_state());
        assert_eq!(alg.decide(&formula), Decision::Valid);
    }

    #[test]
    fn bounded_decision_agrees_with_unbounded_on_small_formulas() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let formulas = vec![
            p().or(p().not()),
            p().always().implies(p().eventually()),
            p().eventually(),
            p().until(q()),
        ];
        let budget = ResourceBudget::default().with_max_enumeration(alg.selection_limit);
        for f in formulas {
            assert_eq!(
                alg.decide_budgeted(&f, &budget).unwrap_or(Decision::Unknown),
                alg.decide(&f),
                "budgeted and unbudgeted decisions differ on {f}"
            );
        }
    }

    #[test]
    fn tiny_budgets_yield_unknown_not_a_wrong_answer() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let tight = ResourceBudget::unbounded().with_max_implicants(1);
        // ◇P ∨ ◇Q is NOT valid: under a 1-implicant budget the answer may
        // degrade to Unknown (an Err) but must never become Valid.
        let not_valid = p().eventually().or(q().eventually());
        assert!(!matches!(alg.decide_budgeted(&not_valid, &tight), Ok(Decision::Valid)));
        // □P ⊃ ◇P IS valid: under the same budget the answer may degrade to
        // Unknown but must never become NotValid.
        let valid = p().always().implies(p().eventually());
        assert!(!matches!(alg.decide_budgeted(&valid, &tight), Ok(Decision::NotValid)));
        // And a near-zero build budget trips the construction phase.
        let no_graph = ResourceBudget::unbounded().with_max_nodes(1).with_max_edges(1);
        assert!(alg.decide_budgeted(&not_valid, &no_graph).is_err());
    }

    #[test]
    fn budgeted_decisions_name_the_exhausted_resource() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let not_valid = p().eventually().or(q().eventually());
        // A 1-node/1-edge build budget trips during construction.
        let no_graph = ResourceBudget::unbounded().with_max_nodes(1).with_max_edges(1);
        assert!(matches!(
            alg.decide_budgeted(&not_valid, &no_graph),
            Err(Exhaustion::Nodes | Exhaustion::Edges)
        ));
        // A cancelled token is reported as such from any phase.
        let token = crate::pool::CancelToken::new();
        token.cancel();
        let cancelled = ResourceBudget::unbounded().with_cancel(token);
        assert_eq!(alg.decide_budgeted(&not_valid, &cancelled), Err(Exhaustion::Cancelled));
    }

    #[test]
    fn disjuncts_expose_edge_labels() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let cond = alg.condition(&p().eventually());
        // ◇P is not valid; the condition should be non-trivial and expose labels.
        assert!(!cond.valid_in_pure_tl());
        let _ = cond.disjuncts();
        assert!(cond.graph().node_count() >= 1);
    }
}
