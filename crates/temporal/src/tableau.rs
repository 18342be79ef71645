//! The tableau-like satisfiability graph of Appendix B §3.
//!
//! Given a temporal formula `B`, [`TableauGraph::build`] constructs a graph
//! `Graph(B)` representing the set of models of `B`.  Nodes represent states
//! and are labelled with the formulae that must hold of the remaining
//! computation; edges are labelled with a conjunction of literals (the
//! propositional commitment made in the source state), a set of
//! *eventualities* (formulae that must eventually be satisfied on any
//! continuation) and a set of *satisfied eventualities* (eventualities
//! discharged by this very transition).
//!
//! [`prune`] implements the `Iter` deletion loop: edges whose literal label is
//! inconsistent (propositionally, or in a specialized theory for Algorithm A)
//! are removed, edges carrying an eventuality that can no longer be satisfied
//! by any path are removed, and nodes with no outgoing edges are removed, until
//! a fixpoint is reached.  `B` is satisfiable iff the initial node survives.
//!
//! # Parallelism
//!
//! Both phases fan out over the [`crate::pool`] worker pool —
//! [`TableauGraph::try_build_budgeted`] expands each breadth-first frontier's
//! node labels concurrently (expansion is a pure function of the label set)
//! and merges the results in sequential frontier order on the calling
//! thread, and [`prune_budgeted`] stripes the per-edge theory checks and the
//! per-eventuality reachability analyses.  The merge discipline makes the
//! graph *bit-identical* at every worker count: same node ids, same edge
//! ids, same exhaustion answers under the structural caps of a
//! [`crate::pool::ResourceBudget`].  Construction cost is dominated by the
//! expansion of disjunction-heavy labels, which is exactly the part that
//! parallelizes.
//!
//! Construction is the dominant cost of a decision.  perfbench's
//! `--trace 1` run at seed 1 (2 hardware threads) puts `tableau.busy_ms` at
//! 2,759 ms of the 4,379 ms of `decide_corpus` check time (63%).  On the
//! `[ => Q ] []P` family the 97-node / 3362-edge graph took 76–103 ms per
//! build in a probe, against 0.4–1.2 ms for the evaluated fixpoint of
//! [`crate::algorithm_b`] that decides it; only the *explicit* condition
//! artifact downstream blows up beyond that.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::pool::{Exhaustion, Parallelism, ResourceBudget, WorkerPool};
use crate::syntax::{Atom, Literal, Ltl};
use crate::theory::{Theory, TheoryResult};

/// Identifier of a node in a [`TableauGraph`].
pub type NodeId = usize;
/// Identifier of an edge in a [`TableauGraph`].
pub type EdgeId = usize;

/// An edge of the tableau graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// The conjunction of literals labelling the edge (its "propositional part").
    pub literals: Vec<Literal>,
    /// Eventualities promised by this edge: formulae that must hold at some
    /// later instant on every model continuing through this edge.
    pub eventualities: BTreeSet<Ltl>,
    /// Eventualities discharged by this edge: the labelled formula holds in the
    /// source state of this transition.
    pub fulfilled: BTreeSet<Ltl>,
}

/// The tableau graph of a formula.
#[derive(Clone, Debug)]
pub struct TableauGraph {
    labels: Vec<BTreeSet<Ltl>>,
    edges: Vec<Edge>,
    outgoing: Vec<Vec<EdgeId>>,
    initial: NodeId,
    ev_index: EventualityIndex,
    plan: SweepPlan,
}

/// Per-graph eventuality index, derived once at the end of construction:
/// the distinct eventualities of the graph in ascending order, plus
/// CSR-packed per-edge lists of the indices each edge mentions
/// (`eventualities`) and fulfills (`fulfilled`).  Algorithm B's fixpoint
/// engines and the Boolean projection consult it instead of re-deriving the
/// union and re-probing the per-edge `BTreeSet`s — deep structural `Ltl`
/// comparisons that used to dominate whole evaluator calls — on every run
/// over the same graph.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventualityIndex {
    /// The distinct eventualities, ascending in `Ltl`'s order.
    pub(crate) all: Vec<Ltl>,
    /// Concatenated ascending per-edge lists of mentioned indices.
    mentions: Vec<u32>,
    /// `mentions` range of edge `eid`: `starts[eid]..starts[eid + 1]`.
    mentions_starts: Vec<u32>,
    /// Concatenated ascending per-edge lists of fulfilled indices.
    fulfilled: Vec<u32>,
    /// `fulfilled` range of edge `eid`.
    fulfilled_starts: Vec<u32>,
}

impl EventualityIndex {
    fn build(edges: &[Edge]) -> EventualityIndex {
        let mut set: BTreeSet<&Ltl> = BTreeSet::new();
        for edge in edges {
            set.extend(edge.eventualities.iter());
        }
        let all: Vec<Ltl> = set.into_iter().cloned().collect();
        let mut mentions = Vec::new();
        let mut mentions_starts = Vec::with_capacity(edges.len() + 1);
        let mut fulfilled = Vec::new();
        let mut fulfilled_starts = Vec::with_capacity(edges.len() + 1);
        mentions_starts.push(0);
        fulfilled_starts.push(0);
        for edge in edges {
            // Both `BTreeSet`s iterate ascending in the same order as `all`,
            // so the CSR rows come out ascending.
            for ev in &edge.eventualities {
                if let Ok(ei) = all.binary_search(ev) {
                    mentions.push(ei as u32);
                }
            }
            mentions_starts.push(mentions.len() as u32);
            for ev in &edge.fulfilled {
                if let Ok(ei) = all.binary_search(ev) {
                    fulfilled.push(ei as u32);
                }
            }
            fulfilled_starts.push(fulfilled.len() as u32);
        }
        EventualityIndex { all, mentions, mentions_starts, fulfilled, fulfilled_starts }
    }

    /// Ascending indices (into [`EventualityIndex::all`]) of the
    /// eventualities edge `eid` mentions.
    pub(crate) fn mentions(&self, eid: EdgeId) -> &[u32] {
        &self.mentions[self.mentions_starts[eid] as usize..self.mentions_starts[eid + 1] as usize]
    }

    /// Ascending indices of the eventualities edge `eid` fulfills.
    pub(crate) fn fulfilled(&self, eid: EdgeId) -> &[u32] {
        &self.fulfilled
            [self.fulfilled_starts[eid] as usize..self.fulfilled_starts[eid + 1] as usize]
    }
}

/// Per-graph fixpoint plan, derived once at the end of construction for the
/// semi-naive worklist engines of [`crate::algorithm_b`]: the strongly
/// connected components in reverse-topological order, the reverse-dependency
/// CSR that turns a changed `delete`/`fail` value into the tasks to mark
/// dirty, each edge's target node as a flat array, and the dense
/// edge × eventuality "not fulfilled" table the `fail` equations branch on.
/// Every entry is a pure function of the finished graph, so computing it
/// here amortizes it across every fixpoint run — most visibly across the
/// thousands of Boolean-projected evaluations one evaluated decision makes
/// over the same tableau.  The full-sweep and baseline disciplines
/// deliberately do *not* read it: they preserve their original per-call
/// derivations as the comparison anchors.
#[derive(Clone, Debug, Default)]
pub(crate) struct SweepPlan {
    /// Strongly connected components, reverse-topological (every edge leaves
    /// a component listed no earlier than its target's).
    pub(crate) sccs: Vec<Vec<NodeId>>,
    /// `rev_preds` range of node `m`: `rev_starts[m]..rev_starts[m + 1]`.
    rev_starts: Vec<u32>,
    /// Concatenated ascending predecessor lists: the nodes whose equations
    /// read the values at `m`.
    rev_preds: Vec<u32>,
    /// Target node of each edge.
    pub(crate) targets: Vec<u32>,
    /// `unfulfilled[eid * ne + ei]`: edge `eid` does not fulfill eventuality
    /// `ei` (an index into [`EventualityIndex::all`]).
    pub(crate) unfulfilled: Vec<bool>,
}

impl SweepPlan {
    fn build(graph: &TableauGraph) -> SweepPlan {
        let n = graph.node_count();
        let sccs = crate::algorithm_b::strongly_connected_components(graph);
        let mut rev_starts = vec![0u32; n + 1];
        for node in 0..n {
            for &eid in graph.outgoing(node) {
                rev_starts[graph.edges[eid].to + 1] += 1;
            }
        }
        for m in 0..n {
            rev_starts[m + 1] += rev_starts[m];
        }
        let mut rev_preds = vec![0u32; rev_starts[n] as usize];
        let mut cursor = rev_starts.clone();
        // The outer loop ascends in `node`, so every row comes out ascending.
        for node in 0..n {
            for &eid in graph.outgoing(node) {
                let to = graph.edges[eid].to;
                rev_preds[cursor[to] as usize] = node as u32;
                cursor[to] += 1;
            }
        }
        let ne = graph.ev_index.all.len();
        let targets = graph.edges.iter().map(|edge| edge.to as u32).collect();
        let mut unfulfilled = vec![true; graph.edges.len() * ne];
        for eid in 0..graph.edges.len() {
            for &ei in graph.ev_index.fulfilled(eid) {
                unfulfilled[eid * ne + ei as usize] = false;
            }
        }
        SweepPlan { sccs, rev_starts, rev_preds, targets, unfulfilled }
    }

    /// Nodes whose equations read the values at `m`, ascending.
    pub(crate) fn preds_of(&self, m: NodeId) -> &[u32] {
        &self.rev_preds[self.rev_starts[m] as usize..self.rev_starts[m + 1] as usize]
    }
}

/// One saturated expansion of a node label set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Expansion {
    literals: BTreeMap<Atom, bool>,
    next: BTreeSet<Ltl>,
    eventualities: BTreeSet<Ltl>,
    fulfilled: BTreeSet<Ltl>,
}

impl TableauGraph {
    /// Constructs the graph `Graph(formula)` representing the models of `formula`.
    pub fn build(formula: &Ltl) -> TableauGraph {
        TableauGraph::try_build_budgeted(formula, &ResourceBudget::unbounded(), Parallelism::Off)
            .expect("unbounded tableau construction cannot exceed its limits")
    }

    /// Constructs `Graph(formula)` under a [`ResourceBudget`], with the
    /// frontier expanded across a worker pool; the `Err` names the first
    /// resource that ran out ([`Exhaustion::Nodes`] / [`Exhaustion::Edges`]
    /// for the structural caps, [`Exhaustion::Deadline`] /
    /// [`Exhaustion::Cancelled`] for the cooperative cutoffs, polled once per
    /// BFS level).
    ///
    /// Construction is a breadth-first saturation: each BFS level's node
    /// labels are expanded (a pure function of the label set) concurrently,
    /// and the per-node expansion lists are then merged on the calling thread
    /// *in sequential frontier order* — interning target labels, assigning
    /// node and edge identifiers, and applying the structural cap checks in
    /// exactly the order the single-threaded loop would.  The resulting graph
    /// is therefore bit-identical (same node ids, same edge ids, same edge
    /// order) at every worker count, and structural-cap `Err` answers agree
    /// too: expansion caps are taken from the level-start edge budget, which
    /// can only postpone a blowup into the merge's own limit checks, never
    /// change the answer.  Only the deadline/cancellation cutoffs are
    /// timing-dependent.
    pub fn try_build_budgeted(
        formula: &Ltl,
        budget: &ResourceBudget,
        parallelism: Parallelism,
    ) -> Result<TableauGraph, Exhaustion> {
        let pool = WorkerPool::new(parallelism);
        let mut graph = TableauGraph {
            labels: Vec::new(),
            edges: Vec::new(),
            outgoing: Vec::new(),
            initial: 0,
            ev_index: EventualityIndex::default(),
            plan: SweepPlan::default(),
        };
        let mut index: HashMap<BTreeSet<Ltl>, NodeId> = HashMap::new();

        let init_label: BTreeSet<Ltl> = [formula.clone()].into_iter().collect();
        let init = graph.intern(&mut index, init_label);
        graph.initial = init;

        let mut frontier: Vec<NodeId> = vec![init];
        let mut processed: BTreeSet<NodeId> = BTreeSet::new();
        while !frontier.is_empty() {
            if let Some(interrupt) = budget.interrupted() {
                return Err(interrupt);
            }
            // Replay the sequential queue discipline: dequeue in order,
            // skipping nodes already processed (a node can be discovered
            // twice before its turn comes).
            let level: Vec<NodeId> =
                frontier.drain(..).filter(|node| processed.insert(*node)).collect();
            if level.is_empty() {
                break;
            }
            // Every node of the level is expanded against the level-start
            // budget; the merge below re-applies the exact per-edge checks.
            let level_cap = budget.max_edges().saturating_sub(graph.edges.len());
            let expansions = expand_level(&graph.labels, &level, level_cap, &pool);
            for (&node, exps) in level.iter().zip(expansions) {
                // A worker that blew the level budget implies the sequential
                // loop would have exhausted `max_edges` at this node or an
                // earlier one — either way the edge cap is the answer.
                let Some(exps) = exps else {
                    return Err(Exhaustion::Edges);
                };
                for exp in exps {
                    let target_label = exp.next.clone();
                    let target = graph.intern(&mut index, target_label);
                    if graph.labels.len() > budget.max_nodes() {
                        return Err(Exhaustion::Nodes);
                    }
                    if graph.edges.len() >= budget.max_edges() {
                        return Err(Exhaustion::Edges);
                    }
                    if !processed.contains(&target) {
                        frontier.push(target);
                    }
                    let literals = exp
                        .literals
                        .iter()
                        .map(|(atom, positive)| Literal { atom: atom.clone(), positive: *positive })
                        .collect();
                    let edge = Edge {
                        from: node,
                        to: target,
                        literals,
                        eventualities: exp.eventualities,
                        fulfilled: exp.fulfilled,
                    };
                    let id = graph.edges.len();
                    graph.edges.push(edge);
                    graph.outgoing[node].push(id);
                }
            }
        }
        graph.ev_index = EventualityIndex::build(&graph.edges);
        graph.plan = SweepPlan::build(&graph);
        Ok(graph)
    }

    fn intern(
        &mut self,
        index: &mut HashMap<BTreeSet<Ltl>, NodeId>,
        label: BTreeSet<Ltl>,
    ) -> NodeId {
        if let Some(&id) = index.get(&label) {
            return id;
        }
        let id = self.labels.len();
        index.insert(label.clone(), id);
        self.labels.push(label);
        self.outgoing.push(Vec::new());
        id
    }

    /// The initial node.
    pub fn initial(&self) -> NodeId {
        self.initial
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The label set of a node.
    pub fn label(&self, node: NodeId) -> &BTreeSet<Ltl> {
        &self.labels[node]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// Ids of the edges leaving `node`.
    pub fn outgoing(&self, node: NodeId) -> &[EdgeId] {
        &self.outgoing[node]
    }

    /// The distinct eventualities occurring on any edge, ascending in
    /// `Ltl`'s order (cached at construction).
    pub fn eventualities(&self) -> &[Ltl] {
        &self.ev_index.all
    }

    /// The per-graph eventuality index (see [`EventualityIndex`]).
    pub(crate) fn eventuality_index(&self) -> &EventualityIndex {
        &self.ev_index
    }

    /// The per-graph fixpoint plan of the semi-naive worklist engines.
    pub(crate) fn sweep_plan(&self) -> &SweepPlan {
        &self.plan
    }
}

/// A static size profile of the graph a formula *would* expand into,
/// computed from the AST alone — no node is ever interned, no edge built.
///
/// This is the closure-size hook behind the `ilogic-core` analysis pass:
/// node labels of [`TableauGraph`] are subsets of the formula's *next
/// components* (the formulas the expansion rules in this module can insert
/// into a node's next-set), so `2^components` bounds the node count and
/// `nodes × 2^atoms` bounds the edge count.  The bounds are loose — see the
/// calibration notes in `ARCHITECTURE.md` — but they are computed in
/// microseconds, which is the point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosureProfile {
    /// Number of distinct next components: `2^components` bounds the node
    /// count of the expanded graph.
    pub components: usize,
    /// Number of distinct atoms: each transition commits to a subset of the
    /// atoms, so `2^atoms` bounds the out-degree multiplicity per node pair.
    pub atoms: usize,
    /// Plain AST size of the formula.
    pub size: usize,
}

/// Computes the [`ClosureProfile`] of `formula` without building a graph.
///
/// The component set mirrors `expand_rec` exactly: `◦a` inserts `a` (or `¬a`
/// under negation), `□a` re-inserts itself, `◇a`/`U(p, q)`/`¬U(p, q)` insert
/// their deferred forms, and negations of `□`/`◇` insert the pushed-in dual.
pub fn closure_profile(formula: &Ltl) -> ClosureProfile {
    fn components(f: &Ltl, positive: bool, out: &mut BTreeSet<Ltl>) {
        match f {
            Ltl::True | Ltl::False | Ltl::Atom(_) => {}
            Ltl::Not(a) => components(a, !positive, out),
            Ltl::And(a, b) | Ltl::Or(a, b) => {
                components(a, positive, out);
                components(b, positive, out);
            }
            Ltl::Next(a) => {
                out.insert(if positive { (**a).clone() } else { (**a).clone().not() });
                components(a, positive, out);
            }
            Ltl::Always(a) => {
                if positive {
                    out.insert(f.clone());
                } else {
                    // ¬□a expands as ◇¬a, which defers itself.
                    out.insert((**a).clone().not().eventually());
                }
                components(a, positive, out);
                components(a, !positive, out);
            }
            Ltl::Eventually(a) => {
                if positive {
                    out.insert(f.clone());
                } else {
                    out.insert((**a).clone().not().always());
                }
                components(a, positive, out);
                components(a, !positive, out);
            }
            Ltl::Until(p, q) => {
                if positive {
                    out.insert(f.clone());
                } else {
                    out.insert(f.clone().not());
                }
                // Both polarities of both operands can surface during
                // expansion (q now / defer, ¬q ∧ ¬p now / defer).
                components(p, true, out);
                components(p, false, out);
                components(q, true, out);
                components(q, false, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    components(formula, true, &mut out);
    ClosureProfile { components: out.len(), atoms: formula.atoms().len(), size: formula.size() }
}

/// Expands every node of one BFS level, striping the nodes across the worker
/// pool, and returns the expansion lists in level order.
///
/// Expansion is a pure function of the label set, so the stripes can run
/// concurrently; the deterministic part — interning targets and assigning
/// identifiers — stays with the caller's sequential merge.
fn expand_level(
    labels: &[BTreeSet<Ltl>],
    level: &[NodeId],
    budget: usize,
    pool: &WorkerPool,
) -> Vec<Option<Vec<Expansion>>> {
    pool.map(level.len(), |i| expand_set(&labels[level[i]], budget))
}

/// Expands a set of formulae into all of its saturated alternatives, or
/// `None` when more than `cap` alternatives would be produced.
fn expand_set(label: &BTreeSet<Ltl>, cap: usize) -> Option<Vec<Expansion>> {
    let mut results = Vec::new();
    let pending: Vec<Ltl> = label.iter().cloned().collect();
    if expand_rec(pending, BTreeSet::new(), Expansion::default(), &mut results, cap) {
        Some(results)
    } else {
        None
    }
}

/// Returns `false` when the expansion exceeded `cap` alternatives.
fn expand_rec(
    mut pending: Vec<Ltl>,
    mut seen: BTreeSet<Ltl>,
    mut acc: Expansion,
    results: &mut Vec<Expansion>,
    cap: usize,
) -> bool {
    loop {
        let Some(formula) = pending.pop() else {
            if results.len() >= cap {
                return false;
            }
            results.push(acc);
            return true;
        };
        if !seen.insert(formula.clone()) {
            continue;
        }
        match formula {
            Ltl::True => {}
            Ltl::False => return true, // inconsistent branch
            Ltl::Atom(atom) => {
                if !add_literal(&mut acc, atom, true) {
                    return true;
                }
            }
            Ltl::Not(inner) => match *inner {
                Ltl::True => return true,
                Ltl::False => {}
                Ltl::Atom(atom) => {
                    if !add_literal(&mut acc, atom, false) {
                        return true;
                    }
                }
                Ltl::Not(a) => pending.push(*a),
                Ltl::And(a, b) => {
                    // ¬(a ∧ b)  →  ¬a ∨ ¬b
                    pending.push(Ltl::Or(Box::new(a.not()), Box::new(b.not())));
                }
                Ltl::Or(a, b) => {
                    pending.push(a.not());
                    pending.push(b.not());
                }
                Ltl::Next(a) => {
                    acc.next.insert(a.not());
                }
                Ltl::Always(a) => pending.push(Ltl::Eventually(Box::new(a.not()))),
                Ltl::Eventually(a) => pending.push(Ltl::Always(Box::new(a.not()))),
                Ltl::Until(p, q) => {
                    // ¬U(p, q)  →  ¬q ∧ (¬p  ∨  ◦¬U(p, q))  with eventuality ¬p.
                    let not_p = p.clone().not();
                    let not_u = Ltl::Until(p, q.clone()).not();
                    pending.push(q.not());
                    // Branch 1: ¬p holds now (eventuality fulfilled).
                    let mut now = Expansion {
                        literals: acc.literals.clone(),
                        next: acc.next.clone(),
                        eventualities: acc.eventualities.clone(),
                        fulfilled: acc.fulfilled.clone(),
                    };
                    now.fulfilled.insert(not_p.clone());
                    let mut now_pending = pending.clone();
                    now_pending.push(not_p.clone());
                    if !expand_rec(now_pending, seen.clone(), now, results, cap) {
                        return false;
                    }
                    // Branch 2: defer; promise the eventuality ¬p.
                    acc.eventualities.insert(not_p);
                    acc.next.insert(not_u);
                    continue;
                }
            },
            Ltl::And(a, b) => {
                pending.push(*a);
                pending.push(*b);
            }
            Ltl::Or(a, b) => {
                let mut left_pending = pending.clone();
                left_pending.push(*a);
                if !expand_rec(left_pending, seen.clone(), acc.clone(), results, cap) {
                    return false;
                }
                pending.push(*b);
                continue;
            }
            Ltl::Next(a) => {
                acc.next.insert(*a);
            }
            Ltl::Always(a) => {
                // □a  →  a ∧ ◦□a
                acc.next.insert(Ltl::Always(a.clone()));
                pending.push(*a);
            }
            Ltl::Eventually(a) => {
                // ◇a  →  a  ∨  ◦◇a  (eventuality a).
                let body = (*a).clone();
                // Branch 1: a holds now (eventuality fulfilled).
                let mut now = acc.clone();
                now.fulfilled.insert(body.clone());
                let mut now_pending = pending.clone();
                now_pending.push(body.clone());
                if !expand_rec(now_pending, seen.clone(), now, results, cap) {
                    return false;
                }
                // Branch 2: defer.
                acc.eventualities.insert(body);
                acc.next.insert(Ltl::Eventually(a));
                continue;
            }
            Ltl::Until(p, q) => {
                // Weak until:  U(p, q)  →  q  ∨  (p ∧ ◦U(p, q)); no eventuality.
                let mut q_now = acc.clone();
                let mut q_pending = pending.clone();
                q_pending.push((*q).clone());
                q_now.fulfilled.insert((*q).clone());
                if !expand_rec(q_pending, seen.clone(), q_now, results, cap) {
                    return false;
                }
                pending.push((*p).clone());
                acc.next.insert(Ltl::Until(p, q));
                continue;
            }
        }
    }
}

/// Adds a literal to an expansion; returns `false` if it contradicts an existing literal.
fn add_literal(acc: &mut Expansion, atom: Atom, positive: bool) -> bool {
    match acc.literals.get(&atom) {
        Some(&existing) => existing == positive,
        None => {
            acc.literals.insert(atom, positive);
            true
        }
    }
}

/// The result of the `Iter` deletion loop.
#[derive(Clone, Debug)]
pub struct Pruned {
    node_alive: Vec<bool>,
    edge_alive: Vec<bool>,
    /// Number of passes of the outer deletion loop.
    pub iterations: usize,
}

impl Pruned {
    /// `true` if the node survived deletion.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.node_alive[node]
    }

    /// `true` if the edge survived deletion.
    pub fn edge_alive(&self, edge: EdgeId) -> bool {
        self.edge_alive[edge]
    }

    /// Number of surviving nodes.
    pub fn live_nodes(&self) -> usize {
        self.node_alive.iter().filter(|b| **b).count()
    }

    /// Number of surviving edges.
    pub fn live_edges(&self) -> usize {
        self.edge_alive.iter().filter(|b| **b).count()
    }
}

/// Runs the `Iter` deletion loop on `graph`, deleting edges whose literal
/// labels are unsatisfiable in `theory` (Algorithm A's extra deletion), edges
/// whose eventualities cannot be satisfied, and nodes with no outgoing edges.
pub fn prune(graph: &TableauGraph, theory: &dyn Theory) -> Pruned {
    prune_budgeted(graph, theory, Parallelism::Off, &ResourceBudget::unbounded())
        .expect("an unbudgeted prune cannot be interrupted")
}

/// [`prune`] with the per-edge theory checks and the per-eventuality
/// reachability analyses fanned across a worker pool, under a
/// [`ResourceBudget`]: the deletion loop is polynomial (no structural cap
/// applies), but the budget's deadline/cancellation cutoffs are polled once
/// per deletion round so a service can abandon a prune on a very large
/// graph.
///
/// Both phases are pure functions of the current alive sets — the theory
/// filter is independent per edge and the fulfilling-reachability map is
/// independent per eventuality — so the deletion loop deletes exactly the
/// same edges in the same rounds at every worker count.
pub fn prune_budgeted(
    graph: &TableauGraph,
    theory: &dyn Theory,
    parallelism: Parallelism,
    budget: &ResourceBudget,
) -> Result<Pruned, Exhaustion> {
    let pool = WorkerPool::new(parallelism);
    let eventualities = graph.eventualities();
    let mut node_alive = vec![true; graph.node_count()];
    let mut edge_alive: Vec<bool> = pool.map(graph.edge_count(), |i| {
        theory.satisfiable(&graph.edge(i).literals) == TheoryResult::Satisfiable
    });
    let mut iterations = 0;
    loop {
        if let Some(interrupt) = budget.interrupted() {
            return Err(interrupt);
        }
        iterations += 1;
        let mut changed = false;

        // Delete edges whose eventualities can no longer be satisfied.  The
        // backward-reachability map of each eventuality is independent of the
        // others, so the eventualities stripe across the pool; the shared
        // incoming-edge index is built once per round.
        let incoming = incoming_index(graph, &edge_alive);
        let reach: Vec<Vec<bool>> = pool.map(eventualities.len(), |i| {
            reachable_to_fulfilling(graph, &node_alive, &edge_alive, &incoming, &eventualities[i])
        });
        let reach: HashMap<&Ltl, Vec<bool>> = eventualities.iter().zip(reach).collect();
        for (id, edge) in graph.edges().iter().enumerate() {
            if !edge_alive[id] {
                continue;
            }
            for ev in &edge.eventualities {
                if !reach[ev][edge.to] {
                    edge_alive[id] = false;
                    changed = true;
                    break;
                }
            }
        }

        // Delete edges leading to or from dead nodes, and nodes with no live outgoing edge.
        for (id, edge) in graph.edges().iter().enumerate() {
            if edge_alive[id] && (!node_alive[edge.from] || !node_alive[edge.to]) {
                edge_alive[id] = false;
                changed = true;
            }
        }
        for (node, alive) in node_alive.iter_mut().enumerate() {
            if *alive && !graph.outgoing(node).iter().any(|&e| edge_alive[e]) {
                *alive = false;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }
    Ok(Pruned { node_alive, edge_alive, iterations })
}

/// The incoming live-edge index shared by every eventuality's reachability
/// pass of one deletion round.
fn incoming_index(graph: &TableauGraph, edge_alive: &[bool]) -> Vec<Vec<EdgeId>> {
    let mut incoming: Vec<Vec<EdgeId>> = vec![Vec::new(); graph.node_count()];
    for (id, edge) in graph.edges().iter().enumerate() {
        if edge_alive[id] {
            incoming[edge.to].push(id);
        }
    }
    incoming
}

/// Computes, for every node, whether a live edge fulfilling `ev` is reachable
/// from it through live edges (including taking the fulfilling edge itself).
fn reachable_to_fulfilling(
    graph: &TableauGraph,
    node_alive: &[bool],
    edge_alive: &[bool],
    incoming: &[Vec<EdgeId>],
    ev: &Ltl,
) -> Vec<bool> {
    let mut reach = vec![false; graph.node_count()];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for (id, edge) in graph.edges().iter().enumerate() {
        if edge_alive[id]
            && node_alive[edge.from]
            && edge.fulfilled.contains(ev)
            && !reach[edge.from]
        {
            reach[edge.from] = true;
            queue.push_back(edge.from);
        }
    }
    // Backward closure over live edges.
    while let Some(node) = queue.pop_front() {
        for &eid in &incoming[node] {
            let from = graph.edge(eid).from;
            if node_alive[from] && !reach[from] {
                reach[from] = true;
                queue.push_back(from);
            }
        }
    }
    reach
}

/// Decides satisfiability of `formula` in pure temporal logic (all atoms uninterpreted).
pub fn satisfiable_pure(formula: &Ltl) -> bool {
    let graph = TableauGraph::build(formula);
    let pruned = prune(&graph, &crate::theory::PropositionalTheory::new());
    pruned.node_alive(graph.initial())
}

/// [`satisfiable_pure`] under a [`ResourceBudget`], with construction and
/// pruning fanned across a worker pool; the answer (including
/// structural-cap `Err`s) is identical at every worker count.
pub fn satisfiable_pure_budgeted(
    formula: &Ltl,
    budget: &ResourceBudget,
    parallelism: Parallelism,
) -> Result<bool, Exhaustion> {
    let graph = TableauGraph::try_build_budgeted(formula, budget, parallelism)?;
    let pruned =
        prune_budgeted(&graph, &crate::theory::PropositionalTheory::new(), parallelism, budget)?;
    Ok(pruned.node_alive(graph.initial()))
}

/// Decides validity of `formula` in pure temporal logic.
pub fn valid_pure(formula: &Ltl) -> bool {
    !satisfiable_pure(&formula.clone().not())
}

/// [`valid_pure`] under a [`ResourceBudget`], fanned across a worker pool;
/// the answer (including structural-cap `Err`s) is identical at every worker
/// count.
pub fn valid_pure_budgeted(
    formula: &Ltl,
    budget: &ResourceBudget,
    parallelism: Parallelism,
) -> Result<bool, Exhaustion> {
    satisfiable_pure_budgeted(&formula.clone().not(), budget, parallelism).map(|sat| !sat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{TlState, TlTrace};
    use crate::theory::PropositionalTheory;

    fn p() -> Ltl {
        Ltl::prop("P")
    }
    fn q() -> Ltl {
        Ltl::prop("Q")
    }

    #[test]
    fn tautologies_are_valid() {
        assert!(valid_pure(&p().or(p().not())));
        assert!(valid_pure(&Ltl::True));
        assert!(!valid_pure(&p()));
    }

    #[test]
    fn contradictions_are_unsatisfiable() {
        assert!(!satisfiable_pure(&p().and(p().not())));
        assert!(satisfiable_pure(&p().and(q().not())));
    }

    #[test]
    fn eventually_always_implies_always_eventually() {
        let f = p().always().eventually().implies(p().eventually().always());
        assert!(valid_pure(&f));
        // The converse is not valid.
        let g = p().eventually().always().implies(p().always().eventually());
        assert!(!valid_pure(&g));
    }

    #[test]
    fn eventually_p_implies_eventually_p_is_valid() {
        assert!(valid_pure(&p().eventually().implies(p().eventually())));
    }

    #[test]
    fn always_p_and_not_p_unsat() {
        assert!(!satisfiable_pure(&p().always().and(p().not().eventually())));
        assert!(satisfiable_pure(&p().always()));
    }

    #[test]
    fn eventuality_forces_fulfilment() {
        // ◇P ∧ □¬P is unsatisfiable; the eventuality check must detect it.
        let f = p().eventually().and(p().not().always());
        assert!(!satisfiable_pure(&f));
    }

    #[test]
    fn weak_until_without_eventuality_is_satisfiable_by_invariance() {
        // U(P, Q) ∧ □¬Q is satisfiable (P can hold forever).
        let f = p().until(q()).and(q().not().always());
        assert!(satisfiable_pure(&f));
        // But additionally requiring ◇¬P makes it unsatisfiable.
        let g = p().until(q()).and(q().not().always()).and(p().not().eventually());
        assert!(!satisfiable_pure(&g));
    }

    #[test]
    fn negated_weak_until_requires_eventual_not_p() {
        // ¬U(P, Q) ∧ □P is unsatisfiable (¬U implies ◇¬P).
        let f = p().until(q()).not().and(p().always());
        assert!(!satisfiable_pure(&f));
        // ¬U(P, Q) alone is satisfiable.
        assert!(satisfiable_pure(&p().until(q()).not()));
    }

    #[test]
    fn until_unrolling_is_valid() {
        // U(p, q)  ≡  q ∨ (p ∧ ◦U(p, q))
        let u = p().until(q());
        let unrolled = q().or(p().and(u.clone().next()));
        assert!(valid_pure(&u.clone().iff(unrolled)));
    }

    #[test]
    fn budgeted_construction_names_the_tripped_cap() {
        let formula = p().always().not();
        // Generous budget: construction succeeds and matches the unbounded graph.
        let graph = TableauGraph::try_build_budgeted(
            &formula,
            &ResourceBudget::default(),
            Parallelism::Off,
        )
        .expect("well within the default caps");
        assert_eq!(graph.node_count(), TableauGraph::build(&formula).node_count());
        // A 1-node budget trips on Nodes, a 0-edge budget on Edges.
        let no_nodes = ResourceBudget::unbounded().with_max_nodes(0);
        assert_eq!(
            TableauGraph::try_build_budgeted(&formula, &no_nodes, Parallelism::Off).err(),
            Some(Exhaustion::Nodes)
        );
        let no_edges = ResourceBudget::unbounded().with_max_edges(0);
        assert_eq!(
            TableauGraph::try_build_budgeted(&formula, &no_edges, Parallelism::Off).err(),
            Some(Exhaustion::Edges)
        );
        // A pre-cancelled token interrupts before the first level.
        let token = crate::pool::CancelToken::new();
        token.cancel();
        let cancelled = ResourceBudget::unbounded().with_cancel(token);
        assert_eq!(
            valid_pure_budgeted(&formula, &cancelled, Parallelism::Off).err(),
            Some(Exhaustion::Cancelled)
        );
        // The budgeted validity entry settles a theorem under the default caps.
        assert_eq!(
            valid_pure_budgeted(&p().or(p().not()), &ResourceBudget::default(), Parallelism::Off),
            Ok(true)
        );
    }

    #[test]
    fn graph_counts_are_positive() {
        let graph = TableauGraph::build(&p().always().not());
        assert!(graph.node_count() >= 1);
        assert!(graph.edge_count() >= 1);
        let pruned = prune(&graph, &PropositionalTheory::new());
        assert!(pruned.iterations >= 1);
    }

    /// Cross-validate the tableau against the concrete semantics on random formulas.
    #[test]
    fn tableau_agrees_with_semantics_on_small_formulas() {
        // Enumerate all traces of length 3 with a loop over props {P, Q} and
        // compare "satisfiable" with "has a model among these traces".
        // (Only one direction can be checked exhaustively: a model among the
        //  enumerated traces implies satisfiability.)
        let formulas = vec![
            p().always(),
            p().eventually().and(q().eventually()),
            p().until(q()),
            p().until(q()).not(),
            p().always().eventually(),
            p().implies(q().next()).always(),
        ];
        for f in formulas {
            let mut found_model = false;
            for bits in 0..64u32 {
                let states: Vec<TlState> = (0..3)
                    .map(|i| {
                        TlState::new()
                            .with_prop("P", bits & (1 << (2 * i)) != 0)
                            .with_prop("Q", bits & (1 << (2 * i + 1)) != 0)
                    })
                    .collect();
                for loop_start in 0..3 {
                    let trace = TlTrace::lasso(states.clone(), loop_start);
                    if trace.eval(&f) {
                        found_model = true;
                    }
                }
            }
            if found_model {
                assert!(satisfiable_pure(&f), "semantic model exists but tableau says unsat: {f}");
            }
        }
    }
}
