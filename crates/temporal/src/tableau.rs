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
//! # The interned closure
//!
//! Construction compiles `B` once into a dense closure table: every formula
//! the expansion rules can push, defer or promise is hash-consed, and the
//! rewrite it expands by (`¬(a ∧ b) → ¬a ∨ ¬b`, `¬□a → ◇¬a`, `¬U(p, q)`, …,
//! through the same simplifying [`Ltl::not`]) is resolved into a small
//! per-entry step, so the expander is a table lookup over `u32` ids.  Node
//! labels, next-sets, eventualities, fulfilled sets and the per-branch
//! `seen` set are bitsets over the closure, literals are atom ranks, and
//! nodes are found by hashing label bitsets.  The table is numbered in
//! `Ltl` order (atoms in `Atom` order), so ascending id order *is* the
//! `BTreeSet<Ltl>` order of the public labels: the pending-stack discipline,
//! and with it every node and edge id, is the same as expanding the trees
//! directly (`tests/tableau_reference.rs` pins this against a tree-walking
//! builder kept as a test-only reference).  The public [`Edge`] and
//! [`TableauGraph::label`] shapes are materialised once, on first access;
//! the decision engines and [`prune_budgeted`] read the id-level graph and
//! never ask for them.
//!
//! # Parallelism
//!
//! Both phases fan out over the [`crate::pool`] worker pool —
//! [`TableauGraph::try_build_budgeted`] expands each breadth-first frontier's
//! node labels concurrently (expansion is a pure function of the label set,
//! and the closure table is read-only) and merges the results in sequential
//! frontier order on the calling thread, and [`prune_budgeted`] stripes the
//! per-edge theory checks and the per-eventuality reachability analyses.
//! The merge discipline makes the graph *bit-identical* at every worker
//! count: same node ids, same edge ids, same exhaustion answers under the
//! structural caps of a [`crate::pool::ResourceBudget`].
//!
//! # Cost
//!
//! perfbench's `--trace 1` run at seed 1 (2 hardware threads) measures
//! `tableau.busy_ms` at 62–78 ms, about 5% of 1.3–1.4 s of `decide_corpus`
//! check time, and `tableau.p99_us` at 2.2–2.6 ms, for 4,030 nodes and
//! 90,559 edges.  The R3 and R4 graphs build in 0.2–0.35 ms, 46–80x faster
//! than the test-only tree builder (`BENCH_PR7.json`).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::dnf::store::StoreMap;
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
///
/// The graph is stored at the id level of its closure table: label bitsets,
/// per-edge source/target/literal-set records and per-edge closure-id rows.
/// The public shapes — [`TableauGraph::label`]'s `BTreeSet<Ltl>` and the
/// [`Edge`]s of [`TableauGraph::edges`] — are materialised from them once,
/// on first access; the decision engines never ask for them, so a decision
/// neither builds nor drops (nor, cloning the graph, copies) a tree per
/// label entry.
#[derive(Clone, Debug)]
pub struct TableauGraph {
    /// The closure table the ids below refer to, shared by clones.
    closure: Arc<Closure>,
    /// Node `n`'s label bitset is `label_bits[n * words..(n + 1) * words]`.
    label_bits: Vec<u64>,
    /// Per edge: source, target and literal conjunction.
    edge_ids: Vec<EdgeIds>,
    /// The distinct literal conjunctions of the edges.
    literal_sets: Vec<Vec<Literal>>,
    /// Per-edge closure ids of the promised eventualities.
    promised: CsrRows,
    /// Per-edge closure ids of the fulfilled formulas.
    fulfilled: CsrRows,
    outgoing: Vec<Vec<EdgeId>>,
    initial: NodeId,
    ev_index: EventualityIndex,
    plan: SweepPlan,
    /// [`TableauGraph::label`]'s sets, materialised on first access.
    labels: OnceLock<Vec<BTreeSet<Ltl>>>,
    /// [`TableauGraph::edges`], materialised on first access.
    edges: OnceLock<Vec<Edge>>,
}

/// The id-level record of one edge.
#[derive(Clone, Copy, Debug)]
struct EdgeIds {
    from: NodeId,
    to: NodeId,
    /// Index into [`TableauGraph::literal_sets`].
    literals: u32,
}

/// Per-graph eventuality index, derived once at the end of construction:
/// the distinct eventualities of the graph in ascending order, plus
/// CSR-packed per-edge lists of the indices each edge mentions
/// (`eventualities`) and fulfills (`fulfilled`).  Algorithm B's fixpoint
/// engines, the Boolean projection and [`prune_budgeted`] consult it instead
/// of re-deriving the union and re-probing the per-edge `BTreeSet`s — deep
/// structural `Ltl` comparisons that used to dominate whole evaluator calls.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventualityIndex {
    /// The distinct eventualities, ascending in `Ltl`'s order.
    pub(crate) all: Vec<Ltl>,
    /// Per edge, the ascending indices of the eventualities it mentions.
    mentions: CsrRows,
    /// Per edge, the ascending indices of the eventualities it fulfills.
    fulfilled: CsrRows,
}

impl EventualityIndex {
    /// Builds the index from the per-edge closure-id rows the merge
    /// recorded.  Closure ids ascend in `Ltl` order, so renumbering the
    /// mentioned ids densely keeps `all` and every row ascending.
    fn from_ids(closure: &Closure, promised: &CsrRows, fulfilled: &CsrRows) -> EventualityIndex {
        const ABSENT: u32 = u32::MAX;
        let mut rank = vec![ABSENT; closure.formulas.len()];
        for &id in &promised.items {
            rank[id as usize] = 0;
        }
        let mut all = Vec::new();
        for (id, slot) in rank.iter_mut().enumerate() {
            if *slot != ABSENT {
                *slot = all.len() as u32;
                all.push(closure.formulas[id].clone());
            }
        }
        let mentions = CsrRows {
            items: promised.items.iter().map(|&id| rank[id as usize]).collect(),
            starts: promised.starts.clone(),
        };
        // A fulfilled formula no edge promises (the `q` of a weak until) is
        // not an eventuality of the graph: drop it from the rows.
        let mut kept = CsrRows::new();
        for eid in 0..fulfilled.starts.len() - 1 {
            let ranks = fulfilled.row(eid).iter().map(|&id| rank[id as usize]);
            kept.push_row(ranks.filter(|&ei| ei != ABSENT));
        }
        EventualityIndex { all, mentions, fulfilled: kept }
    }

    /// Ascending indices (into [`EventualityIndex::all`]) of the
    /// eventualities edge `eid` mentions.
    pub(crate) fn mentions(&self, eid: EdgeId) -> &[u32] {
        self.mentions.row(eid)
    }

    /// Ascending indices of the eventualities edge `eid` fulfills.
    pub(crate) fn fulfilled(&self, eid: EdgeId) -> &[u32] {
        self.fulfilled.row(eid)
    }
}

/// CSR-packed per-edge id lists, appended one edge row at a time.
#[derive(Clone, Debug, Default)]
struct CsrRows {
    items: Vec<u32>,
    /// Row `r` is `items[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
}

impl CsrRows {
    fn new() -> CsrRows {
        CsrRows { items: Vec::new(), starts: vec![0] }
    }

    fn push_row(&mut self, row: impl Iterator<Item = u32>) {
        self.items.extend(row);
        self.starts.push(self.items.len() as u32);
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.items[self.starts[r] as usize..self.starts[r + 1] as usize]
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
/// over the same tableau.
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
                rev_starts[graph.target(eid) + 1] += 1;
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
                let to = graph.target(eid);
                rev_preds[cursor[to] as usize] = node as u32;
                cursor[to] += 1;
            }
        }
        let ne = graph.ev_index.all.len();
        let targets = graph.edge_ids.iter().map(|edge| edge.to as u32).collect();
        let mut unfulfilled = vec![true; graph.edge_count() * ne];
        for eid in 0..graph.edge_count() {
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
    /// The formula is first compiled into its closure table (see the
    /// [module documentation](self)).  Construction is then a breadth-first
    /// saturation over closure ids: each BFS level's node labels are
    /// expanded (a pure function of the label bitset) concurrently, and the
    /// per-node expansion lists are then merged on the calling thread *in
    /// sequential frontier order* — interning target labels, assigning node
    /// and edge identifiers, and applying the structural cap checks in
    /// exactly the order the single-threaded loop would.  The resulting
    /// graph is therefore bit-identical (same node ids, same edge ids, same
    /// edge order) at every worker count, and structural-cap `Err` answers
    /// agree too: expansion caps are taken from the level-start edge budget,
    /// which can only postpone a blowup into the merge's own limit checks,
    /// never change the answer.  Only the deadline/cancellation cutoffs are
    /// timing-dependent.
    pub fn try_build_budgeted(
        formula: &Ltl,
        budget: &ResourceBudget,
        parallelism: Parallelism,
    ) -> Result<TableauGraph, Exhaustion> {
        let pool = WorkerPool::new(parallelism);
        let closure = Arc::new(Closure::compile(formula));
        let mut graph = TableauGraph {
            closure: Arc::clone(&closure),
            label_bits: Vec::new(),
            edge_ids: Vec::new(),
            literal_sets: Vec::new(),
            promised: CsrRows::new(),
            fulfilled: CsrRows::new(),
            outgoing: Vec::new(),
            initial: 0,
            ev_index: EventualityIndex::default(),
            plan: SweepPlan::default(),
            labels: OnceLock::new(),
            edges: OnceLock::new(),
        };
        let mut node_index: StoreMap<Box<[u64]>, NodeId> = StoreMap::default();
        let mut literal_index: StoreMap<Box<[u64]>, u32> = StoreMap::default();

        let mut init_label = vec![0u64; closure.words];
        bit_insert(&mut init_label, closure.root);
        graph.initial = graph.intern(&mut node_index, &init_label);

        let mut frontier: Vec<NodeId> = vec![graph.initial];
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
            let level_cap = budget.max_edges().saturating_sub(graph.edge_count());
            let expansions =
                pool.map(level.len(), |i| closure.expand(graph.label_bits(level[i]), level_cap));
            for (&node, exps) in level.iter().zip(expansions) {
                // A worker that blew the level budget implies the sequential
                // loop would have exhausted `max_edges` at this node or an
                // earlier one — either way the edge cap is the answer.
                let Some(exps) = exps else {
                    return Err(Exhaustion::Edges);
                };
                for exp in exps {
                    let target = graph.intern(&mut node_index, &exp[closure.next()]);
                    if graph.node_count() > budget.max_nodes() {
                        return Err(Exhaustion::Nodes);
                    }
                    if graph.edge_count() >= budget.max_edges() {
                        return Err(Exhaustion::Edges);
                    }
                    if !processed.contains(&target) {
                        frontier.push(target);
                    }
                    let committed = &exp[closure.literal_sections()];
                    let literals = match literal_index.get(committed) {
                        Some(&set) => set,
                        None => {
                            let set = graph.literal_sets.len() as u32;
                            literal_index.insert(committed.into(), set);
                            graph.literal_sets.push(closure.literal_set(&exp));
                            set
                        }
                    };
                    graph.promised.push_row(bit_iter(&exp[closure.eventualities()]));
                    graph.fulfilled.push_row(bit_iter(&exp[closure.fulfilled()]));
                    let id = graph.edge_count();
                    graph.edge_ids.push(EdgeIds { from: node, to: target, literals });
                    graph.outgoing[node].push(id);
                }
            }
        }
        graph.ev_index = EventualityIndex::from_ids(&closure, &graph.promised, &graph.fulfilled);
        graph.plan = SweepPlan::build(&graph);
        Ok(graph)
    }

    fn intern(&mut self, index: &mut StoreMap<Box<[u64]>, NodeId>, label: &[u64]) -> NodeId {
        if let Some(&id) = index.get(label) {
            return id;
        }
        let id = self.node_count();
        index.insert(label.into(), id);
        self.label_bits.extend_from_slice(label);
        self.outgoing.push(Vec::new());
        id
    }

    fn label_bits(&self, node: NodeId) -> &[u64] {
        let words = self.closure.words;
        &self.label_bits[node * words..(node + 1) * words]
    }

    /// The initial node.
    pub fn initial(&self) -> NodeId {
        self.initial
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.outgoing.len()
    }

    /// The number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_ids.len()
    }

    /// The label set of a node.
    pub fn label(&self, node: NodeId) -> &BTreeSet<Ltl> {
        let labels = self.labels.get_or_init(|| {
            (0..self.node_count())
                .map(|node| self.closure.materialise(bit_iter(self.label_bits(node))))
                .collect()
        });
        &labels[node]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        self.edges.get_or_init(|| {
            (0..self.edge_count())
                .map(|eid| {
                    let ids = self.edge_ids[eid];
                    Edge {
                        from: ids.from,
                        to: ids.to,
                        literals: self.literals(eid).to_vec(),
                        eventualities: self
                            .closure
                            .materialise(self.promised.row(eid).iter().copied()),
                        fulfilled: self
                            .closure
                            .materialise(self.fulfilled.row(eid).iter().copied()),
                    }
                })
                .collect()
        })
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges()[id]
    }

    /// The literal conjunction labelling edge `id` (its [`Edge::literals`],
    /// without materialising the edge).
    pub(crate) fn literals(&self, id: EdgeId) -> &[Literal] {
        &self.literal_sets[self.edge_ids[id].literals as usize]
    }

    /// The source node of edge `id`.
    pub(crate) fn source(&self, id: EdgeId) -> NodeId {
        self.edge_ids[id].from
    }

    /// The target node of edge `id`.
    pub(crate) fn target(&self, id: EdgeId) -> NodeId {
        self.edge_ids[id].to
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
    /// Walks `f` once for a set of polarities at a time (`positive`,
    /// `negative`): `□`, `◇` and `U` need their operands at both, and
    /// walking them once per polarity would visit a chain of n such
    /// operators 2^n times.
    fn components(f: &Ltl, positive: bool, negative: bool, out: &mut BTreeSet<Ltl>) {
        match f {
            Ltl::True | Ltl::False | Ltl::Atom(_) => {}
            Ltl::Not(a) => components(a, negative, positive, out),
            Ltl::And(a, b) | Ltl::Or(a, b) => {
                components(a, positive, negative, out);
                components(b, positive, negative, out);
            }
            Ltl::Next(a) => {
                if positive {
                    out.insert((**a).clone());
                }
                if negative {
                    out.insert((**a).clone().not());
                }
                components(a, positive, negative, out);
            }
            Ltl::Always(a) => {
                if positive {
                    out.insert(f.clone());
                }
                if negative {
                    // ¬□a expands as ◇¬a, which defers itself.
                    out.insert((**a).clone().not().eventually());
                }
                components(a, true, true, out);
            }
            Ltl::Eventually(a) => {
                if positive {
                    out.insert(f.clone());
                }
                if negative {
                    out.insert((**a).clone().not().always());
                }
                components(a, true, true, out);
            }
            Ltl::Until(p, q) => {
                if positive {
                    out.insert(f.clone());
                }
                if negative {
                    out.insert(f.clone().not());
                }
                // Both polarities of both operands can surface during
                // expansion (q now / defer, ¬q ∧ ¬p now / defer).
                components(p, true, true, out);
                components(q, true, true, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    components(formula, true, false, &mut out);
    ClosureProfile { components: out.len(), atoms: formula.atoms().len(), size: formula.size() }
}

/// One closure entry's expansion step, resolved once per build: the `match`
/// of a tree-walking expander turned into a table lookup.  Generic over how
/// formulas (`F`) and atoms (`A`) are named — trees while the closure is
/// discovered, [`Op`]'s ids after.  The steps that re-insert "self" into the
/// next-set (`□`, `◇`, `U`, `¬U`) use the id of the entry being expanded.
#[derive(Clone, Copy, Debug)]
enum Step<F, A> {
    /// `true` and `¬false`: nothing to commit.
    Skip,
    /// `false` and `¬true`: the branch is inconsistent.
    Close,
    /// An atom (`true`) or a negated atom (`false`).
    Literal(A, bool),
    /// Push one formula: `¬¬a → a`, `¬(a ∧ b) → ¬a ∨ ¬b`, `¬□a → ◇¬a`,
    /// `¬◇a → □¬a`.
    Push(F),
    /// Push two formulas, in order: `a ∧ b → a, b` and `¬(a ∨ b) → ¬a, ¬b`.
    Push2(F, F),
    /// `◦a` and `¬◦a → ◦¬a`: insert the operand into the next-set.
    Next(F),
    /// `□a → a ∧ ◦□a`.
    Always(F),
    /// `a ∨ b`: branch on `a`, continue with `b`.
    Or(F, F),
    /// `◇a → a ∨ ◦◇a`, promising the eventuality `a`.
    Eventually(F),
    /// Weak `U(p, q) → q ∨ (p ∧ ◦U(p, q))`, no eventuality: `(p, q)`.
    Until(F, F),
    /// `¬U(p, q) → ¬q ∧ (¬p ∨ ◦¬U(p, q))`, promising the eventuality `¬p`:
    /// `(¬p, ¬q)`.
    NotUntil(F, F),
}

/// A compiled step: closure ids and atom ranks.
type Op = Step<u32, u32>;

impl Step<Ltl, Atom> {
    /// The expansion rule of `formula`, with every rewrite computed through
    /// the same simplifying [`Ltl::not`] a tree-walking expander would use.
    fn of(formula: &Ltl) -> Self {
        let not = |f: &Ltl| f.clone().not();
        match formula {
            Ltl::True => Step::Skip,
            Ltl::False => Step::Close,
            Ltl::Atom(atom) => Step::Literal(atom.clone(), true),
            Ltl::Not(inner) => match &**inner {
                Ltl::True => Step::Close,
                Ltl::False => Step::Skip,
                Ltl::Atom(atom) => Step::Literal(atom.clone(), false),
                Ltl::Not(a) => Step::Push((**a).clone()),
                Ltl::And(a, b) => Step::Push(Ltl::Or(Box::new(not(a)), Box::new(not(b)))),
                Ltl::Or(a, b) => Step::Push2(not(a), not(b)),
                Ltl::Next(a) => Step::Next(not(a)),
                Ltl::Always(a) => Step::Push(Ltl::Eventually(Box::new(not(a)))),
                Ltl::Eventually(a) => Step::Push(Ltl::Always(Box::new(not(a)))),
                Ltl::Until(p, q) => Step::NotUntil(not(p), not(q)),
            },
            Ltl::And(a, b) => Step::Push2((**a).clone(), (**b).clone()),
            Ltl::Or(a, b) => Step::Or((**a).clone(), (**b).clone()),
            Ltl::Next(a) => Step::Next((**a).clone()),
            Ltl::Always(a) => Step::Always((**a).clone()),
            Ltl::Eventually(a) => Step::Eventually((**a).clone()),
            Ltl::Until(p, q) => Step::Until((**p).clone(), (**q).clone()),
        }
    }
}

impl<F, A> Step<F, A> {
    /// Renames the step's formulas through `formula` and its atom through
    /// `atom`.
    fn map<G, B>(self, mut formula: impl FnMut(F) -> G, atom: impl FnOnce(A) -> B) -> Step<G, B> {
        match self {
            Step::Skip => Step::Skip,
            Step::Close => Step::Close,
            Step::Literal(a, positive) => Step::Literal(atom(a), positive),
            Step::Push(a) => Step::Push(formula(a)),
            Step::Push2(a, b) => Step::Push2(formula(a), formula(b)),
            Step::Next(a) => Step::Next(formula(a)),
            Step::Always(a) => Step::Always(formula(a)),
            Step::Or(a, b) => Step::Or(formula(a), formula(b)),
            Step::Eventually(a) => Step::Eventually(formula(a)),
            Step::Until(p, q) => Step::Until(formula(p), formula(q)),
            Step::NotUntil(not_p, not_q) => Step::NotUntil(formula(not_p), formula(not_q)),
        }
    }
}

/// The closure table of one build: every formula expansion can push, defer
/// or promise, hash-consed and numbered in `Ltl` order, with its expansion
/// step; and the atoms, numbered in `Atom` order.  Read-only once compiled,
/// so the level-parallel workers share it.
#[derive(Debug)]
struct Closure {
    /// Entry `i`'s formula; ascending `i` is ascending `Ltl` order.
    formulas: Vec<Ltl>,
    /// Entry `i`'s expansion step.
    ops: Vec<Op>,
    /// Atom rank `r`'s atom; ascending `r` is ascending `Atom` order.
    atoms: Vec<Atom>,
    /// The id of the formula the graph is built for.
    root: u32,
    /// `u64` words per closure bitset.
    words: usize,
    /// `u64` words per atom bitset.
    atom_words: usize,
}

impl Closure {
    /// Compiles `root` into its closure table: a worklist discovers every
    /// entry (no recursion over the formula), then entries and atoms are
    /// renumbered by rank.
    fn compile(root: &Ltl) -> Closure {
        fn intern<T: Clone + Eq + std::hash::Hash>(
            ids: &mut HashMap<T, u32>,
            items: &mut Vec<T>,
            item: T,
        ) -> u32 {
            let next = items.len() as u32;
            *ids.entry(item).or_insert_with_key(|item| {
                items.push(item.clone());
                next
            })
        }
        let mut formula_ids: HashMap<Ltl, u32> = HashMap::new();
        let mut formulas: Vec<Ltl> = Vec::new();
        let mut atom_ids: HashMap<Atom, u32> = HashMap::new();
        let mut atoms: Vec<Atom> = Vec::new();
        let root = intern(&mut formula_ids, &mut formulas, root.clone());
        let mut ops: Vec<Op> = Vec::new();
        while ops.len() < formulas.len() {
            let step = Step::of(&formulas[ops.len()]);
            ops.push(step.map(
                |f| intern(&mut formula_ids, &mut formulas, f),
                |a| intern(&mut atom_ids, &mut atoms, a),
            ));
        }
        drop(formula_ids);

        let (formulas, rank) = sort_by_rank(formulas);
        let (atoms, atom_rank) = sort_by_rank(atoms);
        let mut ranked_ops = vec![Op::Skip; ops.len()];
        for (id, op) in ops.into_iter().enumerate() {
            ranked_ops[rank[id] as usize] = op.map(|f| rank[f as usize], |a| atom_rank[a as usize]);
        }
        let words = formulas.len().div_ceil(64);
        let atom_words = atoms.len().div_ceil(64);
        Closure { formulas, ops: ranked_ops, atoms, root: rank[root as usize], words, atom_words }
    }

    /// The next-set section of an expansion buffer.
    fn next(&self) -> Range<usize> {
        0..self.words
    }

    /// The promised-eventualities section of an expansion buffer.
    fn eventualities(&self) -> Range<usize> {
        self.words..2 * self.words
    }

    /// The fulfilled-eventualities section of an expansion buffer.
    fn fulfilled(&self) -> Range<usize> {
        2 * self.words..3 * self.words
    }

    /// The positive-literal (atom-rank) section of an expansion buffer.
    fn positive(&self) -> Range<usize> {
        3 * self.words..3 * self.words + self.atom_words
    }

    /// The negative-literal (atom-rank) section of an expansion buffer.
    fn negative(&self) -> Range<usize> {
        3 * self.words + self.atom_words..3 * self.words + 2 * self.atom_words
    }

    /// The both-polarity literal sections of an expansion buffer: the key
    /// its literal conjunction is interned by.
    fn literal_sections(&self) -> Range<usize> {
        self.positive().start..self.negative().end
    }

    /// The formulas of ascending closure ids, as the public `BTreeSet` shape.
    fn materialise(&self, ids: impl Iterator<Item = u32>) -> BTreeSet<Ltl> {
        ids.map(|id| self.formulas[id as usize].clone()).collect()
    }

    /// The literal conjunction of an expansion, in ascending `Atom` order.
    fn literal_set(&self, exp: &[u64]) -> Vec<Literal> {
        let (positive, negative) = (&exp[self.positive()], &exp[self.negative()]);
        let committed: Vec<u64> = positive.iter().zip(negative).map(|(p, n)| p | n).collect();
        bit_iter(&committed)
            .map(|rank| Literal {
                atom: self.atoms[rank as usize].clone(),
                positive: bit_contains(positive, rank),
            })
            .collect()
    }

    /// Expands a label bitset into all of its saturated alternatives (each
    /// an expansion buffer laid out by [`Closure::next`] and the other
    /// section ranges), or `None` when more than `cap` alternatives would be
    /// produced.
    ///
    /// The pending stack starts as the label's ids ascending and pops from
    /// the top — the order a `BTreeSet<Ltl>` label would be pushed in.
    fn expand(&self, label: &[u64], cap: usize) -> Option<Vec<Vec<u64>>> {
        let mut results = Vec::new();
        let pending: Vec<u32> = bit_iter(label).collect();
        let seen = vec![0u64; self.words];
        let acc = vec![0u64; 3 * self.words + 2 * self.atom_words];
        self.expand_rec(pending, seen, acc, &mut results, cap).then_some(results)
    }

    /// Returns `false` when the expansion exceeded `cap` alternatives.
    fn expand_rec(
        &self,
        mut pending: Vec<u32>,
        mut seen: Vec<u64>,
        mut acc: Vec<u64>,
        results: &mut Vec<Vec<u64>>,
        cap: usize,
    ) -> bool {
        loop {
            let Some(id) = pending.pop() else {
                if results.len() >= cap {
                    return false;
                }
                results.push(acc);
                return true;
            };
            if !bit_insert(&mut seen, id) {
                continue;
            }
            match self.ops[id as usize] {
                Step::Skip => {}
                Step::Close => return true, // inconsistent branch
                Step::Literal(atom, positive) => {
                    let (same, opposite) = if positive {
                        (self.positive(), self.negative())
                    } else {
                        (self.negative(), self.positive())
                    };
                    if bit_contains(&acc[opposite], atom) {
                        return true;
                    }
                    bit_insert(&mut acc[same], atom);
                }
                Step::Push(a) => pending.push(a),
                Step::Push2(a, b) => {
                    pending.push(a);
                    pending.push(b);
                }
                Step::Next(a) => {
                    bit_insert(&mut acc[self.next()], a);
                }
                Step::Always(a) => {
                    bit_insert(&mut acc[self.next()], id);
                    pending.push(a);
                }
                Step::Or(a, b) => {
                    let mut left_pending = pending.clone();
                    left_pending.push(a);
                    if !self.expand_rec(left_pending, seen.clone(), acc.clone(), results, cap) {
                        return false;
                    }
                    pending.push(b);
                }
                Step::Eventually(a) => {
                    // Branch 1: `a` holds now (eventuality fulfilled).
                    if !self.branch_now(&pending, &seen, &acc, a, results, cap) {
                        return false;
                    }
                    // Branch 2: defer.
                    bit_insert(&mut acc[self.eventualities()], a);
                    bit_insert(&mut acc[self.next()], id);
                }
                Step::Until(p, q) => {
                    // Branch 1: `q` holds now.
                    if !self.branch_now(&pending, &seen, &acc, q, results, cap) {
                        return false;
                    }
                    // Branch 2: `p` now, the until again next.
                    pending.push(p);
                    bit_insert(&mut acc[self.next()], id);
                }
                Step::NotUntil(not_p, not_q) => {
                    pending.push(not_q);
                    // Branch 1: `¬p` holds now (eventuality fulfilled).
                    if !self.branch_now(&pending, &seen, &acc, not_p, results, cap) {
                        return false;
                    }
                    // Branch 2: defer; promise the eventuality `¬p`.
                    bit_insert(&mut acc[self.eventualities()], not_p);
                    bit_insert(&mut acc[self.next()], id);
                }
            }
        }
    }

    /// The "holds now" branch shared by `◇`, `U` and `¬U`: a copy of the
    /// state with `now` pushed and marked fulfilled.
    fn branch_now(
        &self,
        pending: &[u32],
        seen: &[u64],
        acc: &[u64],
        now: u32,
        results: &mut Vec<Vec<u64>>,
        cap: usize,
    ) -> bool {
        let mut now_pending = pending.to_vec();
        now_pending.push(now);
        let mut now_acc = acc.to_vec();
        bit_insert(&mut now_acc[self.fulfilled()], now);
        self.expand_rec(now_pending, seen.to_vec(), now_acc, results, cap)
    }
}

/// Sorts hash-consed items ascending and returns them with `rank`, where
/// `rank[old_id]` is the item's position in the sorted order.
fn sort_by_rank<T: Ord>(items: Vec<T>) -> (Vec<T>, Vec<u32>) {
    let mut order: Vec<u32> = (0..items.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| items[a as usize].cmp(&items[b as usize]));
    let mut rank = vec![0u32; items.len()];
    for (position, &id) in order.iter().enumerate() {
        rank[id as usize] = position as u32;
    }
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let sorted = order
        .iter()
        .map(|&id| slots[id as usize].take().expect("each id is ranked exactly once"))
        .collect();
    (sorted, rank)
}

/// Sets bit `bit`; returns `true` if it was clear.
fn bit_insert(words: &mut [u64], bit: u32) -> bool {
    let (word, mask) = (bit as usize / 64, 1u64 << (bit % 64));
    let fresh = words[word] & mask == 0;
    words[word] |= mask;
    fresh
}

fn bit_contains(words: &[u64], bit: u32) -> bool {
    words[bit as usize / 64] & (1u64 << (bit % 64)) != 0
}

/// The set bits, ascending.
fn bit_iter(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            Some(i as u32 * 64 + bit)
        })
    })
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
/// same edges in the same rounds at every worker count.  Eventualities are
/// handled by the graph's per-edge eventuality-index rows, never by comparing
/// formulas.
pub fn prune_budgeted(
    graph: &TableauGraph,
    theory: &dyn Theory,
    parallelism: Parallelism,
    budget: &ResourceBudget,
) -> Result<Pruned, Exhaustion> {
    let pool = WorkerPool::new(parallelism);
    let index = graph.eventuality_index();
    // The edges fulfilling each eventuality, ascending: the seeds of its
    // reachability pass.
    let mut fulfilling: Vec<Vec<EdgeId>> = vec![Vec::new(); index.all.len()];
    for eid in 0..graph.edge_count() {
        for &ei in index.fulfilled(eid) {
            fulfilling[ei as usize].push(eid);
        }
    }
    let mut node_alive = vec![true; graph.node_count()];
    let mut edge_alive: Vec<bool> = pool.map(graph.edge_count(), |i| {
        theory.satisfiable(graph.literals(i)) == TheoryResult::Satisfiable
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
        let reach: Vec<Vec<bool>> = pool.map(fulfilling.len(), |ei| {
            reachable_to_fulfilling(graph, &node_alive, &edge_alive, &incoming, &fulfilling[ei])
        });
        for (id, alive) in edge_alive.iter_mut().enumerate() {
            let to = graph.target(id);
            if *alive && index.mentions(id).iter().any(|&ei| !reach[ei as usize][to]) {
                *alive = false;
                changed = true;
            }
        }

        // Delete edges leading to or from dead nodes, and nodes with no live outgoing edge.
        for (id, alive) in edge_alive.iter_mut().enumerate() {
            if *alive && (!node_alive[graph.source(id)] || !node_alive[graph.target(id)]) {
                *alive = false;
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
    for (id, &alive) in edge_alive.iter().enumerate() {
        if alive {
            incoming[graph.target(id)].push(id);
        }
    }
    incoming
}

/// Computes, for every node, whether a live edge fulfilling one eventuality
/// (`fulfilling`: the edges that fulfil it) is reachable from it through
/// live edges (including taking the fulfilling edge itself).
fn reachable_to_fulfilling(
    graph: &TableauGraph,
    node_alive: &[bool],
    edge_alive: &[bool],
    incoming: &[Vec<EdgeId>],
    fulfilling: &[EdgeId],
) -> Vec<bool> {
    let mut reach = vec![false; graph.node_count()];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &id in fulfilling {
        let from = graph.source(id);
        if edge_alive[id] && node_alive[from] && !reach[from] {
            reach[from] = true;
            queue.push_back(from);
        }
    }
    // Backward closure over live edges.
    while let Some(node) = queue.pop_front() {
        for &eid in &incoming[node] {
            let from = graph.source(eid);
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
    fn closure_profile_is_linear_in_temporal_nesting() {
        // `□` needs its operand at both polarities; a 200-deep chain would
        // take 2^200 visits if each polarity were walked separately.
        let deep = (0..200).fold(p(), |f, _| f.always());
        assert_eq!(closure_profile(&deep).components, 2 * 200 - 1);
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
