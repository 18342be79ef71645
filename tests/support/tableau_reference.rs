//! The `Ltl`-tree tableau builder that `ilogic_temporal::tableau` shipped
//! before the closure-interned rewrite, kept verbatim as a test-only
//! reference: node labels are `BTreeSet<Ltl>`, every branch of the
//! expansion clones its pending stack, `seen` set and whole `Expansion`,
//! and nodes are found by hashing whole label sets of trees.
//!
//! `tests/tableau_reference.rs` asserts the shipped builder produces the
//! same graph (node ids, edge ids, labels, exhaustion answers) at every
//! worker count; the `condition_fixpoint` bench includes this file through
//! `#[path]` to gate the interned build's speedup over it.  It is not part
//! of any library.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ilogic_temporal::pool::{Exhaustion, Parallelism, ResourceBudget, WorkerPool};
use ilogic_temporal::syntax::{Atom, Literal, Ltl};
use ilogic_temporal::tableau::{Edge, NodeId};

/// A graph built by the reference builder, in the public shapes of
/// `TableauGraph`.
#[derive(Clone, Debug)]
pub struct ReferenceGraph {
    /// Node label sets, by node id.
    pub labels: Vec<BTreeSet<Ltl>>,
    /// Edges, by edge id.
    pub edges: Vec<Edge>,
    /// Outgoing edge ids, by node id.
    pub outgoing: Vec<Vec<usize>>,
    /// The initial node.
    pub initial: NodeId,
    /// The distinct eventualities of the graph, ascending.
    pub eventualities: Vec<Ltl>,
}

/// One saturated expansion of a node label set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Expansion {
    literals: BTreeMap<Atom, bool>,
    next: BTreeSet<Ltl>,
    eventualities: BTreeSet<Ltl>,
    fulfilled: BTreeSet<Ltl>,
}

/// Builds `Graph(formula)` with the reference builder, under the same
/// budget and merge discipline as `TableauGraph::try_build_budgeted`.
pub fn build_reference(
    formula: &Ltl,
    budget: &ResourceBudget,
    parallelism: Parallelism,
) -> Result<ReferenceGraph, Exhaustion> {
    let pool = WorkerPool::new(parallelism);
    let mut graph = ReferenceGraph {
        labels: Vec::new(),
        edges: Vec::new(),
        outgoing: Vec::new(),
        initial: 0,
        eventualities: Vec::new(),
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
    let mut all: BTreeSet<&Ltl> = BTreeSet::new();
    for edge in &graph.edges {
        all.extend(edge.eventualities.iter());
    }
    graph.eventualities = all.into_iter().cloned().collect();
    Ok(graph)
}

impl ReferenceGraph {
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
}

/// Expands every node of one BFS level, striping the nodes across the worker
/// pool, and returns the expansion lists in level order.
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
