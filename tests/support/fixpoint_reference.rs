//! The Appendix B §5.3 condition fixpoints that `ilogic_temporal::algorithm_b`
//! ran before its semi-naive worklist engine, kept as test-only references:
//!
//! * [`condition_full_sweep`] — the full (Jacobi) sweep over the interned
//!   `ConditionStore`: every round re-evaluates *every* equation of the
//!   component until none changes, sequentially in task order.  Its ids,
//!   budget charges and trip reasons are the worklist engine's; only the
//!   `memo_hits`/`rounds`/`equations_*` counters legitimately differ.  It
//!   also records the `∧` products it had to compute (memo misses), which
//!   the absorption gate of the `condition_fixpoint` bench replays.
//! * [`evaluate_full_sweep`] — the same sweep over plain Booleans, with the
//!   per-edge `BTreeSet<Ltl>` fulfillment lookups and the per-call SCC pass
//!   of the original hot loop.
//! * [`condition_baseline`] — the `BTreeSet` fixpoint over explicit `Dnf`
//!   values, re-cloned and re-absorbed at every product, cut by the
//!   pre-absorption estimate of [`all_bounded_estimated`] instead of the
//!   store's distinct-implicant accounting.
//!
//! `crates/temporal/tests/worklist_fixpoint.rs` and `dnf_store.rs` compare
//! the engine against them, and the `condition_fixpoint` bench includes this
//! file through `#[path]` to time the engine against them.  It is not part
//! of any library.

#![allow(dead_code)]

use std::collections::BTreeMap;

use ilogic_temporal::algorithm_b::strongly_connected_components;
use ilogic_temporal::dnf::store::{ConditionStore, DnfId, StoreStats};
use ilogic_temporal::dnf::{Dnf, DnfBudget};
use ilogic_temporal::pool::{Exhaustion, ResourceBudget};
use ilogic_temporal::tableau::{NodeId, TableauGraph};

/// One `∧` product the full sweep had to compute (a memo miss).
#[derive(Clone, Copy, Debug)]
pub struct Product {
    /// The left operand: the fold's accumulator.
    pub lhs: DnfId,
    /// The right operand: the equation's next per-edge term.
    pub rhs: DnfId,
    /// `|lhs| · |rhs|`, the nominal pair count.
    pub pairs: usize,
}

/// The outcome of [`condition_full_sweep`].
#[derive(Debug)]
pub struct FullSweep {
    /// The condition `delete(init)`, or the exhaustion that tripped the
    /// budget.
    pub condition: Result<Dnf, Exhaustion>,
    /// Outer rounds of the double fixpoint iteration.
    pub outer_rounds: usize,
    /// The store the sweep ran on, holding every product it computed; its
    /// `stats()` are the run's counters on either outcome.
    pub store: ConditionStore,
    /// Every `∧` product that missed the memo tables, in computation order.
    pub products: Vec<Product>,
}

/// Trips `cell` if `budget`'s deadline or cancellation token fired; `true`
/// when the cell is (now) tripped.
fn interrupted(cell: &DnfBudget, budget: &ResourceBudget) -> bool {
    if !cell.tripped() {
        if let Some(cut) = budget.interrupted() {
            cell.trip_with(cut);
        }
    }
    cell.tripped()
}

/// Why `cell` tripped.
fn cut(cell: &DnfBudget) -> Exhaustion {
    cell.exhaustion().unwrap_or(Exhaustion::Implicants)
}

/// The full-sweep (Jacobi) condition fixpoint of `graph` through the public
/// [`ConditionStore`] API, one worker: per component, reset `fail` to `⊤`,
/// sweep the `fail` equations to their greatest fixpoint and the `delete`
/// equations to their least, and repeat while a `delete` value moved.
pub fn condition_full_sweep(graph: &TableauGraph, budget: &ResourceBudget) -> FullSweep {
    let cell = DnfBudget::from_budget(budget);
    let mut store = ConditionStore::new();
    let mut products = Vec::new();
    let mut outer_rounds = 0;
    let outcome = full_sweep(graph, budget, &cell, &mut store, &mut products, &mut outer_rounds);
    let condition = outcome.map(|delete_init| store.extract(delete_init));
    FullSweep { condition, outer_rounds, store, products }
}

/// The body of [`condition_full_sweep`]: `delete(init)` as a store id, or
/// the exhaustion that tripped `cell`.
fn full_sweep(
    graph: &TableauGraph,
    budget: &ResourceBudget,
    cell: &DnfBudget,
    store: &mut ConditionStore,
    products: &mut Vec<Product>,
    outer_rounds: &mut usize,
) -> Result<DnfId, Exhaustion> {
    let n = graph.node_count();
    let eventualities = graph.eventualities();
    let ne = eventualities.len();
    let mut atoms = Vec::with_capacity(graph.edge_count());
    for eid in 0..graph.edge_count() {
        atoms.push(store.atom(eid, cell).ok_or_else(|| cut(cell))?);
    }
    let mut delete = vec![ConditionStore::BOTTOM; n];
    // fail(ev, node) at slot `ev_index * n + node`.
    let mut fail = vec![ConditionStore::TOP; n * ne];
    // One equation: `ev == None` is delete(node), `Some(ei)` is fail(ei, node).
    let equation = |store: &mut ConditionStore,
                    products: &mut Vec<Product>,
                    delete: &[DnfId],
                    fail: &[DnfId],
                    node: NodeId,
                    ev: Option<usize>|
     -> Option<DnfId> {
        let mut terms = Vec::new();
        for &eid in graph.outgoing(node) {
            let edge = graph.edge(eid);
            let or = |store: &mut ConditionStore, a, b| (!cell.tripped()).then(|| store.or(a, b));
            let mut term = or(store, atoms[eid], delete[edge.to])?;
            for (ei, eventuality) in eventualities.iter().enumerate() {
                let read = match ev {
                    None => edge.eventualities.contains(eventuality),
                    Some(target) => ei == target && !edge.fulfilled.contains(eventuality),
                };
                if read {
                    term = or(store, term, fail[ei * n + edge.to])?;
                }
            }
            terms.push(term);
        }
        if terms.contains(&ConditionStore::BOTTOM) {
            return Some(ConditionStore::BOTTOM);
        }
        let mut acc = ConditionStore::TOP;
        for term in terms {
            if cell.tripped() {
                return None;
            }
            let misses = store.stats().memo_misses;
            let (lhs, rhs) = (acc, term);
            acc = store.and(lhs, rhs, cell)?;
            if store.stats().memo_misses > misses {
                let pairs = store.width(lhs) * store.width(rhs);
                products.push(Product { lhs, rhs, pairs });
            }
        }
        Some(acc)
    };
    for component in strongly_connected_components(graph) {
        let fail_tasks: Vec<(NodeId, usize)> =
            component.iter().flat_map(|&node| (0..ne).map(move |ei| (node, ei))).collect();
        loop {
            *outer_rounds += 1;
            for &node in &component {
                for ei in 0..ne {
                    fail[ei * n + node] = ConditionStore::TOP;
                }
            }
            loop {
                if interrupted(cell, budget) {
                    return Err(cut(cell));
                }
                store.record_sweep(fail_tasks.len() as u64, 0);
                let mut updates = Vec::with_capacity(fail_tasks.len());
                for &(node, ei) in &fail_tasks {
                    let value = equation(store, products, &delete, &fail, node, Some(ei));
                    updates.push(value.ok_or_else(|| cut(cell))?);
                }
                let mut changed = false;
                for (&(node, ei), value) in fail_tasks.iter().zip(updates) {
                    changed |= std::mem::replace(&mut fail[ei * n + node], value) != value;
                }
                if !changed {
                    break;
                }
            }
            let mut delete_changed = false;
            loop {
                if interrupted(cell, budget) {
                    return Err(cut(cell));
                }
                store.record_sweep(component.len() as u64, 0);
                let mut updates = Vec::with_capacity(component.len());
                for &node in &component {
                    let value = equation(store, products, &delete, &fail, node, None);
                    updates.push(value.ok_or_else(|| cut(cell))?);
                }
                let mut changed = false;
                for (&node, value) in component.iter().zip(updates) {
                    changed |= std::mem::replace(&mut delete[node], value) != value;
                }
                delete_changed |= changed;
                if !changed {
                    break;
                }
            }
            if !delete_changed {
                break;
            }
        }
    }
    Ok(delete[graph.initial()])
}

/// The Boolean projection of the full sweep: `delete(init)` evaluated at the
/// atom assignment `atom_true` (indexed by edge id) by full Jacobi sweeps —
/// every component equation re-evaluated every round until an unchanged
/// round — with per-edge `BTreeSet<Ltl>` fulfillment lookups.  Reports
/// `rounds`/`equations_evaluated` like the engine (`equations_skipped` zero
/// by construction; nothing is ever interned).
pub fn evaluate_full_sweep(
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

/// The `BTreeSet` condition fixpoint: the same Jacobi sweeps and SCC
/// acceleration as [`condition_full_sweep`], over explicit [`Dnf`] values
/// and cut by [`all_bounded_estimated`].  Reports its `rounds` and
/// `equations_evaluated` (interning counters zero, `equations_skipped` zero
/// by construction) so the differential tests can compare convergence.
pub fn condition_baseline(
    graph: &TableauGraph,
    budget: &ResourceBudget,
) -> (Result<Dnf, Exhaustion>, StoreStats) {
    let cell = DnfBudget::from_budget(budget);
    let mut stats = StoreStats::default();
    let result = baseline(graph, budget, &cell, &mut stats);
    (result, stats)
}

/// The body of [`condition_baseline`].
fn baseline(
    graph: &TableauGraph,
    budget: &ResourceBudget,
    cell: &DnfBudget,
    stats: &mut StoreStats,
) -> Result<Dnf, Exhaustion> {
    let n = graph.node_count();
    let eventualities = graph.eventualities();
    let sccs = strongly_connected_components(graph);

    let mut delete: Vec<Dnf> = vec![Dnf::bottom(); n];
    let mut fail: BTreeMap<(usize, NodeId), Dnf> = BTreeMap::new();
    for ei in 0..eventualities.len() {
        for node in 0..n {
            fail.insert((ei, node), Dnf::top());
        }
    }

    for component in &sccs {
        let fail_tasks: Vec<(NodeId, usize)> = component
            .iter()
            .flat_map(|&node| (0..eventualities.len()).map(move |ei| (node, ei)))
            .collect();
        loop {
            for &node in component {
                for ei in 0..eventualities.len() {
                    fail.insert((ei, node), Dnf::top());
                }
            }
            loop {
                if interrupted(cell, budget) {
                    return Err(cut(cell));
                }
                stats.rounds += 1;
                stats.equations_evaluated += fail_tasks.len() as u64;
                let mut updates = Vec::with_capacity(fail_tasks.len());
                for &(node, ei) in &fail_tasks {
                    let value = baseline_equation(graph, node, Some(ei), &delete, &fail, cell);
                    updates.push(value.ok_or_else(|| cut(cell))?);
                }
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
                if interrupted(cell, budget) {
                    return Err(cut(cell));
                }
                stats.rounds += 1;
                stats.equations_evaluated += component.len() as u64;
                let mut updates = Vec::with_capacity(component.len());
                for &node in component {
                    let value = baseline_equation(graph, node, None, &delete, &fail, cell);
                    updates.push(value.ok_or_else(|| cut(cell))?);
                }
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
    Ok(delete[graph.initial()].clone())
}

/// One equation of the §5.3 system over explicit DNFs; `ev == None` is
///
/// * delete(N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ ∨_{A ∈ ev(e)} fail(A, fin(e)) )
///
/// and `Some(ei)` is, for the eventuality `A` with index `ei`,
///
/// * fail(A, N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ \[A not satisfied by e ∧ fail(A, fin(e))\] )
fn baseline_equation(
    graph: &TableauGraph,
    node: NodeId,
    ev: Option<usize>,
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
            for (ei, eventuality) in graph.eventualities().iter().enumerate() {
                let read = match ev {
                    None => edge.eventualities.contains(eventuality),
                    Some(target) => ei == target && !edge.fulfilled.contains(eventuality),
                };
                if read {
                    term = term.or(&fail[&(ei, edge.to)]);
                }
            }
            term
        })
        .collect();
    all_bounded_estimated(terms, budget)
}

/// The conjunction of `terms` under the pre-absorption estimate cut: `None`
/// (tripping `budget`) when `Π max(1, |termᵢ|)` exceeds the implicant
/// limit, or when another sharer already tripped it.
///
/// The estimate is a sound but badly conservative cut: it bounds every
/// intermediate and final implicant count, so an accepted estimate caps the
/// computation's cost — but it also trips on products absorption would have
/// collapsed, which is what made the nested weak-until condition fixpoints
/// answer `Unknown` at every budget from 10⁴ to 10⁷ implicants.
pub fn all_bounded_estimated(terms: Vec<Dnf>, budget: &DnfBudget) -> Option<Dnf> {
    if budget.tripped() {
        return None;
    }
    if !budget.is_unbounded() {
        let estimate = terms.iter().try_fold(1usize, |acc, term| {
            acc.checked_mul(term.implicant_count().max(1)).filter(|&est| est <= budget.limit())
        });
        if estimate.is_none() {
            budget.trip();
            return None;
        }
    }
    let mut acc = Dnf::top();
    for term in &terms {
        if budget.tripped() {
            return None;
        }
        acc = acc.and(term);
    }
    debug_assert!(
        budget.is_unbounded() || acc.implicant_count() <= budget.limit(),
        "a canonical product can never exceed its accepted pre-absorption estimate"
    );
    Some(acc)
}
