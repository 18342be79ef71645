//! Differential suite: the closure-interned tableau builder against the
//! `Ltl`-tree builder it replaced (kept verbatim in
//! `tests/support/tableau_reference.rs`).
//!
//! The interned builder numbers its closure in `Ltl` order so that its
//! pending-stack discipline, and with it every node and edge id, is the
//! tree builder's.  This suite pins that claim: node labels, edges (source,
//! target, literals, eventualities, fulfilled), `outgoing`, `initial` and
//! `eventualities()` are equal, at `Parallelism::Off`, `Fixed(2)` and
//! `Fixed(4)`, and the `Err(Nodes)` / `Err(Edges)` answers agree at the exact
//! `max_nodes` / `max_edges` trip points.  Coverage: the Appendix B pattern
//! table, ladder2/3, chain3, the prefix-invariance formula, and 1,000
//! `FormulaGenerator` formulas translated to LTL.

#[path = "support/tableau_reference.rs"]
mod tableau_reference;

use ilogic::core::dsl::*;
use ilogic::core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic::core::ltl_translate::to_ltl;
use ilogic::core::pool::{Exhaustion, Parallelism, ResourceBudget};
use ilogic::temporal::patterns;
use ilogic::temporal::prelude::Ltl;
use ilogic::temporal::tableau::TableauGraph;
use tableau_reference::{build_reference, ReferenceGraph};

/// The worker counts every comparison runs at.
const PARALLELISMS: [Parallelism; 3] =
    [Parallelism::Off, Parallelism::Fixed(2), Parallelism::Fixed(4)];

/// Generator formulas compared (translated to LTL, then negated as the
/// decision procedure builds them).
const GENERATED: usize = 1000;

fn named_formulas() -> Vec<(String, Ltl)> {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    formulas.push(("ladder2".into(), patterns::response_ladder(2)));
    formulas.push(("ladder3".into(), patterns::response_ladder(3)));
    formulas.push(("chain3".into(), patterns::eventuality_chain(3)));
    let prefix_invariance = always(prop("P")).within(fwd_to(event(prop("Q"))));
    formulas.push(("prefix_invariance".into(), to_ltl(&prefix_invariance).unwrap()));
    formulas
}

/// Asserts `graph` is the reference graph, node for node and edge for edge.
fn assert_same_graph(label: &str, reference: &ReferenceGraph, graph: &TableauGraph) {
    assert_eq!(graph.initial(), reference.initial, "{label}: initial node");
    assert_eq!(graph.node_count(), reference.labels.len(), "{label}: node count");
    assert_eq!(graph.edge_count(), reference.edges.len(), "{label}: edge count");
    for (node, expected) in reference.labels.iter().enumerate() {
        assert_eq!(graph.label(node), expected, "{label}: label of node {node}");
        assert_eq!(graph.outgoing(node), reference.outgoing[node], "{label}: outgoing of {node}");
    }
    for (id, expected) in reference.edges.iter().enumerate() {
        assert_eq!(graph.edge(id), expected, "{label}: edge {id}");
    }
    assert_eq!(graph.eventualities(), reference.eventualities, "{label}: eventualities");
}

/// Compares the two builders on `formula` under `budget` at every worker
/// count: the same graph, or the same `Err`.  Returns the reference answer.
fn compare(
    label: &str,
    formula: &Ltl,
    budget: &ResourceBudget,
) -> Result<ReferenceGraph, Exhaustion> {
    let reference = build_reference(formula, budget, Parallelism::Off);
    for parallelism in PARALLELISMS {
        let label = format!("{label} at {parallelism:?}");
        let built = TableauGraph::try_build_budgeted(formula, budget, parallelism);
        match (&reference, &built) {
            (Ok(reference), Ok(graph)) => assert_same_graph(&label, reference, graph),
            (reference, built) => assert_eq!(
                reference.as_ref().err(),
                built.as_ref().err(),
                "{label}: the builders disagree on exhaustion"
            ),
        }
    }
    reference
}

/// Compares the builders on either side of the exact node and edge trip
/// points of `formula`'s full graph.
fn compare_trip_points(label: &str, formula: &Ltl) {
    let full = compare(label, formula, &ResourceBudget::default())
        .unwrap_or_else(|cut| panic!("{label}: fits the default caps, tripped {cut}"));
    let (nodes, edges) = (full.labels.len(), full.edges.len());
    for max_nodes in [nodes.saturating_sub(1), nodes, nodes / 2] {
        let budget = ResourceBudget::unbounded().with_max_nodes(max_nodes);
        let answer = compare(&format!("{label} max_nodes={max_nodes}"), formula, &budget);
        assert_eq!(answer.is_ok(), max_nodes >= nodes, "{label}: node trip point");
    }
    for max_edges in [edges.saturating_sub(1), edges, edges / 2] {
        let budget = ResourceBudget::unbounded().with_max_edges(max_edges);
        let answer = compare(&format!("{label} max_edges={max_edges}"), formula, &budget);
        assert_eq!(answer.is_ok(), max_edges >= edges, "{label}: edge trip point");
    }
}

#[test]
fn named_formulas_build_the_reference_graph() {
    for (name, formula) in named_formulas() {
        compare_trip_points(&name, &formula);
        compare_trip_points(&format!("~{name}"), &formula.clone().not());
    }
}

#[test]
fn generated_formulas_build_the_reference_graph() {
    let mut generator = FormulaGenerator::from_seed(977, GeneratorConfig::default());
    let budget = ResourceBudget::default();
    let mut built = 0;
    for i in 0..GENERATED {
        let formula = generator.next_formula();
        let Ok(ltl) = to_ltl(&formula) else {
            continue;
        };
        if compare(&format!("generated #{i}: {formula}"), &ltl.not(), &budget).is_ok() {
            built += 1;
        }
    }
    // About half of the draws translate to LTL and fit the default caps
    // (477 at this seed); the rest compare as `Err` answers or are skipped.
    assert!(built > GENERATED / 3, "only {built} of {GENERATED} generated formulas built");
}

#[test]
fn edge_cases_build_the_reference_graph() {
    let p = || Ltl::prop("P");
    let cases = [
        ("true", Ltl::True),
        ("false", Ltl::False),
        ("~true", Ltl::Not(Box::new(Ltl::True))),
        ("~false", Ltl::Not(Box::new(Ltl::False))),
        ("~~P", Ltl::Not(Box::new(Ltl::Not(Box::new(p()))))),
        ("P & ~P", p().and(p().not())),
        ("~(P & ~P)", Ltl::Not(Box::new(p().and(p().not())))),
        ("U(P, ~P)", p().until(p().not())),
        ("~U(P, o~P)", p().until(p().not().next()).not()),
        ("o o ~[]P", p().always().not().next().next()),
    ];
    for (name, formula) in cases {
        compare(name, &formula, &ResourceBudget::default())
            .unwrap_or_else(|cut| panic!("{name}: tripped {cut}"));
    }
}
