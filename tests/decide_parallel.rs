//! Parallel/sequential consistency of the `Decide` backend and the temporal
//! decision engines behind it.
//!
//! PR 2 established the contract for `Bounded`/`Explore`/`Spec`; this suite
//! extends it to the last backend: `Decide` verdicts — `Holds`, the concrete
//! counterexample computation, and `Unknown` (outside the fragment or under
//! budget) alike — must be *identical* whatever the worker count, over the
//! shared parser corpus, the V1–V16 valid-formula catalogue, and the
//! Appendix B pattern formulas, for `Parallelism::Fixed(1..=4)`.

use ilogic::core::dsl::*;
use ilogic::core::parser::{parse_formula, CORPUS};
use ilogic::core::pool::Parallelism;
use ilogic::core::pool::ResourceBudget;
use ilogic::core::prelude::*;
use ilogic::core::valid;
use ilogic::temporal::algorithm_b::{AlgorithmB, Decision};
use ilogic::temporal::patterns;
use ilogic::temporal::prelude::{valid_pure, Ltl, PropositionalTheory, VarSpec};
use ilogic::temporal::tableau::{prune, prune_budgeted, TableauGraph};
use ilogic::{CheckRequest, Session};

/// Every interval-logic formula the suite sweeps through `Session::decide`:
/// the full parser corpus plus the catalogue.
fn all_formulas() -> Vec<(String, Formula)> {
    CORPUS
        .iter()
        .map(|source| {
            (source.to_string(), parse_formula(source).unwrap_or_else(|e| panic!("{source}: {e}")))
        })
        .chain(valid::catalogue().into_iter().map(|(name, f)| (name.to_string(), f)))
        .collect()
}

/// One `Decide` check of `formula` at the given parallelism.
fn decide_check(formula: &Formula, parallelism: Parallelism) -> ilogic::CheckReport {
    Session::new().check(CheckRequest::new(formula.clone()).decide().with_parallelism(parallelism))
}

/// The temporal-layer pattern formulas: the Appendix B §6 measurement table
/// plus small instances of the synthetic scaling families.
fn pattern_formulas() -> Vec<(String, Ltl)> {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    for n in 1..=3 {
        formulas.push((format!("chain{n}"), patterns::eventuality_chain(n)));
    }
    for n in 2..=3 {
        formulas.push((format!("ladder{n}"), patterns::response_ladder(n)));
    }
    formulas
}

/// `Session::decide` over the corpus and catalogue: every worker count
/// returns the sequential verdict, counterexample traces included.
#[test]
fn decide_backend_verdicts_are_worker_count_independent() {
    for (label, formula) in all_formulas() {
        let sequential = decide_check(&formula, Parallelism::Off);
        for workers in 1..=4 {
            let parallel = decide_check(&formula, Parallelism::Fixed(workers));
            assert_eq!(
                parallel.verdict, sequential.verdict,
                "decide({workers}) and sequential verdicts differ on {label}"
            );
        }
    }
}

/// The parallel tableau itself: node ids, edge ids, edge contents and the
/// pruned satisfiability answer are bit-identical at every worker count.
#[test]
fn parallel_tableau_graphs_are_bit_identical() {
    for (label, formula) in pattern_formulas() {
        let sequential = TableauGraph::try_build_budgeted(
            &formula.clone().not(),
            &ResourceBudget::default(),
            Parallelism::Off,
        );
        for workers in 1..=4 {
            let parallel = TableauGraph::try_build_budgeted(
                &formula.clone().not(),
                &ResourceBudget::default(),
                Parallelism::Fixed(workers),
            );
            match (&sequential, &parallel) {
                (Err(seq_cut), Err(par_cut)) => assert_eq!(seq_cut, par_cut, "{label}"),
                (Ok(seq), Ok(par)) => {
                    assert_eq!(seq.node_count(), par.node_count(), "{label} ({workers} workers)");
                    assert_eq!(seq.edges(), par.edges(), "{label} ({workers} workers)");
                    for node in 0..seq.node_count() {
                        assert_eq!(seq.label(node), par.label(node), "{label} node {node}");
                    }
                    let pruned_seq = prune(seq, &PropositionalTheory::new());
                    let pruned_par = prune_budgeted(
                        par,
                        &PropositionalTheory::new(),
                        Parallelism::Fixed(workers),
                        &ResourceBudget::unbounded(),
                    )
                    .expect("an unbudgeted prune cannot be interrupted");
                    for node in 0..seq.node_count() {
                        assert_eq!(
                            pruned_seq.node_alive(node),
                            pruned_par.node_alive(node),
                            "{label} node {node} aliveness ({workers} workers)"
                        );
                    }
                }
                _ => panic!("{label}: budget answers diverge at {workers} workers"),
            }
        }
    }
}

/// The budgeted condition fixpoint: `AlgorithmB::decide_budgeted` answers —
/// including the named exhaustion on a budget trip — are identical at every
/// worker count, both with the default budget and with a tight one that
/// trips.
#[test]
fn budgeted_algorithm_b_decisions_are_worker_count_independent() {
    let theory = PropositionalTheory::new();
    let budgets = [ResourceBudget::default(), ResourceBudget::default().with_max_implicants(2)];
    for (label, formula) in pattern_formulas() {
        for budget in &budgets {
            let sequential =
                AlgorithmB::new(&theory, VarSpec::all_state()).decide_budgeted(&formula, budget);
            for workers in 1..=4 {
                let parallel = AlgorithmB::new(&theory, VarSpec::all_state())
                    .with_parallelism(Parallelism::Fixed(workers))
                    .decide_budgeted(&formula, budget);
                assert_eq!(
                    parallel,
                    sequential,
                    "{label}: budgeted decision (max_implicants {}) diverges at {workers} workers",
                    budget.max_implicants()
                );
            }
        }
    }
}

/// The unbudgeted parallel procedure still agrees with the ground truth of
/// the `Iter` tableau check on the measurement-table formulas.
#[test]
fn parallel_algorithm_b_agrees_with_iter_on_the_measurement_table() {
    let theory = PropositionalTheory::new();
    for (label, formula) in patterns::appendix_b_table() {
        let expected = if valid_pure(&formula) { Decision::Valid } else { Decision::NotValid };
        for workers in [2, 4] {
            let decision = AlgorithmB::new(&theory, VarSpec::all_state())
                .with_parallelism(Parallelism::Fixed(workers))
                .decide(&formula);
            assert_eq!(decision, expected, "{label} at {workers} workers");
        }
    }
}

/// The measured `[ => Q ] []P` blowup, after the condition-store rewrite
/// (ISSUE 5): the *decision* now settles — `NotValid` via the evaluated
/// (Boolean-projected) fixpoint, in milliseconds, identically at every
/// worker count — while the *explicit condition* artifact still exceeds any
/// practical distinct-implicant budget and must trip it deterministically,
/// also identically at every worker count.
#[test]
fn prefix_invariance_budget_trip_is_worker_count_independent() {
    use ilogic::core::ltl_translate::to_ltl;
    let invalid_formula = always(prop("P")).within(fwd_to(event(prop("Q"))));
    let ltl = to_ltl(&invalid_formula).unwrap();
    let theory = PropositionalTheory::new();
    for workers in 0..=4 {
        let parallelism = if workers == 0 { Parallelism::Off } else { Parallelism::Fixed(workers) };
        let algorithm =
            AlgorithmB::new(&theory, VarSpec::all_state()).with_parallelism(parallelism);
        let started = std::time::Instant::now();
        assert_eq!(
            algorithm.decide_budgeted(&ltl, &ResourceBudget::default()),
            Ok(Decision::NotValid),
            "the evaluated fixpoint must refute identically at {workers} workers"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "the decision must stay fast at {workers} workers"
        );
        let started = std::time::Instant::now();
        assert_eq!(
            algorithm.condition_budgeted(&ltl, &ResourceBudget::default()).err(),
            Some(ilogic::core::pool::Exhaustion::Implicants),
            "the explicit condition must trip its budget identically at {workers} workers"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "the condition budget must trip fast at {workers} workers"
        );
    }
}
