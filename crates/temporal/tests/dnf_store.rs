//! Differential tests for the interned condition store (ISSUE 5).
//!
//! The legacy `BTreeSet`-backed [`Dnf`] is the executable specification:
//! every interned operation — `∧`, `∨`, absorption-on-construction,
//! canonical extraction — must agree with it on random monotone DNFs, the
//! budgeted entry points must trip for the same reason at the same
//! distinct-implicant charge however the work is phrased, and the
//! store-backed condition fixpoint must compute the same condition as the
//! PR 3 baseline wherever neither trips.

use ilogic_temporal::algorithm_b::{
    condition_of_graph_baseline, condition_of_graph_budgeted_stats,
};
use ilogic_temporal::dnf::store::ConditionStore;
use ilogic_temporal::dnf::{Dnf, DnfBudget};
use ilogic_temporal::patterns;
use ilogic_temporal::pool::{Exhaustion, Parallelism, ResourceBudget};
use ilogic_temporal::syntax::Ltl;
use ilogic_temporal::tableau::TableauGraph;
use proptest::collection::vec;
use proptest::prelude::*;

/// A random (automatically canonical: absorption happens in `or`/`and`)
/// monotone DNF over a small atom universe — small enough that products
/// collide and absorb, which is exactly the regime the store's shortcuts
/// must not get wrong.
fn dnf_strategy() -> impl Strategy<Value = Dnf> {
    vec(vec(any::<u8>(), 1..4), 0..5).prop_map(|implicants| {
        implicants.into_iter().fold(Dnf::bottom(), |acc, atoms| {
            let implicant = atoms
                .into_iter()
                .fold(Dnf::top(), |imp, a| imp.and(&Dnf::atom(usize::from(a) % 12)));
            acc.or(&implicant)
        })
    })
}

/// Runs `op` against a fresh unbounded store and hands back its explicit
/// result.
fn via_store(op: impl FnOnce(&mut ConditionStore, &DnfBudget) -> Option<Dnf>) -> Dnf {
    let mut store = ConditionStore::new();
    let budget = DnfBudget::unbounded();
    op(&mut store, &budget).expect("unbounded store ops cannot trip")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interning then extracting is the identity on canonical DNFs.
    #[test]
    fn interning_round_trips(dnf in dnf_strategy()) {
        let mut store = ConditionStore::new();
        let budget = DnfBudget::unbounded();
        let id = store.intern_dnf(&dnf, &budget).expect("unbounded");
        prop_assert_eq!(store.extract(id), dnf.clone());
        // Re-interning the extraction lands on the same id: canonicity.
        let again = store.intern_dnf(&store.extract(id).clone(), &budget).expect("unbounded");
        prop_assert_eq!(id, again);
    }

    /// Store conjunction ≡ legacy conjunction (absorption included).
    #[test]
    fn store_and_agrees_with_legacy(a in dnf_strategy(), b in dnf_strategy()) {
        let expected = a.and(&b);
        let got = via_store(|store, budget| {
            let ia = store.intern_dnf(&a, budget)?;
            let ib = store.intern_dnf(&b, budget)?;
            let result = store.and(ia, ib, budget)?;
            Some(store.extract(result))
        });
        prop_assert_eq!(got, expected);
    }

    /// Store disjunction ≡ legacy disjunction (absorption included).
    #[test]
    fn store_or_agrees_with_legacy(a in dnf_strategy(), b in dnf_strategy()) {
        let expected = a.or(&b);
        let got = via_store(|store, budget| {
            let ia = store.intern_dnf(&a, budget)?;
            let ib = store.intern_dnf(&b, budget)?;
            let result = store.or(ia, ib);
            Some(store.extract(result))
        });
        prop_assert_eq!(got, expected);
    }

    /// `Dnf::all_bounded` (through the store) ≡ the unbudgeted legacy fold,
    /// and ≡ the estimate-cut baseline wherever the baseline answers.
    #[test]
    fn bounded_products_agree_with_legacy(terms in vec(dnf_strategy(), 0..5)) {
        let expected = Dnf::all(terms.clone());
        let unbounded = DnfBudget::unbounded();
        prop_assert_eq!(
            Dnf::all_bounded(terms.clone(), &unbounded),
            Some(expected.clone())
        );
        let baseline_budget = DnfBudget::unbounded();
        prop_assert_eq!(
            Dnf::all_bounded_estimated(terms.clone(), &baseline_budget),
            Some(expected)
        );
    }

    /// Budget-trip equivalence: for any term list and any cap, the interned
    /// product either completes identically to the unbudgeted fold or trips
    /// with `Exhaustion::Implicants` — and whether it trips is a pure
    /// function of the distinct-implicant charge, so re-running the same
    /// product against the same cap reproduces the same reason at the same
    /// charge.
    #[test]
    fn budget_trips_are_deterministic(terms in vec(dnf_strategy(), 0..5), cap_raw in any::<u8>()) {
        let cap = usize::from(cap_raw) % 24;
        let first = DnfBudget::new(cap);
        let first_result = Dnf::all_bounded(terms.clone(), &first);
        let second = DnfBudget::new(cap);
        let second_result = Dnf::all_bounded(terms.clone(), &second);
        prop_assert_eq!(first_result.clone(), second_result);
        prop_assert_eq!(first.charged(), second.charged(), "same charge on both runs");
        match first_result {
            Some(result) => {
                prop_assert_eq!(result, Dnf::all(terms));
                prop_assert!(!first.tripped());
                prop_assert!(first.charged() <= cap);
            }
            None => {
                prop_assert!(first.tripped());
                prop_assert_eq!(first.exhaustion(), Some(Exhaustion::Implicants));
            }
        }
    }

    /// A looser cap never changes a completed answer (budget monotonicity at
    /// the DNF level).
    #[test]
    fn looser_caps_preserve_answers(terms in vec(dnf_strategy(), 0..4), cap_raw in any::<u8>()) {
        let cap = usize::from(cap_raw) % 16;
        let tight = DnfBudget::new(cap);
        let tight_result = Dnf::all_bounded(terms.clone(), &tight);
        let loose = DnfBudget::new(cap.saturating_mul(4).saturating_add(16));
        let loose_result = Dnf::all_bounded(terms, &loose);
        if let Some(result) = tight_result {
            prop_assert_eq!(Some(result), loose_result);
        }
    }
}

/// The store-backed condition fixpoint and the PR 3 `BTreeSet` baseline
/// compute the same condition (same implicants, same top/bottom answers) on
/// the tractable pattern formulas, at every worker count.
#[test]
fn store_fixpoint_matches_baseline_on_pattern_formulas() {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    for n in 1..=3 {
        formulas.push((format!("chain{n}"), patterns::eventuality_chain(n)));
    }
    formulas.push(("ladder2".to_string(), patterns::response_ladder(2)));
    for (label, formula) in formulas {
        let graph = |label: &str| {
            TableauGraph::try_build_budgeted(
                &formula.clone().not(),
                &ResourceBudget::default(),
                Parallelism::Off,
            )
            .unwrap_or_else(|cut| panic!("{label}: tableau build tripped {cut}"))
        };
        let baseline = condition_of_graph_baseline(
            graph(&label),
            &ResourceBudget::default(),
            Parallelism::Off,
        );
        for workers in [0usize, 2, 4] {
            let parallelism =
                if workers == 0 { Parallelism::Off } else { Parallelism::Fixed(workers) };
            let (store, _) = condition_of_graph_budgeted_stats(
                graph(&label),
                &ResourceBudget::default(),
                parallelism,
            );
            match (&baseline, &store) {
                (Ok(base), Ok(interned)) => {
                    assert_eq!(
                        base.dnf(),
                        interned.dnf(),
                        "{label}: conditions diverge at {workers} workers"
                    );
                    assert!(
                        interned.store_stats().interned_implicants > 0,
                        "{label}: the interned path must report its counters"
                    );
                }
                (Err(base_cut), Err(store_cut)) => {
                    // Both tripped: the *reasons* agree even though the two
                    // budgets measure different quantities.
                    assert_eq!(base_cut, store_cut, "{label} at {workers} workers");
                }
                // The interned path completing where the estimate cut gave up
                // is the point of the rewrite.
                (Err(_), Ok(_)) => {}
                (Ok(_), Err(cut)) => panic!(
                    "{label}: the interned fixpoint tripped ({cut}) at {workers} workers on a \
                     condition the BTreeSet baseline completes"
                ),
            }
        }
    }
}
