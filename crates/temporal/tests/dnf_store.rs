//! Differential tests for the interned condition store (ISSUE 5).
//!
//! The legacy `BTreeSet`-backed [`Dnf`] is the executable specification:
//! every interned operation — `∧`, `∨`, absorption-on-construction,
//! canonical extraction — must agree with it on random monotone DNFs, the
//! budgeted entry points must trip for the same reason at the same
//! distinct-implicant charge however the work is phrased, and the
//! store-backed condition fixpoint must compute the same condition as the
//! `BTreeSet` baseline (kept in `tests/support/fixpoint_reference.rs`, with
//! its pre-absorption estimate cut) wherever neither trips.
//!
//! The store's size-ordered, indexed absorption kernel is also checked
//! against the bitset-antichain product it replaced (kept in
//! `tests/support/bit_antichain.rs`) on seeded random DNFs over atom
//! universes on both sides of every word boundary, its budget trip point is
//! pinned to the exact count of new survivors, and the full `StoreStats` of
//! two budget-tripping condition artifacts are pinned at every worker count.

use std::collections::BTreeSet;

use ilogic_temporal::algorithm_b::condition_of_graph_budgeted_stats;
use ilogic_temporal::dnf::store::{ConditionStore, DnfId, StoreStats};
use ilogic_temporal::dnf::{Dnf, DnfBudget};
use ilogic_temporal::patterns;
use ilogic_temporal::pool::{Exhaustion, Parallelism, ResourceBudget};
use ilogic_temporal::syntax::Ltl;
use ilogic_temporal::tableau::TableauGraph;
use proptest::collection::vec;
use proptest::prelude::*;

#[path = "../../../tests/support/bit_antichain.rs"]
mod bit_antichain;

#[path = "../../../tests/support/fixpoint_reference.rs"]
mod fixpoint_reference;

use fixpoint_reference::{all_bounded_estimated, condition_baseline};

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
            all_bounded_estimated(terms.clone(), &baseline_budget),
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

/// The estimate-cut baseline trips on its pre-absorption estimate where the
/// interned product charges distinct implicants: `(a ∨ b) ∧ (c ∨ d)`
/// explores 8 distinct implicants, but its estimate is 2 × 2 = 4.
#[test]
fn estimate_cut_trips_on_the_pre_absorption_product() {
    let terms = || vec![Dnf::atom(1).or(&Dnf::atom(2)), Dnf::atom(3).or(&Dnf::atom(4))];
    let result = Dnf::all_bounded(terms(), &DnfBudget::new(8)).expect("8 distinct implicants fit");
    let baseline = DnfBudget::new(3);
    assert_eq!(all_bounded_estimated(terms(), &baseline), None);
    assert!(baseline.tripped());
    let baseline_fit = DnfBudget::new(4);
    assert_eq!(
        all_bounded_estimated(terms(), &baseline_fit).as_ref(),
        Some(&result),
        "baseline and interned paths agree whenever neither trips"
    );
}

/// The store-backed condition fixpoint and the `BTreeSet` baseline
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
        let graph = TableauGraph::try_build_budgeted(
            &formula.clone().not(),
            &ResourceBudget::default(),
            Parallelism::Off,
        )
        .unwrap_or_else(|cut| panic!("{label}: tableau build tripped {cut}"));
        let (baseline, _) = condition_baseline(&graph, &ResourceBudget::default());
        for workers in [0usize, 2, 4] {
            let parallelism =
                if workers == 0 { Parallelism::Off } else { Parallelism::Fixed(workers) };
            let (store, _) = condition_of_graph_budgeted_stats(
                graph.clone(),
                &ResourceBudget::default(),
                parallelism,
            );
            match (&baseline, &store) {
                (Ok(base), Ok(interned)) => {
                    assert_eq!(
                        base,
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

/// SplitMix64: a tiny seeded generator, so every differential case below is
/// replayable from its seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A random implicant of up to `max_len` atoms below `universe` (sometimes
/// the empty implicant, which makes its DNF `true`).
fn random_implicant(rng: &mut SplitMix, universe: usize, max_len: usize) -> BTreeSet<usize> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| rng.below(universe)).collect()
}

/// A canonical DNF of the given implicants (absorbed by the legacy `or`).
fn dnf_of(implicants: impl IntoIterator<Item = BTreeSet<usize>>) -> Dnf {
    implicants.into_iter().fold(Dnf::bottom(), |acc, implicant| {
        acc.or(&implicant.into_iter().fold(Dnf::top(), |imp, atom| imp.and(&Dnf::atom(atom))))
    })
}

/// A random operand pair over `universe` atoms.  The second operand reuses
/// implicants of the first verbatim (duplicates across operands), extends
/// some of them by a few atoms (nested supersets), and adds fresh ones; the
/// empty implicant turns up now and then on either side.
fn random_operands(rng: &mut SplitMix, universe: usize) -> (Dnf, Dnf) {
    let max_len = 1 + rng.below(6);
    let width = rng.below(24);
    let mut first = Vec::new();
    for _ in 0..width {
        let implicant = random_implicant(rng, universe, max_len);
        if !implicant.is_empty() || rng.below(8) == 0 {
            first.push(implicant);
        }
    }
    let mut second = Vec::new();
    for implicant in &first {
        match rng.below(4) {
            0 => second.push(implicant.clone()),
            1 => {
                let mut superset = implicant.clone();
                superset.extend(random_implicant(rng, universe, 3));
                second.push(superset);
            }
            _ => {}
        }
    }
    for _ in 0..rng.below(16) {
        let implicant = random_implicant(rng, universe, max_len);
        if !implicant.is_empty() || rng.below(8) == 0 {
            second.push(implicant);
        }
    }
    (dnf_of(first), dnf_of(second))
}

/// A DNF's implicants as sorted atom lists, the reference product's input.
fn atom_lists(dnf: &Dnf) -> Vec<Vec<u32>> {
    dnf.implicants().map(|imp| imp.iter().map(|&atom| atom as u32).collect()).collect()
}

/// The reference product's output as a canonical `Dnf`.
fn dnf_of_lists(lists: Vec<Vec<u32>>) -> Dnf {
    dnf_of(lists.into_iter().map(|imp| imp.into_iter().map(|atom| atom as usize).collect()))
}

/// The atom universes the kernel is checked over: a single atom, both sides
/// of the first and second word boundaries, and the width of the
/// `[ => r ] []q` tableau.
const UNIVERSES: [usize; 6] = [1, 63, 64, 65, 200, 3_400];

/// The store's `∧`/`∨` agree with the legacy `Dnf` operations and with the
/// bitset-antichain reference on seeded random DNFs, both in a fresh store
/// per case and in one long-lived store whose scratch buffers every
/// product, over every universe, reuses.
#[test]
fn absorption_kernel_agrees_with_legacy_and_reference_over_every_universe() {
    let budget = DnfBudget::unbounded();
    let mut shared = ConditionStore::new();
    for universe in UNIVERSES {
        let mut rng = SplitMix(0x5eed ^ universe as u64);
        for case in 0..150 {
            let (a, b) = random_operands(&mut rng, universe);
            let label = format!("universe {universe}, case {case}");
            let and_expected = a.and(&b);
            let or_expected = a.or(&b);
            assert_eq!(
                dnf_of_lists(bit_antichain::and_reference(&atom_lists(&a), &atom_lists(&b))),
                and_expected,
                "{label}: the reference ∧ disagrees with the legacy Dnf"
            );
            assert_eq!(
                dnf_of_lists(bit_antichain::or_reference(&atom_lists(&a), &atom_lists(&b))),
                or_expected,
                "{label}: the reference ∨ disagrees with the legacy Dnf"
            );
            let mut fresh = ConditionStore::new();
            for store in [&mut fresh, &mut shared] {
                let ia = store.intern_dnf(&a, &budget).expect("unbounded");
                let ib = store.intern_dnf(&b, &budget).expect("unbounded");
                let and = store.and(ia, ib, &budget).expect("unbounded");
                let or = store.or(ia, ib);
                assert_eq!(store.extract(and), and_expected, "{label}: store ∧");
                assert_eq!(store.extract(or), or_expected, "{label}: store ∨");
                // Canonicity: the product interned to the id of its value.
                assert_eq!(store.intern_dnf(&and_expected, &budget), Some(and), "{label}");
                assert_eq!(store.intern_dnf(&or_expected, &budget), Some(or), "{label}");
            }
        }
    }
}

/// A product chain through one store (each result feeding the next
/// product, as in the fixpoint's `all` folds) agrees with the legacy fold.
#[test]
fn chained_products_agree_with_the_legacy_fold() {
    let budget = DnfBudget::unbounded();
    for universe in UNIVERSES {
        let mut rng = SplitMix(0xc4a1 ^ universe as u64);
        let mut store = ConditionStore::new();
        let mut expected = Dnf::top();
        let mut acc = ConditionStore::TOP;
        for step in 0..12 {
            let (term, _) = random_operands(&mut rng, universe);
            let term = term.or(&Dnf::atom(rng.below(universe)));
            expected = expected.and(&term);
            let id = store.intern_dnf(&term, &budget).expect("unbounded");
            acc = store.and(acc, id, &budget).expect("unbounded");
            assert_eq!(store.extract(acc), expected, "universe {universe}, step {step}");
            if expected.implicant_count() > 400 {
                break;
            }
        }
    }
}

/// Two stores holding `a`, `b` and `pre_interned` products of `a`'s and
/// `b`'s atoms, so that `a ∧ b` has `new` survivors not yet interned.
fn trip_setup(pre_interned: usize) -> (ConditionStore, DnfId, DnfId, usize) {
    let budget = DnfBudget::unbounded();
    let mut store = ConditionStore::new();
    let left: Vec<DnfId> = (0..6).map(|atom| store.atom(atom, &budget).unwrap()).collect();
    let right: Vec<DnfId> = (10..15).map(|atom| store.atom(atom, &budget).unwrap()).collect();
    // Some pair implicants exist before the product: re-deriving them is
    // free, so they must not count towards the trip.
    for k in 0..pre_interned {
        store.and(left[k % 6], right[k % 5], &budget).unwrap();
    }
    let a = left.iter().fold(ConditionStore::BOTTOM, |acc, &atom| store.or(acc, atom));
    let b = right.iter().fold(ConditionStore::BOTTOM, |acc, &atom| store.or(acc, atom));
    let new = 6 * 5 - pre_interned;
    (store, a, b, new)
}

/// A product with `k` new survivors answers `Some` when exactly `k` charges
/// remain and `None` — the cell tripped for `Implicants` — with `k − 1`;
/// a trip leaves exactly `k − 1` of them interned.
#[test]
fn a_product_trips_exactly_at_its_new_survivor_count() {
    for pre_interned in [0, 1, 7, 29] {
        let (mut store, a, b, k) = trip_setup(pre_interned);
        let before = store.stats().interned_implicants;
        let enough = DnfBudget::new(k);
        let product = store.and(a, b, &enough).expect("k charges fit k new survivors");
        assert_eq!(store.width(product), 30);
        assert_eq!(enough.charged(), k, "{pre_interned} pre-interned: one charge per new survivor");
        assert!(!enough.tripped());
        assert_eq!(store.stats().interned_implicants, before + k);

        let (mut store, a, b, k) = trip_setup(pre_interned);
        let short = DnfBudget::new(k - 1);
        assert_eq!(store.and(a, b, &short), None, "{pre_interned} pre-interned: k − 1 charges");
        assert!(short.tripped());
        assert_eq!(short.exhaustion(), Some(Exhaustion::Implicants));
        assert_eq!(store.stats().interned_implicants, before + k - 1);
        assert_eq!(store.frozen().and(a, b), None, "a tripped product is not memoized");
    }
}

/// `~[ => r ] <>q` as the interval translation produces it: `q` never
/// holds up to (and at) the second `r`-to-`¬r` change.
fn not_eventually_within_next_r() -> Ltl {
    let (q, r) = (Ltl::prop("q"), Ltl::prop("r"));
    let at_r = q.clone().not().and(r.clone());
    let off_r = q.not().and(r.not());
    let next = off_r.clone().and(off_r.until(at_r.clone()).and(at_r.clone().eventually()));
    at_r.until(next.clone()).and(next.eventually())
}

/// `[ => r ] []q` as the interval translation produces it.
fn always_within_next_r() -> Ltl {
    let (q, r) = (Ltl::prop("q"), Ltl::prop("r"));
    let at_r = q.clone().and(r.clone());
    let off_r = q.and(r.clone().not());
    let next = off_r.clone().and(off_r.until(at_r.clone()).and(at_r.clone().eventually()));
    let no_change = r.clone().always().or(r.clone().until(r.not().always()));
    no_change.or(at_r.until(next.clone()).and(next.eventually()))
}

/// The full `StoreStats` of the two budget-tripping condition artifacts the
/// absorption kernel was rebuilt for, as the bitset-antichain store measured
/// them, at every worker count: the kernel may change how fast a product
/// is absorbed, never what is interned, memoized or charged.
#[test]
fn tripping_artifacts_keep_their_store_stats() {
    let stats = |implicants, dnfs, hits, misses, width, rounds, evaluated, skipped| StoreStats {
        interned_implicants: implicants,
        interned_dnfs: dnfs,
        memo_hits: hits,
        memo_misses: misses,
        peak_dnf_width: width,
        rounds,
        equations_evaluated: evaluated,
        equations_skipped: skipped,
    };
    let cases = [
        (
            "~[ => r ] <>q",
            not_eventually_within_next_r(),
            (13, 195),
            stats(10_000, 1_085, 3_950, 1_164, 3_434, 73, 166, 28),
        ),
        (
            "[ => r ] []q",
            always_within_next_r(),
            (97, 3_362),
            stats(10_000, 3_601, 2_722, 389, 1_737, 82, 242, 72),
        ),
    ];
    let budget = ResourceBudget::default();
    for (label, formula, shape, expected) in cases {
        let graph = TableauGraph::try_build_budgeted(&formula.not(), &budget, Parallelism::Off)
            .unwrap_or_else(|cut| panic!("{label}: tableau build tripped {cut}"));
        assert_eq!((graph.node_count(), graph.edge_count()), shape, "{label}: tableau shape");
        for workers in [0usize, 2, 4] {
            let parallelism =
                if workers == 0 { Parallelism::Off } else { Parallelism::Fixed(workers) };
            let (outcome, got) =
                condition_of_graph_budgeted_stats(graph.clone(), &budget, parallelism);
            assert_eq!(outcome.err(), Some(Exhaustion::Implicants), "{label} at {workers} workers");
            assert_eq!(got, expected, "{label}: store stats at {workers} workers");
        }
    }
}
