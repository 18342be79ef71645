//! Exhaustive bounded-model validity checking.
//!
//! The interval logic is decidable (the report proves PSPACE membership via the
//! reduction of Appendix C), but the full decision procedure is of substantial
//! complexity.  For confirming the valid-formula catalogue of Chapter 4,
//! refuting non-theorems, and cross-checking the other engines of this
//! repository, an exhaustive search over *all* computations up to a bounded
//! length (over a finite proposition alphabet, with both stutter and lasso
//! extensions) is simple, exact for refutation, and strong evidence for
//! validity.
//!
//! A counterexample returned by [`BoundedChecker::counterexample`] is a genuine
//! counterexample to validity; absence of a counterexample up to the bound is
//! reported by [`BoundedChecker::valid_up_to_bound`].
//!
//! # Sharding
//!
//! The enumeration order is fixed and assigns every computation a *global
//! index* (`0..model_count()`).  [`BoundedChecker::shard`] carves the
//! enumeration into `n` interleaved slices — shard `i` yields exactly the
//! computations whose global index is `≡ i (mod n)` — so `n` workers sweep
//! disjoint slices of the same search space.  Combined with the
//! lowest-global-index-wins cancellation of [`crate::pool::Earliest`],
//! [`BoundedChecker::sweep_budgeted`] returns *bit-identical* verdicts to
//! the sequential sweep at every worker count: the same `Option<Trace>`, the
//! very same counterexample.

use crate::arena::{ArenaRead, FormulaArena, FormulaId, MemoEvaluator, MemoStats};
use crate::pool::{
    Earliest, Exhaustion, Parallelism, ResourceBudget, WorkerPool, INTERRUPT_POLL_PERIOD,
};
use crate::state::{Prop, State};
use crate::syntax::Formula;
use crate::trace::Trace;

/// Exhaustive enumerator of small computations over a finite proposition alphabet.
#[derive(Clone, Debug)]
pub struct BoundedChecker {
    props: Vec<String>,
    max_len: usize,
    include_lassos: bool,
}

impl BoundedChecker {
    /// Creates a checker over the given proposition names and maximum trace length.
    pub fn new<I, S>(props: I, max_len: usize) -> BoundedChecker
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        BoundedChecker {
            props: props.into_iter().map(Into::into).collect(),
            max_len: max_len.max(1),
            include_lassos: true,
        }
    }

    /// Disables the enumeration of lasso (ultimately periodic) extensions,
    /// keeping only stutter-extended finite computations.
    pub fn without_lassos(mut self) -> BoundedChecker {
        self.include_lassos = false;
        self
    }

    /// The number of computations that will be enumerated, saturating at
    /// `usize::MAX` — a space too large to count is, for every caller
    /// (budget truncation checks, refutation-bound selection), equivalent to
    /// one larger than any cap.
    pub fn model_count(&self) -> usize {
        let Some(alphabet) = 1usize.checked_shl(self.props.len() as u32) else {
            return usize::MAX;
        };
        let mut total = 0usize;
        for len in 1..=self.max_len {
            let Some(words) = alphabet.checked_pow(len as u32) else {
                return usize::MAX;
            };
            let extensions = if self.include_lassos { 1 + len } else { 1 };
            total = total.saturating_add(words.saturating_mul(extensions));
        }
        total
    }

    /// Calls `f` for every enumerated computation until it returns `false`;
    /// returns `true` if `f` accepted every computation.
    pub fn for_each_trace(&self, mut f: impl FnMut(&Trace) -> bool) -> bool {
        self.shard(0, 1).for_each_trace(|_, trace| f(trace))
    }

    /// The `index`-th of `count` interleaved slices of the enumeration: the
    /// shard yields exactly the computations whose global enumeration index is
    /// `≡ index (mod count)`, in increasing index order, lassos included.
    ///
    /// `count` shards together cover the full enumeration exactly once, so
    /// `count` workers each sweeping one shard perform the same search as one
    /// sequential sweep.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    pub fn shard(&self, index: usize, count: usize) -> TraceShard<'_> {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range for {count} shards");
        TraceShard { checker: self, index, count }
    }

    fn state_of(&self, bits: usize) -> State {
        let mut state = State::new();
        for (i, name) in self.props.iter().enumerate() {
            if bits & (1 << i) != 0 {
                state.insert(Prop::plain(name.clone()));
            }
        }
        state
    }

    /// Searches for a computation (within the bound) that falsifies `formula`.
    ///
    /// The formula is interned into a fresh [`FormulaArena`] and evaluated
    /// with the memoized arena evaluator; to amortize interning over many
    /// queries, intern once and use
    /// [`BoundedChecker::counterexample_interned`].
    pub fn counterexample(&self, formula: &Formula) -> Option<Trace> {
        let mut arena = FormulaArena::new();
        let id = arena.intern(formula);
        self.counterexample_interned(&arena, id)
    }

    /// Searches for a counterexample to an already interned formula.
    pub fn counterexample_interned(
        &self,
        arena: &FormulaArena,
        formula: FormulaId,
    ) -> Option<Trace> {
        let mut memo = MemoEvaluator::new(arena);
        let mut found = None;
        self.for_each_trace(|trace| {
            if !memo.check(trace, formula) {
                found = Some(trace.clone());
                false
            } else {
                true
            }
        });
        found
    }

    /// `true` if no computation within the bound falsifies `formula`.
    pub fn valid_up_to_bound(&self, formula: &Formula) -> bool {
        self.counterexample(formula).is_none()
    }

    /// Searches for a computation (within the bound) that satisfies `formula`.
    pub fn witness(&self, formula: &Formula) -> Option<Trace> {
        self.counterexample(&formula.clone().not())
    }

    /// Sharded parallel counterexample search under a [`ResourceBudget`]:
    /// `parallelism` workers sweep disjoint interleaved slices of the
    /// enumeration, each with a private [`MemoEvaluator`] over `arena`
    /// (typically an [`crate::arena::ArenaSnapshot`]), with early-exit
    /// cancellation once a counterexample is found.  Only computations with
    /// global enumeration index below `budget.max_enumeration()` are
    /// examined, and the deadline/cancellation cutoffs are polled every few
    /// hundred computations per worker; pass [`ResourceBudget::unbounded`]
    /// for the full sweep.
    ///
    /// The verdict is **bit-identical** to the sequential sweep: among all
    /// counterexamples found, the one with the lowest global enumeration index
    /// — exactly the computation [`BoundedChecker::counterexample_interned`]
    /// would return — wins.  Statistics differ only in that
    /// [`ParallelSweep::traces_checked`] counts every computation any worker
    /// examined, which can exceed the sequential count while the cancellation
    /// signal propagates.
    ///
    /// The enumeration cap is deterministic — the swept prefix is the same at
    /// every worker count, so verdicts under it stay bit-identical to the
    /// capped sequential sweep.  When the cap truncates the enumeration (and
    /// no counterexample was found below it), [`ParallelSweep::exhausted`]
    /// reports [`Exhaustion::Enumeration`]; a deadline or cancellation cut is
    /// reported the same way but is inherently timing-dependent.
    ///
    /// The lowest-index-wins guarantee survives timing cuts: a counterexample
    /// is only reported when every interrupted worker had already examined
    /// all of its shard's indices *below* the find — otherwise an earlier
    /// counterexample might sit in the unexamined gap, so the sweep reports
    /// the interruption instead of a possibly-non-minimal find.
    pub fn sweep_budgeted<A>(
        &self,
        arena: &A,
        formula: FormulaId,
        domain: Option<&[crate::value::Value]>,
        parallelism: Parallelism,
        budget: &ResourceBudget,
    ) -> ParallelSweep
    where
        A: ArenaRead + Sync,
    {
        let pool = WorkerPool::new(parallelism);
        let workers = pool.workers();
        if self.props.len() >= usize::BITS as usize {
            // The alphabet itself cannot be indexed in a machine word — the
            // enumeration machinery (bit-pattern words, global indices) does
            // not extend to such spaces, so the sweep truncates immediately
            // instead of overflowing.
            return ParallelSweep {
                counterexample: None,
                traces_checked: 0,
                memo: MemoStats::default(),
                workers,
                exhausted: Some(Exhaustion::Enumeration),
            };
        }
        let earliest = Earliest::new();
        let cap = budget.max_enumeration();
        let results = pool.run(|w| {
            let mut memo = MemoEvaluator::new(arena);
            if let Some(domain) = domain {
                memo = memo.with_domain(domain.to_vec());
            }
            let mut checked = 0usize;
            let mut found: Option<(usize, Trace)> = None;
            // A timing cut, with the first global index this worker did NOT
            // examine because of it.
            let mut interrupt: Option<(Exhaustion, usize)> = None;
            self.shard(w, workers).for_each_trace(|global, trace| {
                if global >= earliest.bound() || global >= cap {
                    return false;
                }
                if checked.is_multiple_of(INTERRUPT_POLL_PERIOD) {
                    if let Some(cut) = budget.interrupted() {
                        interrupt = Some((cut, global));
                        return false;
                    }
                }
                checked += 1;
                if memo.check(trace, formula) {
                    true
                } else {
                    earliest.record(global);
                    found = Some((global, trace.clone()));
                    false
                }
            });
            (found, checked, memo.stats(), interrupt)
        });
        let mut sweep = ParallelSweep {
            counterexample: None,
            traces_checked: 0,
            memo: MemoStats::default(),
            workers,
            exhausted: None,
        };
        let mut finds = Vec::with_capacity(results.len());
        let mut interrupted: Option<Exhaustion> = None;
        // Lowest index any interrupted worker left unexamined: finds at or
        // above it cannot be proven minimal.
        let mut unexamined_floor = usize::MAX;
        for (found, checked, stats, interrupt) in results {
            sweep.traces_checked += checked;
            sweep.memo.merge(stats);
            if let Some((cut, stopped_at)) = interrupt {
                interrupted = interrupted.or(Some(cut));
                unexamined_floor = unexamined_floor.min(stopped_at);
            }
            finds.push(found);
        }
        sweep.counterexample =
            crate::pool::min_find(finds).filter(|(index, _)| *index < unexamined_floor);
        if sweep.counterexample.is_none() {
            // The deterministic cut (enumeration cap, a pure function of the
            // checker and the budget) takes precedence over the
            // timing-dependent ones so repeated runs agree whenever they can.
            let truncated = cap < self.model_count();
            sweep.exhausted = truncated.then_some(Exhaustion::Enumeration).or(interrupted);
        }
        sweep
    }
}

/// The merged outcome of a [`BoundedChecker::sweep_budgeted`] search.
#[derive(Clone, Debug)]
pub struct ParallelSweep {
    /// The counterexample with the lowest global enumeration index, if any —
    /// the same computation the sequential sweep returns first.
    pub counterexample: Option<(usize, Trace)>,
    /// Total computations evaluated across all workers.
    pub traces_checked: usize,
    /// Per-worker memoization counters, merged at join.
    pub memo: MemoStats,
    /// Number of workers that swept.
    pub workers: usize,
    /// `Some` when the sweep ended because a [`ResourceBudget`] resource ran
    /// out *before* the enumeration was exhausted (and no counterexample was
    /// found below the cut): absence of a counterexample is then inconclusive
    /// rather than bounded-validity evidence.
    pub exhausted: Option<Exhaustion>,
}

/// One interleaved slice of a [`BoundedChecker`] enumeration; see
/// [`BoundedChecker::shard`].
#[derive(Clone, Copy, Debug)]
pub struct TraceShard<'a> {
    checker: &'a BoundedChecker,
    index: usize,
    count: usize,
}

impl TraceShard<'_> {
    /// Calls `f(global_index, trace)` for every computation in this shard, in
    /// increasing global-index order, until `f` returns `false`; returns
    /// `true` if `f` accepted every computation of the shard.
    ///
    /// The enumeration walks the same mixed-radix word order as the sequential
    /// sweep but only materializes the state vector of a word when the shard
    /// selects at least one of its extensions, so skipping foreign indices is
    /// cheap.
    pub fn for_each_trace(&self, mut f: impl FnMut(usize, &Trace) -> bool) -> bool {
        let checker = self.checker;
        let alphabet = 1usize << checker.props.len();
        // Extensions enumerated per word: the stutter extension plus (with
        // lassos) one lasso per loop start.
        let mut global = 0usize;
        for len in 1..=checker.max_len {
            let block = if checker.include_lassos { 1 + len } else { 1 };
            let mut word = vec![0usize; len];
            loop {
                // Does this word's block contain any index of the shard?
                let selected = (0..block).any(|k| (global + k) % self.count == self.index);
                if selected {
                    let states: Vec<State> =
                        word.iter().map(|&bits| checker.state_of(bits)).collect();
                    if global % self.count == self.index {
                        let stutter = Trace::finite(states.clone());
                        if !f(global, &stutter) {
                            return false;
                        }
                    }
                    if checker.include_lassos {
                        for loop_start in 0..len {
                            let at = global + 1 + loop_start;
                            if at % self.count == self.index {
                                let lasso = Trace::lasso(states.clone(), loop_start);
                                if !f(at, &lasso) {
                                    return false;
                                }
                            }
                        }
                    }
                }
                global += block;
                // Advance the word (mixed-radix counter).
                let mut pos = 0;
                loop {
                    if pos == len {
                        break;
                    }
                    word[pos] += 1;
                    if word[pos] < alphabet {
                        break;
                    }
                    word[pos] = 0;
                    pos += 1;
                }
                if pos == len {
                    break;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::semantics::Evaluator;

    #[test]
    fn tautologies_have_no_counterexample() {
        let checker = BoundedChecker::new(["P"], 3);
        assert!(checker.valid_up_to_bound(&prop("P").or(prop("P").not())));
        assert!(checker.valid_up_to_bound(&Formula::True));
    }

    #[test]
    fn contingent_formulas_are_refuted() {
        let checker = BoundedChecker::new(["P"], 3);
        let cex = checker.counterexample(&prop("P")).expect("P is not valid");
        assert!(!Evaluator::new(&cex).check(&prop("P")));
        assert!(checker.counterexample(&eventually(prop("P"))).is_some());
    }

    #[test]
    fn witnesses_are_found_for_satisfiable_formulas() {
        let checker = BoundedChecker::new(["P", "Q"], 3);
        let w = checker
            .witness(&occurs(event(prop("P"))).and(always(prop("Q").not())))
            .expect("satisfiable");
        let ev = Evaluator::new(&w);
        assert!(ev.check(&occurs(event(prop("P")))));
    }

    #[test]
    fn lassos_matter_for_infinitary_properties() {
        // □◇P ∧ ◇□¬P is unsatisfiable; but □◇P alone needs a lasso witness
        // in which P keeps recurring without holding in the final state forever.
        let with_lassos = BoundedChecker::new(["P"], 3);
        let without = BoundedChecker::new(["P"], 3).without_lassos();
        let recurring_not_stable =
            always(eventually(prop("P"))).and(eventually(always(prop("P"))).not());
        assert!(with_lassos.witness(&recurring_not_stable).is_some());
        assert!(without.witness(&recurring_not_stable).is_none());
    }

    #[test]
    fn model_count_matches_enumeration() {
        let checker = BoundedChecker::new(["P"], 2);
        let mut seen = 0usize;
        checker.for_each_trace(|_| {
            seen += 1;
            true
        });
        assert_eq!(seen, checker.model_count());
    }

    #[test]
    fn shards_partition_the_enumeration_exactly() {
        for (props, max_len, lassos) in
            [(vec!["P"], 3, true), (vec!["P", "Q"], 2, true), (vec!["P"], 3, false)]
        {
            let mut checker = BoundedChecker::new(props, max_len);
            if !lassos {
                checker = checker.without_lassos();
            }
            // The sequential enumeration, indexed.
            let mut sequential = Vec::new();
            checker.for_each_trace(|t| {
                sequential.push(t.clone());
                true
            });
            assert_eq!(sequential.len(), checker.model_count());
            for count in 1..=4 {
                let mut merged: Vec<Option<Trace>> = vec![None; sequential.len()];
                for index in 0..count {
                    let mut last = None;
                    checker.shard(index, count).for_each_trace(|global, trace| {
                        assert_eq!(global % count, index, "shard yields a foreign index");
                        assert!(last.is_none_or(|prev| prev < global), "indices not increasing");
                        last = Some(global);
                        assert!(merged[global].is_none(), "index {global} yielded twice");
                        merged[global] = Some(trace.clone());
                        true
                    });
                }
                for (global, slot) in merged.iter().enumerate() {
                    assert_eq!(
                        slot.as_ref(),
                        Some(&sequential[global]),
                        "shard union differs from the sequential enumeration at {global}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_counterexamples_are_bit_identical_to_sequential() {
        use crate::pool::Parallelism;
        let checker = BoundedChecker::new(["P", "Q"], 3);
        let formulas = [
            prop("P"),
            eventually(prop("P")),
            prop("P").or(prop("P").not()),
            always(eventually(prop("P"))).implies(eventually(always(prop("P")))),
            occurs(event(prop("Q"))).not().implies(Formula::False.within(event(prop("Q")))),
        ];
        for formula in &formulas {
            let mut arena = FormulaArena::new();
            let id = arena.intern(formula);
            let sequential = checker.counterexample_interned(&arena, id);
            for workers in 1..=4 {
                let parallel = checker
                    .sweep_budgeted(
                        &arena,
                        id,
                        None,
                        Parallelism::Fixed(workers),
                        &ResourceBudget::unbounded(),
                    )
                    .counterexample
                    .map(|(_, trace)| trace);
                assert_eq!(
                    parallel, sequential,
                    "parallel({workers}) and sequential verdicts differ on {formula}"
                );
            }
        }
    }

    #[test]
    fn model_count_saturates_instead_of_overflowing() {
        // 16 propositions at length 4: (2^16)^4 = 2^64 words — the count
        // saturates instead of overflowing, and a budgeted sweep over the
        // space truncates cleanly under its enumeration cap.
        let wide = BoundedChecker::new((0..16).map(|i| format!("P{i}")), 4);
        assert_eq!(wide.model_count(), usize::MAX);
        // Even the alphabet itself can be too wide to count; its sweep
        // truncates up front instead of overflowing the word arithmetic.
        let wider = BoundedChecker::new((0..70).map(|i| format!("P{i}")), 1);
        assert_eq!(wider.model_count(), usize::MAX);
        {
            let mut arena = FormulaArena::new();
            let id = arena.intern(&prop("P0"));
            let sweep = wider.sweep_budgeted(
                &arena,
                id,
                None,
                crate::pool::Parallelism::Off,
                &ResourceBudget::default(),
            );
            assert_eq!(sweep.counterexample, None);
            assert_eq!(sweep.exhausted, Some(Exhaustion::Enumeration));
            assert_eq!(sweep.traces_checked, 0);
        }
        let mut arena = FormulaArena::new();
        let id = arena.intern(&prop("P0").or(prop("P0").not()));
        let capped = ResourceBudget::unbounded().with_max_enumeration(10);
        let sweep = wide.sweep_budgeted(&arena, id, None, crate::pool::Parallelism::Off, &capped);
        assert_eq!(sweep.counterexample, None);
        assert_eq!(sweep.exhausted, Some(Exhaustion::Enumeration));
        assert_eq!(sweep.traces_checked, 10);
    }

    #[test]
    fn budgeted_sweeps_cut_deterministically() {
        use crate::pool::{CancelToken, Parallelism};
        let checker = BoundedChecker::new(["P"], 2);
        let mut arena = FormulaArena::new();
        let not_p = prop("P").not();
        let id = arena.intern(&not_p);
        // The first counterexample of ¬P sits at global index 2 (the first
        // word with P asserted).
        let full = checker.sweep_budgeted(
            &arena,
            id,
            None,
            Parallelism::Off,
            &ResourceBudget::unbounded(),
        );
        assert_eq!(full.counterexample.as_ref().map(|(i, _)| *i), Some(2));
        assert_eq!(full.exhausted, None);
        for workers in 1..=4 {
            let parallelism = Parallelism::Fixed(workers);
            // A cap below the counterexample index truncates: no
            // counterexample, exhaustion reported — identically at every
            // worker count.
            let capped = ResourceBudget::unbounded().with_max_enumeration(2);
            let cut = checker.sweep_budgeted(&arena, id, None, parallelism, &capped);
            assert_eq!(cut.counterexample, None, "workers={workers}");
            assert_eq!(cut.exhausted, Some(Exhaustion::Enumeration), "workers={workers}");
            assert!(cut.traces_checked <= 2, "workers={workers}");
            // A cap above it finds the very same counterexample.
            let enough = ResourceBudget::unbounded().with_max_enumeration(3);
            let found = checker.sweep_budgeted(&arena, id, None, parallelism, &enough);
            assert_eq!(found.counterexample, full.counterexample, "workers={workers}");
            assert_eq!(found.exhausted, None, "workers={workers}");
        }
        // A pre-cancelled token stops the sweep before anything is examined.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = ResourceBudget::unbounded().with_cancel(token);
        let cut = checker.sweep_budgeted(&arena, id, None, Parallelism::Off, &cancelled);
        assert_eq!(cut.counterexample, None);
        assert_eq!(cut.exhausted, Some(Exhaustion::Cancelled));
        assert_eq!(cut.traces_checked, 0);
    }

    #[test]
    fn vacuity_of_unconstructible_intervals_is_confirmed() {
        // ¬*I ⊃ [I]α is valid: check the instance with I = event Q, α = false.
        let checker = BoundedChecker::new(["P", "Q"], 3);
        let f = occurs(event(prop("Q"))).not().implies(Formula::False.within(event(prop("Q"))));
        assert!(checker.valid_up_to_bound(&f));
    }
}
