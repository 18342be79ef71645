//! The `core::bounded` and `temporal::pool` fan-out replay of the traced
//! run: two `Session::check`s with `Backend::Bounded` over four
//! propositions at depth 4 (344,864 computations each), on a session with
//! the verdict cache off so every check sweeps:
//!
//! - [`VALID`] holds, so its sweep runs to the end;
//! - [`INVALID`] is refuted only by computations that pass through four
//!   pairwise exclusive states in order, the last one with every
//!   proposition true.  The lowest-index counterexample therefore lies at
//!   about 94% of the enumeration, which exercises early exit and the cut
//!   that stops the other workers.
//!
//! The seed picks which proposition plays which role in both formulas, so
//! the inputs vary with the seed while their shapes stay the same (the
//! counterexample's index moves with the binding).  The sweeps are not a
//! timed workload of their own: on a shared two-thread machine their round
//! time spread past any usable bound between runs.

use std::time::{Duration, Instant};

use ilogic_core::arena::FormulaArena;
use ilogic_core::bounded::BoundedChecker;
use ilogic_core::parser::parse_formula;
use ilogic_core::pool::{Parallelism, ResourceBudget};
use ilogic_core::session::{CheckReport, CheckRequest, Session, Verdict};
use ilogic_core::syntax::Formula;

use crate::stats::{self, ms, SplitMix64};
use crate::{hw_threads, Outcome};

/// The enumerated alphabet.
pub const PROPS: [&str; 4] = ["p", "q", "r", "s"];
/// Depth of every sweep.
pub const DEPTH: usize = 4;
/// Prefix invariance under an interval: valid.
pub const VALID: &str = "[ => B ] []A -> [ => B ] <>A";
/// Four exclusive states in order, then every proposition: invalid, with a
/// late lowest-index counterexample.
pub const INVALID: &str = "~<>(A & ~B & ~C & ~D & <>(B & ~A & ~C & ~D & <>(C & ~A & ~B & ~D & \
                           <>(A & B & C & D))))";
/// Repetitions per worker count in the traced pool measurement.
const TRACE_REPS: usize = 3;

/// The seed's two formulas: [`VALID`] and [`INVALID`] with the role
/// letters `A`–`D` bound to a seeded permutation of [`PROPS`].
pub fn formulas(seed: u64) -> Result<[Formula; 2], String> {
    let mut props = PROPS;
    let mut rng = SplitMix64::new(seed ^ 0x5EE9_FA40_0000_0003);
    for i in (1..props.len()).rev() {
        props.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let bind = |template: &str| {
        let text: String = template
            .chars()
            .map(|c| match c {
                'A'..='D' => props[(c as u8 - b'A') as usize].chars().next().unwrap_or(c),
                other => other,
            })
            .collect();
        parse_formula(&text).map_err(|e| format!("sweep_fanout formula `{text}`: {e}"))
    };
    Ok([bind(VALID)?, bind(INVALID)?])
}

fn request(formula: &Formula, parallelism: Parallelism) -> CheckRequest {
    CheckRequest::new(formula.clone()).bounded(PROPS, DEPTH).with_parallelism(parallelism)
}

fn session() -> Session {
    Session::new().with_verdict_cache(false)
}

fn same_answers(a: &[CheckReport], b: &[CheckReport]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.verdict == y.verdict && x.failing_index == y.failing_index)
}

/// The valid formula must pass and the invalid one fail, and its
/// counterexample must re-fail on the `Trace` backend.
fn check_answers(
    formulas: &[Formula; 2],
    auto: &[CheckReport],
    session: &Session,
    outcome: &mut Outcome,
) {
    if auto[0].verdict != Verdict::ValidUpTo(DEPTH) {
        outcome.mismatch(format!("sweep_fanout valid formula answered {}", auto[0].verdict));
    }
    match &auto[1].verdict {
        Verdict::Counterexample(trace) => {
            let replay = session.check(CheckRequest::new(formulas[1].clone()).on_trace(trace));
            if !matches!(replay.verdict, Verdict::Counterexample(_)) {
                outcome.mismatch(format!(
                    "sweep_fanout counterexample {trace} answers {} on the trace backend",
                    replay.verdict
                ));
            }
        }
        other => outcome.mismatch(format!("sweep_fanout invalid formula answered {other}")),
    }
}

/// The traced replay: the sweeps through `BoundedChecker` directly, then
/// the pool's speed-up over worker counts, with the answers checked at
/// every worker count.
pub fn trace(seed: u64, outcome: &mut Outcome) -> Result<(), String> {
    let formulas = formulas(seed)?;
    let session = session();
    let budget = ResourceBudget::default();
    let mut arena = FormulaArena::new();
    let ids: Vec<_> = formulas.iter().map(|f| arena.intern(f)).collect();
    let checker = BoundedChecker::new(PROPS, DEPTH);

    let (mut sweeps, mut found, mut checked) = (0u64, 0u64, 0usize);
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    let mut busy = Duration::ZERO;
    let auto: Vec<CheckReport> =
        formulas.iter().map(|f| session.check(request(f, Parallelism::Auto))).collect();
    for ((formula, &id), report) in formulas.iter().zip(&ids).zip(&auto) {
        for _ in 0..TRACE_REPS {
            let start = Instant::now();
            let sweep = checker.sweep_budgeted(&arena, id, None, Parallelism::Auto, &budget);
            busy += start.elapsed();
            sweeps += 1;
            checked += sweep.traces_checked;
            memo_hits += sweep.memo.hits;
            memo_misses += sweep.memo.misses;
            let index = sweep.counterexample.as_ref().map(|(index, _)| *index);
            found += u64::from(index.is_some());
            if index != report.failing_index || sweep.exhausted.is_some() {
                outcome.mismatch(format!(
                    "sweep_fanout replay of `{formula}` found {index:?}; Session::check found {:?}",
                    report.failing_index
                ));
            }
        }
    }

    // Round time at 1, hw and 2 x hw workers: the pool's speed-up, and
    // the traces checked past the sequential count on the invalid formula.
    // The answers must be the same at every worker count.
    let hw = hw_threads();
    let mut round = |workers: usize| {
        let mut times = Vec::with_capacity(TRACE_REPS);
        let mut invalid_checked = Vec::with_capacity(TRACE_REPS);
        for _ in 0..TRACE_REPS {
            let start = Instant::now();
            let reports: Vec<CheckReport> = formulas
                .iter()
                .map(|f| session.check(request(f, Parallelism::Fixed(workers))))
                .collect();
            times.push(start.elapsed().as_secs_f64());
            invalid_checked.push(reports[1].stats.traces_checked as f64);
            if !same_answers(&auto, &reports) {
                outcome.mismatch(format!(
                    "sweep_fanout answers at {workers} workers differ from those at \
                     Parallelism::Auto"
                ));
            }
        }
        (stats::median(times), stats::median(invalid_checked))
    };
    let (one, sequential_checked) = round(1);
    let (at_hw, hw_checked) = round(hw);
    let (at_2hw, _) = round(2 * hw);
    check_answers(&formulas, &auto, &session, outcome);
    println!(
        "sweep_fanout trace: {sweeps} sweeps; rounds take {:.1} ms at 1 worker, {:.1} ms at {hw}, \
         {:.1} ms at {}",
        one * 1e3,
        at_hw * 1e3,
        at_2hw * 1e3,
        2 * hw
    );
    outcome.metric("bounded.sweeps", sweeps as f64, "count");
    outcome.metric("bounded.busy_ms", ms(busy), "ms");
    outcome.metric("bounded.traces_checked", checked as f64, "count");
    outcome.metric("bounded.refute_found_rate", found as f64 / sweeps as f64, "ratio");
    outcome.metric(
        "bounded.memo_hit_rate",
        memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
        "ratio",
    );
    outcome.metric("pool.speedup_hw", one / at_hw, "x");
    outcome.metric("pool.speedup_2hw", one / at_2hw, "x");
    outcome.metric("pool.overshoot", hw_checked - sequential_checked, "count");
    outcome.attempted += sweeps + 3 * (TRACE_REPS * formulas.len()) as u64;
    Ok(())
}
