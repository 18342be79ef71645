//! `decide_corpus`: the engine layers, in process.
//!
//! The input list is [`CORPUS`] distinct formulas drawn from
//! `FormulaGenerator::from_seed(BASE_SEED, config)` with the default
//! configuration (40% of draws from the `[ => Q ] []P` family) except that
//! `--seed` permutes the alphabet `[p, q, r]`.  The seed thus renames the
//! propositions of one fixed draw sequence, which keeps every formula's
//! shape and so the same slow checks in every list (a permuted alphabet
//! still moves where a refutation sweep finds its counterexample): fresh
//! draws per seed put a different handful of the 100-460 ms
//! prefix-invariance checks into each list, and that alone spread
//! `ops_per_s` by a fifth between seeds.  No seed holds out formulas this
//! workload has not seen.
//!
//! The formulas go to the session as `Formula` values, never as printed
//! text.  One caller thread sends one `Session::check` with
//! `Backend::Auto`, the default structural budget and no deadline per
//! operation.  Each pass over the list runs on one fresh default session
//! (verdict cache on, `Parallelism::Off`), so every check is a cache miss
//! plus an insert: the write side of the cache.  Passes run until the
//! window ends, which may stop the last one half way.  An operation's
//! latency is its median time over the passes, and `ops_per_s` is the
//! corpus size over the sum of those medians; the summary line also gives
//! the median complete pass's own ops/s and p99.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ilogic_core::analysis::{self, proposition_names, Analysis};
use ilogic_core::arena::{FormulaArena, FormulaId};
use ilogic_core::bounded::BoundedChecker;
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::ltl_translate::to_ltl;
use ilogic_core::pool::{Exhaustion, Parallelism, ResourceBudget};
use ilogic_core::session::{auto_backend, Backend, CheckRequest, Session, Verdict};
use ilogic_core::syntax::Formula;
use ilogic_temporal::algorithm_b::{condition_of_graph_budgeted_stats, AlgorithmB, Decision};
use ilogic_temporal::syntax::VarSpec;
use ilogic_temporal::tableau::TableauGraph;
use ilogic_temporal::theory::PropositionalTheory;

use crate::stats::{self, ms, us, SplitMix64};
use crate::{peak_rss_mb, Latency, Outcome, TimedRun};

/// Distinct formulas per pass: enough that p99 has ten samples beyond it.
pub const CORPUS: usize = 1000;

/// The generator seed of the draw sequence every `--seed` renames.
pub const BASE_SEED: u64 = 9001;

/// The deepest refutation sweep of the `Decide` backend (the session's
/// `DECIDE_REFUTATION_BOUND`, which is private): the replay picks the same
/// depth the session does.
const REFUTATION_DEPTH: usize = 4;

/// The seed's input list: the first [`CORPUS`] distinct draws of
/// [`BASE_SEED`] over the seed's permutation of the default alphabet.
pub fn corpus(seed: u64) -> Result<Vec<Formula>, String> {
    let mut config = GeneratorConfig::default();
    let mut rng = SplitMix64::new(seed ^ 0xDEC1_DE00_0000_0002);
    for i in (1..config.props.len()).rev() {
        config.props.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut generator = FormulaGenerator::from_seed(BASE_SEED, config);
    let mut seen = HashSet::with_capacity(CORPUS);
    let mut formulas = Vec::with_capacity(CORPUS);
    for _ in 0..CORPUS * 100 {
        if formulas.len() == CORPUS {
            return Ok(formulas);
        }
        let formula = generator.next_formula();
        if seen.insert(formula.clone()) {
            formulas.push(formula);
        }
    }
    Err(format!("seed {seed}: fewer than {CORPUS} distinct formulas in {} draws", CORPUS * 100))
}

fn requests(formulas: &[Formula]) -> Vec<CheckRequest> {
    formulas.iter().map(|formula| CheckRequest::new(formula.clone()).auto()).collect()
}

fn fresh_session() -> Session {
    Session::new().with_parallelism(Parallelism::Off)
}

/// The untimed-then-timed run; checks its outputs after the window.
pub fn run(
    seed: u64,
    window: Duration,
    process_start: Instant,
    outcome: &mut Outcome,
) -> Result<TimedRun, String> {
    let mut timed = TimedRun::default();
    let mut formulas = Vec::new();
    let mut first_pass = Vec::new();
    let mut samples_us: Vec<Vec<f64>> = vec![Vec::new(); CORPUS];
    let (mut pass_rates, mut pass_p99s) = (Vec::new(), Vec::new());
    let mut window_start = None;
    loop {
        // Every pass sets up afresh: the input list, its requests and a
        // fresh session.  The first set-up runs from process start.
        let setup_start = if timed.passes == 0 { process_start } else { Instant::now() };
        let list = corpus(seed)?;
        let requests = requests(&list);
        let session = fresh_session();
        timed.setups.push(setup_start.elapsed());
        let window_start = *window_start.get_or_insert_with(Instant::now);
        let mut reports = Vec::with_capacity(requests.len());
        let mut pass_us = Vec::with_capacity(requests.len());
        for (request, samples) in requests.into_iter().zip(&mut samples_us) {
            // After the first pass, the window may end a pass half way.
            if timed.passes > 0 && window_start.elapsed() >= window {
                break;
            }
            let start = Instant::now();
            let report = session.check(request);
            let latency_us = us(start.elapsed());
            samples.push(latency_us);
            pass_us.push(latency_us);
            reports.push(report);
        }
        timed.attempted += reports.len() as u64;
        timed.decided += reports.iter().filter(|r| !r.verdict.is_unknown()).count() as u64;
        let complete = reports.len() == list.len();
        if complete {
            pass_rates.push(pass_us.len() as f64 / (pass_us.iter().sum::<f64>() / 1e6));
            pass_p99s.push(Latency::of(pass_us).p99_us);
        }
        if timed.passes == 0 {
            formulas = list;
            first_pass = reports;
            timed.peak_rss_mb = peak_rss_mb()?;
        } else {
            for (index, (report, first)) in reports.iter().zip(&first_pass).enumerate() {
                if report.verdict != first.verdict || report.failing_index != first.failing_index {
                    outcome.mismatch(format!(
                        "decide_corpus formula {index}: pass {} answered {} but pass 0 {}",
                        timed.passes, report.verdict, first.verdict
                    ));
                }
            }
        }
        timed.passes += 1;
        if !complete || window_start.elapsed() >= window {
            break;
        }
    }
    let medians: Vec<f64> = samples_us.into_iter().map(stats::median).collect();
    timed.ops_per_s = medians.len() as f64 / (medians.iter().sum::<f64>() / 1e6);
    timed.latency = Latency::of(medians);
    timed.method = format!(
        "per operation, its median over the passes; ops/s over the summed medians (median \
         complete pass: {:.3} ops/s, p99 {:.1} us)",
        stats::median(pass_rates),
        stats::median(pass_p99s)
    );
    check_verdicts(&formulas, &first_pass, outcome);
    Ok(timed)
}

/// Every `Counterexample` must re-fail on the `Trace` backend, and every
/// `Holds` must survive a depth-2 `Bounded` refutation.
fn check_verdicts(
    formulas: &[Formula],
    reports: &[ilogic_core::session::CheckReport],
    outcome: &mut Outcome,
) {
    let checker = fresh_session();
    for (index, (formula, report)) in formulas.iter().zip(reports).enumerate() {
        match &report.verdict {
            Verdict::Counterexample(trace) => {
                let replay = checker.check(CheckRequest::new(formula.clone()).on_trace(trace));
                if !matches!(replay.verdict, Verdict::Counterexample(_)) {
                    outcome.mismatch(format!(
                        "decide_corpus formula {index} `{formula}`: counterexample {trace} \
                         answers {} on the trace backend",
                        replay.verdict
                    ));
                }
            }
            Verdict::Holds => {
                let request =
                    CheckRequest::new(formula.clone()).bounded(proposition_names(formula), 2);
                let refutation = checker.check(request);
                if refutation.verdict != Verdict::ValidUpTo(2) {
                    outcome.mismatch(format!(
                        "decide_corpus formula {index} `{formula}`: holds, but the depth-2 \
                         bounded sweep answers {}",
                        refutation.verdict
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Time and work per layer, summed over one replayed pass.
#[derive(Default)]
struct Layers {
    check: Duration,
    front: Duration,
    translate: Duration,
    tableau_us: Vec<f64>,
    tableau_nodes: usize,
    tableau_edges: usize,
    tableau_exhausted: u64,
    artifact_attempts: u64,
    artifact_tripped: u64,
    artifact: Duration,
    evaluated: Duration,
    rounds: u64,
    equations_evaluated: u64,
    equations_skipped: u64,
    sweeps: Duration,
}

/// The traced replay: one pass over the seed's corpus through the layers'
/// public functions, each checked against `Session::check`.
pub fn trace(seed: u64, outcome: &mut Outcome) -> Result<(), String> {
    let formulas = corpus(seed)?;
    let session = fresh_session();
    let budget = ResourceBudget::default();
    let theory = PropositionalTheory::new();
    let algorithm = AlgorithmB::new(&theory, VarSpec::all_state());
    let mut arena = FormulaArena::new();
    let mut layers = Layers::default();
    for (index, formula) in formulas.iter().enumerate() {
        let start = Instant::now();
        let report = session.check(CheckRequest::new(formula.clone()).auto());
        layers.check += start.elapsed();
        let (verdict, failing_index) =
            replay(formula, &mut arena, &budget, &algorithm, &mut layers)?;
        if verdict != report.verdict || failing_index != report.failing_index {
            outcome.mismatch(format!(
                "decide_corpus replay of formula {index} `{formula}` answered {verdict} at \
                 {failing_index:?}; Session::check answered {} at {:?}",
                report.verdict, report.failing_index
            ));
        }
    }
    layers.tableau_us.sort_by(f64::total_cmp);
    let tableau_busy_ms: f64 = layers.tableau_us.iter().sum::<f64>() / 1e3;
    let replayed_ms = ms(layers.front + layers.translate + layers.artifact + layers.evaluated)
        + ms(layers.sweeps)
        + tableau_busy_ms;
    let coverage = replayed_ms / ms(layers.check);
    let equations = layers.equations_evaluated + layers.equations_skipped;
    println!(
        "decide_corpus trace: {} checks in {:.3} s; replay covers {coverage:.3}; {} tableau builds",
        formulas.len(),
        layers.check.as_secs_f64(),
        layers.tableau_us.len()
    );
    outcome.metric("ltl_translate.busy_ms", ms(layers.translate), "ms");
    outcome.metric("tableau.builds", layers.tableau_us.len() as f64, "count");
    outcome.metric("tableau.busy_ms", tableau_busy_ms, "ms");
    outcome.metric("tableau.p99_us", stats::percentile(&layers.tableau_us, 0.99), "us");
    outcome.metric("tableau.nodes", layers.tableau_nodes as f64, "count");
    outcome.metric("tableau.edges", layers.tableau_edges as f64, "count");
    outcome.metric("tableau.exhausted", layers.tableau_exhausted as f64, "count");
    outcome.metric("algorithm_b.artifact_attempts", layers.artifact_attempts as f64, "count");
    outcome.metric("algorithm_b.artifact_tripped", layers.artifact_tripped as f64, "count");
    outcome.metric("algorithm_b.artifact_busy_ms", ms(layers.artifact), "ms");
    outcome.metric("algorithm_b.evaluated_busy_ms", ms(layers.evaluated), "ms");
    outcome.metric("algorithm_b.rounds", layers.rounds as f64, "count");
    outcome.metric(
        "algorithm_b.skip_rate",
        layers.equations_skipped as f64 / equations.max(1) as f64,
        "ratio",
    );
    outcome.metric("bounded.corpus_busy_ms", ms(layers.sweeps), "ms");
    outcome.metric("trace.coverage", coverage, "ratio");
    outcome.attempted += formulas.len() as u64;
    Ok(())
}

/// Replays one `Backend::Auto` check in the session's phase order:
/// analysis and routing, then for `Decide` the translation, the tableau,
/// the condition artifact under a finite implicant cap or else the
/// evaluated fixpoint, and the refutation sweep; for `Bounded` the sweep.
fn replay(
    formula: &Formula,
    arena: &mut FormulaArena,
    budget: &ResourceBudget,
    algorithm: &AlgorithmB<'_>,
    layers: &mut Layers,
) -> Result<(Verdict, Option<usize>), String> {
    let start = Instant::now();
    let Analysis { estimate, .. } = analysis::analyze(arena, formula);
    let id = arena.intern(formula);
    let (backend, budget) = auto_backend(formula, &estimate, budget);
    layers.front += start.elapsed();
    match backend {
        Backend::Bounded { props, max_len, lassos } => {
            let mut checker = BoundedChecker::new(props, max_len);
            if !lassos {
                checker = checker.without_lassos();
            }
            let (found, exhausted) = sweep(&checker, arena, id, &budget, layers);
            Ok(match (found, exhausted) {
                (Some((index, trace)), _) => (Verdict::Counterexample(trace), Some(index)),
                (None, Some(cut)) => (Verdict::exhausted(cut), None),
                (None, None) => (Verdict::ValidUpTo(max_len), None),
            })
        }
        Backend::Decide => Ok(decide(formula, id, arena, &budget, algorithm, layers)),
        other => Err(format!("auto routed `{formula}` to {other:?}")),
    }
}

type Found = Option<(usize, ilogic_core::trace::Trace)>;

fn sweep(
    checker: &BoundedChecker,
    arena: &FormulaArena,
    id: FormulaId,
    budget: &ResourceBudget,
    layers: &mut Layers,
) -> (Found, Option<Exhaustion>) {
    let start = Instant::now();
    let result = checker.sweep_budgeted(arena, id, None, Parallelism::Off, budget);
    layers.sweeps += start.elapsed();
    (result.counterexample, result.exhausted)
}

fn decide(
    formula: &Formula,
    id: FormulaId,
    arena: &FormulaArena,
    budget: &ResourceBudget,
    algorithm: &AlgorithmB<'_>,
    layers: &mut Layers,
) -> (Verdict, Option<usize>) {
    let start = Instant::now();
    let ltl = to_ltl(formula);
    layers.translate += start.elapsed();
    let Ok(ltl) = ltl else {
        return (Verdict::unknown(), None);
    };
    let start = Instant::now();
    let graph = TableauGraph::try_build_budgeted(&ltl.clone().not(), budget, Parallelism::Off);
    layers.tableau_us.push(us(start.elapsed()));
    let decided = match graph {
        Err(cut) => {
            layers.tableau_exhausted += 1;
            Err(cut)
        }
        Ok(graph) => {
            layers.tableau_nodes += graph.node_count();
            layers.tableau_edges += graph.edge_count();
            let mut decided = None;
            if budget.max_implicants() != usize::MAX {
                layers.artifact_attempts += 1;
                let start = Instant::now();
                let (artifact, stats) =
                    condition_of_graph_budgeted_stats(graph.clone(), budget, Parallelism::Off);
                match artifact {
                    Ok(condition) => {
                        decided = Some(
                            algorithm.decide_from_condition_budgeted(&ltl, &condition, budget),
                        );
                    }
                    Err(_) => layers.artifact_tripped += 1,
                }
                layers.artifact += start.elapsed();
                layers.rounds += stats.rounds;
                layers.equations_evaluated += stats.equations_evaluated;
                layers.equations_skipped += stats.equations_skipped;
            }
            decided.unwrap_or_else(|| {
                let start = Instant::now();
                let (decision, stats) =
                    algorithm.decide_from_graph_budgeted_stats(&ltl, &graph, budget);
                layers.evaluated += start.elapsed();
                layers.rounds += stats.rounds;
                layers.equations_evaluated += stats.equations_evaluated;
                layers.equations_skipped += stats.equations_skipped;
                decision
            })
        }
    };
    let refuted = match decided {
        Ok(Decision::Valid) => return (Verdict::Holds, None),
        Ok(Decision::NotValid | Decision::Unknown) => None,
        Err(cut) => Some(cut),
    };
    // The session's concretization rule: the deepest depth whose
    // enumeration fits the cap; a countable depth over the cap is a budget
    // cut.
    let props = proposition_names(formula);
    let mut cap_blocked_depth = false;
    let mut chosen = None;
    for len in (1..=REFUTATION_DEPTH).rev() {
        let checker = BoundedChecker::new(props.clone(), len);
        let count = checker.model_count();
        if count == usize::MAX {
            continue;
        }
        if count > budget.max_enumeration() {
            cap_blocked_depth = true;
            continue;
        }
        chosen = Some(checker);
        break;
    }
    let budget_cut_depth = cap_blocked_depth.then_some(Exhaustion::Enumeration);
    let Some(checker) = chosen else {
        return match refuted.or(budget_cut_depth) {
            Some(cut) => (Verdict::exhausted(cut), None),
            None => (Verdict::unknown(), None),
        };
    };
    match sweep(&checker, arena, id, budget, layers) {
        (Some((index, trace)), _) => (Verdict::Counterexample(trace), Some(index)),
        (None, exhausted) => match refuted.or(exhausted).or(budget_cut_depth) {
            Some(cut) => (Verdict::exhausted(cut), None),
            None => (Verdict::unknown(), None),
        },
    }
}
