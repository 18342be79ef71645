//! Cross-thread `Session` coverage: the shared-session concurrency model.
//!
//! Since the multiversion arena landed, a [`Session`] is **shared**:
//! `check`/`submit`/`check_many` take `&self` (the interning and scheduler
//! state live behind interior locks), so many threads may dispatch into one
//! session concurrently — the model `ilogic-server` runs its warm `/check`
//! session in.  Interning never blocks running checks: a job snapshots the
//! arena version current at its prepare, and later interns append ids that
//! the older snapshot simply does not see.  These tests pin the contract:
//!
//! 1. `Session` is `Send + Sync` — the compile-time audit.
//! 2. Concurrent sessions on many threads produce reports bit-identical to
//!    each other and to a fresh main-thread session — the stress test.
//! 3. `submit()` accepts and interns new work while a prior job is
//!    mid-flight, and both reports are bit-identical to sequential
//!    execution — the multiversion-arena acceptance test.
//! 4. Interleaving interning with in-flight checks at `Fixed(0/2/4)` never
//!    changes an answer: each job resolves exactly its version's ids, and
//!    duplicate requests replay their first occurrence's report from the
//!    verdict cache bit-for-bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ilogic_core::arena::MemoStats;
use ilogic_core::dsl::prop;
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::prelude::*;
use ilogic_core::session::ConditionStats;

/// The compile-time audit: sessions may move across threads *and* be shared
/// by reference across threads.  (This is a *static* assertion — if a
/// thread-affine or non-`Sync` field ever sneaks into these types, this
/// test stops compiling, not just passing.)
#[test]
fn sessions_requests_and_reports_are_send_and_sync() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Session>();
    assert_sync::<Session>();
    assert_send::<CheckRequest>();
    assert_send::<CheckReport>();
    assert_send::<ResourceBudget>();
}

fn workload() -> Vec<CheckRequest> {
    let mut generator = FormulaGenerator::from_seed(
        0x5EED_1E57,
        GeneratorConfig { max_depth: 3, ..GeneratorConfig::default() },
    );
    (0..24)
        .map(|_| {
            CheckRequest::new(generator.next_formula())
                .auto()
                .with_budget(ResourceBudget::default().with_timeout(Duration::from_secs(30)))
        })
        .collect()
}

fn zero_durations(reports: &mut [CheckReport]) {
    for report in reports {
        report.stats.duration = Duration::ZERO;
    }
}

/// Masks the fields that legitimately depend on what else the session did
/// around a job — wall clock, and the session-cumulative gauges whose merge
/// order follows completion order: everything *else* must be bit-identical
/// to sequential execution.
fn normalize(report: &mut CheckReport) {
    report.stats.duration = Duration::ZERO;
    report.stats.session_memo = MemoStats::default();
    report.stats.session_condition = ConditionStats::default();
    report.stats.session_cache = CacheStats::default();
}

/// Eight threads, each with its own fresh session over the same request
/// stream: all of them must agree bit-for-bit with a main-thread session.
/// This is the determinism guarantee the server's fresh-session-per-job-set
/// design leans on — thread identity must never leak into a report.
#[test]
fn concurrent_sessions_are_bit_identical_across_threads() {
    let mut baseline = Session::new().check_many(workload());
    zero_durations(&mut baseline);

    let workers: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(|| {
                let mut reports = Session::new().check_many(workload());
                zero_durations(&mut reports);
                reports
            })
        })
        .collect();
    for (index, worker) in workers.into_iter().enumerate() {
        let reports = worker.join().expect("worker thread completes");
        assert_eq!(reports, baseline, "thread {index} diverged from the main-thread baseline");
    }
}

/// A session may migrate between threads mid-life (ownership transfer):
/// results accumulated before the move remain fetchable after it, and
/// checking continues deterministically.
#[test]
fn a_session_moved_across_threads_keeps_its_state() {
    let session = Session::new();
    let first = session.check(CheckRequest::new(prop("P").or(prop("P").not())).decide());
    assert!(first.verdict.passed());
    let handle = session.submit(CheckRequest::new(prop("Q").implies(prop("Q"))).decide());

    // Move the session (and the pending handle) into another thread.
    let joined = thread::spawn(move || {
        let report = session.wait(&handle);
        (session, report)
    })
    .join()
    .expect("the migrated session thread completes");
    let (session, report) = joined;
    assert!(report.verdict.passed(), "pending work resolves after the move");

    // And back on this thread, the same session keeps checking.
    let last = session.check(CheckRequest::new(prop("R").and(prop("R").not()).not()).decide());
    assert!(last.verdict.passed());
}

/// A short witness trace for the blocking explore job: P at step 0, Q from
/// step 1 on.
fn witness() -> Trace {
    let mut builder = TraceBuilder::new();
    builder.assert_prop(Prop::plain("P"));
    builder.commit();
    builder.retract_prop(&Prop::plain("P"));
    builder.assert_prop(Prop::plain("Q"));
    builder.commit();
    builder.finish()
}

/// The PR-10 acceptance test: `submit()` accepts and interns a new formula
/// while a prior job is **provably mid-flight** (its run producer blocks on
/// a flag until the new job has been submitted, run, and waited on), and
/// both reports come back bit-identical to sequential execution of the same
/// requests.  Under the old stop-the-world snapshot this deadlocked by
/// design; the multiversion arena makes it the daemon's steady state.
#[test]
fn submit_interns_new_work_while_a_prior_job_is_mid_flight() {
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));

    let blocking_source = {
        let started = Arc::clone(&started);
        let release = Arc::clone(&release);
        RunSource::lazy(move || {
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            let mut emitted = 0usize;
            std::iter::from_fn(move || {
                if emitted == 0 {
                    started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                }
                emitted += 1;
                (emitted <= 3).then(witness)
            })
        })
    };

    let explore = CheckRequest::new(prop("P").or(prop("Q")))
        .over_run_source(blocking_source)
        .with_parallelism(Parallelism::Off);
    // Explicitly sequential (overriding `ILOGIC_TEST_PARALLEL`): a job
    // drained as part of a batch always runs single-threaded, so the
    // sequential reference must report the same worker count.
    let decide =
        CheckRequest::new(prop("R").implies(prop("R"))).decide().with_parallelism(Parallelism::Off);

    let session = Session::new();
    let (mut mid_flight, mut interned_during) = thread::scope(|scope| {
        let first = session.submit(explore.clone());
        let session = &session;
        let runner = scope.spawn(move || session.wait(&first));

        // Only proceed once the explore job is genuinely inside its run
        // producer — mid-flight, not merely queued.
        while !started.load(Ordering::SeqCst) {
            thread::yield_now();
        }

        // The whole point: a new formula is accepted, interned, dispatched,
        // and *completed* while the first job is still blocked mid-run.
        let nodes_before = session.arena().formula_count();
        let second = session.submit(decide.clone());
        let second_report = session.wait(&second);
        assert!(second_report.verdict.passed(), "{second_report:?}");
        assert!(
            session.arena().formula_count() > nodes_before,
            "the second submit interned new ids while the first job ran"
        );

        release.store(true, Ordering::SeqCst);
        let first_report = runner.join().expect("the mid-flight job completes");
        (first_report, second_report)
    });

    // Sequential execution of the same two requests on a fresh session (the
    // release flag stays up, so the source no longer blocks).
    let sequential = Session::new();
    let mut explore_sequential = sequential.check(explore);
    let mut decide_sequential = sequential.check(decide);
    for report in
        [&mut mid_flight, &mut interned_during, &mut explore_sequential, &mut decide_sequential]
    {
        normalize(report);
    }
    assert_eq!(mid_flight, explore_sequential, "the interrupted job's report is unchanged");
    assert_eq!(interned_during, decide_sequential, "the mid-flight submit's report is unchanged");
}

/// Seeded interleaving sweep (the satellite "proptest"): a duplicate-heavy
/// request stream is submitted one job at a time with fresh formulas
/// interned between submits, at `Fixed(0/2/4)` workers.  Each job must
/// resolve exactly its version's ids — interning noise around it must not
/// perturb a single answer — so every report is compared against a cold
/// single-request session, duplicates must replay their first occurrence
/// bit-for-bit, and the three worker counts must agree on everything.
#[test]
fn interleaved_interning_never_perturbs_in_flight_checks() {
    let mut generator = FormulaGenerator::from_seed(
        0xA11C_E5ED,
        GeneratorConfig { max_depth: 3, ..GeneratorConfig::default() },
    );
    let distinct: Vec<Formula> = (0..8).map(|_| generator.next_formula()).collect();
    let noise: Vec<Formula> = (0..18).map(|_| generator.next_formula()).collect();
    // Every third request repeats an earlier body: cache hits under
    // interleaved interning.
    let requests: Vec<CheckRequest> = (0..18)
        .map(|job| {
            let formula = if job % 3 == 2 {
                &distinct[((job - 1) / 2) % 8]
            } else {
                &distinct[(job / 2) % 8]
            };
            CheckRequest::new(formula.clone()).decide()
        })
        .collect();

    // Cold references: one fresh, cache-off, sequential session per request.
    let references: Vec<CheckReport> = requests
        .iter()
        .map(|request| {
            Session::new()
                .with_verdict_cache(false)
                .check(request.clone().with_parallelism(Parallelism::Off))
        })
        .collect();

    let mut per_worker_runs: Vec<Vec<CheckReport>> = Vec::new();
    for workers in [0usize, 2, 4] {
        let owned = Session::new().with_parallelism(Parallelism::Fixed(workers));
        let session = &owned;
        let mut handles = Vec::new();
        for (job, request) in requests.iter().enumerate() {
            handles.push(session.submit(request.clone()));
            // Interleave: intern noise the queued jobs must *not* see, and
            // verify the arena version ratchets forward as ids append.
            let before = session.arena().version();
            let id = session.intern(&noise[job]);
            assert!(session.arena().version() >= before, "versions are monotone");
            assert_eq!(&session.extract(id), &noise[job], "interned ids round-trip");
            // Drain a prefix mid-stream so checks and interning overlap.
            if job % 3 == 0 {
                session.run_pending();
            }
        }
        let reports: Vec<CheckReport> = handles.iter().map(|handle| session.wait(handle)).collect();

        for (job, (report, reference)) in reports.iter().zip(&references).enumerate() {
            assert_eq!(
                report.verdict, reference.verdict,
                "job {job} at {workers} workers diverged from its cold reference"
            );
            assert_eq!(report.failing_index, reference.failing_index, "job {job} index");
            assert_eq!(report.stats.exhausted, reference.stats.exhausted, "job {job} exhaustion");
        }
        // Duplicates replay their first occurrence bit-for-bit (the cache
        // counters themselves and wall clock aside).
        for job in (2..18).step_by(3) {
            let first = (0..job)
                .find(|&earlier| requests[earlier].formula() == requests[job].formula())
                .expect("every third request repeats an earlier body");
            let mut replayed = reports[job].clone();
            let mut original = reports[first].clone();
            assert!(replayed.stats.cache.hits > 0, "job {job} was served from the cache");
            for report in [&mut replayed, &mut original] {
                normalize(report);
                report.stats.cache = CacheStats::default();
                // The arena-occupancy gauge reads the arena *now*; the noise
                // interned between the two occurrences legitimately grew it.
                report.stats.arena_nodes = 0;
            }
            assert_eq!(replayed, original, "job {job} must replay job {first} bit-for-bit");
        }
        let mut normalized = reports;
        zero_durations(&mut normalized);
        per_worker_runs.push(normalized);
    }
    assert_eq!(per_worker_runs[0], per_worker_runs[1], "workers 0 vs 2 diverged");
    assert_eq!(per_worker_runs[0], per_worker_runs[2], "workers 0 vs 4 diverged");
}
