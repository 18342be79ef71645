//! Experiment `PR-2`: sequential (PR 1 arena-memoized) vs sharded parallel
//! bounded checking.
//!
//! Benchmarks `BoundedChecker` over the Chapter-4 valid-formula catalogue in
//! both modes — the PR 1 baseline (`counterexample_interned`, one thread) and
//! the sharded worker-pool sweep (`sweep_budgeted` under an unbounded budget
//! at `Parallelism::Fixed(4)`) — and records per-schema means, the speedup, and
//! the machine's hardware thread count in `BENCH_PR2.json` at the workspace
//! root.  Worker verdicts are bit-identical to sequential ones (asserted
//! before timing), so the comparison is pure engine overhead/speedup.
//!
//! Run with `cargo bench -p ilogic-bench --bench parallel_bounded`.

use std::path::PathBuf;
use std::time::Duration;

use criterion::{BenchResult, Criterion};
use ilogic_core::arena::{FormulaArena, FormulaId};
use ilogic_core::bounded::BoundedChecker;
use ilogic_core::pool::{Parallelism, ResourceBudget};
use ilogic_core::trace::Trace;
use ilogic_core::valid;

/// Schemas representative of the catalogue's cost spectrum (same set as the
/// PR 1 experiment, so the baselines line up).
const SCHEMAS: &[&str] = &["V1", "V5", "V9", "V13", "V15"];

/// Workers in the parallel mode.
const WORKERS: usize = 4;

/// The sharded sweep's counterexample, under an unbounded budget.
fn sharded(
    checker: &BoundedChecker,
    arena: &FormulaArena,
    id: FormulaId,
    workers: usize,
) -> Option<Trace> {
    let unbounded = ResourceBudget::unbounded();
    let sweep = checker.sweep_budgeted(arena, id, None, Parallelism::Fixed(workers), &unbounded);
    sweep.counterexample.map(|(_, trace)| trace)
}

fn bench_catalogue(c: &mut Criterion) {
    // One state deeper than the PR 1 experiment: per-shard work has to dwarf
    // thread spawn/join for the fan-out to pay off.
    let checker = BoundedChecker::new(["P", "A", "B"], 3);
    let catalogue: Vec<_> =
        valid::catalogue().into_iter().filter(|(name, _)| SCHEMAS.contains(name)).collect();

    let mut group = c.benchmark_group("bounded_sequential");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(2500));
    group.warm_up_time(Duration::from_millis(300));
    for (name, formula) in &catalogue {
        let mut arena = FormulaArena::new();
        let id = arena.intern(formula);
        group.bench_function(*name, |b| {
            b.iter(|| checker.counterexample_interned(&arena, id).is_none());
        });
    }
    group.finish();

    // The sharded engine forced inline (1 worker, no threads spawned):
    // measures the overhead of the shard walk itself over the PR 1 loop.
    let mut group = c.benchmark_group("bounded_parallel1");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(2500));
    group.warm_up_time(Duration::from_millis(300));
    for (name, formula) in &catalogue {
        let mut arena = FormulaArena::new();
        let id = arena.intern(formula);
        group.bench_function(*name, |b| {
            b.iter(|| sharded(&checker, &arena, id, 1).is_none());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("bounded_parallel4");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(2500));
    group.warm_up_time(Duration::from_millis(300));
    for (name, formula) in &catalogue {
        let mut arena = FormulaArena::new();
        let id = arena.intern(formula);
        // Bit-identical verdicts are part of the experiment's contract.
        assert_eq!(
            sharded(&checker, &arena, id, WORKERS),
            checker.counterexample_interned(&arena, id),
            "{name}: parallel verdict diverged"
        );
        group.bench_function(*name, |b| {
            b.iter(|| sharded(&checker, &arena, id, WORKERS).is_none());
        });
    }
    group.finish();
}

fn record(results: &[BenchResult]) {
    let mean_of = |prefix: &str, name: &str| {
        results
            .iter()
            .find(|r| r.name == format!("{prefix}/{name}"))
            .map_or(f64::NAN, |r| r.mean_ns)
    };
    let mut entries = Vec::new();
    let mut total_seq = 0.0;
    let mut total_par1 = 0.0;
    let mut total_par = 0.0;
    for name in SCHEMAS {
        let seq = mean_of("bounded_sequential", name);
        let par1 = mean_of("bounded_parallel1", name);
        let par = mean_of("bounded_parallel4", name);
        total_seq += seq;
        total_par1 += par1;
        total_par += par;
        entries.push(format!(
            "    {{\"schema\": \"{name}\", \"sequential_ns\": {seq:.0}, \
             \"parallel1_ns\": {par1:.0}, \"parallel4_ns\": {par:.0}, \"speedup\": {:.2}}}",
            seq / par
        ));
    }
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"experiment\": \"PR2 sharded parallel vs sequential arena-memoized bounded \
         checking\",\n  \
         \"checker\": \"BoundedChecker::new([P, A, B], 3), lassos on\",\n  \
         \"workers\": {WORKERS},\n  \"hardware_threads\": {hw},\n  \
         \"unit\": \"ns per full catalogue-schema validity sweep\",\n  \
         \"note\": \"verdicts bit-identical across modes (asserted). parallel1 = sharded engine \
         forced inline (no threads): its parity with sequential shows the sharding layer is \
         overhead-free. Fan-out speedup is bounded above by hardware_threads — on a 1-thread \
         container the 4-worker sweep can only measure thread overhead, not speedup; re-run \
         on multi-core hardware for the intended ≥1.5x at 4 workers\",\n  \
         \"schemas\": [\n{}\n  ],\n  \
         \"total_sequential_ns\": {:.0},\n  \"total_parallel1_ns\": {:.0},\n  \
         \"total_parallel4_ns\": {:.0},\n  \
         \"inline_overhead\": {:.2},\n  \"overall_speedup\": {:.2}\n}}\n",
        entries.join(",\n"),
        total_seq,
        total_par1,
        total_par,
        total_par1 / total_seq,
        total_seq / total_par
    );
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_PR2.json"].iter().collect();
    std::fs::write(&path, &json).expect("write BENCH_PR2.json");
    println!("\nrecorded {} (overall speedup {:.2}x)", path.display(), total_seq / total_par);
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_catalogue(&mut criterion);
    record(&criterion.take_results());
}
