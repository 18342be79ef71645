//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decide_corpus|serve_light> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced: after set-up, the
//! timed closed loop runs passes over the workload's pre-built input list
//! until `--seconds` have elapsed (at least one whole pass), and the
//! outputs are then checked outside the timed window.  The end-to-end
//! metrics go to the last stdout line as one JSON object.
//!
//! With `--trace 1` the seed's inputs of both workloads, and the two
//! full-size sweeps of [`sweep_fanout`], are replayed through the layers'
//! public functions, one timed call per layer, and the per-layer metrics go
//! to the last line instead.  The replay checks itself against
//! `Session::check`, so the split it reports can be trusted.
//!
//! Either mode exits non-zero, after printing `"correct": false`, on any
//! output mismatch.

mod decide_corpus;
mod serve_light;
mod stats;
mod sweep_fanout;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation reports: the last stdout line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output mismatches found by the checks; any entry makes the run fail.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a mismatch, keeping the list short enough to print.
    pub fn mismatch(&mut self, message: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(message);
        } else if self.mismatches.len() == 20 {
            self.mismatches.push("further mismatches omitted".to_string());
        }
    }

    fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-operation latency percentiles, and how many samples they rest on.
#[derive(Debug, Default)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Samples each percentile was taken over.
    pub samples: usize,
    /// Samples above the p99 (at least 10 makes p99 a resolved tail).
    pub beyond_p99: usize,
}

impl Latency {
    /// Nearest-rank percentiles of `samples_us`.
    pub fn of(mut samples_us: Vec<f64>) -> Latency {
        samples_us.sort_by(f64::total_cmp);
        let p99_us = stats::percentile(&samples_us, 0.99);
        Latency {
            p50_us: stats::percentile(&samples_us, 0.50),
            p99_us,
            samples: samples_us.len(),
            beyond_p99: samples_us.iter().filter(|&&l| l > p99_us).count(),
        }
    }
}

/// What every untraced workload run measures; turned into the shared
/// end-to-end vocabulary by [`TimedRun::finish`].  Each workload forms its
/// figures from every operation's repeated times over the passes (see its
/// module), so a slow stretch of a shared machine moves them less.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// Each pass's set-up time; the first runs from process start.  Set-up
    /// is everything before a pass's first operation.
    pub setups: Vec<Duration>,
    pub passes: usize,
    pub ops_per_s: f64,
    pub latency: Latency,
    /// How `ops_per_s` and `latency` were formed, for the summary line.
    pub method: String,
    pub attempted: u64,
    /// Operations that answered `Holds`, `ValidUpTo` or `Counterexample`.
    pub decided: u64,
    /// Operations the system failed to serve (transport errors, 5xx, shed).
    pub failed: u64,
    /// Refused operations by `ErrorReport` code, `parse`/`lint` included.
    pub failures: BTreeMap<String, u64>,
    /// High-water RSS through set-up and the first pass.  Later passes
    /// repeat the same work; the allocator's churn over them is noise.
    pub peak_rss_mb: f64,
}

impl TimedRun {
    /// Prints the human summary and fills `outcome` with the end-to-end
    /// metrics.
    pub fn finish(self, workload: &str, outcome: &mut Outcome) {
        let first_setup_s = self.setups.first().map_or(0.0, Duration::as_secs_f64);
        let setup_s = stats::median(self.setups.iter().map(Duration::as_secs_f64).collect());
        let Latency { p50_us, p99_us, samples, beyond_p99 } = self.latency;
        let decided_share = self.decided as f64 / self.attempted as f64;
        let peak_rss_mb = self.peak_rss_mb;
        println!(
            "{workload}: {} ops in {} passes; {:.3} ops/s; setup {setup_s:.6} s, the median of \
             {} set-ups (the first, from process start: {first_setup_s:.6} s)",
            self.attempted,
            self.passes,
            self.ops_per_s,
            self.setups.len(),
        );
        println!(
            "{workload}: latency p50 {p50_us:.1} us, p99 {p99_us:.1} us over {samples} samples \
             ({beyond_p99} beyond p99{}); {}",
            if beyond_p99 < 10 { ", fewer than 10: p99 is not a resolved tail" } else { "" },
            self.method
        );
        println!(
            "{workload}: decided {} of {} attempted ({decided_share:.4}); failed {}; peak RSS \
             through the first pass {peak_rss_mb:.1} MB",
            self.decided, self.attempted, self.failed
        );
        let tally: Vec<String> = self
            .failures
            .iter()
            .map(|(code, n)| format!("{code} {n} ({:.4})", *n as f64 / self.attempted as f64))
            .collect();
        println!(
            "{workload}: refusals by code against {} attempts: {}",
            self.attempted,
            if tally.is_empty() { "none".to_string() } else { tally.join(", ") }
        );
        outcome.attempted = self.attempted;
        outcome.failed = self.failed;
        outcome.metric("setup_s", setup_s, "s");
        outcome.metric("ops_per_s", self.ops_per_s, "1/s");
        outcome.metric("latency_p50_us", p50_us, "us");
        outcome.metric("latency_p99_us", p99_us, "us");
        outcome.metric("decided_share", decided_share, "ratio");
        outcome.metric("peak_rss_mb", peak_rss_mb, "MB");
    }
}

/// The process's high-water resident set size so far, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("reading /proc/self/status: {error}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Hardware threads of this machine, reported with every thread-dependent
/// figure.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "decide_corpus" | "serve_light") {
        return Err(format!(
            "unknown workload {workload:?} (expected decide_corpus or serve_light)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} hw_threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hw_threads()
    );
    if args.trace {
        decide_corpus::trace(args.seed, &mut outcome)?;
        serve_light::trace(args.seed, &mut outcome)?;
        sweep_fanout::trace(args.seed, &mut outcome)?;
        return Ok(outcome);
    }
    let window = Duration::from_secs(args.seconds);
    let timed = match args.workload.as_str() {
        "decide_corpus" => decide_corpus::run(args.seed, window, process_start, &mut outcome)?,
        _ => serve_light::run(args.seed, window, process_start, &mut outcome)?,
    };
    timed.finish(&args.workload, &mut outcome);
    Ok(outcome)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(outcome) => {
            for mismatch in &outcome.mismatches {
                eprintln!("perfbench: MISMATCH: {mismatch}");
            }
            println!("{}", outcome.to_json_line());
            if outcome.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
