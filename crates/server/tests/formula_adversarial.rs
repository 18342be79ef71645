//! Hostile formulas through the daemon's request handler.
//!
//! The formula string of a `POST /check` body is client input like any
//! other, so the parser and every pass behind it must treat it as hostile:
//! the formula counterpart of `crates/core/tests/json_adversarial.rs`.  Each
//! case goes through [`router::handle`] on a thread with the daemon's
//! check-thread stack, as a connection thread would run it, and must come
//! back as a structured `400` or an answer — never a panic, a stack
//! overflow, a hang or an exhausted heap — within [`ANSWER_BOUND`].

use std::time::{Duration, Instant};

use ilogic_core::parser::{MAX_FORMULA_NODES, MAX_NESTING};
use ilogic_core::session::{CheckReport, ErrorReport, Session};
use ilogic_server::http::{Request, Response};
use ilogic_server::metrics::Metrics;
use ilogic_server::router::{self, ServerContext};
use ilogic_server::server::CHECK_THREAD_STACK_BYTES;
use ilogic_server::shed::AdmissionGate;
use ilogic_server::store::JobStore;
use ilogic_server::ServerConfig;

/// The wall-clock bound on every case, generous for a debug build on a
/// loaded 2-thread host; each request also carries a 2 s check deadline.
const ANSWER_BOUND: Duration = Duration::from_secs(60);

fn context() -> ServerContext {
    let config = ServerConfig::default();
    let metrics = Metrics::new(config.capacity);
    ServerContext {
        gate: AdmissionGate::new(metrics.clone(), config.retry_after_ms),
        store: JobStore::new(config.job_sets_retained),
        session: Session::new(),
        metrics,
        config,
    }
}

/// What a hostile check came back as.
enum Outcome {
    /// A structured error with this status and code.
    Refused(u16, String),
    /// A report.
    Answered(Box<CheckReport>),
}

/// Posts `formula` to `/check` through [`router::handle`] on a daemon-sized
/// check thread, asserting the response is structured and in time.
fn check(label: &str, formula: String) -> Outcome {
    let body = format!(
        r#"{{"formula": "{formula}", "budget": {{"max_edges": 20000, "timeout_ms": 2000}}}}"#
    );
    drop(formula);
    let request = Request { method: "POST".into(), path: "/check".into(), body, keep_alive: true };
    let start = Instant::now();
    let response: Response = std::thread::Builder::new()
        .stack_size(CHECK_THREAD_STACK_BYTES)
        .spawn(move || router::handle(&request, &context()))
        .expect("spawning a check thread")
        .join()
        .unwrap_or_else(|_| panic!("{label}: the check thread panicked"));
    let elapsed = start.elapsed();
    assert!(elapsed < ANSWER_BOUND, "{label}: answered after {elapsed:?}");
    match response.status {
        200 => Outcome::Answered(Box::new(
            CheckReport::from_json(&response.body)
                .unwrap_or_else(|error| panic!("{label}: the 200 body is no report: {error}")),
        )),
        status => {
            let error = ErrorReport::from_json(&response.body)
                .unwrap_or_else(|e| panic!("{label}: the {status} body is unstructured: {e}"));
            Outcome::Refused(status, error.code)
        }
    }
}

/// Asserts `outcome` is a structured `parse` 400 whose message the caller
/// already checked the code of.
fn assert_parse_400(label: &str, outcome: Outcome) {
    match outcome {
        Outcome::Refused(400, code) => assert_eq!(code, "parse", "{label}"),
        Outcome::Refused(status, code) => {
            panic!("{label}: expected a parse 400, got {status} {code}")
        }
        Outcome::Answered(report) => {
            panic!("{label}: expected a parse 400, got {}", report.verdict)
        }
    }
}

#[test]
fn flat_chains_of_a_hundred_thousand_operands_are_refused() {
    for (label, operator) in [("conjunction", " & "), ("disjunction", " | ")] {
        let same = format!("P{}", format!("{operator}P").repeat(99_999));
        assert_parse_400(&format!("{label} of one proposition"), check(label, same));
        let distinct: Vec<String> = (0..100_000).map(|i| format!("p{i}")).collect();
        assert_parse_400(
            &format!("{label} of distinct propositions"),
            check(label, distinct.join(operator)),
        );
    }
}

#[test]
fn a_one_megabyte_identifier_is_answered() {
    let name = "x".repeat(1 << 20);
    match check("1 MB identifier", format!("{name} | ~{name}")) {
        Outcome::Answered(report) => assert!(report.verdict.passed(), "{}", report.verdict),
        Outcome::Refused(status, code) => {
            panic!("1 MB identifier: a tautology over one proposition got {status} {code}")
        }
    }
}

#[test]
fn ten_thousand_distinct_propositions_get_a_structured_answer() {
    // A balanced disjunction tree keeps the nesting shallow (14 levels), so
    // the parser accepts it and everything behind the parser must cope.
    let mut layer: Vec<String> = (0..10_000).map(|i| format!("p{i}")).collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => format!("({a} | {b})"),
                [a] => a.clone(),
                _ => unreachable!("chunks of two"),
            })
            .collect();
    }
    let formula = layer.pop().expect("one root");
    assert!(ilogic_core::parser::parse_formula(&formula).is_ok(), "within both parser caps");
    match check("10^4 propositions", formula) {
        Outcome::Answered(_) => {}
        Outcome::Refused(status, code) => {
            assert!(matches!(status, 400 | 503), "10^4 propositions: {status} {code}");
        }
    }
}

#[test]
fn biconditional_bombs_are_refused_before_they_expand() {
    let chain = format!("P{}", " <-> P".repeat(40));
    let nested = format!("{}P{}", "(P <-> ".repeat(40), ")".repeat(40));
    for (label, formula) in [("<-> chain", chain), ("nested <->", nested)] {
        assert_parse_400(label, check(label, formula));
    }
}

#[test]
fn the_caps_leave_room_for_ordinary_formulas() {
    // The largest shapes the caps admit still get answers, not refusals.
    let balanced_width = MAX_FORMULA_NODES / 8;
    let mut layer: Vec<String> = (0..balanced_width).map(|i| format!("p{}", i % 4)).collect();
    while layer.len() > 1 {
        layer = layer.chunks(2).map(|pair| format!("({})", pair.join(" & "))).collect();
    }
    let chain = format!("P{}", " & P".repeat(MAX_NESTING - 2));
    for (label, formula) in [("wide balanced tree", layer.pop().unwrap()), ("capped chain", chain)]
    {
        assert!(matches!(check(label, formula), Outcome::Answered(_)), "{label}");
    }
}
