//! `serve_light`: the serving layers, with almost no engine work.
//!
//! Each pass starts an in-process daemon (`ilogic_server::start` on an
//! ephemeral port, one connection thread per hardware thread) and drives
//! it over [`CONNECTIONS`] keep-alive `ClientConn`s from this process, each
//! a closed loop over its share of a pre-built list of [`REQUESTS`]
//! `POST /check` bodies.  Every body asks for the `bounded` backend over
//! `[p, q, r]` at depth 2, with a generator formula printed by `Display`;
//! about half the bodies repeat a recent one, so the daemon's warm session
//! answers verdict-cache hits beside misses.  A fresh daemon per pass keeps
//! that mix the same in every pass, so a request's latency is its median
//! time over the passes, and `ops_per_s` follows from those times by
//! Little's law.
//!
//! Bodies whose printed formula does not parse back (the print/parse
//! round-trip defect) or fails the error lints answer `parse`/`lint` 400s.
//! They are kept in the list, tallied by code and counted as undecided.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ilogic_core::analysis::{analyze, analyze_formula};
use ilogic_core::arena::FormulaArena;
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::json::Json;
use ilogic_core::parser::parse_formula;
use ilogic_core::session::{CacheStats, CheckReport, ErrorReport, Session};
use ilogic_server::http::Request;
use ilogic_server::metrics::Metrics;
use ilogic_server::router::{self, ServerContext};
use ilogic_server::shed::AdmissionGate;
use ilogic_server::store::JobStore;
use ilogic_server::{wire, ClientConn, ServerConfig, ServerHandle};

use crate::stats::{self, ms, us, SplitMix64};
use crate::{hw_threads, peak_rss_mb, Latency, Outcome, TimedRun};

/// Requests per pass.
pub const REQUESTS: usize = 20_000;
/// Keep-alive client connections, one client thread each.
pub const CONNECTIONS: usize = 2;
/// Share of bodies (in percent) that repeat one of the last [`RECENT`].
const DUPLICATE_PERCENT: u64 = 50;
const RECENT: usize = 16;
/// Connect, read and write timeout of the client connections.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn body(formula: &str) -> String {
    let props = ["p", "q", "r"].iter().map(|p| Json::Str((*p).to_string())).collect();
    Json::object()
        .field("formula", Json::Str(formula.to_string()))
        .field(
            "backend",
            Json::object()
                .field("kind", Json::Str("bounded".to_string()))
                .field("props", Json::Array(props))
                .field("max_len", Json::Int(2)),
        )
        .to_string()
}

/// The seed's request list.
pub fn bodies(seed: u64) -> Vec<String> {
    let mut generator = FormulaGenerator::from_seed(seed, GeneratorConfig::default());
    let mut rng = SplitMix64::new(seed ^ 0x5E7E_11C4_0000_0001);
    let mut bodies: Vec<String> = Vec::with_capacity(REQUESTS);
    let mut recent: Vec<usize> = Vec::with_capacity(RECENT);
    while bodies.len() < REQUESTS {
        if !recent.is_empty() && rng.below(100) < DUPLICATE_PERCENT {
            let pick = recent[rng.below(recent.len() as u64) as usize];
            bodies.push(bodies[pick].clone());
        } else {
            if recent.len() == RECENT {
                recent.remove(0);
            }
            recent.push(bodies.len());
            bodies.push(body(&generator.next_formula().to_string()));
        }
    }
    bodies
}

/// The daemon's configuration: an ephemeral port and a connection thread
/// per hardware thread (at least one per client connection, so no client
/// waits for a thread).
fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        connection_threads: hw_threads().max(CONNECTIONS),
        ..ServerConfig::default()
    }
}

struct Daemon {
    handle: ServerHandle,
    conns: Vec<ClientConn>,
}

impl Daemon {
    /// Binds, connects every client and waits for each one's first
    /// `/healthz`.
    fn start() -> Result<Daemon, String> {
        let handle = ilogic_server::start(config()).map_err(|e| format!("starting daemon: {e}"))?;
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let mut conn = connect(handle.addr())?;
            let health = conn.get("/healthz").map_err(|e| format!("GET /healthz: {e}"))?;
            if health.status != 200 {
                return Err(format!("GET /healthz answered {}", health.status));
            }
            conns.push(conn);
        }
        Ok(Daemon { handle, conns })
    }

    /// Closes the clients first, so the connection threads see EOF, then
    /// joins every daemon thread.
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

fn connect(addr: SocketAddr) -> Result<ClientConn, String> {
    ClientConn::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("connecting to {addr}: {e}"))
}

/// How one request ended, as the client saw it.
enum Answer {
    /// A 200 report; `true` when its verdict is definite.
    Report(bool),
    /// A refusal, by `ErrorReport` code (`parse`, `lint`, `shed`, `5xx`,
    /// `transport`, ...).
    Refused(String),
}

impl Answer {
    /// Whether the system failed to serve the request.  `parse` and `lint`
    /// 400s are correct answers to the bodies sent, so they do not count.
    fn failed(&self) -> bool {
        matches!(self, Answer::Refused(code) if !matches!(code.as_str(), "parse" | "lint"))
    }
}

/// The `ErrorReport` code of an error body, read without a full parse.
fn error_code(status: u16, body: &str) -> String {
    match status {
        503 => "shed".to_string(),
        500..=599 => "5xx".to_string(),
        _ => body
            .strip_prefix("{\"error\":\"")
            .and_then(|rest| rest.split('"').next())
            .map_or_else(|| format!("http-{status}"), str::to_string),
    }
}

struct Exchange {
    index: usize,
    latency_us: f64,
    answer: Answer,
    /// Status and body, kept only when the pass is checked.
    response: Option<(u16, String)>,
}

struct PassResult {
    busy: Duration,
    exchanges: Vec<Exchange>,
}

/// What one client thread brings back from a pass.
struct ClientRun {
    start: Instant,
    end: Instant,
    exchanges: Vec<Exchange>,
    /// The connection, unless it was lost and could not be reopened.
    conn: Option<ClientConn>,
}

/// One pass: every connection sends its share of `bodies` back to back,
/// all starting together.  Consumes the daemon and stops it afterwards.
fn pass(daemon: Daemon, bodies: &[String], keep: bool) -> PassResult {
    let Daemon { handle, conns } = daemon;
    let addr = handle.addr();
    let count = conns.len();
    let barrier = Barrier::new(count);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let clients: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(slot, conn)| {
                let barrier = &barrier;
                scope.spawn(move || drive(slot, count, conn, addr, bodies, keep, barrier))
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    });
    let start = runs.iter().map(|r| r.start).min().expect("at least one connection");
    let end = runs.iter().map(|r| r.end).max().expect("at least one connection");
    let mut exchanges = Vec::with_capacity(bodies.len());
    let mut conns = Vec::with_capacity(count);
    for mut run in runs {
        exchanges.append(&mut run.exchanges);
        conns.extend(run.conn);
    }
    exchanges.sort_by_key(|e| e.index);
    Daemon { handle, conns }.stop();
    PassResult { busy: end - start, exchanges }
}

/// One client's closed loop over bodies `slot, slot + count, ...`.
fn drive(
    slot: usize,
    count: usize,
    conn: ClientConn,
    addr: SocketAddr,
    bodies: &[String],
    keep: bool,
    barrier: &Barrier,
) -> ClientRun {
    let mut exchanges = Vec::with_capacity(bodies.len() / count + 1);
    let mut live = Some(conn);
    barrier.wait();
    let start = Instant::now();
    for index in (slot..bodies.len()).step_by(count) {
        let sent = Instant::now();
        let result = match live.as_mut() {
            Some(conn) => conn.post("/check", &bodies[index]),
            None => Err(std::io::Error::other("connection lost")),
        };
        let latency_us = us(sent.elapsed());
        let (answer, response) = match result {
            Ok(response) => {
                let answer = if response.status == 200 {
                    Answer::Report(!response.body.contains("\"verdict\":{\"kind\":\"unknown\""))
                } else {
                    Answer::Refused(error_code(response.status, &response.body))
                };
                (answer, keep.then_some((response.status, response.body)))
            }
            Err(_) => {
                // Reopen for the next request; while that fails, the rest
                // of this client's share counts as transport errors.
                live = connect(addr).ok();
                (Answer::Refused("transport".to_string()), None)
            }
        };
        exchanges.push(Exchange { index, latency_us, answer, response });
    }
    ClientRun { start, end: Instant::now(), exchanges, conn: live }
}

/// The untimed-then-timed run; checks the first pass's responses after the
/// window.
pub fn run(
    seed: u64,
    window: Duration,
    process_start: Instant,
    outcome: &mut Outcome,
) -> Result<TimedRun, String> {
    let mut timed = TimedRun::default();
    let mut bodies = Vec::new();
    let mut first_pass = Vec::new();
    let mut samples_us: Vec<Vec<f64>> = vec![Vec::new(); REQUESTS];
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut window_start = None;
    loop {
        // Every pass sets up afresh: the request list, then a bound daemon
        // with every client connected and answered `/healthz`.  The first
        // set-up runs from process start.
        let setup_start = if timed.passes == 0 { process_start } else { Instant::now() };
        let list = self::bodies(seed);
        let daemon = Daemon::start()?;
        timed.setups.push(setup_start.elapsed());
        let window_start = *window_start.get_or_insert_with(Instant::now);
        let result = pass(daemon, &list, timed.passes == 0);
        for exchange in &result.exchanges {
            samples_us[exchange.index].push(exchange.latency_us);
            match &exchange.answer {
                Answer::Report(decided) => timed.decided += u64::from(*decided),
                Answer::Refused(code) => {
                    *timed.failures.entry(code.clone()).or_default() += 1;
                    timed.failed += u64::from(exchange.answer.failed());
                }
            }
        }
        timed.attempted += result.exchanges.len() as u64;
        rates.push(result.exchanges.len() as f64 / result.busy.as_secs_f64());
        let latency = Latency::of(result.exchanges.iter().map(|e| e.latency_us).collect());
        p50s.push(latency.p50_us);
        p99s.push(latency.p99_us);
        if timed.passes == 0 {
            bodies = list;
            first_pass = result.exchanges;
            timed.peak_rss_mb = peak_rss_mb()?;
        }
        timed.passes += 1;
        if window_start.elapsed() >= window {
            break;
        }
    }
    // Little's law for a closed loop without think time: CONNECTIONS
    // requests are always in flight, so throughput is CONNECTIONS over the
    // mean latency (the one-caller case of decide_corpus's summed times).
    let medians: Vec<f64> = samples_us.into_iter().map(stats::median).collect();
    let mean_median_s = medians.iter().sum::<f64>() / medians.len() as f64 / 1e6;
    timed.ops_per_s = CONNECTIONS as f64 / mean_median_s;
    timed.latency = Latency::of(medians);
    timed.method = format!(
        "per request, its median over the passes; ops/s = {CONNECTIONS} connections over their \
         mean (median pass {:.0} ops/s, p50 {:.1} us, p99 {:.1} us)",
        stats::median(rates),
        stats::median(p50s),
        stats::median(p99s)
    );
    check_responses(&bodies, &first_pass, outcome);
    Ok(timed)
}

/// A report with the fields that legitimately differ between the warm
/// daemon and a fresh in-process session zeroed: durations, cache
/// counters, the session-cumulative counters, the arena size, and the
/// arena ids that diagnostic paths quote.
fn masked(mut report: CheckReport) -> CheckReport {
    report.stats.duration = Duration::ZERO;
    report.stats.cache = CacheStats::default();
    report.stats.session_cache = CacheStats::default();
    report.stats.session_memo = Default::default();
    report.stats.session_condition = Default::default();
    report.stats.arena_nodes = 0;
    for diagnostic in &mut report.diagnostics {
        diagnostic.path.clear();
    }
    report
}

/// Every 200 must equal the in-process report for the same request, and
/// every 400 the in-process wire translation's `ErrorReport`.
fn check_responses(bodies: &[String], exchanges: &[Exchange], outcome: &mut Outcome) {
    let config = config();
    let session = Session::new();
    for exchange in exchanges {
        let index = exchange.index;
        let Some((status, response)) = &exchange.response else {
            outcome.mismatch(format!("serve_light request {index}: no response"));
            continue;
        };
        let request = Json::parse(&bodies[index])
            .map_err(|e| wire::body_error(&e))
            .and_then(|json| wire::check_request_from_json(&json, &config));
        let (expected_status, expected, got) = match request {
            Ok(request) => (
                200,
                masked(session.check(request)).to_json(),
                CheckReport::from_json(response).map(|r| masked(r).to_json()),
            ),
            Err(error) => {
                (400, error.to_json(), ErrorReport::from_json(response).map(|e| e.to_json()))
            }
        };
        let got = got.unwrap_or_else(|e| format!("unreadable body ({e}): {response}"));
        if *status != expected_status || got != expected {
            outcome.mismatch(format!(
                "serve_light request {index} `{}`: answered {status} {got}; in process \
                 {expected_status} {expected}",
                bodies[index]
            ));
        }
    }
}

/// Time per layer over one replayed pass.
#[derive(Default)]
struct Layers {
    parse_us: Vec<f64>,
    decode_us: Vec<f64>,
    analysis_calls: u64,
    analysis: Duration,
    encode_us: Vec<f64>,
    router_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    overhead_us: Vec<f64>,
}

fn p50(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    stats::percentile(values, 0.5)
}

/// The traced replay: the seed's request list through the wire, parser,
/// analysis, session, report codec and router in process, then one pass
/// over HTTP for the client-side latency.
pub fn trace(seed: u64, outcome: &mut Outcome) -> Result<(), String> {
    let bodies = bodies(seed);
    let config = config();
    let session = Session::new();
    let metrics = Metrics::new(config.capacity);
    let context = ServerContext {
        gate: AdmissionGate::new(Arc::clone(&metrics), config.retry_after_ms),
        store: JobStore::new(config.job_sets_retained),
        session: Session::new(),
        metrics,
        config: config.clone(),
    };
    let mut arena = FormulaArena::new();
    let mut layers = Layers::default();
    for (index, body) in bodies.iter().enumerate() {
        let start = Instant::now();
        let request = Json::parse(body)
            .map_err(|e| wire::body_error(&e))
            .and_then(|json| wire::check_request_from_json(&json, &config));
        layers.decode_us.push(us(start.elapsed()));

        let text = Json::parse(body)
            .ok()
            .and_then(|json| json.get("formula").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| format!("serve_light body {index} has no formula"))?;
        let start = Instant::now();
        let parsed = parse_formula(&text);
        layers.parse_us.push(us(start.elapsed()));
        if let Ok(formula) = &parsed {
            // The wire lint, then (for admitted requests) the session's
            // prepare: analysis runs twice per checked request.
            let start = Instant::now();
            std::hint::black_box(analyze_formula(formula));
            layers.analysis += start.elapsed();
            layers.analysis_calls += 1;
            if request.is_ok() {
                let start = Instant::now();
                std::hint::black_box(analyze(&mut arena, formula));
                layers.analysis += start.elapsed();
                layers.analysis_calls += 1;
            }
        }

        let expected_status = match request {
            Ok(request) => {
                let start = Instant::now();
                let report = session.check(request);
                let took = start.elapsed();
                if report.stats.cache.hits > 0 {
                    layers.hit_us.push(us(took));
                } else {
                    layers.miss_us.push(us(took));
                    layers.overhead_us.push(us(took.saturating_sub(report.stats.duration)));
                }
                let start = Instant::now();
                std::hint::black_box(report.to_json());
                layers.encode_us.push(us(start.elapsed()));
                200
            }
            Err(_) => 400,
        };

        let request = Request {
            method: "POST".to_string(),
            path: "/check".to_string(),
            body: body.clone(),
            keep_alive: true,
        };
        let start = Instant::now();
        let response = router::handle(&request, &context);
        layers.router_us.push(us(start.elapsed()));
        if response.status != expected_status {
            outcome.mismatch(format!(
                "serve_light replay of request {index}: router answered {}, the layer replay {}",
                response.status, expected_status
            ));
        }
    }

    let hits = layers.hit_us.len();
    let misses = layers.miss_us.len();
    let router_p50 = p50(&mut layers.router_us);
    let http = pass(Daemon::start()?, &bodies, false);
    outcome.attempted += (bodies.len() + http.exchanges.len()) as u64;
    outcome.failed += http.exchanges.iter().filter(|e| e.answer.failed()).count() as u64;
    let mut client_us: Vec<f64> = http.exchanges.iter().map(|e| e.latency_us).collect();
    let client_p50 = p50(&mut client_us);
    println!(
        "serve_light trace: {} requests, {hits} cache hits / {misses} misses in process; client \
         p50 {client_p50:.1} us over {} samples, router p50 {router_p50:.1} us",
        bodies.len(),
        client_us.len()
    );
    outcome.metric("parser.parse_us", p50(&mut layers.parse_us), "us");
    outcome.metric("analysis.calls", layers.analysis_calls as f64, "count");
    outcome.metric("analysis.busy_ms", ms(layers.analysis), "ms");
    outcome.metric("wire.decode_us", p50(&mut layers.decode_us), "us");
    outcome.metric("report.encode_us", p50(&mut layers.encode_us), "us");
    outcome.metric("router.handle_us", router_p50, "us");
    outcome.metric("http.io_us", client_p50 - router_p50, "us");
    outcome.metric("session.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    outcome.metric("session.cache_hit_us", p50(&mut layers.hit_us), "us");
    outcome.metric("session.cache_miss_us", p50(&mut layers.miss_us), "us");
    outcome.metric("session.overhead_us", p50(&mut layers.overhead_us), "us");
    Ok(())
}
