//! The daemon: listener, fixed thread model, connection lifecycle,
//! shutdown.
//!
//! One accept thread hands connections to a **fixed-size** pool of
//! connection threads over a channel — no per-connection spawning, so a
//! connection flood degrades into queueing at the channel, not thread
//! exhaustion.  Each connection thread serves one keep-alive connection at
//! a time, with OS-level read/write deadlines
//! ([`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`]) so a
//! stalled peer cannot pin a thread.  `POST /check` executes on the
//! connection thread (it is synchronous by contract); `POST /batch` only
//! enqueues, and the configured batch workers drain the store.
//!
//! A handler panic is caught per-request: the connection answers a 500
//! (counted in `errors_5xx`) and closes, instead of unwinding the thread
//! and silently dropping the peer mid-response.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use ilogic_core::session::ErrorReport;

use crate::config::ServerConfig;
use crate::http::{read_request, write_response, HttpError, Response};
use crate::metrics::Metrics;
use crate::router::{handle, ServerContext};
use crate::shed::AdmissionGate;
use crate::store::JobStore;

/// Stack size of the threads that run checks (connection threads and batch
/// workers).  Analysis, translation, tableau expansion, `Display` and the
/// `Drop` of boxed formula trees all recurse over the formula; the parser's
/// [`MAX_NESTING`](ilogic_core::parser::MAX_NESTING) cap bounds that depth,
/// and this stack holds it — the router tests check formulas at the cap on
/// a thread of exactly this size.
pub const CHECK_THREAD_STACK_BYTES: usize = 8 * 1024 * 1024;

/// A running daemon; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    context: Arc<ServerContext>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Binds `config.addr` and starts serving; returns once the socket is
/// listening, so a caller can immediately connect (the e2e tests and the
/// smoke job depend on that).
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    config.validate().map_err(|message| io::Error::new(io::ErrorKind::InvalidInput, message))?;
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let metrics = Metrics::new(config.capacity);
    let context = Arc::new(ServerContext {
        gate: AdmissionGate::new(Arc::clone(&metrics), config.retry_after_ms),
        store: JobStore::new(config.job_sets_retained),
        // One warm session for the daemon's lifetime: every `POST /check`
        // interns into its multiversion arena and consults its verdict
        // cache, from whichever connection thread picked the request up.
        session: ilogic_core::session::Session::new(),
        metrics,
        config: config.clone(),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Bounded hand-off: with every connection thread busy, at most a small
    // backlog of accepted sockets waits here; beyond it the accept thread
    // itself blocks, and the kernel's listen backlog (and then the peers'
    // connect timeouts) absorb the flood.
    let (hand_off, sockets) = mpsc::sync_channel::<TcpStream>(config.connection_threads * 2);
    let sockets = Arc::new(Mutex::new(sockets));

    for index in 0..config.connection_threads {
        let context = Arc::clone(&context);
        let sockets = Arc::clone(&sockets);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ilogic-conn-{index}"))
                .stack_size(CHECK_THREAD_STACK_BYTES)
                .spawn(move || connection_loop(&context, &sockets))
                .expect("spawning a connection thread"),
        );
    }
    for index in 0..config.batch_workers {
        let context = Arc::clone(&context);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ilogic-batch-{index}"))
                .stack_size(CHECK_THREAD_STACK_BYTES)
                .spawn(move || context.store.worker_loop(&context.metrics))
                .expect("spawning a batch worker"),
        );
    }
    {
        let stop = Arc::clone(&stop);
        let config = config.clone();
        threads.push(
            std::thread::Builder::new()
                .name("ilogic-accept".to_string())
                .spawn(move || accept_loop(&listener, &hand_off, &stop, &config))
                .expect("spawning the accept thread"),
        );
    }

    Ok(ServerHandle { addr, context, stop, threads })
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's shared counters (for in-process tests; over the wire,
    /// scrape `GET /metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.context.metrics
    }

    /// Stops accepting, drains the admitted batch queue, and joins every
    /// thread.  In-flight requests complete; admitted job sets are never
    /// dropped.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; it re-checks
        // the flag before handing the socket anywhere.
        let _ = TcpStream::connect(self.addr);
        self.context.store.shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    hand_off: &SyncSender<TcpStream>,
    stop: &AtomicBool,
    config: &ServerConfig,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            // Dropping the sender closes the channel; connection threads
            // finish their current connection and exit.
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        let _ = stream.set_nodelay(true);
        if hand_off.send(stream).is_err() {
            return;
        }
    }
}

fn connection_loop(context: &ServerContext, sockets: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let receiver = sockets.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            receiver.recv()
        };
        match stream {
            Ok(stream) => serve_connection(context, stream),
            // Channel closed: the accept loop exited; we are shutting down.
            Err(_) => return,
        }
    }
}

/// Serves one keep-alive connection until the peer closes, errors, or sends
/// `Connection: close`.
fn serve_connection(context: &ServerContext, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, context.config.max_body_bytes) {
            Ok(request) => {
                let response = catch_unwind(AssertUnwindSafe(|| handle(&request, context)))
                    .unwrap_or_else(|_| {
                        context.metrics.error_5xx();
                        Response::new(
                            500,
                            ErrorReport::new("internal", "handler panicked; see server logs")
                                .to_json(),
                        )
                    });
                // A handler panic still answers a complete response, then
                // closes: the peer never sees a half-written body.
                let keep_alive = request.keep_alive && response.status != 500;
                if write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(HttpError::Closed | HttpError::Timeout | HttpError::Io(_)) => return,
            Err(HttpError::Malformed(message)) => {
                context.metrics.reject();
                let body = ErrorReport::new("bad-http", message).to_json();
                let _ = write_response(&mut writer, &Response::new(400, body), false);
                return;
            }
            Err(HttpError::TooLarge(size)) => {
                context.metrics.reject();
                let body = ErrorReport::new(
                    "payload-too-large",
                    format!("{size}-byte body exceeds the configured limit"),
                )
                .to_json();
                let _ = write_response(&mut writer, &Response::new(413, body), false);
                return;
            }
        }
    }
}

/// Blocks the calling thread until `handle`'s threads all exit (which only
/// happens after [`ServerHandle::shutdown`] from another thread, or
/// never — the daemon binary parks here).
pub fn run_forever(handle: ServerHandle) {
    for thread in handle.threads {
        let _ = thread.join();
    }
}
