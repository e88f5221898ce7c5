//! The service: accept loop, bounded queue, worker pool, graceful drain.
//!
//! The accept thread never executes a campaign — it only classifies:
//! queue has room → enqueue and wake a worker; queue full → answer
//! `503` + `Retry-After` on the spot and close. That keeps the
//! backpressure decision O(µs) no matter how long the workers are busy,
//! which is the whole point of bounding the queue explicitly instead of
//! letting the kernel's listen backlog absorb (and hide) the overload.
//!
//! The accept loop *blocks* in `accept(2)` — no poll quantum sits
//! between a client's SYN and the worker handoff. Shutdown wakes it
//! with a throwaway self-connection: [`Server::shutdown`] flips the
//! flag, then dials the listener once so the blocked accept returns,
//! re-checks the flag, and exits. Workers then drain every
//! already-queued connection before exiting, so an accepted request is
//! never dropped mid-run.
//!
//! Campaigns run against one process-wide [`CacheSession`]: the
//! content-addressed store (and its in-memory hot tier) is opened once
//! at startup and shared by every worker, so a warm request costs a
//! hot-tier lookup instead of a store open + directory walk + decode.
//! Connections are persistent (HTTP/1.1 keep-alive) within the typed
//! budget — see [`crate::http`] for the protocol rules and
//! [`ServeOptions`] for the knobs.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cedar_core::{CacheMode, CacheSession, CedarError, RunOptions, SuiteResult};
use cedar_obs::json;

use crate::http::{self, Request};
use crate::metrics::{HotTierView, Metrics};
use crate::options::ServeOptions;
use crate::reply;
use crate::spec::CampaignSpec;

/// The `Retry-After` the service advertises when shedding load,
/// seconds.
pub const RETRY_AFTER_S: u32 = 1;

/// Read budget for a connection's *first* request: a client that
/// connects owes us a request head promptly.
const FIRST_REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Granularity of the keep-alive idle wait. The worker blocks in
/// `fill_buf` at most this long per slice so it notices a shutdown
/// within a quarter second even while a client sits idle; a request
/// that arrives mid-slice wakes the read immediately, so this costs
/// warm-path latency nothing.
const IDLE_SLICE: Duration = Duration::from_millis(250);

/// Shared mutable state: the bounded connection queue plus the drain
/// flag, under one mutex so workers can wait on both with one condvar.
/// The cache session lives here too — one store handle and hot tier
/// for the whole process, not one per request.
struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    session: CacheSession,
    opts: ServeOptions,
}

/// A running campaign service. Dropping the handle neither shuts the
/// service down nor joins it: the threads keep serving until
/// [`Server::shutdown`] is called, and only [`Server::join`] waits for
/// them.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `opts.addr`, opens the process-wide run cache (read-write,
    /// with a hot tier of `opts.hot_capacity` decoded runs), spawns the
    /// accept loop and `opts.workers` campaign workers, and returns
    /// once the service is ready to answer. An unbindable address is
    /// [`CedarError::Internal`]; an unusable cache root surfaces here,
    /// at startup, as [`CedarError::CacheIo`] — not as a per-request
    /// `500`.
    pub fn start(opts: &ServeOptions) -> Result<Server, CedarError> {
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| CedarError::Internal(format!("bind {}: {e}", opts.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| CedarError::Internal(format!("local_addr: {e}")))?;

        let mut run_opts = RunOptions::default()
            .with_cache(CacheMode::ReadWrite)
            .with_cache_hot(opts.hot_capacity);
        if let Some(dir) = &opts.cache_dir {
            run_opts = run_opts.with_output_dir(dir);
        }
        let session = CacheSession::new(&run_opts)?;

        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::default(),
            session,
            opts: opts.clone(),
        });

        let mut threads = Vec::with_capacity(opts.workers + 1);
        let accept_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &accept_shared))
                .map_err(|e| CedarError::Internal(format!("spawn accept: {e}")))?,
        );
        for i in 0..opts.workers {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .map_err(|e| CedarError::Internal(format!("spawn worker: {e}")))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service's metrics, for in-process inspection.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Requests a graceful drain: stop accepting, finish everything
    /// already queued, then let the threads exit. Idempotent. The
    /// accept thread blocks in `accept(2)`, so this dials the listener
    /// once to wake it; if that connect fails (e.g. the interface went
    /// away) the loop still exits on the next real connection attempt.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Blocks until every thread has exited (i.e. until a shutdown has
    /// been requested and the queue has drained). A worker that
    /// panicked outside the campaign `catch_unwind` is re-raised here
    /// via [`std::panic::resume_unwind`] — a crashed worker thread is a
    /// bug the host process must see, not something to swallow during
    /// teardown.
    pub fn join(mut self) {
        let mut panicked = None;
        for t in self.threads.drain(..) {
            if let Err(payload) = t.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Accept loop: blocking accept + self-connection shutdown wake +
/// backpressure.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // The wake connection from `shutdown` lands here; any
                // late real client is dropped unanswered, which a
                // draining service is allowed to do.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Normalize the accepted socket to blocking, and turn
                // Nagle's algorithm off so every reply is sent the
                // moment it is written (see `crate::http`). On the rare
                // platform/fd-pressure failure the socket's mode is
                // unknown, and handing a maybe-nonblocking stream to a
                // worker turns into spurious `WouldBlock` parse errors,
                // a Nagle-on one into replies held for the client's
                // next ACK — reject it up front with a counted 500.
                if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                    reject_unconfigurable(stream, shared);
                    continue;
                }
                let mut q = shared.queue.lock().unwrap();
                if q.len() >= shared.opts.queue {
                    drop(q);
                    shed(stream, shared);
                } else {
                    q.push_back(stream);
                    drop(q);
                    shared.metrics.queue_delta(1);
                    shared.available.notify_one();
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (EMFILE, ECONNABORTED…):
                // back off briefly instead of spinning on the error.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Wake the workers so they notice the flag and drain.
    shared.available.notify_all();
}

/// Drops a connection whose socket could not be configured, answering
/// a typed `500` so the client sees an error rather than a silent
/// close, and counting it so the operator sees it in `/metrics`.
fn reject_unconfigurable(mut stream: TcpStream, shared: &Shared) {
    let err = CedarError::Internal(
        "accepted socket could not be set to blocking with TCP_NODELAY".to_string(),
    );
    let _ = http::write_response(
        &mut stream,
        err.http_status(),
        "application/json",
        &[],
        false,
        http::error_body(&err).as_bytes(),
    );
    shared.metrics.count_status(err.http_status());
}

/// Sheds one connection with `503` + `Retry-After`. `stream` was moved
/// out of the queue path, so the worker pool never sees it. Shed
/// replies always close: a client being turned away must not hold a
/// connection open.
fn shed(stream: TcpStream, shared: &Shared) {
    let mut stream = stream;
    let err = CedarError::Overloaded {
        retry_after_s: RETRY_AFTER_S,
    };
    let retry = format!("Retry-After: {RETRY_AFTER_S}");
    let _ = http::write_response(
        &mut stream,
        err.http_status(),
        "application/json",
        &[&retry],
        false,
        http::error_body(&err).as_bytes(),
    );
    shared.metrics.count_status(err.http_status());
}

/// Worker loop: pop, handle, repeat; exit once shutdown is flagged and
/// the queue is empty (the drain guarantee).
fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        let Some(mut stream) = stream else { return };
        shared.metrics.queue_delta(-1);
        handle_connection(&mut stream, shared);
    }
}

/// Serves one connection: up to `keepalive_requests` request/response
/// exchanges, each parsed/routed/timed like before, with the reader's
/// buffer surviving across requests so pipelined bytes are never lost.
/// The connection closes when the client asks (`Connection: close`,
/// HTTP/1.0 default), on any non-200, at the request budget, on idle
/// timeout, or when a drain begins.
fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    shared.metrics.count_connection();
    // The reader owns a dup'd handle (same underlying socket, so read
    // timeouts set on `stream` govern it too); `stream` keeps the
    // write side. The BufReader must outlive each request so bytes a
    // pipelining client sent early stay available to the next parse.
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            let err =
                CedarError::Internal("connection handle could not be duplicated".to_string());
            let _ = http::write_response(
                stream,
                err.http_status(),
                "application/json",
                &[],
                false,
                http::error_body(&err).as_bytes(),
            );
            shared.metrics.count_status(err.http_status());
            return;
        }
    };
    let mut reader = BufReader::new(read_half);
    let max_requests = shared.opts.keepalive_requests.max(1);

    for served in 0..max_requests {
        if served > 0 {
            if !await_next_request(&mut reader, stream, shared) {
                return;
            }
            shared.metrics.count_keepalive_reuse();
        }

        let _ = stream.set_read_timeout(Some(FIRST_REQUEST_TIMEOUT));
        let parse_start = Instant::now();
        let request = http::read_request(&mut reader);
        shared
            .metrics
            .parse_latency()
            .observe_us(parse_start.elapsed().as_micros() as u64);

        let (status, content_type, body) = match &request {
            Err(err) => (err.http_status(), "application/json", http::error_body(err)),
            Ok(req) => route(req, shared),
        };
        let client_close = request.map(|r| r.close).unwrap_or(true);
        let keep = status == 200
            && !client_close
            && served + 1 < max_requests
            && !shared.shutdown.load(Ordering::SeqCst);

        let write_start = Instant::now();
        let _ = http::write_response(stream, status, content_type, &[], keep, body.as_bytes());
        shared
            .metrics
            .write_latency()
            .observe_us(write_start.elapsed().as_micros() as u64);
        shared.metrics.count_status(status);
        if status != 200 {
            lingering_close(stream);
            return;
        }
        if !keep {
            return;
        }
    }
}

/// Waits for the next request's first bytes on a kept-alive
/// connection, in shutdown-aware slices of at most [`IDLE_SLICE`].
/// Returns `false` when the connection should close instead: the
/// client closed (clean EOF), the idle budget ran out, a drain began,
/// or the socket errored. Pipelined bytes already buffered return
/// `true` immediately without touching the socket.
fn await_next_request(
    reader: &mut BufReader<TcpStream>,
    stream: &TcpStream,
    shared: &Shared,
) -> bool {
    let deadline = Instant::now() + shared.opts.keepalive_idle;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let slice = IDLE_SLICE.min(deadline - now).max(Duration::from_millis(1));
        let _ = stream.set_read_timeout(Some(slice));
        match reader.fill_buf() {
            Ok([]) => return false,
            Ok(_) => return true,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return false,
        }
    }
}

/// Bounded lingering close for rejected requests. An error reply is
/// written before the request was fully consumed (oversized head,
/// truncated body); closing with unread bytes in the socket makes the
/// kernel send `RST`, which can clobber the typed error body before
/// the client reads it. Half-close the write side, then discard up to
/// 64 KiB of late input under a short timeout so the reply is reliably
/// delivered, and only then drop the connection.
fn lingering_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Dispatches one parsed request to its endpoint.
fn route(req: &Request, shared: &Shared) -> (u16, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let mut o = json::Obj::new();
            o.str("status", "ok");
            (200, "application/json", o.finish())
        }
        ("GET", "/metrics") => {
            // Evictions and occupancy are store-wide state, sampled at
            // scrape time from the shared session rather than summed
            // per campaign.
            let hot = shared.session.hot_occupancy().map(|(entries, capacity)| {
                let evictions = shared
                    .session
                    .stats()
                    .map(|s| s.hot_evictions)
                    .unwrap_or(0);
                HotTierView {
                    evictions,
                    entries,
                    capacity,
                }
            });
            (
                200,
                "text/plain; version=0.0.4",
                shared.metrics.render_with_hot(hot),
            )
        }
        ("POST", "/run") => match run_campaign(&req.body, shared) {
            Ok(body) => (200, "application/json", body),
            Err(err) => (
                err.http_status(),
                "application/json",
                http::error_body(&err),
            ),
        },
        (_, "/healthz" | "/metrics" | "/run") => {
            let err =
                CedarError::SpecParse(format!("method {} not allowed on {}", req.method, req.path));
            (405, "application/json", http::error_body(&err))
        }
        _ => {
            let err = CedarError::SpecParse(format!("no such endpoint `{}`", req.path));
            (404, "application/json", http::error_body(&err))
        }
    }
}

/// Executes one `POST /run` body: spec → typed options → the same
/// `SuiteResult` path the library exposes, against the process-wide
/// cache session — a warm spec replays from the hot tier (or disk)
/// without reopening the store, and the campaign's own cache traffic
/// (folded from per-experiment outcomes, so concurrent requests never
/// contaminate each other's counters) feeds `/metrics`.
fn run_campaign(body: &[u8], shared: &Shared) -> Result<String, CedarError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| CedarError::SpecParse("body is not UTF-8".to_string()))?;
    let spec = CampaignSpec::from_json(text)?;
    let opts = spec.run_options();

    let execute_start = Instant::now();
    // AssertUnwindSafe: the session is designed to survive a panicking
    // campaign — its counters are atomic and the hot tier's locks
    // recover from poisoning.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // The workload is pre-shrunk; the suite runner applies only the
        // scheduler and fault plan, mirroring CampaignSpec::sim_config.
        SuiteResult::run_sequential_shared(
            &[spec.workload()],
            &[spec.configuration],
            &opts,
            &shared.session,
        )
    }));
    shared
        .metrics
        .execute_latency()
        .observe_us(execute_start.elapsed().as_micros() as u64);
    let suite = match outcome {
        Ok(r) => r,
        Err(_) => {
            return Err(CedarError::Internal(
                "campaign panicked; see server log".to_string(),
            ))
        }
    };
    if let Some(cache) = &suite.telemetry.cache {
        shared.metrics.count_cache(cache);
    }
    Ok(reply::render(&spec, &suite.apps[0].runs[0]))
}
