//! End-to-end tests of the campaign service on a real socket.
//!
//! Each test binds an ephemeral port, drives the service with raw
//! HTTP/1.1 over `TcpStream` (the same framing any client would use),
//! and checks the service-level guarantees: replies are byte-identical
//! to the library path (and to their own cache-hit replays — cold,
//! warm-from-disk, and hot-tier alike), malformed specs get typed
//! `400`s, overflow gets `503` + `Retry-After`, keep-alive connections
//! serve repeated requests with bounded idle time, and a graceful
//! drain finishes queued work.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cedar::obs::json;
use cedar::prelude::*;
use cedar::serve::reply::measurement_fingerprint;

/// One spec every test can share: small enough to run in milliseconds,
/// real enough to exercise the full pipeline.
const SPEC: &str = r#"{"app":"FLO52","processors":4,"scheduler":"calendar","shrink":64}"#;

fn start_server(queue: usize, workers: usize) -> (Server, String) {
    start_server_with(ServeOptions::default().with_queue(queue).with_workers(workers))
}

fn start_server_with(opts: ServeOptions) -> (Server, String) {
    let cache_dir = std::env::temp_dir().join(format!(
        "cedar-serve-test-{}-{}",
        std::process::id(),
        fastrand()
    ));
    let opts = opts.with_addr("127.0.0.1:0").with_cache_dir(&cache_dir);
    let server = Server::start(&opts).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// A tiny unique-ish suffix so parallel tests get distinct cache roots
/// (no determinism requirement — this only isolates directories).
fn fastrand() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64
}

/// Sends one raw request (announcing `Connection: close`, so the
/// keep-alive server hands the socket back immediately) and returns
/// (status, headers, body).
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head.to_string(), payload.to_string())
}

/// Reads one `Content-Length`-framed response off a persistent
/// connection: (status, head, body). The keep-alive counterpart of
/// `request` — the connection stays usable for the next exchange.
fn read_framed<R: BufRead>(reader: &mut R) -> (u16, String, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    let mut head = line.trim_end().to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        head.push_str("\r\n");
        head.push_str(header);
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, head, String::from_utf8(body).expect("utf8 body"))
}

/// The raw bytes of one keep-alive `POST /run` carrying `spec`.
fn keepalive_post(spec: &str) -> String {
    format!(
        "POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{spec}",
        spec.len()
    )
}

fn post_run(addr: &str, spec: &str) -> (u16, String) {
    let (status, _, body) = request(addr, "POST", "/run", spec);
    (status, body)
}

#[test]
fn reply_matches_the_library_path_under_both_schedulers() {
    let (server, addr) = start_server(16, 2);
    for scheduler in ["heap", "calendar"] {
        let spec_text =
            format!(r#"{{"app":"FLO52","processors":4,"scheduler":"{scheduler}","shrink":64}}"#);
        let (status, body) = post_run(&addr, &spec_text);
        assert_eq!(status, 200, "{body}");
        let reply = json::parse(&body).expect("reply parses");

        // The library path: the same spec lowered by the same code.
        let spec = CampaignSpec::from_json(&spec_text).unwrap();
        let result = Experiment::new(spec.workload(), spec.sim_config()).run();
        let fingerprint = format!("{:016x}", measurement_fingerprint(&result));
        assert_eq!(
            reply.get("fingerprint").unwrap().as_str(),
            Some(fingerprint.as_str()),
            "service and library measurements diverge under {scheduler}"
        );
        assert_eq!(
            reply.get("completion_time").unwrap().as_u64(),
            Some(result.completion_time.0)
        );
        assert_eq!(
            reply.get("key").unwrap().as_str(),
            Some(cedar::core::cache::run_key(&spec.workload(), &spec.sim_config()).hex())
                .as_deref(),
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn warm_requests_hit_the_cache_with_byte_identical_bodies() {
    let (server, addr) = start_server(16, 2);
    let (cold_status, cold_body) = post_run(&addr, SPEC);
    assert_eq!(cold_status, 200, "{cold_body}");
    assert_eq!(server.metrics().cache_hits(), 0, "first request is a miss");

    let (warm_status, warm_body) = post_run(&addr, SPEC);
    assert_eq!(warm_status, 200);
    assert_eq!(
        cold_body, warm_body,
        "cache-hit replies must be byte-identical to cold replies"
    );
    assert_eq!(server.metrics().cache_hits(), 1, "second request replays");

    // The hit is also visible to external scrapers.
    let (status, _, metrics) = request(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("cedar_serve_cache_hits_total 1\n"),
        "{metrics}"
    );
    assert!(metrics.contains("cedar_serve_requests_total{code=\"200\"}"));
    server.shutdown();
    server.join();
}

#[test]
fn malformed_specs_get_typed_400_bodies() {
    let (server, addr) = start_server(16, 1);
    for bad in [
        "this is not json",
        r#"{"app":"NOPE","processors":8}"#,
        r#"{"app":"FLO52","processors":7}"#,
        r#"{"app":"FLO52","processors":8,"turbo":true}"#,
    ] {
        let (status, body) = post_run(&addr, bad);
        assert_eq!(status, 400, "{bad} -> {body}");
        let parsed = json::parse(&body).expect("error body is JSON");
        let error = parsed.get("error").expect("typed error envelope");
        assert_eq!(error.get("kind").unwrap().as_str(), Some("spec_parse"));
        assert!(error.get("message").unwrap().as_str().is_some());
    }
    // Unknown endpoints and wrong methods are typed too.
    let (status, _, _) = request(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(&addr, "DELETE", "/run", "");
    assert_eq!(status, 405);
    let (status, _, body) = request(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));
    server.shutdown();
    server.join();
}

#[test]
fn overflow_is_shed_with_503_and_retry_after() {
    // One worker, queue of one. Two stalled connections (we connect but
    // never send the request) pin the worker and fill the queue; every
    // further connection must be shed immediately.
    let (server, addr) = start_server(1, 1);
    let stall_worker = TcpStream::connect(&addr).expect("stall 1");
    std::thread::sleep(Duration::from_millis(150)); // let the worker pop it
    let stall_queue = TcpStream::connect(&addr).expect("stall 2");
    std::thread::sleep(Duration::from_millis(150)); // let the accept loop queue it

    let mut shed = 0;
    for _ in 0..3 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("read shed reply");
        assert!(
            response.starts_with("HTTP/1.1 503 "),
            "expected shed, got: {response}"
        );
        assert!(response.contains("Retry-After: 1\r\n"), "{response}");
        assert!(response.contains("\"kind\":\"overloaded\""), "{response}");
        shed += 1;
    }
    assert_eq!(shed, 3);
    assert_eq!(server.metrics().shed_total(), 3);
    drop(stall_worker);
    drop(stall_queue);
    server.shutdown();
    server.join();
}

#[test]
fn byte_at_a_time_split_reads_still_parse() {
    // TCP gives the server no framing guarantees: a request may arrive
    // in arbitrarily small segments. Dribbling it one byte per write
    // (flushed, with a few forced scheduling points) must parse and run
    // exactly like a single-segment request.
    let (server, addr) = start_server(4, 1);
    let raw = format!(
        "POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{SPEC}",
        SPEC.len()
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    for (i, byte) in raw.as_bytes().iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).expect("send");
        stream.flush().unwrap();
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    let body = response.split_once("\r\n\r\n").unwrap().1;
    let reply = json::parse(body).expect("reply parses");
    assert!(reply.get("fingerprint").is_some());
    server.shutdown();
    server.join();
}

#[test]
fn hostile_headers_get_typed_400s_and_leave_the_server_healthy() {
    let (server, addr) = start_server(4, 1);

    // A header line longer than the whole head budget must be cut off
    // at the parser's hard limit and answered with a typed 400 — not
    // buffered without bound.
    let huge = format!(
        "POST /run HTTP/1.1\r\nHost: test\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(16 * 1024)
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may answer (and close) before the full pad is written,
    // so a late write failing with a broken pipe is acceptable.
    let _ = stream.write_all(huge.as_bytes());
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("\"kind\":\"spec_parse\""), "{response}");
    assert!(response.contains("request head exceeds"), "{response}");

    // Conflicting duplicate Content-Length headers are the classic
    // request-smuggling shape: rejected, never last-one-wins.
    let (status, _, body) = {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(
                format!(
                    "POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
                     Content-Length: 2\r\n\r\n{SPEC}",
                    SPEC.len()
                )
                .as_bytes(),
            )
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, payload) = response.split_once("\r\n\r\n").expect("header block");
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, head.to_string(), payload.to_string())
    };
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("conflicting duplicate Content-Length"),
        "{body}"
    );

    // Neither probe may wedge the worker: a normal request still runs.
    let (status, body) = post_run(&addr, SPEC);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn pipelined_requests_each_get_a_complete_reply_in_order() {
    // The service is persistent: a client pipelining a second request
    // on the same socket gets two complete, correctly framed replies in
    // request order — no interleaving, no dropped bytes. The second is
    // a cache replay of the first, so the bodies are byte-identical.
    let (server, addr) = start_server(4, 1);
    let one = keepalive_post(SPEC);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(format!("{one}{one}").as_bytes())
        .expect("send both");
    let (status1, head1, body1) = read_framed(&mut reader);
    assert_eq!(status1, 200, "{body1}");
    assert!(head1.contains("Connection: keep-alive"), "{head1}");
    let (status2, _, body2) = read_framed(&mut reader);
    assert_eq!(status2, 200, "{body2}");
    assert_eq!(
        body1, body2,
        "pipelined warm reply must be byte-identical to the cold reply"
    );
    assert!(json::parse(&body1).is_ok(), "replies are complete JSON");
    assert_eq!(server.metrics().cache_hits(), 1, "second request replays");
    assert_eq!(
        server.metrics().keepalive_reuse_total(),
        1,
        "the second request reused the connection"
    );
    server.shutdown();
    server.join();
}

#[test]
fn sequential_keepalive_requests_share_one_connection() {
    // Two request/response exchanges back-to-back on one socket, the
    // second written only after the first reply fully arrived (plain
    // keep-alive reuse, no pipelining).
    let (server, addr) = start_server(4, 1);
    let one = keepalive_post(SPEC);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream.write_all(one.as_bytes()).expect("send first");
    let (status1, head1, body1) = read_framed(&mut reader);
    assert_eq!(status1, 200, "{body1}");
    assert!(head1.contains("Connection: keep-alive"), "{head1}");

    stream.write_all(one.as_bytes()).expect("send second");
    let (status2, _, body2) = read_framed(&mut reader);
    assert_eq!(status2, 200, "{body2}");
    assert_eq!(
        body1, body2,
        "warm reply on a reused connection must be byte-identical"
    );
    assert_eq!(server.metrics().keepalive_reuse_total(), 1);
    server.shutdown();
    server.join();
}

#[test]
fn warm_keepalive_replies_arrive_without_waiting_for_the_next_request() {
    // A reply split over two segments on a Nagle-on socket holds its
    // second segment until the client acknowledges the first. A client
    // that sends its next request within the delayed-ACK window of the
    // last reply (40 ms on Linux) is treated as interactive: its ACK is
    // delayed to ride on that next request, and a client waiting for
    // the reply first gets it only when the ACK timer fires, ~40 ms
    // later. Spaced 20 ms apart, each warm reply must instead arrive in
    // a few milliseconds.
    let (server, addr) = start_server(4, 1);
    let one = keepalive_post(SPEC);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // The cold run fills the cache; it is not timed.
    stream.write_all(one.as_bytes()).expect("send cold");
    let (status, _, cold) = read_framed(&mut reader);
    assert_eq!(status, 200, "{cold}");

    let mut latencies = Vec::new();
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(20));
        let sent = Instant::now();
        stream.write_all(one.as_bytes()).expect("send warm");
        let (status, _, body) = read_framed(&mut reader);
        latencies.push(sent.elapsed());
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, cold, "warm reply must be byte-identical");
    }
    assert!(
        latencies.iter().all(|l| *l < Duration::from_millis(30)),
        "a warm reply waited for the client's next ACK: {latencies:?}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn idle_keepalive_connections_are_closed_cleanly() {
    let (server, addr) = start_server_with(
        ServeOptions::default()
            .with_queue(4)
            .with_workers(1)
            .with_keepalive_idle(Duration::from_millis(300)),
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("send");
    let (status, head, _) = read_framed(&mut reader);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // Go idle: the server must close with a clean EOF (no RST, no
    // stray bytes) within the idle budget plus one poll slice.
    let idle_start = Instant::now();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "no bytes after the reply: {rest:?}");
    assert!(
        idle_start.elapsed() < Duration::from_secs(5),
        "idle close took {:?}",
        idle_start.elapsed()
    );

    // The worker is free again afterwards.
    let (status, body) = post_run(&addr, SPEC);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn warm_keepalive_stress_is_served_from_the_hot_tier() {
    // One cold request seeds the disk store and the hot tier; four
    // concurrent clients then each pipeline 25 copies of the same spec
    // on one connection. Every warm reply must be byte-identical to
    // the cold one, and every warm lookup must be a hot-tier hit —
    // requests minus the single cold miss.
    let (server, addr) = start_server(64, 4);
    let (cold_status, cold_body) = post_run(&addr, SPEC);
    assert_eq!(cold_status, 200, "{cold_body}");

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let cold_body = cold_body.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let burst = keepalive_post(SPEC).repeat(PER_CLIENT);
                stream.write_all(burst.as_bytes()).expect("send burst");
                for i in 0..PER_CLIENT {
                    let (status, _, body) = read_framed(&mut reader);
                    assert_eq!(status, 200, "request {i}: {body}");
                    assert_eq!(body, cold_body, "request {i} diverged from the cold reply");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let warm = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(
        server.metrics().cache_hot_hits(),
        warm,
        "every warm request must hit the hot tier"
    );
    assert_eq!(server.metrics().cache_hits(), warm);
    assert_eq!(
        server.metrics().keepalive_reuse_total(),
        (CLIENTS * (PER_CLIENT - 1)) as u64,
        "each client's connection served its whole burst"
    );
    server.shutdown();
    server.join();
}

#[test]
fn mid_body_disconnect_is_a_typed_400_not_a_hang() {
    let (server, addr) = start_server(4, 1);
    // Promise a 100-byte body, deliver 9, and half-close: the worker
    // must diagnose the truncated body, answer a typed 400 on the
    // still-open read half, and move on to the next connection.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\n{\"app\":\"")
        .expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("\"kind\":\"spec_parse\""), "{response}");
    assert!(response.contains("body"), "{response}");

    // The worker survived the disconnect.
    let (status, body) = post_run(&addr, SPEC);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn graceful_drain_completes_queued_runs() {
    let (server, addr) = start_server(16, 1);
    // Submit a real run, give the accept loop time to queue it, then
    // immediately request shutdown: the reply must still be a complete
    // 200 campaign, not a reset.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{SPEC}",
                SPEC.len()
            )
            .as_bytes(),
        )
        .expect("send");
    std::thread::sleep(Duration::from_millis(300));
    server.shutdown();

    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 200 "),
        "drain dropped an accepted run: {response}"
    );
    let body = response.split_once("\r\n\r\n").unwrap().1;
    assert!(json::parse(body).is_ok(), "drained reply is complete JSON");
    server.join();

    // The drained server no longer accepts.
    assert!(
        TcpStream::connect(&addr).is_err() || request(&addr, "GET", "/healthz", "").0 == 0,
        "listener should be closed after join"
    );
}
