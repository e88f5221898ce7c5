//! Open-loop HTTP/1.1 load over a fixed number of keep-alive
//! connections, from one thread.
//!
//! Each request has a due time; it is written at that time whether or
//! not earlier replies have arrived (requests pipeline on their
//! connection), and its latency is timed from the due time, not the
//! send time, so a stall also counts against every request queued
//! behind it. How late the generator itself ran is reported apart
//! (`lag`). A connection is retired after the server's keep-alive
//! request budget and a fresh one dialed, as a real client must.
//!
//! One thread drives every connection: it sleeps in `ppoll(2)` until
//! the next due time or the next readable socket, whichever is first.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One request to send.
#[derive(Debug, Clone)]
pub struct Request {
    /// Offset of its due time from the start of the run.
    pub due: Duration,
    /// The raw HTTP request bytes.
    pub bytes: Vec<u8>,
    /// Which of the connections it travels on.
    pub conn: usize,
}

impl Request {
    /// A keep-alive `POST /run` carrying `body`, on connection `conn`.
    pub fn post_run(due: Duration, body: &str, conn: usize) -> Request {
        let bytes = format!(
            "POST /run HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Request { due, bytes, conn }
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When it was due, sent and answered (`None`: no reply).
    pub due: Option<Instant>,
    pub sent: Option<Instant>,
    pub done: Option<Instant>,
    /// HTTP status (0: no reply).
    pub status: u16,
    /// The reply body.
    pub body: String,
}

impl Outcome {
    /// Latency from the due time, milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        Some(
            self.done?
                .saturating_duration_since(self.due?)
                .as_secs_f64()
                * 1e3,
        )
    }

    /// How late the generator sent it, milliseconds.
    pub fn lag_ms(&self) -> f64 {
        match (self.sent, self.due) {
            (Some(s), Some(d)) => s.saturating_duration_since(d).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }
}

struct Conn {
    stream: TcpStream,
    /// Requests sent on this connection and not yet answered, oldest
    /// first.
    pending: VecDeque<usize>,
    sent: usize,
    buf: Vec<u8>,
    /// The server closed it (or it errored).
    dead: bool,
}

impl Conn {
    fn dial(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Clients set TCP_NODELAY (curl does by default): the client
        // must not add a stall of its own to what it measures.
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            pending: VecDeque::new(),
            sent: 0,
            buf: Vec::with_capacity(16 * 1024),
            dead: false,
        })
    }
}

/// A parsed reply at the front of `buf`: (status, body, bytes used).
pub fn parse_response(buf: &[u8]) -> Option<(u16, String, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let end = head_end + len;
    if buf.len() < end {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end..end]).into_owned();
    Some((status, body, end))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until one of `fds` is readable or `timeout` passes; marks
/// `revents`.
fn wait_readable(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`
    // structs laid out as the C ABI expects (`#[repr(C)]`, i32/i16/i16)
    // and `nfds` is its length; `ts` outlives the call; a null signal
    // mask is allowed and leaves the mask unchanged.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Sends `requests` open-loop from `start` over `conns` connections to
/// `addr`, retiring each connection after `per_conn` requests, and
/// waits for every reply up to `grace` past the last due time, calling
/// `on_reply` with each answered request's index. Outcomes come back in
/// request order.
pub fn run(
    addr: SocketAddr,
    requests: &[Request],
    conns: usize,
    per_conn: usize,
    start: Instant,
    grace: Duration,
    on_reply: &mut dyn FnMut(usize, &Outcome),
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = vec![Outcome::default(); requests.len()];
    let mut slots: Vec<Option<Conn>> = (0..conns).map(|_| None).collect();
    // Connections past their budget, still owed replies.
    let mut retired: Vec<Conn> = Vec::new();
    let deadline = start + requests.last().map_or(Duration::ZERO, |r| r.due) + grace;
    let mut next = 0;
    let mut chunk = vec![0u8; 64 * 1024];

    loop {
        let now = Instant::now();
        while next < requests.len() && start + requests[next].due <= now {
            let slot = requests[next].conn % conns;
            out[next].due = Some(start + requests[next].due);
            if slots[slot].as_ref().is_some_and(|c| c.sent >= per_conn) {
                retired.extend(slots[slot].take());
            }
            if slots[slot].is_none() {
                slots[slot] = Conn::dial(addr).ok();
            }
            if let Some(c) = slots[slot].as_mut() {
                if c.stream.write_all(&requests[next].bytes).is_ok() {
                    out[next].sent = Some(Instant::now());
                    c.pending.push_back(next);
                    c.sent += 1;
                } else {
                    slots[slot] = None;
                }
            }
            next += 1;
        }
        // Drop connections the server closed or that are done, so the
        // next request on their slot redials.
        for s in slots.iter_mut() {
            if s.as_ref()
                .is_some_and(|c| c.dead || (c.pending.is_empty() && c.sent >= per_conn))
            {
                *s = None;
            }
        }
        retired.retain(|c| !c.dead && !c.pending.is_empty());
        // Only connections owed a reply are polled: an idle one has
        // nothing to read.
        let open = slots
            .iter()
            .flatten()
            .chain(retired.iter())
            .filter(|c| !c.pending.is_empty());
        let waiting = open.clone().next().is_some();
        if next == requests.len() && !waiting {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wake = if next < requests.len() {
            start + requests[next].due
        } else {
            deadline
        };
        let mut fds: Vec<PollFd> = open
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        wait_readable(&mut fds, wake.saturating_duration_since(now));
        let ready: Vec<bool> = fds.iter().map(|f| f.revents != 0).collect();
        let conns_mut = slots
            .iter_mut()
            .flatten()
            .chain(retired.iter_mut())
            .filter(|c| !c.pending.is_empty());
        for (c, ready) in conns_mut.zip(ready) {
            if !ready {
                continue;
            }
            match c.stream.read(&mut chunk) {
                Ok(0) | Err(_) => {
                    // Closed under us: whatever is pending gets no reply.
                    c.pending.clear();
                    c.dead = true;
                    continue;
                }
                Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
            }
            let done = Instant::now();
            while let Some((status, body, used)) = parse_response(&c.buf) {
                c.buf.drain(..used);
                let Some(i) = c.pending.pop_front() else {
                    break;
                };
                out[i].done = Some(done);
                out[i].status = status;
                out[i].body = body;
                on_reply(i, &out[i]);
            }
        }
    }
    out
}

/// One blocking request on its own connection (`Connection: close`),
/// returning (status, body).
pub fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).ok()?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok()?;
    let (status, body, _) = parse_response(&buf)?;
    Some((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_replies_and_waits_for_the_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        let (status, body, used) = parse_response(raw).unwrap();
        assert_eq!((status, body.as_str()), (200, "hello"));
        let (status, body, _) = parse_response(&raw[used..]).unwrap();
        assert_eq!((status, body.as_str()), (503, ""));
        assert!(parse_response(&raw[..30]).is_none(), "incomplete body");
        assert!(
            parse_response(b"HTTP/1.1 200 OK\r\n").is_none(),
            "incomplete head"
        );
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        let o = Outcome {
            due: Some(due),
            sent: Some(due + Duration::from_millis(3)),
            done: Some(due + Duration::from_millis(10)),
            status: 200,
            body: String::new(),
        };
        assert!((o.latency_ms().unwrap() - 10.0).abs() < 1e-9);
        assert!((o.lag_ms() - 3.0).abs() < 1e-9);
        assert_eq!(Outcome::default().latency_ms(), None);
    }
}
