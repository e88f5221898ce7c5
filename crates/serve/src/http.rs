//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! Implements exactly what the campaign service needs: parse a request
//! line, the handful of headers we honour (`Content-Length`,
//! `Connection`), read the body, and write a response with correct
//! framing. Connections are **persistent by default** (HTTP/1.1
//! keep-alive): warm requests replay from the in-memory run cache in
//! well under a millisecond, so a per-request TCP handshake would
//! dominate the latency a client observes. The server honours
//! `Connection: close` (and the HTTP/1.0 default-close rule), bounds
//! requests-per-connection and idle time, and still forces
//! `Connection: close` on every error and shed path.
//!
//! Every reply leaves in **one write on a `TCP_NODELAY` socket**
//! ([`write_response`] serializes head and body into one buffer; the
//! accept loop disables Nagle's algorithm on every connection). With
//! Nagle on, a reply written in two pieces holds its second piece until
//! the client acknowledges the first, and a keep-alive client
//! acknowledges with its *next* request or after the delayed-ACK timer:
//! a warm reply then takes the client's request gap (tens of
//! milliseconds) instead of its service time (tens of microseconds).
//! A single write alone is not enough — a pipelining client can have
//! reply *N* unacknowledged when reply *N+1* is written, and Nagle
//! would hold that one too.
//!
//! Because a pipelined client may land bytes of request *N+1* in the
//! buffer while request *N* is being parsed, [`read_request`] takes the
//! caller's long-lived [`BufRead`] reader rather than wrapping the raw
//! stream itself — buffered over-read must survive across requests on
//! one connection.

use std::io::{BufRead, Read, Write};

use cedar_obs::CedarError;

/// Request bodies above this are rejected before buffering (a campaign
/// spec is a few hundred bytes; a megabyte is already hostile).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// The request line plus every header must fit in this many bytes. A
/// real campaign request's head is well under a kilobyte; an unbounded
/// header line is a memory-exhaustion probe, so the head is read
/// through a hard `Take` limit and overflow is a typed `400`.
pub const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// One parsed request: method, path, the (possibly empty) body, and
/// the client's connection-persistence intent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … uppercased as received.
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// The request body, sized by `Content-Length`.
    pub body: Vec<u8>,
    /// Whether the connection must close after this exchange:
    /// `Connection: close`, or HTTP/1.0 without an explicit
    /// `Connection: keep-alive`.
    pub close: bool,
}

/// Reads and parses one request from `reader` — the connection's
/// long-lived buffered reader, so bytes a pipelining client sent ahead
/// of time survive into the next call. Malformed framing surfaces as
/// [`CedarError::SpecParse`] so the server can answer `400` with a
/// typed body instead of dropping the connection.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, CedarError> {
    let bad = |msg: &str| CedarError::SpecParse(format!("http: {msg}"));
    // The head is read through a `Take` so a runaway header line can
    // buffer at most `MAX_HEAD_BYTES` before turning into a typed 400.
    let mut head = reader.take(MAX_HEAD_BYTES);
    let mut line = String::new();
    head_line(&mut head, &mut line, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(&format!("unsupported version `{version}`")));
    }
    // HTTP/1.0 defaults to close; 1.1 (and any later 1.x) to
    // keep-alive. The `Connection` header overrides either way.
    let mut close = version == "HTTP/1.0";

    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        head_line(&mut head, &mut header, "header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(&format!("malformed header `{header}`")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = value
                .trim()
                .parse()
                .map_err(|_| bad("unparseable Content-Length"))?;
            // Repeating the same value is harmless; *conflicting*
            // duplicates are the request-smuggling shape, so reject
            // rather than silently letting the last one win.
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(bad("conflicting duplicate Content-Length headers"));
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list, case-insensitive: `close` forces closing,
            // `keep-alive` opts an HTTP/1.0 client in.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(bad(&format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    let mut body = vec![0u8; content_length];
    head.into_inner()
        .read_exact(&mut body)
        .map_err(|e| bad(&format!("body: {e}")))?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
        close,
    })
}

/// Reads one head line into `line`, mapping an exhausted head limit to
/// the typed oversized-head error (a line cut off with limit left is
/// plain EOF and falls through to the caller's own handling).
fn head_line<R: BufRead>(
    head: &mut std::io::Take<R>,
    line: &mut String,
    what: &str,
) -> Result<(), CedarError> {
    head.read_line(line)
        .map_err(|e| CedarError::SpecParse(format!("http: {what}: {e}")))?;
    if !line.ends_with('\n') && head.limit() == 0 {
        return Err(CedarError::SpecParse(format!(
            "http: request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        )));
    }
    Ok(())
}

/// The reason phrase for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete response. `keep_alive` selects the
/// `Connection:` header — the caller decides persistence (error and
/// shed paths always pass `false`). `extra_headers` lines are emitted
/// verbatim (no trailing CRLF in the input).
///
/// Head and body are serialized into one buffer and handed to the
/// stream in a single `write_all`, so the reply leaves as one segment
/// (see the module docs for why a split write stalls).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[&str],
    keep_alive: bool,
    body: &[u8],
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = Vec::with_capacity(128 + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    )?;
    for h in extra_headers {
        out.extend_from_slice(h.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Renders a [`CedarError`] as the service's typed JSON error body:
/// `{"error":{"kind":...,"message":...}}`.
pub fn error_body(err: &CedarError) -> String {
    let mut inner = cedar_obs::json::Obj::new();
    inner
        .str("kind", err.kind())
        .str("message", &err.to_string());
    let mut outer = cedar_obs::json::Obj::new();
    outer.raw("error", inner.finish());
    outer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_intent_follows_version_and_header() {
        let close = |raw: &[u8]| read_request(&mut &*raw).unwrap().close;
        assert!(close(b"GET / HTTP/1.0\r\n\r\n"), "1.0 defaults to close");
        assert!(
            !close(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"),
            "1.0 opts in via the header, case-insensitively"
        );
        assert!(close(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(
            close(b"GET / HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n"),
            "`close` wins in a token list"
        );
    }

    #[test]
    fn parses_a_bodyless_get() {
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_framing_is_a_spec_parse_error() {
        for raw in [
            &b"POST\r\n\r\n"[..],
            &b"POST /run FTP/9\r\n\r\n"[..],
            &b"POST /run HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..],
        ] {
            let err = read_request(&mut &raw[..]).unwrap_err();
            assert_eq!(err.kind(), "spec_parse", "{raw:?}");
        }
    }

    #[test]
    fn oversized_heads_are_rejected_at_the_take_limit() {
        // A single header line longer than the whole head budget: the
        // parser must fail with the typed limit error, not buffer it.
        let raw = format!(
            "POST /run HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES as usize)
        );
        let err = read_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), "spec_parse");
        assert!(err.to_string().contains("request head exceeds"), "{err}");
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd";
        let err = read_request(&mut &raw[..]).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");

        // Repeating the *same* value is harmless and honoured once.
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn oversized_bodies_are_rejected_before_buffering() {
        let raw = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_request(&mut raw.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    /// A sink that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        // Head and body split over two writes is the Nagle stall: the
        // body would wait for the client to acknowledge the head.
        let mut sink = CountingWriter::default();
        write_response(
            &mut sink,
            503,
            "application/json",
            &["Retry-After: 1"],
            false,
            b"{\"error\":{}}",
        )
        .unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(
            String::from_utf8(sink.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 12\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{\"error\":{}}"
        );
    }

    #[test]
    fn responses_are_framed_and_errors_typed() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            &["Retry-After: 1"],
            false,
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", &[], true, b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));

        let body = error_body(&CedarError::SpecParse("no such app".into()));
        let parsed = cedar_obs::json::parse(&body).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("spec_parse"));
    }
}
