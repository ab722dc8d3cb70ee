//! HTTP request/response model and wire (de)serialization.
//!
//! Bodies are shared [`Body`] buffers (`Arc<[u8]>`): bytes are copied
//! once at construction and every later layer shares the allocation.
//! Wire serialization builds the whole head in one preallocated buffer
//! and pushes head + body to the socket with a single vectored write.

use crate::body::Body;
use crate::error::HttpError;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufRead, IoSlice, Write};

/// Request methods the substrate supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST` — what SOAP uses.
    Post,
    /// `HEAD`.
    Head,
}

impl Method {
    /// The wire token.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }

    /// Parses a wire token.
    ///
    /// # Errors
    ///
    /// Returns a protocol error for unsupported methods.
    pub(crate) fn parse(s: &str) -> Result<Method, HttpError> {
        match s {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "HEAD" => Ok(Method::Head),
            other => Err(HttpError::protocol(format!("unsupported method '{other}'"))),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code with its reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// `200 OK`.
    pub const OK: Status = Status(200);
    /// `304 Not Modified` — used by the revalidation path (paper §3.2).
    pub const NOT_MODIFIED: Status = Status(304);
    /// `400 Bad Request`.
    pub const BAD_REQUEST: Status = Status(400);
    /// `404 Not Found`.
    pub const NOT_FOUND: Status = Status(404);
    /// `405 Method Not Allowed`.
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    /// `500 Internal Server Error` — carries SOAP faults.
    pub const INTERNAL_SERVER_ERROR: Status = Status(500);
    /// `503 Service Unavailable` — the server's connection queue is
    /// full; sent with `Retry-After` by the overload path.
    pub(crate) const SERVICE_UNAVAILABLE: Status = Status(503);

    /// The standard reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Whether the code is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered, case-insensitive header map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// An empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Appends a header (duplicates allowed, as HTTP permits).
    pub(crate) fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replaces all values of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.push((name.to_string(), value.into()));
    }

    /// First value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no headers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (origin-form path, e.g. `/soap/google`).
    pub target: String,
    /// Headers.
    pub headers: Headers,
    /// Shared body bytes.
    pub body: Body,
}

impl Request {
    /// Creates a GET request for `target`.
    pub fn get(target: impl Into<String>) -> Self {
        Request {
            method: Method::Get,
            target: target.into(),
            headers: Headers::new(),
            body: Body::empty(),
        }
    }

    /// Creates a POST request with a body.
    pub fn post(target: impl Into<String>, content_type: &str, body: impl Into<Body>) -> Self {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Request {
            method: Method::Post,
            target: target.into(),
            headers,
            body: body.into(),
        }
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.set(name, value);
        self
    }

    /// Serializes onto a writer, filling in `Content-Length` and `Host`.
    /// The head is assembled once in a preallocated buffer and pushed
    /// together with the body in a single vectored write.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W, host: &str) -> Result<(), HttpError> {
        self.write_to_target(w, host, &self.target, &[])
    }

    /// Like [`write_to`](Request::write_to), but serializes `target` in
    /// the request line instead of `self.target`, plus `extra` header
    /// lines. The client uses this to rewrite the path for a destination
    /// URL and inject per-exchange headers (e.g. `traceparent`) without
    /// mutating or cloning the shared request (and its body).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub(crate) fn write_to_target<W: Write>(
        &self,
        w: &mut W,
        host: &str,
        target: &str,
        extra: &[(&str, &str)],
    ) -> Result<(), HttpError> {
        let extra_len: usize = extra.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
        let mut head =
            String::with_capacity(64 + host.len() + extra_len + headers_wire_len(&self.headers));
        head.push_str(self.method.as_str());
        head.push(' ');
        head.push_str(target);
        head.push_str(" HTTP/1.1\r\n");
        if !self.headers.contains("Host") {
            head.push_str("Host: ");
            head.push_str(host);
            head.push_str("\r\n");
        }
        for (name, value) in extra {
            if !self.headers.contains(name) {
                head.push_str(name);
                head.push_str(": ");
                head.push_str(value);
                head.push_str("\r\n");
            }
        }
        push_header_lines(&mut head, &self.headers, self.body.len());
        write_message(w, &head, &self.body)
    }

    /// Reads one request from a buffered reader. Returns `Ok(None)` on a
    /// cleanly closed connection (no bytes before EOF).
    ///
    /// # Errors
    ///
    /// Returns protocol errors for malformed requests and I/O errors from
    /// the reader.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Option<Request>, HttpError> {
        wsrc_obs::sync::assert_unlocked("an HTTP request read");
        let line = match read_line(r)? {
            Some(l) => l,
            None => return Ok(None),
        };
        let mut parts = line.split_whitespace();
        let method = Method::parse(parts.next().unwrap_or_default())?;
        let target = parts
            .next()
            .ok_or_else(|| HttpError::protocol("request line missing target"))?
            .to_string();
        let version = parts.next().unwrap_or_default();
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::protocol(format!(
                "unsupported version '{version}'"
            )));
        }
        let headers = read_headers(r)?;
        // The one copy in the pipeline: read buffer → shared Body.
        let body = Body::from(read_body(r, &headers)?);
        Ok(Some(Request {
            method,
            target,
            headers,
            body,
        }))
    }

    /// The request body as UTF-8 text, strictly validated.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BodyNotUtf8`] for invalid UTF-8.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        self.body.text()
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers.
    pub headers: Headers,
    /// Shared body bytes.
    pub body: Body,
}

impl Response {
    /// Creates a response with a body and content type.
    pub fn new(status: Status, content_type: &str, body: impl Into<Body>) -> Self {
        let body = body.into();
        let mut headers = Headers::new();
        if !body.is_empty() || status.is_success() {
            headers.set("Content-Type", content_type);
        }
        Response {
            status,
            headers,
            body,
        }
    }

    /// A `200 OK` response.
    pub fn ok(content_type: &str, body: impl Into<Body>) -> Self {
        Response::new(Status::OK, content_type, body)
    }

    /// A bodyless `304 Not Modified` response.
    pub fn not_modified() -> Self {
        Response {
            status: Status::NOT_MODIFIED,
            headers: Headers::new(),
            body: Body::empty(),
        }
    }

    /// A plain-text error response.
    pub fn error(status: Status, message: &str) -> Self {
        Response::new(status, "text/plain; charset=utf-8", message.as_bytes())
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.set(name, value);
        self
    }

    /// Serializes onto a writer, filling in `Content-Length`. The head
    /// is assembled once in a preallocated buffer and pushed together
    /// with the body in a single vectored write.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), HttpError> {
        let mut head = String::with_capacity(64 + headers_wire_len(&self.headers));
        head.push_str("HTTP/1.1 ");
        let _ = write!(head, "{}", self.status.0);
        head.push(' ');
        head.push_str(self.status.reason());
        head.push_str("\r\n");
        push_header_lines(&mut head, &self.headers, self.body.len());
        write_message(w, &head, &self.body)
    }

    /// Reads one response from a buffered reader.
    ///
    /// # Errors
    ///
    /// Returns protocol errors for malformed responses, including EOF
    /// before a complete message.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
        wsrc_obs::sync::assert_unlocked("an HTTP response read");
        let line = read_line(r)?
            .ok_or_else(|| HttpError::protocol("connection closed before response"))?;
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or_default();
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::protocol(format!(
                "unsupported version '{version}'"
            )));
        }
        let code: u16 = parts
            .next()
            .unwrap_or_default()
            .parse()
            .map_err(|_| HttpError::protocol("bad status code"))?;
        let headers = read_headers(r)?;
        // The one copy in the pipeline: read buffer → shared Body.
        let body = Body::from(read_body(r, &headers)?);
        Ok(Response {
            status: Status(code),
            headers,
            body,
        })
    }

    /// The response body as UTF-8 text, strictly validated.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BodyNotUtf8`] for invalid UTF-8.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        self.body.text()
    }
}

/// Wire length of the header block, for preallocating the head buffer
/// (`name: value\r\n` per line, plus room for `Content-Length`).
fn headers_wire_len(headers: &Headers) -> usize {
    headers
        .iter()
        .map(|(n, v)| n.len() + v.len() + 4)
        .sum::<usize>()
        + 32
}

/// Appends the header lines plus the final `Content-Length` line and
/// blank separator to a head buffer, with no intermediate allocations.
fn push_header_lines(head: &mut String, headers: &Headers, body_len: usize) {
    for (n, v) in headers.iter() {
        head.push_str(n);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("Content-Length: ");
    let _ = write!(head, "{body_len}");
    head.push_str("\r\n\r\n");
}

/// Writes head and body with vectored I/O: both buffers go to the
/// writer in one syscall when the transport supports it, instead of
/// the old two sequential `write_all` calls.
fn write_message<W: Write>(w: &mut W, head: &str, body: &[u8]) -> Result<(), HttpError> {
    wsrc_obs::sync::assert_unlocked("an HTTP message write");
    let head = head.as_bytes();
    let total = head.len() + body.len();
    let mut written = 0usize;
    while written < total {
        let (head_rest, body_rest) = if written < head.len() {
            (&head[written..], body)
        } else {
            (&[][..], &body[written - head.len()..])
        };
        let bufs = [IoSlice::new(head_rest), IoSlice::new(body_rest)];
        match w.write_vectored(&bufs) {
            Ok(0) => {
                return Err(HttpError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole http message",
                )))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

const MAX_HEADERS: usize = 128;
const MAX_BODY: usize = 64 * 1024 * 1024;

fn read_headers<R: BufRead>(r: &mut R) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    loop {
        let line =
            read_line(r)?.ok_or_else(|| HttpError::protocol("connection closed inside headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::protocol("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::protocol(format!("malformed header line '{line}'")))?;
        headers.insert(name.trim(), value.trim());
    }
}

fn read_body<R: BufRead>(r: &mut R, headers: &Headers) -> Result<Vec<u8>, HttpError> {
    if let Some(te) = headers.get("Transfer-Encoding") {
        if te.eq_ignore_ascii_case("chunked") {
            return read_chunked(r);
        }
        return Err(HttpError::protocol(format!(
            "unsupported transfer encoding '{te}'"
        )));
    }
    let len: usize = match headers.get("Content-Length") {
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::protocol(format!("bad content-length '{v}'")))?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(HttpError::protocol("body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

fn read_chunked<R: BufRead>(r: &mut R) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let line = read_line(r)?
            .ok_or_else(|| HttpError::protocol("connection closed inside chunked body"))?;
        let size_text = line.split(';').next().unwrap_or_default().trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| HttpError::protocol(format!("bad chunk size '{size_text}'")))?;
        if body.len() + size > MAX_BODY {
            return Err(HttpError::protocol("chunked body too large"));
        }
        if size == 0 {
            // Trailer section: read until blank line.
            loop {
                match read_line(r)? {
                    Some(l) if l.is_empty() => return Ok(body),
                    Some(_) => continue,
                    None => return Err(HttpError::protocol("connection closed in trailers")),
                }
            }
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..])?;
        // Chunk data is followed by CRLF.
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::protocol("chunk not terminated by CRLF"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn headers_are_case_insensitive_and_ordered() {
        let mut h = Headers::new();
        h.insert("Content-Type", "text/xml");
        h.insert("X-a", "1");
        h.insert("x-A", "2");
        assert_eq!(h.get("content-type"), Some("text/xml"));
        assert_eq!(h.get("X-A"), Some("1"));
        assert_eq!(h.len(), 3);
        h.set("x-a", "3");
        assert_eq!(h.get("X-A"), Some("3"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::post("/svc", "text/xml; charset=utf-8", b"<x/>".to_vec())
            .with_header("SOAPAction", "\"op\"");
        let mut wire = Vec::new();
        req.write_to(&mut wire, "example.test:80").unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("POST /svc HTTP/1.1\r\n"));
        assert!(text.contains("Host: example.test:80\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        let parsed = Request::read_from(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.target, "/svc");
        assert_eq!(parsed.body, b"<x/>");
        assert_eq!(parsed.headers.get("soapaction"), Some("\"op\""));
    }

    #[test]
    fn write_to_target_overrides_request_line_only() {
        let req = Request::post("/original", "text/xml", b"<x/>".to_vec());
        let mut wire = Vec::new();
        req.write_to_target(&mut wire, "example.test:80", "/rewritten", &[])
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("POST /rewritten HTTP/1.1\r\n"), "{text}");
        assert_eq!(req.target, "/original", "request itself is untouched");
    }

    #[test]
    fn service_unavailable_has_reason_phrase() {
        assert_eq!(Status::SERVICE_UNAVAILABLE.0, 503);
        assert_eq!(Status::SERVICE_UNAVAILABLE.reason(), "Service Unavailable");
        assert!(!Status::SERVICE_UNAVAILABLE.is_success());
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok("text/xml", b"<ok/>".to_vec()).with_header("X-Cache", "HIT");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let parsed = Response::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status, Status::OK);
        assert_eq!(parsed.body, b"<ok/>");
        assert_eq!(parsed.headers.get("x-cache"), Some("HIT"));
    }

    #[test]
    fn eof_before_request_is_none() {
        let parsed = Request::read_from(&mut BufReader::new(&b""[..])).unwrap();
        assert!(parsed.is_none());
    }

    #[test]
    fn eof_before_response_is_error() {
        assert!(Response::read_from(&mut BufReader::new(&b""[..])).is_err());
    }

    #[test]
    fn malformed_messages_are_rejected() {
        for wire in [
            "BREW /pot HTTP/1.1\r\n\r\n",           // unknown method
            "GET /x SPDY/3\r\n\r\n",                // bad version
            "GET /x HTTP/1.1\r\nbadheader\r\n\r\n", // header without colon
            "GET\r\n\r\n",                          // missing target
        ] {
            assert!(
                Request::read_from(&mut BufReader::new(wire.as_bytes())).is_err(),
                "expected error for {wire:?}"
            );
        }
        assert!(
            Response::read_from(&mut BufReader::new(&b"HTTP/1.1 abc Bad\r\n\r\n"[..])).is_err()
        );
    }

    #[test]
    fn truncated_body_is_an_error() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(Request::read_from(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn oversized_body_is_rejected() {
        let wire = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(Request::read_from(&mut BufReader::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn chunked_bodies_decode() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let resp = Response::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.body, b"Wikipedia");
    }

    #[test]
    fn bad_chunks_are_rejected() {
        let bad_size = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n";
        assert!(Response::read_from(&mut BufReader::new(&bad_size[..])).is_err());
        let bad_term = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWikiXX0\r\n\r\n";
        assert!(Response::read_from(&mut BufReader::new(&bad_term[..])).is_err());
    }

    #[test]
    fn status_display_and_predicates() {
        assert_eq!(Status::OK.to_string(), "200 OK");
        assert_eq!(Status::NOT_MODIFIED.to_string(), "304 Not Modified");
        assert!(Status::OK.is_success());
        assert!(!Status::INTERNAL_SERVER_ERROR.is_success());
        assert_eq!(Status(299).reason(), "Unknown");
    }

    /// A writer that accepts at most a few bytes per call, forcing
    /// `write_message` to iterate across the head/body boundary.
    struct Trickle {
        data: Vec<u8>,
        max: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.max);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let resp = Response::ok("text/xml", b"<payload>0123456789</payload>".to_vec());
        let mut full = Vec::new();
        resp.write_to(&mut full).unwrap();
        for max in [1, 3, 7] {
            let mut trickle = Trickle {
                data: Vec::new(),
                max,
            };
            resp.write_to(&mut trickle).unwrap();
            assert_eq!(trickle.data, full, "differs at max={max}");
        }
    }

    #[test]
    fn bodies_are_shared_not_copied() {
        let resp = Response::ok("text/xml", b"<r/>".to_vec());
        let cloned = resp.clone();
        assert!(resp.body.ptr_eq(&cloned.body));
        assert!(std::sync::Arc::ptr_eq(
            &resp.body.shared(),
            &cloned.body.shared()
        ));
    }

    #[test]
    fn strict_body_text_round_trip() {
        let req = Request::post("/svc", "text/xml", b"<x/>".to_vec());
        assert_eq!(req.body_text().unwrap(), "<x/>");
        let bad = Response::ok("application/octet-stream", vec![0xff, 0x00]);
        assert!(matches!(bad.body_text(), Err(HttpError::BodyNotUtf8(_))));
    }

    #[test]
    fn keep_alive_sequential_requests_on_one_stream() {
        let mut wire = Vec::new();
        Request::get("/a").write_to(&mut wire, "h").unwrap();
        Request::get("/b").write_to(&mut wire, "h").unwrap();
        let mut reader = BufReader::new(&wire[..]);
        let a = Request::read_from(&mut reader).unwrap().unwrap();
        let b = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(a.target, "/a");
        assert_eq!(b.target, "/b");
        assert!(Request::read_from(&mut reader).unwrap().is_none());
    }
}
