//! A thin vendored HTTP/1.1 layer over `std` byte streams.
//!
//! The service speaks just enough HTTP for its three endpoints:
//! request/status lines, `Content-Length` framing, keep-alive, and
//! nothing else (`Transfer-Encoding` is declined with `501`). Every
//! read path is bounded — head and body byte caps from
//! [`WireLimits`], plus a timeout-tick cap so a trickling client
//! cannot pin a worker — and every failure maps to a structured
//! status + JSON body via [`WireError`], never a panic.

use std::io::{BufRead, ErrorKind, Write};

use andi_oracle::instance::json_string;

/// Byte caps on a single request.
#[derive(Clone, Copy, Debug)]
pub struct WireLimits {
    /// Cap on the request line + headers, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length` body, in bytes.
    pub max_body_bytes: usize,
    /// Cap on read-timeout ticks while a request is mid-flight; with
    /// the socket's read timeout this bounds total wire-read time.
    pub max_stall_ticks: u32,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            max_stall_ticks: 100,
        }
    }
}

/// Structured wire-layer failure. Each variant knows its HTTP status
/// and renders a JSON body, so a malformed request always gets a
/// well-formed response.
#[derive(Debug)]
pub enum WireError {
    /// Clean EOF (or reset) before any request bytes: the peer left.
    Closed,
    /// Read timeout before any request bytes: nothing in flight, the
    /// caller may poll shutdown flags and retry.
    Idle,
    /// The peer stalled mid-request past the tick cap.
    Stalled,
    /// Transport error mid-request.
    Io(String),
    /// Request line + headers exceeded `max_head_bytes`.
    HeadTooLarge { limit: usize },
    /// Declared body exceeds `max_body_bytes`.
    BodyTooLarge { limit: usize, got: usize },
    /// Unparseable request line, header, or framing.
    Malformed(String),
    /// Syntactically fine but unsupported (e.g. `Transfer-Encoding`).
    Unsupported(String),
}

impl WireError {
    /// The HTTP status the error maps to (`0` for [`WireError::Closed`]
    /// and [`WireError::Idle`], which produce no response).
    pub fn status(&self) -> u16 {
        match self {
            WireError::Closed | WireError::Idle => 0,
            WireError::Stalled => 408,
            WireError::Io(_) => 400,
            WireError::HeadTooLarge { .. } => 431,
            WireError::BodyTooLarge { .. } => 413,
            WireError::Malformed(_) => 400,
            WireError::Unsupported(_) => 501,
        }
    }

    /// Structured JSON body for the error response.
    pub fn to_json(&self) -> String {
        match self {
            WireError::Closed => "{\"kind\":\"closed\"}".to_string(),
            WireError::Idle => "{\"kind\":\"idle\"}".to_string(),
            WireError::Stalled => {
                "{\"kind\":\"stalled\",\"message\":\"request read timed out\"}".to_string()
            }
            WireError::Io(msg) => {
                format!("{{\"kind\":\"io\",\"message\":{}}}", json_string(msg))
            }
            WireError::HeadTooLarge { limit } => {
                format!("{{\"kind\":\"head-too-large\",\"limit_bytes\":{limit}}}")
            }
            WireError::BodyTooLarge { limit, got } => format!(
                "{{\"kind\":\"body-too-large\",\"limit_bytes\":{limit},\"got_bytes\":{got}}}"
            ),
            WireError::Malformed(msg) => {
                format!(
                    "{{\"kind\":\"malformed\",\"message\":{}}}",
                    json_string(msg)
                )
            }
            WireError::Unsupported(msg) => {
                format!(
                    "{{\"kind\":\"unsupported\",\"message\":{}}}",
                    json_string(msg)
                )
            }
        }
    }
}

/// A parsed request: method, target, headers, body.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercased method token.
    pub method: String,
    /// Request target exactly as sent (path + optional query).
    pub target: String,
    /// Header name/value pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one head block (request or status line + headers) up to the
/// blank line, enforcing the byte cap and the stall-tick cap.
fn read_head<R: BufRead>(r: &mut R, limits: &WireLimits) -> Result<Vec<String>, WireError> {
    let mut head: Vec<u8> = Vec::new();
    let mut stalls: u32 = 0;
    loop {
        let mut line: Vec<u8> = Vec::new();
        loop {
            // read_until can return a timeout mid-line; accumulate
            // manually so partial progress is kept across ticks.
            match r.read_until(b'\n', &mut line) {
                Ok(0) => {
                    if head.is_empty() && line.is_empty() {
                        return Err(WireError::Closed);
                    }
                    return Err(WireError::Malformed("eof inside request head".into()));
                }
                Ok(_) => {
                    if line.last() == Some(&b'\n') {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if head.is_empty() && line.is_empty() {
                        return Err(WireError::Idle);
                    }
                    stalls += 1;
                    if stalls > limits.max_stall_ticks {
                        return Err(WireError::Stalled);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    if head.is_empty() && line.is_empty() {
                        return Err(WireError::Closed);
                    }
                    return Err(WireError::Io(e.kind().to_string()));
                }
            }
            if head.len() + line.len() > limits.max_head_bytes {
                return Err(WireError::HeadTooLarge {
                    limit: limits.max_head_bytes,
                });
            }
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            if head.is_empty() {
                // Tolerate leading blank lines between pipelined
                // requests, as RFC 9112 suggests.
                continue;
            }
            break;
        }
        head.extend_from_slice(&line);
        if head.len() > limits.max_head_bytes {
            return Err(WireError::HeadTooLarge {
                limit: limits.max_head_bytes,
            });
        }
    }
    let text = String::from_utf8_lossy(&head).into_owned();
    Ok(text
        .lines()
        .map(|l| l.trim_end_matches('\r').to_string())
        .collect())
}

/// Reads exactly `want` body bytes, honoring the stall-tick cap.
fn read_body<R: BufRead>(
    r: &mut R,
    want: usize,
    limits: &WireLimits,
) -> Result<Vec<u8>, WireError> {
    let mut body = vec![0u8; want];
    let mut got = 0usize;
    let mut stalls: u32 = 0;
    while got < want {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(WireError::Malformed("eof inside request body".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                stalls += 1;
                if stalls > limits.max_stall_ticks {
                    return Err(WireError::Stalled);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind().to_string())),
        }
    }
    Ok(body)
}

/// Parses shared head framing: splits header lines into lowercased
/// name/value pairs and resolves the body length. A `content-length`
/// must be ASCII digits only, and repeated ones must agree: RFC 9112
/// §6.3 treats differing values as unrecoverable framing, since two
/// parsers could split the stream at different points.
fn parse_headers(
    lines: &[String],
    limits: &WireLimits,
) -> Result<(Vec<(String, String)>, usize), WireError> {
    let mut headers = Vec::with_capacity(lines.len());
    let mut content_length: Option<usize> = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| WireError::Malformed(format!("header line without colon: {line:?}")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name.is_empty() {
            return Err(WireError::Malformed("empty header name".into()));
        }
        if name == "transfer-encoding" {
            return Err(WireError::Unsupported(
                "transfer-encoding is not supported; use content-length".into(),
            ));
        }
        if name == "content-length" {
            let bad = || WireError::Malformed(format!("bad content-length {value:?}"));
            // `usize::from_str` would also take a leading `+`.
            if !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            let length = value.parse::<usize>().map_err(|_| bad())?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(WireError::Malformed(
                    "conflicting content-length values".into(),
                ));
            }
            if length > limits.max_body_bytes {
                return Err(WireError::BodyTooLarge {
                    limit: limits.max_body_bytes,
                    got: length,
                });
            }
            content_length = Some(length);
        }
        headers.push((name, value));
    }
    Ok((headers, content_length.unwrap_or(0)))
}

/// Reads and parses one request from the stream.
///
/// # Errors
///
/// [`WireError::Closed`]/[`WireError::Idle`] when no request started;
/// otherwise a variant carrying the 4xx/5xx mapping for the reply.
pub fn read_request<R: BufRead>(r: &mut R, limits: &WireLimits) -> Result<Request, WireError> {
    let lines = read_head(r, limits)?;
    let request_line = lines
        .first()
        .ok_or_else(|| WireError::Malformed("empty request head".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(WireError::Malformed("extra tokens on request line".into()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(WireError::Unsupported(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !method.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(WireError::Malformed(format!("bad method token {method:?}")));
    }
    let (headers, content_length) = parse_headers(&lines[1..], limits)?;
    let body = read_body(r, content_length, limits)?;
    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Length`/`Content-Type`/`Connection`
    /// are emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Canonical reason phrase for the status codes the service uses.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Content Too Large",
            422 => "Unprocessable Content",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes the response, appending `Connection: close` when
    /// `close` is set.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn write_to<W: Write>(&self, w: &mut W, close: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            Response::reason(self.status)
        );
        head.push_str("content-type: application/json\r\n");
        head.push_str(&format!("content-length: {}\r\n", self.body.len()));
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if close {
            head.push_str("connection: close\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Reads and parses one response (the vendored client's half of the
/// wire).
///
/// # Errors
///
/// As [`read_request`], with [`WireError::Malformed`] for bad status
/// lines.
pub fn read_response<R: BufRead>(r: &mut R, limits: &WireLimits) -> Result<Response, WireError> {
    let lines = read_head(r, limits)?;
    let status_line = lines
        .first()
        .ok_or_else(|| WireError::Malformed("empty response head".into()))?;
    let mut parts = status_line.split_ascii_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed(format!("bad version {version:?}")));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| WireError::Malformed("bad status code".into()))?;
    let (headers, content_length) = parse_headers(&lines[1..], limits)?;
    let body = read_body(r, content_length, limits)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// First response header value for `name` (lowercase).
pub fn response_header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}
