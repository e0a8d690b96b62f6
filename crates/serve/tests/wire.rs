//! Wire-layer robustness: proptest round-trips of the framing, and
//! hostile inputs (junk, truncation, oversize) always producing a
//! structured 4xx/5xx — never a panic or a hang. Every client read
//! is bounded by the wire layer's stall watchdog (read timeout ×
//! `max_stall_ticks`), so a hang fails the test instead of wedging
//! the suite.

use std::io::{BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use andi_serve::http::{read_request, read_response, Request, Response, WireError, WireLimits};
use andi_serve::{start, Client, ServeConfig};
use proptest::prelude::*;

fn write_request(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    let head = format!(
        "{} {} HTTP/1.1\r\ncontent-length: {}\r\n",
        req.method,
        req.target,
        req.body.len()
    );
    bytes.extend_from_slice(head.as_bytes());
    for (name, value) in &req.headers {
        bytes.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(&req.body);
    bytes
}

fn token() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 1..12).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| (b'a' + (b % 26)) as char)
            .collect::<String>()
    })
}

proptest! {
    #[test]
    fn request_framing_round_trips(
        method in token(),
        path in token(),
        header_names in prop::collection::vec(token(), 0..4),
        header_values in prop::collection::vec(token(), 0..4),
        body in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let headers: Vec<(String, String)> = header_names
            .iter()
            .zip(header_values.iter())
            .filter(|(n, _)| {
                *n != "content-length" && *n != "transfer-encoding" && *n != "connection"
            })
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect();
        let req = Request {
            method: method.to_ascii_uppercase(),
            target: format!("/{path}"),
            headers,
            body,
        };
        let bytes = write_request(&req);
        let mut reader = BufReader::new(Cursor::new(bytes));
        let parsed = read_request(&mut reader, &WireLimits::default()).unwrap();
        prop_assert_eq!(&parsed.method, &req.method);
        prop_assert_eq!(&parsed.target, &req.target);
        prop_assert_eq!(&parsed.body, &req.body);
        for (name, value) in &req.headers {
            prop_assert_eq!(parsed.header(name), Some(value.as_str()));
        }
    }

    #[test]
    fn response_framing_round_trips(
        status in 200u16..600,
        body in prop::collection::vec(any::<u8>(), 0..2048),
        close in prop::bool::ANY,
    ) {
        let resp = Response {
            status,
            headers: vec![("x-andi-cache".to_string(), "hit".to_string())],
            body,
        };
        let mut bytes = Vec::new();
        resp.write_to(&mut bytes, close).unwrap();
        let mut reader = BufReader::new(Cursor::new(bytes));
        let parsed = read_response(&mut reader, &WireLimits::default()).unwrap();
        prop_assert_eq!(parsed.status, resp.status);
        prop_assert_eq!(&parsed.body, &resp.body);
    }

    /// Arbitrary junk either parses (and then re-serializes sanely) or
    /// fails with a structured error carrying a real HTTP status —
    /// never a panic.
    #[test]
    fn junk_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut reader = BufReader::new(Cursor::new(bytes));
        match read_request(&mut reader, &WireLimits::default()) {
            Ok(req) => prop_assert!(!req.method.is_empty()),
            Err(e) => {
                let status = e.status();
                prop_assert!(status == 0 || (400..=599).contains(&status));
            }
        }
    }
}

/// Writes `bytes` on a fresh connection and reads one response under
/// the client's stall watchdog (200 ms ticks).
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Result<Response, WireError> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    read_response(&mut BufReader::new(stream), &WireLimits::default())
}

/// One-byte-at-a-time variants of every hostile request against a
/// live server: each must yield a structured response or a clean
/// close within the watchdog, and the server must stay healthy.
#[test]
fn hostile_requests_get_structured_responses_and_server_survives() {
    let handle = start(ServeConfig::default()).unwrap();
    let addr = handle.addr();

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty-then-close", b"".to_vec()),
        ("garbage-line", b"\x00\x01\x02\xff garbage\r\n\r\n".to_vec()),
        ("bad-version", b"GET / HTTP/9.9\r\n\r\n".to_vec()),
        ("missing-target", b"GET\r\n\r\n".to_vec()),
        (
            "bad-content-length",
            b"POST /assess HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec(),
        ),
        (
            "oversized-body-declared",
            b"POST /assess HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n".to_vec(),
        ),
        (
            "transfer-encoding",
            b"POST /assess HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        ),
        (
            "truncated-body",
            b"POST /assess HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort".to_vec(),
        ),
        // `usize::from_str` takes a leading `+`; the wire must not.
        (
            "signed-content-length",
            b"GET /health HTTP/1.1\r\ncontent-length: +0\r\n\r\n".to_vec(),
        ),
        // Differing lengths are a smuggling vector (RFC 9112 §6.3):
        // keeping either one would frame the stream.
        (
            "conflicting-content-length",
            b"GET /health HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 0\r\n\r\n".to_vec(),
        ),
        ("oversized-head", {
            let mut head = b"GET / HTTP/1.1\r\n".to_vec();
            for i in 0..2000 {
                head.extend_from_slice(format!("x-h{i}: value\r\n").as_bytes());
            }
            head.extend_from_slice(b"\r\n");
            head
        }),
    ];

    for (name, bytes) in cases {
        // Truncated cases need EOF to resolve; the read is
        // watchdog-bounded either way.
        match send_raw(addr, &bytes) {
            Ok(resp) => {
                assert!(
                    (400..=599).contains(&resp.status),
                    "case {name}: expected 4xx/5xx, got {}",
                    resp.status
                );
                assert!(
                    std::str::from_utf8(&resp.body)
                        .unwrap()
                        .contains("\"kind\":"),
                    "case {name}: body should be structured JSON"
                );
            }
            Err(e) => {
                // A clean close (or our own watchdog) is acceptable
                // for inputs the server cannot even frame an answer
                // to; a hang is not, and would have failed above.
                let status = e.status();
                assert!(
                    status == 0 || (400..=599).contains(&status),
                    "case {name}: unexpected wire error {e:?}"
                );
            }
        }
    }

    // The server survived all of it.
    let mut client = Client::connect(addr).unwrap();
    let health = client.request("GET", "/health", b"").unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
}

/// The client half shares the server's `content-length` rules: digits
/// only, and repeated headers must agree (RFC 9112 §6.3). Identical
/// repeats are harmless and pass on either side.
#[test]
fn content_length_framing_is_shared_by_requests_and_responses() {
    let response = |head: &str| {
        let bytes = format!("HTTP/1.1 200 OK\r\n{head}\r\nabc");
        read_response(&mut Cursor::new(bytes.into_bytes()), &WireLimits::default())
    };
    for head in [
        "content-length: +3\r\n",
        "content-length: 3\r\ncontent-length: 2\r\n",
    ] {
        assert!(
            matches!(response(head), Err(WireError::Malformed(_))),
            "{head:?} must be rejected as malformed"
        );
    }
    let repeated = "content-length: 3\r\ncontent-length: 3\r\n";
    assert_eq!(response(repeated).unwrap().body, b"abc");
    let request = format!("POST /assess HTTP/1.1\r\n{repeated}\r\nabc");
    let req = read_request(
        &mut Cursor::new(request.into_bytes()),
        &WireLimits::default(),
    )
    .unwrap();
    assert_eq!(req.body, b"abc");
}

/// A trickling client cannot pin a worker forever: the stall watchdog
/// turns it into a 408 (or clean close).
#[test]
fn slow_trickle_hits_the_stall_watchdog() {
    let cfg = ServeConfig {
        limits: WireLimits {
            max_stall_ticks: 3,
            ..WireLimits::default()
        },
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"GET /health HT").unwrap();
    stream.flush().unwrap();
    // Never send the rest. The server should close with a 408 within
    // ~max_stall_ticks × 100ms.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.contains("408") && text.contains("stalled"),
        "expected a 408 stalled response, got: {text:?}"
    );
    handle.shutdown();
}

/// Records each `write` call, so a test sees how a response is split
/// across writes as well as its bytes.
#[derive(Default)]
struct WriteLog {
    writes: Vec<Vec<u8>>,
    flushes: usize,
}

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// `Response::write_to`'s exact bytes: status line, the automatic
/// headers, the extra headers in order, `connection: close` only when
/// asked, then the body. The head and the body go out as two writes,
/// the split that the benchmark's baseline was measured with (ROADMAP
/// item 1 merges them together with the harness change).
#[test]
fn write_to_bytes_match_their_golden() {
    let resp = Response::json(200, "{\"ok\":true}")
        .with_header("x-andi-cache", "hit")
        .with_header("x-andi-spent-ms", "3");
    let head = "HTTP/1.1 200 OK\r\n\
                content-type: application/json\r\n\
                content-length: 11\r\n\
                x-andi-cache: hit\r\n\
                x-andi-spent-ms: 3\r\n";
    for (close, end) in [(false, "\r\n"), (true, "connection: close\r\n\r\n")] {
        let mut log = WriteLog::default();
        resp.write_to(&mut log, close).unwrap();
        let want_head = format!("{head}{end}");
        assert_eq!(
            log.writes,
            [want_head.as_bytes(), b"{\"ok\":true}".as_slice()],
            "close = {close}"
        );
        assert_eq!(log.flushes, 1);
    }
}

/// The head reader's edge cases, pinned: invalid UTF-8 in a header
/// reads as U+FFFD, blank lines before a request line are skipped,
/// bare-LF line ends parse, and the byte cap counts the request line
/// and the header lines with their line ends, but not the blank line
/// that ends the head.
#[test]
fn head_reader_edge_cases_are_pinned() {
    let limits = WireLimits::default();
    let read = |bytes: &[u8], limits: &WireLimits| read_request(&mut Cursor::new(bytes), limits);

    let req = read(b"GET / HTTP/1.1\r\nx-raw: a\xFFb\r\n\r\n", &limits).unwrap();
    assert_eq!(req.header("x-raw"), Some("a\u{FFFD}b"));

    let req = read(b"\r\n\r\n\nGET /health HTTP/1.1\r\n\r\n", &limits).unwrap();
    assert_eq!(
        (req.method.as_str(), req.target.as_str()),
        ("GET", "/health")
    );

    let req = read(
        b"POST /assess HTTP/1.1\ncontent-length: 3\nx-b:  c \n\nabc",
        &limits,
    )
    .unwrap();
    assert_eq!(req.header("x-b"), Some("c"));
    assert_eq!(req.body, b"abc");
    let resp = read_response(
        &mut Cursor::new(&b"HTTP/1.1 204 No Content\nx-b: c\n\n"[..]),
        &limits,
    )
    .unwrap();
    assert_eq!((resp.status, resp.headers.len()), (204, 1));

    // A request line and one padded header line of `len` bytes in
    // all: exactly the cap is read, one byte more is refused.
    let small = WireLimits {
        max_head_bytes: 64,
        ..WireLimits::default()
    };
    let head_of = |len: usize| {
        let fixed = "GET / HTTP/1.1\r\nx-pad: \r\n".len();
        format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "p".repeat(len - fixed)
        )
    };
    assert_eq!(head_of(64).len(), 64 + 2);
    assert!(read(head_of(64).as_bytes(), &small).is_ok());
    assert!(matches!(
        read(head_of(65).as_bytes(), &small),
        Err(WireError::HeadTooLarge { limit: 64 })
    ));
}

/// A head line with no end is refused once it passes the cap, having
/// read at most two bytes past it, instead of being buffered until
/// the peer stops sending.
#[test]
fn an_endless_head_line_is_refused_at_the_cap() {
    let limits = WireLimits::default();
    let mut bytes = b"GET / HTTP/1.1\r\nx-flood: ".to_vec();
    bytes.resize(1 << 20, b'a');
    let mut stream = Cursor::new(bytes);
    assert!(matches!(
        read_request(&mut stream, &limits),
        Err(WireError::HeadTooLarge { .. })
    ));
    let read = stream.position() as usize;
    assert!(
        read <= limits.max_head_bytes + 2,
        "read {read} bytes against a {} byte cap",
        limits.max_head_bytes
    );
}
