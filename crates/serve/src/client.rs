//! A vendored keep-alive HTTP client for `andi-benchmark`'s load
//! driver, the README quick-start and the service tests — the same
//! wire layer the server uses, pointed the other way.
//!
//! Supports one-shot request/response and explicit pipelining
//! (`send` N times, then `recv` N times), which is what lets a load
//! driver push ≥10⁵ requests through a handful of connections.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::{read_response, Response, WireError, WireLimits};

/// A keep-alive connection to an andi-serve instance.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    limits: WireLimits,
}

impl Client {
    /// Connects with generous read/write timeouts (the wire layer's
    /// stall-tick cap turns them into a bounded watchdog).
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        stream.set_write_timeout(Some(Duration::from_millis(10_000)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            limits: WireLimits::default(),
        })
    }

    /// Writes one request without waiting for the response
    /// (pipelining half).
    ///
    /// # Errors
    ///
    /// Transport write failures.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: andi-serve\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Reads one pipelined response.
    ///
    /// # Errors
    ///
    /// Wire-layer failures, including the stall watchdog.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        read_response(&mut self.reader, &self.limits)
    }

    /// One-shot request/response.
    ///
    /// # Errors
    ///
    /// Write failures (as [`WireError::Io`]) or response wire
    /// failures.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Response, WireError> {
        self.send(method, path, body)
            .map_err(|e| WireError::Io(e.kind().to_string()))?;
        self.recv()
    }
}
