//! Blocking client for the daemon protocol, over either transport.
//!
//! One [`Client`] wraps one connection — Unix socket
//! ([`connect`](Client::connect)) or TCP
//! ([`connect_tcp`](Client::connect_tcp)); the protocol (and every
//! response byte) is identical on both. Requests are serialized in
//! order (the protocol answers one line per line), and
//! [`pipeline`](Client::pipeline) sends a burst before reading any
//! response to exercise the daemon's ordering guarantee. The CLI's
//! `pallas client` subcommand is a thin shell around this type, and
//! the end-to-end tests drive the daemon through it.

use crate::json::{self, Value};
use crate::protocol::{Request, RuleSelection};
use pallas_core::SourceUnit;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// One client-side connection stream, either transport.
pub enum ClientStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl ClientStream {
    fn try_clone(&self) -> std::io::Result<ClientStream> {
        match self {
            ClientStream::Unix(s) => s.try_clone().map(ClientStream::Unix),
            ClientStream::Tcp(s) => s.try_clone().map(ClientStream::Tcp),
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<ClientStream>,
    writer: ClientStream,
}

impl Client {
    /// Connects to a daemon's Unix socket.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Client> {
        Client::from_stream(ClientStream::Unix(UnixStream::connect(path)?))
    }

    /// Connects to a daemon's TCP listener.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One tiny request line per round trip: latency beats Nagle.
        let _ = stream.set_nodelay(true);
        Client::from_stream(ClientStream::Tcp(stream))
    }

    fn from_stream(stream: ClientStream) -> std::io::Result<Client> {
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends one raw request line and reads the one response line.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.read_response()
    }

    /// Writes one request line without reading the response (pair
    /// with [`read_response`](Client::read_response); used to put
    /// several requests in flight on one connection).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Reads the next response line.
    pub fn read_response(&mut self) -> std::io::Result<String> {
        let mut response = String::new();
        let read = self.reader.read_line(&mut response)?;
        if read == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        response.truncate(response.trim_end_matches('\n').len());
        Ok(response)
    }

    /// Writes every request line before reading any response, then
    /// reads exactly one response per request. The daemon guarantees
    /// response order matches request order even when later requests
    /// finish (or coalesce) first; the ordering tests pin that here.
    pub fn pipeline(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        for line in lines {
            writeln!(self.writer, "{line}")?;
        }
        self.writer.flush()?;
        lines.iter().map(|_| self.read_response()).collect()
    }

    /// Sends a typed request; returns the parsed response.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Value> {
        let line = self.request_line(&request.to_line())?;
        json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed daemon response: {e}"),
            )
        })
    }

    /// Checks one unit.
    pub fn check(&mut self, unit: &SourceUnit) -> std::io::Result<Value> {
        self.request(&Request::Check {
            unit: unit.clone(),
            delay: None,
            rules: RuleSelection::default(),
        })
    }

    /// Checks one unit with a per-request rule selection — the daemon
    /// equivalent of `pallas check --only-rule/--disable-rule`.
    pub fn check_with_rules(
        &mut self,
        unit: &SourceUnit,
        rules: RuleSelection,
    ) -> std::io::Result<Value> {
        self.request(&Request::Check { unit: unit.clone(), delay: None, rules })
    }

    /// Checks one unit with an artificial pre-analysis stall
    /// (timeout/overload/coalescing tests and benches).
    pub fn check_delayed(
        &mut self,
        unit: &SourceUnit,
        delay: Duration,
    ) -> std::io::Result<Value> {
        self.request(&Request::Check {
            unit: unit.clone(),
            delay: Some(delay),
            rules: RuleSelection::default(),
        })
    }

    /// Checks a batch of units through the daemon's worker pool.
    pub fn batch(&mut self, units: &[SourceUnit]) -> std::io::Result<Value> {
        self.request(&Request::Batch {
            units: units.to_vec(),
            delay: None,
            rules: RuleSelection::default(),
        })
    }

    /// Samples the daemon's metrics registry.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.request(&Request::Stats)
    }

    /// Drains the daemon's trace collector (Chrome export + flame
    /// summary of everything recorded since the last drain).
    pub fn trace(&mut self) -> std::io::Result<Value> {
        self.request(&Request::Trace)
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.request(&Request::Shutdown)
    }
}
