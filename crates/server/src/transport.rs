//! Transports: where connections come from.
//!
//! The protocol is plain newline-delimited JSON over any byte stream,
//! so a transport only has to yield [`Conn`]s — a buffered reader, a
//! writer, and a peer label. [`StdioTransport`] yields exactly one
//! (the classic `inrpp serve` pipe); [`SocketTransport`] listens on a
//! TCP address or a Unix-domain socket path and yields one per
//! accepted client, polling non-blockingly so a daemon shutdown flag
//! is observed promptly. Accepted TCP streams run with `TCP_NODELAY`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One accepted client: a line-oriented byte stream plus a display
/// label for diagnostics.
pub struct Conn {
    /// Request side (line-buffered).
    pub reader: Box<dyn BufRead + Send>,
    /// Reply side.
    pub writer: Box<dyn Write + Send>,
    /// Where the client came from (`"stdio"`, a TCP peer address,
    /// `"unix"`).
    pub peer: String,
}

/// A source of client connections.
pub trait Transport {
    /// Block (politely — checking `shutdown`) until the next client
    /// connects. `Ok(None)` means the transport is drained: stdio's
    /// single connection was already handed out, or `shutdown` was
    /// raised.
    fn accept(&mut self, shutdown: &AtomicBool) -> io::Result<Option<Conn>>;

    /// The bound address, when the transport has one (lets callers
    /// discover the port after binding `:0`).
    fn local_addr(&self) -> Option<String> {
        None
    }
}

/// The v1 transport: exactly one connection, on this process's stdio.
#[derive(Debug, Default)]
pub struct StdioTransport {
    used: bool,
}

impl StdioTransport {
    /// A fresh stdio transport (one connection available).
    pub fn new() -> Self {
        StdioTransport::default()
    }
}

impl Transport for StdioTransport {
    fn accept(&mut self, shutdown: &AtomicBool) -> io::Result<Option<Conn>> {
        if self.used || shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        self.used = true;
        // Stdin (not StdinLock): the conn is handed to another thread
        Ok(Some(Conn {
            reader: Box::new(BufReader::new(io::stdin())),
            writer: Box::new(io::stdout()),
            peer: "stdio".into(),
        }))
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

/// An accepted client socket, already switched back to blocking mode
/// and (for TCP) to `TCP_NODELAY`.
enum Accepted {
    Tcp(TcpStream, SocketAddr),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// A socket listener: `"unix:/path/to.sock"` or any TCP bind address
/// (`"127.0.0.1:0"` picks a free port — read it back with
/// [`Transport::local_addr`]). The accept loop polls non-blockingly
/// every ~2 ms so the daemon's shutdown flag stops it promptly; a
/// bound Unix socket path is unlinked when the transport drops.
pub struct SocketTransport {
    listener: Listener,
}

impl SocketTransport {
    /// Bind the listen spec.
    pub fn bind(spec: &str) -> io::Result<Self> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                // a stale socket file from a dead daemon would fail the
                // bind; connecting clients are not affected by unlink
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                return Ok(SocketTransport {
                    listener: Listener::Unix(listener, path.to_string()),
                });
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("unix sockets are not available on this platform: {spec:?}"),
                ));
            }
        }
        let listener = TcpListener::bind(spec)?;
        listener.set_nonblocking(true)?;
        Ok(SocketTransport {
            listener: Listener::Tcp(listener),
        })
    }

    /// One nonblocking accept attempt; `Ok(None)` when no client waits.
    ///
    /// TCP streams get `TCP_NODELAY`. Every reply is one write, but
    /// Nagle's algorithm would still hold back the last segment of a
    /// reply longer than one segment, or a reply written while an
    /// earlier one is unacknowledged (pipelined requests), until the
    /// client's delayed ACK (~40 ms).
    fn try_accept(&self) -> io::Result<Option<Accepted>> {
        let accepted = match &self.listener {
            Listener::Tcp(l) => l.accept().and_then(|(stream, peer)| {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Accepted::Tcp(stream, peer))
            }),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().and_then(|(stream, _)| {
                stream.set_nonblocking(false)?;
                Ok(Accepted::Unix(stream))
            }),
        };
        match accepted {
            Ok(a) => Ok(Some(a)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Transport for SocketTransport {
    fn accept(&mut self, shutdown: &AtomicBool) -> io::Result<Option<Conn>> {
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
            match self.try_accept()? {
                Some(Accepted::Tcp(stream, peer)) => {
                    return Ok(Some(Conn {
                        reader: Box::new(BufReader::new(stream.try_clone()?)),
                        writer: Box::new(stream),
                        peer: peer.to_string(),
                    }))
                }
                #[cfg(unix)]
                Some(Accepted::Unix(stream)) => {
                    return Ok(Some(Conn {
                        reader: Box::new(BufReader::new(stream.try_clone()?)),
                        writer: Box::new(stream),
                        peer: self.local_addr().unwrap_or_default(),
                    }))
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    fn local_addr(&self) -> Option<String> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok().map(|a| a.to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => Some(format!("unix:{path}")),
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_tcp_streams_run_with_nodelay() {
        let transport = SocketTransport::bind("127.0.0.1:0").expect("bind");
        let addr = transport.local_addr().expect("bound address");
        let _client = TcpStream::connect(&addr).expect("connect");
        let accepted = loop {
            match transport.try_accept().expect("accept") {
                Some(a) => break a,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        match accepted {
            Accepted::Tcp(stream, _) => assert!(stream.nodelay().expect("nodelay")),
            #[cfg(unix)]
            Accepted::Unix(_) => panic!("a TCP listener accepted a unix stream"),
        }
    }
}
