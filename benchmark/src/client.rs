//! The wire client: whole artifacts out, whole artifacts in, over one
//! loopback TCP connection.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};

/// A comment line: the server skips it, but sending it makes this
/// side's TCP acknowledge at once everything it has read.
///
/// The server's sockets leave Nagle's algorithm on, so a reply (or a
/// pushed notify) is held back while the previous one is unacknowledged,
/// and a client that is only reading acknowledges up to 40 ms late.
/// One-request-one-reply traffic hides this. An open-loop sender or a
/// pure watcher falls into it and then stays in it (each reply is
/// released by the next request and arrives just too late to be
/// acknowledged by it): ack latency at 60 epochs/s read either 6 ms or
/// one send period, 16.7 ms, from run to run. A client that writes 32
/// queries at once waits 40 ms for replies 2..32. See README,
/// "Findings".
const NOOP: &[u8] = b";\n";

/// The write half of a connection, shareable between threads: every
/// send is one whole artifact (or comment line) under the lock.
#[derive(Clone)]
pub struct Sender(Arc<Mutex<TcpStream>>);

impl Sender {
    pub fn send(&self, artifact: &str) -> Result<(), String> {
        self.write(artifact.as_bytes())
    }

    fn write(&self, bytes: &[u8]) -> Result<(), String> {
        self.0
            .lock()
            .expect("a sender panicked")
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Ends the connection from any thread: a reader blocked in
    /// [`Conn::recv`] sees end of stream.
    pub fn close(&self) {
        let _ = self
            .0
            .lock()
            .expect("a sender panicked")
            .shutdown(Shutdown::Both);
    }
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    sender: Sender,
    eager_ack: bool,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            sender: Sender(Arc::new(Mutex::new(stream))),
            eager_ack: false,
        })
    }

    /// For a connection that reads more often than it writes: before
    /// blocking for more input, send [`NOOP`] so that everything read so
    /// far is acknowledged and the server's next small write is not held.
    pub fn eager_ack(mut self) -> Conn {
        self.eager_ack = true;
        self
    }

    pub fn sender(&self) -> Sender {
        self.sender.clone()
    }

    pub fn send(&mut self, artifact: &str) -> Result<(), String> {
        self.sender.send(artifact)
    }

    /// The next artifact off the socket; `None` once the peer (or
    /// [`Sender::close`]) ended the stream.
    pub fn recv(&mut self) -> Result<Option<String>, String> {
        if self.eager_ack && self.reader.buffer().is_empty() {
            self.sender.write(NOOP)?;
        }
        dna_serve::read_artifact(&mut self.reader).map_err(|e| format!("recv: {e}"))
    }

    /// One request, one reply.
    pub fn ask(&mut self, artifact: &str) -> Result<String, String> {
        self.send(artifact)?;
        self.recv()?
            .ok_or_else(|| "server closed the connection".to_string())
    }
}

pub fn is_notify(artifact: &str) -> bool {
    artifact.starts_with("dna-io v1 notify")
}

pub fn is_error(artifact: &str) -> bool {
    artifact
        .lines()
        .nth(1)
        .is_some_and(|l| l.trim_start().starts_with("error "))
}
