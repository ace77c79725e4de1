//! `foxq serve` as a child process: started on an ephemeral port, found by
//! its `listening on http://…` stderr line, stopped with `POST /shutdown`.

use crate::affinity;
use crate::http::{Conn, Request};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};

pub struct ServerChild {
    child: Child,
    /// Kept open until the child exits: its farewell line must not hit a
    /// closed pipe.
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

/// Pull the socket address out of the server's announcement line.
pub fn parse_listening_line(line: &str) -> Option<SocketAddr> {
    let rest = &line[line.find("listening on http://")? + "listening on http://".len()..];
    let end = rest
        .find(|c: char| c.is_whitespace() || c == '/')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl ServerChild {
    /// Start the server with two worker threads and wait until `/healthz`
    /// answers 200.
    pub fn start(foxq: &Path) -> Result<ServerChild, String> {
        let mut command = Command::new(foxq);
        command
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = affinity::spawn(&mut command)
            .map_err(|e| format!("cannot spawn {} serve: {e}", foxq.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("foxq serve exited before listening: {seen}"));
                }
                Ok(_) => {}
            }
            if let Some(addr) = parse_listening_line(&line) {
                break addr;
            }
            seen.push_str(&line);
        };
        let mut server = ServerChild {
            child,
            stderr,
            addr,
        };
        match server.healthz() {
            Ok(()) => Ok(server),
            Err(e) => {
                server.kill();
                Err(e)
            }
        }
    }

    fn healthz(&self) -> Result<(), String> {
        let mut conn =
            Conn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        let reply = conn
            .exchange(&Request::new("GET", "/healthz", b""))
            .map_err(|e| format!("GET /healthz: {e}"))?;
        if reply.status == 200 {
            Ok(())
        } else {
            Err(format!("GET /healthz answered {}", reply.status))
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: `POST /shutdown`, then wait for the process to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.exchange(&Request::new("POST", "/shutdown", b"")))
            .map_err(|e| format!("POST /shutdown: {e}"));
        if asked.is_err() {
            self.kill();
            return asked.map(|_| ());
        }
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for foxq serve: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("foxq serve ended with {status}: {rest}"))
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An error path must not leave a server behind; after a clean `shutdown`
/// the child is already reaped and this does nothing.
impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line() {
        let line = "foxq-server listening on http://127.0.0.1:43817 (POST /shutdown to stop)\n";
        assert_eq!(
            parse_listening_line(line),
            Some("127.0.0.1:43817".parse().unwrap())
        );
        assert_eq!(
            parse_listening_line("foxq-server drained and stopped"),
            None
        );
        assert_eq!(parse_listening_line("listening on http://nonsense"), None);
    }
}
