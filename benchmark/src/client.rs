//! The benchmark's own HTTP/1.1 client (std `TcpStream` only).
//!
//! It offers keep-alive: it never sends `connection: close`, reads the
//! reply by `content-length`, and reuses the socket unless the reply says
//! `connection: close`. It counts connects, so a server that starts to
//! honour keep-alive shows `connects_per_op < 1` with no benchmark edit.

use crate::spans::Recorder;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest wait for any single connect, write or read.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Largest reply body accepted; the largest real one is about 10 KiB.
const MAX_REPLY_BYTES: usize = 16 * 1024 * 1024;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn closes_connection(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Read one reply: status line, headers, then exactly `content-length`
/// body bytes (a reply without the header has no body).
pub fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Reply> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;

    let mut headers = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("truncated headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| invalid("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| invalid("bad content-length"))?,
    };
    if length > MAX_REPLY_BYTES {
        return Err(invalid("reply body too large"));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
    Ok(Reply {
        status,
        headers,
        body,
    })
}

/// One closed-loop client: at most one request in flight, at most one
/// open connection.
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            connects: 0,
        }
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        self.connects += 1;
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    fn exchange(&mut self, message: &[u8], rec: &mut Recorder) -> io::Result<Reply> {
        if self.stream.is_none() {
            rec.span("serve", "connect", |_| self.connect())?;
        }
        let stream = self.stream.as_mut().expect("connected above");
        rec.span("serve", "write", |_| {
            stream.get_mut().write_all(message)?;
            stream.get_mut().flush()
        })?;
        rec.span("serve", "read", |_| read_reply(stream))
    }

    /// Send one request and read its reply. `body: None` sends no
    /// `content-length` (a GET). A reused socket the server has meanwhile
    /// closed is retried once on a fresh connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        rec: &mut Recorder,
    ) -> io::Result<Reply> {
        let mut message = format!("{method} {path} HTTP/1.1\r\nhost: cubesfc\r\n");
        if let Some(body) = body {
            message.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        message.push_str("\r\n");
        message.push_str(body.unwrap_or(""));

        let reused = self.stream.is_some();
        let mut result = self.exchange(message.as_bytes(), rec);
        if result.is_err() && reused {
            self.stream = None;
            result = self.exchange(message.as_bytes(), rec);
        }
        match &result {
            Ok(reply) if !reply.closes_connection() => {}
            _ => self.stream = None,
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Read one request (head and `content-length` body) off `stream`.
    fn swallow_request(stream: &mut BufReader<TcpStream>) -> bool {
        let mut length = 0;
        let mut line = String::new();
        loop {
            line.clear();
            if stream.read_line(&mut line).unwrap_or(0) == 0 {
                return false;
            }
            let lower = line.to_ascii_lowercase();
            assert!(
                !lower.starts_with("connection:"),
                "client must not ask to close"
            );
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().unwrap();
            }
            if line == "\r\n" {
                break;
            }
        }
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        true
    }

    /// A canned server: answers every request on every connection with
    /// `reply`, closing after each one when `close_each` is set.
    fn canned_server(reply: &'static str, close_each: bool, connections: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().unwrap();
                let mut stream = BufReader::new(stream);
                while swallow_request(&mut stream) {
                    stream.get_mut().write_all(reply.as_bytes()).unwrap();
                    if close_each {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn a_connection_close_reply_forces_a_reconnect() {
        let reply = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\nx-cubesfc-cache: hit\r\n\r\nok";
        let mut client = Client::new(canned_server(reply, true, 2));
        let mut rec = Recorder::disabled();
        for _ in 0..2 {
            let r = client
                .request("POST", "/v1/partition", Some("{}"), &mut rec)
                .unwrap();
            assert_eq!((r.status, r.body.as_str()), (200, "ok"));
            assert_eq!(r.header("x-cubesfc-cache"), Some("hit"));
        }
        assert_eq!(client.connects(), 2);
    }

    #[test]
    fn a_reusable_reply_keeps_the_socket() {
        let reply = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let mut client = Client::new(canned_server(reply, false, 1));
        let mut rec = Recorder::disabled();
        for _ in 0..3 {
            let r = client.request("GET", "/healthz", None, &mut rec).unwrap();
            assert_eq!(r.body, "hello", "read by content-length, not to EOF");
        }
        assert_eq!(client.connects(), 1);
    }

    #[test]
    fn a_reused_socket_the_server_closed_is_retried_on_a_fresh_one() {
        // The reply allows reuse, but the server hangs up after each one.
        let reply = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
        let mut client = Client::new(canned_server(reply, true, 2));
        let mut rec = Recorder::disabled();
        for _ in 0..2 {
            let r = client.request("GET", "/healthz", None, &mut rec).unwrap();
            assert_eq!(r.body, "ok");
        }
        assert_eq!(client.connects(), 2);
    }

    #[test]
    fn malformed_replies_are_errors() {
        let parse = |raw: &str| read_reply(&mut BufReader::new(raw.as_bytes()));
        assert!(parse("").is_err());
        assert!(parse("garbage\r\n\r\n").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n").is_err());
        assert_eq!(parse("HTTP/1.1 204 No Content\r\n\r\n").unwrap().body, "");
    }
}
