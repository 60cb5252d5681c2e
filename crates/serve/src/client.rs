//! A minimal blocking HTTP/1.1 client, shared by the integration tests
//! and the `serve_probe` smoke binary. One request per
//! connection: every request says `connection: close`, so the server
//! closes after its reply and the client reads that reply to EOF. (The
//! server keeps a connection open for clients that do not say so.)

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Send one request and read the full response. `body: None` sends no
/// `Content-Length` (GET); `Some` always sends one, even when empty.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request_with_headers(addr, method, path, &[], body, timeout)
}

/// [`request`] with extra request headers (e.g. `accept` for content
/// negotiation, `x-cubesfc-request-id` to pick the request ID).
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;

    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: cubesfc\r\nconnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(body) = body {
        head.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    // One write, so the server reads the whole request in one wake-up.
    head.push_str(body.unwrap_or(""));
    stream.write_all(head.as_bytes())?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_bytes() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nx-cubesfc-cache: hit\r\n\r\n{\"ok\":true}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cubesfc-cache"), Some("hit"));
        assert_eq!(resp.body, "{\"ok\":true}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"garbage with no terminator").is_err());
    }
}
