//! A minimal HTTP/1.1 request/response layer over blocking streams.
//!
//! This is deliberately not a general HTTP implementation: it parses
//! exactly the subset the `cubesfc-serve-v1` API needs (request line,
//! headers, `Content-Length` bodies) with hard caps on header count,
//! line length, and body size so a hostile peer cannot make the server
//! allocate without bound. Everything else — chunked encoding, HTTP/2,
//! TLS — is out of scope for an internal benchmark service.
//!
//! Connections persist (HTTP/1.1 keep-alive), so the server reads every
//! request of a connection through one buffered reader: bytes read past
//! the end of one request are the start of the next. A request whose
//! body framing is ambiguous — any `transfer-encoding`, or two
//! `content-length` values that differ — is refused as a bad request,
//! so no body byte is ever read as the start of another request.

use std::io::{BufRead, Write};

/// Hard caps applied while reading a request.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum number of header lines in one request.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted request-body size in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (upper-cased as received: `GET`, `POST`, ...).
    pub method: String,
    /// Request target path, e.g. `/v1/partition`.
    pub path: String,
    /// Protocol version as received, e.g. `HTTP/1.1`.
    pub version: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client lets the connection persist after this
    /// request: HTTP/1.1 without a `close` token in `connection`. An
    /// HTTP/1.0 client reads to EOF, so its connection always closes.
    pub(crate) fn keep_alive(&self) -> bool {
        self.version == "HTTP/1.1"
            && !self.header("connection").is_some_and(|value| {
                value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"))
            })
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The peer closed the connection before sending a request line.
    Eof,
    /// Malformed request line or header (maps to 400).
    BadRequest(String),
    /// A body-bearing method arrived without `Content-Length` (411).
    LengthRequired,
    /// The declared body exceeds [`MAX_BODY_BYTES`] (413).
    PayloadTooLarge,
    /// The underlying socket failed mid-read.
    Io(String),
}

/// Read one request from `reader`, applying the size caps. It consumes
/// exactly the request's bytes, so pass `&mut` one `BufReader` for the
/// life of a connection and call again for the next request (a byte
/// slice works too).
pub fn read_request<R: BufRead>(mut reader: R) -> Result<Request, ReadError> {
    let request_line = match read_line(&mut reader)? {
        Some(line) => line,
        None => return Err(ReadError::Eof),
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing request target".to_string()))?
        .to_string();
    let version = parts.next().unwrap_or("").to_string();
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(&mut reader)? {
            Some(line) => line,
            None => return Err(ReadError::BadRequest("truncated headers".to_string())),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::BadRequest("too many headers".to_string()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // On a kept-alive connection the body's framing decides where the
    // next request starts, so any ambiguity in it is refused (and the
    // connection closed) rather than guessed at: a request smuggled in
    // an unread chunked body, or behind a second length, is never served.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(ReadError::BadRequest(
            "transfer-encoding is not supported".to_string(),
        ));
    }
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = lengths
        .next()
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::BadRequest(format!("bad content-length {v:?}")))
        })
        .transpose()?;
    if lengths.any(|(_, v)| v.parse::<usize>().ok() != content_length) {
        return Err(ReadError::BadRequest(
            "conflicting content-length headers".to_string(),
        ));
    }

    let body = match content_length {
        None => {
            if method == "POST" || method == "PUT" {
                return Err(ReadError::LengthRequired);
            }
            Vec::new()
        }
        Some(n) if n > MAX_BODY_BYTES => return Err(ReadError::PayloadTooLarge),
        Some(n) => {
            let mut body = vec![0u8; n];
            reader
                .read_exact(&mut body)
                .map_err(|e| ReadError::Io(e.to_string()))?;
            body
        }
    };

    Ok(Request {
        method,
        path,
        version,
        headers,
        body,
    })
}

/// Read one CRLF- (or LF-) terminated line, enforcing the line cap.
/// `Ok(None)` means clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(ReadError::BadRequest("truncated line".to_string()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| ReadError::BadRequest("non-UTF-8 header".to_string()));
                }
                line.push(byte[0]);
                if line.len() > MAX_HEADER_LINE {
                    return Err(ReadError::BadRequest("header line too long".to_string()));
                }
            }
            Err(e) => return Err(ReadError::Io(e.to_string())),
        }
    }
}

/// An HTTP response to serialize onto the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status and body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// First value of extra header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serialize the response onto `stream` (HTTP/1.1). The head says
    /// nothing about the connection, which therefore persists: a reply
    /// after which the server closes carries an extra `connection:
    /// close` header, added by the server, never by this method.
    pub fn write<W: Write>(&self, stream: &mut W) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // Head and body in one write: on a socket that is one syscall
        // and one segment train, so the peer wakes once.
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        stream.write_all(&out)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/partition");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn post_without_length_is_411() {
        let raw = b"POST /v1/partition HTTP/1.1\r\n\r\n";
        assert_eq!(read_request(&raw[..]), Err(ReadError::LengthRequired));
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            read_request(raw.as_bytes()),
            Err(ReadError::PayloadTooLarge)
        );
    }

    #[test]
    fn overlong_header_line_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_LINE + 2));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(
            read_request(&raw[..]),
            Err(ReadError::BadRequest(_))
        ));
    }

    #[test]
    fn garbage_request_line_is_bad_request() {
        let raw = b"NONSENSE\r\n\r\n";
        assert!(matches!(
            read_request(&raw[..]),
            Err(ReadError::BadRequest(_))
        ));
    }

    #[test]
    fn one_reader_yields_back_to_back_requests_then_eof() {
        let raw = b"POST /a HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let mut reader = &raw[..];
        let first = read_request(&mut reader).unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/a", &b"hi"[..])
        );
        assert_eq!(read_request(&mut reader).unwrap().path, "/b");
        assert_eq!(read_request(&mut reader), Err(ReadError::Eof));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_tokens() {
        let parse = |raw: &str| read_request(raw.as_bytes()).unwrap();
        assert!(parse("GET / HTTP/1.1\r\n\r\n").keep_alive());
        assert!(parse("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").keep_alive());
        assert!(!parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").keep_alive());
        assert!(!parse("GET / HTTP/1.1\r\nconnection: te, close\r\n\r\n").keep_alive());
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").keep_alive());
        assert!(!parse("GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").keep_alive());
    }

    #[test]
    fn transfer_encoding_is_refused_so_no_body_is_read_as_a_request() {
        let raw = b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nGET /\r\n0\r\n\r\n";
        assert_eq!(
            read_request(&raw[..]),
            Err(ReadError::BadRequest(
                "transfer-encoding is not supported".to_string()
            ))
        );
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ntransfer-encoding: chunked\r\n\r\nhi";
        assert!(matches!(
            read_request(&raw[..]),
            Err(ReadError::BadRequest(_))
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_refused_and_equal_ones_allowed() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 25\r\n\r\nhiGET /smuggled HTTP/1.1\r\n\r\n";
        assert_eq!(
            read_request(&raw[..]),
            Err(ReadError::BadRequest(
                "conflicting content-length headers".to_string()
            ))
        );
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: x\r\n\r\nhi";
        assert!(matches!(
            read_request(&raw[..]),
            Err(ReadError::BadRequest(_))
        ));
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 2\r\n\r\nhi";
        assert_eq!(read_request(&raw[..]).unwrap().body, b"hi");
    }

    #[test]
    fn empty_connection_is_eof() {
        let raw: &[u8] = b"";
        assert_eq!(read_request(raw), Err(ReadError::Eof));
    }

    #[test]
    fn response_serializes_with_extra_headers() {
        let mut out = Vec::new();
        Response::json(429, "{}".to_string())
            .with_header("retry-after", "1")
            .write(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(!text.contains("connection:"), "the server decides: {text}");
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
