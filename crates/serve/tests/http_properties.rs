//! Hostile input on the server's one HTTP parser, `http::read_request`.
//!
//! Each case starts from valid requests (a GET, a POST with a body, or a
//! keep-alive pair of both) and applies random truncation, byte flips,
//! inserted bytes, oversized header lines and duplicate
//! `content-length` headers. Reading the result request by request, as
//! a kept-alive connection does, must never panic, and every outcome
//! must be a request or a typed `ReadError`. An accepted request
//! consumes exactly its head and its declared body, so no byte of the
//! next request is ever read as part of it.

use cubesfc_serve::http::{read_request, ReadError, MAX_HEADER_LINE};
use proptest::prelude::*;

const PATHS: [&str; 4] = [
    "/v1/partition",
    "/healthz",
    "/metrics",
    "/v1/rebalance/step",
];

/// Length of the request head at the start of `bytes`: through the
/// first empty line after the request line (CRLF or bare LF), as
/// `read_request` frames it. `None` when the head is incomplete.
fn head_len(bytes: &[u8]) -> Option<usize> {
    let mut start = 0;
    let mut request_line = true;
    while let Some(i) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = &bytes[start..start + i];
        start += i + 1;
        if !request_line && (line.is_empty() || line == b"\r") {
            return Some(start);
        }
        request_line = false;
    }
    None
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: localhost\r\n\r\n").into_bytes()
}

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Insert `line` right after the first line of `raw` (or append it).
fn insert_header(raw: &mut Vec<u8>, line: &[u8]) {
    let at = raw
        .iter()
        .position(|&b| b == b'\n')
        .map_or(raw.len(), |i| i + 1);
    raw.splice(at..at, line.iter().copied());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_request_never_panics_and_never_overreads(
        kind in 0u8..3,
        path in 0usize..PATHS.len(),
        body in proptest::collection::vec(any::<u8>(), 0..48),
        mutations in proptest::collection::vec((0u8..5, any::<usize>(), any::<u8>()), 0..4),
    ) {
        let path = PATHS[path];
        let mut input = match kind {
            0 => get(path),
            1 => post(path, &body),
            _ => [post(path, &body), get(path)].concat(),
        };
        let valid = mutations.is_empty();
        for &(op, at, byte) in &mutations {
            match op {
                0 => input.truncate(at % (input.len() + 1)),
                1 => {
                    if !input.is_empty() {
                        let i = at % input.len();
                        input[i] ^= byte | 1;
                    }
                }
                2 => {
                    let mut line = b"x-filler: ".to_vec();
                    line.resize(MAX_HEADER_LINE + 1 + at % 64, b'a');
                    line.extend_from_slice(b"\r\n");
                    insert_header(&mut input, &line);
                }
                3 => {
                    // Half the duplicates agree with the body, half do not.
                    let n = if byte % 2 == 0 { body.len() } else { at % 4096 };
                    insert_header(&mut input, format!("content-length: {n}\r\n").as_bytes());
                }
                _ => {
                    let i = at % (input.len() + 1);
                    input.insert(i, byte);
                }
            }
        }

        let mut rest: &[u8] = &input;
        let mut served = 0;
        // Every accepted request consumes at least its request line, so
        // this bound is never the reason the loop ends.
        for _ in 0..=input.len() {
            let before = rest;
            let outcome = read_request(&mut rest);
            let consumed = before.len() - rest.len();
            match outcome {
                Ok(req) => {
                    let head = head_len(before);
                    prop_assert!(head.is_some(), "accepted without a complete head");
                    let head = head.unwrap();
                    prop_assert_eq!(consumed, head + req.body.len());
                    prop_assert_eq!(&before[head..consumed], &req.body[..]);
                    // The framing was unambiguous: every length agrees.
                    for (name, value) in &req.headers {
                        if name == "content-length" {
                            prop_assert_eq!(value.parse::<usize>().ok(), Some(req.body.len()));
                        }
                    }
                    served += 1;
                }
                Err(ReadError::Eof) => {
                    prop_assert!(before.is_empty(), "Eof with {} bytes left", before.len());
                    break;
                }
                // A body that is refused is never read.
                Err(ReadError::LengthRequired) | Err(ReadError::PayloadTooLarge) => {
                    prop_assert_eq!(Some(consumed), head_len(before));
                    prop_assert!(!valid);
                    break;
                }
                Err(ReadError::BadRequest(_)) | Err(ReadError::Io(_)) => {
                    prop_assert!(!valid);
                    break;
                }
            }
        }
        if valid {
            prop_assert_eq!(served, if kind == 2 { 2 } else { 1 });
            prop_assert!(rest.is_empty());
        }
    }
}
