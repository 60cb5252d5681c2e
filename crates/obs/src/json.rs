//! The workspace's JSON writer: one streaming emitter behind every
//! `cubesfc-*-v1` wire schema (no serde: the build must work with no
//! registry access). The reader half of the codec is [`crate::value`].
//!
//! [`JsonWriter`] appends straight into a `String` — no intermediate
//! tree — and owns what every hand-rolled emitter used to re-implement:
//! string escaping, separators, and the one `f64` format. Members come
//! out in the order the schema's code writes them, so output is
//! byte-stable for a given value. The two layouts are chosen by each
//! schema's code, never by the user:
//!
//! * [`Layout::Compact`] — no whitespace (profile, trace,
//!   access, analysis, serve).
//! * [`Layout::Document`] — rebalance: one top-level member per
//!   two-space-indented line, `": "` after keys, nested
//!   values inline with `", "`, except that objects listed directly in
//!   a top-level array take one line each; a final newline.

use std::fmt::Write as _;

/// Append `s` to `out`, escaped for use inside a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escape a string for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// A value [`JsonWriter`] can emit as one JSON token; by default, its
/// `Display` form (exact for integers and booleans).
pub trait JsonScalar: std::fmt::Display {
    /// Append the token to `out`.
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl JsonScalar for u16 {}
impl JsonScalar for u32 {}
impl JsonScalar for u64 {}
impl JsonScalar for usize {}
impl JsonScalar for bool {}

/// The one `f64` format: shortest round-trip, `null` for NaN/±inf
/// (JSON has neither; readers map null back to NaN).
impl JsonScalar for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl JsonScalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl JsonScalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// How a [`JsonWriter`] lays a document out (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// No whitespace.
    Compact,
    /// One top-level member per line, spaced separators, final newline.
    Document,
}

/// A streaming JSON emitter. Containers are opened and closed
/// explicitly; the writer inserts every separator.
pub struct JsonWriter {
    out: String,
    layout: Layout,
    /// Open containers.
    depth: usize,
    /// A key was just written: the next value needs no separator.
    after_key: bool,
}

impl JsonWriter {
    /// A writer for one whole document.
    pub fn new(layout: Layout) -> JsonWriter {
        JsonWriter::with_capacity(layout, 256)
    }

    /// [`JsonWriter::new`] with the output buffer pre-sized to `bytes`.
    pub fn with_capacity(layout: Layout, bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            layout,
            depth: 0,
            after_key: false,
        }
    }

    /// Write whatever separates the next value from what precedes it.
    /// No token ends in an opening bracket, so the text ending in one
    /// means the innermost container is still empty.
    fn separate(&mut self, opens_object: bool) {
        if std::mem::take(&mut self.after_key) || self.out.is_empty() {
            return;
        }
        let sep = match (self.layout, self.depth) {
            (Layout::Compact, _) => ["", ","],
            (Layout::Document, 1) => ["\n  ", ",\n  "],
            (Layout::Document, 2) if opens_object => ["\n    ", ",\n    "],
            (Layout::Document, _) => ["", ", "],
        };
        let first = self.out.ends_with(['{', '[']);
        self.out.push_str(sep[usize::from(!first)]);
    }

    /// Open an object (as the root, an array element, or after a key).
    pub fn begin_object(&mut self) -> &mut Self {
        self.separate(true);
        self.out.push('{');
        self.depth += 1;
        self
    }

    /// Close the innermost open object.
    pub fn end_object(&mut self) -> &mut Self {
        self.depth -= 1;
        let block_root = self.layout == Layout::Document && self.depth == 0;
        self.out.push_str(if block_root { "\n}\n" } else { "}" });
        self
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.separate(false);
        self.out.push('[');
        self.depth += 1;
        self
    }

    /// Close the innermost open array (on a new line after rows).
    pub fn end_array(&mut self) -> &mut Self {
        self.depth -= 1;
        let rows = self.layout == Layout::Document && self.depth == 1 && self.out.ends_with('}');
        self.out.push_str(if rows { "\n  ]" } else { "]" });
        self
    }

    /// Write an object key; exactly one value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate(false);
        key.write_json(&mut self.out);
        self.out.push_str(match self.layout {
            Layout::Compact => ":",
            Layout::Document => ": ",
        });
        self.after_key = true;
        self
    }

    /// Write one scalar value.
    pub fn value(&mut self, v: impl JsonScalar) -> &mut Self {
        self.separate(false);
        v.write_json(&mut self.out);
        self
    }

    /// Write a pre-formatted number token (the trace's fixed-point
    /// microsecond timestamps, which `f64` formatting cannot produce).
    pub fn number(&mut self, token: impl std::fmt::Display) -> &mut Self {
        self.separate(false);
        let _ = write!(self.out, "{token}");
        self
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Self {
        self.separate(false);
        self.out.push_str("null");
        self
    }

    /// `key` followed by one scalar value.
    pub fn field(&mut self, key: &str, v: impl JsonScalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// `key` followed by an array of scalars.
    pub fn array<T: JsonScalar>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.key(key).begin_array();
        for item in items {
            self.value(item);
        }
        self.end_array()
    }

    /// `key` followed by an object of scalar members.
    pub fn map<K: AsRef<str>, T: JsonScalar>(
        &mut self,
        key: &str,
        members: impl IntoIterator<Item = (K, T)>,
    ) -> &mut Self {
        self.key(key).begin_object();
        for (k, v) in members {
            self.field(k.as_ref(), v);
        }
        self.end_object()
    }

    /// Take the finished text. Every container must have been closed.
    pub fn finish(&mut self) -> String {
        debug_assert!(!self.after_key);
        std::mem::take(&mut self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse;

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn compact_layout_has_no_whitespace() {
        let mut w = JsonWriter::new(Layout::Compact);
        w.begin_object().field("a", 1u64).field("s", "x\"y");
        w.array("xs", [1.5, f64::NAN, -0.0]);
        w.map("m", [("k", true), ("l", false)]);
        w.key("rows").begin_array();
        w.begin_object().field("i", 0usize).end_object();
        w.begin_object().end_object();
        w.end_array();
        w.key("ts").number(format_args!("{}.{:03}", 12, 5));
        w.key("none").null().end_object();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"a\":1,\"s\":\"x\\\"y\",\"xs\":[1.5,null,-0],\"m\":{\"k\":true,\"l\":false},\
             \"rows\":[{\"i\":0},{}],\"ts\":12.005,\"none\":null}"
        );
        parse(&text).unwrap();
    }

    #[test]
    fn document_layout_breaks_top_level_members_and_rows() {
        let mut w = JsonWriter::new(Layout::Document);
        w.begin_object().field("schema", "s").field("n", 2u32);
        w.array("flat", [1u64, 2, 3]);
        w.array("none", [0u64; 0]);
        w.key("rows").begin_array();
        for i in 0..2u64 {
            w.begin_object().field("i", i);
            w.array("xs", [i, i]).end_object();
        }
        w.end_array();
        w.key("empty_rows").begin_array().end_array();
        w.field("last", false).end_object();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"schema\": \"s\",\n  \"n\": 2,\n  \"flat\": [1, 2, 3],\n  \"none\": [],\n  \
             \"rows\": [\n    {\"i\": 0, \"xs\": [0, 0]},\n    {\"i\": 1, \"xs\": [1, 1]}\n  ],\n  \
             \"empty_rows\": [],\n  \"last\": false\n}\n"
        );
        parse(&text).unwrap();
    }
}
