//! The workspace's JSON writer: one streaming emitter behind every
//! `cubesfc-*-v1` wire schema (no serde: the build must work with no
//! registry access). The reader half of the codec is [`crate::value`].
//!
//! [`JsonWriter`] appends straight into a `String` — no intermediate
//! tree — and owns the three things every hand-rolled emitter used to
//! re-implement: string escaping, comma bookkeeping, and the one `f64`
//! format (shortest round-trip via `Display`, `null` for NaN/±inf, which
//! readers map back to NaN). Integers print exactly; object members are
//! emitted in the order the schema's code writes them, so output is
//! byte-stable for a given value.
//!
//! Two layouts exist, chosen by each schema's code (never by the user):
//!
//! * [`Layout::Compact`] — no whitespace at all. Used by the profile,
//!   trace, telemetry, access, analysis, serve and serve-bench schemas.
//! * [`Layout::Document`] — the hand-readable style shared by the
//!   rebalance, chaos and checkpoint documents: each member of the
//!   top-level object on its own two-space-indented line, `": "` after
//!   keys, nested values inline with `", "` separators, except that
//!   objects listed directly in a top-level array get one line each;
//!   the document ends with a newline.

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

/// A value [`JsonWriter`] can emit as one JSON token.
pub trait JsonScalar {
    /// Append the token to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! integer_scalars {
    ($($t:ty)*) => {$(
        impl JsonScalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_scalars!(u16 u32 u64 usize);

impl JsonScalar for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            // JSON has no NaN/inf; readers map null back to NaN.
            out.push_str("null");
        }
    }
}

impl JsonScalar for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
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

/// One open container.
struct Frame {
    /// Elements (array) or members (object) written so far.
    len: usize,
    /// A `Document` array whose objects each took their own line.
    rows: bool,
}

/// A streaming JSON emitter. Containers are opened and closed
/// explicitly; the writer inserts every separator.
pub struct JsonWriter {
    out: String,
    layout: Layout,
    /// Nesting depth the root value is treated as sitting at: 0 for a
    /// document, 2 for a [`JsonWriter::fragment`].
    base: usize,
    stack: Vec<Frame>,
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
            base: 0,
            stack: Vec::with_capacity(8),
            after_key: false,
        }
    }

    /// A writer for one value laid out as it appears *nested inside* a
    /// `layout` document (a row of a `Document` array, say) rather than
    /// as a document of its own.
    pub fn fragment(layout: Layout) -> JsonWriter {
        JsonWriter {
            base: 2,
            ..JsonWriter::new(layout)
        }
    }

    fn depth(&self) -> usize {
        self.base + self.stack.len()
    }

    /// Write whatever separates the next value from what precedes it.
    fn separate(&mut self, opens_object: bool) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.depth();
        let Some(frame) = self.stack.last_mut() else {
            return;
        };
        let first = frame.len == 0;
        frame.len += 1;
        let sep = match self.layout {
            Layout::Compact => ["", ","],
            Layout::Document if depth == 1 => ["\n  ", ",\n  "],
            Layout::Document if depth == 2 && opens_object => {
                frame.rows = true;
                ["\n    ", ",\n    "]
            }
            Layout::Document => ["", ", "],
        };
        self.out.push_str(sep[usize::from(!first)]);
    }

    fn open(&mut self, bracket: char, is_object: bool) -> &mut Self {
        self.separate(is_object);
        self.out.push(bracket);
        self.stack.push(Frame {
            len: 0,
            rows: false,
        });
        self
    }

    /// Open an object (as the root, an array element, or after a key).
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{', true)
    }

    /// Close the innermost open object.
    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop().expect("end_object without begin_object");
        let block_root = self.layout == Layout::Document && self.depth() == 0;
        self.out.push_str(if block_root { "\n}\n" } else { "}" });
        self
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[', false)
    }

    /// Close the innermost open array.
    pub fn end_array(&mut self) -> &mut Self {
        let frame = self.stack.pop().expect("end_array without begin_array");
        self.out.push_str(if frame.rows { "\n  ]" } else { "]" });
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
        debug_assert!(self.stack.is_empty() && !self.after_key);
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

    #[test]
    fn fragments_are_laid_out_as_nested_values() {
        let mut w = JsonWriter::fragment(Layout::Document);
        w.begin_object()
            .field("a", 1u64)
            .field("b", 0.5)
            .end_object();
        assert_eq!(w.finish(), "{\"a\": 1, \"b\": 0.5}");
    }
}
