//! The reader half of the workspace's JSON codec (the writer is
//! [`crate::json`]; no serde: the build must work with no registry
//! access).
//!
//! [`parse`] turns a complete document into a [`JsonValue`] tree. It
//! covers the whole JSON grammar but optimises for nothing: integers
//! stay exact as `u64`/`i64` where possible, duplicate object keys keep
//! the last value. Schema parsers read members through the typed
//! `req_*` / `opt_*` readers and one [`JsonValue::expect_schema`];
//! replay inputs load through [`load_doc`] / [`read_ndjson`], whose
//! two-armed [`LoadError`] is the CLI's exit-code contract in one place:
//! text that is not JSON is `Syntax` (exit 2, with line/column), valid
//! JSON of the wrong schema or shape is `Shape` (exit 1).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number that is a non-negative integer fitting `u64` (exact).
    UInt(u64),
    /// A negative integer fitting `i64` (exact).
    Int(i64),
    /// Any other number (fractional or out of integer range).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (key order normalised).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The boolean payload, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Check the `"schema"` member — the one place a version tag is
    /// compared.
    pub fn expect_schema(&self, want: &str) -> Result<(), String> {
        match self.get("schema").map(JsonValue::as_str) {
            Some(Some(s)) if s == want => Ok(()),
            Some(Some(s)) => Err(format!("unsupported schema {s:?} (want {want:?})")),
            _ => Err(format!("missing \"schema\" key: not a {want} document")),
        }
    }
}

fn missing(what: &str, key: &str) -> String {
    format!("{what} missing {key:?}")
}

/// Typed member readers: `opt_*` is `None` when the member is absent or
/// of another type; `req_*` turns that into `"<what> missing \"<key>\""`.
macro_rules! member_readers {
    ($($opt:ident $req:ident $conv:ident -> $t:ty;)*) => {
        impl JsonValue {$(
            #[doc = concat!("Member `key` through [`JsonValue::", stringify!($conv), "`].")]
            pub fn $opt(&self, key: &str) -> Option<$t> {
                self.get(key)?.$conv()
            }

            #[doc = concat!("[`JsonValue::", stringify!($opt), "`], or an error naming `what`.")]
            pub fn $req(&self, key: &str, what: &str) -> Result<$t, String> {
                self.$opt(key).ok_or_else(|| missing(what, key))
            }
        )*}
    };
}
member_readers! {
    opt_u64 req_u64 as_u64 -> u64;
    opt_f64 req_f64 as_f64 -> f64;
    opt_bool req_bool as_bool -> bool;
    opt_str req_str as_str -> &str;
    opt_arr req_arr as_arr -> &[JsonValue];
    opt_obj req_obj as_obj -> &BTreeMap<String, JsonValue>;
}

/// Why a replay input could not be loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The text is not JSON; the message ends in the parser's
    /// `at line L, column C` position.
    Syntax(String),
    /// Valid JSON, but not the expected schema or shape.
    Shape(String),
}

impl LoadError {
    /// Prefix the message with `"<context>: "` (a path, a line number).
    pub fn context(self, context: impl std::fmt::Display) -> LoadError {
        match self {
            LoadError::Syntax(m) => LoadError::Syntax(format!("{context}: {m}")),
            LoadError::Shape(m) => LoadError::Shape(format!("{context}: {m}")),
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Syntax(m) | LoadError::Shape(m) => f.write_str(m),
        }
    }
}

/// Parse `text` and hand the document to `shape`, keeping the two
/// failure classes apart.
pub fn load_doc<T>(
    text: &str,
    shape: impl FnOnce(&JsonValue) -> Result<T, String>,
) -> Result<T, LoadError> {
    let doc = parse(text).map_err(LoadError::Syntax)?;
    shape(&doc).map_err(LoadError::Shape)
}

/// Load an NDJSON stream: one [`load_doc`] per non-blank line, errors
/// prefixed with the 1-based line number.
pub fn read_ndjson<T>(
    text: &str,
    from_json: impl Fn(&JsonValue) -> Result<T, String>,
) -> Result<Vec<T>, LoadError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            let item = load_doc(line, &from_json);
            out.push(item.map_err(|e| e.context(format_args!("line {}", i + 1)))?);
        }
    }
    Ok(out)
}

/// Resource limits applied while parsing untrusted input.
///
/// The parser recurses once per nesting level, so an adversarial
/// document like `"[".repeat(1 << 20)` would otherwise overflow the
/// stack; `max_depth` turns that into a structured [`JsonError`]. The
/// byte cap rejects oversized bodies before any work is done.
#[derive(Clone, Copy, Debug)]
pub struct JsonLimits {
    /// Maximum input size in bytes (inputs longer than this are
    /// rejected up front).
    pub max_bytes: usize,
    /// Maximum nesting depth of arrays/objects.
    pub max_depth: usize,
}

impl Default for JsonLimits {
    /// Generous defaults safe for every document this workspace emits:
    /// 64 MiB, 128 levels (profile/trace/analysis documents nest < 8).
    fn default() -> JsonLimits {
        JsonLimits {
            max_bytes: 64 << 20,
            max_depth: 128,
        }
    }
}

/// What went wrong while parsing, as a machine-checkable class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input violates the JSON grammar.
    Syntax,
    /// Nesting exceeded [`JsonLimits::max_depth`].
    TooDeep,
    /// The input exceeded [`JsonLimits::max_bytes`].
    TooLarge,
}

/// A structured parse failure: the error class plus the 1-based
/// position the parser stopped at. [`std::fmt::Display`] renders the
/// historical `"<msg> at line L, column C"` format the CLI's exit-2
/// diagnostics rely on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// The error class.
    pub kind: JsonErrorKind,
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (byte within the line) of the offending byte.
    pub column: usize,
    /// Human-readable description (no position suffix).
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at line {}, column {}",
            self.message, self.line, self.column
        )
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing garbage is an error) with
/// the default [`JsonLimits`].
///
/// Errors carry a 1-based `line L, column C` position so a replay tool
/// can point at the offending spot in a multi-line document (the CLI's
/// exit-2 diagnostics depend on this format).
pub fn parse(input: &str) -> Result<JsonValue, String> {
    parse_with_limits(input, &JsonLimits::default()).map_err(|e| e.to_string())
}

/// [`parse`] with explicit resource limits and a structured error —
/// the entry point for network-supplied bodies, where the caller needs
/// to distinguish "too big" / "too deep" from plain syntax errors and
/// must never risk a stack overflow.
pub fn parse_with_limits(input: &str, limits: &JsonLimits) -> Result<JsonValue, JsonError> {
    if input.len() > limits.max_bytes {
        return Err(JsonError {
            kind: JsonErrorKind::TooLarge,
            line: 1,
            column: 1,
            message: format!(
                "input of {} bytes exceeds the {}-byte limit",
                input.len(),
                limits.max_bytes
            ),
        });
    }
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        max_depth: limits.max_depth,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl Parser<'_> {
    /// 1-based (line, column) of the current position. Columns count
    /// bytes, which matches how editors address ASCII JSON documents.
    fn line_col(&self) -> (usize, usize) {
        let upto = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let col = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        (line, col)
    }

    /// A [`JsonErrorKind::Syntax`] error at the current position.
    fn err(&self, msg: impl std::fmt::Display) -> JsonError {
        self.err_kind(JsonErrorKind::Syntax, msg)
    }

    /// An error of `kind` at the current position.
    fn err_kind(&self, kind: JsonErrorKind, msg: impl std::fmt::Display) -> JsonError {
        let (line, column) = self.line_col();
        JsonError {
            kind,
            line,
            column,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {:?}",
                c as char,
                self.bytes.get(self.pos).map(|&b| b as char)
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(self.err(format!("unexpected {:?}", other.map(|&b| b as char)))),
        }
    }

    /// Bump the nesting depth on entering an array/object, failing with
    /// a structured [`JsonErrorKind::TooDeep`] instead of recursing into
    /// a stack overflow on hostile input.
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(self.err_kind(
                JsonErrorKind::TooDeep,
                format!("nesting exceeds {} levels", self.max_depth),
            ));
        }
        Ok(())
    }

    /// `open item (',' item)* close`, or `open close`.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.descend()?;
        self.expect(open)?;
        self.skip_ws();
        if self.bytes.get(self.pos) != Some(&close) {
            loop {
                item(self)?;
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(&c) if c == close => break,
                    other => {
                        return Err(self.err(format!(
                            "expected ',' or '{}', found {:?}",
                            close as char,
                            other.map(|&b| b as char)
                        )))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        let mut map = BTreeMap::new();
        self.sequence(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Obj(map))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Arr(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| self.err(e))?,
                                16,
                            )
                            .map_err(|e| self.err(e))?;
                            // Surrogates map to the replacement character;
                            // profile/trace documents never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(
                                self.err(format!("bad escape {:?}", other.map(|&b| b as char)))
                            )
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point (input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| self.err(e))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            fractional = true;
            self.pos += 1;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| self.err(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse("-3").unwrap(), JsonValue::Int(-3));
        assert_eq!(parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse("2e3").unwrap(), JsonValue::Float(2000.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::Str("a\n\"bA".into())
        );
    }

    #[test]
    fn large_u64_counters_stay_exact() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"x"},[]],"c":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert!(v.get("c").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn round_trips_own_profile_schema() {
        let mut snap = crate::Snapshot::default();
        snap.counters.insert("halo/bytes".into(), 12345);
        let mut stat = crate::snapshot::SpanStat::new();
        stat.record(100);
        snap.timers.insert("partition/coarsen".into(), stat);
        let doc = parse(&snap.to_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(crate::SCHEMA));
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("halo/bytes")
                .unwrap()
                .as_u64(),
            Some(12345)
        );
        assert_eq!(
            doc.get("timers")
                .unwrap()
                .get("partition/coarsen")
                .unwrap()
                .get("total_ns")
                .unwrap()
                .as_u64(),
            Some(100)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        // The comma is missing on line 2, column 10 (the second key's
        // opening quote).
        let err = parse("{\n  \"a\": 1 \"b\": 2\n}").unwrap_err();
        assert!(err.contains("line 2, column 10"), "{err}");
        // Truncation points past the last byte of the last line.
        let err = parse("{\"a\":\n[1,").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // Single-line documents report line 1.
        let err = parse("tru").unwrap_err();
        assert!(err.contains("line 1, column 1"), "{err}");
    }

    #[test]
    fn unicode_strings_survive() {
        assert_eq!(parse("\"héllo ✓\"").unwrap().as_str(), Some("héllo ✓"));
    }

    #[test]
    fn hostile_deep_nesting_is_a_structured_error_not_a_stack_overflow() {
        // A megabyte of '[' would blow the stack in a depth-unlimited
        // recursive parser; with the default limits it must return a
        // TooDeep error (and `parse`'s String form must carry the same
        // line/column suffix as every other diagnostic).
        for doc in ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 18)] {
            let err = parse_with_limits(&doc, &JsonLimits::default()).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::TooDeep);
            assert_eq!(err.line, 1);
            assert!(err.to_string().contains("at line 1, column"), "{err}");
            assert!(parse(&doc).is_err());
        }
    }

    #[test]
    fn documents_within_the_depth_limit_still_parse() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep).is_ok());
        let at_limit = format!("{}1{}", "[".repeat(8), "]".repeat(8));
        let limits = JsonLimits {
            max_depth: 8,
            ..JsonLimits::default()
        };
        assert!(parse_with_limits(&at_limit, &limits).is_ok());
        let over = format!("{}1{}", "[".repeat(9), "]".repeat(9));
        assert_eq!(
            parse_with_limits(&over, &limits).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
    }

    #[test]
    fn oversized_input_is_rejected_up_front() {
        let limits = JsonLimits {
            max_bytes: 16,
            ..JsonLimits::default()
        };
        let err = parse_with_limits(&format!("\"{}\"", "x".repeat(64)), &limits).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooLarge);
        assert!(err.to_string().contains("exceeds the 16-byte limit"));
        // At the cap exactly is fine.
        assert!(parse_with_limits("\"xxxxxxxxxxxxxx\"", &limits).is_ok());
    }

    #[test]
    fn syntax_errors_keep_the_structured_kind_and_position() {
        let err = parse_with_limits("{\n  \"a\" 1}", &JsonLimits::default()).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::Syntax);
        assert_eq!(err.line, 2);
    }
}
