//! Minimal hand-rolled JSON emitter and reader (no serde — see DESIGN.md
//! §"Dependency policy").
//!
//! The workspace builds with the crates-io registry unreachable, so the
//! machine-readable benchmark output (`BENCH_milp.json`, `BENCH_corpus.json`)
//! and the serve wire format are produced by this ~100-line tree-of-values
//! writer instead of a serialization framework. It emits pretty-printed,
//! deterministic output: object keys appear in insertion order and floats
//! are formatted with a fixed number of decimals, so two runs with
//! identical counters produce byte-identical files. The matching
//! [`Json::parse`] reads such documents back (used by the serve transport
//! to decode requests); it is a strict subset parser for our own output,
//! not a general validator.
//!
//! [`Json::Float`] deliberately renders at three decimals (report files are
//! for humans and diffs, not for round-tripping doubles); a layer that
//! needs bit-exact `f64` transport — the serve wire codec — must encode the
//! bits itself (e.g. as a hex string of `f64::to_bits`).
//!
//! Since the serve TCP transport feeds this parser bytes that crossed a
//! real network, decoding is **bounded**: [`JsonLimits`] caps the document
//! size, the length of any single string and the nesting depth (the parser
//! recurses per nesting level, so the depth cap is what keeps an
//! adversarial `[[[[…` frame from overflowing the stack), and non-finite
//! numbers (`1e999` and friends — JSON has no NaN/Inf, so these can only
//! be smuggled) are rejected. Violations are typed [`JsonError`]s;
//! [`Json::parse`] applies the default limits, [`Json::parse_with`] takes
//! explicit ones.

use std::fmt;
use std::fmt::Write as _;

/// Bounds enforced while parsing (see [`Json::parse_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonLimits {
    /// Maximum document length in bytes.
    pub max_document: usize,
    /// Maximum decoded length of any single string (or object key), in
    /// bytes.
    pub max_string: usize,
    /// Maximum container nesting depth (a bare scalar is depth 0; each
    /// enclosing array or object adds one).
    pub max_depth: usize,
}

impl Default for JsonLimits {
    /// Generous defaults: 64 MiB documents (a full serve batch with per-job
    /// solver trajectories), 4 MiB strings, depth 64 (our documents nest
    /// fewer than 10 deep).
    fn default() -> Self {
        Self {
            max_document: 64 << 20,
            max_string: 4 << 20,
            max_depth: 64,
        }
    }
}

impl JsonLimits {
    /// The default limits.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the document length in bytes.
    #[must_use]
    pub fn with_max_document(mut self, bytes: usize) -> Self {
        self.max_document = bytes;
        self
    }

    /// Caps the decoded length of any single string, in bytes.
    #[must_use]
    pub fn with_max_string(mut self, bytes: usize) -> Self {
        self.max_string = bytes;
        self
    }

    /// Caps the container nesting depth.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }
}

/// Typed parse failures of [`Json::parse`] / [`Json::parse_with`].
///
/// The limit variants exist so a transport can tell resource-exhaustion
/// attacks (reject the peer) apart from plain syntax damage (retry the
/// frame); `From<JsonError> for String` keeps the older string-error
/// call sites working unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JsonError {
    /// The document exceeds [`JsonLimits::max_document`].
    DocumentTooLarge {
        /// Actual document length in bytes.
        size: usize,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A string exceeds [`JsonLimits::max_string`].
    StringTooLong {
        /// The limit that was exceeded.
        limit: usize,
        /// Byte offset where the string started.
        at: usize,
    },
    /// Nesting exceeds [`JsonLimits::max_depth`].
    TooDeep {
        /// The limit that was exceeded.
        limit: usize,
        /// Byte offset of the container that went one level too far.
        at: usize,
    },
    /// A number parsed to a non-finite `f64` (JSON cannot represent
    /// NaN/Inf, so accepting one would smuggle it past every consumer).
    NonFiniteNumber {
        /// Byte offset where the number started.
        at: usize,
    },
    /// Any other malformed input, with a byte offset and description.
    Syntax {
        /// Byte offset of the problem.
        at: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DocumentTooLarge { size, limit } => {
                write!(f, "document of {size} bytes exceeds the {limit}-byte limit")
            }
            Self::StringTooLong { limit, at } => {
                write!(f, "string at byte {at} exceeds the {limit}-byte limit")
            }
            Self::TooDeep { limit, at } => {
                write!(f, "nesting at byte {at} exceeds the depth limit {limit}")
            }
            Self::NonFiniteNumber { at } => {
                write!(f, "non-finite number at byte {at}")
            }
            Self::Syntax { at, message } => write!(f, "{message} at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(error: JsonError) -> Self {
        error.to_string()
    }
}

fn syntax(at: usize, message: impl Into<String>) -> JsonError {
    JsonError::Syntax {
        at,
        message: message.into(),
    }
}

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact — solver counters are `u64`).
    Int(i64),
    /// A float, emitted with three decimals (milliseconds, percentages).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Looks up a key of an object; `None` for non-objects/missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document (as produced by [`Json::render`]) under the
    /// default [`JsonLimits`].
    ///
    /// Numbers without `.`/`e` that fit an `i64` become [`Json::Int`];
    /// everything else numeric becomes [`Json::Float`]. Duplicate object
    /// keys keep their first occurrence.
    ///
    /// # Errors
    ///
    /// The first [`JsonError`] encountered: a syntax problem with its byte
    /// offset, or a violated limit.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Self::parse_with(input, &JsonLimits::default())
    }

    /// Parses a JSON document under explicit [`JsonLimits`] — the entry
    /// point for text that crossed a trust boundary (network frames).
    ///
    /// # Errors
    ///
    /// The first [`JsonError`] encountered: a syntax problem with its byte
    /// offset, or a violated limit.
    pub fn parse_with(input: &str, limits: &JsonLimits) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        if bytes.len() > limits.max_document {
            return Err(JsonError::DocumentTooLarge {
                size: bytes.len(),
                limit: limits.max_document,
            });
        }
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, limits, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(syntax(pos, "trailing garbage"));
        }
        Ok(value)
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                // JSON has no NaN/Inf; clamp to null like `JSON.stringify`.
                if f.is_finite() {
                    let _ = write!(out, "{f:.3}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(syntax(*pos, format!("expected `{}`", byte as char)))
    }
}

fn parse_value(
    bytes: &[u8],
    pos: &mut usize,
    limits: &JsonLimits,
    depth: usize,
) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(syntax(*pos, "unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos, limits).map(Json::Str),
        Some(b'[') => {
            if depth >= limits.max_depth {
                return Err(JsonError::TooDeep {
                    limit: limits.max_depth,
                    at: *pos,
                });
            }
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, limits, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(syntax(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            if depth >= limits.max_depth {
                return Err(JsonError::TooDeep {
                    limit: limits.max_depth,
                    at: *pos,
                });
            }
            *pos += 1;
            let mut fields: Vec<(String, Json)> = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos, limits)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, limits, depth + 1)?;
                if !fields.iter().any(|(k, _)| *k == key) {
                    fields.push((key, value));
                }
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(syntax(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
            if !text.contains(['.', 'e', 'E']) {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            }
            let value = text
                .parse::<f64>()
                .map_err(|_| syntax(start, format!("bad number `{text}`")))?;
            if !value.is_finite() {
                return Err(JsonError::NonFiniteNumber { at: start });
            }
            Ok(Json::Float(value))
        }
        Some(c) => Err(syntax(*pos, format!("unexpected byte `{}`", *c as char))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(syntax(*pos, "bad literal"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize, limits: &JsonLimits) -> Result<String, JsonError> {
    let start = *pos;
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let too_long = |at: usize| JsonError::StringTooLong {
        limit: limits.max_string,
        at,
    };
    loop {
        if out.len() > limits.max_string {
            return Err(too_long(start));
        }
        match bytes.get(*pos) {
            None => return Err(syntax(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| syntax(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| syntax(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| syntax(*pos, "bad \\u escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(syntax(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let s = &input_str(bytes)[*pos..];
                let c = s.chars().next().expect("in-bounds");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn input_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("parse input is a &str")
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-7).render(), "-7\n");
        assert_eq!(Json::Float(1.5).render(), "1.500\n");
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\"\n"
        );
    }

    #[test]
    fn objects_keep_insertion_order_and_indent() {
        let v = Json::obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(2), Json::Int(3)])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let expected = "{\n  \"b\": 1,\n  \"a\": [\n    2,\n    3\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(v.render(), expected);
    }

    #[test]
    fn parse_round_trips_rendered_output() {
        let v = Json::obj(vec![
            ("schema", Json::str("letdma-bench-milp/2")),
            ("n", Json::Int(-42)),
            ("f", Json::Float(1.5)),
            ("none", Json::Null),
            ("ok", Json::Bool(true)),
            (
                "arr",
                Json::Arr(vec![Json::Int(1), Json::str("a\"b\\c\nd")]),
            ),
            ("empty_obj", Json::obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn parse_number_forms() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("7.5").unwrap(), Json::Float(7.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn document_limit_rejects_oversized_input() {
        let limits = JsonLimits::new().with_max_document(8);
        assert_eq!(
            Json::parse_with("[1, 2, 3, 4]", &limits),
            Err(JsonError::DocumentTooLarge { size: 12, limit: 8 })
        );
        assert!(Json::parse_with("[1, 2]", &limits).is_ok());
    }

    #[test]
    fn string_limit_rejects_long_strings_and_keys() {
        let limits = JsonLimits::new().with_max_string(4);
        assert!(matches!(
            Json::parse_with("\"abcdefgh\"", &limits),
            Err(JsonError::StringTooLong { limit: 4, .. })
        ));
        assert!(matches!(
            Json::parse_with("{\"abcdefgh\": 1}", &limits),
            Err(JsonError::StringTooLong { limit: 4, .. })
        ));
        assert!(Json::parse_with("\"abcd\"", &limits).is_ok());
    }

    #[test]
    fn depth_limit_stops_deep_nesting_without_overflow() {
        // Far deeper than any thread stack survives at one frame per
        // level: the typed error is the proof the recursion was cut off.
        let deep = "[".repeat(200_000);
        assert!(matches!(Json::parse(&deep), Err(JsonError::TooDeep { .. })));
        let limits = JsonLimits::new().with_max_depth(2);
        assert!(Json::parse_with("[[1]]", &limits).is_ok());
        assert!(matches!(
            Json::parse_with("[[[1]]]", &limits),
            Err(JsonError::TooDeep { limit: 2, .. })
        ));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for smuggle in ["1e999", "-1e999", "NaN", "Infinity", "-Infinity"] {
            let parsed = Json::parse(smuggle);
            assert!(parsed.is_err(), "`{smuggle}` must not parse: {parsed:?}");
        }
        // `1e999` overflows to infinity specifically; pin the typed variant.
        assert!(matches!(
            Json::parse("1e999"),
            Err(JsonError::NonFiniteNumber { .. })
        ));
    }

    /// The malformed-frame corpus: seeded mutations of a well-formed
    /// document (truncations, deep nesting, oversized payloads, NaN
    /// smuggling, byte corruption) must all yield a typed error or a valid
    /// tree — never a panic, hang or stack overflow.
    #[test]
    fn malformed_frame_corpus_yields_typed_errors() {
        use crate::rng::Rng as _;

        let base = Json::obj(vec![
            ("protocol", Json::str("letdma-serve/1")),
            (
                "requests",
                Json::Arr(vec![Json::obj(vec![
                    ("deadline_ns", Json::Int(1_000_000)),
                    ("objective", Json::str("min-transfers")),
                    ("weight", Json::Float(0.25)),
                ])]),
            ),
        ])
        .render();
        let limits = JsonLimits::new()
            .with_max_document(base.len() * 4)
            .with_max_string(64)
            .with_max_depth(16);

        crate::Cases::new("json_malformed_frames", 256).run(|rng| {
            let (mutated, must_fail) = match rng.usize_below(4) {
                // Truncate at an arbitrary char boundary (a cut just
                // before the trailing newline still parses — only the
                // no-panic/typed-error half of the contract applies).
                0 => {
                    let mut cut = rng.usize_below(base.len());
                    while !base.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    (base[..cut].to_owned(), false)
                }
                // Nest deeper than the depth limit allows.
                1 => {
                    let depth = rng.usize_range(limits.max_depth + 1, 4 * limits.max_depth);
                    (format!("{}1{}", "[".repeat(depth), "]".repeat(depth)), true)
                }
                // Oversize: a document beyond max_document.
                2 => {
                    let n = rng.usize_range(limits.max_document, 2 * limits.max_document);
                    (format!("\"{}\"", "x".repeat(n)), true)
                }
                // Smuggle a non-finite number into a valid envelope.
                _ => (base.replace("0.250", "1e99999"), true),
            };
            match Json::parse_with(&mutated, &limits) {
                Ok(_) => assert!(!must_fail, "`{mutated}` must not parse"),
                // Rendering exercises the typed Display path.
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        });
    }

    #[test]
    fn get_finds_object_keys() {
        let v = Json::obj(vec![("x", Json::Int(4))]);
        assert_eq!(v.get("x"), Some(&Json::Int(4)));
        assert_eq!(v.get("y"), None);
        assert_eq!(Json::Int(4).get("x"), None);
    }
}
