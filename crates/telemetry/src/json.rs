//! The crate's one JSON reader, plus the two writer helpers the
//! exporters share.
//!
//! The exporters hand-roll their JSON (the workspace takes no external
//! crates), and four consumers read it back: `Report::from_jsonl`,
//! `Report::from_report_json`, the validators the CLI, the test suite and
//! CI use to check that an export actually parses, and the figure loader
//! in `cable-bench`. All four go through [`parse`], a strict RFC 8259
//! recursive-descent parser:
//!
//! - **strict** — it accepts exactly well-formed JSON text (no leading
//!   zeros, no bare `1.`/`1e`, no raw control bytes in strings) and
//!   reports the byte offset of the first violation;
//! - **zero-copy** — the input is a `&str`, so a string without escapes
//!   is returned as one borrowed slice, found by a byte scan that stops
//!   only at `"`, `\` or a control byte; only strings with escapes
//!   allocate;
//! - **depth-limited** — objects and arrays nest at most `MAX_DEPTH`
//!   (128) deep; deeper input is an error, so hostile input can never
//!   recurse the parser into a stack overflow;
//! - **cheap per line** — members and items collect on two stacks the
//!   parser keeps, so a finished object or array is one exactly-sized
//!   allocation; [`for_each_line`] reuses one parser for every line of a
//!   JSONL text, and with it each line's top-level member list; integers
//!   accumulate while their digits are scanned.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest nesting of objects and arrays [`parse`] accepts.
pub(crate) const MAX_DEPTH: usize = 128;

/// A parsed JSON value borrowing its strings from the input text.
///
/// The tag takes a whole word, so the parser moves values as aligned
/// words; with a byte tag, every move split around it and stalled the
/// loads that read it back.
#[derive(Clone, Debug, PartialEq)]
#[repr(u64)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer that fits in `u64`.
    Int(u64),
    /// Every other number (negative, fractional, exponent, or too large).
    Float(f64),
    /// A string, borrowed from the input unless it held escapes.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// Members in input order, duplicates kept.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl Value<'_> {
    /// First value under `key` (exported event lines can legally repeat
    /// a key — e.g. marker events carry their own `"name"` argument —
    /// and the schema field always comes first).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Self> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer; non-negative floats truncate.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(f) if *f >= 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    pub(crate) fn as_u64_array(&self) -> Option<Vec<u64>> {
        match self {
            Value::Arr(items) => items.iter().map(Value::as_u64).collect(),
            _ => None,
        }
    }
}

/// Parses `s` as one JSON value (with optional surrounding whitespace).
///
/// # Errors
///
/// Returns a message naming the byte offset and nature of the first
/// syntax violation, or of the first object or array nested more than
/// 128 deep.
pub fn parse(s: &str) -> Result<Value<'_>, String> {
    Parser::default().parse(s)
}

/// Parses every non-blank line of `s` as one JSON value and hands `f`
/// the 1-based line number with the result, stopping at the first error
/// `f` returns. One parser serves all lines: its stacks are allocated
/// once per text, and each line's top-level object hands its member list
/// back for the next line once `f` is done with it.
///
/// # Errors
///
/// Returns the first error `f` returns.
pub(crate) fn for_each_line<'a>(
    s: &'a str,
    mut f: impl FnMut(usize, Result<&Value<'a>, String>) -> Result<(), String>,
) -> Result<(), String> {
    let mut parser = Parser::default();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parser.parse(line) {
            Ok(value) => {
                f(i + 1, Ok(&value))?;
                if let Value::Obj(mut members) = value {
                    members.clear();
                    parser.spare = members;
                }
            }
            Err(e) => f(i + 1, Err(e))?,
        }
    }
    Ok(())
}

/// Validates that `s` is one well-formed JSON value (with optional
/// surrounding whitespace): it parses.
///
/// # Errors
///
/// Returns a message naming the byte offset and nature of the first
/// syntax violation, or of the first object or array nested more than
/// 128 deep.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// Validates that every non-empty line of `s` is a well-formed JSON
/// value (the JSONL framing the exporter emits).
///
/// # Errors
///
/// Returns the first offending line number (1-based) and the underlying
/// syntax error.
pub fn validate_jsonl(s: &str) -> Result<(), String> {
    for_each_line(s, |lineno, parsed| {
        parsed.map(drop).map_err(|e| format!("line {lineno}: {e}"))
    })
}

#[derive(Default)]
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays currently open.
    depth: usize,
    /// Members of the open objects, innermost last.
    members: Vec<(Cow<'a, str>, Value<'a>)>,
    /// An empty member list to take over as the stack when a top-level
    /// object claims the current one (see [`for_each_line`]).
    spare: Vec<(Cow<'a, str>, Value<'a>)>,
    /// Items of the open arrays, innermost last.
    items: Vec<Value<'a>>,
}

impl<'a> Parser<'a> {
    /// Parses `s` as one JSON value, reusing this parser's stacks.
    fn parse(&mut self, s: &'a str) -> Result<Value<'a>, String> {
        self.text = s;
        self.bytes = s.as_bytes();
        self.pos = 0;
        self.depth = 0;
        // An earlier error can leave an open value's entries behind.
        self.members.clear();
        self.items.clear();
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    /// Runs `body` one nesting level deeper, refusing to open a level
    /// past [`MAX_DEPTH`] (so recursion is bounded by the limit, not by
    /// the input).
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Value<'a>, String>,
    ) -> Result<Value<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1; // consume '{' or '['
        let v = body(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<Value<'a>, String> {
        let mark = self.members.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(Vec::new()));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            // Strings and numbers, most members, skip the dispatch.
            let value = match self.peek() {
                Some(b'"') => Value::Str(self.string()?),
                Some(b'-' | b'0'..=b'9') => self.number()?,
                _ => self.value()?,
            };
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    if self.depth == 1 {
                        // The top-level object owns the whole stack: take
                        // it as is and continue on the spare list.
                        let spare = std::mem::take(&mut self.spare);
                        return Ok(Value::Obj(std::mem::replace(&mut self.members, spare)));
                    }
                    return Ok(Value::Obj(self.members.drain(mark..).collect()));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value<'a>, String> {
        let mark = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(Vec::new()));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(self.items.drain(mark..).collect()));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Advances over plain string bytes (anything but `"`, `\` and
    /// control bytes) and returns where the run started. The run ends on
    /// an ASCII byte, so slicing the `&str` input there is always on a
    /// char boundary: the run needs no UTF-8 check of its own.
    fn plain_run(&mut self) -> usize {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        start
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1; // consume opening quote
        let start = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(format!("unescaped control byte in string at {}", self.pos)),
                None => return Err("unterminated string".to_string()),
            }
            let run = self.plain_run();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Decodes one escape (the `\` already consumed) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                // A high surrogate followed by an escaped low surrogate
                // is one astral char; a lone surrogate is U+FFFD.
                let code = if (0xd800..0xdc00).contains(&hi)
                    && self.bytes[self.pos..].starts_with(b"\\u")
                {
                    let save = self.pos;
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xdc00..0xe000).contains(&lo) {
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        self.pos = save;
                        hi
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                return Ok(());
            }
            _ => return Err(format!("invalid escape at byte {}", self.pos)),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|h| char::from(h).to_digit(16))
                .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn literal(&mut self, word: &str, v: Value<'a>) -> Result<Value<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The integer part, accumulated while it is scanned; `None` once
        // it overflows `u64`.
        let mut int = Some(0u64);
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    int = int.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
                    self.pos += 1;
                }
            }
            _ => return Err(format!("invalid number at byte {start}")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("invalid fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("invalid exponent at byte {}", self.pos));
            }
        }
        // Exactly the numbers `str::parse::<u64>` accepts are `Int`: the
        // non-negative integers that fit. Everything else (negative,
        // fractional, exponent, overflowed) is a `Float`.
        if let (true, false, Some(v)) = (integral, negative, int) {
            return Ok(Value::Int(v));
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders `values` as a JSON array of integers.
pub(crate) fn int_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn accepts_well_formed_values() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            "\"a\\nb\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            "  [1, 2]  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "01",
            "-01",
            "1.",
            "1e",
            "1e+",
            "-",
            "\"unterminated",
            "\"raw \u{1} control\"",
            "\"raw\ttab\"",
            "\"bad \\x escape\"",
            "\"short \\u12\"",
            "\"sign \\u+123\"",
            "truex",
            "nul",
            "[1] [2]",
            "{\"a\":1,}",
            "{1:2}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn jsonl_checks_each_line() {
        validate_jsonl("{\"a\":1}\n[2]\n\ntrue\n").expect("valid lines");
        let err = validate_jsonl("{\"a\":1}\n{bad}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn escape_round_trips_through_validation() {
        let s = "quote \" slash \\ newline \n bell \u{7}";
        let quoted = format!("\"{}\"", escape(s));
        let v = parse(&quoted).expect("escaped string parses");
        assert_eq!(v.as_str(), Some(s));
    }

    #[test]
    fn escapes_decode_and_only_they_allocate() {
        let v = parse(r#""q\" b\\ s\/ n\n e\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ n\n e\u{e9}"));
        assert!(matches!(v, Value::Str(Cow::Owned(_))));
        let v = parse(r#""\b\f\r\t\ud83d\ude00 lone \ud800!""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{8}\u{c}\r\t\u{1f600} lone \u{fffd}!"));
        // Raw multi-byte UTF-8 needs no escape and stays borrowed.
        let v = parse("\"日本 é \u{1f600}\"").unwrap();
        assert_eq!(v.as_str(), Some("日本 é \u{1f600}"));
        assert!(matches!(v, Value::Str(Cow::Borrowed(_))));
        let v = parse("{\"plain\":\"x\"}").unwrap();
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        assert!(matches!(pairs[0].0, Cow::Borrowed("plain")));
    }

    #[test]
    fn numbers_split_into_unsigned_ints_and_floats() {
        assert_eq!(parse("0").unwrap(), Value::Int(0));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::Int(u64::MAX));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::Float(18_446_744_073_709_551_616.0)
        );
        assert_eq!(parse("-1.5e2").unwrap(), Value::Float(-150.0));
        assert_eq!(parse("2.9").unwrap().as_u64(), Some(2));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(
            parse("[1,2e0,3]").unwrap().as_u64_array(),
            Some(vec![1, 2, 3])
        );
    }

    #[test]
    fn parser_handles_schema_lines() {
        let v = parse(
            "{\"type\":\"event\",\"name\":\"marker\",\"track\":\"marker\",\"now_ps\":5,\"seq\":0,\"name\":\"m\",\"value\":2}",
        )
        .unwrap();
        // First-wins lookup: the schema's event name, not the marker arg.
        assert_eq!(v.get("name").and_then(Value::as_str), Some("marker"));
        assert_eq!(v.get("now_ps").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("absent"), None);
        let v = parse("{\"a\":[1,2,3],\"b\":-1.5e2,\"c\":null,\"d\":true}").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_u64_array),
            Some(vec![1, 2, 3])
        );
        assert_eq!(v.get("b"), Some(&Value::Float(-150.0)));
        assert_eq!(v.get("a").and_then(|a| a.get("name")), None);
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_limited_without_recursing_past_the_limit() {
        validate_json(&nested(MAX_DEPTH)).expect("nesting at the limit parses");
        let err = validate_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        validate_json(&objects).expect("object nesting at the limit parses");
        let objects = format!("[{objects}]");
        assert!(validate_json(&objects).is_err());
        // Far past the limit: an error, not a stack overflow.
        let err = validate_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 at byte 128"), "{err}");
        let err = validate_jsonl(&format!("[]\n{}", "[".repeat(200_000))).unwrap_err();
        assert!(err.starts_with("line 2: nesting deeper"), "{err}");
    }

    #[test]
    fn int_arrays_render_as_json() {
        assert_eq!(int_array(&[]), "[]");
        assert_eq!(int_array(&[1, 20, 300]), "[1,20,300]");
        assert_eq!(
            parse(&int_array(&[7, 8])).unwrap().as_u64_array(),
            Some(vec![7, 8])
        );
    }

    /// Arbitrary chars, weighted towards the ones `escape` rewrites.
    fn arb_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            (0u32..4).prop_map(|i| ['"', '\\', '/', 'u'][i as usize]),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    /// `text` must parse exactly as `str::parse` splits it: an `Int` when
    /// it parses as a `u64`, otherwise a `Float` with identical bits.
    fn assert_number_split(text: &str) {
        let expected = match text.parse::<u64>() {
            Ok(v) => Value::Int(v),
            Err(_) => Value::Float(text.parse::<f64>().expect("a JSON number is an f64")),
        };
        for wrapped in [
            text.to_string(),
            format!("[{text}]"),
            format!("{{\"n\":{text}}}"),
        ] {
            let got = parse(&wrapped).unwrap_or_else(|e| panic!("{wrapped:?}: {e}"));
            let got = match got {
                Value::Arr(mut items) => items.remove(0),
                Value::Obj(mut pairs) => pairs.remove(0).1,
                v => v,
            };
            match (&got, &expected) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{wrapped:?}");
                }
                _ => assert_eq!(got, expected, "{wrapped:?}"),
            }
        }
    }

    #[test]
    fn integers_around_u64_max_split_like_str_parse() {
        for text in [
            "0",
            "-0",
            "1",
            "-1",
            "9999999999999999999",
            "10000000000000000000",
            "18446744073709551614",
            "18446744073709551615",
            "18446744073709551616",
            "18446744073709551620",
            "99999999999999999999",
            "100000000000000000000",
            "184467440737095516150",
        ] {
            assert_number_split(text);
        }
        assert_eq!(parse("-0").unwrap(), Value::Float(-0.0));
        assert!(parse("-0").unwrap().as_u64().is_some_and(|v| v == 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn digit_strings_split_like_str_parse(
            digits in proptest::collection::vec(0u8..10, 1..=21),
            negative in any::<bool>(),
        ) {
            let digits: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
            let text = format!("{}{digits}", if negative { "-" } else { "" });
            if digits.len() > 1 && digits.starts_with('0') {
                prop_assert!(parse(&text).is_err(), "leading zero accepted: {}", text);
            } else {
                assert_number_split(&text);
            }
        }

        #[test]
        fn values_near_u64_max_split_like_str_parse(delta in 0u64..2_000_000, scale in 0usize..3) {
            // 19–21-digit values straddling u64::MAX.
            let v = (u128::from(u64::MAX) - 1_000_000 + u128::from(delta)) * [1, 10, 100][scale];
            assert_number_split(&v.to_string());
        }

        #[test]
        fn escaped_strings_parse_back(chars in proptest::collection::vec(arb_char(), 0..48)) {
            let s: String = chars.into_iter().collect();
            let quoted = format!("\"{}\"", escape(&s));
            let v = parse(&quoted).expect("escaped string parses");
            prop_assert_eq!(v.as_str(), Some(s.as_str()));
        }
    }
}
