//! The workspace's one JSON module: a tree reader ([`parse`] into
//! [`Value`]), the flat-object check of the serve line protocol
//! ([`parse_flat_object`]), and the two writers every JSON artifact goes
//! through ([`escape_string`], [`number`]).  Stdlib only: the workspace
//! is serde-free (see `vendor/README.md`).
//!
//! The reader takes untrusted input — protocol lines off a socket, store
//! payloads, trace files — so it is strict where that matters:
//!
//! * containers nested deeper than 32 levels are rejected, which bounds
//!   the recursion and therefore the stack;
//! * numbers must be finite (`1e999` is an error; JSON has no spelling for
//!   infinity), otherwise the scan is lenient and reads whatever Rust's
//!   `f64` parser accepts from the characters `0-9 + - . e E`;
//! * `\u` escapes decode surrogate pairs, and an unpaired surrogate is an
//!   error;
//! * the input is a `&str`, so its UTF-8 is checked before parsing starts.
//!
//! Numbers travel as `f64`, so integers are exact only below 2^53, and
//! object keys keep their textual order (lookups via [`Value::get`] are
//! linear).

use std::fmt::Write as _;

/// Containers may nest at most this deep.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (through `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in textual key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks `key` up in an object (linear scan); `None` otherwise.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable description of the first problem: a syntax error,
/// nesting deeper than 32 levels, a non-finite number, a bad or unpaired
/// `\u` escape, trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Parses one flat JSON object (`{"key": value, ...}` with scalar values
/// only) into its key/value pairs, in source order — the shape of every
/// serve protocol line, job spec and store payload.
///
/// # Errors
///
/// [`parse`]'s description of the first problem, or a note that the text
/// is not an object or nests a container.
pub fn parse_flat_object(text: &str) -> Result<Vec<(String, Value)>, String> {
    let Value::Obj(pairs) = parse(text)? else {
        return Err("expected a JSON object".into());
    };
    if pairs.iter().any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_))) {
        return Err("nested containers are not part of the protocol".into());
    }
    Ok(pairs)
}

fn unexpected(byte: Option<u8>, wanted: &str) -> String {
    match byte {
        Some(b) => format!("expected {wanted}, found `{}`", b as char),
        None => format!("expected {wanted}, found end of input"),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == byte => Ok(()),
            other => Err(unexpected(other, &format!("`{}`", byte as char))),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            _ => self.number(),
        }
    }

    /// Consumes a container's opening byte, one level deeper.
    fn open(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.open()?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                pairs.push((key, self.value()?));
                self.skip_ws();
                match self.next() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => return Err(unexpected(other, "`,` or `}`")),
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Obj(pairs))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.open()?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.next() {
                    Some(b',') => continue,
                    Some(b']') => break,
                    other => return Err(unexpected(other, "`,` or `]`")),
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Arr(items))
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad keyword at byte {} (expected `{word}`)", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(unexpected(self.peek(), "a value"));
        }
        let text = &self.text[start..self.pos];
        let x = text.parse::<f64>().map_err(|_| format!("bad number `{text}`"))?;
        // Every downstream consumer (seeds, timeouts, QoR fields) would
        // misbehave on an infinity, so name the literal that made one.
        if !x.is_finite() {
            return Err(format!("non-finite number `{text}`"));
        }
        Ok(Value::Num(x))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run stops only at an ASCII byte or the end, so it is whole
            // UTF-8 sequences of the input.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                _ => out.push(self.escape()?),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => return self.unicode_escape(),
            other => return Err(unexpected(other, "an escape character")),
        })
    }

    /// The `XXXX` of a `\uXXXX` escape, plus its low half when it opens a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = |p: &mut Self| -> Result<u32, String> {
            let hex = p.text.as_bytes().get(p.pos..p.pos + 4).ok_or("truncated \\u escape")?;
            let code = hex.iter().try_fold(0, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?));
            p.pos += 4;
            code.ok_or_else(|| format!("bad \\u escape `{}`", String::from_utf8_lossy(hex)))
        };
        let mut code = unit(self)?;
        if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = unit(self)?;
            if (0xdc00..0xe000).contains(&low) {
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
        }
        // Only a surrogate half left unpaired is not a `char`.
        char::from_u32(code).ok_or_else(|| "unpaired surrogate in \\u escape".into())
    }
}

/// Escapes a string for embedding in a JSON document, quotes included.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float the way every JSON artifact in the repo does: shortest
/// round-trip representation, `null` for non-finite values.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let pairs =
            parse_flat_object(r#"{"suite":"c432","fast":true,"seed":7,"note":null}"#).unwrap();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[0], ("suite".into(), Value::Str("c432".into())));
        assert_eq!(pairs[1], ("fast".into(), Value::Bool(true)));
        assert_eq!(pairs[2], ("seed".into(), Value::Num(7.0)));
        assert_eq!(pairs[3], ("note".into(), Value::Null));
    }

    #[test]
    fn parses_empty_object_and_whitespace() {
        assert!(parse_flat_object("  { }  ").unwrap().is_empty());
        let pairs = parse_flat_object(" { \"a\" : -1.5e2 } ").unwrap();
        assert_eq!(pairs[0].1.as_num(), Some(-150.0));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\té\u{1F600}";
        let escaped = escape_string(original);
        let doc = format!("{{{escaped}:{escaped}}}");
        let pairs = parse_flat_object(&doc).unwrap();
        assert_eq!(pairs[0].0, original);
        assert_eq!(pairs[0].1.as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        let pairs = parse_flat_object(r#"{"k":"\u00e9\ud83d\ude00"}"#).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("é\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":[1]}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":1} x",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"unterminated}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":12..5}",
        ] {
            assert!(parse_flat_object(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for bad in ["{\"a\":1e999}", "{\"a\":-1e999}", "{\"a\":1e308e3}"] {
            let err = parse_flat_object(bad).unwrap_err();
            assert!(err.contains("non-finite") || err.contains("bad number"), "{bad} -> {err}");
        }
        assert!(parse_flat_object("{\"a\":1e999}").unwrap_err().contains("non-finite"));
        // The largest finite doubles still parse.
        let pairs = parse_flat_object("{\"a\":1.7976931348623157e308}").unwrap();
        assert_eq!(pairs[0].1.as_num(), Some(f64::MAX));
    }

    #[test]
    fn container_rejection_is_depth_bounded() {
        // Shallow nesting: the protocol-violation message.
        let err = parse_flat_object("{\"a\":[1,2,{\"b\":3}]}").unwrap_err();
        assert_eq!(err, "nested containers are not part of the protocol");
        // Brackets inside strings do not confuse the scanner.
        let err = parse_flat_object("{\"a\":[\"[[[\\\"]]]\"]}").unwrap_err();
        assert_eq!(err, "nested containers are not part of the protocol");
        // Adversarially deep input trips the bound before the recursion
        // can grow the stack.
        let deep = format!("{{\"a\":{}1{}}}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(parse_flat_object(&deep).unwrap_err(), "nesting deeper than 32 levels");
    }

    #[test]
    fn number_formatting_matches_harness() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(escape_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn parses_escapes_numbers_and_nesting() {
        let v = parse("{\"a\":\"q\\\"\\u0041\\n\",\"b\":[-1.5e2,true,null],\"c\":{\"d\":[[0,7]]}}")
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_str().unwrap(), "q\"A\n");
        let items = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(items[0].as_num().unwrap(), -150.0);
        assert_eq!(items[1], Value::Bool(true));
        assert_eq!(items[2], Value::Null);
        let point = v.get("c").unwrap().get("d").unwrap().as_arr().unwrap()[0].as_arr().unwrap();
        assert_eq!(point[1].as_num().unwrap(), 7.0);
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        assert!(parse("{\"a\":[1,2").is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(parse(&deep).unwrap_err(), "nesting deeper than 32 levels");
        let deep = "{\"a\":".repeat(100_000);
        assert_eq!(parse(&deep).unwrap_err(), "nesting deeper than 32 levels");
        // The bound itself still parses.
        let at_bound = format!("{}{}", "[".repeat(32), "]".repeat(32));
        assert!(parse(&at_bound).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_halves_are_rejected() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("\u{1F600}".into()));
        for bad in [r#""\ud800""#, r#""\udc00""#, r#""\ud800\u0041""#, r#""\u+041""#] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parse_rejects_non_finite_numbers() {
        for bad in ["[1e999]", "-1e999", "{\"a\":[1,1e400]}"] {
            assert!(parse(bad).unwrap_err().contains("non-finite"), "accepted: {bad}");
        }
    }
}
