//! A small, self-contained JSON parser and printer over [`Value`].
//!
//! Kept dependency-free on purpose (see DESIGN.md §4): the JSON driver is
//! part of the federation substrate, not an external service.

use std::fmt::Write as _;

use crate::error::{FederationError, Result};
use crate::value::Value;

/// Parses a JSON document.
///
/// Integers without a fractional part or exponent become [`Value::Int`];
/// everything else numeric becomes [`Value::Real`].
///
/// # Errors
///
/// Returns [`FederationError::Parse`] with line/column on malformed input.
///
/// # Examples
///
/// ```
/// use decisive_federation::{json, Value};
///
/// # fn main() -> Result<(), decisive_federation::FederationError> {
/// let v = json::parse(r#"{"fit": 10, "modes": ["open", "short"]}"#)?;
/// assert_eq!(v.get("fit"), Some(&Value::Int(10)));
/// assert_eq!(v.get("modes").unwrap().len(), Some(2));
/// # Ok(())
/// # }
/// ```
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Prints `value` as compact JSON.
///
/// `Value::Null` prints as `null`; non-finite reals print as `null` too
/// (JSON has no NaN/Inf).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write_int(*i, out),
        Value::Real(r) => write_real(*r, out),
        Value::Str(s) => write_str(s, out),
        Value::List(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(v, out);
            }
            out.push(']');
        }
        Value::Record(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

// The token printers below are shared with `serde_bridge::to_json_string`,
// so both routes print the same text. None allocates per token.

/// Prints an integer.
pub(crate) fn write_int(i: i64, out: &mut String) {
    let _ = write!(out, "{i}");
}

/// Prints a real. Integral reals below 1e15 keep a `.0`, so they re-parse
/// as reals; non-finite reals print as `null` (JSON has no NaN or Inf).
pub(crate) fn write_real(r: f64, out: &mut String) {
    if !r.is_finite() {
        out.push_str("null");
    } else if r.fract() == 0.0 && r.abs() < 1e15 {
        let _ = write!(out, "{r:.1}");
    } else {
        let _ = write!(out, "{r}");
    }
}

/// Prints a quoted string, copying each run that needs no escape at once.
pub(crate) fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (at, &byte) in s.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `byte` is ASCII, so `at` is a char boundary.
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> FederationError {
        let (mut line, mut column) = (1usize, 1usize);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        FederationError::Parse { format: "json", line, column, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Record(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Record(pairs)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::List(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at pos - 1.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(chunk) => {
                            s.push_str(chunk);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_real = false;
        if self.peek() == Some(b'.') {
            is_real = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_real = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Internal invariant: the scanned slice only contains ASCII
        // digits, sign, `.`, and `e`, so re-viewing it as UTF-8 cannot
        // fail for any input.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number slice is ascii by construction");
        if is_real {
            text.parse::<f64>().map(Value::Real).map_err(|e| self.err(e.to_string()))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Real))
                .map_err(|e| self.err(e.to_string()))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-3.5").unwrap(), Value::Real(-3.5));
        assert_eq!(parse("1e3").unwrap(), Value::Real(1000.0));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(r#""hi""#).unwrap(), Value::from("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().at(0), Some(&Value::Int(1)));
        assert_eq!(v.get("a").unwrap().at(1).unwrap().get("b"), Some(&Value::Null));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(parse(r#""a\nb\t\"q\" A""#).unwrap(), Value::from("a\nb\t\"q\" A"));
        assert_eq!(parse("\"héllo — ok\"").unwrap(), Value::from("héllo — ok"));
    }

    #[test]
    fn rejects_malformed_input_with_position() {
        let err = parse("{\"a\": }").unwrap_err();
        match err {
            FederationError::Parse { format: "json", line: 1, column, .. } => assert!(column >= 6),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let original =
            parse(r#"{"n": 1, "r": 2.5, "s": "x\"y", "l": [true, null], "e": {}}"#).unwrap();
        let reparsed = parse(&to_string(&original)).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn integral_reals_stay_real_on_roundtrip() {
        let v = Value::Real(5.0);
        let reparsed = parse(&to_string(&v)).unwrap();
        assert_eq!(reparsed, Value::Real(5.0));
    }

    #[test]
    fn nonfinite_reals_print_null() {
        assert_eq!(to_string(&Value::Real(f64::NAN)), "null");
    }

    #[test]
    fn prints_numbers_and_escapes() {
        let v = Value::list([
            Value::Int(i64::MIN),
            Value::Real(-0.0),
            Value::Real(1e15),
            Value::Real(999_999_999_999_999.0),
            Value::Real(0.1),
            Value::Real(f64::NEG_INFINITY),
            Value::from("a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é—ok"),
        ]);
        assert_eq!(
            to_string(&v),
            "[-9223372036854775808,-0.0,1000000000000000,999999999999999.0,0.1,null,\
             \"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é—ok\"]"
        );
        assert_eq!(parse(&to_string(&v)).unwrap().at(6), v.at(6));
    }

    #[test]
    fn error_reports_multiline_position() {
        let err = parse("{\n  \"a\": oops\n}").unwrap_err();
        match err {
            FederationError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
