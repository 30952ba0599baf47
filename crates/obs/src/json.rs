//! Minimal hand-rolled JSON helpers (no serde in the dependency
//! closure).
//!
//! The rendering half ([`escape`], [`num`], [`f64_bits`], [`u64_str`], …)
//! is shared by every artifact writer. The parsing half is [`parse`] plus
//! the one member vocabulary every artifact reader uses: the `req_*`
//! methods on [`Value`] read a member that must be present with exactly
//! the encoding its writer uses, the `opt_*_member` methods read one that
//! must be present and may be `null`, and the element forms
//! ([`parse_uint`], [`parse_num`], [`parse_u64_str`], [`parse_f64_bits`],
//! [`parse_hex64`]) decode array items the same way. A missing member, a
//! wrong type, a fractional or out-of-range integer, a non-finite
//! decimal or a malformed hex/decimal string is an `Err` naming the
//! member — never a default, a saturated cast or a panic.

/// Escape a string for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value: finite values as decimals, non-finite
/// values (JSON has no Infinity/NaN) as `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Render an optional `f64` (`None` → `null`).
pub fn opt_num(v: Option<f64>) -> String {
    v.map(num).unwrap_or_else(|| "null".to_string())
}

/// Render an optional string (`None` → `null`).
pub fn opt_str(v: Option<&str>) -> String {
    v.map(|s| format!("\"{}\"", escape(s))).unwrap_or_else(|| "null".to_string())
}

/// Render an `f64` as its exact IEEE-754 bit pattern (a quoted 16-digit
/// hex string) — the lossless companion of [`num`] for artifacts that
/// must round-trip bit-identically. Handles every value, including the
/// infinities [`num`] flattens to `null`.
pub fn f64_bits(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

/// Render an optional `f64` bit pattern (`None` → `null`).
pub fn opt_f64_bits(v: Option<f64>) -> String {
    v.map(f64_bits).unwrap_or_else(|| "null".to_string())
}

/// Parse a value rendered by [`f64_bits`].
pub fn parse_f64_bits(v: &Value) -> Result<f64, String> {
    let s = v.as_str().ok_or("expected an f64 bit-pattern string")?;
    hex64(s).map(f64::from_bits).map_err(|e| format!("bad f64 bit pattern {s:?}: {e}"))
}

/// Parse a 64-bit code rendered as a quoted `{:016x}` string.
pub fn parse_hex64(v: &Value) -> Result<u64, String> {
    let s = v.as_str().ok_or("expected a 16-hex-digit string")?;
    hex64(s).map_err(|e| format!("bad hex code {s:?}: {e}"))
}

fn hex64(s: &str) -> Result<u64, String> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("want 16 hex digits".to_string());
    }
    u64::from_str_radix(s, 16).map_err(|e| e.to_string())
}

/// Render a `u64` losslessly as a quoted decimal string: plain JSON
/// numbers parse back as `f64` and lose precision past 2^53.
pub fn u64_str(v: u64) -> String {
    format!("\"{v}\"")
}

/// Parse a value rendered by [`u64_str`].
pub fn parse_u64_str(v: &Value) -> Result<u64, String> {
    let s = v.as_str().ok_or("expected a u64 decimal string")?;
    if !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad u64 string {s:?}: want decimal digits"));
    }
    s.parse::<u64>().map_err(|e| format!("bad u64 string {s:?}: {e}"))
}

/// Parse a bare JSON integer (a `{}`-rendered `u64`/`usize`): a
/// non-negative integral number below 2^64. JSON numbers are read as
/// `f64`, so integers above 2^53 arrive rounded.
pub fn parse_uint(v: &Value) -> Result<u64, String> {
    let n = v.as_f64().ok_or("expected a number")?;
    if n.is_nan() || n < 0.0 || n.fract() != 0.0 {
        return Err(format!("expected a non-negative integer, got {n}"));
    }
    // `u64::MAX as f64` rounds up to 2^64, the first value `as` would
    // saturate instead of converting.
    if n >= u64::MAX as f64 {
        return Err(format!("out of range: {n}"));
    }
    Ok(n as u64)
}

/// Parse a value rendered by [`num`]: a finite decimal, or `null` (the
/// rendering of every non-finite value) as `None`. A number that only
/// parses as infinite (`1e999`) is an error: [`num`] never writes one.
pub fn parse_num(v: &Value) -> Result<Option<f64>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Num(n) if n.is_finite() => Ok(Some(*n)),
        Value::Num(n) => Err(format!("expected a finite decimal, got {n}")),
        _ => Err("expected a number or null".to_string()),
    }
}

/// A parsed JSON document.
///
/// Objects keep their members as an ordered `Vec` (first occurrence wins
/// on [`Value::get`]), so round-tripping preserves the writer's
/// deterministic key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (first occurrence), if this is an
    /// object and the key is present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    // -- the member vocabulary ----------------------------------------------

    /// Require an object whose member names are exactly `keys`, in that
    /// order — no missing, extra, duplicated or reordered member.
    pub fn req_keys(&self, keys: &[&str]) -> Result<(), String> {
        let members = self.as_obj().ok_or("expected an object")?;
        if members.iter().map(|(k, _)| k.as_str()).eq(keys.iter().copied()) {
            Ok(())
        } else {
            Err(format!("members must be exactly {keys:?}, in that order"))
        }
    }

    /// A member that must be present (any value, `null` included).
    pub fn req(&self, key: &str) -> Result<&Value, String> {
        self.get(key).ok_or_else(|| format!("missing member {key:?}"))
    }

    /// A present member decoded by `read`; errors name the member.
    pub fn req_with<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<T, String> {
        read(self.req(key)?).map_err(|e| format!("member {key:?}: {e}"))
    }

    /// A present member that is `null` (`None`) or decoded by `read`.
    pub fn opt_with<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.req(key)? {
            Value::Null => Ok(None),
            v => read(v).map(Some).map_err(|e| format!("member {key:?}: {e}")),
        }
    }

    /// A string member.
    pub fn req_str(&self, key: &str) -> Result<String, String> {
        self.req_with(key, |v| v.as_str().map(str::to_string).ok_or("must be a string".into()))
    }

    /// A boolean member.
    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.req_with(key, |v| v.as_bool().ok_or("must be a boolean".into()))
    }

    /// An array member.
    pub fn req_arr(&self, key: &str) -> Result<&[Value], String> {
        self.req(key)?.as_arr().ok_or_else(|| format!("member {key:?} must be an array"))
    }

    /// An object member.
    pub fn req_obj(&self, key: &str) -> Result<&[(String, Value)], String> {
        self.req(key)?.as_obj().ok_or_else(|| format!("member {key:?} must be an object"))
    }

    /// A bare-integer `u64` member ([`parse_uint`]).
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req_with(key, parse_uint)
    }

    /// A bare-integer `usize` member.
    pub fn req_usize(&self, key: &str) -> Result<usize, String> {
        let n = self.req_u64(key)?;
        usize::try_from(n).map_err(|_| format!("member {key:?} out of usize range: {n}"))
    }

    /// A bare-integer `u32` member.
    pub fn req_u32(&self, key: &str) -> Result<u32, String> {
        let n = self.req_u64(key)?;
        u32::try_from(n).map_err(|_| format!("member {key:?} out of u32 range: {n}"))
    }

    /// A finite-decimal member rendered by [`num`] that must not be `null`.
    pub fn req_num(&self, key: &str) -> Result<f64, String> {
        self.req_with(key, |v| parse_num(v)?.ok_or("must be a finite number, not null".into()))
    }

    /// A `u64` member rendered by [`u64_str`].
    pub fn req_u64_str(&self, key: &str) -> Result<u64, String> {
        self.req_with(key, parse_u64_str)
    }

    /// An `f64` member rendered by [`f64_bits`].
    pub fn req_f64_bits(&self, key: &str) -> Result<f64, String> {
        self.req_with(key, parse_f64_bits)
    }

    /// A 64-bit code member rendered as `"{:016x}"` ([`parse_hex64`]).
    pub fn req_hex64(&self, key: &str) -> Result<u64, String> {
        self.req_with(key, parse_hex64)
    }

    /// A member rendered by [`opt_str`].
    pub fn opt_str_member(&self, key: &str) -> Result<Option<String>, String> {
        self.opt_with(key, |v| v.as_str().map(str::to_string).ok_or("must be a string".into()))
    }

    /// A member rendered by [`opt_f64_bits`].
    pub fn opt_f64_bits_member(&self, key: &str) -> Result<Option<f64>, String> {
        self.opt_with(key, parse_f64_bits)
    }

    /// A 64-bit code member that may be `null`.
    pub fn opt_hex64_member(&self, key: &str) -> Result<Option<u64>, String> {
        self.opt_with(key, parse_hex64)
    }
}

/// Parse a JSON document. Strict on structure (one value, nothing but
/// whitespace after it), tolerant of any member order.
///
/// # Errors
///
/// Returns a message with the byte offset of the first error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Nesting depth limit (stack-overflow guard for hostile inputs).
const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number span");
    text.parse::<f64>().map(Value::Num).map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    let mut pending_surrogate: Option<u32> = None;
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                if pending_surrogate.is_some() {
                    out.push('\u{FFFD}');
                }
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                let simple = match escape {
                    b'"' => Some('"'),
                    b'\\' => Some('\\'),
                    b'/' => Some('/'),
                    b'b' => Some('\u{8}'),
                    b'f' => Some('\u{c}'),
                    b'n' => Some('\n'),
                    b'r' => Some('\r'),
                    b't' => Some('\t'),
                    b'u' => None,
                    _ => return Err(format!("invalid escape at byte {}", *pos - 1)),
                };
                if let Some(c) = simple {
                    if let Some(_lost) = pending_surrogate.take() {
                        out.push('\u{FFFD}');
                    }
                    out.push(c);
                    continue;
                }
                let hex = bytes
                    .get(*pos..*pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
                *pos += 4;
                match (pending_surrogate.take(), hex) {
                    (None, 0xD800..=0xDBFF) => pending_surrogate = Some(hex),
                    (None, 0xDC00..=0xDFFF) => out.push('\u{FFFD}'),
                    (None, c) => out.push(char::from_u32(c).unwrap_or('\u{FFFD}')),
                    (Some(high), 0xDC00..=0xDFFF) => {
                        let c = 0x10000 + ((high - 0xD800) << 10) + (hex - 0xDC00);
                        out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                    }
                    (Some(_), c) => {
                        out.push('\u{FFFD}');
                        match c {
                            0xD800..=0xDBFF => pending_surrogate = Some(c),
                            _ => out.push(char::from_u32(c).unwrap_or('\u{FFFD}')),
                        }
                    }
                }
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash as
                // one slice. Both delimiters are ASCII, so the run ends on
                // a character boundary and multi-byte text survives.
                let start = *pos;
                let run_len = bytes[start..].iter().position(|&b| matches!(b, b'"' | b'\\'));
                *pos = run_len.map_or(bytes.len(), |n| start + n);
                let run = text
                    .get(start..*pos)
                    .ok_or_else(|| format!("invalid utf-8 at byte {start}"))?;
                if pending_surrogate.take().is_some() {
                    out.push('\u{FFFD}');
                }
                out.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("tab\tret\r"), "tab\\tret\\r");
        assert_eq!(escape("héllo ✓"), "héllo ✓", "non-ASCII passes through");
        assert_eq!(escape(""), "");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(2.5), "2.500000");
        assert_eq!(num(-0.0), "-0.000000");
        assert_eq!(opt_num(None), "null");
        assert_eq!(opt_num(Some(f64::NAN)), "null");
        assert_eq!(opt_num(Some(1.0)), "1.000000");
        assert_eq!(opt_str(Some("x")), "\"x\"");
        assert_eq!(opt_str(None), "null");
    }

    #[test]
    fn bit_pattern_helpers_round_trip_exactly() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e300] {
            let rendered = f64_bits(v);
            let parsed = parse_f64_bits(&parse(&rendered).unwrap()).unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} must round-trip bits");
        }
        assert_eq!(opt_f64_bits(None), "null");
        assert_eq!(opt_f64_bits(Some(1.0)), f64_bits(1.0));
        for v in [0u64, 1, u64::MAX, (1 << 53) + 1] {
            let parsed = parse_u64_str(&parse(&u64_str(v)).unwrap()).unwrap();
            assert_eq!(parsed, v, "{v} must round-trip exactly");
        }
        assert!(parse_f64_bits(&Value::Num(1.0)).is_err());
        assert!(parse_f64_bits(&Value::Str("xyz".into())).is_err());
        assert!(parse_f64_bits(&Value::Str("00".into())).is_err(), "length checked");
        assert!(parse_u64_str(&Value::Str("-1".into())).is_err());
        assert!(parse_u64_str(&Value::Num(3.0)).is_err());
    }

    #[test]
    fn member_vocabulary_reads_exact_encodings() {
        let v = parse(concat!(
            r#"{"s": "x", "b": true, "n": 7, "d": 2.5, "nul": null, "inf": 1e999, "#,
            r#""u": "18446744073709551615", "h": "00000000000000ff", "f": "3ff8000000000000", "#,
            r#""big": 18446744073709551616, "neg": -1, "frac": 1.5, "plus": "+5", "a": [1], "o": {}}"#,
        ))
        .unwrap();
        assert_eq!(v.req_str("s").unwrap(), "x");
        assert!(v.req_bool("b").unwrap());
        assert_eq!((v.req_usize("n"), v.req_u32("n"), v.req_u64("n")), (Ok(7), Ok(7), Ok(7)));
        assert_eq!(v.req_num("d"), Ok(2.5));
        assert_eq!(v.req_u64_str("u"), Ok(u64::MAX));
        assert_eq!(v.req_hex64("h"), Ok(0xff));
        assert_eq!(v.opt_hex64_member("nul"), Ok(None));
        assert_eq!(v.req_f64_bits("f"), Ok(1.5));
        assert_eq!(v.opt_str_member("nul"), Ok(None));
        assert_eq!(
            (v.req_arr("a").map(<[Value]>::len), v.req_obj("o").map(<[_]>::len)),
            (Ok(1), Ok(0))
        );
        // Missing, mistyped, fractional, negative, out-of-range and
        // non-finite members are errors that name the member.
        for err in [
            v.req_str("missing").unwrap_err(),
            v.req_str("n").unwrap_err(),
            v.req_u64("big").unwrap_err(),
            v.req_u64("neg").unwrap_err(),
            v.req_u64("frac").unwrap_err(),
            v.req_num("inf").unwrap_err(),
            v.req_num("nul").unwrap_err(),
            v.req_u64_str("plus").unwrap_err(),
            v.req_hex64("s").unwrap_err(),
            v.req_arr("o").unwrap_err(),
        ] {
            assert!(err.contains("member \""), "{err}");
        }
        assert!(v.req_u32("u").is_err() && v.req_bool("nul").is_err());
        assert!(parse_hex64(&Value::Str("+00000000000000f".into())).is_err(), "hex digits only");
        assert!(v.req_keys(&["s", "b"]).is_err());
        let keys = [
            "s", "b", "n", "d", "nul", "inf", "u", "h", "f", "big", "neg", "frac", "plus", "a", "o",
        ];
        assert_eq!(v.req_keys(&keys), Ok(()));
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}, "x"], "c": 2}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(2.0));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Value::Null));
        assert_eq!(arr[2].as_str(), Some("x"));
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let members = v.as_obj().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ nl\n tab\t ctl\u{1} héllo";
        let rendered = format!("\"{}\"", escape(original));
        assert_eq!(parse(&rendered).unwrap(), Value::Str(original.to_string()));
        // \u surrogate pair decodes to one scalar.
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        // Lone surrogate degrades to the replacement character.
        assert_eq!(parse(r#""\ud83dx""#).unwrap(), Value::Str("\u{FFFD}x".into()));
    }

    /// The string parser as it was before runs of plain text were copied
    /// as one slice: it re-validated the rest of the input as UTF-8 for
    /// every character. Kept as the oracle for the test below.
    fn reference_parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        let mut pending_surrogate: Option<u32> = None;
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    if pending_surrogate.is_some() {
                        out.push('\u{FFFD}');
                    }
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    let escape = *bytes.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    let simple = match escape {
                        b'"' => Some('"'),
                        b'\\' => Some('\\'),
                        b'/' => Some('/'),
                        b'b' => Some('\u{8}'),
                        b'f' => Some('\u{c}'),
                        b'n' => Some('\n'),
                        b'r' => Some('\r'),
                        b't' => Some('\t'),
                        b'u' => None,
                        _ => return Err(format!("invalid escape at byte {}", *pos - 1)),
                    };
                    if let Some(c) = simple {
                        if pending_surrogate.take().is_some() {
                            out.push('\u{FFFD}');
                        }
                        out.push(c);
                        continue;
                    }
                    let hex = bytes
                        .get(*pos..*pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
                    *pos += 4;
                    match (pending_surrogate.take(), hex) {
                        (None, 0xD800..=0xDBFF) => pending_surrogate = Some(hex),
                        (None, 0xDC00..=0xDFFF) => out.push('\u{FFFD}'),
                        (None, c) => out.push(char::from_u32(c).unwrap_or('\u{FFFD}')),
                        (Some(high), 0xDC00..=0xDFFF) => {
                            let c = 0x10000 + ((high - 0xD800) << 10) + (hex - 0xDC00);
                            out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                        }
                        (Some(_), c) => {
                            out.push('\u{FFFD}');
                            match c {
                                0xD800..=0xDBFF => pending_surrogate = Some(c),
                                _ => out.push(char::from_u32(c).unwrap_or('\u{FFFD}')),
                            }
                        }
                    }
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| format!("invalid utf-8 at byte {pos}"))?;
                    let c = rest.chars().next().expect("non-empty rest");
                    if pending_surrogate.take().is_some() {
                        out.push('\u{FFFD}');
                    }
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    #[test]
    fn long_multibyte_line_parses_as_before() {
        // Plain runs of 1- to 4-byte characters between escapes, paired
        // and lone surrogates, and surrogates followed by plain text.
        let segment = r#"héllo ✓ 😀 plain\n\té😀\ud83dx\udc00\"\\\/ ünïcødé 𝄞 "#;
        let mut line = String::from("\"");
        for _ in 0..128 {
            line.push_str(segment);
        }
        let closed = format!("{line}\"");
        let check = |text: &str| {
            let (mut new_pos, mut old_pos) = (0, 0);
            let new = parse_string(text, &mut new_pos);
            let old = reference_parse_string(text.as_bytes(), &mut old_pos);
            assert_eq!(new.is_ok(), old.is_ok(), "Ok/Err differs on {text:?}");
            if let (Ok(new), Ok(old)) = (&new, &old) {
                assert_eq!(new, old);
                assert_eq!(new_pos, old_pos);
            }
        };
        check(&closed);
        let v = parse(&closed).expect("long line parses");
        assert_eq!(v.as_str().map(|s| s.chars().filter(|&c| c == '😀').count()), Some(256));
        // Every truncation of a shorter line, closed and unclosed.
        let short = &closed[..4 * segment.len()];
        for (i, _) in short.char_indices().skip(1) {
            check(&short[..i]);
            check(&format!("{}\"", &short[..i]));
        }
        // Malformed escapes and surrogates at the end of a long run.
        for tail in [r"\x", r"\u12", r"\u12é", r"\uZZZZ", r"\", r"\ud83d", r"\ud83dA"] {
            check(&format!("{line}{tail}\""));
            check(&format!("{line}{tail}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn round_trips_a_rendered_metrics_style_document() {
        let doc = "{\n  \"counters\": {\n    \"a.b\": 3\n  },\n  \"gauges\": {},\n  \
                   \"list\": [1.5, null, true]\n}\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("counters").unwrap().get("a.b").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 3);
    }
}
