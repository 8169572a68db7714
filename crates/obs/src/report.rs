//! Minimal JSON support for machine-readable reports: a value builder
//! (this workspace has no serde — no network access to crates.io) and a
//! strict parser. [`validate_json`] checks syntax (used by tests and
//! the `trace` binary before CI does); [`Json::parse`] materializes the
//! value tree, which the conformance harness uses to read committed
//! `BENCH_figures.json` baselines back for the drift gate.
//!
//! The parser is RFC 8259 strict — one top-level value; no leading
//! zeros, bare `-`, trailing commas or raw control characters — and
//! bounded: containers nest at most [`MAX_NESTING`] deep, so hostile
//! input is an `Err`, never a stack overflow. It allocates each
//! container once: the members of every open array and object collect
//! on two parser-owned stacks and are drained into an exactly-sized
//! `Vec` when the container closes. Strings without escapes are one
//! slice copy of the input, and integers are accumulated in the digit
//! loop (`str::parse::<f64>` runs only for fractions, exponents and
//! magnitudes beyond `i64`).

use std::fmt::Write as _;

/// A JSON value, built programmatically and rendered with `render`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite numbers only; NaN/inf render as `null`.
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Parse one strict JSON document into a value tree.
    ///
    /// The grammar is exactly what [`validate_json`] accepts (in fact
    /// the validator is this parser with the value thrown away).
    /// Numeric literals without fraction or exponent that fit an `i64`
    /// become [`Json::Int`]; everything else numeric becomes
    /// [`Json::Num`].
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p =
            Parser { s, b: s.as_bytes(), i: 0, depth: 0, items: Vec::new(), fields: Vec::new() };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return p.err("trailing garbage");
        }
        Ok(v)
    }

    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Num`, `Int`, or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            Json::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Insert/overwrite a key (builder style).
    pub fn set(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(ref mut fields) = self {
            if let Some(f) = fields.iter_mut().find(|(k, _)| k == key) {
                f.1 = value;
            } else {
                fields.push((key.to_string(), value));
            }
        }
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` as a quoted JSON string: runs of plain characters are
/// copied whole, only the characters that need an escape are rewritten.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Escaped bytes are ASCII, so `plain..i` is on char boundaries.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Strict JSON syntax check. Returns the first error with a byte
/// offset. Accepts exactly one top-level value.
pub fn validate_json(s: &str) -> Result<(), String> {
    Json::parse(s).map(|_| ())
}

/// Deepest container nesting [`Json::parse`] accepts. Committed
/// artifacts nest at most 8 deep; the bound exists so that parsing is
/// recursion of bounded depth whatever the input.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Containers currently open.
    depth: usize,
    /// Elements of every open array, innermost last: an array owns the
    /// tail of this stack from the length it found when it opened.
    items: Vec<Json>,
    /// Likewise the members of every open object.
    fields: Vec<(String, Json)>,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.i))
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.lit("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.lit("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn lit(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            self.err("bad literal")
        }
    }

    /// Skip a run of digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let negative = self.b[self.i] == b'-';
        if negative {
            self.i += 1;
        }
        // The integer part, accumulated as it is scanned; `None` once
        // it no longer fits a u64.
        let mut magnitude = Some(0u64);
        match self.b.get(self.i) {
            Some(b'0') => {
                self.i += 1;
                if matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                    return self.err("leading zero");
                }
            }
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.b.get(self.i) {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(d - b'0')));
                    self.i += 1;
                }
            }
            _ => return self.err("expected digits"),
        }
        let mut integral = true;
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            integral = false;
            if !self.digits() {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            integral = false;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.digits() {
                return self.err("expected exponent digits");
            }
        }
        if let (true, Some(m)) = (integral, magnitude) {
            // `0 - m` covers i64::MIN, whose magnitude has no i64.
            let int = if negative { 0i64.checked_sub_unsigned(m) } else { i64::try_from(m).ok() };
            if let Some(i) = int {
                return Ok(Json::Int(i));
            }
        }
        match self.s[start..self.i].parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err("unrepresentable number"),
        }
    }

    /// Index of the first byte at or after `self.i` that ends a run of
    /// plain string characters: `"`, `\`, a control byte, or the end of
    /// input. All of those are ASCII, so they never fall inside a
    /// multi-byte scalar and the run is a valid `&str` slice.
    fn plain_run_end(&self) -> usize {
        self.b[self.i..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .map_or(self.b.len(), |n| self.i + n)
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let start = self.i;
        self.i = self.plain_run_end();
        if self.b.get(self.i) == Some(&b'"') {
            // No escapes: the string is one slice of the input.
            self.i += 1;
            return Ok(self.s[start..self.i - 1].to_owned());
        }
        let mut out = String::from(&self.s[start..self.i]);
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.b.get(self.i) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.i += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return self.err("bad escape"),
                    };
                    out.push(c);
                    self.i += 1;
                }
                Some(c) if *c < 0x20 => return self.err("control char in string"),
                Some(_) => {
                    let run = self.i;
                    self.i = self.plain_run_end();
                    out.push_str(&self.s[run..self.i]);
                }
            }
        }
    }

    /// The scalar of a `\uXXXX` escape (or surrogate pair), with
    /// `self.i` just past the `u`.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require the low half.
            if self.b.get(self.i) != Some(&b'\\') || self.b.get(self.i + 1) != Some(&b'u') {
                return self.err("lone high surrogate");
            }
            self.i += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return self.err("bad low surrogate");
            }
            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(cp).ok_or_else(|| "bad surrogate pair".to_string())
        } else {
            char::from_u32(hi).ok_or_else(|| format!("lone surrogate at byte {}", self.i))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            // A single fallible decode step: any byte that is not a
            // hex digit (including non-ASCII and end-of-input) is a
            // parse error, never a panic.
            let digit = match self.b.get(self.i).and_then(|c| (*c as char).to_digit(16)) {
                Some(d) => d,
                None => return self.err("bad \\u escape"),
            };
            v = v * 16 + digit;
            self.i += 1;
        }
        Ok(v)
    }

    /// Step over a container's opening bracket, or refuse to nest
    /// deeper than [`MAX_NESTING`].
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_NESTING {
            return self.err(&format!("nesting deeper than {MAX_NESTING}"));
        }
        self.depth += 1;
        self.i += 1;
        self.skip_ws();
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.open()?;
        let base = self.fields.len();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
        } else {
            loop {
                self.skip_ws();
                if self.b.get(self.i) != Some(&b'"') {
                    return self.err("expected object key");
                }
                let key = self.string()?;
                self.skip_ws();
                if self.b.get(self.i) != Some(&b':') {
                    return self.err("expected ':'");
                }
                self.i += 1;
                self.skip_ws();
                let v = self.value()?;
                self.fields.push((key, v));
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or '}'"),
                }
            }
        }
        self.depth -= 1;
        let mut fields = Vec::with_capacity(self.fields.len() - base);
        fields.extend(self.fields.drain(base..));
        Ok(Json::Obj(fields))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.open()?;
        let base = self.items.len();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
        } else {
            loop {
                self.skip_ws();
                let v = self.value()?;
                self.items.push(v);
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or ']'"),
                }
            }
        }
        self.depth -= 1;
        let mut items = Vec::with_capacity(self.items.len() - base);
        items.extend(self.items.drain(base..));
        Ok(Json::Arr(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_through_validator() {
        let j = Json::obj()
            .set("name", Json::Str("oc\"bcast\n".into()))
            .set("lines", Json::Int(96))
            .set("latency_us", Json::Num(123.456789))
            .set("ok", Json::Bool(true))
            .set("buckets", Json::Arr(vec![Json::Num(0.5), Json::Null, Json::Int(-3)]));
        let s = j.render();
        validate_json(&s).unwrap();
        assert!(s.contains("\"lines\":96"));
        assert!(s.contains("\\\"bcast\\n"));
    }

    #[test]
    fn set_overwrites_existing_key() {
        let j = Json::obj().set("a", Json::Int(1)).set("a", Json::Int(2));
        assert_eq!(j.render(), "{\"a\":2}");
    }

    #[test]
    fn validator_accepts_valid() {
        for s in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            "{\"a\":[1,2,{\"b\":\"x\\u00e9\"}],\"c\":false}",
            "  [ 1 , 2 ]  ",
        ] {
            validate_json(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_invalid() {
        for s in ["", "{", "[1,]", "{\"a\":}", "{'a':1}", "01x", "\"abc", "{} {}", "nulll", "-"] {
            assert!(validate_json(s).is_err(), "{s} should be rejected");
        }
    }

    /// RFC 8259: `int = zero / ( digit1-9 *DIGIT )`. The parser used to
    /// take any digit run, so `01` was `Int(1)`.
    #[test]
    fn leading_zeros_are_rejected_with_a_byte_offset() {
        for (s, at) in [("01", 1), ("-012", 2), ("00.5", 1), ("[007]", 2), ("{\"a\":-00}", 7)] {
            let e = Json::parse(s).expect_err(s);
            assert_eq!(e, format!("leading zero at byte {at}"), "{s}");
        }
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(Json::parse("-0.5e3").unwrap(), Json::Num(-500.0));
        assert_eq!(Json::parse("[0,10,100]").unwrap().as_arr().unwrap().len(), 3);
    }

    fn nested(open: &str, depth: usize, close: &str) -> String {
        format!("{}{}", open.repeat(depth), close.repeat(depth))
    }

    /// Nesting is bounded, so hostile depth is an `Err` — it used to be
    /// unbounded recursion and a stack-overflow abort of the process.
    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let e = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(e, "nesting deeper than 128 at byte 128");
        let e = Json::parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert_eq!(e, format!("nesting deeper than 128 at byte {}", 128 * 5));
        // Exactly at the limit parses; one past does not — for arrays,
        // objects, and a mix of the two.
        validate_json(&nested("[", MAX_NESTING, "]")).unwrap();
        validate_json(&nested("{\"a\":", MAX_NESTING, "}").replace(":}", ":1}")).unwrap();
        validate_json(&nested("[{\"k\":", MAX_NESTING / 2, "}]").replace(":}", ":0}")).unwrap();
        assert!(validate_json(&nested("[", MAX_NESTING + 1, "]")).is_err());
        assert!(validate_json(&nested("[{\"k\":", MAX_NESTING / 2, "}]").replace(":}", ":[]}"))
            .is_err());
        // Depth is what is open at once, not what the document holds.
        validate_json(&format!("[{}]", vec!["[[]]"; 1000].join(","))).unwrap();
    }

    #[test]
    fn integer_edges_fall_back_to_floats_only_beyond_i64() {
        assert_eq!(Json::parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        assert_eq!(Json::parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        assert_eq!(Json::parse("9223372036854775808").unwrap(), Json::Num(9223372036854775808.0));
        assert_eq!(Json::parse("-9223372036854775809").unwrap(), Json::Num(-9223372036854775809.0));
        assert_eq!(Json::parse("18446744073709551616").unwrap(), Json::Num(18446744073709551616.0));
        assert!(matches!(Json::parse(&"7".repeat(400)).unwrap(), Json::Num(_)));
        assert_eq!(Json::parse("1e2").unwrap(), Json::Num(100.0));
        assert_eq!(Json::parse("12.0").unwrap(), Json::Num(12.0));
    }

    /// Every container the parser builds is allocated once, at its
    /// final size.
    #[test]
    fn parsed_containers_are_exactly_sized() {
        fn check(v: &Json) {
            match v {
                Json::Arr(items) => {
                    assert_eq!(items.capacity(), items.len());
                    items.iter().for_each(check);
                }
                Json::Obj(fields) => {
                    assert_eq!(fields.capacity(), fields.len());
                    for (k, v) in fields {
                        assert_eq!(k.capacity(), k.len());
                        check(v);
                    }
                }
                Json::Str(s) => assert_eq!(s.capacity(), s.len()),
                _ => {}
            }
        }
        for n in [0, 1, 9] {
            let arr = Json::Arr((0..n).map(Json::Int).collect());
            let obj = (0..n).fold(Json::obj(), |o, i| o.set(&format!("k{i}"), arr.clone()));
            let doc = Json::Arr(vec![obj.clone(), arr, Json::Str("plain".into()), obj]);
            let back = Json::parse(&doc.render()).unwrap();
            assert_eq!(back, doc);
            check(&back);
        }
    }

    #[test]
    fn parse_materializes_values() {
        let v = Json::parse("{\"a\":[1,2.5,true,null],\"b\":\"x\\n\\u00e9\",\"c\":-7}").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[Json::Int(1), Json::Num(2.5), Json::Bool(true), Json::Null]
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\né"));
        assert_eq!(v.get("c").unwrap().as_i64(), Some(-7));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-7.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_round_trips_renderer_output() {
        let j = Json::obj()
            .set("s", Json::Str("quote\" slash\\ nl\n tab\t ctl\u{1} é".into()))
            .set("big", Json::Num(1.25e300))
            .set("neg", Json::Int(i64::MIN))
            .set("arr", Json::Arr(vec![Json::Bool(false), Json::Null]));
        let rendered = j.render();
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back, j);
    }

    /// Regression: malformed hex in a `\u` escape used to reach a
    /// `to_digit(16).unwrap()` and panic; it must be a parse error.
    #[test]
    fn malformed_hex_escape_is_an_error() {
        for s in [
            "\"\\uZZZZ\"",
            "\"\\u12G4\"",
            "\"\\u123\"",
            "\"\\u\"",
            "\"\\u12",
            "\"\\uéééé\"",
            "{\"k\":\"\\uZZZZ\"}",
        ] {
            let e = Json::parse(s).expect_err(s);
            assert!(e.contains("escape") || e.contains("unterminated"), "{s}: {e}");
        }
    }

    #[test]
    fn parse_surrogate_pairs_and_rejects_lone_halves() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(Json::parse("\"\\ude00\"").is_err(), "lone low surrogate");
    }

    /// Regression guard: string scanning must be linear in document
    /// size. An earlier version re-validated the whole remaining input
    /// per character, which turned the multi-megabyte chrome traces the
    /// `trace` binary validates into an hours-long parse. At 8 MB the
    /// quadratic version needs minutes; the linear one, milliseconds.
    #[test]
    fn multi_megabyte_documents_parse_fast() {
        let mut doc = String::from("[");
        let chunk = "x".repeat(1 << 10);
        for i in 0..(8 << 10) {
            if i > 0 {
                doc.push(',');
            }
            doc.push('"');
            doc.push_str(&chunk);
            doc.push('"');
        }
        doc.push(']');
        let start = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 8 << 10);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "parse took {:?} — string scanning has gone super-linear",
            start.elapsed()
        );
    }

    #[test]
    fn integral_floats_parse_as_ints() {
        // `Num(5.0)` renders as `5`, which parses back as `Int(5)`:
        // byte-level round-trip is exact, value-level is semantic.
        assert_eq!(Json::parse(&Json::Num(5.0).render()).unwrap(), Json::Int(5));
        // Beyond i64 range the integral literal falls back to f64.
        assert_eq!(Json::parse("99999999999999999999").unwrap(), Json::Num(1e20));
    }
}
