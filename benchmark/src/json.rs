//! A hand-rolled JSON emitter (the container has no serde_json; the
//! vendored serde derives expand to nothing).
//!
//! Object keys are metric, workload and field names and are restricted
//! to `[A-Za-z0-9_.-]`, so they are written without escaping; string
//! values are escaped.

/// Builds one JSON object.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A JSON string literal for `s`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`, with every digit `f64` needs to round-trip.
///
/// # Panics
///
/// Panics on NaN or infinity: a metric that is not a number is a bug in
/// the benchmark, not a value to publish.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value is not a finite number");
    format!("{v}")
}

/// A JSON array of already-encoded items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds `key` with an already-encoded JSON value.
    ///
    /// # Panics
    ///
    /// Panics if `key` has a character outside `[A-Za-z0-9_.-]`.
    pub fn raw(mut self, key: &str, json: &str) -> Obj {
        assert!(is_name(key), "JSON key {key:?} is not a plain name");
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push('"');
        self.body.push_str(key);
        self.body.push_str("\": ");
        self.body.push_str(json);
        self
    }

    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, &number(v))
    }

    pub fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, &v.to_string())
    }

    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, &string(v))
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A minimal JSON reader, for the tests that check what the emitter and
/// `BENCHMARK.json` say.
#[cfg(test)]
pub mod parse {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }

        pub fn items(&self) -> &[Value] {
            match self {
                Value::Arr(items) => items,
                _ => &[],
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    struct Reader<'a> {
        src: &'a [u8],
        at: usize,
    }

    pub fn parse(src: &str) -> Result<Value, String> {
        let mut r = Reader {
            src: src.as_bytes(),
            at: 0,
        };
        let v = r.value()?;
        r.space();
        if r.at == r.src.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {}", r.at))
        }
    }

    impl Reader<'_> {
        fn space(&mut self) {
            while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.src[self.at..].starts_with(lit.as_bytes());
            if hit {
                self.at += lit.len();
            }
            hit
        }

        fn expect(&mut self, lit: &str) -> Result<(), String> {
            self.space();
            if self.eat(lit) {
                Ok(())
            } else {
                Err(format!("expected {lit:?} at byte {}", self.at))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.space();
            match self.src.get(self.at) {
                Some(b'{') => {
                    self.at += 1;
                    let mut fields = Vec::new();
                    self.space();
                    if self.eat("}") {
                        return Ok(Value::Obj(fields));
                    }
                    loop {
                        self.space();
                        let key = self.string()?;
                        self.expect(":")?;
                        fields.push((key, self.value()?));
                        self.space();
                        if self.eat("}") {
                            return Ok(Value::Obj(fields));
                        }
                        self.expect(",")?;
                    }
                }
                Some(b'[') => {
                    self.at += 1;
                    let mut items = Vec::new();
                    self.space();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.space();
                        if self.eat("]") {
                            return Ok(Value::Arr(items));
                        }
                        self.expect(",")?;
                    }
                }
                Some(b'"') => self.string().map(Value::Str),
                _ if self.eat("true") => Ok(Value::Bool(true)),
                _ if self.eat("false") => Ok(Value::Bool(false)),
                _ if self.eat("null") => Ok(Value::Null),
                _ => {
                    let start = self.at;
                    while self
                        .src
                        .get(self.at)
                        .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                    {
                        self.at += 1;
                    }
                    std::str::from_utf8(&self.src[start..self.at])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .map(Value::Num)
                        .ok_or_else(|| format!("bad value at byte {start}"))
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return Err(format!("expected a string at byte {}", self.at));
            }
            let mut out = Vec::new();
            loop {
                let b = *self.src.get(self.at).ok_or("unterminated string")?;
                self.at += 1;
                match b {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    b'\\' => {
                        let e = *self.src.get(self.at).ok_or("unterminated escape")?;
                        self.at += 1;
                        match e {
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex = self.src.get(self.at..self.at + 4).ok_or("short \\u")?;
                                let code = std::str::from_utf8(hex)
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or("bad \\u escape")?;
                                self.at += 4;
                                out.extend(code.to_string().bytes());
                            }
                            other => out.push(other),
                        }
                    }
                    other => out.push(other),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::{parse, Value};
    use super::*;

    #[test]
    fn round_trips_plain_names_numbers_and_strings() {
        let names = [
            "sim_write_p99_ms",
            "core.pipeline.plan_io.ns_per_call",
            "ior-rand-16k-s16",
            "A.b-C_9",
        ];
        let values = [1.2034, 0.1 + 0.2, 131072.0, 1e-9];
        let mut obj = Obj::new();
        for (n, v) in names.iter().zip(values) {
            obj = obj.num(n, v);
        }
        let text = obj
            .str("why", "say \"hi\"\\ \n\ttab \u{1} µs")
            .int("attempted", u64::MAX)
            .bool("correct", true)
            .raw("list", &array(["1".into(), string("x")]))
            .finish();
        let back = parse(&text).expect("emitter output parses");
        for (n, v) in names.iter().zip(values) {
            assert_eq!(back.get(n).and_then(Value::as_f64), Some(v), "{n}");
        }
        assert_eq!(
            back.get("why").and_then(Value::as_str),
            Some("say \"hi\"\\ \n\ttab \u{1} µs")
        );
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(back.get("list").map(Value::items).map(<[_]>::len), Some(2));
        assert_eq!(back.keys().len(), names.len() + 4);
    }

    #[test]
    #[should_panic(expected = "not a plain name")]
    fn rejects_a_key_that_would_need_escaping() {
        let _ = Obj::new().num("latency \"ms\"", 1.0);
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn rejects_nan() {
        let _ = number(f64::NAN);
    }
}
