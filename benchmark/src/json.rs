//! Just enough JSON to write results (the workspace's `serde` is a
//! marker-only stub), plus a strict parser the tests use to check that
//! what was written is well formed.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl Json {
    /// One line, no spaces after separators except one after `:` and `,`.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level, newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // worth seeing in the file rather than hiding.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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
}

#[cfg(test)]
pub mod parse {
    use super::Json;

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes at {at}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], at: &mut usize) {
        while *at < b.len() && b[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn expect(b: &[u8], at: &mut usize, lit: &str) -> Result<(), String> {
        if b[*at..].starts_with(lit.as_bytes()) {
            *at += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at {at}"))
        }
    }

    fn value(b: &[u8], at: &mut usize) -> Result<Json, String> {
        skip_ws(b, at);
        match b.get(*at) {
            None => Err("unexpected end".into()),
            Some(b'n') => expect(b, at, "null").map(|()| Json::Null),
            Some(b't') => expect(b, at, "true").map(|()| Json::Bool(true)),
            Some(b'f') => expect(b, at, "false").map(|()| Json::Bool(false)),
            Some(b'"') => string(b, at).map(Json::Str),
            Some(b'[') => {
                *at += 1;
                let mut items = Vec::new();
                skip_ws(b, at);
                if b.get(*at) == Some(&b']') {
                    *at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(value(b, at)?);
                    skip_ws(b, at);
                    match b.get(*at) {
                        Some(b',') => *at += 1,
                        Some(b']') => {
                            *at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at {at}")),
                    }
                }
            }
            Some(b'{') => {
                *at += 1;
                let mut fields = Vec::new();
                skip_ws(b, at);
                if b.get(*at) == Some(&b'}') {
                    *at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(b, at);
                    let key = string(b, at)?;
                    skip_ws(b, at);
                    expect(b, at, ":")?;
                    fields.push((key, value(b, at)?));
                    skip_ws(b, at);
                    match b.get(*at) {
                        Some(b',') => *at += 1,
                        Some(b'}') => {
                            *at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at {at}")),
                    }
                }
            }
            Some(_) => {
                let start = *at;
                while *at < b.len()
                    && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *at += 1;
                }
                std::str::from_utf8(&b[start..*at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
        }
    }

    fn string(b: &[u8], at: &mut usize) -> Result<String, String> {
        if b.get(*at) != Some(&b'"') {
            return Err(format!("expected string at {at}"));
        }
        *at += 1;
        let mut out = Vec::new();
        loop {
            match b.get(*at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *b.get(*at + 1).ok_or("unterminated escape")?;
                    *at += 2;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = b.get(*at..*at + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            *at += 4;
                            out.extend(code.to_string().bytes());
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(&c) if c < 0x20 => return Err("raw control character in string".into()),
                Some(&c) => {
                    out.push(c);
                    *at += 1;
                }
            }
        }
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::parse;
    use super::*;

    #[test]
    fn what_is_written_parses_back() {
        let v = obj([
            ("correct", true.into()),
            ("attempted", 12usize.into()),
            ("name", "a \"quoted\"\nline\\".into()),
            ("nan", Json::Num(f64::NAN)),
            (
                "metrics",
                obj([(
                    "latency_ms",
                    obj([("value", 1.2034.into()), ("unit", "ms".into())]),
                )]),
            ),
            ("empty", Json::Arr(vec![])),
            ("list", Json::Arr(vec![1.5.into(), Json::Null])),
        ]);
        for text in [v.line(), v.pretty()] {
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(back.get("attempted"), Some(&Json::Num(12.0)));
            assert_eq!(back.get("nan"), Some(&Json::Null));
            assert_eq!(
                back.get("name"),
                Some(&Json::Str("a \"quoted\"\nline\\".into()))
            );
        }
        assert!(!v.line().contains('\n'));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
    }
}
