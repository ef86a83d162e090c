//! Lexical layer of the wire format: line/token iteration on the read
//! side, string quoting on the write side.
//!
//! A body line is a sequence of whitespace-separated tokens. Bare tokens
//! carry numbers, addresses, keywords and punctuation-free atoms; quoted
//! tokens (`"…"` with `\\`, `\"`, `\n`, `\r`, `\t` and `\u{…}` escapes)
//! carry arbitrary names, so every Rust `String` round-trips — including
//! embedded newlines and quotes. Leading indentation is cosmetic and
//! ignored; blank lines and lines starting with `;` are skipped.

use crate::error::{perr, IoError};
use net_model::{Ipv4Addr, Ipv4Prefix};

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// A bare (unquoted) token.
    Word(String),
    /// A quoted string, unescaped.
    Str(String),
    /// A command-line word: the shell already did the quoting, so it
    /// satisfies bare-word and quoted-string positions alike.
    Arg(String),
}

/// Quotes and escapes a string for the wire.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{{{:x}}}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lexes one line into tokens.
pub(crate) fn lex_line(line: &str, line_no: usize) -> Result<Vec<Tok>, IoError> {
    let mut toks = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        let Some(&c) = chars.peek() else { break };
        if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    None => return Err(perr(line_no, "unterminated string")),
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        Some('r') => s.push('\r'),
                        Some('t') => s.push('\t'),
                        Some('u') => {
                            if chars.next() != Some('{') {
                                return Err(perr(line_no, "bad \\u escape: expected '{'"));
                            }
                            let mut hex = String::new();
                            loop {
                                match chars.next() {
                                    Some('}') => break,
                                    Some(h) if h.is_ascii_hexdigit() => hex.push(h),
                                    _ => return Err(perr(line_no, "bad \\u escape digits")),
                                }
                            }
                            let v = u32::from_str_radix(&hex, 16)
                                .map_err(|_| perr(line_no, "bad \\u escape value"))?;
                            let c = char::from_u32(v)
                                .ok_or_else(|| perr(line_no, "\\u escape is not a char"))?;
                            s.push(c);
                        }
                        other => {
                            return Err(perr(line_no, format!("unknown escape {other:?}")));
                        }
                    },
                    Some(c) => s.push(c),
                }
            }
            toks.push(Tok::Str(s));
        } else {
            let mut w = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() || c == '"' {
                    break;
                }
                w.push(c);
                chars.next();
            }
            toks.push(Tok::Word(w));
        }
    }
    Ok(toks)
}

/// A cursor over the tokens of one line, with typed getters that produce
/// located [`IoError::Parse`] failures.
pub(crate) struct Cursor {
    toks: std::vec::IntoIter<Tok>,
    /// 1-based line number, for error messages.
    pub line: usize,
}

impl Cursor {
    pub(crate) fn new(toks: Vec<Tok>, line: usize) -> Self {
        Cursor {
            toks: toks.into_iter(),
            line,
        }
    }

    fn next_tok(&mut self, what: &str) -> Result<Tok, IoError> {
        self.toks
            .next()
            .ok_or_else(|| perr(self.line, format!("expected {what}, found end of line")))
    }

    /// Next token as a bare word.
    pub(crate) fn word(&mut self, what: &str) -> Result<String, IoError> {
        match self.next_tok(what)? {
            Tok::Word(w) | Tok::Arg(w) => Ok(w),
            Tok::Str(s) => Err(perr(
                self.line,
                format!("expected {what}, found string {s:?}"),
            )),
        }
    }

    /// Next token must be this exact bare word.
    pub(crate) fn expect(&mut self, kw: &str) -> Result<(), IoError> {
        let w = self.word(&format!("keyword {kw:?}"))?;
        if w == kw {
            Ok(())
        } else {
            Err(perr(
                self.line,
                format!("expected keyword {kw:?}, found {w:?}"),
            ))
        }
    }

    /// Next token as a quoted string.
    pub(crate) fn string(&mut self, what: &str) -> Result<String, IoError> {
        match self.next_tok(what)? {
            Tok::Str(s) | Tok::Arg(s) => Ok(s),
            Tok::Word(w) => Err(perr(
                self.line,
                format!("expected quoted {what}, found {w:?}"),
            )),
        }
    }

    /// `-` for `None`, a quoted string for `Some`.
    pub(crate) fn opt_string(&mut self, what: &str) -> Result<Option<String>, IoError> {
        match self.next_tok(what)? {
            Tok::Word(w) | Tok::Arg(w) if w == "-" => Ok(None),
            Tok::Str(s) | Tok::Arg(s) => Ok(Some(s)),
            Tok::Word(w) => Err(perr(
                self.line,
                format!("expected quoted {what} or '-', found {w:?}"),
            )),
        }
    }

    /// Next token parsed with `FromStr`.
    pub(crate) fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, IoError> {
        let w = self.word(what)?;
        w.parse()
            .map_err(|_| perr(self.line, format!("bad {what}: {w:?}")))
    }

    /// IPv4 address token.
    pub(crate) fn ip(&mut self, what: &str) -> Result<Ipv4Addr, IoError> {
        self.parse(what)
    }

    /// IPv4 prefix token (`a.b.c.d/len`).
    pub(crate) fn prefix(&mut self, what: &str) -> Result<Ipv4Prefix, IoError> {
        self.parse(what)
    }

    /// Comma-separated `u32` list token, `-` for empty.
    pub(crate) fn u32_list(&mut self, what: &str) -> Result<Vec<u32>, IoError> {
        let w = self.word(what)?;
        if w == "-" {
            return Ok(Vec::new());
        }
        w.split(',')
            .map(|p| {
                p.parse()
                    .map_err(|_| perr(self.line, format!("bad {what} element {p:?}")))
            })
            .collect()
    }

    /// Whether any tokens remain.
    pub(crate) fn at_end(&self) -> bool {
        self.toks.as_slice().is_empty()
    }

    /// Asserts the line is fully consumed.
    pub(crate) fn finish(mut self) -> Result<(), IoError> {
        match self.toks.next() {
            None => Ok(()),
            Some(Tok::Word(t) | Tok::Str(t) | Tok::Arg(t)) => {
                Err(perr(self.line, format!("trailing token {t:?}")))
            }
        }
    }
}

/// Iterates body lines of an artifact: skips blanks and `;` comments,
/// tracks line numbers, and lexes each remaining line.
pub(crate) struct Lines<'a> {
    inner: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Lines {
            inner: text.lines().enumerate(),
        }
    }

    /// The next meaningful line as a [`Cursor`], or `None` at end of input.
    pub(crate) fn next_cursor(&mut self) -> Result<Option<Cursor>, IoError> {
        for (idx, raw) in self.inner.by_ref() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with(';') {
                continue;
            }
            let toks = lex_line(trimmed, idx + 1)?;
            return Ok(Some(Cursor::new(toks, idx + 1)));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_round_trips_awkward_strings() {
        for s in [
            "plain",
            "with space",
            "quo\"te",
            "back\\slash",
            "new\nline",
            "tab\there",
            "bell\u{7}",
            "uni—code ✓",
            "",
        ] {
            let quoted = quote(s);
            let toks = lex_line(&quoted, 1).unwrap();
            assert_eq!(toks, vec![Tok::Str(s.to_string())], "for {s:?}");
        }
    }

    #[test]
    fn words_and_strings_mix() {
        let toks = lex_line("iface \"eth0\" 10.0.0.1 -", 3).unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Word("iface".into()),
                Tok::Str("eth0".into()),
                Tok::Word("10.0.0.1".into()),
                Tok::Word("-".into()),
            ]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(matches!(
            lex_line("\"oops", 7),
            Err(IoError::Parse { line: 7, .. })
        ));
    }

    #[test]
    fn cursor_typed_getters() {
        let toks = lex_line("static 10.0.0.0/8 via 1.2.3.4 ad 1", 1).unwrap();
        let mut c = Cursor::new(toks, 1);
        c.expect("static").unwrap();
        assert_eq!(c.prefix("prefix").unwrap(), net_model::pfx("10.0.0.0/8"));
        c.expect("via").unwrap();
        assert_eq!(c.ip("next hop").unwrap(), net_model::ip("1.2.3.4"));
        c.expect("ad").unwrap();
        assert_eq!(c.parse::<u8>("distance").unwrap(), 1);
        c.finish().unwrap();
    }

    #[test]
    fn trailing_tokens_rejected() {
        let toks = lex_line("drop extra", 2).unwrap();
        let mut c = Cursor::new(toks, 2);
        c.expect("drop").unwrap();
        assert!(c.finish().is_err());
    }
}
