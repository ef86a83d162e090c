//! Lexical layer of the wire format: line/token iteration on the read
//! side, string quoting on the write side.
//!
//! A body line is a sequence of whitespace-separated tokens. Bare tokens
//! carry numbers, addresses, keywords and punctuation-free atoms; quoted
//! tokens (`"…"` with `\\`, `\"`, `\n`, `\r`, `\t` and `\u{…}` escapes)
//! carry arbitrary names, so every Rust `String` round-trips — including
//! embedded newlines and quotes. Leading indentation is cosmetic and
//! ignored; blank lines and lines starting with `;` are skipped.
//!
//! On top of the tokens sit the read-side primitives every artifact
//! parser is written in: [`Lines::body`], the one loop that walks a
//! block of lines to its terminator, and the keyed getters of
//! [`Cursor`] (`kv`, `kvs`, `kv_opt`, `trailing`, `choice`, `on_off`,
//! `ascending`) that state a row's shape once, keyword and value
//! together.

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
        let found = match self.toks.next() {
            Some(Tok::Word(w) | Tok::Arg(w)) if w == kw => return Ok(()),
            Some(Tok::Word(t) | Tok::Str(t) | Tok::Arg(t)) => format!("{t:?}"),
            None => "end of line".into(),
        };
        Err(perr(
            self.line,
            format!("expected keyword {kw:?}, found {found}"),
        ))
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

    /// `<kw> <value>`: a keyword and the value it names.
    pub(crate) fn kv<T: std::str::FromStr>(&mut self, kw: &str, what: &str) -> Result<T, IoError> {
        self.expect(kw)?;
        self.parse(what)
    }

    /// `<kw> "<string>"`: a keyword and the quoted string it names.
    pub(crate) fn kv_string(&mut self, kw: &str, what: &str) -> Result<String, IoError> {
        self.expect(kw)?;
        self.string(what)
    }

    /// A flat run of `<name> <u64>` pairs, in the order of the row's
    /// name table — the read side of [`crate::codec::kvs`], which walks
    /// the same table to write the run.
    pub(crate) fn kvs<const N: usize>(&mut self, names: &[&str; N]) -> Result<[u64; N], IoError> {
        let mut values = [0; N];
        for (name, v) in names.iter().zip(&mut values) {
            *v = self.kv(name, name)?;
        }
        Ok(values)
    }

    /// `<kw> -` for `None`, `<kw> <value>` for `Some`; `parse` reads the
    /// value token.
    pub(crate) fn kv_opt<T>(
        &mut self,
        kw: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, IoError> {
        self.expect(kw)?;
        let w = self.word(what)?;
        if w == "-" {
            return Ok(None);
        }
        match parse(&w) {
            Some(v) => Ok(Some(v)),
            None => Err(perr(self.line, format!("bad {what}: {w:?}"))),
        }
    }

    /// A trailing optional marker: nothing more on the line is `None`,
    /// otherwise the `marker` keyword (when one is named) must introduce
    /// whatever `get` reads. Markers are written only when set, so rows
    /// without one keep their bytes.
    pub(crate) fn trailing<T>(
        &mut self,
        marker: &str,
        get: impl FnOnce(&mut Self) -> Result<T, IoError>,
    ) -> Result<Option<T>, IoError> {
        if self.at_end() {
            return Ok(None);
        }
        if !marker.is_empty() {
            self.expect(marker)?;
        }
        get(self).map(Some)
    }

    /// Next token must be one of a closed set of words; returns the
    /// value paired with the word found.
    pub(crate) fn choice<T: Copy>(&mut self, choices: &[(&str, T)]) -> Result<T, IoError> {
        let w = self.word("a keyword")?;
        match choices.iter().find(|(word, _)| *word == w) {
            Some((_, v)) => Ok(*v),
            None => {
                let words: Vec<&str> = choices.iter().map(|(word, _)| *word).collect();
                let expected = words.join("|");
                Err(perr(self.line, format!("expected {expected}, found {w:?}")))
            }
        }
    }

    /// `on` | `off`.
    pub(crate) fn on_off(&mut self) -> Result<bool, IoError> {
        self.choice(&[("on", true), ("off", false)])
    }

    /// The strictly-sorted-rows guard: canonical encodings order their
    /// rows, and a parser rejects a row whose `key` does not sort after
    /// the previous row's rather than resorting.
    pub(crate) fn ascending<K: PartialOrd>(
        &self,
        prev: Option<K>,
        key: K,
        what: &str,
    ) -> Result<(), IoError> {
        match prev {
            Some(p) if p >= key => Err(perr(
                self.line,
                format!("{what} must be strictly ascending"),
            )),
            _ => Ok(()),
        }
    }

    /// Whether any tokens remain.
    pub(crate) fn at_end(&self) -> bool {
        self.toks.as_slice().is_empty()
    }

    /// Asserts the line is fully consumed.
    pub(crate) fn finish(&mut self) -> Result<(), IoError> {
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

    /// The next meaningful line where the grammar requires one (a
    /// status line, a fixed-shape payload line): end of input is a
    /// truncation still waiting for `what`.
    pub(crate) fn line(&mut self, what: &str) -> Result<Cursor, IoError> {
        self.next_cursor()?.ok_or_else(|| IoError::Truncated {
            expected: what.into(),
        })
    }

    /// The one body loop of the format. Hands every meaningful line up
    /// to the `terminator` word to `on_line` as `(first keyword, rest of
    /// the line, the lines that follow)` — a handler opens a nested
    /// block by calling `body` again on the lines it is given — and
    /// requires each line to be fully consumed when its handler returns.
    /// End of input before the terminator is [`IoError::Truncated`]; the
    /// artifact sentinel `end` must also be the last meaningful line of
    /// the input.
    pub(crate) fn body(
        &mut self,
        what: &str,
        terminator: &str,
        mut on_line: impl FnMut(&str, &mut Cursor, &mut Self) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        loop {
            let Some(mut c) = self.next_cursor()? else {
                return Err(IoError::Truncated {
                    expected: if terminator == "end" {
                        format!("end sentinel of the {what} artifact")
                    } else {
                        format!("{terminator} terminator of the {what}")
                    },
                });
            };
            let kw = c.word("keyword")?;
            if kw != terminator {
                on_line(&kw, &mut c, self)?;
                c.finish()?;
                continue;
            }
            c.finish()?;
            if terminator == "end" {
                if let Some(after) = self.next_cursor()? {
                    return Err(perr(after.line, "content after end sentinel"));
                }
            }
            return Ok(());
        }
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

    #[test]
    fn keyed_getters_read_keyword_and_value_together() {
        const FIELDS: [&str; 2] = ["epochs", "flows"];
        let toks = lex_line(
            "session \"s\" epochs 4 flows 7 budget - verify on label \"x\"",
            9,
        );
        let mut c = Cursor::new(toks.unwrap(), 9);
        assert_eq!(c.kv_string("session", "session name").unwrap(), "s");
        assert_eq!(c.kvs(&FIELDS).unwrap(), [4, 7]);
        let budget = c.kv_opt("budget", "byte budget", |w| w.parse::<u64>().ok());
        assert_eq!(budget.unwrap(), None);
        c.expect("verify").unwrap();
        assert!(c.on_off().unwrap());
        let label = c.trailing("label", |c| c.string("label")).unwrap();
        assert_eq!(label.as_deref(), Some("x"));
        assert_eq!(c.trailing("label", |c| c.string("label")).unwrap(), None);
        c.finish().unwrap();
        // A wrong keyword, a word outside a closed set and an unsorted
        // row are all parse errors at the cursor's line.
        let mut c = Cursor::new(lex_line("flows 4 maybe", 9).unwrap(), 9);
        assert!(matches!(
            c.kvs(&FIELDS),
            Err(IoError::Parse { line: 9, .. })
        ));
        assert!(matches!(c.on_off(), Err(IoError::Parse { line: 9, .. })));
        assert!(c.ascending(Some("a"), "b", "rows").is_ok());
        assert!(matches!(
            c.ascending(Some("b"), "b", "rows"),
            Err(IoError::Parse { line: 9, .. })
        ));
    }

    #[test]
    fn body_walks_nested_blocks_to_their_terminators() {
        let text = "open\n  row 1\n  close\nrow 2\nend\n; note\n";
        let mut seen = Vec::new();
        let mut lines = Lines::new(text);
        lines
            .body("sample", "end", |kw, c, lines| match kw {
                "open" => lines.body("block", "close", |_, c, _| {
                    seen.push((c.line, c.parse::<u32>("n")?));
                    Ok(())
                }),
                _ => {
                    seen.push((c.line, c.parse::<u32>("n")?));
                    Ok(())
                }
            })
            .unwrap();
        assert_eq!(seen, vec![(2, 1), (4, 2)]);
        // End of input inside a block names the block's terminator.
        let mut lines = Lines::new("open\n  row 1\n");
        let err = lines.body("sample", "end", |_, _, lines| {
            lines.body("block", "close", |_, c, _| c.parse::<u32>("n").map(drop))
        });
        assert_eq!(
            err,
            Err(IoError::Truncated {
                expected: "close terminator of the block".into()
            })
        );
    }
}
