//! A small Rust lexer: the foundation the whole analyzer stands on.
//!
//! The linter used to strip comments and string contents line by line,
//! which broke on everything that spans lines or nests: raw strings
//! (`r#"…"#` with an odd number of quotes inside hid the rest of the
//! line), nested block comments (`/* /* */ */`), and multi-line string
//! literals. This module lexes whole files instead, producing
//!
//! * a token stream ([`Tok`]) with 1-based line numbers — what every
//!   rule matches against, and
//! * the text of every line comment — where inline suppressions live.
//!
//! The lexer is deliberately not a full Rust frontend: it distinguishes
//! identifiers, lifetimes, literals and single-character punctuation,
//! and that is enough. Multi-character operators (`::`, `=>`, `==`) are
//! matched as punctuation sequences by [`find_seq`].

/// Token classes the analyzer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `SystemTime`, `unwrap`).
    Ident,
    /// Lifetime (`'a`, `'static`) — kept distinct so `&'static str`
    /// never looks like a `static` item.
    Lifetime,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`); `text`
    /// holds the literal contents, unescaped only trivially.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal.
    Num,
    /// One punctuation character (`.` `:` `(` …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: Kind,
    /// Identifier text, literal contents, or the punctuation character.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Is this a punctuation token with exactly this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }
}

/// The result of lexing one file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// The token stream, in source order.
    pub tokens: Vec<Tok>,
    /// Every `//` line comment (doc comments included): its 1-based line
    /// and the text after the two slashes.
    pub comments: Vec<(usize, String)>,
}

/// Lex `content` into tokens plus line comments.
pub fn lex(content: &str) -> Lexed {
    Lexer::new(content).run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    tokens: Vec<Tok>,
    comments: Vec<(usize, String)>,
}

impl Lexer {
    fn new(content: &str) -> Lexer {
        Lexer {
            chars: content.chars().collect(),
            i: 0,
            line: 1,
            tokens: Vec::new(),
            comments: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consume one character, maintaining the line counter.
    fn bump(&mut self) -> Option<char> {
        let c = *self.chars.get(self.i)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push_tok(&mut self, kind: Kind, text: String, line: usize) {
        self.tokens.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('/') {
                // Line comment (incl. doc): drop up to the newline.
                let end = self.chars[self.i..].iter().position(|&c| c == '\n');
                let end = end.map_or(self.chars.len(), |n| self.i + n);
                let text = self.chars[self.i + 2..end].iter().collect();
                self.comments.push((self.line, text));
                self.i = end;
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string_literal(false, 0);
            } else if c == '\'' {
                self.char_or_lifetime();
            } else if c.is_ascii_digit() {
                self.number();
            } else if c.is_alphabetic() || c == '_' {
                self.ident_or_prefixed_literal();
            } else {
                let line = self.line;
                self.bump();
                if !c.is_whitespace() {
                    self.push_tok(Kind::Punct, c.to_string(), line);
                }
            }
        }
        Lexed {
            tokens: self.tokens,
            comments: self.comments,
        }
    }

    /// Nested block comment: `/* /* */ */` must consume both closers.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// A (possibly raw) string literal; `hashes` is the `#` count for
    /// raw strings, 0 plus `raw = false` for ordinary ones.
    fn string_contents(&mut self, raw: bool, hashes: usize) -> String {
        let mut text = String::new();
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some('\\') if !raw => {
                    self.bump();
                    if let Some(e) = self.peek(0) {
                        text.push(e);
                        self.bump();
                    }
                }
                Some('"') => {
                    if raw {
                        // Need `"` followed by `hashes` hashes.
                        let mut ok = true;
                        for h in 0..hashes {
                            if self.peek(1 + h) != Some('#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            self.bump();
                            for _ in 0..hashes {
                                self.bump();
                            }
                            break;
                        }
                        text.push('"');
                        self.bump();
                    } else {
                        self.bump();
                        break;
                    }
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        text
    }

    fn string_literal(&mut self, raw: bool, hashes: usize) {
        let line = self.line;
        let text = self.string_contents(raw, hashes);
        self.push_tok(Kind::Str, text, line);
    }

    /// Raw-string opener after an `r`/`br` prefix: `#…#"`. Returns the
    /// hash count, or `None` if this is not a raw string after all.
    fn raw_opener(&mut self) -> Option<usize> {
        let mut hashes = 0;
        while self.peek(hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(hashes) == Some('"') {
            for _ in 0..hashes {
                self.bump();
            }
            Some(hashes)
        } else {
            None
        }
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Lifetime: `'ident` not followed by a closing quote.
        if self.peek(1).is_some_and(|c| c.is_alphabetic() || c == '_') {
            let mut len = 1;
            while self
                .peek(1 + len)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                len += 1;
            }
            if self.peek(1 + len) != Some('\'') {
                self.bump(); // '
                let mut name = String::new();
                for _ in 0..len {
                    if let Some(c) = self.peek(0) {
                        name.push(c);
                    }
                    self.bump();
                }
                self.push_tok(Kind::Lifetime, name, line);
                return;
            }
        }
        // Char literal: consume to the closing quote, honoring escapes.
        self.bump();
        let mut text = String::new();
        loop {
            match self.peek(0) {
                None => break,
                Some('\\') => {
                    self.bump();
                    if let Some(e) = self.peek(0) {
                        text.push(e);
                        self.bump();
                    }
                }
                Some('\'') => {
                    self.bump();
                    break;
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        self.push_tok(Kind::Char, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !text.contains('.')
            {
                // `1.5`, but not the range `0..n`.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_tok(Kind::Num, text, line);
    }

    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Raw/byte string or byte-char prefixes: r"", r#""#, b"", br"", b''.
        let is_prefix = matches!(text.as_str(), "r" | "b" | "br" | "rb");
        if is_prefix {
            match self.peek(0) {
                Some('"') => {
                    // A 0-hash raw string (`r"…"`/`br"…"`) still
                    // disables escape processing.
                    self.string_literal(text.contains('r'), 0);
                    return;
                }
                Some('#') if text.contains('r') => {
                    if let Some(hashes) = self.raw_opener() {
                        self.string_literal(true, hashes);
                        return;
                    }
                }
                Some('\'') if text == "b" => {
                    self.char_or_lifetime();
                    return;
                }
                _ => {}
            }
        }
        self.push_tok(Kind::Ident, text, line);
    }
}

/// Compile a pattern string (`.unwrap()`, `Instant::now(`) into the
/// token sequence it must match. The pattern is lexed with the same
/// lexer, so spacing and line breaks in the source cannot defeat it.
pub fn compile(pattern: &str) -> Vec<Tok> {
    lex(pattern).tokens
}

/// Does `tokens[at..]` start with the token sequence `pat`
/// (kind + text equality)?
pub fn match_at(tokens: &[Tok], at: usize, pat: &[Tok]) -> bool {
    if at + pat.len() > tokens.len() {
        return false;
    }
    pat.iter()
        .zip(&tokens[at..])
        .all(|(p, t)| p.kind == t.kind && p.text == t.text)
}

/// All start indices where `pat` occurs in `tokens`.
pub fn find_seq(tokens: &[Tok], pat: &[Tok]) -> Vec<usize> {
    if pat.is_empty() {
        return Vec::new();
    }
    (0..tokens.len())
        .filter(|&i| match_at(tokens, i, pat))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_removed() {
        assert_eq!(idents("let x = 1; // Instant::now()"), ["let", "x"]);
        assert_eq!(
            idents("let p = \".unwrap()\"; p.len()"),
            ["let", "p", "p", "len"]
        );
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        // The old line stripper never handled these at all.
        assert_eq!(
            idents("/* outer /* inner */ still */ x.unwrap()"),
            ["x", "unwrap"]
        );
        assert_eq!(idents("/* /* \" */ */ y()"), ["y"]);
    }

    #[test]
    fn raw_strings_hide_contents_not_code() {
        // An odd number of quotes inside a raw string used to flip the
        // stripper's in-string state and swallow the rest of the line.
        assert_eq!(
            idents(r##"let a = r#"with a " quote"#; foo.unwrap();"##),
            ["let", "a", "foo", "unwrap"]
        );
    }

    #[test]
    fn zero_hash_raw_strings_disable_escapes() {
        // In `r"a\"` the backslash is literal and the quote closes the
        // string; escape processing would swallow the closer and lex
        // the rest of the file as string contents.
        assert_eq!(
            idents(r#"let re = r"a\"; b.unwrap()"#),
            ["let", "re", "b", "unwrap"]
        );
        assert_eq!(idents(r#"let re = r"\d+"; ok()"#), ["let", "re", "ok"]);
    }

    #[test]
    fn multi_line_strings_span_lines() {
        let src = "let s = \"line one\n  SystemTime::now()\n\"; s.len()";
        assert_eq!(idents(src), ["let", "s", "s", "len"]);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let toks = lex("if c == '\"' { x::<'a>() }").tokens;
        assert!(toks.iter().any(|t| t.kind == Kind::Char && t.text == "\""));
        assert!(toks
            .iter()
            .any(|t| t.kind == Kind::Lifetime && t.text == "a"));
        let toks = lex("let n = '\\n'; y()").tokens;
        assert!(toks.iter().any(|t| t.kind == Kind::Char));
        assert!(toks.iter().any(|t| t.is_ident("y")));
        // `&'static str` is a lifetime, never a `static` item.
        let toks = lex("fn f(s: &'static str) {}").tokens;
        assert!(!toks.iter().any(|t| t.is_ident("static")));
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let toks = lex("a\nb\n\nc").tokens;
        let lines: Vec<(String, usize)> = toks.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(
            lines,
            [
                ("a".to_owned(), 1),
                ("b".to_owned(), 2),
                ("c".to_owned(), 4)
            ]
        );
    }

    #[test]
    fn patterns_match_across_formatting() {
        let pat = compile(".unwrap()");
        let toks = lex("x\n    .unwrap\n    ()").tokens;
        assert_eq!(find_seq(&toks, &pat).len(), 1);
        let pat = compile("Instant::now(");
        let toks = lex("let t = Instant :: now ( );").tokens;
        assert_eq!(find_seq(&toks, &pat).len(), 1);
    }
}
