//! A minimal Rust lexer: just enough fidelity for lint-rule matching.
//!
//! Produces an ident/punct/literal token stream with line:column spans,
//! plus the comment stream (comments carry `// SAFETY:` markers and
//! `// detlint: allow(...)` annotations, so they are first-class here
//! rather than discarded). Handles the lexical constructs that would
//! otherwise break naive scanning: nested block comments, string and
//! raw-string literals (including byte and raw-byte forms), char
//! literals vs. lifetimes, and raw identifiers.
//!
//! Deliberately *not* a full lexer: numeric literals are lexed loosely
//! (`1.5` comes out as two literals and a dot) because no rule matches
//! inside numbers, and float syntax would complicate range expressions
//! like `0..n`.

/// What a token is; the engine mostly matches on idents and puncts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `unsafe`, `HashMap`, ...).
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:`).
    Punct(char),
    /// String/char/number literal (contents irrelevant to rules).
    Literal,
    /// Lifetime such as `'a` (kept distinct so `'a` is not a char).
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// The identifier text, if this token is an ident.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(i) if i == s)
    }

    /// True when the token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment with its position. `trailing` is true when code precedes
/// the comment on the same line (a trailing `// detlint: allow(...)`
/// annotates its own line; a standalone one annotates the next).
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    pub col: u32,
    pub trailing: bool,
}

/// Lexer output: the token stream and the comment stream, both in
/// source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Never fails: unterminated constructs simply run to
/// end of input (the lint is best-effort on malformed files; rustc owns
/// real syntax errors).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! advance {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            advance!(1);
            continue;
        }
        let (tline, tcol) = (line, col);
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                advance!(1);
            }
            out.comments.push(Comment {
                text: src[start..i].to_string(),
                line: tline,
                col: tcol,
                trailing: false, // classified in the post-pass below
            });
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    advance!(2);
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    advance!(2);
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else {
                    advance!(1);
                }
            }
            out.comments.push(Comment {
                text: src[start..i.min(src.len())].to_string(),
                line: tline,
                col: tcol,
                trailing: false, // classified in the post-pass below
            });
            continue;
        }
        // Raw strings / raw idents / byte strings: r"..", r#".."#,
        // br".."), b"..", b'x', and raw identifiers r#ident.
        if c == b'r' || c == b'b' {
            // Find the shape: optional b, optional r, then hashes+quote.
            let mut j = i;
            let mut saw_r = false;
            if b[j] == b'b' {
                j += 1;
            }
            if j < b.len() && b[j] == b'r' {
                saw_r = true;
                j += 1;
            }
            let mut hashes = 0usize;
            while saw_r && j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            // r#ident (raw identifier): consume `r#`, then lex the ident.
            if c == b'r' && saw_r && hashes > 0 && j < b.len() && b[j].is_ascii_alphabetic() {
                advance!(2);
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    advance!(1);
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident(src[start..i].to_string()),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            if saw_r && j < b.len() && b[j] == b'"' {
                // Raw string: runs to `"` followed by `hashes` hashes.
                advance!(j - i + 1);
                loop {
                    if i >= b.len() {
                        break;
                    }
                    if b[i] == b'"' {
                        let mut k = i + 1;
                        let mut h = 0usize;
                        while h < hashes && k < b.len() && b[k] == b'#' {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            advance!(k - i);
                            break;
                        }
                    }
                    advance!(1);
                }
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            if c == b'b' && i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'\'') {
                // Byte string / byte char: skip the `b`, fall through to
                // the quote handling below on the next iteration.
                advance!(1);
                continue;
            }
            // Plain identifier starting with r/b: handled below.
        }
        // String literal.
        if c == b'"' {
            advance!(1);
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    advance!(1);
                }
                advance!(1);
            }
            advance!(1);
            out.tokens.push(Token {
                kind: TokKind::Literal,
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Char literal or lifetime.
        if c == b'\'' {
            let is_char = if i + 1 >= b.len() {
                false
            } else if b[i + 1] == b'\\' {
                true
            } else {
                i + 2 < b.len() && b[i + 2] == b'\''
            };
            if is_char {
                advance!(1);
                while i < b.len() && b[i] != b'\'' {
                    if b[i] == b'\\' {
                        advance!(1);
                    }
                    advance!(1);
                }
                advance!(1);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    line: tline,
                    col: tcol,
                });
            } else {
                advance!(1);
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    advance!(1);
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    line: tline,
                    col: tcol,
                });
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                advance!(1);
            }
            out.tokens.push(Token {
                kind: TokKind::Ident(src[start..i].to_string()),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Number literal (loose: digits and ident-continue chars; the
        // fractional dot is left to the punct stream on purpose).
        if c.is_ascii_digit() {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                advance!(1);
            }
            out.tokens.push(Token {
                kind: TokKind::Literal,
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Everything else: single punct char.
        advance!(1);
        out.tokens.push(Token {
            kind: TokKind::Punct(c as char),
            line: tline,
            col: tcol,
        });
    }
    // Post-pass: a comment is trailing when a token precedes it on its
    // own line (code first, then the comment).
    for c in &mut out.comments {
        c.trailing = out.tokens.iter().any(|t| t.line == c.line && t.col < c.col);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(String::from))
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("let x = 1; // trailing note\n/* block */ let y = 2;");
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].trailing);
        assert!(!l.comments[1].trailing);
        assert_eq!(idents("let x = 1; // let z"), vec!["let", "x"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"f("HashMap.iter()"); "#), vec!["f"]);
        assert_eq!(idents(r##"g(r#"Instant::now()"#);"##), vec!["g"]);
        assert_eq!(idents("h(b\"unsafe\");"), vec!["h"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let l = lex("let c = 'a'; fn f<'a>(x: &'a str) {}");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }

    #[test]
    fn nested_block_comment() {
        let l = lex("/* outer /* inner */ still */ x");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ x"), vec!["x"]);
    }
}
