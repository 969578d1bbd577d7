//! A small hand-rolled Rust lexer for the invariant linter.
//!
//! The container builds hermetically (no crates.io, so no `syn`); the
//! rules only need to know, for every byte of a source file, whether it
//! is *code*, a *comment*, or a *literal* — and, per line, whether the
//! line sits inside test-only code (`#[cfg(test)]` / `mod tests` /
//! `#[test]` spans). That is exactly what this module computes:
//!
//! - [`Lexed::masked`] is the source with every non-code byte blanked
//!   to a space (newlines kept), so rules can search for tokens without
//!   ever matching inside a comment or string literal;
//! - [`Lexed::spans`] records each non-code region with its
//!   [`Kind`] (used by the lexer round-trip property tests);
//! - [`Lexed::lines`] records per line the comment text and whether the
//!   line carries code, which powers the `// SAFETY:` and
//!   `// invariants: allow(...)` comment lookups;
//! - [`Lexed::test_ranges`] are the 1-based line ranges of test-only
//!   items, so rules scoped to *library* code can skip them.
//!
//! The lexer understands line comments, nested block comments, string
//! literals with escapes, byte strings, raw (byte) strings with any
//! number of `#`s, char literals, and the char-vs-lifetime ambiguity
//! (`'a'` is a literal, `'a` is code). It is byte-oriented: every
//! delimiter it cares about is ASCII, and non-ASCII bytes are treated
//! as identifier continuation so UTF-8 text never splits a token.

/// Classification of a non-code region of the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `// ...` (including `///` and `//!` doc comments).
    LineComment,
    /// `/* ... */`, nesting tracked.
    BlockComment,
    /// `"..."` or `b"..."` with escapes.
    Str,
    /// `r"..."`, `r#"..."#`, `br#"..."#` &c.
    RawStr,
    /// `'x'`, `b'x'`, `'\n'` — but not lifetimes.
    Char,
}

/// One non-code region: byte range `start..end` of the original text.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the region is.
    pub kind: Kind,
    /// Byte offset of the first byte (inclusive).
    pub start: usize,
    /// Byte offset past the last byte (exclusive).
    pub end: usize,
}

/// Per-line facts derived after lexing.
#[derive(Clone, Debug, Default)]
pub struct LineInfo {
    /// The line has at least one non-whitespace code byte.
    pub has_code: bool,
    /// The line's only code is an attribute (`#[...]`), so comment
    /// lookups (SAFETY, waivers) may walk past it.
    pub attr_only: bool,
    /// Concatenated comment text on this line, delimiters stripped.
    pub comment: String,
}

/// The result of lexing one source file.
pub struct Lexed {
    /// Source with comment/literal bytes blanked to spaces; newlines
    /// and code bytes are preserved, so byte offsets and line numbers
    /// match the original text exactly.
    pub masked: String,
    /// Every non-code region, in source order.
    pub spans: Vec<Span>,
    /// Per-line facts; index 0 is line 1.
    pub lines: Vec<LineInfo>,
    /// Byte offset of the start of each line.
    pub line_starts: Vec<usize>,
    /// 1-based inclusive line ranges of test-only code.
    pub test_ranges: Vec<(usize, usize)>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// Scans a `"..."` literal with escapes; `i` is at the opening quote.
/// Returns the offset past the closing quote (or `n` if unterminated).
fn scan_string(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    i += 1;
    while i < n {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Scans a raw string body; `i` is at the opening quote, `hashes` is
/// the number of `#`s before it. Returns the offset past the final `#`.
fn scan_raw(b: &[u8], mut i: usize, hashes: usize) -> usize {
    let n = b.len();
    i += 1;
    while i < n {
        if b[i] == b'"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < n && b[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    n
}

/// Scans a char literal; `i` is at the opening quote. Handles escapes
/// (`'\''`, `'\\'`) and multi-byte scalar contents. Returns the offset
/// past the closing quote.
fn scan_char(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    i += 1;
    while i < n {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => return i, // stray quote; don't eat the line
            _ => i += 1,
        }
    }
    n
}

/// Lexes `src` into masked code + classified spans + line facts.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut spans: Vec<Span> = Vec::new();
    let mut i = 0;
    // Last code byte seen, for the ident-adjacency checks that keep
    // `var"` from starting a raw string when `var` ends in `r`.
    let mut prev: u8 = b'\n';
    while i < n {
        let c = b[i];
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let start = i;
            i += 2;
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            spans.push(Span {
                kind: Kind::LineComment,
                start,
                end: i,
            });
            prev = b'\n';
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let start = i;
            i += 2;
            let mut depth = 1usize;
            while i < n && depth > 0 {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            spans.push(Span {
                kind: Kind::BlockComment,
                start,
                end: i,
            });
            prev = b' ';
        } else if c == b'"' {
            let start = i;
            i = scan_string(b, i);
            spans.push(Span {
                kind: Kind::Str,
                start,
                end: i,
            });
            prev = b'"';
        } else if c == b'\'' {
            // Char literal or lifetime.
            if i + 1 < n && b[i + 1] == b'\\' {
                let start = i;
                i = scan_char(b, i);
                spans.push(Span {
                    kind: Kind::Char,
                    start,
                    end: i,
                });
                prev = b'\'';
            } else if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' && b[i + 1] != b'\\' {
                // 'x' — single-byte content.
                spans.push(Span {
                    kind: Kind::Char,
                    start: i,
                    end: i + 3,
                });
                i += 3;
                prev = b'\'';
            } else if i + 1 < n && b[i + 1] >= 0x80 {
                // Multi-byte scalar content, e.g. 'é'.
                let start = i;
                i = scan_char(b, i);
                spans.push(Span {
                    kind: Kind::Char,
                    start,
                    end: i,
                });
                prev = b'\'';
            } else if i + 1 < n && is_ident_start(b[i + 1]) {
                // Lifetime: code. Consume `'ident`.
                i += 1;
                while i < n && is_ident_byte(b[i]) {
                    i += 1;
                }
                prev = b'a';
            } else {
                // Stray quote; treat as code.
                i += 1;
                prev = b'\'';
            }
        } else if (c == b'r' || c == b'b') && !is_ident_byte(prev) {
            // Possible raw string / byte string / byte char prefix.
            let (pfx, rest) = if c == b'b' && i + 1 < n && b[i + 1] == b'r' {
                (2, i + 2)
            } else {
                (1, i + 1) // bare `r` or bare `b`
            };
            let mut j = rest;
            let mut hashes = 0;
            while j < n && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            let raw_capable = c == b'r' || pfx == 2;
            if raw_capable && j < n && b[j] == b'"' {
                let start = i;
                i = scan_raw(b, j, hashes);
                spans.push(Span {
                    kind: Kind::RawStr,
                    start,
                    end: i,
                });
                prev = b'"';
            } else if c == b'b' && pfx == 1 && i + 1 < n && b[i + 1] == b'"' {
                let start = i;
                i = scan_string(b, i + 1);
                spans.push(Span {
                    kind: Kind::Str,
                    start,
                    end: i,
                });
                prev = b'"';
            } else if c == b'b' && pfx == 1 && i + 1 < n && b[i + 1] == b'\'' {
                let start = i;
                i = scan_char(b, i + 1);
                spans.push(Span {
                    kind: Kind::Char,
                    start,
                    end: i,
                });
                prev = b'\'';
            } else {
                // Plain identifier starting with r/b.
                while i < n && is_ident_byte(b[i]) {
                    i += 1;
                }
                prev = b'a';
            }
        } else if is_ident_start(c) {
            while i < n && is_ident_byte(b[i]) {
                i += 1;
            }
            prev = b'a';
        } else {
            if !c.is_ascii_whitespace() {
                prev = c;
            }
            i += 1;
        }
    }

    // Blank the non-code spans (keeping newlines so offsets and line
    // numbers survive).
    let mut masked: Vec<u8> = b.to_vec();
    for s in &spans {
        for mb in masked.iter_mut().take(s.end).skip(s.start) {
            if *mb != b'\n' {
                *mb = b' ';
            }
        }
    }
    let masked = String::from_utf8(masked).unwrap_or_default();

    let line_starts = compute_line_starts(src);
    let lines = compute_lines(src, &masked, &spans, &line_starts);
    let mut lexed = Lexed {
        masked,
        spans,
        lines,
        line_starts,
        test_ranges: Vec::new(),
    };
    lexed.test_ranges = compute_test_ranges(&lexed);
    lexed
}

fn compute_line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, byte) in src.bytes().enumerate() {
        if byte == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

fn compute_lines(src: &str, masked: &str, spans: &[Span], line_starts: &[usize]) -> Vec<LineInfo> {
    let n = src.len();
    let mut lines: Vec<LineInfo> = Vec::with_capacity(line_starts.len());
    for (li, &start) in line_starts.iter().enumerate() {
        let end = line_starts.get(li + 1).map_or(n, |&e| e);
        let code = masked[start..end].trim();
        let has_code = !code.is_empty();
        let attr_only = has_code && code.starts_with("#[") && code.ends_with(']');
        lines.push(LineInfo {
            has_code,
            attr_only,
            comment: String::new(),
        });
    }
    // Attach comment text per covered line, delimiters stripped.
    for s in spans {
        if !matches!(s.kind, Kind::LineComment | Kind::BlockComment) {
            continue;
        }
        let text = &src[s.start..s.end];
        let stripped: &str = match s.kind {
            Kind::LineComment => text
                .trim_start_matches('/')
                .trim_start_matches('!')
                .trim_start(),
            _ => text
                .trim_start_matches("/*")
                .trim_end_matches("*/")
                .trim_matches('*')
                .trim(),
        };
        let first_line = line_of(line_starts, s.start);
        for (off, part) in stripped.split('\n').enumerate() {
            let li = first_line - 1 + off;
            if let Some(info) = lines.get_mut(li) {
                if !info.comment.is_empty() {
                    info.comment.push(' ');
                }
                info.comment
                    .push_str(part.trim().trim_start_matches('*').trim());
            }
        }
    }
    lines
}

/// 1-based line number of byte offset `off`.
pub fn line_of(line_starts: &[usize], off: usize) -> usize {
    match line_starts.binary_search(&off) {
        Ok(i) => i + 1,
        Err(i) => i, // insertion point; line is the previous start
    }
}

/// Finds the byte span of the brace-delimited body opened by the first
/// `{` at or after `from` in masked code, or `None` if unbalanced.
/// Stops early (returns `None`) if a `;` arrives first — that means the
/// item has no body (`#[cfg(test)] use …;`).
fn brace_span(masked: &str, from: usize) -> Option<(usize, usize)> {
    let b = masked.as_bytes();
    let mut i = from;
    while i < b.len() {
        match b[i] {
            b'{' => break,
            b';' => return None,
            _ => i += 1,
        }
    }
    if i >= b.len() {
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn compute_test_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let masked = &lexed.masked;
    let mut ranges = Vec::new();
    let mut push_item_span = |attr_at: usize| {
        if let Some((_, end)) = brace_span(masked, attr_at) {
            ranges.push((
                line_of(&lexed.line_starts, attr_at),
                line_of(&lexed.line_starts, end.saturating_sub(1)),
            ));
        }
    };
    for pat in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(pos) = masked[from..].find(pat) {
            let at = from + pos;
            push_item_span(at);
            from = at + pat.len();
        }
    }
    // `mod tests` without (or beyond) the attribute.
    let mut from = 0;
    while let Some(pos) = masked[from..].find("mod tests") {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(masked.as_bytes()[at - 1]);
        let after = at + "mod tests".len();
        let after_ok = after >= masked.len() || !is_ident_byte(masked.as_bytes()[after]);
        if before_ok && after_ok {
            push_item_span(at);
        }
        from = after;
    }
    ranges
}

impl Lexed {
    /// Whether 1-based `line` falls inside a test-only span.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, off: usize) -> usize {
        line_of(&self.line_starts, off)
    }

    /// Iterates `(ident, byte_offset)` over the masked code.
    pub fn idents(&self) -> IdentIter<'_> {
        IdentIter {
            bytes: self.masked.as_bytes(),
            pos: 0,
        }
    }

    /// `(name, line)` of every `pub fn` in the masked code, in source
    /// order; `pub(crate) fn` and friends are not public and not listed.
    pub fn pub_fns(&self) -> Vec<(&str, usize)> {
        let mut out = Vec::new();
        let mut prev: [&str; 2] = ["", ""];
        for (ident, off) in self.idents() {
            if prev == ["pub", "fn"] {
                out.push((ident, self.line_of(off)));
            }
            prev = [prev[1], ident];
        }
        out
    }

    /// Every `head::tail` identifier pair in the masked code as
    /// `(head, tail, head_offset, tail_end)`, in source order; `a::b::c`
    /// yields `(a, b, ..)` and `(b, c, ..)`.
    pub fn path_pairs(&self) -> Vec<(&str, &str, usize, usize)> {
        let idents: Vec<(&str, usize)> = self.idents().collect();
        idents
            .windows(2)
            .filter(|w| self.masked[w[0].1 + w[0].0.len()..w[1].1].trim() == "::")
            .map(|w| (w[0].0, w[1].0, w[0].1, w[1].1 + w[1].0.len()))
            .collect()
    }

    /// Every `pub enum` as `(name, line, variants)`, in source order;
    /// `pub(crate) enum` and friends are not listed.
    pub fn pub_enums(&self) -> Vec<(&str, usize, Variants<'_>)> {
        let b = self.masked.as_bytes();
        let idents: Vec<(&str, usize)> = self.idents().collect();
        let mut out = Vec::new();
        for w in idents
            .windows(3)
            .filter(|w| w[0].0 == "pub" && w[1].0 == "enum")
        {
            let (name, at) = w[2];
            let Some(open) = self.masked[at..].find('{').map(|k| at + k) else {
                continue;
            };
            let close = close_of(b, open).unwrap_or(b.len());
            let (mut variants, mut i, mut is_default) = (Vec::new(), open + 1, false);
            while i < close {
                if b[i] == b'#' {
                    // An attribute: `#[...]`.
                    let end = self.masked[i..close].find(']').map_or(close, |k| i + k);
                    is_default |= self.masked[i..end].trim_start_matches(['#', '[']) == "default";
                    i = end + 1;
                } else if is_ident_start(b[i]) {
                    let end = (i..close).find(|&k| !is_ident_byte(b[k])).unwrap_or(close);
                    variants.push((&self.masked[i..end], self.line_of(i), is_default));
                    is_default = false;
                    // Skip the payload and discriminant.
                    i = end;
                    while i < close && b[i] != b',' {
                        i = match b[i] {
                            b'(' | b'[' | b'{' => close_of(b, i).map_or(close, |k| k + 1),
                            _ => i + 1,
                        };
                    }
                } else {
                    i += 1;
                }
            }
            out.push((name, self.line_of(at), variants));
        }
        out
    }

    /// True if the contiguous comment block ending just above `line`
    /// (attribute-only lines may sit in between) — or a comment on
    /// `line` itself — satisfies `pred`.
    pub fn comment_above(&self, line: usize, mut pred: impl FnMut(&str) -> bool) -> bool {
        let idx = line.saturating_sub(1); // 0-based
        if let Some(info) = self.lines.get(idx) {
            if !info.comment.is_empty() && pred(&info.comment) {
                return true;
            }
        }
        let mut li = idx;
        while li > 0 {
            li -= 1;
            let Some(info) = self.lines.get(li) else {
                break;
            };
            if info.attr_only {
                continue; // look past attributes between comment and item
            }
            if info.has_code {
                break; // a code line ends the block
            }
            if info.comment.is_empty() {
                break; // a blank line ends the block
            }
            if pred(&info.comment) {
                return true;
            }
        }
        false
    }
}

/// An enum's variants as `(name, line, is_default)`, `is_default`
/// when the variant carries `#[default]`.
pub type Variants<'a> = Vec<(&'a str, usize, bool)>;

/// Offset of the bracket closing the `(`, `[` or `{` at `open` in
/// masked code (one depth count for all three kinds is exact on code
/// that compiles).
pub fn close_of(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    (open..b.len()).find(|&k| {
        match b[k] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            _ => return false,
        }
        depth == 0
    })
}

/// Offset of the innermost `(`, `[` or `{` still open at `pos` in
/// masked code, or `None` at the top level.
pub fn enclosing_open(b: &[u8], pos: usize) -> Option<usize> {
    let mut depth = 0usize;
    (0..pos).rev().find(|&k| {
        match b[k] {
            b')' | b']' | b'}' => depth += 1,
            b'(' | b'[' | b'{' if depth == 0 => return true,
            b'(' | b'[' | b'{' => depth -= 1,
            _ => {}
        }
        false
    })
}

/// Iterator over identifiers in masked code; see [`Lexed::idents`].
pub struct IdentIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for IdentIter<'a> {
    type Item = (&'a str, usize);

    fn next(&mut self) -> Option<(&'a str, usize)> {
        let b = self.bytes;
        let n = b.len();
        let mut i = self.pos;
        while i < n && !is_ident_start(b[i]) {
            i += 1;
        }
        if i >= n {
            self.pos = n;
            return None;
        }
        let start = i;
        while i < n && is_ident_byte(b[i]) {
            i += 1;
        }
        self.pos = i;
        // Masked code is valid UTF-8 and ident boundaries are ASCII-safe.
        std::str::from_utf8(&b[start..i]).ok().map(|s| (s, start))
    }
}

/// The non-whitespace code byte immediately before `off`, if any.
pub fn prev_code_byte(masked: &str, off: usize) -> Option<u8> {
    masked.as_bytes()[..off]
        .iter()
        .rev()
        .copied()
        .find(|b| !b.is_ascii_whitespace())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds_at(lexed: &Lexed, src: &str, needle: &str) -> Option<Kind> {
        let at = src.find(needle)?;
        lexed
            .spans
            .iter()
            .find(|s| s.start <= at && at < s.end)
            .map(|s| s.kind)
    }

    #[test]
    fn finds_pub_fns() {
        let l =
            lex("pub fn alpha() {}\nfn private() {}\npub(crate) fn hidden() {}\n// pub fn gone\n");
        assert_eq!(l.pub_fns(), vec![("alpha", 1)]);
    }

    #[test]
    fn finds_pub_enum_variants_and_paths() {
        let l = lex(
            "pub enum E<T> {\n    #[default]\n    A,\n    B(Vec<T>, [u8; 2]),\n    \
             C { x: u8 } = 4,\n}\npub(crate) enum H { Z }\nf(a::B :: C, Self::G); // D::E\n",
        );
        assert_eq!(
            l.pub_enums(),
            vec![(
                "E",
                1,
                vec![("A", 3, true), ("B", 4, false), ("C", 5, false)]
            )]
        );
        let pairs: Vec<(&str, &str)> = l.path_pairs().iter().map(|p| (p.0, p.1)).collect();
        assert_eq!(pairs, vec![("a", "B"), ("B", "C"), ("Self", "G")]);
    }

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"hi // not a comment\"; // real\nlet y = 2;";
        let l = lex(src);
        assert!(l.masked.contains("let x ="));
        assert!(!l.masked.contains("hi"));
        assert!(!l.masked.contains("real"));
        assert!(l.masked.contains("let y = 2;"));
        assert_eq!(l.masked.len(), src.len());
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still */ b";
        let l = lex(src);
        assert!(l.masked.starts_with('a'));
        assert!(l.masked.ends_with('b'));
        assert!(!l.masked.contains("still"));
        assert_eq!(kinds_at(&l, src, "inner"), Some(Kind::BlockComment));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r#"quote " inside"#; let t = 1;"####;
        let l = lex(src);
        assert!(!l.masked.contains("inside"));
        assert!(l.masked.contains("let t = 1;"));
        assert_eq!(kinds_at(&l, src, "quote"), Some(Kind::RawStr));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = "let a = b\"bytes\"; let c = br#\"raw bytes\"#; let d = b'x';";
        let l = lex(src);
        assert_eq!(kinds_at(&l, src, "bytes"), Some(Kind::Str));
        assert_eq!(kinds_at(&l, src, "raw bytes"), Some(Kind::RawStr));
        assert_eq!(kinds_at(&l, src, "'x'"), Some(Kind::Char));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) -> char { 'y' }";
        let l = lex(src);
        // Lifetimes stay code; the char literal is masked.
        assert!(l.masked.contains("<'a>"));
        assert!(l.masked.contains("&'a str"));
        assert!(!l.masked.contains("'y'"));
        assert_eq!(kinds_at(&l, src, "'y'"), Some(Kind::Char));
    }

    #[test]
    fn escaped_char_literals() {
        let src = r"let a = '\''; let b = '\\'; let c = '\n'; done();";
        let l = lex(src);
        assert!(l.masked.contains("done();"));
        assert_eq!(l.spans.iter().filter(|s| s.kind == Kind::Char).count(), 3);
    }

    #[test]
    fn ident_ending_in_r_does_not_start_raw_string() {
        let src = "let var = 1; let s = \"x\";";
        let l = lex(src);
        assert!(l.masked.contains("let var = 1;"));
        assert_eq!(l.spans.len(), 1);
        assert_eq!(l.spans[0].kind, Kind::Str);
    }

    #[test]
    fn cfg_test_spans_cover_mod_tests() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let l = lex(src);
        assert!(!l.in_test(1));
        assert!(l.in_test(2));
        assert!(l.in_test(4));
        assert!(!l.in_test(6));
    }

    #[test]
    fn cfg_test_on_use_item_has_no_span() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn lib() {}\n";
        let l = lex(src);
        assert!(!l.in_test(3));
    }

    #[test]
    fn comment_above_walks_past_attributes() {
        let src = "// SAFETY: fine\n#[inline]\nunsafe fn f() {}\n";
        let l = lex(src);
        assert!(l.comment_above(3, |c| c.contains("SAFETY:")));
        assert!(!l.comment_above(3, |c| c.contains("absent")));
    }

    #[test]
    fn comment_blocks_stop_at_blank_or_code_lines() {
        let src = "// SAFETY: far away\n\nunsafe fn f() {}\n";
        let l = lex(src);
        assert!(!l.comment_above(3, |c| c.contains("SAFETY:")));
    }

    #[test]
    fn trailing_comment_counts_for_its_own_line() {
        let src = "unsafe { go() } // SAFETY: inline argument\n";
        let l = lex(src);
        assert!(l.comment_above(1, |c| c.contains("SAFETY:")));
    }
}
