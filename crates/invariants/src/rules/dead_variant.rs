//! **dead-variant** — every variant of a non-test `pub enum` in the
//! `dead-pub` library directories must be *constructed* in program
//! code (`dead-pub`'s notion, the defining file included): an
//! `Enum::Variant` path in expression position, or `Self::Variant` in
//! the defining file. A `From` body is an ordinary expression, and a
//! `#[default]` variant counts as built by its derive. Patterns build
//! nothing, so a match arm (guards and `|` alternatives included), an
//! `if let`/`let … else`/`matches!` pattern, a `==`/`!=` comparison and
//! anything inside a `Display` impl do not count. `dead-pub` cannot
//! see a variant only tests and benches select. A variant imported by
//! `use` and named bare is not recognised; this tree imports none.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::lexer::{close_of, enclosing_open, Lexed};
use crate::report::Diagnostic;
use crate::rules::dead_pub::{is_program, LIBRARY_DIRS};
use crate::workspace::Workspace;

/// Rule identifier used in diagnostics and waivers.
pub const RULE: &str = "dead-variant";

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // `(Enum, Variant)` for every construction, `(file, Variant)` for
    // a `Self::Variant` one.
    let mut built: BTreeSet<(&str, &str)> = BTreeSet::new();
    for file in ws.files.iter().filter(|f| is_program(&f.path)) {
        let lex = &file.lex;
        let display = display_impls(lex);
        for (head, tail, start, end) in lex.path_pairs() {
            if !lex.in_test(lex.line_of(start))
                && !display.iter().any(|r| r.contains(&start))
                && is_construction(lex.masked.as_bytes(), start, end)
            {
                built.insert((
                    if head == "Self" {
                        file.path.as_str()
                    } else {
                        head
                    },
                    tail,
                ));
            }
        }
    }
    for file in &ws.files {
        if !LIBRARY_DIRS.iter().any(|d| file.path.starts_with(d)) {
            continue;
        }
        for (name, line, variants) in file.lex.pub_enums() {
            for (v, v_line, is_default) in variants {
                if file.lex.in_test(line)
                    || is_default
                    || built.contains(&(name, v))
                    || built.contains(&(file.path.as_str(), v))
                {
                    continue;
                }
                out.push(Diagnostic {
                    rule: RULE,
                    file: file.path.clone(),
                    line: v_line,
                    message: format!(
                        "`{name}::{v}` is never constructed in program code (patterns, \
                         comparisons and the Display impl do not count); delete it"
                    ),
                });
            }
        }
    }
}

/// Byte ranges of the bodies of `impl … Display for … { … }` blocks.
fn display_impls(lex: &Lexed) -> Vec<Range<usize>> {
    let m = &lex.masked;
    lex.idents()
        .filter(|&(ident, _)| ident == "impl")
        .filter_map(|(_, at)| {
            let open = at + m[at..].find('{')?;
            let header: Vec<&str> = m[at..open]
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .filter(|w| !w.is_empty())
                .collect();
            let display = header.windows(2).any(|w| w == ["Display", "for"]);
            display.then_some(open..close_of(m.as_bytes(), open)?)
        })
        .collect()
}

/// Whether the path at `start..end` of masked code `b` builds a value
/// rather than matching or comparing one. A payload `(…)`/`{…}` right
/// after the path is skipped, then enclosing tuples, tuple structs and
/// slices are stepped out of until a token settles it.
fn is_construction(b: &[u8], start: usize, end: usize) -> bool {
    let skip_ws = |i: usize| (i..b.len()).find(|&k| !b[k].is_ascii_whitespace());
    let before = b[..start].iter().rposition(|c| !c.is_ascii_whitespace());
    if before.is_some_and(|k| k > 0 && b[k] == b'=' && matches!(b[k - 1], b'=' | b'!')) {
        return false; // the right side of a comparison
    }
    let mut i = skip_ws(end).unwrap_or(b.len());
    if matches!(b.get(i), Some(b'(' | b'{')) {
        i = close_of(b, i).map_or(b.len(), |k| k + 1);
    }
    loop {
        let Some(i_tok) = skip_ws(i) else {
            return true;
        };
        i = i_tok;
        let next = b.get(i + 1).copied();
        match b[i] {
            b')' | b']' | b',' => {
                let Some(open) = enclosing_open(b, i) else {
                    return true;
                };
                if let Some(built) = group_verdict(b, open, start) {
                    return built;
                }
                i = close_of(b, open).map_or(b.len(), |k| k + 1);
            }
            // `=>` arm, `=` of a `let` pattern, `==`/`!=` comparison,
            // `|` pattern alternative, `if` match guard.
            b'=' => return false,
            b'!' if next == Some(b'=') => return false,
            b'|' if next != Some(b'|') => return false,
            b'i' if next == Some(b'f') && !b.get(i + 2).is_some_and(|&c| is_ident(c)) => {
                return false
            }
            _ => return true,
        }
    }
}

/// What the group opened at `open` makes of the path at `start` inside
/// it: `Some(true)` built (call, method or macro arguments, a block or
/// a struct literal), `Some(false)` the pattern of a `matches!`, `None`
/// a tuple, tuple struct or slice, which its own context decides.
fn group_verdict(b: &[u8], open: usize, start: usize) -> Option<bool> {
    if b[open] == b'{' {
        return Some(true);
    }
    let k = b[..open].iter().rposition(|c| !c.is_ascii_whitespace())?;
    let name_end = if b[k] == b'!' { k } else { k + 1 };
    let name_start = b[..name_end]
        .iter()
        .rposition(|&c| !is_ident(c))
        .map_or(0, |p| p + 1);
    let name = &b[name_start..name_end];
    if b[k] == b'!' {
        let in_pattern =
            (open + 1..start).any(|d| b[d] == b',' && enclosing_open(b, d) == Some(open));
        return Some(name != b"matches" || !in_pattern);
    }
    // `name(`: a lowercase name is a call or a keyword such as
    // `return`; a capitalised one is a tuple struct; `let (…)` a tuple.
    let call = b[open] == b'(' && name.first().is_some_and(|c| !c.is_ascii_uppercase());
    (call && name != b"let").then_some(true)
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}
