//! **doc-drift** — ARCHITECTURE.md cites load-bearing constants by
//! value (`TINY_INNER_MAX = 16`, `PIVOT_DRIFT_TOL = 1e-8`, …). The
//! book is only trustworthy if those numbers track the source, so this
//! rule parses every `NAME = value` citation out of the markdown,
//! finds the `const NAME: … = value;` definition in the workspace, and
//! fails on divergence — or on a citation whose constant no longer
//! exists. It also fails if the book cites fewer than
//! [`MIN_CITED_CONSTANTS`] constants: deleting the numbers is drift
//! too.

use crate::report::Diagnostic;
use crate::workspace::Workspace;

/// Rule identifier used in diagnostics and waivers.
pub const RULE: &str = "doc-drift";

/// The architecture book must keep citing at least this many
/// constants by value (the acceptance bar for the rule itself). Raised
/// from 5 when the tie-set tolerances (`PIVOT_TIE_TOL`,
/// `PIVOT_TIE_SPAN_TOL`) joined the watched list, from 7 when the
/// query path's Cholesky fallback (`QUERY_CHOL_TOL`) did, and from 8
/// when the gateway's publication/backpressure pair
/// (`GATEWAY_CHANNEL_CAPACITY`, `EPOCH_SLOTS`) did. Lowered to 9 when
/// the epoch double buffer collapsed to a single lock and
/// `EPOCH_SLOTS` was deleted. Raised to 10 when the ingest boundary's
/// `RSS_DBM_RANGE` joined the watched list.
pub const MIN_CITED_CONSTANTS: usize = 10;

/// One `NAME = value` citation found in the markdown.
#[derive(Clone, Debug)]
pub struct Citation {
    /// Constant name (last path segment).
    pub name: String,
    /// Cited value text.
    pub value: String,
    /// 1-based line in ARCHITECTURE.md.
    pub line: usize,
}

fn is_const_name(s: &str) -> bool {
    s.len() >= 3
        && s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// `=` belongs to a value so that an inclusive range such as
/// `-150.0..=30.0` is cited whole.
fn is_value_char(c: char) -> bool {
    c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '-' | '+' | '=')
}

/// Extracts every `NAME = value` citation from the markdown text.
pub fn citations(md: &str) -> Vec<Citation> {
    let mut out = Vec::new();
    for (li, line) in md.lines().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let n = chars.len();
        let mut i = 0;
        while i < n {
            if !(chars[i].is_ascii_uppercase()) {
                i += 1;
                continue;
            }
            // Word must not continue an identifier to the left.
            if i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_') {
                i += 1;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                continue;
            }
            let start = i;
            while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            if !is_const_name(&word) {
                continue;
            }
            // Optional spaces, then `=` (but not `==`), spaces, value.
            let mut j = i;
            while j < n && chars[j] == ' ' {
                j += 1;
            }
            if j >= n || chars[j] != '=' || (j + 1 < n && chars[j + 1] == '=') {
                continue;
            }
            j += 1;
            while j < n && chars[j] == ' ' {
                j += 1;
            }
            let vstart = j;
            while j < n && is_value_char(chars[j]) {
                j += 1;
            }
            if j > vstart && chars[vstart].is_ascii_digit()
                || (chars.get(vstart) == Some(&'-')
                    && chars.get(vstart + 1).is_some_and(|c| c.is_ascii_digit()))
            {
                out.push(Citation {
                    name: word,
                    value: chars[vstart..j].iter().collect(),
                    line: li + 1,
                });
            }
            i = j;
        }
    }
    out
}

/// Finds `const NAME: … = value;` in masked source; returns the value
/// text and 1-based line.
fn find_const(ws: &Workspace, name: &str) -> Option<(String, String, usize)> {
    for file in &ws.files {
        let masked = &file.lex.masked;
        let mut idents = file.lex.idents().peekable();
        while let Some((ident, off)) = idents.next() {
            if ident != "const" {
                continue;
            }
            let Some(&(next, next_off)) = idents.peek() else {
                continue;
            };
            if next != name {
                continue;
            }
            // Capture from the `=` after the type to the `;`.
            let rest = &masked[next_off + next.len()..];
            let Some(eq) = rest.find('=') else { continue };
            let Some(semi) = rest[eq..].find(';') else {
                continue;
            };
            let value = rest[eq + 1..eq + semi].trim().replace('_', "");
            let line = file.lex.line_of(off);
            return Some((file.path.clone(), value, line));
        }
    }
    None
}

/// Numeric-aware equality: `4_096` ≡ `4096`, `1e-8` ≡ `0.00000001`.
fn values_match(doc: &str, src: &str) -> bool {
    let d = doc.replace('_', "");
    let s = src.replace('_', "");
    if d == s {
        return true;
    }
    match (d.parse::<f64>(), s.parse::<f64>()) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

/// Runs the rule; also returns the `(name, value)` pairs successfully
/// cross-checked so the CLI can report coverage.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) -> Vec<(String, String)> {
    let Some(md) = &ws.arch_md else {
        out.push(Diagnostic {
            rule: RULE,
            file: "ARCHITECTURE.md".to_string(),
            line: 1,
            message: "ARCHITECTURE.md is missing — the architecture book is a machine-checked \
                      contract and must exist"
                .to_string(),
        });
        return Vec::new();
    };
    let cites = citations(md);
    let mut checked: Vec<(String, String)> = Vec::new();
    for c in &cites {
        match find_const(ws, &c.name) {
            None => out.push(Diagnostic {
                rule: RULE,
                file: "ARCHITECTURE.md".to_string(),
                line: c.line,
                message: format!(
                    "documented constant `{}` no longer exists in the source tree",
                    c.name
                ),
            }),
            Some((src_file, src_value, src_line)) => {
                if values_match(&c.value, &src_value) {
                    if !checked.iter().any(|(n, _)| n == &c.name) {
                        checked.push((c.name.clone(), c.value.clone()));
                    }
                } else {
                    out.push(Diagnostic {
                        rule: RULE,
                        file: "ARCHITECTURE.md".to_string(),
                        line: c.line,
                        message: format!(
                            "documented `{} = {}` diverges from the source \
                             ({src_file}:{src_line} has `{src_value}`)",
                            c.name, c.value
                        ),
                    });
                }
            }
        }
    }
    let distinct: std::collections::BTreeSet<&str> =
        cites.iter().map(|c| c.name.as_str()).collect();
    if distinct.len() < MIN_CITED_CONSTANTS {
        out.push(Diagnostic {
            rule: RULE,
            file: "ARCHITECTURE.md".to_string(),
            line: 1,
            message: format!(
                "the architecture book cites only {} constants by value (expected ≥ {}); \
                 deleting the numbers is drift too",
                distinct.len(),
                MIN_CITED_CONSTANTS
            ),
        });
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_backticked_citations() {
        let md = "pinned by `iupdater_linalg::qr::PIVOT_DRIFT_TOL = 1e-8`\n\
                  | `TinyInner` | `k ≤ TINY_INNER_MAX = 16` |\n\
                  (`BLOCK = 64`) and `MIN_PARALLEL_WORK` without a value\n\
                  a window of `PIVOT_TIE_TOL = 1.0` and span\n\
                  `PIVOT_TIE_SPAN_TOL = 1e-12` (squared relative)\n\
                  readings in `RSS_DBM_RANGE = -150.0..=30.0` dBm\n";
        let c = citations(md);
        let names: Vec<&str> = c.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "PIVOT_DRIFT_TOL",
                "TINY_INNER_MAX",
                "BLOCK",
                "PIVOT_TIE_TOL",
                "PIVOT_TIE_SPAN_TOL",
                "RSS_DBM_RANGE"
            ]
        );
        assert_eq!(c[0].value, "1e-8");
        assert_eq!(c[1].value, "16");
        assert_eq!(c[2].value, "64");
        assert_eq!(c[3].value, "1.0");
        assert_eq!(c[4].value, "1e-12");
        assert_eq!(c[5].value, "-150.0..=30.0");
    }

    #[test]
    fn numeric_equivalence() {
        assert!(values_match("4096", "4_096"));
        assert!(values_match("1e-8", "1e-8"));
        assert!(values_match("1e-8", "0.00000001"));
        assert!(!values_match("16", "8"));
    }
}
