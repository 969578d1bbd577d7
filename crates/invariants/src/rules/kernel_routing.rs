//! **kernel-routing** — PR 6 funnelled every dense multiply through
//! the register-tiled kernels in `linalg/src/kernels.rs`; a new hand-rolled
//! `out[…] += a[…] * b[…]` triple loop elsewhere would silently bypass
//! the register-tiled kernels (and their bit-exactness pins). This
//! rule flags an `+=` whose right-hand side is a product of two
//! indexed loads when it sits inside two or more nested loops, outside
//! `kernels.rs`.
//!
//! `solver/reference.rs` is exempt by design: it is the retired
//! monolith kept verbatim as the executable specification, and
//! predates those kernels by definition. New code matching the
//! pattern should call `matmul_into`/`matmul_bt_into`/`gram_into`
//! instead — or, for genuinely non-GEMM accumulations, carry a waiver
//! saying why routing does not apply.

use crate::report::Diagnostic;
use crate::workspace::Workspace;

/// Rule identifier used in diagnostics and waivers.
pub const RULE: &str = "kernel-routing";

/// Crates whose loops are checked.
const SCOPE: [&str; 2] = ["crates/linalg/src/", "crates/core/src/"];
/// Files exempt from the rule (the kernels themselves; the frozen
/// executable specification).
const EXEMPT: [&str; 2] = [
    "crates/linalg/src/kernels.rs",
    "crates/core/src/solver/reference.rs",
];

/// Does `rhs` (masked code after `+=`, up to `;`) look like a product
/// of two indexed loads — `a[…] * b[…]`, allowing field paths like
/// `self.data[…]`?
fn is_indexed_product(rhs: &str) -> bool {
    let b = rhs.as_bytes();
    let mut i = 0;
    let n = b.len();
    let skip_ws = |i: &mut usize| {
        while *i < n && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    // One `ident(.ident)*[ … ]` indexed load; returns offset past `]`.
    let indexed_load = |mut i: usize| -> Option<usize> {
        let ident_byte = |x: u8| x.is_ascii_alphanumeric() || x == b'_' || x == b'.' || x >= 0x80;
        let start = i;
        while i < n && ident_byte(b[i]) {
            i += 1;
        }
        if i == start || i >= n || b[i] != b'[' {
            return None;
        }
        let mut depth = 0usize;
        while i < n {
            match b[i] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i + 1);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        None
    };
    skip_ws(&mut i);
    let Some(after_first) = indexed_load(i) else {
        return false;
    };
    i = after_first;
    skip_ws(&mut i);
    if i >= n || b[i] != b'*' {
        return false;
    }
    i += 1;
    skip_ws(&mut i);
    indexed_load(i).is_some()
}

/// Scans one file: tracks loop nesting via a scope stack keyed on the
/// first token of each brace's header, and tests every `+=` found at
/// loop depth ≥ 2.
fn scan_file(path: &str, masked: &str, out_hits: &mut Vec<(usize, String)>) {
    let _ = path;
    let b = masked.as_bytes();
    let n = b.len();
    let mut scopes: Vec<bool> = Vec::new(); // true = loop scope
    let mut header_first: Option<String> = None;
    let mut i = 0;
    while i < n {
        let c = b[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80) {
                i += 1;
            }
            if header_first.is_none() {
                header_first = Some(masked[start..i].to_string());
            }
            continue;
        }
        match c {
            b'{' => {
                let is_loop = matches!(header_first.as_deref(), Some("for" | "while" | "loop"));
                scopes.push(is_loop);
                header_first = None;
            }
            b'}' => {
                scopes.pop();
                header_first = None;
            }
            // `:` resets so labelled loops (`'sweep: for …`) classify
            // by the `for`, not the label identifier.
            b';' | b',' | b':' => header_first = None,
            b'+' if i + 1 < n && b[i + 1] == b'=' => {
                let depth = scopes.iter().filter(|&&l| l).count();
                if depth >= 2 {
                    let stmt_end = masked[i + 2..].find(';').map_or(n, |p| i + 2 + p);
                    let rhs = &masked[i + 2..stmt_end];
                    if is_indexed_product(rhs) {
                        out_hits.push((i, rhs.trim().to_string()));
                    }
                }
                i += 1; // past '+'; '=' consumed by the common i += 1 below
            }
            _ => {}
        }
        i += 1;
    }
}

/// Runs the rule over the scoped crates.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !SCOPE.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        if EXEMPT.contains(&file.path.as_str()) {
            continue;
        }
        let mut hits = Vec::new();
        scan_file(&file.path, &file.lex.masked, &mut hits);
        for (off, rhs) in hits {
            let line = file.lex.line_of(off);
            if file.lex.in_test(line) {
                continue;
            }
            let short: String = rhs.chars().take(48).collect();
            out.push(Diagnostic {
                rule: RULE,
                file: file.path.clone(),
                line,
                message: format!(
                    "nested-loop dense-multiply pattern (`+= {short}…`) outside kernels.rs; \
                     route through linalg's kernels (matmul_into/matmul_bt_into/gram_into)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_matcher() {
        assert!(is_indexed_product(" a[i * k + p] * b[p * n + j];"));
        assert!(is_indexed_product(" self.data[p] * rhs.data[q]"));
        assert!(!is_indexed_product(" a[i] + b[j]"));
        assert!(!is_indexed_product(" 2.0 * b[j]"));
        assert!(!is_indexed_product(" a[i] * 2.0"));
    }
}
