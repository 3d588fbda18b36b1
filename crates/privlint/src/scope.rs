//! File and token scoping: which crate a file belongs to, whether it is
//! test/bench/example code, which token ranges sit inside `#[cfg(test)]`
//! modules, and which function body encloses a given token.
//!
//! Rules use this to confine themselves to the library code whose
//! invariants they guard — a deterministic-replay rule has no business in a
//! unit test that seeds a literal RNG.

use crate::lexer::{TokKind, Token};

/// Where a file sits in the workspace, derived from its path alone.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// `foo` for `crates/foo/...`; `None` for the facade `src/` tree.
    pub crate_name: Option<String>,
    /// Final path component.
    pub file_name: String,
    /// Under a `tests/` directory (integration tests).
    pub is_test_file: bool,
    /// Under `benches/`, or any file of the dedicated bench crate.
    pub is_bench: bool,
    /// Under `examples/`.
    pub is_example: bool,
}

impl FileScope {
    /// Classifies a workspace-relative path.
    pub fn classify(rel_path: &str) -> FileScope {
        let comps: Vec<&str> = rel_path.split('/').collect();
        let crate_name = match comps.as_slice() {
            ["crates", name, ..] => Some((*name).to_string()),
            _ => None,
        };
        FileScope {
            rel_path: rel_path.to_string(),
            file_name: comps.last().copied().unwrap_or_default().to_string(),
            is_test_file: comps.contains(&"tests"),
            is_bench: comps.contains(&"benches") || crate_name.as_deref() == Some("bench"),
            is_example: comps.contains(&"examples"),
            crate_name,
        }
    }

    /// True when the file is library code: not an integration test, bench,
    /// or example. (In-file `#[cfg(test)]` regions are excluded separately.)
    pub fn is_library_code(&self) -> bool {
        !self.is_test_file && !self.is_bench && !self.is_example
    }
}

/// The significant (non-comment) tokens of a file, with an index back into
/// the full token stream so comment-adjacent logic (waivers) can correlate.
pub struct SigTokens<'a> {
    src: &'a str,
    /// All tokens, comments included.
    pub all: &'a [Token],
    /// Indices into `all` of the non-comment tokens.
    pub sig: Vec<usize>,
}

impl<'a> SigTokens<'a> {
    /// Filters the comment tokens out of `all`.
    pub fn new(src: &'a str, all: &'a [Token]) -> Self {
        let sig = all
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        SigTokens { src, all, sig }
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether there are no significant tokens.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// The `i`-th significant token.
    pub fn tok(&self, i: usize) -> &Token {
        &self.all[self.sig[i]]
    }

    /// Source text of the `i`-th significant token.
    pub fn text(&self, i: usize) -> &str {
        let t = self.tok(i);
        self.src.get(t.start..t.end).unwrap_or_default()
    }

    /// Whether token `i` exists and is the exact punctuation `p`.
    pub fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.len() && self.tok(i).kind == TokKind::Punct && self.text(i) == p
    }

    /// Whether token `i` exists and is the exact identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        i < self.len() && self.tok(i).kind == TokKind::Ident && self.text(i) == name
    }

    /// Whether token `i` exists and is an identifier for which `pred` holds.
    pub fn ident_matches(&self, i: usize, pred: impl Fn(&str) -> bool) -> bool {
        i < self.len() && self.tok(i).kind == TokKind::Ident && pred(self.text(i))
    }

    /// Index of the significant token matching an opening delimiter at `open`
    /// (`(`→`)`, `{`→`}`, `[`→`]`), or `None` when unbalanced.
    pub fn matching_close(&self, open: usize, open_ch: &str, close_ch: &str) -> Option<usize> {
        let mut depth = 0usize;
        for i in open..self.len() {
            if self.is_punct(i, open_ch) {
                depth += 1;
            } else if self.is_punct(i, close_ch) {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }
}

/// Line ranges (inclusive) of `#[cfg(test)] [pub[(…)]] mod … { … }`
/// bodies and of `#[cfg(test)]` functions (`[pub[(…)]] fn … { … }`).
///
/// The scan looks for the attribute token run `# [ cfg ( test ) ]`,
/// tolerates further attributes between it and the item, and records the
/// brace-matched body. Unbalanced input simply yields no region — the lint
/// degrades to checking more, never less… conservative in the direction of
/// reporting.
pub fn cfg_test_line_ranges(sig: &SigTokens<'_>) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let n = sig.len();
    let mut i = 0;
    while i + 6 < n {
        let is_cfg_test = sig.is_punct(i, "#")
            && sig.is_punct(i + 1, "[")
            && sig.is_ident(i + 2, "cfg")
            && sig.is_punct(i + 3, "(")
            && sig.is_ident(i + 4, "test")
            && sig.is_punct(i + 5, ")")
            && sig.is_punct(i + 6, "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect the item.
        let mut j = i + 7;
        while sig.is_punct(j, "#") && sig.is_punct(j + 1, "[") {
            match sig.matching_close(j + 1, "[", "]") {
                Some(close) => j = close + 1,
                None => break,
            }
        }
        if let Some(close) = item_body(sig, j).and_then(|open| sig.matching_close(open, "{", "}")) {
            ranges.push((sig.tok(i).line, sig.tok(close).line));
            i = close + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// The body's `{` of a `mod` or `fn` item starting at `j` (after its
/// attributes, at its visibility if any), or `None` when `j` starts no
/// such item with a body.
fn item_body(sig: &SigTokens<'_>, mut j: usize) -> Option<usize> {
    if sig.is_ident(j, "pub") {
        j += 1;
        if sig.is_punct(j, "(") {
            j = sig.matching_close(j, "(", ")")? + 1;
        }
    }
    if sig.is_ident(j, "mod") {
        return sig.is_punct(j + 2, "{").then_some(j + 2);
    }
    if !sig.is_ident(j, "fn") {
        return None;
    }
    while j < sig.len() && !sig.is_punct(j, ";") {
        if sig.is_punct(j, "{") {
            return Some(j);
        }
        if sig.is_punct(j, "(") {
            j = sig.matching_close(j, "(", ")")?;
        }
        j += 1;
    }
    None
}

/// Whether `line` falls inside any of the (inclusive) ranges.
pub fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|(lo, hi)| (*lo..=*hi).contains(&line))
}

/// A function body located in the significant-token stream.
#[derive(Debug, Clone)]
pub struct FnBody {
    /// The function's name.
    pub name: String,
    /// Significant-token index of the opening `{`.
    pub body_start: usize,
    /// Significant-token index of the closing `}`.
    pub body_end: usize,
}

/// Locates every `fn name … { … }` body. Trait-method declarations without
/// bodies (terminated by `;`) are skipped. Bodies may nest; callers wanting
/// the *enclosing* function of a token should prefer the innermost match.
pub fn fn_bodies(sig: &SigTokens<'_>) -> Vec<FnBody> {
    let mut out = Vec::new();
    let n = sig.len();
    for i in 0..n {
        if !sig.is_ident(i, "fn") {
            continue;
        }
        let Some(name_idx) = (i + 1 < n).then_some(i + 1) else {
            continue;
        };
        if sig.tok(name_idx).kind != TokKind::Ident {
            continue; // `fn` inside a type like `fn(x) -> y`
        }
        // First `{` before a top-level `;` opens the body.
        let mut j = name_idx + 1;
        let mut body_start = None;
        while j < n {
            if sig.is_punct(j, "{") {
                body_start = Some(j);
                break;
            }
            if sig.is_punct(j, ";") {
                break;
            }
            // Skip nested delimiter groups (default parameter exprs, etc.).
            if sig.is_punct(j, "(") {
                j = sig.matching_close(j, "(", ")").map_or(n, |c| c + 1);
                continue;
            }
            if sig.is_punct(j, "[") {
                j = sig.matching_close(j, "[", "]").map_or(n, |c| c + 1);
                continue;
            }
            j += 1;
        }
        if let Some(start) = body_start {
            if let Some(end) = sig.matching_close(start, "{", "}") {
                out.push(FnBody {
                    name: sig.text(name_idx).to_string(),
                    body_start: start,
                    body_end: end,
                });
            }
        }
    }
    out
}

/// The name of the innermost function whose body contains significant-token
/// index `i`, if any.
pub fn enclosing_fn(bodies: &[FnBody], i: usize) -> Option<&FnBody> {
    bodies
        .iter()
        .filter(|b| (b.body_start..=b.body_end).contains(&i))
        .min_by_key(|b| b.body_end - b.body_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classification() {
        let s = FileScope::classify("crates/geometry/src/tol.rs");
        assert_eq!(s.crate_name.as_deref(), Some("geometry"));
        assert_eq!(s.file_name, "tol.rs");
        assert!(s.is_library_code());
        assert!(FileScope::classify("crates/engine/tests/smoke.rs").is_test_file);
        assert!(FileScope::classify("crates/bench/src/lib.rs").is_bench);
        assert!(FileScope::classify("examples/demo.rs").is_example);
        assert!(FileScope::classify("src/lib.rs").crate_name.is_none());
    }

    #[test]
    fn cfg_test_regions_and_fn_bodies() {
        let src = "fn lib_code() { work(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { check(); }\n}\n";
        let toks = lex(src);
        let sig = SigTokens::new(src, &toks);
        let ranges = cfg_test_line_ranges(&sig);
        assert_eq!(ranges, vec![(2, 6)]);
        assert!(in_ranges(&ranges, 5));
        assert!(!in_ranges(&ranges, 1));
        let bodies = fn_bodies(&sig);
        let names: Vec<_> = bodies.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"lib_code"));
        assert!(names.contains(&"t"));
    }

    #[test]
    fn cfg_test_functions_are_test_regions() {
        let src = "fn lib_code() {}\n#[cfg(test)]\n#[inline]\npub(crate) fn helper(x: (u8, u8)) -> u8 {\n    x.0\n}\nfn after() {}\n#[cfg(test)]\nfn declared();\n#[cfg(test)]\npub(crate) mod tests {\n}\n";
        let toks = lex(src);
        let sig = SigTokens::new(src, &toks);
        assert_eq!(cfg_test_line_ranges(&sig), vec![(2, 6), (10, 12)]);
    }

    #[test]
    fn nested_fn_resolves_to_innermost() {
        let src = "fn outer() { fn inner() { x(); } inner(); }";
        let toks = lex(src);
        let sig = SigTokens::new(src, &toks);
        let bodies = fn_bodies(&sig);
        // find index of the `x` ident
        let xi = (0..sig.len()).find(|&i| sig.is_ident(i, "x")).unwrap();
        assert_eq!(enclosing_fn(&bodies, xi).unwrap().name, "inner");
    }
}
