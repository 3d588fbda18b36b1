//! Inline waiver comments.
//!
//! A finding is suppressed by a comment of the form
//!
//! ```text
//! // privlint::allow(rule-id): reason the invariant provably holds here
//! ```
//!
//! either trailing on the offending line or on its own line (or a stacked
//! block of such lines) immediately above it. The reason is **mandatory** —
//! a waiver without one is itself reported as a `malformed-waiver` finding,
//! which cannot be waived. Waivers are collected into a machine-readable
//! listing (`privlint list-waivers`) so every suppression in the workspace
//! is reviewable in one place.

use crate::lexer::{TokKind, Token};
use crate::scope::SigTokens;
use std::collections::BTreeSet;

/// A parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule being waived.
    pub rule: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Line of the code the waiver applies to (the comment's own line for a
    /// trailing waiver, else the next line carrying significant tokens).
    /// `None` when the waiver is dangling at end of file.
    pub target_line: Option<u32>,
    /// The trimmed code of the target line (a trailing waiver's own comment
    /// cut off; empty when dangling): the waived site's identity in the
    /// committed listing, which must not change when the line moves.
    pub target_code: String,
    /// The mandatory justification.
    pub reason: String,
    /// Set while matching findings; a waiver that suppressed nothing is
    /// reported as unused (informational, not fatal).
    pub used: bool,
}

/// A syntactically broken waiver (missing reason, unparseable rule list…).
#[derive(Debug, Clone)]
pub struct MalformedWaiver {
    /// Line of the broken comment.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

const MARKER: &str = "privlint::allow";

/// Extracts all waivers from a file's token stream. `known_rules` is used to
/// reject waivers naming rules that do not exist (typos would otherwise
/// silently suppress nothing forever).
pub fn collect(
    src: &str,
    all: &[Token],
    sig: &SigTokens<'_>,
    known_rules: &BTreeSet<&str>,
) -> (Vec<Waiver>, Vec<MalformedWaiver>) {
    // Lines that carry at least one significant token, for target resolution.
    let sig_lines: BTreeSet<u32> = (0..sig.len()).map(|i| sig.tok(i).line).collect();
    let comment_lines: BTreeSet<u32> = all
        .iter()
        .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|t| t.line)
        .collect();
    // Plain `//` comment bodies by line, for absorbing a stacked waiver's
    // continuation lines into its reason.
    let plain_bodies: std::collections::BTreeMap<u32, &str> = all
        .iter()
        .filter(|t| t.kind == TokKind::LineComment)
        .filter_map(|t| {
            let text = src.get(t.start..t.end)?;
            if text.starts_with("///") || text.starts_with("//!") {
                return None;
            }
            Some((t.line, text.trim_start_matches('/').trim()))
        })
        .collect();

    let mut waivers = Vec::new();
    let mut malformed = Vec::new();
    for tok in all {
        if tok.kind != TokKind::LineComment {
            continue;
        }
        let text = src.get(tok.start..tok.end).unwrap_or_default();
        // Doc comments (`///`, `//!`) never carry waivers — they are prose,
        // and may legitimately *describe* the waiver syntax (this module's
        // own docs do). Only a plain `//` comment whose body begins with the
        // marker counts.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let body = text.trim_start_matches('/').trim();
        let Some(after) = body.strip_prefix(MARKER) else {
            continue;
        };
        match parse_allow(after) {
            Ok((rule, reason)) => {
                if !known_rules.contains(rule.as_str()) {
                    malformed.push(MalformedWaiver {
                        line: tok.line,
                        message: format!(
                            "waiver names unknown rule `{rule}` (run `privlint explain --list` for the catalog)"
                        ),
                    });
                    continue;
                }
                let target_line = resolve_target(tok.line, &sig_lines, &comment_lines);
                // A stacked (non-trailing) waiver's reason continues across
                // the immediately following plain comment lines, up to the
                // target: multi-line justifications read as one sentence in
                // the waivers listing.
                let mut reason = reason;
                if !sig_lines.contains(&tok.line) {
                    let mut line = tok.line + 1;
                    while Some(line) != target_line {
                        let Some(body) = plain_bodies.get(&line) else {
                            break;
                        };
                        if body.starts_with(MARKER) || body.starts_with('~') {
                            break;
                        }
                        reason.push(' ');
                        reason.push_str(body);
                        line += 1;
                    }
                }
                let target_code = match target_line {
                    Some(line) if line == tok.line => {
                        let line_start = src[..tok.start].rfind('\n').map_or(0, |i| i + 1);
                        src[line_start..tok.start].trim().to_string()
                    }
                    Some(line) => crate::report::snippet_for(src, line),
                    None => String::new(),
                };
                waivers.push(Waiver {
                    rule,
                    line: tok.line,
                    target_line,
                    target_code,
                    reason,
                    used: false,
                });
            }
            Err(message) => malformed.push(MalformedWaiver {
                line: tok.line,
                message,
            }),
        }
    }
    (waivers, malformed)
}

/// Parses `(rule): reason` after the `privlint::allow` marker.
fn parse_allow(after: &str) -> Result<(String, String), String> {
    let after = after.trim_start();
    let Some(rest) = after.strip_prefix('(') else {
        return Err("waiver must be `privlint::allow(<rule>): <reason>`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("waiver is missing the closing `)` after the rule name".to_string());
    };
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() || rule.contains(',') {
        return Err("waiver must name exactly one rule".to_string());
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix(':') else {
        return Err(
            "waiver is missing the `: <reason>` part — the reason is mandatory".to_string(),
        );
    };
    let reason = reason.trim().to_string();
    if reason.is_empty() {
        return Err("waiver reason is empty — the reason is mandatory".to_string());
    }
    Ok((rule, reason))
}

/// A trailing waiver targets its own line; a standalone one targets the next
/// line holding significant tokens, provided every line in between carries a
/// comment (a blank line breaks the attachment, so a stale waiver cannot
/// drift onto unrelated code).
fn resolve_target(
    comment_line: u32,
    sig_lines: &BTreeSet<u32>,
    comment_lines: &BTreeSet<u32>,
) -> Option<u32> {
    if sig_lines.contains(&comment_line) {
        return Some(comment_line);
    }
    let mut line = comment_line + 1;
    loop {
        if sig_lines.contains(&line) {
            return Some(line);
        }
        if !comment_lines.contains(&line) {
            return None; // blank or past EOF
        }
        line += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> (Vec<Waiver>, Vec<MalformedWaiver>) {
        let all = lex(src);
        let sig = SigTokens::new(src, &all);
        let known: BTreeSet<&str> = ["lock-unwrap", "entropy-source"].into_iter().collect();
        collect(src, &all, &sig, &known)
    }

    #[test]
    fn trailing_and_standalone_waivers_resolve_targets() {
        let src = "\
let a = 1; // privlint::allow(lock-unwrap): guard recovers by construction
// privlint::allow(entropy-source): timing is diagnostics only
// second comment line keeps the block attached
let b = 2;
";
        let (ws, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].target_line, Some(1));
        assert_eq!(ws[1].target_line, Some(4));
        assert_eq!(ws[1].rule, "entropy-source");
    }

    #[test]
    fn stacked_waiver_absorbs_continuation_lines_into_reason() {
        let src = "\
// privlint::allow(lock-unwrap): the startup path runs before any worker
// thread exists, so the lock cannot have been poisoned yet
let x = m.lock().unwrap();
";
        let (ws, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(
            ws[0].reason,
            "the startup path runs before any worker thread exists, so the lock cannot have been poisoned yet"
        );
        assert_eq!(ws[0].target_line, Some(3));
        // Trailing waivers never absorb the next line.
        let trailing = "let a = 1; // privlint::allow(lock-unwrap): fine here\n// unrelated comment\nlet b = 2;\n";
        let (ws, _) = run(trailing);
        assert_eq!(ws[0].reason, "fine here");
    }

    #[test]
    fn blank_line_breaks_attachment() {
        let src = "// privlint::allow(lock-unwrap): reason here\n\nlet x = 1;\n";
        let (ws, _) = run(src);
        assert_eq!(ws[0].target_line, None);
    }

    #[test]
    fn stacked_waivers_separated_by_a_blank_line_detach_independently() {
        // The blank line orphans the first waiver (it suppresses nothing and
        // is reported unused); the second still binds to the code below it.
        let src = "\
// privlint::allow(lock-unwrap): stale — code moved away

// privlint::allow(entropy-source): timing is diagnostics only
let x = now();
";
        let (ws, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].target_line, None);
        assert_eq!(ws[1].target_line, Some(4));
        // Two adjacent stacked waivers (no blank between) both bind to the
        // same target line, and neither absorbs the other into its reason.
        let adjacent = "\
// privlint::allow(lock-unwrap): reason one
// privlint::allow(entropy-source): reason two
let x = m.lock().unwrap();
";
        let (ws, bad) = run(adjacent);
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].target_line, Some(3));
        assert_eq!(ws[1].target_line, Some(3));
        assert_eq!(ws[0].reason, "reason one");
        assert_eq!(ws[1].reason, "reason two");
    }

    #[test]
    fn waiver_on_the_last_line_of_the_file() {
        // Trailing waiver on the file's final line, no trailing newline:
        // targets its own line.
        let src = "let a = m.lock().unwrap(); // privlint::allow(lock-unwrap): last line";
        let (ws, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].target_line, Some(1));
        // Standalone waiver as the very last line: nothing below to bind to,
        // so it resolves to no target instead of panicking or mis-binding.
        let dangling = "let a = 1;\n// privlint::allow(lock-unwrap): nothing follows";
        let (ws, bad) = run(dangling);
        assert!(bad.is_empty());
        assert_eq!(ws[0].target_line, None);
    }

    #[test]
    fn crlf_sources_parse_and_bind_waivers() {
        // CRLF line endings: the `\r` rides along inside the line-comment
        // token and must not corrupt the rule name or the reason.
        let src =
            "// privlint::allow(lock-unwrap): windows checkout\r\nlet x = m.lock().unwrap();\r\n";
        let (ws, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, "lock-unwrap");
        assert_eq!(ws[0].reason, "windows checkout");
        assert_eq!(ws[0].target_line, Some(2));
        // Trailing form under CRLF, with a continuation comment after it.
        let trailing = "let a = m.lock().unwrap(); // privlint::allow(lock-unwrap): fine\r\n// unrelated\r\nlet b = 2;\r\n";
        let (ws, bad) = run(trailing);
        assert!(bad.is_empty());
        assert_eq!(ws[0].target_line, Some(1));
        assert_eq!(ws[0].reason, "fine");
    }

    #[test]
    fn missing_reason_and_unknown_rule_are_malformed() {
        let (ws, bad) = run("// privlint::allow(lock-unwrap)\nlet x = 1;\n");
        assert!(ws.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("mandatory"));

        let (ws, bad) = run("// privlint::allow(no-such-rule): why\nlet x = 1;\n");
        assert!(ws.is_empty());
        assert!(bad[0].message.contains("unknown rule"));

        let (ws, bad) = run("// privlint::allow(lock-unwrap): \nlet x = 1;\n");
        assert!(ws.is_empty());
        assert!(bad[0].message.contains("empty"));
    }
}
