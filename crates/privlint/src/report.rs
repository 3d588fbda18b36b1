//! Report assembly: the machine-readable JSON document, the human console
//! rendering, and the committed waivers listing (`privlint-waivers.md`).

use crate::baseline;
use crate::check::{CheckedFile, Report};
use serde::Value;
use std::collections::BTreeMap;

fn s(x: impl Into<String>) -> Value {
    Value::String(x.into())
}

fn n(x: usize) -> Value {
    Value::Number(x as f64)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The machine-readable report. Stable field set; consumed by CI and by the
/// fixture tests, so changes here are contract changes.
pub fn to_json(report: &Report) -> Value {
    let mut findings = Vec::new();
    let mut waivers = Vec::new();
    // Occurrence counters make fingerprints of identical snippets distinct;
    // counting all findings (waived included) keeps a finding's fingerprint
    // stable when a sibling gains or loses a waiver.
    let mut occurrences: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for file in &report.files {
        for f in &file.findings {
            let key = (
                f.rule.clone(),
                file.rel_path.clone(),
                f.snippet.trim().to_string(),
            );
            let occ = occurrences.entry(key).and_modify(|c| *c += 1).or_insert(0);
            let mut entry = vec![
                ("rule", s(f.rule.clone())),
                ("file", s(file.rel_path.clone())),
                ("line", n(f.line as usize)),
                ("col", n(f.col as usize)),
                ("message", s(f.message.clone())),
                ("snippet", s(f.snippet.clone())),
                (
                    "fingerprint",
                    s(baseline::fp(&f.rule, &file.rel_path, &f.snippet, *occ)),
                ),
                ("waived", Value::Bool(f.waived)),
            ];
            if let Some(reason) = &f.waiver_reason {
                entry.push(("waiver_reason", s(reason.clone())));
            }
            findings.push(obj(entry));
        }
        for w in &file.waivers {
            waivers.push(obj(vec![
                ("rule", s(w.rule.clone())),
                ("file", s(file.rel_path.clone())),
                ("line", n(w.line as usize)),
                ("reason", s(w.reason.clone())),
                ("used", Value::Bool(w.used)),
            ]));
        }
    }
    obj(vec![
        ("privlint_version", n(1)),
        ("files_scanned", n(report.files.len())),
        ("findings", Value::Array(findings)),
        ("waivers", Value::Array(waivers)),
        (
            "summary",
            obj(vec![
                ("active", n(report.active_count())),
                ("waived", n(report.waived_count())),
                ("waivers_unused", n(report.unused_waiver_count())),
            ]),
        ),
    ])
}

/// Console rendering: one block per active finding, then a summary line.
pub fn to_human(report: &Report) -> String {
    let mut out = String::new();
    for file in &report.files {
        for f in file.findings.iter().filter(|f| !f.waived) {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n    {}\n",
                file.rel_path, f.line, f.col, f.rule, f.message, f.snippet
            ));
        }
    }
    for file in &report.files {
        for w in file.waivers.iter().filter(|w| !w.used) {
            out.push_str(&format!(
                "{}:{}: note: unused waiver for `{}` (suppresses nothing): {}\n",
                file.rel_path, w.line, w.rule, w.reason
            ));
        }
    }
    out.push_str(&format!(
        "privlint: {} file(s) scanned, {} active finding(s), {} waived, {} unused waiver(s)\n",
        report.files.len(),
        report.active_count(),
        report.waived_count(),
        report.unused_waiver_count(),
    ));
    out
}

/// The committed `privlint-waivers.md`: every inline waiver and its reason,
/// one table row each, sorted so regeneration is deterministic. A waiver is
/// identified by its file and the code it waives, never by line number, so
/// an edit that only moves a waived line leaves the listing unchanged.
pub fn waivers_markdown(report: &Report) -> String {
    let mut out = String::from(
        "# privlint waivers\n\n\
         Every inline `privlint::allow` in the workspace, with its mandatory\n\
         reason. Regenerate with:\n\n\
         ```sh\n\
         cargo run -p privcluster-privlint --release -- list-waivers --markdown > privlint-waivers.md\n\
         ```\n\n\
         CI fails if this file is out of date. Sites are named by file and\n\
         waived code, not line number; `privlint list-waivers` prints lines.\n\n\
         | Rule | File | Waived code | Reason |\n\
         |------|------|-------------|--------|\n",
    );
    let mut rows: Vec<[String; 4]> = Vec::new();
    for file in &report.files {
        for w in &file.waivers {
            rows.push([
                w.rule.clone(),
                file.rel_path.clone(),
                w.target_code.replace('|', "\\|"),
                w.reason.clone(),
            ]);
        }
    }
    rows.sort();
    let count = rows.len();
    for [rule, file, code, reason] in rows {
        out.push_str(&format!("| `{rule}` | `{file}` | `{code}` | {reason} |\n"));
    }
    out.push_str(&format!("\n{count} waiver(s) total.\n"));
    out
}

/// Extracts the trimmed source line a finding points at.
pub fn snippet_for(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// Sorting helper so report ordering is independent of directory-walk order.
pub fn sort_files(files: &mut [CheckedFile]) {
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::lint_source;

    fn listing(src: &str) -> String {
        waivers_markdown(&Report {
            files: vec![lint_source("crates/demo/src/lib.rs", src)],
        })
    }

    #[test]
    fn waiver_listing_is_keyed_on_code_not_line_numbers() {
        let src = "fn f(seed: u64) {\n    \
                   // privlint::allow(unsalted-rng): the root stream.\n    \
                   let rng = StdRng::seed_from_u64(seed);\n}\n";
        let base = listing(src);
        assert!(
            base.contains(
                "| `crates/demo/src/lib.rs` | `let rng = StdRng::seed_from_u64(seed);` |"
            ),
            "{base}"
        );
        // Blank lines above the waived site move it without changing it.
        assert_eq!(listing(&format!("\n{src}")), base);
        assert_eq!(listing(&src.replacen('\n', "\n\n", 1)), base);
        // A changed reason, or another waiver, is a change to the listing.
        assert_ne!(listing(&src.replace("the root", "a root")), base);
        let added = format!(
            "{src}// privlint::allow(unsalted-rng): another root.\n\
             fn g(seed: u64) {{ StdRng::seed_from_u64(seed); }}\n"
        );
        assert_ne!(listing(&added), base);
        // Table cells escape the pipes of a waived closure.
        let closure = src.replace("seed_from_u64(seed)", "seed_from_u64((|| seed)())");
        assert!(listing(&closure).contains("seed_from_u64((\\|\\| seed)())"));
    }
}
