//! The check driver: walk the workspace, lex each file, run the per-file
//! rules and the global lock-order analysis, match waivers, and assemble a
//! [`Report`].

use crate::analyses::{self, FileLocks, LockOrderConfig};
use crate::catalog;
use crate::lexer;
use crate::report::snippet_for;
use crate::rules::{self, Finding};
use crate::scope::{cfg_test_line_ranges, in_ranges, FileScope, SigTokens};
use crate::waiver::{self, Waiver};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding after waiver resolution.
#[derive(Debug, Clone)]
pub struct ReportedFinding {
    /// Rule id.
    pub rule: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Site-specific message.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
    /// Whether an inline waiver suppressed it.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waiver_reason: Option<String>,
}

/// Everything the check produced for one file.
#[derive(Debug, Clone)]
pub struct CheckedFile {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    /// Findings (waived ones included, flagged).
    pub findings: Vec<ReportedFinding>,
    /// Waivers found in the file (used or not).
    pub waivers: Vec<Waiver>,
}

/// The whole-workspace check result.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-file results, sorted by path.
    pub files: Vec<CheckedFile>,
}

impl Report {
    /// Findings not suppressed by a waiver. `--deny` fails on these.
    pub fn active_count(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.findings)
            .filter(|f| !f.waived)
            .count()
    }

    /// Findings suppressed by a waiver.
    pub fn waived_count(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.findings)
            .filter(|f| f.waived)
            .count()
    }

    /// Waivers that suppressed nothing (informational).
    pub fn unused_waiver_count(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.waivers)
            .filter(|w| !w.used)
            .count()
    }
}

/// Lints one file's source as if it lived at `rel_path` in the workspace.
/// This is the whole pipeline minus the filesystem — fixture tests call it
/// directly. The global lock-order analysis still runs, seeing only this
/// one file (enough for single-file cycle fixtures).
pub fn lint_source(rel_path: &str, src: &str) -> CheckedFile {
    lint_sources(&[(rel_path, src)], &LockOrderConfig::empty())
        .pop()
        .expect("one input file yields one checked file")
}

/// Lints a set of in-memory sources as one workspace: per-file token rules
/// and dataflow first, then the cross-file lock-order analysis, then
/// waiver matching per file.
pub fn lint_sources(files: &[(&str, &str)], lock_config: &LockOrderConfig) -> Vec<CheckedFile> {
    // Pass 1: per-file findings, waivers, and lock surfaces.
    let mut per_file: Vec<(Vec<Finding>, Vec<Waiver>, Vec<ReportedFinding>)> = Vec::new();
    let mut lock_files: Vec<FileLocks> = Vec::new();
    let known: BTreeSet<&str> = catalog::RULES.iter().map(|r| r.id).collect();
    for (rel_path, src) in files {
        let scope = FileScope::classify(rel_path);
        let all = lexer::lex(src);
        let sig = SigTokens::new(src, &all);
        let (waivers, malformed) = waiver::collect(src, &all, &sig, &known);
        let findings = rules::run_rules(&scope, &sig);
        let test_ranges = cfg_test_line_ranges(&sig);
        lock_files.push(analyses::extract_locks(&scope, &sig, &|line| {
            !in_ranges(&test_ranges, line)
        }));
        // Malformed waivers are findings in their own right, never waivable.
        let malformed_reported = malformed
            .into_iter()
            .map(|m| ReportedFinding {
                rule: "malformed-waiver".to_string(),
                line: m.line,
                col: 1,
                message: m.message,
                snippet: snippet_for(src, m.line),
                waived: false,
                waiver_reason: None,
            })
            .collect();
        per_file.push((findings, waivers, malformed_reported));
    }

    // Pass 2: the global lock graph, attributed back to witness files.
    for (rel_path, finding) in analyses::analyze_locks(&lock_files, lock_config) {
        if let Some(i) = files.iter().position(|(p, _)| *p == rel_path) {
            per_file[i].0.push(finding);
        }
    }

    // Pass 3: waiver matching and assembly.
    let mut out = Vec::new();
    for ((rel_path, src), (mut raw, mut waivers, malformed_reported)) in files.iter().zip(per_file)
    {
        raw.sort_by_key(|f| (f.line, f.col));
        let mut findings: Vec<ReportedFinding> = Vec::new();
        for f in raw {
            // A waiver matches when it names the rule and targets the
            // finding's line. First match wins and is marked used.
            let matched = waivers
                .iter_mut()
                .find(|w| w.rule == f.rule && w.target_line == Some(f.line));
            let (waived, waiver_reason) = match matched {
                Some(w) => {
                    w.used = true;
                    (true, Some(w.reason.clone()))
                }
                None => (false, None),
            };
            findings.push(ReportedFinding {
                rule: f.rule.to_string(),
                line: f.line,
                col: f.col,
                message: f.message,
                snippet: snippet_for(src, f.line),
                waived,
                waiver_reason,
            });
        }
        findings.extend(malformed_reported);
        findings.sort_by_key(|f| (f.line, f.col, f.rule.clone()));
        out.push(CheckedFile {
            rel_path: rel_path.to_string(),
            findings,
            waivers,
        });
    }
    out
}

/// Directories never scanned: build output, vendored shims (external API
/// surface, not engine code), VCS metadata, and the lint's own deliberately
/// violating fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", ".github"];

/// Collects the `.rs` files under `dir`, skipping [`SKIP_DIRS`] and every
/// subdirectory that is a workspace of its own (such as the benchmark
/// harness, which builds against the crates by path): its code is outside
/// the scanned workspace and is not held to its invariants.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !declares_workspace(&path) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads the declared lock order from `root/lockorder.toml`; a missing
/// file means cycle detection only, a malformed one is an error so CI
/// cannot silently drop the order check.
pub fn load_lock_config(root: &Path) -> io::Result<LockOrderConfig> {
    match fs::read_to_string(root.join("lockorder.toml")) {
        Ok(text) => LockOrderConfig::parse_toml(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(LockOrderConfig::empty()),
        Err(e) => Err(e),
    }
}

/// Walks `root` and lints every Rust source file in scope, against the
/// lock order declared in `root/lockorder.toml` when present.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let lock_config = load_lock_config(root)?;
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    let mut sources = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    // Keep every file in the report (files_scanned counts them), but the
    // interesting ones are those with findings or waivers.
    let mut files = lint_sources(&borrowed, &lock_config);
    crate::report::sort_files(&mut files);
    Ok(Report { files })
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if declares_workspace(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Whether `dir` has a `Cargo.toml` that declares a `[workspace]` section.
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_suppresses_matching_rule_and_line_only() {
        let src = "\
fn f() {
    // privlint::allow(lock-unwrap): the guarded map survives panics intact
    m.lock().unwrap();
    m.lock().unwrap();
}
";
        let out = lint_source("crates/engine/src/a.rs", src);
        assert_eq!(out.findings.len(), 2);
        assert!(out.findings[0].waived);
        assert_eq!(
            out.findings[0].waiver_reason.as_deref(),
            Some("the guarded map survives panics intact")
        );
        assert!(!out.findings[1].waived);
        assert!(out.waivers[0].used);
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let src = "// privlint::allow(lock-unwrap)\nfn f() {}\n";
        let out = lint_source("crates/engine/src/a.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "malformed-waiver");
    }

    #[test]
    fn walk_skips_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("privlint-walk-{}", std::process::id()));
        let files = [
            ("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n"),
            ("src/lib.rs", ""),
            ("member/Cargo.toml", "[package]\nname = \"member\"\n"),
            ("member/src/lib.rs", ""),
            (
                "nested/Cargo.toml",
                "[package]\nname = \"nested\"\n\n[workspace]\n",
            ),
            ("nested/src/main.rs", ""),
        ];
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let mut found = Vec::new();
        walk(&root, &mut found).unwrap();
        let mut rel: Vec<String> = found
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        rel.sort();
        assert_eq!(rel, ["member/src/lib.rs", "src/lib.rs"]);
        // The nested workspace is its own root, found by the same test.
        assert_eq!(
            find_workspace_root(&root.join("nested/src")),
            Some(root.join("nested"))
        );
        assert_eq!(
            find_workspace_root(&root.join("member/src")),
            Some(root.clone())
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
