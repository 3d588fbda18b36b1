//! The check driver: walk the workspace, lex each file, run the per-file
//! rules and the global lock-order and `unused-pub` analyses, match
//! waivers, and assemble a [`Report`].

use crate::analyses::{self, FileLocks, LockOrderConfig};
use crate::catalog;
use crate::lexer;
use crate::report::snippet_for;
use crate::rules::{self, Finding};
use crate::scope::{cfg_test_line_ranges, in_ranges, FileScope, SigTokens};
use crate::waiver::{self, Waiver};
use std::collections::{BTreeSet, HashSet};
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
/// directly. The global analyses still run, seeing only this one file
/// (enough for single-file cycle fixtures; a `pub fn` it does not call
/// itself has no caller).
pub fn lint_source(rel_path: &str, src: &str) -> CheckedFile {
    lint_sources(&[(rel_path, src)], &[], &LockOrderConfig::empty())
        .pop()
        .expect("one input file yields one checked file")
}

/// Lints a set of in-memory sources as one workspace: per-file token rules
/// and dataflow first, then the cross-file lock-order and `unused-pub`
/// analyses, then waiver matching per file. `name_only` files (nested
/// workspaces that build against this one) are never linted; they only
/// count as callers for `unused-pub`.
pub fn lint_sources(
    files: &[(&str, &str)],
    name_only: &[(&str, &str)],
    lock_config: &LockOrderConfig,
) -> Vec<CheckedFile> {
    // Pass 1: per-file findings, waivers, lock surfaces and `pub fn`s, and
    // the identifiers production code names.
    let mut per_file: Vec<(Vec<Finding>, Vec<Waiver>, Vec<ReportedFinding>)> = Vec::new();
    let mut lock_files: Vec<FileLocks> = Vec::new();
    let mut pub_fns: Vec<Vec<analyses::PubFn>> = Vec::new();
    let mut names: HashSet<&str> = HashSet::new();
    let known: BTreeSet<&str> = catalog::RULES.iter().map(|r| r.id).collect();
    for (rel_path, src) in name_only {
        let all = lexer::lex(src);
        let sig = SigTokens::new(src, &all);
        let test_ranges = cfg_test_line_ranges(&sig);
        let lib = |line| !in_ranges(&test_ranges, line);
        let scope = FileScope::classify(rel_path);
        analyses::pub_fns_and_names(&scope, src, &sig, &lib, &mut names);
    }
    for (rel_path, src) in files {
        let scope = FileScope::classify(rel_path);
        let all = lexer::lex(src);
        let sig = SigTokens::new(src, &all);
        let (waivers, malformed) = waiver::collect(src, &all, &sig, &known);
        let findings = rules::run_rules(&scope, &sig);
        let test_ranges = cfg_test_line_ranges(&sig);
        let lib = |line| !in_ranges(&test_ranges, line);
        lock_files.push(analyses::extract_locks(&scope, &sig, &lib));
        pub_fns.push(analyses::pub_fns_and_names(
            &scope, src, &sig, &lib, &mut names,
        ));
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

    // Pass 2: the global lock graph, attributed back to witness files, and
    // the `pub fn`s no production code names.
    for (rel_path, finding) in analyses::analyze_locks(&lock_files, lock_config) {
        if let Some(i) = files.iter().position(|(p, _)| *p == rel_path) {
            per_file[i].0.push(finding);
        }
    }
    for (found, defs) in per_file.iter_mut().zip(&pub_fns) {
        found.0.extend(analyses::unused_pub(defs, &names));
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
/// the scanned workspace and is not held to its invariants. Those
/// subdirectories go to `nested`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>, nested: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            if declares_workspace(&path) {
                nested.push(path);
            } else {
                walk(&path, out, nested)?;
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
/// lock order declared in `root/lockorder.toml` when present. The sources
/// of nested workspaces are read as `unused-pub` callers only.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let lock_config = load_lock_config(root)?;
    let (mut paths, mut nested, mut caller_paths) = (Vec::new(), Vec::new(), Vec::new());
    walk(root, &mut paths, &mut nested)?;
    while let Some(dir) = nested.pop() {
        walk(&dir, &mut caller_paths, &mut nested)?;
    }
    let (sources, callers) = (
        read_sources(root, paths)?,
        read_sources(root, caller_paths)?,
    );
    // Keep every file in the report (files_scanned counts them), but the
    // interesting ones are those with findings or waivers.
    let mut files = lint_sources(&borrowed(&sources), &borrowed(&callers), &lock_config);
    crate::report::sort_files(&mut files);
    Ok(Report { files })
}

/// Reads each of `paths` as its `/`-separated path relative to `root` and
/// its source.
fn read_sources(root: &Path, paths: Vec<PathBuf>) -> io::Result<Vec<(String, String)>> {
    paths
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            Ok((rel, fs::read_to_string(&path)?))
        })
        .collect()
}

/// Borrows read sources the way [`lint_sources`] takes them.
fn borrowed(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect()
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

    /// The `unused-pub` findings of `defs` (linted at `crates/dp/src/params.rs`)
    /// when `callers` are linted with it and `name_only` read for names.
    fn unused_pub_in(defs: &str, callers: &[(&str, &str)], name_only: &[(&str, &str)]) -> Vec<u32> {
        let mut files = vec![("crates/dp/src/params.rs", defs)];
        files.extend_from_slice(callers);
        lint_sources(&files, name_only, &LockOrderConfig::empty())[0]
            .findings
            .iter()
            .filter(|f| f.rule == "unused-pub")
            .map(|f| f.line)
            .collect()
    }

    const DEFS: &str = "pub fn split_evenly() {}\n";

    #[test]
    fn unused_pub_counts_bins_examples_benches_and_nested_workspaces() {
        let call = "fn main() { params::split_evenly(); }\n";
        for caller in [
            "crates/server/src/bin/serve.rs",
            "examples/quickstart.rs",
            "crates/bench/benches/bench_dp.rs",
            "crates/bench/src/bin/exp_table1.rs",
        ] {
            assert_eq!(
                unused_pub_in(DEFS, &[(caller, call)], &[]),
                [] as [u32; 0],
                "{caller}"
            );
        }
        // The benchmark harness is a nested workspace the walk skips: read
        // for names only, never linted.
        let nested = [("perfbench/src/trace.rs", call)];
        assert_eq!(unused_pub_in(DEFS, &[], &nested), [] as [u32; 0]);
        assert_eq!(unused_pub_in(DEFS, &[], &[]), [1]);
    }

    #[test]
    fn unused_pub_ignores_tests_comments_doctests_and_reexports() {
        let in_cfg_test =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { split_evenly(); }\n}\n";
        let in_tests_dir = "fn t() { split_evenly(); }\n";
        let in_comments =
            "/// ```\n/// split_evenly();\n/// ```\nfn documented() {} // split_evenly()\n";
        let reexported = "pub use privcluster_dp::params::split_evenly;\n";
        for (path, src) in [
            ("crates/engine/src/planner.rs", in_cfg_test),
            ("crates/dp/tests/params.rs", in_tests_dir),
            ("tests/properties.rs", in_tests_dir),
            ("crates/engine/src/planner.rs", in_comments),
            ("src/lib.rs", reexported),
        ] {
            assert_eq!(
                unused_pub_in(DEFS, &[(path, src)], &[]),
                [1],
                "{path}: {src}"
            );
        }
        // A nested workspace's own tests are no callers either.
        let nested_test = [("perfbench/tests/gen.rs", in_tests_dir)];
        assert_eq!(unused_pub_in(DEFS, &[], &nested_test), [1]);
    }

    #[test]
    fn nested_workspace_sources_are_callers_only() {
        let root = std::env::temp_dir().join(format!("privlint-nested-{}", std::process::id()));
        let files = [
            ("Cargo.toml", "[workspace]\n"),
            (
                "crates/dp/src/lib.rs",
                "pub fn called_by_harness() {}\npub fn uncalled() {}\n",
            ),
            (
                "harness/Cargo.toml",
                "[package]\nname = \"h\"\n\n[workspace]\n",
            ),
            (
                "harness/src/main.rs",
                "pub fn harness_only() {}\nfn main() { called_by_harness(); }\n",
            ),
        ];
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let report = check_workspace(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        let paths: Vec<&str> = report.files.iter().map(|f| f.rel_path.as_str()).collect();
        assert_eq!(
            paths,
            ["crates/dp/src/lib.rs"],
            "the harness is never linted"
        );
        let lines: Vec<u32> = report.files[0].findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2]);
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
        let (mut found, mut nested) = (Vec::new(), Vec::new());
        walk(&root, &mut found, &mut nested).unwrap();
        assert_eq!(nested, [root.join("nested")]);
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
