//! Fixture-driven rule tests.
//!
//! Every file under `tests/fixtures/` is a deliberately violating (or
//! deliberately clean) source file. Line 1 carries the workspace path to
//! lint it as (`//@ lint-as: crates/engine/src/cache.rs`), which is what
//! gives the fixture its crate/file scoping. Expected findings are marked
//! inline:
//!
//! * `//~ HIT <rule>` — an active finding on this line;
//! * `//~ WAIVED <rule>` — a finding on this line suppressed by a waiver;
//! * `//~^ …` — same, but the finding is on the previous line (used when
//!   the finding's line is itself a comment, e.g. a malformed waiver).
//!
//! A fixture with no markers asserts the file is completely clean. The
//! assertions go through the machine-readable JSON report — the same
//! document CI consumes — so these tests pin the report contract as well
//! as each rule: every rule has at least one fixture that fails if the
//! rule is deleted.

use privcluster_privlint::{check, report};
use serde::Value;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// (rule, line, waived) triple as asserted by the fixtures.
type Expect = (String, u32, bool);

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key `{key}` in JSON report")),
        other => panic!("expected object for key `{key}`, got {other:?}"),
    }
}

fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_bool(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        other => panic!("expected bool, got {other:?}"),
    }
}

/// Parses the `//@ lint-as:` header and the `//~` markers out of a fixture.
fn parse_fixture(name: &str, src: &str) -> (String, BTreeSet<Expect>) {
    let first = src.lines().next().unwrap_or_default();
    let lint_as = first
        .strip_prefix("//@ lint-as: ")
        .unwrap_or_else(|| panic!("{name}: first line must be `//@ lint-as: <path>`"))
        .trim()
        .to_string();
    let mut expected = BTreeSet::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let mut rest = &line[pos + 3..];
        let mut target = (idx + 1) as u32;
        if let Some(stripped) = rest.strip_prefix('^') {
            rest = stripped;
            target -= 1;
        }
        let mut words = rest.split_whitespace();
        let kind = words.next().unwrap_or_default();
        let rule = words
            .next()
            .unwrap_or_else(|| panic!("{name}:{}: marker missing rule id", idx + 1));
        let waived = match kind {
            "HIT" => false,
            "WAIVED" => true,
            other => panic!("{name}:{}: unknown marker kind `{other}`", idx + 1),
        };
        expected.insert((rule.to_string(), target, waived));
    }
    (lint_as, expected)
}

/// Extracts (rule, line, waived) triples for one file from the JSON report.
fn findings_from_json(doc: &Value, rel_path: &str) -> BTreeSet<Expect> {
    as_array(get(doc, "findings"))
        .iter()
        .filter(|f| as_str(get(f, "file")) == rel_path)
        .map(|f| {
            (
                as_str(get(f, "rule")).to_string(),
                as_num(get(f, "line")) as u32,
                as_bool(get(f, "waived")),
            )
        })
        .collect()
}

#[test]
fn every_fixture_matches_its_markers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures directory")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 37,
        "fixture corpus shrank: {} files",
        names.len()
    );
    let mut rules_with_hit_fixture = BTreeSet::new();
    for name in &names {
        let src = fs::read_to_string(dir.join(name)).expect("read fixture");
        let (lint_as, expected) = parse_fixture(name, &src);
        let checked = check::lint_source(&lint_as, &src);
        let rep = check::Report {
            files: vec![checked],
        };
        let doc = report::to_json(&rep);
        let actual = findings_from_json(&doc, &lint_as);
        assert_eq!(
            actual, expected,
            "{name}: JSON report findings disagree with //~ markers"
        );
        // The summary block must agree with the per-finding flags.
        let summary = get(&doc, "summary");
        let waived = expected.iter().filter(|(_, _, w)| *w).count();
        let active = expected.len() - waived;
        assert_eq!(as_num(get(summary, "active")) as usize, active, "{name}");
        assert_eq!(as_num(get(summary, "waived")) as usize, waived, "{name}");
        // Every waived finding must carry its waiver's reason in the report.
        for f in as_array(get(&doc, "findings")) {
            if as_bool(get(f, "waived")) {
                assert!(
                    !as_str(get(f, "waiver_reason")).is_empty(),
                    "{name}: waived finding without a reason"
                );
            }
        }
        for (rule, _, waived) in &expected {
            if !waived {
                rules_with_hit_fixture.insert(rule.clone());
            }
        }
    }
    // Each catalog rule must have at least one fixture that fails without it.
    for rule in privcluster_privlint::catalog::RULES {
        assert!(
            rules_with_hit_fixture.contains(rule.id),
            "rule `{}` has no HIT fixture",
            rule.id
        );
    }
}

/// Every catalog rule must carry a full fixture kit — a hit, a near-miss,
/// and a waived case — by the `<rule>_hit.rs` / `<rule>_near_miss*.rs` /
/// `<rule>_waived.rs` filename convention. The one exception is
/// `malformed-waiver`, which cannot be waived by design and documents that
/// with an `_unwaivable.rs` fixture instead. CI runs this test as the
/// self-fixture check step.
#[test]
fn every_rule_has_hit_near_miss_and_waived_fixtures() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures directory")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    let has = |prefix: &str, kind: &str| {
        names
            .iter()
            .any(|n| n.starts_with(&format!("{prefix}_{kind}")))
    };
    for rule in privcluster_privlint::catalog::RULES {
        let prefix = rule.id.replace('-', "_");
        assert!(has(&prefix, "hit"), "rule `{}` has no hit fixture", rule.id);
        assert!(
            has(&prefix, "near_miss"),
            "rule `{}` has no near-miss fixture",
            rule.id
        );
        let waived_kind = if rule.id == "malformed-waiver" {
            "unwaivable"
        } else {
            "waived"
        };
        assert!(
            has(&prefix, waived_kind),
            "rule `{}` has no {waived_kind} fixture",
            rule.id
        );
    }
}

/// End-to-end through the filesystem walker: a temp workspace containing a
/// violating file is scanned by `check_workspace`, and fixture/vendor/target
/// directories are skipped.
#[test]
fn check_workspace_walks_and_skips() {
    let dir = std::env::temp_dir().join(format!("privlint-walk-{}", std::process::id()));
    let src_dir = dir.join("crates/engine/src");
    let skip_dir = dir.join("vendor/fake/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::create_dir_all(&skip_dir).unwrap();
    fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    fs::write(
        src_dir.join("cache.rs"),
        "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
    )
    .unwrap();
    fs::write(
        skip_dir.join("cache.rs"),
        "pub fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
    )
    .unwrap();
    let rep = check::check_workspace(&dir).expect("scan temp workspace");
    fs::remove_dir_all(&dir).ok();
    assert_eq!(rep.active_count(), 1, "vendor/ must be skipped");
    let doc = report::to_json(&rep);
    let hits = findings_from_json(&doc, "crates/engine/src/cache.rs");
    assert_eq!(hits.len(), 1);
    assert!(hits.iter().all(|(rule, _, _)| rule == "lock-unwrap"));
}
