//! Real-workspace regression tests: the syntax-aware analyses must derive
//! the engine's actual lock graph and write-ahead sites from the live
//! sources — not just from fixtures — and the workspace must stay at zero
//! active findings under the declared `lockorder.toml`.

use privcluster_privlint::analyses::LockOrderConfig;
use privcluster_privlint::{check, lint_source, lint_sources};
use std::fs;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/privlint sits two levels below the workspace root")
}

fn engine_src() -> String {
    fs::read_to_string(workspace_root().join("crates/engine/src/engine.rs"))
        .expect("read real engine.rs")
}

/// The whole workspace, scanned exactly as CI scans it (including the
/// committed `lockorder.toml`), must have zero active findings.
#[test]
fn real_workspace_is_clean_under_declared_lock_order() {
    let root = workspace_root();
    let config = check::load_lock_config(root).expect("lockorder.toml parses");
    assert!(
        config.order.iter().any(|c| c == "accountant"),
        "lockorder.toml must declare the accountant class"
    );
    let report = check::check_workspace(root).expect("scan workspace");
    let active: Vec<String> = report
        .files
        .iter()
        .flat_map(|f| {
            f.findings
                .iter()
                .filter(|x| !x.waived)
                .map(move |x| format!("{}:{} [{}] {}", f.rel_path, x.line, x.rule, x.message))
        })
        .collect();
    assert!(active.is_empty(), "active findings: {active:#?}");
}

/// The lock graph must derive the engine's real edges from the live
/// source: `admit_inner` holds `pending` while touching `cache`, and holds
/// the cache guard while consulting the accountant. Declaring the reverse
/// order surfaces both as inversions — proof the analysis is not
/// vacuously clean.
#[test]
fn lock_graph_derives_real_engine_edges() {
    let src = engine_src();
    // registry.rs defines `DatasetEntry::accountant`, the guard-returning
    // helper the engine calls under its cache guard — the cross-file
    // resolution under test.
    let registry = fs::read_to_string(workspace_root().join("crates/engine/src/registry.rs"))
        .expect("read real registry.rs");
    let reversed = LockOrderConfig {
        order: vec![
            "accountant".to_string(),
            "cache".to_string(),
            "pending".to_string(),
        ],
    };
    let checked = lint_sources(
        &[
            ("crates/engine/src/engine.rs", &src),
            ("crates/engine/src/registry.rs", &registry),
        ],
        &[],
        &reversed,
    );
    let messages: Vec<&str> = checked[0]
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order" && !f.waived)
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`cache` is acquired while `pending` is held")),
        "pending→cache edge not derived: {messages:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`accountant` is acquired while `cache` is held")),
        "cache→accountant edge not derived: {messages:#?}"
    );
}

/// `charge-release-paths` re-derives the PR-5 and PR-8 write-ahead sites
/// from the live engine source: clean as written (no waivers), and
/// violated the moment a refund follows the journaled charge or a version
/// flip precedes the reregister append.
#[test]
fn charge_release_rederives_write_ahead_sites() {
    let src = engine_src();
    let clean = lint_source("crates/engine/src/engine.rs", &src);
    assert!(
        clean
            .findings
            .iter()
            .all(|f| f.rule != "charge-release-paths"),
        "the live engine must need no charge-release-paths waivers"
    );
    // PR-5 site (admit_inner): credit the spend back after the charge
    // append — the exact bug the rule exists to catch.
    let anchor_a = "let remaining_epsilon = match charged {";
    assert!(src.contains(anchor_a), "admit_inner anchor moved");
    let tampered = src.replace(
        anchor_a,
        "self.refund_spend(&key);\n        let remaining_epsilon = match charged {",
    );
    let found = lint_source("crates/engine/src/engine.rs", &tampered);
    assert!(
        found
            .findings
            .iter()
            .any(|f| f.rule == "charge-release-paths" && f.message.contains("refund")),
        "refund after the PR-5 charge append must be flagged"
    );
    // PR-8 site (reregister): flip the registry before the reregister
    // record is durable.
    let anchor_b = "store.append(StoreRecord::Reregister(ReregisterRecord {";
    assert!(src.contains(anchor_b), "reregister anchor moved");
    let tampered = src.replace(
        anchor_b,
        "self.registry.push_version(entry.clone())?;\n                store.append(StoreRecord::Reregister(ReregisterRecord {",
    );
    let found = lint_source("crates/engine/src/engine.rs", &tampered);
    assert!(
        found
            .findings
            .iter()
            .any(|f| f.rule == "charge-release-paths" && f.message.contains("push_version")),
        "version flip before the PR-8 reregister append must be flagged"
    );
}

/// The lock graph must derive the store's group-commit edge from the live
/// source: `append_deferred` acquires the `commit` state mutex while the
/// store's `inner` lock is held (the snapshot path releases queued
/// waiters under both). Declaring `commit` before `inner` surfaces the
/// inversion — proof the new subsystem is inside the analysis, not past
/// its edge.
#[test]
fn lock_graph_derives_store_group_commit_edge() {
    let src = fs::read_to_string(workspace_root().join("crates/store/src/store.rs"))
        .expect("read real store.rs");
    let reversed = LockOrderConfig {
        order: vec!["commit".to_string(), "inner".to_string()],
    };
    let checked = lint_sources(&[("crates/store/src/store.rs", &src)], &[], &reversed);
    let messages: Vec<&str> = checked[0]
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order" && !f.waived)
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`commit` is acquired while `inner` is held")),
        "inner→commit group-commit edge not derived: {messages:#?}"
    );
}

/// `charge-release-paths` now covers the server crate: a refund-shaped
/// call after a journaled charge in `crates/server` is flagged exactly as
/// it would be in the engine, while the same source outside both crates
/// stays out of scope.
#[test]
fn charge_release_scope_covers_server_crate() {
    let src = r#"
fn admit_and_refund(store: &Store) -> Result<(), StoreError> {
    store.append(StoreRecord::Charge(ChargeRecord { seq: 0 }))?;
    refund_spend(store);
    Ok(())
}
"#;
    let in_server = lint_source("crates/server/src/front.rs", src);
    assert!(
        in_server
            .findings
            .iter()
            .any(|f| f.rule == "charge-release-paths" && f.message.contains("refund")),
        "server-crate refund-after-charge must be flagged: {:#?}",
        in_server.findings
    );
    let out_of_scope = lint_source("crates/report/src/front.rs", src);
    assert!(
        out_of_scope
            .findings
            .iter()
            .all(|f| f.rule != "charge-release-paths"),
        "crates outside engine/server stay out of charge-release scope"
    );
}
