//! `serve` refuses to start on a journal written with another `--shards`.
//!
//! Each shard count names its journal files differently and routes a
//! dataset by its name's hash modulo the count, so a restart with another
//! count would leave datasets' journals unread, and a client re-registering
//! one would get a fresh ledger: a silent budget refund. The refusal comes
//! before anything is written, and the right count still recovers.

use privcluster_server::shard_of;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn journal_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privcluster-shard-count-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve(dir: &Path, shards: usize) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_serve"));
    command
        .arg("--journal")
        .arg(dir.join("journal.pcsj"))
        .args(["--shards", &shards.to_string(), "--threads", "1"]);
    command
}

/// Every file in `dir`, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

fn register_line(dataset: &str) -> String {
    format!(
        "{{\"op\":\"register\",\"dataset\":\"{dataset}\",\"domain\":{{\"dim\":2,\"size\":1024}},\
         \"budget\":{{\"epsilon\":2.0,\"delta\":0.0001}},\"synthetic\":{{\"kind\":\"planted_ball\",\
         \"n\":64,\"cluster_size\":32,\"cluster_radius\":0.05,\"seed\":11}}}}"
    )
}

fn query_line(dataset: &str) -> String {
    format!(
        "{{\"op\":\"query\",\"dataset\":\"{dataset}\",\"seed\":5,\"epsilon\":0.5,\
         \"delta\":1e-9,\"query\":{{\"type\":\"good_radius\",\"t\":16,\"beta\":0.1}}}}"
    )
}

fn status_line(dataset: &str) -> String {
    format!("{{\"op\":\"status\",\"dataset\":\"{dataset}\"}}")
}

/// The `status` object of a status answer (its `durability` says whether
/// the serve recovered, so it differs across restarts).
fn status_of(answer: &str) -> String {
    let value: Value = serde_json::from_str(answer).unwrap();
    let status = value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "status"))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no status in {answer}"));
    serde_json::to_string(status).unwrap()
}

#[test]
fn a_restart_with_another_shard_count_is_refused_and_writes_nothing() {
    let dir = journal_dir();
    let name =
        |pick: &dyn Fn(&str) -> bool| (0..).map(|i| format!("d{i}")).find(|n| pick(n)).unwrap();
    // One dataset per shard of two; the one on shard 0 routes elsewhere
    // under three shards.
    let datasets = [
        name(&|n| shard_of(n, 2) == 0 && shard_of(n, 3) != 0),
        name(&|n| shard_of(n, 2) == 1),
    ];

    // Serve with two shards, register and charge both datasets, then kill.
    let mut child = serve(&dir, 2)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut call = |request: String| {
        writeln!(stdin, "{request}").unwrap();
        let mut answer = String::new();
        stdout.read_line(&mut answer).unwrap();
        assert!(answer.starts_with("{\"ok\":true"), "{request} -> {answer}");
        answer
    };
    for dataset in &datasets {
        call(register_line(dataset));
        call(query_line(dataset));
    }
    let statuses: Vec<String> = datasets
        .iter()
        .map(|dataset| status_of(&call(status_line(dataset))))
        .collect();
    child.kill().unwrap();
    child.wait().unwrap();
    let journals = files(&dir);
    assert_eq!(
        journals.keys().collect::<Vec<_>>(),
        ["journal-shard0.pcsj", "journal-shard1.pcsj"]
    );

    for shards in [1, 3] {
        let refused = serve(&dir, shards).stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(
            !refused.status.success(),
            "--shards {shards} started: {stderr}"
        );
        assert!(stderr.contains("refusing to start"), "{stderr}");
        assert!(stderr.contains("journal-shard0.pcsj"), "{stderr}");
        assert!(stderr.contains("written with --shards 2"), "{stderr}");
        assert_eq!(
            files(&dir),
            journals,
            "--shards {shards} changed the journals"
        );
    }

    // The count the journals were written with recovers them as they were.
    let mut child = serve(&dir, 2)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for dataset in &datasets {
        writeln!(stdin, "{}", status_line(dataset)).unwrap();
    }
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());
    let recovered: Vec<String> = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(status_of)
        .collect();
    assert_eq!(recovered, statuses);
    std::fs::remove_dir_all(&dir).ok();
}
