//! `serve` refuses to start on a journal written with another `--shards`.
//!
//! Each shard count names its journal files differently and routes a
//! dataset by its name's hash modulo the count, so a restart with another
//! count would leave datasets' journals unread, and a client re-registering
//! one would get a fresh ledger: a silent budget refund. The refusal comes
//! before anything is written, and the right count still recovers. A file
//! the count would leave unread that holds no state (a count that received
//! no dataset for it created it) does not lock the count out, and a
//! refusal names the count of the highest shard file found.

use privcluster_server::shard_of;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A fresh directory for the test named `tag`.
fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "privcluster-shard-count-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The first dataset name `d<i>` that `pick` accepts.
fn name(pick: impl Fn(&str) -> bool) -> String {
    (0..).map(|i| format!("d{i}")).find(|n| pick(n)).unwrap()
}

/// Sends `lines` to `command` over stdio until its input ends; it must
/// exit cleanly and answer every line ok. Returns the answers.
fn answers(command: &mut Command, lines: &[String]) -> Vec<String> {
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for line in lines {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "{:?}", command.get_args());
    let answers: Vec<String> = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(answers.len(), lines.len());
    for (line, answer) in lines.iter().zip(&answers) {
        assert!(answer.starts_with("{\"ok\":true"), "{line} -> {answer}");
    }
    answers
}

/// `command` must exit non-zero, naming `file` and the count the journals
/// were written with, and leave every file in `dir` as it was. Returns its
/// stderr.
fn assert_refused(command: &mut Command, dir: &Path, file: &str, written_with: usize) -> String {
    let before = files(dir);
    let refused = command.stdin(Stdio::null()).output().unwrap();
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "started: {stderr}");
    assert!(stderr.contains("refusing to start"), "{stderr}");
    assert!(stderr.contains(file), "{stderr}");
    let count = format!("written with --shards {written_with}");
    assert!(stderr.contains(&count), "{stderr}");
    assert_eq!(
        files(dir),
        before,
        "{:?} changed the journals",
        command.get_args()
    );
    stderr.into_owned()
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
    let dir = journal_dir("refused");
    // One dataset per shard of two; the one on shard 0 routes elsewhere
    // under three shards.
    let datasets = [
        name(|n| shard_of(n, 2) == 0 && shard_of(n, 3) != 0),
        name(|n| shard_of(n, 2) == 1),
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
        assert_refused(&mut serve(&dir, shards), &dir, "journal-shard0.pcsj", 2);
    }
    assert_eq!(files(&dir), journals);

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

#[test]
fn an_empty_shard_file_past_the_count_does_not_lock_it_out() {
    let dir = journal_dir("empty-past-count");
    // Both datasets route to the same shard under two and three shards, so
    // three accepts the journals two wrote, and writes an empty shard 2.
    let datasets = [
        name(|n| shard_of(n, 2) == 0 && shard_of(n, 3) == 0),
        name(|n| shard_of(n, 2) == 1 && shard_of(n, 3) == 1),
    ];
    let mut lines = Vec::new();
    for dataset in &datasets {
        lines.extend([register_line(dataset), query_line(dataset)]);
    }
    let status_lines: Vec<String> = datasets.iter().map(|d| status_line(d)).collect();
    lines.extend(status_lines.iter().cloned());
    let statuses: Vec<String> = answers(&mut serve(&dir, 2), &lines)[4..]
        .iter()
        .map(|answer| status_of(answer))
        .collect();
    let status = |shards: usize| -> Vec<String> {
        answers(&mut serve(&dir, shards), &status_lines)
            .iter()
            .map(|answer| status_of(answer))
            .collect()
    };

    assert_eq!(status(3), statuses);
    let journals = files(&dir);
    assert_eq!(
        journals.keys().collect::<Vec<_>>(),
        [
            "journal-shard0.pcsj",
            "journal-shard1.pcsj",
            "journal-shard2.pcsj"
        ]
    );
    assert_eq!(journals["journal-shard2.pcsj"], b"PCSJ0001");

    // The count that wrote the records starts again, and reads them alike.
    assert_eq!(status(2), statuses);
    // A smaller one is still refused, and told the highest count found.
    assert_refused(&mut serve(&dir, 1), &dir, "journal-shard0.pcsj", 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_refusal_names_the_highest_shard_file_even_when_it_is_empty() {
    let dir = journal_dir("highest-empty");
    // One dataset, on shard 0 of three and shard 1 of two: shards 1 and 2
    // of three stay empty.
    let dataset = name(|n| shard_of(n, 3) == 0 && shard_of(n, 2) == 1);
    answers(
        &mut serve(&dir, 3),
        &[register_line(&dataset), query_line(&dataset)],
    );
    // One shard leaves shard 0 unread; the empty files are not named, and
    // the count is the one their names show.
    let stderr = assert_refused(&mut serve(&dir, 1), &dir, "journal-shard0.pcsj", 3);
    for empty in ["journal-shard1.pcsj", "journal-shard2.pcsj"] {
        assert!(!stderr.contains(empty), "{stderr}");
    }
    // Two shards leave only the empty shard 2 unread, then find the
    // dataset on the wrong shard.
    assert_refused(&mut serve(&dir, 2), &dir, "journal-shard0.pcsj", 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_empty_single_journal_does_not_lock_out_more_shards() {
    let dir = journal_dir("empty-single");
    answers(&mut serve(&dir, 1), &[]);
    assert_eq!(files(&dir)["journal.pcsj"], b"PCSJ0001");
    let dataset = name(|_| true);
    answers(
        &mut serve(&dir, 2),
        &[register_line(&dataset), status_line(&dataset)],
    );
    assert_eq!(files(&dir)["journal.pcsj"], b"PCSJ0001");
    std::fs::remove_dir_all(&dir).ok();

    // One that holds a record still refuses them.
    let dir = journal_dir("single-with-state");
    answers(&mut serve(&dir, 1), &[register_line(&dataset)]);
    assert_refused(&mut serve(&dir, 2), &dir, "journal.pcsj", 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_snapshotted_shard_past_the_count_is_still_refused() {
    let dir = journal_dir("snapshotted-past-count");
    let snapshots = journal_dir("snapshotted-past-count-snapshots");
    let with_snapshots = |shards: usize| {
        let mut command = serve(&dir, shards);
        command.arg("--snapshot-dir").arg(&snapshots);
        command.args(["--snapshot-every", "1"]);
        command
    };
    // A dataset on shard 2 of three: every record is snapshotted, and each
    // snapshot empties the journal back to its magic.
    let dataset = name(|n| shard_of(n, 3) == 2);
    let lines = [
        register_line(&dataset),
        query_line(&dataset),
        status_line(&dataset),
    ];
    let status = status_of(&answers(&mut with_snapshots(3), &lines)[2]);
    assert_eq!(files(&dir)["journal-shard2.pcsj"], b"PCSJ0001");
    assert!(files(&snapshots.join("shard2"))
        .keys()
        .any(|name| name.starts_with("snap-")));

    assert_refused(&mut with_snapshots(2), &dir, "journal-shard2.pcsj", 3);
    let recovered = answers(&mut with_snapshots(3), &[status_line(&dataset)]);
    assert_eq!(status_of(&recovered[0]), status);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&snapshots).ok();
}
