//! The privcluster service front-end: JSON-lines protocol over stdio or
//! TCP, with per-dataset engine shards, group-commit durability, and
//! admission backpressure.
//!
//! ```text
//! serve [--journal PATH [--snapshot-dir DIR] [--snapshot-every N] | --in-memory]
//!       [--shards N] [--group-commit-max-batch N] [--group-commit-max-wait-us N]
//!       [--max-inflight N]
//!       [--tcp ADDR] [--threads N] [--cache N]
//!       [--metrics ADDR] [--events PATH]
//! ```
//!
//! By default the service speaks newline-delimited JSON over stdin/stdout —
//! ideal for piping canned request scripts (the CI smoke test does exactly
//! that). With `--tcp ADDR` it listens on a socket and serves connections
//! concurrently. On either transport every request goes through
//! `ShardedServer::handle`, the one dispatcher, over the shards (one unless
//! `--shards` says otherwise); the `privcluster_engine::protocol` docs give
//! the request/response schema.
//!
//! Durability: with `--journal PATH` every shard runs in write-ahead mode —
//! every registration and admitted budget charge is fsynced to the shard's
//! journal *before* its result is released, and restarting on the same
//! journal recovers the spent budget exactly (never refunded). With
//! `--shards N` (N > 1) shard `i` journals to `PATH`'s stem suffixed
//! `-shard<i>` and snapshots under `DIR/shard<i>`. A restart with another
//! `--shards` than the journal was written with is refused (exit 1)
//! before anything is written: it would leave datasets' journals unread,
//! and a client re-registering one would get a fresh ledger. A file the
//! count would leave unread is ignored when it holds no record and its
//! snapshot directory no snapshot: a count that received no dataset for it
//! created it. Each shard's
//! group-commit writer thread makes those commits durable: concurrent
//! charges share one fsync, a batch holds at most
//! `--group-commit-max-batch` records (default 64, at least 1), and the
//! writer dwells up to `--group-commit-max-wait-us` (default 0) for a
//! batch to fill. `--max-inflight` bounds each shard's concurrent
//! admissions; beyond it requests receive a structured `retry` error
//! immediately (backpressure instead of unbounded buffering).
//!
//! Observability: `--metrics ADDR` serves the merged metrics snapshot as
//! Prometheus exposition text on a second listener (plain HTTP GET), and
//! `--events PATH` appends every structured telemetry event as one JSON
//! line (events buffered before the file opens — recovery, registration —
//! are flushed into it first; shards share the file). Both are passive:
//! protocol output on stdout and the stderr banner lines are bit-identical
//! with or without them.

use privcluster_engine::{Engine, EngineConfig, GroupCommitConfig, StoreConfig};
use privcluster_obs::{event, prom, Severity};
use privcluster_server::net;
use privcluster_server::{shard_of, ShardedServer};
use privcluster_store::StoreError;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--journal PATH [--snapshot-dir DIR] [--snapshot-every N] | --in-memory] \
         [--shards N] [--group-commit-max-batch N] [--group-commit-max-wait-us N] \
         [--max-inflight N] [--tcp ADDR] [--threads N] [--cache N] [--metrics ADDR] \
         [--events PATH]"
    );
    std::process::exit(2);
}

/// Shard `shard`'s journal path: the configured path itself for a single
/// shard (byte-compatible with pre-sharding journals), the stem suffixed
/// `-shard<i>` otherwise.
fn shard_journal_path(base: &str, shard: usize, shards: usize) -> PathBuf {
    let path = Path::new(base);
    if shards == 1 {
        return path.to_path_buf();
    }
    let (prefix, suffix) = shard_name_parts(path);
    path.with_file_name(format!("{prefix}{shard}{suffix}"))
}

/// What comes before and after `<i>` in shard `i`'s journal file name:
/// `{stem}-shard` and `.{ext}` (empty without an extension).
fn shard_name_parts(path: &Path) -> (String, String) {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("journal");
    let suffix = match path.extension().and_then(|s| s.to_str()) {
        Some(ext) => format!(".{ext}"),
        None => String::new(),
    };
    (format!("{stem}-shard"), suffix)
}

/// The journal files next to a `--journal` path, found with one
/// `read_dir` (nothing is written).
struct JournalLayout {
    /// The path itself exists: written with `--shards 1`.
    single: bool,
    /// The shard files `{stem}-shard<k>.{ext}`, sorted by `k`.
    shard_files: Vec<(usize, PathBuf)>,
}

impl JournalLayout {
    fn scan(base: &str) -> std::io::Result<JournalLayout> {
        let path = Path::new(base);
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let mut layout = JournalLayout {
            single: false,
            shard_files: Vec::new(),
        };
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            // `Engine::open` reports a missing directory.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(layout),
            Err(e) => return Err(e),
        };
        let (prefix, suffix) = shard_name_parts(path);
        for entry in entries {
            let name = entry?.file_name();
            if Some(name.as_os_str()) == path.file_name() {
                layout.single = true;
                continue;
            }
            let index = name
                .to_str()
                .and_then(|name| name.strip_prefix(prefix.as_str()))
                .and_then(|rest| rest.strip_suffix(suffix.as_str()))
                .filter(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|digits| digits.parse::<usize>().ok());
            if let Some(k) = index {
                layout.shard_files.push((k, dir.join(name)));
            }
        }
        layout.shard_files.sort();
        Ok(layout)
    }

    /// The count the shard files were written with: the highest `k` plus
    /// one (every shard's file is created when it opens).
    fn shard_count(&self) -> usize {
        self.shard_files.last().map_or(0, |(k, _)| k + 1)
    }

    /// The files `--shards shards` would leave unread that hold state, each
    /// group with the count it was written with: the path itself when
    /// `shards` > 1, and shard `k`'s file when `shards` is 1 or `k` ≥
    /// `shards`. A file whose store holds no state
    /// ([`StoreConfig::holds_state`]: no record past the journal's magic,
    /// no snapshot under `snapshot_dir`) is left out: a count that received
    /// no dataset for it created it, and leaving it unread refunds nothing.
    /// Only those files are read, so a fresh directory, or the count that
    /// wrote it, reads nothing.
    fn unread_by(
        &self,
        base: &str,
        shards: usize,
        snapshot_dir: Option<&str>,
    ) -> Result<Vec<String>, StoreError> {
        // Shard `shard`'s store as `--shards count` opens it.
        let holds_state = |shard: usize, count: usize| {
            let mut store = StoreConfig::journal_only(shard_journal_path(base, shard, count));
            store.snapshot_dir = snapshot_dir.map(|dir| shard_snapshot_dir(dir, shard, count));
            store.holds_state()
        };
        let mut unread = Vec::new();
        if self.single && shards > 1 && holds_state(0, 1)? {
            unread.push(format!("{base} (written with --shards 1)"));
        }
        // Only a count above 1 names its journals by shard.
        let count = self.shard_count().max(2);
        let mut files = Vec::new();
        for (k, file) in &self.shard_files {
            if (shards == 1 || *k >= shards) && holds_state(*k, count)? {
                files.push(file.display().to_string());
            }
        }
        if !files.is_empty() {
            unread.push(format!(
                "{} (written with --shards {})",
                files.join(", "),
                self.shard_count()
            ));
        }
        Ok(unread)
    }
}

/// Shard `shard`'s snapshot directory: the configured directory itself for
/// a single shard, a `shard<i>` subdirectory otherwise.
fn shard_snapshot_dir(base: &str, shard: usize, shards: usize) -> PathBuf {
    if shards == 1 {
        PathBuf::from(base)
    } else {
        Path::new(base).join(format!("shard{shard}"))
    }
}

/// An events sink shared by every shard's event stream: one mutex-guarded
/// file handle, so concurrently emitted event lines never interleave
/// mid-line. The lock is taken with poison recovery: a writer that
/// panicked mid-write loses at most its own event line, and the file
/// handle itself is never left inconsistent.
struct SharedSink {
    file: Arc<Mutex<std::fs::File>>,
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }
}

/// Serves `GET /metrics`-style scrapes: reads the request head, answers
/// with the merged snapshot rendered as Prometheus text, closes. One
/// connection at a time is plenty for a scraper, and a hand-rolled
/// HTTP/1.0 response keeps the binary dependency-free.
fn serve_metrics(server: Arc<ShardedServer>, listener: std::net::TcpListener) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        // Drain the request head (anything up to a blank line) so well-
        // behaved HTTP clients do not see a reset; ignore its contents —
        // every path scrapes the same snapshot.
        let mut head = [0u8; 4096];
        let _ = stream.read(&mut head);
        let body = prom::render(&server.metrics_snapshot());
        let _ = write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let _ = stream.flush();
    }
}

fn main() -> ExitCode {
    let mut tcp_addr: Option<String> = None;
    let mut config = EngineConfig::default();
    let mut journal: Option<String> = None;
    let mut snapshot_dir: Option<String> = None;
    let mut snapshot_every: usize = 1024;
    let mut in_memory = false;
    let mut metrics_addr: Option<String> = None;
    let mut events_path: Option<String> = None;
    let mut shards: usize = 1;
    let mut group_commit = GroupCommitConfig::default();
    let mut max_inflight: usize = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => tcp_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--threads" => {
                config.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--cache" => {
                config.cache_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--journal" => journal = Some(args.next().unwrap_or_else(|| usage())),
            "--snapshot-dir" => snapshot_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--snapshot-every" => {
                snapshot_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--in-memory" => in_memory = true,
            "--metrics" => metrics_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--events" => events_path = Some(args.next().unwrap_or_else(|| usage())),
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--group-commit-max-batch" => {
                group_commit.max_batch = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--group-commit-max-wait-us" => {
                group_commit.max_wait_us = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--max-inflight" => {
                max_inflight = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if in_memory && journal.is_some() {
        eprintln!("serve: --in-memory and --journal are mutually exclusive");
        usage();
    }
    if journal.is_none() && snapshot_dir.is_some() {
        eprintln!("serve: --snapshot-dir needs --journal");
        usage();
    }

    // A restart with another `--shards` would leave datasets' journals
    // unread, and a client that re-registers one would get a fresh ledger:
    // a silent budget refund. Refuse before any file is opened.
    let shard_journals_found = match &journal {
        Some(path) => {
            let layout = match JournalLayout::scan(path) {
                Ok(layout) => layout,
                Err(e) => {
                    eprintln!("serve: cannot list the journal directory of {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let unread = match layout.unread_by(path, shards, snapshot_dir.as_deref()) {
                Ok(unread) => unread,
                Err(e) => {
                    eprintln!("serve: cannot read the journals next to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if !unread.is_empty() {
                eprintln!(
                    "serve: refusing to start with --shards {shards}: it would leave {} \
                     unread; restart with the count they were written with",
                    unread.join(" and ")
                );
                return ExitCode::FAILURE;
            }
            layout.shard_count()
        }
        None => 0,
    };

    let mut engines = Vec::with_capacity(shards);
    for shard in 0..shards {
        let engine = match &journal {
            Some(path) => {
                let shard_path = shard_journal_path(path, shard, shards);
                let mut store_config = StoreConfig::journal_only(&shard_path);
                store_config.snapshot_dir = snapshot_dir
                    .as_ref()
                    .map(|dir| shard_snapshot_dir(dir, shard, shards));
                store_config.snapshot_every = snapshot_every;
                store_config.group_commit = Some(group_commit);
                match Engine::open(config, store_config) {
                    Ok(engine) => {
                        // A smaller count wrote files under some of this
                        // count's names; their datasets route elsewhere.
                        let names = engine.dataset_names();
                        if let Some(name) = names.iter().find(|n| shard_of(n, shards) != shard) {
                            eprintln!(
                                "serve: refusing to start with --shards {shards}: journal {} \
                                 holds dataset `{name}`, which --shards {shards} routes to \
                                 shard {}; the directory's shard journals were written with \
                                 --shards {}",
                                shard_path.display(),
                                shard_of(name, shards),
                                shard_journals_found
                            );
                            return ExitCode::FAILURE;
                        }
                        let durability = engine.durability();
                        // Stderr only: stdout stays pure protocol. (The
                        // crash-recovery smoke greps this exact line; the
                        // structured `serve.banner` event below is the
                        // machine-readable copy.)
                        eprintln!(
                            "privcluster-engine: journal {} (seq {}, recovered: {})",
                            shard_path.display(),
                            durability.journal_seq,
                            durability.recovered
                        );
                        event!(
                            engine.events(),
                            Severity::Info,
                            "serve.banner",
                            journal_seq = durability.journal_seq,
                            recovered = durability.recovered,
                        );
                        engine
                    }
                    Err(e) => {
                        eprintln!("serve: cannot open durable engine: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => {
                let engine = Engine::new(config);
                if !in_memory {
                    if shard == 0 {
                        eprintln!(
                            "privcluster-engine: running IN-MEMORY — spent privacy budget will NOT \
                             survive a restart; pass --journal PATH for durability or --in-memory \
                             to silence this warning"
                        );
                    }
                    event!(
                        engine.events(),
                        Severity::Warn,
                        "serve.volatile_mode",
                        journaled = false,
                    );
                }
                engine
            }
        };
        engines.push(engine);
    }

    if let Some(path) = &events_path {
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(file) => {
                if engines.len() == 1 {
                    engines[0].events().set_sink(Box::new(file));
                } else {
                    let shared = Arc::new(Mutex::new(file));
                    for engine in &engines {
                        engine.events().set_sink(Box::new(SharedSink {
                            file: Arc::clone(&shared),
                        }));
                    }
                }
            }
            Err(e) => {
                eprintln!("serve: cannot open events file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let server = Arc::new(ShardedServer::new(engines, max_inflight));

    // The metrics endpoint runs on its own thread over a shared Arc; it
    // only ever *reads* snapshots, so it cannot perturb the protocol loop.
    if let Some(addr) = &metrics_addr {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("serve: cannot bind metrics listener on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Ok(bound) = listener.local_addr() {
            eprintln!("privcluster-engine metrics listening on {bound}");
        }
        let server = Arc::clone(&server);
        // Detached: the scrape loop dies with the process.
        std::thread::spawn(move || serve_metrics(server, listener));
    }

    let served = match tcp_addr {
        Some(addr) => net::serve_tcp(&server, &addr, |bound| {
            // Written to stderr so stdout stays pure protocol.
            eprintln!("privcluster-engine listening on {bound}");
        }),
        None => {
            let result = net::serve_stdio(&server);
            std::io::stdout().flush().ok();
            result
        }
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}
