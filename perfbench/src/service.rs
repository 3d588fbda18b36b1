//! The timed run: set up the release `serve`, drive the request log over
//! TCP, kill and restart it on its journal, and check every answer.

use crate::gen::{Class, Inputs, Op, QUERY_DELTA};
use crate::tcp::{dir_bytes, Conn, Serve};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups per run, all before the timed phase (on `ledger-small`, set-ups
/// taken after it, beside the 39 MB of journal and snapshots it had just
/// written, took up to 70% longer). `setup_s` is their median; the last
/// one serves the timed phase.
const SETUPS: usize = 9;
/// `kill -9` + restart cycles per run; `recovery_s` is their median.
const RESTARTS: usize = 9;
/// A `retry` (backpressure) answer is resent after this pause, up to
/// `MAX_RETRIES` times before the operation counts as failed.
const RETRY_PAUSE: Duration = Duration::from_micros(200);
const MAX_RETRIES: u32 = 10_000;

/// One answered timed-phase request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Seconds from the start of the timed phase to the first send.
    pub sent: f64,
    /// Seconds from the first send to the final answer (retries included).
    pub latency: f64,
    pub response: String,
    pub retries: u32,
}

#[derive(Debug)]
pub struct TcpRun {
    pub setup_s: Vec<f64>,
    /// Per connection, one sample per op of its log.
    pub samples: Vec<Vec<Sample>>,
    pub elapsed_s: f64,
    pub recovery_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub disk_bytes: u64,
    /// Register and warm-up answers, in send order.
    pub setup_responses: Vec<String>,
    /// Journal (and snapshot) directory of the timed server.
    pub state_dir: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    /// Successful query operations (singles plus batch members).
    pub query_ops: u64,
    /// Correctness violations; empty when every check passed.
    pub violations: Vec<String>,
}

pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

pub fn parse(line: &str) -> Result<Value, String> {
    serde_json::from_str(line).map_err(|e| format!("unparseable response `{line}`: {e}"))
}

pub fn is_ok(response: &Value) -> bool {
    matches!(field(response, "ok"), Some(Value::Bool(true)))
}

pub fn error_kind(response: &Value) -> Option<String> {
    field(response, "error")
        .and_then(|e| field(e, "kind"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// The released value of a query answer, as canonical JSON text.
pub fn released(response: &Value) -> Option<String> {
    field(response, "result").map(|r| serde_json::to_string(r).expect("serializable"))
}

/// The per-member answers of a batch response.
pub fn members(response: &Value) -> Vec<Value> {
    field(response, "responses")
        .and_then(Value::as_array)
        .map(|a| a.to_vec())
        .unwrap_or_default()
}

/// `serve` arguments for a state directory.
pub fn serve_args(inputs: &Inputs, dir: &Path) -> Vec<String> {
    let mut args = vec![
        "--journal".to_string(),
        dir.join("journal.pcsj").display().to_string(),
    ];
    if inputs.spec.snapshots {
        args.push("--snapshot-dir".to_string());
        args.push(dir.join("snapshots").display().to_string());
        args.push("--snapshot-every".to_string());
        args.push("1024".to_string());
    }
    args.extend(inputs.spec.serve_flags());
    args
}

/// Spawns `serve` on a fresh state directory, registers every dataset and
/// runs the warm-up. Returns the server, the set-up time and the answers.
fn set_up(inputs: &Inputs, bin: &Path, dir: &Path) -> Result<(Serve, f64, Vec<String>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let clock = Instant::now();
    let serve = Serve::spawn(bin, &serve_args(inputs, dir))?;
    let mut conn = serve.connect()?;
    let mut answers = Vec::new();
    for op in inputs.registers.iter().chain(&inputs.warmup) {
        let answer = conn.call(&op.line)?;
        if !is_ok(&parse(&answer)?) {
            return Err(format!("set-up request failed: {answer}"));
        }
        answers.push(answer);
    }
    Ok((serve, clock.elapsed().as_secs_f64(), answers))
}

/// Sends one op, resending on `retry`; latency spans every attempt.
fn drive(conn: &mut Conn, op: &Op, epoch: Instant) -> Result<Sample, String> {
    let sent = epoch.elapsed().as_secs_f64();
    let clock = Instant::now();
    let mut retries = 0;
    loop {
        let response = conn.call(&op.line)?;
        let retry = response.starts_with("{\"ok\":false")
            && error_kind(&parse(&response)?).as_deref() == Some("retry");
        if retry && retries < MAX_RETRIES {
            retries += 1;
            std::thread::sleep(RETRY_PAUSE);
            continue;
        }
        return Ok(Sample {
            sent,
            latency: clock.elapsed().as_secs_f64(),
            response,
            retries,
        });
    }
}

/// The statuses of every dataset, as canonical JSON of the `status` object.
fn statuses(conn: &mut Conn, inputs: &Inputs) -> Result<Vec<String>, String> {
    inputs
        .names
        .iter()
        .map(|name| {
            let answer =
                parse(&conn.call(&format!("{{\"op\":\"status\",\"dataset\":\"{name}\"}}"))?)?;
            field(&answer, "status")
                .map(|s| serde_json::to_string(s).expect("serializable"))
                .ok_or_else(|| format!("status of {name} failed"))
        })
        .collect()
}

/// A set-up whose server is discarded; returns its time.
fn throwaway_set_up(inputs: &Inputs, bin: &Path, dir: &Path) -> Result<f64, String> {
    let (serve, seconds, _) = set_up(inputs, bin, dir)?;
    serve.kill();
    let _ = std::fs::remove_dir_all(dir);
    Ok(seconds)
}

pub fn run(inputs: &Inputs, bin: &Path, work: &Path) -> Result<TcpRun, String> {
    let mut setup_s = Vec::new();
    for k in 1..SETUPS {
        setup_s.push(throwaway_set_up(
            inputs,
            bin,
            &work.join(format!("setup{k}")),
        )?);
    }
    let state_dir = work.join("serve");
    let (serve, seconds, setup_responses) = set_up(inputs, bin, &state_dir)?;
    setup_s.push(seconds);

    // Timed phase: every connection starts together and works through
    // its own log, each request waiting for its answer.
    let mut conns: Vec<Conn> = (0..inputs.conns.len())
        .map(|_| serve.connect())
        .collect::<Result<_, _>>()?;
    let barrier = Barrier::new(conns.len());
    let epoch = Instant::now();
    let results: Vec<Result<(Vec<Sample>, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&inputs.conns)
            .map(|(conn, log)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut samples = Vec::with_capacity(log.len());
                    for op in log {
                        samples.push(drive(conn, op, epoch)?);
                    }
                    Ok((samples, epoch.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    let mut elapsed_s: f64 = 0.0;
    for result in results {
        let (conn_samples, finished) = result?;
        samples.push(conn_samples);
        elapsed_s = elapsed_s.max(finished);
    }
    let peak_rss_mb = serve.peak_rss_mb()?;
    let disk_bytes = dir_bytes(&state_dir);
    let before = statuses(&mut conns[0], inputs)?;
    drop(conns);

    let mut run = TcpRun {
        setup_s,
        samples,
        elapsed_s,
        recovery_s: Vec::new(),
        peak_rss_mb,
        disk_bytes,
        setup_responses,
        state_dir: state_dir.clone(),
        attempted: 0,
        failed: 0,
        retries: 0,
        query_ops: 0,
        violations: Vec::new(),
    };
    check_answers(inputs, &mut run);
    check_ledger(inputs, &before, &mut run);

    // Crash recovery: kill -9, restart on the same journal and snapshots,
    // time until the first status is answered, and demand that no status
    // moved (spent budget is never refunded).
    let mut serve = serve;
    let args = serve_args(inputs, &state_dir);
    for _ in 0..RESTARTS {
        serve.kill();
        let clock = Instant::now();
        serve = Serve::spawn(bin, &args)?;
        let mut conn = serve.connect()?;
        let first = &inputs.names[0];
        conn.call(&format!("{{\"op\":\"status\",\"dataset\":\"{first}\"}}"))?;
        run.recovery_s.push(clock.elapsed().as_secs_f64());
        let after = statuses(&mut conn, inputs)?;
        if after != before {
            run.violations
                .push("a dataset's status changed across kill -9 and restart".to_string());
        }
    }
    serve.shutdown()?;
    Ok(run)
}

/// Counts attempts and failures, and checks each answer against what its
/// op must produce: a fresh query is charged, a replay is free and returns
/// exactly the value first released for it.
fn check_answers(inputs: &Inputs, run: &mut TcpRun) {
    for (log, samples) in inputs.conns.iter().zip(&run.samples) {
        for (op, sample) in log.iter().zip(samples) {
            run.retries += u64::from(sample.retries);
            let Ok(answer) = parse(&sample.response) else {
                run.attempted += 1;
                run.failed += 1;
                continue;
            };
            let answers = match op.class {
                Class::Batch if is_ok(&answer) => members(&answer),
                _ => vec![answer],
            };
            let ops = match op.class {
                Class::Batch => op.members.len(),
                _ => 1,
            };
            run.attempted += ops as u64;
            if answers.len() != ops {
                run.failed += ops as u64;
                continue;
            }
            for a in &answers {
                if !is_ok(a) {
                    run.failed += 1;
                    if run.failed <= 5 {
                        eprintln!(
                            "failed {:?}: {}",
                            op.class,
                            serde_json::to_string(a).expect("serializable")
                        );
                    }
                    continue;
                }
                if op.class == Class::Reregister {
                    continue;
                }
                run.query_ops += 1;
                let cached = matches!(field(a, "cached"), Some(Value::Bool(true)));
                let charged = !matches!(field(a, "charged"), None | Some(Value::Null));
                let fresh = op.class != Class::Replay;
                if cached == fresh || charged != fresh {
                    run.violations.push(format!(
                        "{:?} answer has cached={cached} charged={charged}",
                        op.class
                    ));
                }
            }
            if let Some(original) = op.replay_of {
                let first = parse(&samples[original].response).ok();
                let first = first.as_ref().and_then(released);
                if first.is_none() || first != released(&answers[0]) {
                    run.violations
                        .push("a replay returned a value other than the one first released".into());
                }
            }
        }
    }
}

/// Each dataset's ledger must equal what the log's charged requests imply:
/// every fresh query admitted once (an execution failure after admission
/// stays charged), nothing refused, ε and δ summed exactly.
fn check_ledger(inputs: &Inputs, statuses: &[String], run: &mut TcpRun) {
    let mut expected = vec![0u64; inputs.names.len()];
    let setup_answers = run.setup_responses[inputs.registers.len()..].iter();
    let warmup = inputs.warmup.iter().zip(setup_answers.map(String::as_str));
    let timed = inputs
        .conns
        .iter()
        .zip(&run.samples)
        .flat_map(|(log, s)| log.iter().zip(s.iter().map(|x| x.response.as_str())));
    for (op, response) in warmup.chain(timed) {
        let Ok(answer) = parse(response) else {
            continue;
        };
        let answers = match op.class {
            Class::Batch => members(&answer),
            _ => vec![answer],
        };
        for (member, a) in op.members.iter().zip(&answers) {
            if is_ok(a) || error_kind(a).as_deref() == Some("execution_failed") {
                expected[member.dataset] += 1;
            }
        }
    }
    for (d, status) in statuses.iter().enumerate() {
        let Ok(status) = parse(status) else {
            run.violations.push(format!("unparseable status {status}"));
            continue;
        };
        let number = |v: Option<&Value>| v.and_then(Value::as_f64);
        let granted = number(field(&status, "granted"));
        let refused = number(field(&status, "refused"));
        let spent = field(&status, "spent");
        let count = expected[d] as f64;
        let (epsilon, delta) = match spent {
            Some(Value::Null) | None => (0.0, 0.0),
            Some(s) => (
                number(field(s, "epsilon")).unwrap_or(f64::NAN),
                number(field(s, "delta")).unwrap_or(f64::NAN),
            ),
        };
        let ok = granted == Some(count)
            && refused == Some(0.0)
            && epsilon == count * inputs.spec.query_epsilon
            && delta == count * QUERY_DELTA;
        if !ok {
            run.violations.push(format!(
                "ledger of {} is granted={granted:?} ε={epsilon} δ={delta}, the log implies {count} charges",
                inputs.names[d]
            ));
        }
    }
}
