//! `perfbench` — the privcluster service benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ledger-small|exact-cold|projected-large --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the release `serve` from the surrounding checkout, drives it over
//! TCP with the workload's seeded request log, checks every answer, and
//! prints the end-to-end metrics (`--trace 0`) or, after a separate traced
//! in-process run over the same inputs, the per-layer metrics
//! (`--trace 1`). The last line of standard output is one JSON object; the
//! exit code is non-zero when any correctness check fails. See
//! `perfbench/README.md` for the workloads and metrics.

mod gen;
mod service;
mod stats;
mod tcp;
mod trace;

use gen::{Class, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds".to_string())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Builds the release `serve` of the checkout this benchmark sits in and
/// returns its path.
fn build_serve(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "privcluster-server", "--bin", "serve"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("serve"))
}

/// A fixed loop in the benchmark's own code (sorting a seeded 8 MB array,
/// which is as sensitive to cache and memory contention from other tenants
/// as the workloads are), timed five times; the median in ms. Reported at
/// the start and end of every run so host drift can be told apart from a
/// regression. Never gated on.
fn host_reference_ms() -> f64 {
    let mut rng = gen::Rng::new(42, 42);
    let base: Vec<u64> = (0..1 << 20).map(|_| rng.next_u64()).collect();
    let mut times = Vec::new();
    for _ in 0..5 {
        let mut data = base.clone();
        let clock = Instant::now();
        data.sort_unstable();
        let checksum = data
            .iter()
            .step_by(997)
            .fold(0u64, |a, &b| a.wrapping_add(b));
        std::hint::black_box(checksum);
        times.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times).expect("five samples")
}

/// The end-to-end metrics gated with a bound. The other end-to-end
/// measurements did not repeat within a tenth of their median across
/// steadiness runs on a 2-vCPU host (README, "Steadiness"), so they are
/// reported with the per-layer metrics instead.
const GATED: [&str; 2] = ["setup_s", "disk_mb"];

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn require(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("too few samples for {what}"))
}

fn end_to_end(inputs: &gen::Inputs, run: &service::TcpRun) -> Result<Vec<Metric>, String> {
    let mut query = Vec::new();
    let mut batch = Vec::new();
    let mut register = Vec::new();
    let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (log, samples) in inputs.conns.iter().zip(&run.samples) {
        for (op, sample) in log.iter().zip(samples) {
            let ms = sample.latency * 1e3;
            by_class
                .entry(format!("{:?}", op.class))
                .or_default()
                .push(ms);
            match op.class {
                Class::Query | Class::Replay => query.push(ms),
                Class::Batch => batch.push(ms),
                Class::Reregister => register.push(ms),
            }
        }
    }
    for (class, samples) in &by_class {
        eprintln!(
            "  {class:<24} n={:<6} p50 {:.3} ms",
            samples.len(),
            stats::median(samples).unwrap_or(f64::NAN)
        );
    }
    eprintln!(
        "samples: {} queries, {} batches, {} reregisters; restarts {:.3?} s; set-ups {:.3?} s",
        query.len(),
        batch.len(),
        register.len(),
        run.recovery_s,
        run.setup_s
    );
    let mb = (1u64 << 20) as f64;
    Ok(vec![
        Metric {
            name: "setup_s",
            value: require(stats::median(&run.setup_s), "setup_s")?,
            unit: "s",
        },
        Metric {
            name: "throughput_qps",
            value: run.query_ops as f64 / run.elapsed_s,
            unit: "1/s",
        },
        Metric {
            name: "query_p50_ms",
            value: require(stats::median(&query), "query_p50_ms")?,
            unit: "ms",
        },
        Metric {
            name: "query_p90_ms",
            value: require(stats::tail(&query, 0.9), "query_p90_ms")?,
            unit: "ms",
        },
        Metric {
            name: "batch_p50_ms",
            value: require(stats::median(&batch), "batch_p50_ms")?,
            unit: "ms",
        },
        // 0 on `ledger-small`, which never re-registers.
        Metric {
            name: "register_p50_ms",
            value: stats::median(&register).unwrap_or(0.0),
            unit: "ms",
        },
        Metric {
            name: "recovery_s",
            value: require(stats::median(&run.recovery_s), "recovery_s")?,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: run.peak_rss_mb,
            unit: "MB",
        },
        Metric {
            name: "disk_mb",
            value: run.disk_bytes as f64 / mb,
            unit: "MB",
        },
    ])
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { -1.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let serve = build_serve(&root)?;
    let reference_start = host_reference_ms();
    let inputs = gen::generate(args.workload, args.seed, args.seconds);
    let work =
        root.join(".bench_work")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = (|| {
        let tcp = service::run(&inputs, &serve, &work)?;
        let measured = end_to_end(&inputs, &tcp)?;
        let mut violations = tcp.violations.clone();
        let traced = if args.trace {
            let traced = trace::run(&inputs, &tcp, &work, &root, args.seed)?;
            violations.extend(traced.violations);
            Some(traced.metrics)
        } else {
            None
        };
        Ok::<_, String>((tcp.attempted, tcp.failed, measured, traced, violations))
    })();
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    let (attempted, failed, measured, traced, violations) = outcome?;
    let reference_end = host_reference_ms();
    for v in &violations {
        eprintln!("correctness: {v}");
    }
    println!(
        "{}: host reference {reference_start:.3} ms at start, {reference_end:.3} ms at end; \
         available_parallelism {}",
        args.workload.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (gated, demoted): (Vec<Metric>, Vec<Metric>) =
        measured.into_iter().partition(|m| GATED.contains(&m.name));
    let metrics = match traced {
        None => {
            for m in &demoted {
                println!("  {:<32} {:>14.4} {} (not gated)", m.name, m.value, m.unit);
            }
            gated
        }
        Some(mut layers) => {
            layers.extend(demoted);
            layers.push(Metric {
                name: "host.ref_start_ms",
                value: reference_start,
                unit: "ms",
            });
            layers.push(Metric {
                name: "host.ref_end_ms",
                value: reference_end,
                unit: "ms",
            });
            layers
        }
    };
    for m in &metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = violations.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
