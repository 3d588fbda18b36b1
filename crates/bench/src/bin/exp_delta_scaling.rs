//! Experiment E4 — the additive cluster-size loss Δ: measured loss vs ε and
//! vs the domain size |X|, next to the paper's `2^{O(log*|X|)}/ε` bound and
//! the shipped solver's `O(log|X|)/ε` bound (the README's "Substitutions and
//! experiments" says why they differ).
//!
//! `cargo run -p privcluster-bench --release --bin exp_delta_scaling`

use privcluster_baselines::PrivClusterSolver;
use privcluster_bench::{experiments_dir, run_trials, TrialStats};
use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::util::paper_delta_bound;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::GridDomain;
use privcluster_report::{table::fmt_num, ExperimentRecord, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let trials = 3;
    let beta = 0.1;
    let n = 2_000;
    let t = 1_200;
    let mut record = ExperimentRecord::new("E4", "additive loss Δ vs ε and |X|");
    record.parameter("n", n);
    record.parameter("t", t);
    record.parameter("trials", trials);

    // ---- Δ vs ε at fixed |X| = 2^14.
    let mut table_eps = Table::new(
        "Additive loss vs ε (d=2, |X|=2^14, n=2000, t=1200)",
        &[
            "ε",
            "measured loss (t − captured)",
            "paper Δ bound",
            "solver loss bound",
        ],
    );
    for eps in [0.5, 1.0, 2.0, 4.0] {
        let privacy = PrivacyParams::new(eps, 1e-5).unwrap();
        let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
        let mut rng = StdRng::seed_from_u64((eps * 100.0) as u64);
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        let res = run_trials(
            &PrivClusterSolver::default(),
            &inst,
            &domain,
            t,
            privacy,
            beta,
            trials,
            3,
        );
        let loss = res.mean_of(|e| (e.additive_loss.max(0)) as f64);
        let paper = paper_delta_bound(domain.size(), 2, n, eps, beta, 1e-5);
        table_eps.push_row(vec![
            format!("{eps}"),
            loss.map(fmt_num).unwrap_or("—".into()),
            fmt_num(paper),
            fmt_num(16.0 / eps * (domain.radius_grid_len() as f64).ln()),
        ]);
        record.measure(
            "additive_loss",
            format!("eps={eps}"),
            &res.collect_metric(|e| e.additive_loss.max(0) as f64),
        );
    }
    println!("{}", table_eps.to_markdown());

    // ---- Δ vs |X| at fixed ε = 2.
    let mut table_x = Table::new(
        "Additive loss vs |X| (d=2, ε=2, n=2000, t=1200)",
        &[
            "|X|",
            "measured loss",
            "paper Δ bound (9^log*)",
            "solver loss bound (log|X|)",
        ],
    );
    for log_x in [6u32, 10, 14, 18, 24] {
        let size = 1u64 << log_x;
        let privacy = PrivacyParams::new(2.0, 1e-5).unwrap();
        let domain = GridDomain::unit_cube(2, size).unwrap();
        let mut rng = StdRng::seed_from_u64(log_x as u64);
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        let res = run_trials(
            &PrivClusterSolver::default(),
            &inst,
            &domain,
            t,
            privacy,
            beta,
            trials,
            3,
        );
        let loss = res.mean_of(|e| (e.additive_loss.max(0)) as f64);
        table_x.push_row(vec![
            format!("2^{log_x}"),
            loss.map(fmt_num).unwrap_or("—".into()),
            fmt_num(paper_delta_bound(size, 2, n, 2.0, beta, 1e-5)),
            fmt_num(8.0 * (domain.radius_grid_len() as f64).ln()),
        ]);
        record.measure(
            "additive_loss",
            format!("X=2^{log_x}"),
            &res.collect_metric(|e| e.additive_loss.max(0) as f64),
        );
    }
    println!("{}", table_x.to_markdown());

    match record.write_to(&experiments_dir()) {
        Ok(path) => println!("record written to {}", path.display()),
        Err(e) => eprintln!("could not write record: {e}"),
    }
}
