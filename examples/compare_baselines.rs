//! A miniature version of the Table-1 comparison: run every solver on one
//! planted-cluster instance and print what it found.
//!
//! Run with `cargo run --release --example compare_baselines`.
//! The full sweep lives in `cargo run -p privcluster-bench --release --bin exp_table1`.

use privcluster::baselines::{
    solver::evaluate, ExponentialGridSolver, NonPrivateTwoApprox, OneClusterSolver,
    PrivClusterSolver, PrivateAggregationSolver,
};
use privcluster::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    // A coarse grid so the exponential-mechanism baseline can afford to
    // enumerate it.
    let domain = GridDomain::unit_cube(2, 65).expect("valid domain");
    let n = 2_000;
    let t = 600; // a 30% minority cluster — too small for private aggregation
    let instance = planted_ball_cluster(&domain, n, t, 0.04, &mut rng);
    let reference = instance.planted_ball.radius();
    let privacy = PrivacyParams::new(2.0, 1e-5).expect("valid");

    let solvers: Vec<Box<dyn OneClusterSolver>> = vec![
        Box::new(PrivClusterSolver::default()),
        Box::new(PrivateAggregationSolver),
        Box::new(ExponentialGridSolver::default()),
        Box::new(NonPrivateTwoApprox),
    ];

    println!(
        "{:<38} {:>8} {:>10} {:>12} {:>10}",
        "method", "private", "captured", "radius/ref", "time"
    );
    for solver in solvers {
        let start = Instant::now();
        let result = solver.solve(&instance.data, &domain, t, privacy, 0.1, 1234);
        let elapsed = start.elapsed();
        match result {
            Ok(out) => {
                let eval = evaluate(&instance.data, t, reference, &out.ball);
                println!(
                    "{:<38} {:>8} {:>7}/{:<3} {:>12.2} {:>9.1?}",
                    solver.name(),
                    solver.is_private(),
                    eval.captured,
                    t,
                    eval.radius_ratio,
                    elapsed
                );
            }
            Err(e) => println!("{:<38} failed: {e}", solver.name()),
        }
    }
}
