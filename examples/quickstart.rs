//! Quickstart: privately locate a small cluster in a synthetic dataset.
//!
//! Run with `cargo run --release --example quickstart`.

use privcluster::dp::util::paper_delta_bound;
use privcluster::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(20160626);

    // The domain: the unit square discretized on a 2^14-per-axis grid
    // (the paper requires a finite domain — see its Section 5).
    let domain = GridDomain::unit_cube(2, 1 << 14).expect("valid domain");

    // A workload: 2500 points, 1200 of which form a tight cluster of radius
    // 0.02 somewhere in the square; the rest are uniform background.
    let n = 2_500;
    let t = 1_200;
    let instance = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
    println!(
        "generated {} points, {} of them in a planted ball of radius {:.3}",
        n,
        t,
        instance.planted_ball.radius()
    );

    // Privacy budget (ε = 2, δ = 1e-5) and failure probability β = 0.1.
    let params = OneClusterParams::new(
        domain,
        t,
        PrivacyParams::new(2.0, 1e-5).expect("valid privacy parameters"),
        0.1,
    )
    .expect("valid parameters");

    // Run the paper's pipeline: GoodRadius then GoodCenter.
    let outcome = one_cluster(&instance.data, &params, &mut rng).expect("the solve succeeds");

    let captured_cluster = instance.captured(&outcome.ball);
    let captured_total = instance.data.count_in_ball(&outcome.ball);
    println!("-- private 1-cluster result --");
    println!(
        "center            = ({:.4}, {:.4})",
        outcome.ball.center()[0],
        outcome.ball.center()[1]
    );
    println!("radius            = {:.4}", outcome.ball.radius());
    println!(
        "radius estimate r = {:.4} (GoodRadius stage)",
        outcome.radius_estimate
    );
    println!(
        "captured          = {captured_cluster}/{t} planted points ({captured_total} points total)"
    );
    // Theorem 3.2's loss bound and radius factor, with unit constants.
    let paper_delta = paper_delta_bound(
        params.domain.size(),
        params.domain.dim(),
        n,
        params.privacy.epsilon(),
        params.beta,
        params.privacy.delta(),
    );
    println!(
        "loss bound Δ      = {:.1} (paper bound for these parameters: {:.1})",
        outcome.loss_bound, paper_delta
    );
    println!(
        "radius factor     = {:.1}x the planted radius (paper: O(sqrt(log n)) = {:.1} asymptotically)",
        outcome.ball.radius() / instance.planted_ball.radius(),
        (n as f64).ln().sqrt()
    );
}
