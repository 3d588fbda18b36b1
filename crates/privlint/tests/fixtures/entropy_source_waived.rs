//@ lint-as: crates/baselines/src/timing.rs
fn solve_timed() -> Duration {
    // privlint::allow(entropy-source): wall-clock runtime reported in the
    // Table-1 diagnostics column only; never feeds randomness or the wire
    let start = std::time::Instant::now(); //~ WAIVED entropy-source
    start.elapsed()
}
