//@ lint-as: crates/dp/src/noise.rs
fn deterministic(clock: &SimClock, rng: &mut StdRng) -> f64 {
    let _tick = clock.now();
    rng.gen::<f64>()
}
