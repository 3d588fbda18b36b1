//@ lint-as: crates/dp/src/noise.rs
fn jitter() -> f64 {
    let mut rng = thread_rng(); //~ HIT entropy-source
    let started = std::time::Instant::now(); //~ HIT entropy-source
    let stamp = SystemTime::now(); //~ HIT entropy-source
    rng.gen::<f64>() + started.elapsed().as_secs_f64() + stamp.elapsed().unwrap().as_secs_f64()
}
