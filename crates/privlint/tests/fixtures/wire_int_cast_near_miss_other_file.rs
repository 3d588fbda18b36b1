//@ lint-as: crates/engine/src/engine.rs
fn internal_index(x: f64) -> u64 {
    x as u64
}
