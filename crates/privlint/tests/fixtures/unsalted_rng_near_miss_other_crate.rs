//@ lint-as: crates/datagen/src/synth.rs
fn draw(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
