//@ lint-as: crates/dp/src/mech.rs
fn draw(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed) //~ HIT unsalted-rng
}
