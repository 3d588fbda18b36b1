//@ lint-as: crates/dp/src/mech.rs
pub const NOISE_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

fn salted(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ NOISE_STREAM_SALT)
}

fn literal_seed() -> StdRng {
    StdRng::seed_from_u64(42)
}
