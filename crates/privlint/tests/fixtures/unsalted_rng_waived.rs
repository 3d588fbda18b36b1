//@ lint-as: crates/baselines/src/entry.rs
fn solve(seed: u64) -> StdRng {
    // privlint::allow(unsalted-rng): solver entry point — single root stream
    // per call, no sibling stream shares this seed
    StdRng::seed_from_u64(seed) //~ WAIVED unsalted-rng
}
