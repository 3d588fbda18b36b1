//@ lint-as: crates/engine/src/query.rs
fn bucket(x: f64) -> u64 {
    // privlint::allow(wire-int-cast): value is a bucket index already bounded
    // by n < 2^32 in the validation above, far below the 2^53 cliff
    x as u64 //~ WAIVED wire-int-cast
}
