//@ lint-as: crates/geometry/src/cover.rs
fn strictly_smaller(a: &Ball, b: &Ball) -> bool {
    // privlint::allow(raw-distance-compare): strict ordering of two candidate
    // radii ("is this ball smaller"), not a membership predicate
    a.radius() < b.radius() //~ WAIVED raw-distance-compare
}
