//@ lint-as: crates/geometry/src/cover.rs
fn covers(d: f64, radius: f64) -> bool {
    d < radius //~ HIT raw-distance-compare
}

fn covers_closed(d: f64, cluster_radius: f64) -> bool {
    d <= cluster_radius //~ HIT raw-distance-compare
}
