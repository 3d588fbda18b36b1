//@ lint-as: crates/geometry/src/cover.rs
fn generics_are_not_comparisons(d: f64) -> Result<GoodRadiusOutcome, Error> {
    let _ = Vec::<RadiusSample>::new();
    Ok(GoodRadiusOutcome::from(d))
}

fn non_radius_compare(a: f64, b: f64) -> bool {
    a < b
}

fn routed_through_tol(d: f64, radius: f64) -> bool {
    tol::within_radius(d, radius)
}

#[cfg(test)]
mod tests {
    fn raw_compare_is_fine_in_tests(d: f64, radius: f64) -> bool {
        d < radius
    }
}
