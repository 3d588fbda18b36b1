//@ lint-as: crates/engine/src/protocol.rs
// A wire field plucked with the untyped accessor and handed straight to
// the planner: nothing between the trust boundary and the accountant ever
// range-checks it.

fn decode(value: &Value) -> Result<Plan, Error> {
    let epsilon = req(value, "epsilon")?; //~ HIT wire-field-coverage
    Ok(Plan::with_budget(epsilon))
}
