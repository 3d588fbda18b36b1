//@ lint-as: crates/engine/src/protocol.rs
// Near misses for `wire-field-coverage`: every read below reaches a
// validation shape — wrapped in a parse, narrowed with `.as_*`, pattern
// matched, or let-bound into a typed helper.

fn decode(value: &Value) -> Result<Plan, Error> {
    let query = Query::parse(req(value, "query")?)?;
    let balls = req(value, "balls")?.as_array();
    let center = parse_f64_array(req(value, "center")?, "center")?;
    let budget = req(value, "budget")?;
    let epsilon = req_f64(budget, "epsilon")?;
    match get(value, "backend") {
        Some(b) => Plan::on_backend(query, balls, center, epsilon, b),
        None => Plan::new(query, balls, center, epsilon),
    }
}
