//@ lint-as: crates/engine/src/protocol.rs
// A waived opaque pass-through: the request id is echoed back verbatim in
// the response envelope and never interpreted, so there is nothing to
// validate.

fn decode(value: &Value) -> Result<Plan, Error> {
    // privlint::allow(wire-field-coverage): request id is echoed back
    // verbatim in the response envelope, never interpreted
    let request_id = req(value, "request_id")?; //~ WAIVED wire-field-coverage
    Ok(Plan::tagged(request_id))
}
