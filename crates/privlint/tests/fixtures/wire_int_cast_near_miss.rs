//@ lint-as: crates/engine/src/protocol.rs
fn narrow(x: u64) -> u32 {
    x as u32
}

fn checked(v: &Value) -> Result<u64, EngineError> {
    wire::req_u64(v, "t")
}
