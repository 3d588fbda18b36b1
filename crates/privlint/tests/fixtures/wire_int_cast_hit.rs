//@ lint-as: crates/engine/src/protocol.rs
fn encode(x: f64) -> u64 {
    x as u64 //~ HIT wire-int-cast
}

fn encode_signed(x: f64) -> i64 {
    x as i64 //~ HIT wire-int-cast
}
