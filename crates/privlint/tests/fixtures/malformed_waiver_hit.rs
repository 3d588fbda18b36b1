//@ lint-as: crates/engine/src/cache.rs
// privlint::allow(lock-unwrap)
//~^ HIT malformed-waiver
fn missing_reason() {}

// privlint::allow(no-such-rule): reasons abound
//~^ HIT malformed-waiver
fn unknown_rule() {}
