//@ lint-as: crates/engine/src/cache.rs
// privlint::allow(malformed-waiver): trying to silence the meta-rule
// privlint::allow(lock-unwrap)
//~^ HIT malformed-waiver
fn f() {}
