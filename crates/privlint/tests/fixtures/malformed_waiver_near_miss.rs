//@ lint-as: crates/engine/src/cache.rs
// privlint::allow(lock-unwrap): defensive waiver kept while the cache is
// refactored; unused waivers are notes, not findings
fn currently_clean() {}
