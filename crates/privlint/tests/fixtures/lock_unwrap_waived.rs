//@ lint-as: crates/engine/src/startup.rs
fn init(m: &Mutex<Config>) -> Config {
    // privlint::allow(lock-unwrap): single-threaded startup path; no other
    // thread exists yet, so the lock cannot be poisoned
    m.lock().unwrap().clone() //~ WAIVED lock-unwrap
}
