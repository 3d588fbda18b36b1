//@ lint-as: crates/store/src/store.rs
fn last_seq(m: &Mutex<State>) -> u64 {
    m.lock().expect("store lock poisoned").seq //~ HIT lock-unwrap
}

fn commit_depth(m: &Mutex<Commit>) -> u64 {
    let state = m.lock().unwrap_or_else(PoisonError::into_inner);
    state.appended - state.synced
}
