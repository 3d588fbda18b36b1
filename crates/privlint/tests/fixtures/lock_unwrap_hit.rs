//@ lint-as: crates/engine/src/cache.rs
fn touch(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap() //~ HIT lock-unwrap
}

fn peek(l: &RwLock<u32>) -> u32 {
    *l.read().expect("poisoned") //~ HIT lock-unwrap
}

fn bump(l: &RwLock<u32>) {
    *l.write().unwrap() += 1; //~ HIT lock-unwrap
}
