//@ lint-as: crates/geometry/src/sync_ext.rs
fn lock_recover(m: &Mutex<u32>) -> MutexGuard<'_, u32> {
    m.lock().unwrap()
}

fn relax(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    fn poison_probe(m: &Mutex<u32>) -> u32 {
        *m.lock().unwrap()
    }
}
