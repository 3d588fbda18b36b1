//@ lint-as: crates/engine/src/admission.rs
// Near misses for `lock-order`: consistent ordering across functions is
// fine, and so is re-locking in the opposite order once the first guard
// has been dropped — the analysis models guard lifetimes, not just
// lexical call order.

impl Admission {
    fn admit(&self) {
        let admissions = lock_recover(&self.admissions);
        lock_recover(&self.ledger).charge(admissions.key());
    }

    fn settle(&self) {
        let admissions = lock_recover(&self.admissions);
        lock_recover(&self.ledger).release(admissions.key());
    }

    fn sweep(&self) {
        let ledger = lock_recover(&self.ledger);
        let stale = ledger.stale_keys();
        drop(ledger);
        lock_recover(&self.admissions).retain(stale);
    }

    fn read_twice(&self) {
        let a = read_recover(&self.index);
        let b = read_recover(&self.index);
        a.merge(b);
    }
}
