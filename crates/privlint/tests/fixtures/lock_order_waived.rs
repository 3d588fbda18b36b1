//@ lint-as: crates/engine/src/admission.rs
// A waived lock-order cycle: the two orders provably never run
// concurrently (settle only runs at shutdown, after admit's executor has
// drained), so the lexical cycle is intentional.

impl Admission {
    fn admit(&self) {
        let admissions = lock_recover(&self.admissions);
        // privlint::allow(lock-order): settle runs only at shutdown, after
        // the admit executor has drained — the orders never interleave
        lock_recover(&self.ledger).charge(admissions.key()); //~ WAIVED lock-order
    }

    fn settle(&self) {
        let ledger = lock_recover(&self.ledger);
        lock_recover(&self.admissions).remove(ledger.key());
    }
}
