//@ lint-as: crates/engine/src/admission.rs
// Two functions take the same pair of locks in opposite orders — the
// classic deadlock that passes every single-threaded test and hangs the
// service under contention. The cycle is reported once, at the first
// witness edge, with both paths named in the message.

impl Admission {
    fn admit(&self) {
        let admissions = lock_recover(&self.admissions);
        lock_recover(&self.ledger).charge(admissions.key()); //~ HIT lock-order
    }

    fn settle(&self) {
        let ledger = lock_recover(&self.ledger);
        lock_recover(&self.admissions).remove(ledger.key());
    }
}
