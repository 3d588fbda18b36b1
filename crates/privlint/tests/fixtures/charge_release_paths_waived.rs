//@ lint-as: crates/engine/src/recovery.rs
// A waived refund path: crash recovery credits back a charge whose release
// never became durable — the inverse of the live-path rule, legitimate
// only because recovery proves no value escaped.

pub fn recover_orphaned_charge(store: &Store, acct: &Accountant) -> Result<(), Error> {
    store.append(StoreRecord::Charge(reconstructed))?;
    // privlint::allow(charge-release-paths): recovery path — the journal
    // proves no release ever became durable, so no value escaped and the
    // orphaned spend may be credited back
    acct.refund_spend(reconstructed.key()); //~ WAIVED charge-release-paths
    Ok(())
}

pub fn rollback(s: &Store, r: Release, c: Charge) {
    // privlint::allow(charge-release-paths): crash-recovery rollback
    // replays the orphaned release, which is already durable, before
    // re-journaling its charge
    s.append(StoreRecord::Release(r)); //~ WAIVED charge-release-paths
    s.append(StoreRecord::Charge(c));
}

pub fn undo(s: &Store, reg: &Registry, entry: Entry, rec: Reregister) {
    // privlint::allow(charge-release-paths): rollback of a refused version
    // flip re-installs the predecessor entry before annulling the
    // journaled reregister record; no new version becomes visible here
    reg.push_version(entry); //~ WAIVED charge-release-paths
    s.append(StoreRecord::Reregister(rec));
}
