//@ lint-as: crates/engine/src/admit.rs
// Path-sensitive write-ahead violations. The refund: once the charge
// record is journaled, spend must stand on every exit path — crediting it
// back on failure is a privacy violation, because the released value may
// already have been observed.

fn charge_then_refund(store: &Store, acct: &Accountant) -> Result<(), Error> {
    store.append(StoreRecord::Charge(charge))?;
    let released = release(&charge);
    if released.is_err() {
        acct.refund_spend(charge.key()); //~ HIT charge-release-paths
    }
    Ok(())
}

fn branch_release_before_charge(store: &Store) -> Result<(), Error> {
    if cache_warm {
        store.append(StoreRecord::Release(rel))?; //~ HIT charge-release-paths
    }
    store.append(StoreRecord::Charge(charge))?;
    Ok(())
}

fn release_before_charge(s: &Store, r: Release, c: Charge) {
    s.append(StoreRecord::Release(r)); //~ HIT charge-release-paths
    s.append(StoreRecord::Charge(c));
}

// The registry version flip before the reregister append: a crash between
// them leaves the process serving version v+1 while the journal says v.
fn reregister(s: &Store, reg: &Registry, entry: Entry, rec: Reregister) {
    reg.push_version(entry); //~ HIT charge-release-paths
    s.append(StoreRecord::Reregister(rec));
}

// The two orderings are checked independently: one function trips both.
fn both(s: &Store, reg: &Registry, entry: Entry, r: Release, c: Charge, rec: Reregister) {
    s.append(StoreRecord::Release(r)); //~ HIT charge-release-paths
    reg.push_version(entry); //~ HIT charge-release-paths
    s.append(StoreRecord::Charge(c));
    s.append(StoreRecord::Reregister(rec));
}

// The version-1 insert before the register append: a crash between them
// leaves a dataset served whose registration the journal never saw.
fn register(s: &Store, reg: &Registry, entry: Entry, rec: Register) {
    reg.register(entry); //~ HIT charge-release-paths
    s.append(StoreRecord::Register(rec));
}

// One function for both record kinds, its insert hoisted above the append:
// each arm's insert is flagged.
fn commit_version(s: &Store, reg: &Registry, entry: Entry, rec: Register, next: Reregister) {
    if entry.version() == 1 {
        reg.register(entry); //~ HIT charge-release-paths
    } else {
        reg.push_version(entry); //~ HIT charge-release-paths
    }
    s.append(if first {
        StoreRecord::Register(rec)
    } else {
        StoreRecord::Reregister(next)
    });
}
