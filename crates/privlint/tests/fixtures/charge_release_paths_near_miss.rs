//@ lint-as: crates/engine/src/admit.rs
// Near misses for `charge-release-paths`: no single control path carries
// the inverted pair, so the path-sensitive rule stays quiet where a purely
// lexical check would cry wolf.

fn exclusive_arms(store: &Store) -> Result<(), Error> {
    match mode {
        Mode::Replay => {
            // The charge path never refunds…
            store.append(StoreRecord::Charge(restored))?;
        }
        Mode::Rollback => {
            // …and the refund path never charges: no single path carries
            // both, so there is nothing to flag.
            acct.refund_spend(key);
        }
    }
    Ok(())
}

fn error_leaves_spend_standing(store: &Store) -> Result<Value, Error> {
    store.append(StoreRecord::Charge(charge))?;
    let value = run_mechanism()?;
    store.append(StoreRecord::Release(release_for(&value)))?;
    Ok(value)
}

// Split across two functions: no ordering constraint.
fn release_only(s: &Store, r: Release) {
    s.append(StoreRecord::Release(r));
}

fn charge_only(s: &Store, c: Charge) {
    s.append(StoreRecord::Charge(c));
}

fn reregister(s: &Store, reg: &Registry, entry: Entry, rec: Reregister) {
    s.append(StoreRecord::Reregister(rec));
    reg.push_version(entry);
}

fn replay(reg: &Registry, rereg: &ReregisterRecord, entry: Entry) {
    // Recovery replays the already-journaled record: nothing is appended,
    // so the flip has no append to precede.
    let _ = rereg;
    reg.push_version(entry);
}

fn register(s: &Store, reg: &Registry, entry: Entry, rec: RegisterRecord) {
    s.append(StoreRecord::Register(rec));
    reg.register(entry);
}

// Live commits append, replay checks the journaled record instead: on
// neither path does the insert precede an append.
fn commit_version(mode: Journal, reg: &Registry, entry: Entry, rec: Register, next: Reregister) {
    match mode {
        Journal::Append(s) => s.append(if first {
            StoreRecord::Register(rec)
        } else {
            StoreRecord::Reregister(next)
        })?,
        Journal::Replayed(fingerprint) => check(fingerprint)?,
    }
    if entry.version() == 1 {
        reg.register(entry);
    } else {
        reg.push_version(entry);
    }
}
