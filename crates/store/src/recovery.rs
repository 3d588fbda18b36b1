//! The recovery state machine: deterministic, idempotent replay.
//!
//! [`StoreState`] is the compacted form of a journal: registrations
//! (first-wins by name), the applied re-registrations, one
//! [`LedgerTotals`] per dataset, and a bounded set of released results for
//! replay-cache rebuild. It is built by applying records in sequence
//! order; a record whose `seq` is at or below the state's high-water mark
//! is skipped, which makes replay **idempotent** — applying the same
//! journal (or a snapshot plus the journal that produced it) twice yields
//! the same state.
//!
//! A charge is folded into its dataset's totals — the count, Σε, Σδ,
//! max ε and max δ that both composition theorems read — in journal
//! order, exactly as the live accountant folded it, so the state (and
//! every snapshot of it) stays bounded however many charges the journal
//! has seen. Each applied re-registration keeps its dataset's totals at
//! that point in the journal: the engine rebuilds the version's inherited
//! spend from them bit-identically.
//!
//! The privacy invariant lives here too: every committed [`ChargeRecord`]
//! is folded in unconditionally. Recovery never re-checks the budget and
//! never drops a charge — a charge with no matching release is
//! *charged-but-unreleased* (the crash window between journal commit and
//! result release) and the spend stands.
//!
//! [`ChargeRecord`]: crate::record::ChargeRecord

use crate::record::{RegisterRecord, ReleaseRecord, ReregisterRecord, StoreRecord};
use crate::snapshot::Snapshot;
use privcluster_dp::LedgerTotals;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Compacted journal state; also the live mirror the [`Store`] keeps for
/// writing snapshots.
///
/// [`Store`]: crate::store::Store
#[derive(Debug, Clone)]
pub struct StoreState {
    seq: u64,
    registers: Vec<Arc<RegisterRecord>>,
    /// Each applied re-registration with its dataset's totals over the
    /// charges journaled before it.
    reregisters: Vec<(Arc<ReregisterRecord>, LedgerTotals)>,
    /// Current version per registered name: 1 at registration, bumped by
    /// each applied reregister. Doubles as the first-wins register set.
    versions: HashMap<String, u64>,
    /// Per-dataset totals of every committed charge, in name order.
    totals: BTreeMap<String, LedgerTotals>,
    releases: Vec<ReleaseRecord>,
    release_keys: HashSet<String>,
    max_releases: usize,
}

impl StoreState {
    /// An empty state retaining at most `max_releases` released results
    /// (matching the engine's replay-cache capacity keeps snapshots
    /// bounded; charges need no bound — they are folded into totals).
    pub fn new(max_releases: usize) -> Self {
        StoreState {
            seq: 0,
            registers: Vec::new(),
            reregisters: Vec::new(),
            versions: HashMap::new(),
            totals: BTreeMap::new(),
            releases: Vec::new(),
            release_keys: HashSet::new(),
            max_releases,
        }
    }

    /// Rebuilds a state from a snapshot, then replaying `tail` (the journal
    /// records, moved in; those at or below the snapshot's seq are skipped).
    pub fn recover(
        snapshot: Option<&Snapshot>,
        tail: Vec<StoreRecord>,
        max_releases: usize,
    ) -> Self {
        let mut state = StoreState::new(max_releases);
        if let Some(snapshot) = snapshot {
            state.seq = snapshot.seq;
            for register in &snapshot.registers {
                state.versions.insert(register.dataset.clone(), 1);
                state.registers.push(Arc::clone(register));
            }
            // Decoding checked that these extend each chain one version at
            // a time, in journal order, so the last one per name wins.
            for (reregister, totals) in &snapshot.reregisters {
                state
                    .versions
                    .insert(reregister.dataset.clone(), reregister.version);
                state.reregisters.push((Arc::clone(reregister), *totals));
            }
            state.totals = snapshot.totals.iter().cloned().collect();
            for release in &snapshot.releases {
                state.retain_release(release.clone());
            }
        }
        for record in tail {
            state.apply(record);
        }
        state
    }

    /// Applies one record; returns `false` when the record had no effect —
    /// either its sequence number was already covered (nothing changes), or
    /// it lost a first-wins race (only the sequence cursor advances).
    /// Registers are first-wins by name; reregisters apply only when their
    /// version is exactly one above the name's current version (so version
    /// history replays bit-identically); duplicate release fingerprints are
    /// kept first-wins (identical requests are deterministic, so duplicates
    /// carry the same value).
    pub fn apply(&mut self, record: StoreRecord) -> bool {
        if record.seq() <= self.seq {
            return false;
        }
        self.seq = record.seq();
        match record {
            StoreRecord::Register(r) => {
                if self.versions.contains_key(&r.dataset) {
                    return false;
                }
                self.versions.insert(r.dataset.clone(), 1);
                self.registers.push(Arc::new(r));
            }
            StoreRecord::Reregister(r) => {
                match self.versions.get_mut(&r.dataset) {
                    Some(current) if r.version == *current + 1 => *current = r.version,
                    // Unknown name or out-of-sequence version: no effect
                    // (the cursor still advances — replay stays idempotent).
                    _ => return false,
                }
                let inherited = self.totals.get(&r.dataset).copied().unwrap_or_default();
                self.reregisters.push((Arc::new(r), inherited));
            }
            StoreRecord::Charge(r) => match self.totals.get_mut(&r.dataset) {
                Some(totals) => totals.charge(r.params),
                None => {
                    let totals = LedgerTotals::new().with_charge(r.params);
                    self.totals.insert(r.dataset, totals);
                }
            },
            StoreRecord::Release(r) => return self.retain_release(r),
        }
        true
    }

    /// Keeps a release for replay (first-wins by fingerprint), evicting
    /// the oldest beyond `max_releases`.
    fn retain_release(&mut self, release: ReleaseRecord) -> bool {
        if !self.release_keys.insert(release.fingerprint.clone()) {
            return false;
        }
        self.releases.push(release);
        if self.releases.len() > self.max_releases {
            let evicted = self.releases.remove(0);
            self.release_keys.remove(&evicted.fingerprint);
        }
        true
    }

    /// Highest applied sequence number (0 for a virgin store).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The registrations, in journal order.
    pub fn registers(&self) -> &[Arc<RegisterRecord>] {
        &self.registers
    }

    /// The applied re-registrations, in journal order, each with its
    /// dataset's totals over the charges journaled before it.
    pub fn reregisters(&self) -> &[(Arc<ReregisterRecord>, LedgerTotals)] {
        &self.reregisters
    }

    /// Current version per registered dataset name (1 = never
    /// re-registered).
    pub fn versions(&self) -> &HashMap<String, u64> {
        &self.versions
    }

    /// The totals of every committed charge, per dataset, in name order.
    pub fn totals(&self) -> &BTreeMap<String, LedgerTotals> {
        &self.totals
    }

    /// The retained releases, in journal order (oldest first).
    pub fn releases(&self) -> &[ReleaseRecord] {
        &self.releases
    }

    /// A snapshot of this state, covering everything applied so far.
    pub fn to_snapshot(&self) -> Snapshot {
        Snapshot {
            seq: self.seq,
            registers: self.registers.clone(),
            reregisters: self.reregisters.clone(),
            totals: self
                .totals
                .iter()
                .map(|(name, totals)| (name.clone(), *totals))
                .collect(),
            releases: self.releases.clone(),
        }
    }

    /// Structural equality for tests, totals compared bit for bit
    /// (`PartialEq` is deliberately not derived for the public type:
    /// `max_releases` is configuration, not state).
    pub fn same_state(&self, other: &StoreState) -> bool {
        self.seq == other.seq
            && self.registers == other.registers
            && self.reregisters.len() == other.reregisters.len()
            && self
                .reregisters
                .iter()
                .zip(&other.reregisters)
                .all(|((a, ta), (b, tb))| a == b && same_bits(ta, tb))
            && self.versions == other.versions
            && self.totals.len() == other.totals.len()
            && self
                .totals
                .iter()
                .zip(&other.totals)
                .all(|((a, ta), (b, tb))| a == b && same_bits(ta, tb))
            && self.releases == other.releases
    }
}

fn same_bits(a: &LedgerTotals, b: &LedgerTotals) -> bool {
    a.count() == b.count()
        && a.epsilon_sum().to_bits() == b.epsilon_sum().to_bits()
        && a.delta_sum().to_bits() == b.delta_sum().to_bits()
        && a.epsilon_max().to_bits() == b.epsilon_max().to_bits()
        && a.delta_max().to_bits() == b.delta_max().to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_support::{charge, register, release, reregister};

    #[test]
    fn replay_is_idempotent_and_seq_gated() {
        let records = vec![
            register(1, "a"),
            charge(2, "a", "q1", 0.25),
            release(3, "a", "q1"),
            charge(4, "a", "q2", 0.5),
        ];
        let once = StoreState::recover(None, records.clone(), 16);
        // Replaying the same journal on top changes nothing.
        let mut twice = once.clone();
        for r in records {
            assert!(!twice.apply(r), "already-covered seq must be skipped");
        }
        assert!(once.same_state(&twice));
        assert_eq!(once.seq(), 4);
        assert_eq!(once.totals()["a"].count(), 2);
        assert_eq!(once.totals()["a"].epsilon_sum(), 0.75);
    }

    #[test]
    fn snapshot_plus_tail_equals_full_replay() {
        let full: Vec<StoreRecord> = vec![
            register(1, "a"),
            charge(2, "a", "q1", 0.25),
            release(3, "a", "q1"),
            register(4, "b"),
            charge(5, "b", "q2", 0.5),
        ];
        let direct = StoreState::recover(None, full.clone(), 16);
        let mid = StoreState::recover(None, full[..3].to_vec(), 16);
        let snapshot = mid.to_snapshot();
        // The tail overlaps the snapshot on purpose: seq-gating must skip
        // the overlap.
        let resumed = StoreState::recover(Some(&snapshot), full, 16);
        assert!(direct.same_state(&resumed));
    }

    #[test]
    fn reregisters_build_a_gapless_version_history() {
        let records = vec![
            register(1, "a"),
            charge(2, "a", "q1", 0.25),
            reregister(3, "a", 2),
            reregister(4, "a", 2), // duplicate version: no effect
            reregister(5, "a", 4), // gap: no effect
            reregister(6, "a", 3),
            reregister(7, "ghost", 2), // unknown name: no effect
            charge(8, "a", "q2", 0.5),
        ];
        let state = StoreState::recover(None, records.clone(), 16);
        assert_eq!(state.versions().get("a"), Some(&3));
        assert!(!state.versions().contains_key("ghost"));
        let applied: Vec<u64> = state.reregisters().iter().map(|(r, _)| r.version).collect();
        assert_eq!(applied, vec![2, 3]);
        assert_eq!(state.seq(), 8, "skipped records still advance the cursor");
        // Each re-registration inherits the totals of the charges before
        // it; the ledger itself is version-blind: charges from before and
        // after the re-registrations all stand.
        let inherited: Vec<u64> = state.reregisters().iter().map(|(_, t)| t.count()).collect();
        assert_eq!(inherited, vec![1, 1]);
        assert_eq!(state.totals()["a"].count(), 2);
        // Replaying the same journal on top changes nothing.
        let mut twice = state.clone();
        for r in records {
            assert!(!twice.apply(r));
        }
        assert!(state.same_state(&twice));
    }

    #[test]
    fn snapshot_round_trips_version_history() {
        let records = vec![
            register(1, "a"),
            reregister(2, "a", 2),
            charge(3, "a", "q1", 0.25),
            reregister(4, "a", 3),
        ];
        let direct = StoreState::recover(None, records.clone(), 16);
        let resumed = StoreState::recover(Some(&direct.to_snapshot()), records, 16);
        assert!(direct.same_state(&resumed));
        assert_eq!(resumed.versions().get("a"), Some(&3));
        let inherited: Vec<u64> = resumed
            .reregisters()
            .iter()
            .map(|(_, t)| t.count())
            .collect();
        assert_eq!(inherited, vec![0, 1]);
    }

    #[test]
    fn duplicate_registers_are_first_wins() {
        let mut dup = register(4, "a");
        if let StoreRecord::Register(r) = &mut dup {
            r.backend = "projected".to_string();
        }
        let state = StoreState::recover(None, vec![register(1, "a"), dup], 16);
        assert_eq!(state.registers().len(), 1);
        assert_eq!(state.registers()[0].backend, "exact");
        assert_eq!(state.seq(), 4, "skipped records still advance the cursor");
    }

    #[test]
    fn release_retention_is_bounded_but_spend_never_is() {
        let mut records = vec![register(1, "a")];
        for i in 0..10u64 {
            records.push(charge(2 + 2 * i, "a", &format!("q{i}"), 0.01));
            records.push(release(3 + 2 * i, "a", &format!("q{i}")));
        }
        let state = StoreState::recover(None, records, 4);
        assert_eq!(state.releases().len(), 4);
        // The retained releases are the newest four, in order.
        let kept: Vec<&str> = state
            .releases()
            .iter()
            .map(|r| r.fingerprint.as_str())
            .collect();
        assert_eq!(kept, vec!["q6", "q7", "q8", "q9"]);
        // Evicting a release loses only its free replay: the spend of all
        // ten charges stands.
        assert_eq!(state.totals()["a"].count(), 10);
        let expected: f64 = [0.01; 10].iter().sum();
        assert_eq!(
            state.totals()["a"].epsilon_sum().to_bits(),
            expected.to_bits()
        );
    }
}
