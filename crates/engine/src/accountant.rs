//! The budget accountant: the engine-side gate over one dataset's spend.
//!
//! An admitted query folds its `(ε, δ)` into the dataset's
//! [`LedgerTotals`] — the count, Σε, Σδ, max ε and max δ that both
//! composition theorems read — so a charge, a refusal, a status read and
//! the headroom a cache hit reports all cost O(1), however many queries
//! came before. A query whose charge would push the composed spend (under
//! the dataset's selected composition theorem) past the declared budget
//! is *refused* with [`EngineError::BudgetExhausted`]: the candidate totals
//! are checked before anything is stored, so a refusal changes nothing
//! and nothing is ever subtracted. Cache hits are free: replaying an
//! already-released result is post-processing.
//!
//! The per-charge labels live in the durability journal's charge records,
//! not here.

use crate::error::EngineError;
use privcluster_dp::composition::{fits_within, CompositionMode, LedgerTotals};
use privcluster_dp::{DpError, PrivacyParams};

/// Tracks and enforces one dataset's privacy budget across queries.
#[derive(Debug, Clone)]
pub struct BudgetAccountant {
    dataset: String,
    budget: PrivacyParams,
    mode: CompositionMode,
    totals: LedgerTotals,
    refused: usize,
}

impl BudgetAccountant {
    /// Creates an accountant for `dataset` with the given total budget and
    /// composition theorem.
    pub fn new(
        dataset: impl Into<String>,
        budget: PrivacyParams,
        mode: CompositionMode,
    ) -> Result<Self, EngineError> {
        if let CompositionMode::Advanced { delta_prime } = mode {
            if !(delta_prime.is_finite() && delta_prime > 0.0 && delta_prime < 1.0) {
                return Err(EngineError::InvalidQuery(format!(
                    "advanced-composition slack δ' must lie in (0,1), got {delta_prime}"
                )));
            }
        }
        Ok(BudgetAccountant {
            dataset: dataset.into(),
            budget,
            mode,
            totals: LedgerTotals::new(),
            refused: 0,
        })
    }

    /// Attempts to charge `params`. Returns the new composed spend on
    /// success; on refusal the totals are unchanged and the refusal is
    /// counted.
    pub fn try_charge(&mut self, params: PrivacyParams) -> Result<PrivacyParams, EngineError> {
        match self.totals.charge_within(params, self.budget, self.mode) {
            Ok(total) => Ok(total),
            Err(DpError::BudgetExhausted {
                requested_epsilon,
                remaining_epsilon,
            }) => {
                self.refused += 1;
                Err(EngineError::BudgetExhausted {
                    dataset: self.dataset.clone(),
                    requested_epsilon,
                    remaining_epsilon,
                })
            }
            Err(other) => Err(EngineError::InvalidQuery(other.to_string())),
        }
    }

    /// Installs the durable totals of this dataset's committed charges,
    /// **without** re-checking the budget. Recovery must apply every
    /// journaled charge unconditionally: the charge was admitted (and
    /// possibly released) before the crash, so dropping or re-litigating
    /// it would refund spent budget — the one thing the journal exists to
    /// prevent. Recovery installs totals in journal order, so they only
    /// ever grow. Never use this on the live admission path; that is
    /// [`BudgetAccountant::try_charge`]'s job.
    pub fn restore_totals(&mut self, totals: LedgerTotals) {
        debug_assert!(
            totals.count() >= self.totals.count(),
            "recovery must never shrink a ledger"
        );
        self.totals = totals;
    }

    /// The composed spend so far under the selected theorem (`None` before
    /// any query was granted).
    ///
    /// Both the basic and (in advanced mode) the advanced pair are valid
    /// guarantees for the composed interaction; reported is the smaller-ε
    /// pair *among those that fit the budget* — admission guaranteed at
    /// least one fits — so status never quotes a δ above the declared
    /// budget's δ while the ledger is in fact within budget.
    pub fn composed_spend(&self) -> Option<PrivacyParams> {
        if self.totals.is_empty() {
            return None;
        }
        let basic = self.totals.basic().ok()?;
        let CompositionMode::Advanced { delta_prime } = self.mode else {
            return Some(basic);
        };
        let advanced = self.totals.advanced(delta_prime).ok()?;
        let candidates = [advanced, basic];
        let fitting = candidates
            .iter()
            .filter(|p| fits_within(**p, self.budget))
            .min_by(|a, b| a.epsilon().total_cmp(&b.epsilon()));
        Some(*fitting.unwrap_or_else(|| {
            // Unreachable for totals built through try_charge; fall back
            // to the smaller-ε pair for restored totals over budget.
            if advanced.epsilon() < basic.epsilon() {
                &candidates[0]
            } else {
                &candidates[1]
            }
        }))
    }

    /// ε headroom under the selected composition theorem: the budget's ε
    /// minus [`BudgetAccountant::composed_spend`]'s ε. Refusal errors quote
    /// the same figure. (Under advanced composition this is indicative —
    /// admission of a future query depends on the recomposed totals, not
    /// on subtracting its bid from this number.)
    pub fn remaining_epsilon(&self) -> f64 {
        let spent = self.composed_spend().map(|p| p.epsilon()).unwrap_or(0.0);
        (self.budget.epsilon() - spent).max(0.0)
    }

    /// δ headroom under the selected composition theorem: the budget's δ
    /// minus the composed spend's δ (0 before any grant). The status
    /// surface reports this next to [`BudgetAccountant::remaining_epsilon`]
    /// so operators can audit both coordinates of the remaining budget
    /// after a restart.
    pub fn remaining_delta(&self) -> f64 {
        let spent = self.composed_spend().map(|p| p.delta()).unwrap_or(0.0);
        (self.budget.delta() - spent).max(0.0)
    }

    /// Number of granted queries.
    pub fn granted(&self) -> usize {
        self.totals.count() as usize
    }

    /// Number of refused queries.
    pub fn refused(&self) -> usize {
        self.refused
    }

    /// The declared total budget.
    pub fn budget(&self) -> PrivacyParams {
        self.budget
    }

    /// The selected composition theorem.
    pub fn mode(&self) -> CompositionMode {
        self.mode
    }

    /// The running totals of the granted charges.
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusal_counts_and_preserves_ledger() {
        let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mut acc = BudgetAccountant::new("d", budget, CompositionMode::Basic).unwrap();
        let step = PrivacyParams::new(0.6, 1e-7).unwrap();
        assert!(acc.try_charge(step).is_ok());
        assert_eq!(acc.granted(), 1);
        let err = acc.try_charge(step).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExhausted { .. }));
        assert_eq!(acc.granted(), 1);
        assert_eq!(acc.refused(), 1);
        assert!((acc.remaining_epsilon() - 0.4).abs() < 1e-12);
        assert_eq!(acc.totals().count(), 1);
        assert_eq!(acc.budget(), budget);
        assert_eq!(acc.mode(), CompositionMode::Basic);
    }

    #[test]
    fn composed_spend_tracks_the_ledger() {
        let budget = PrivacyParams::new(2.0, 1e-5).unwrap();
        let mut acc = BudgetAccountant::new("d", budget, CompositionMode::Basic).unwrap();
        assert!(acc.composed_spend().is_none());
        assert!((acc.remaining_epsilon() - 2.0).abs() < 1e-12);
        let step = PrivacyParams::new(0.5, 1e-7).unwrap();
        acc.try_charge(step).unwrap();
        acc.try_charge(step).unwrap();
        let spend = acc.composed_spend().unwrap();
        assert!((spend.epsilon() - 1.0).abs() < 1e-12);
        assert!((acc.remaining_epsilon() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn advanced_mode_validates_delta_prime() {
        let budget = PrivacyParams::new(1.0, 1e-5).unwrap();
        assert!(
            BudgetAccountant::new("d", budget, CompositionMode::Advanced { delta_prime: 0.0 })
                .is_err()
        );
        assert!(BudgetAccountant::new(
            "d",
            budget,
            CompositionMode::Advanced { delta_prime: 1e-6 }
        )
        .is_ok());
    }
}
