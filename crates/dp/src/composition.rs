//! Composition theorems and a privacy ledger.
//!
//! * Basic composition (Theorem 2.1): `k` adaptive interactions with
//!   `(ε, δ)`-DP mechanisms are `(kε, kδ)`-DP.
//! * Advanced composition (Theorem 4.7, Dwork–Rothblum–Vadhan): they are also
//!   `(ε', kδ + δ')`-DP for `ε' = 2kε² + ε·√(2k·ln(1/δ'))`.
//!
//! Both theorems read a run of charges through five numbers only: the
//! count, Σε, Σδ, max ε and max δ. [`LedgerTotals`] keeps exactly those,
//! so composing, checking a budget and admitting one more charge cost O(1)
//! however long the run — the engine's budget accountant and the store's
//! snapshots hold nothing else.
//!
//! [`PrivacyLedger`] records every charge an algorithm makes against its
//! budget, with a label per charge, and reads its totals from a
//! [`LedgerTotals`]. The paper's algorithms split their budgets
//! *statically* (e.g. GoodCenter charges ε/4 to four sub-mechanisms), and
//! the ledger lets tests verify that the declared total is never exceeded
//! under either composition theorem.

use crate::error::DpError;
use crate::params::PrivacyParams;
use serde::{Deserialize, Serialize, Value};

/// Basic composition (Theorem 2.1): sums ε and δ over the parts.
// privlint::allow(unused-pub): the whole-list composition the engine's accountant tests compare the ledger's running totals against
pub fn basic_composition(parts: &[PrivacyParams]) -> Result<PrivacyParams, DpError> {
    if parts.is_empty() {
        return Err(DpError::InvalidParameter(
            "cannot compose an empty list of mechanisms".into(),
        ));
    }
    let eps: f64 = parts.iter().map(|p| p.epsilon()).sum();
    let delta: f64 = parts.iter().map(|p| p.delta()).sum();
    PrivacyParams::new(eps, delta.min(1.0 - f64::EPSILON))
}

/// Advanced composition (Theorem 4.7): `k` adaptive uses of an
/// `(ε, δ)`-private mechanism are `(ε', kδ + δ')`-private for
/// `ε' = 2kε² + ε√(2k ln(1/δ'))`.
pub fn advanced_composition(
    per_mechanism: PrivacyParams,
    k: usize,
    delta_prime: f64,
) -> Result<PrivacyParams, DpError> {
    if k == 0 {
        return Err(DpError::InvalidParameter(
            "advanced composition needs at least one mechanism".into(),
        ));
    }
    if !(delta_prime.is_finite() && delta_prime > 0.0 && delta_prime < 1.0) {
        return Err(DpError::InvalidPrivacyParams(format!(
            "delta_prime must lie in (0,1), got {delta_prime}"
        )));
    }
    let eps = per_mechanism.epsilon();
    let kf = k as f64;
    let eps_total = 2.0 * kf * eps * eps + eps * (2.0 * kf * (1.0 / delta_prime).ln()).sqrt();
    let delta_total = kf * per_mechanism.delta() + delta_prime;
    PrivacyParams::new(eps_total, delta_total.min(1.0 - f64::EPSILON))
}

/// Which composition theorem a ledger total (and budget check) uses.
///
/// * [`CompositionMode::Basic`] sums ε and δ over the charges (Theorem 2.1).
/// * [`CompositionMode::Advanced`] additionally applies the
///   Dwork–Rothblum–Vadhan bound (Theorem 4.7) with slack `δ'`. The theorem
///   is stated for `k` uses of one `(ε, δ)` mechanism; for a heterogeneous
///   ledger we apply it with `ε = max εᵢ`, `δ = max δᵢ` — every entry is
///   trivially `(max εᵢ, max δᵢ)`-DP — which is conservative but sound.
///   Both the basic pair and the advanced pair are then valid guarantees for
///   the composed interaction, so the total reports whichever pair has the
///   smaller ε, and a budget check passes if *either* pair fits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompositionMode {
    /// Basic composition: sum ε and δ.
    Basic,
    /// Advanced composition with slack `delta_prime` added to the composed δ.
    Advanced {
        /// The `δ'` slack of Theorem 4.7; must lie in `(0, 1)`.
        delta_prime: f64,
    },
}

impl Serialize for CompositionMode {
    /// The canonical wire encoding, shared by the engine's JSON-lines
    /// protocol and the durability journal: `"basic"` or
    /// `{"advanced":{"delta_prime":δ'}}`.
    fn to_json_value(&self) -> Value {
        match self {
            CompositionMode::Basic => Value::String("basic".to_string()),
            CompositionMode::Advanced { delta_prime } => Value::Object(vec![(
                "advanced".to_string(),
                Value::Object(vec![(
                    "delta_prime".to_string(),
                    Value::Number(*delta_prime),
                )]),
            )]),
        }
    }
}

impl Deserialize for CompositionMode {
    fn from_json_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::String(name) if name == "basic" => Ok(CompositionMode::Basic),
            Value::Object(entries) => {
                let advanced = entries
                    .iter()
                    .find(|(k, _)| k == "advanced")
                    .map(|(_, v)| v)
                    .ok_or("composition object must carry an `advanced` field")?;
                let delta_prime = advanced
                    .as_object()
                    .and_then(|fields| fields.iter().find(|(k, _)| k == "delta_prime"))
                    .and_then(|(_, v)| v.as_f64())
                    .ok_or("advanced composition needs a numeric `delta_prime` field")?;
                Ok(CompositionMode::Advanced { delta_prime })
            }
            other => Err(format!(
                "composition must be \"basic\" or {{\"advanced\":{{...}}}}, got {other:?}"
            )),
        }
    }
}

/// One entry of a [`PrivacyLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Human-readable name of the sub-mechanism.
    pub label: String,
    /// Its privacy parameters.
    pub params: PrivacyParams,
}

/// The sufficient statistics of a run of charges under both composition
/// theorems: the count, Σε and Σδ (added in charge order), max ε and
/// max δ. Basic composition reads the sums and advanced composition the
/// count and the maxima, so every total, budget check and refusal needs
/// these five numbers only, and one charge updates them in O(1).
///
/// The sums start from the first charge's own value and add each later
/// one in order — the fold `Iterator::sum` performs over the same list —
/// and the maxima fold `f64::max` from 0.0, so [`LedgerTotals::basic`] and
/// [`LedgerTotals::advanced`] are bit-identical to [`basic_composition`]
/// and [`advanced_composition`] applied to the charges themselves.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LedgerTotals {
    count: u64,
    epsilon_sum: f64,
    delta_sum: f64,
    epsilon_max: f64,
    delta_max: f64,
}

impl LedgerTotals {
    /// The totals of no charges.
    pub fn new() -> Self {
        LedgerTotals::default()
    }

    /// These totals with one more charge folded in (`self` is unchanged).
    pub fn with_charge(&self, params: PrivacyParams) -> LedgerTotals {
        let (epsilon_sum, delta_sum) = if self.count == 0 {
            (params.epsilon(), params.delta())
        } else {
            (
                self.epsilon_sum + params.epsilon(),
                self.delta_sum + params.delta(),
            )
        };
        LedgerTotals {
            count: self.count + 1,
            epsilon_sum,
            delta_sum,
            epsilon_max: self.epsilon_max.max(params.epsilon()),
            delta_max: self.delta_max.max(params.delta()),
        }
    }

    /// Folds one charge in, unconditionally.
    pub fn charge(&mut self, params: PrivacyParams) {
        *self = self.with_charge(params);
    }

    /// Number of charges.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no charge was folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Σε over the charges (0 when empty).
    pub fn epsilon_sum(&self) -> f64 {
        self.epsilon_sum
    }

    /// Σδ over the charges (0 when empty).
    pub fn delta_sum(&self) -> f64 {
        self.delta_sum
    }

    /// The largest ε charged (0 when empty).
    pub fn epsilon_max(&self) -> f64 {
        self.epsilon_max
    }

    /// The largest δ charged (0 when empty).
    pub fn delta_max(&self) -> f64 {
        self.delta_max
    }

    fn require_charges(&self) -> Result<(), DpError> {
        if self.count == 0 {
            return Err(DpError::InvalidParameter(
                "cannot compose an empty list of mechanisms".into(),
            ));
        }
        Ok(())
    }

    /// Total privacy cost under basic composition (Theorem 2.1).
    pub fn basic(&self) -> Result<PrivacyParams, DpError> {
        self.require_charges()?;
        PrivacyParams::new(self.epsilon_sum, self.delta_sum.min(1.0 - f64::EPSILON))
    }

    /// Total privacy cost under advanced composition with slack
    /// `delta_prime`, treating every charge as a `(max εᵢ, max δᵢ)`
    /// mechanism (sound for heterogeneous charges, tight for homogeneous
    /// ones; see [`CompositionMode`]).
    pub fn advanced(&self, delta_prime: f64) -> Result<PrivacyParams, DpError> {
        self.require_charges()?;
        advanced_composition(
            PrivacyParams::new(self.epsilon_max, self.delta_max)?,
            self.count as usize,
            delta_prime,
        )
    }

    /// Total privacy cost under `mode`: under [`CompositionMode::Advanced`]
    /// both the basic and the advanced pair are valid guarantees, and the
    /// one with the smaller ε is returned.
    pub fn under(&self, mode: CompositionMode) -> Result<PrivacyParams, DpError> {
        let basic = self.basic()?;
        match mode {
            CompositionMode::Basic => Ok(basic),
            CompositionMode::Advanced { delta_prime } => {
                let advanced = self.advanced(delta_prime)?;
                if advanced.epsilon() < basic.epsilon() {
                    Ok(advanced)
                } else {
                    Ok(basic)
                }
            }
        }
    }

    /// Verifies the totals stay within `budget` under `mode` (up to a small
    /// numerical slack). Under advanced mode the check passes when *either*
    /// the basic or the advanced pair fits the budget.
    pub fn verify_within(
        &self,
        budget: PrivacyParams,
        mode: CompositionMode,
    ) -> Result<(), DpError> {
        let basic = self.basic()?;
        if fits_within(basic, budget) {
            return Ok(());
        }
        if let CompositionMode::Advanced { delta_prime } = mode {
            if fits_within(self.advanced(delta_prime)?, budget) {
                return Ok(());
            }
        }
        Err(DpError::BudgetExhausted {
            requested_epsilon: basic.epsilon(),
            remaining_epsilon: budget.epsilon(),
        })
    }

    /// Folds `params` in *only if* the totals stay within `budget` under
    /// `mode` afterwards, returning the new total under `mode`. The
    /// candidate totals are checked before anything is stored, so on any
    /// error the totals are left as they were — nothing is ever taken back
    /// out. A refusal is [`DpError::BudgetExhausted`] quoting the requested
    /// ε and the ε still unspent under `mode`.
    pub fn charge_within(
        &mut self,
        params: PrivacyParams,
        budget: PrivacyParams,
        mode: CompositionMode,
    ) -> Result<PrivacyParams, DpError> {
        let candidate = self.with_charge(params);
        match candidate.verify_within(budget, mode) {
            Ok(()) => {
                let total = candidate.under(mode)?;
                *self = candidate;
                Ok(total)
            }
            Err(DpError::BudgetExhausted { .. }) => {
                // Report headroom under the *selected* theorem so refusals
                // quote the same figure as status/spend queries.
                let spent = if self.is_empty() {
                    0.0
                } else {
                    self.under(mode)?.epsilon()
                };
                Err(DpError::BudgetExhausted {
                    requested_epsilon: params.epsilon(),
                    remaining_epsilon: (budget.epsilon() - spent).max(0.0),
                })
            }
            // A non-budget error (e.g. an invalid δ' reaching `advanced`)
            // is a caller bug, not a refusal: surface it as-is.
            Err(other) => Err(other),
        }
    }
}

impl Serialize for LedgerTotals {
    /// `{"count":k,"epsilon_sum":Σε,"delta_sum":Σδ,"epsilon_max":..,
    /// "delta_max":..}` — the durable form of a dataset's spend in the
    /// store's snapshots. Floats round-trip bit-exactly through the JSON
    /// writer.
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::Number(self.count as f64)),
            ("epsilon_sum".to_string(), Value::Number(self.epsilon_sum)),
            ("delta_sum".to_string(), Value::Number(self.delta_sum)),
            ("epsilon_max".to_string(), Value::Number(self.epsilon_max)),
            ("delta_max".to_string(), Value::Number(self.delta_max)),
        ])
    }
}

impl Deserialize for LedgerTotals {
    /// Accepts only totals some run of valid charges could produce, so a
    /// damaged snapshot can never decode to a smaller — refunded — spend
    /// than a sum of valid charges: every float is finite and non-negative,
    /// empty totals are all zero, and otherwise max ε is positive and no
    /// maximum exceeds its sum.
    fn from_json_value(value: &Value) -> Result<Self, String> {
        let field = |key: &str| -> Result<f64, String> {
            value
                .as_object()
                .and_then(|entries| entries.iter().find(|(k, _)| k == key))
                .and_then(|(_, v)| v.as_f64())
                .ok_or_else(|| format!("ledger totals need a numeric `{key}` field"))
        };
        let count = field("count")?;
        if !(count >= 0.0 && count.fract() == 0.0 && count <= u64::MAX as f64) {
            return Err(format!(
                "ledger totals count must be a non-negative integer, got {count}"
            ));
        }
        let totals = LedgerTotals {
            count: count as u64,
            epsilon_sum: field("epsilon_sum")?,
            delta_sum: field("delta_sum")?,
            epsilon_max: field("epsilon_max")?,
            delta_max: field("delta_max")?,
        };
        let floats = [
            totals.epsilon_sum,
            totals.delta_sum,
            totals.epsilon_max,
            totals.delta_max,
        ];
        let consistent = floats.iter().all(|x| x.is_finite() && *x >= 0.0)
            && if totals.count == 0 {
                floats.iter().all(|x| *x == 0.0)
            } else {
                totals.epsilon_max > 0.0
                    && totals.epsilon_max <= totals.epsilon_sum
                    && totals.delta_max <= totals.delta_sum
            };
        if !consistent {
            return Err(format!(
                "ledger totals are not the totals of any run of valid charges: {totals:?}"
            ));
        }
        Ok(totals)
    }
}

/// Records the privacy charges of an algorithm's sub-mechanisms: each
/// charge's label and the running [`LedgerTotals`] every composed total is
/// read from.
#[derive(Debug, Clone, Default)]
pub struct PrivacyLedger {
    entries: Vec<LedgerEntry>,
    totals: LedgerTotals,
}

impl PrivacyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        PrivacyLedger::default()
    }

    /// Records a charge.
    pub fn charge(&mut self, label: impl Into<String>, params: PrivacyParams) {
        self.entries.push(LedgerEntry {
            label: label.into(),
            params,
        });
        self.totals.charge(params);
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of charges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no charges were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verifies the ledger total (basic composition) does not exceed `budget`
    /// (up to a small numerical slack).
    pub fn verify_within(&self, budget: PrivacyParams) -> Result<(), DpError> {
        self.verify_within_mode(budget, CompositionMode::Basic)
    }

    /// Verifies the ledger stays within `budget` under `mode` (see
    /// [`LedgerTotals::verify_within`]).
    pub fn verify_within_mode(
        &self,
        budget: PrivacyParams,
        mode: CompositionMode,
    ) -> Result<(), DpError> {
        self.totals.verify_within(budget, mode)
    }
}

/// Whether the composed pair `total` fits within `budget` (small relative
/// slack for floating-point accumulation). Public so accountants layered on
/// the ledger can report spend pairs consistently with this admission rule.
pub fn fits_within(total: PrivacyParams, budget: PrivacyParams) -> bool {
    let slack = 1e-9;
    total.epsilon() <= budget.epsilon() * (1.0 + slack) + slack
        && total.delta() <= budget.delta() * (1.0 + slack) + 1e-15
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_composition_sums() {
        let p = PrivacyParams::new(0.5, 1e-6).unwrap();
        let total = basic_composition(&[p, p, p]).unwrap();
        assert!((total.epsilon() - 1.5).abs() < 1e-12);
        assert!((total.delta() - 3e-6).abs() < 1e-15);
        assert!(basic_composition(&[]).is_err());
    }

    #[test]
    fn advanced_composition_beats_basic_for_many_mechanisms() {
        let per = PrivacyParams::new(0.01, 1e-9).unwrap();
        let k = 10_000;
        let advanced = advanced_composition(per, k, 1e-6).unwrap();
        let basic = basic_composition(&vec![per; k]).unwrap();
        assert!(advanced.epsilon() < basic.epsilon());
        assert!(advanced_composition(per, 0, 1e-6).is_err());
        assert!(advanced_composition(per, 10, 0.0).is_err());
    }

    #[test]
    fn advanced_composition_matches_paper_formula() {
        let per = PrivacyParams::new(0.1, 0.0).unwrap();
        let k = 100;
        let dp = 1e-6;
        let out = advanced_composition(per, k, dp).unwrap();
        let expected = 2.0 * 100.0 * 0.01 + 0.1 * (200.0 * (1e6_f64).ln()).sqrt();
        assert!((out.epsilon() - expected).abs() < 1e-9);
        assert!((out.delta() - dp).abs() < 1e-15);
    }

    #[test]
    fn charge_within_commits_only_affordable_charges() {
        let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mode = CompositionMode::Basic;
        let mut totals = LedgerTotals::new();
        let step = PrivacyParams::new(0.4, 1e-7).unwrap();
        assert!(totals.charge_within(step, budget, mode).is_ok());
        assert!(totals.charge_within(step, budget, mode).is_ok());
        // A third 0.4 would compose to 1.2 > 1.0: refused, totals unchanged.
        let before = totals;
        let err = totals.charge_within(step, budget, mode).unwrap_err();
        match err {
            DpError::BudgetExhausted {
                requested_epsilon,
                remaining_epsilon,
            } => {
                assert!((requested_epsilon - 0.4).abs() < 1e-12);
                assert!((remaining_epsilon - 0.2).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(totals, before);
        // A smaller charge still fits.
        let small = PrivacyParams::new(0.15, 1e-8).unwrap();
        let total = totals.charge_within(small, budget, mode).unwrap();
        assert!((total.epsilon() - 0.95).abs() < 1e-12);
        assert_eq!(totals.count(), 3);
    }

    #[test]
    fn advanced_mode_admits_more_small_queries_than_basic() {
        let budget = PrivacyParams::new(1.0, 1e-4).unwrap();
        let per = PrivacyParams::new(0.02, 1e-9).unwrap();
        let count = |mode: CompositionMode| {
            let mut totals = LedgerTotals::new();
            let mut granted = 0usize;
            for _ in 0..5_000 {
                if totals.charge_within(per, budget, mode).is_err() {
                    break;
                }
                granted += 1;
            }
            // Whatever was granted must verify under the same mode.
            totals.verify_within(budget, mode).unwrap();
            granted
        };
        let basic = count(CompositionMode::Basic);
        let advanced = count(CompositionMode::Advanced { delta_prime: 1e-5 });
        assert_eq!(basic, 50); // 50 · 0.02 = 1.0
        assert!(
            advanced > basic,
            "advanced composition should admit more ε=0.02 queries (basic {basic}, advanced {advanced})"
        );
    }

    /// The reference the totals must reproduce bit for bit: today's
    /// whole-list folds (`basic_composition`'s `Iterator::sum`, and
    /// `fold(0.0, f64::max)` for advanced composition's maxima).
    fn folded(charges: &[PrivacyParams], delta_prime: f64) -> (PrivacyParams, PrivacyParams) {
        let basic = basic_composition(charges).unwrap();
        let eps_max = charges.iter().map(|p| p.epsilon()).fold(0.0, f64::max);
        let delta_max = charges.iter().map(|p| p.delta()).fold(0.0, f64::max);
        let advanced = advanced_composition(
            PrivacyParams::new(eps_max, delta_max).unwrap(),
            charges.len(),
            delta_prime,
        )
        .unwrap();
        (basic, advanced)
    }

    #[test]
    fn totals_are_bit_identical_to_whole_list_composition() {
        let bits = |p: PrivacyParams| (p.epsilon().to_bits(), p.delta().to_bits());
        // Awkward decimal values whose sums depend on the addition order,
        // and a -0.0 δ (valid: δ ∈ [0, 1)) that `Iterator::sum` keeps.
        let mut charges = Vec::new();
        let mut totals = LedgerTotals::new();
        for i in 0..2_000u32 {
            let eps = 0.1 + f64::from(i % 7) * 0.01 + 1.0 / f64::from(i + 3);
            let delta = if i % 5 == 0 {
                0.0
            } else {
                1e-9 / f64::from(i + 1)
            };
            let params = PrivacyParams::new(eps, delta).unwrap();
            charges.push(params);
            totals.charge(params);
            let (basic, advanced) = folded(&charges, 1e-7);
            assert_eq!(
                bits(totals.basic().unwrap()),
                bits(basic),
                "basic after {i}"
            );
            assert_eq!(bits(totals.advanced(1e-7).unwrap()), bits(advanced));
        }
        let negative_zero = PrivacyParams::new(0.5, -0.0).unwrap();
        let one = LedgerTotals::new().with_charge(negative_zero);
        assert_eq!(
            bits(one.basic().unwrap()),
            bits(basic_composition(&[negative_zero]).unwrap())
        );
        assert!(LedgerTotals::new().basic().is_err());
        assert!(LedgerTotals::new().advanced(1e-6).is_err());
    }

    #[test]
    fn totals_round_trip_bit_exactly_and_reject_refunds() {
        let mut totals = LedgerTotals::new();
        totals.charge(PrivacyParams::new(0.1 + 0.2, 1e-300).unwrap());
        totals.charge(PrivacyParams::new(0.7, 3e-9).unwrap());
        let json = serde_json::to_string(&totals).unwrap();
        let back: LedgerTotals = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), totals.count());
        for (a, b) in [
            (back.epsilon_sum(), totals.epsilon_sum()),
            (back.delta_sum(), totals.delta_sum()),
            (back.epsilon_max(), totals.epsilon_max()),
            (back.delta_max(), totals.delta_max()),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let empty: LedgerTotals =
            serde_json::from_str(&serde_json::to_string(&LedgerTotals::new()).unwrap()).unwrap();
        assert!(empty.is_empty());
        // Totals no run of valid charges produces must not decode.
        for bad in [
            r#"{"count":2,"epsilon_sum":-0.5,"delta_sum":0,"epsilon_max":0.5,"delta_max":0}"#,
            r#"{"count":2,"epsilon_sum":0.5,"delta_sum":0,"epsilon_max":0.7,"delta_max":0}"#,
            r#"{"count":0,"epsilon_sum":0.5,"delta_sum":0,"epsilon_max":0.5,"delta_max":0}"#,
            r#"{"count":1.5,"epsilon_sum":0.5,"delta_sum":0,"epsilon_max":0.5,"delta_max":0}"#,
            r#"{"count":1,"epsilon_sum":0.5,"delta_sum":0}"#,
        ] {
            let value: Value = serde_json::from_str(bad).unwrap();
            assert!(LedgerTotals::from_json_value(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn under_reports_the_tighter_valid_pair() {
        let mut totals = LedgerTotals::new();
        let per = PrivacyParams::new(0.01, 0.0).unwrap();
        for _ in 0..1000 {
            totals.charge(per);
        }
        let basic = totals.under(CompositionMode::Basic).unwrap();
        let mode = CompositionMode::Advanced { delta_prime: 1e-6 };
        let advanced = totals.under(mode).unwrap();
        assert!((basic.epsilon() - 10.0).abs() < 1e-9);
        assert!(advanced.epsilon() < basic.epsilon());
        assert_eq!(
            advanced,
            totals.advanced(1e-6).unwrap(),
            "with many small charges the advanced pair should win"
        );
        // With a single large charge, basic is tighter and must be returned.
        let one = LedgerTotals::new().with_charge(PrivacyParams::new(2.0, 1e-9).unwrap());
        let picked = one.under(mode).unwrap();
        assert!((picked.epsilon() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_mode_and_params_round_trip_bit_exactly() {
        // The journal relies on JSON round trips being bit-exact: the
        // vendored writer prints floats via Rust's shortest round-trip
        // formatting, so to_bits must survive serialize → parse unchanged.
        let awkward = PrivacyParams::new(0.1 + 0.2, 1e-300).unwrap();
        let json = serde_json::to_string(&awkward).unwrap();
        let back: PrivacyParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back.epsilon().to_bits(), awkward.epsilon().to_bits());
        assert_eq!(back.delta().to_bits(), awkward.delta().to_bits());

        for mode in [
            CompositionMode::Basic,
            CompositionMode::Advanced {
                delta_prime: 1e-7 * 1.0000000000000002,
            },
        ] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: CompositionMode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode, "round trip failed for {json}");
        }

        let bad_mode: Value = serde_json::from_str(r#""fancy""#).unwrap();
        assert!(CompositionMode::from_json_value(&bad_mode).is_err());
    }

    #[test]
    fn ledger_tracks_and_verifies_budgets() {
        let mut ledger = PrivacyLedger::new();
        assert!(ledger.is_empty());
        let quarter = PrivacyParams::new(0.25, 2.5e-7).unwrap();
        for label in [
            "above_threshold",
            "box_choice",
            "axis_intervals",
            "noisy_avg",
        ] {
            ledger.charge(label, quarter);
        }
        assert_eq!(ledger.len(), 4);
        assert_eq!(ledger.entries()[0].label, "above_threshold");
        let total = ledger.totals.basic().unwrap();
        assert!((total.epsilon() - 1.0).abs() < 1e-12);
        assert!(ledger
            .verify_within(PrivacyParams::new(1.0, 1e-6).unwrap())
            .is_ok());
        assert!(ledger
            .verify_within(PrivacyParams::new(0.5, 1e-6).unwrap())
            .is_err());
        assert!(ledger
            .verify_within(PrivacyParams::new(1.0, 1e-8).unwrap())
            .is_err());
    }
}
