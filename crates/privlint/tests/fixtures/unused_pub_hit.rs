//@ lint-as: crates/dp/src/params.rs
// `unused-pub`: a `pub fn` in a mechanism crate that no production code
// names. Linted alone, this file is the whole workspace, so only its own
// non-test code can be a caller.

pub use self::split::split_evenly;

impl PrivacyParams {
    pub fn split_evenly(&self, k: usize) -> Vec<Self> { //~ HIT unused-pub
        vec![*self; k]
    }

    /// A doctest does not call it either:
    ///
    /// ```
    /// let parts = budget.per_query(10);
    /// ```
    pub fn per_query(&self, k: usize) -> Self { //~ HIT unused-pub
        // per_query(k) is only ever named in comments.
        self.scaled(1.0 / k as f64)
    }

    pub const fn is_pure(&self) -> bool { //~ HIT unused-pub
        self.delta == 0.0
    }
}

pub fn total_basic(parts: &[PrivacyParams]) -> PrivacyParams { //~ HIT unused-pub
    parts.iter().fold(PrivacyParams::zero(), |a, b| a.plus(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits() {
        let p = PrivacyParams::zero();
        assert_eq!(p.split_evenly(2).len(), 2);
        assert!(p.is_pure());
        let _ = total_basic(&[p.per_query(3)]);
    }
}
