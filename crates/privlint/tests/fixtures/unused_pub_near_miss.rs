//@ lint-as: crates/engine/src/planner.rs
// `unused-pub` near misses: every `pub fn` here is named by production code
// in this file, is not `pub`, is test-only, or is a trait item.

fn serve_one(request: &Request) -> f64 {
    plan(request).execute()
}

pub fn plan(request: &Request) -> Plan {
    Plan::new(split_for_count(request.privacy))
}

impl Plan {
    pub fn new(budget: f64) -> Plan {
        Plan { budget }
    }

    pub(crate) fn budget_only_tests_read(&self) -> f64 {
        self.budget
    }
}

fn split_for_count(budget: f64) -> f64 {
    budget / 2.0
}

impl Execute for Plan {
    fn execute(&self) -> f64 {
        self.budget
    }
}

pub trait Execute {
    fn execute(&self) -> f64;
}

#[cfg(test)]
pub fn panicking_plan() -> Plan {
    Plan::new(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn helper() -> Plan {
        panicking_plan()
    }

    #[test]
    fn plans() {
        assert!(helper().budget_only_tests_read().is_nan());
    }
}
