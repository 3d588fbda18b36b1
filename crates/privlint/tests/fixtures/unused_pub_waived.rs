//@ lint-as: crates/geometry/src/ball_count.rs
// `unused-pub` waived: a reference that other crates' tests compare the
// served profile against stays public, with that reason.

impl BallCounter {
    // privlint::allow(unused-pub): the reference the grid-profile tests compare against
    pub fn l_value(&self, r: f64) -> f64 { //~ WAIVED unused-pub
        self.top_t_sum(r) / self.cap as f64
    }

    fn top_t_sum(&self, r: f64) -> f64 {
        r * self.cap as f64
    }
}
