//! Numeric helpers: iterated logarithm, towers and the paper's
//! promise constant `Γ`.

/// The iterated (base-2) logarithm `log* x`: the number of times `log2` must
/// be applied before the value drops to at most 1. `log*(x) = 0` for `x ≤ 1`.
pub fn log_star(x: f64) -> u32 {
    if !x.is_finite() || x <= 1.0 {
        return 0;
    }
    let mut v = x;
    let mut count = 0u32;
    while v > 1.0 && count < 64 {
        v = v.log2();
        count += 1;
    }
    count
}

/// The tower function of the paper (§5): `tower(0) = 1`,
/// `tower(j) = 2^tower(j−1)`. Saturates at `f64::MAX` once it overflows.
pub fn tower(j: u32) -> f64 {
    let mut v = 1.0_f64;
    for _ in 0..j {
        if v > 1023.0 {
            return f64::MAX;
        }
        v = (2.0_f64).powf(v);
    }
    v
}

/// The paper's quality-promise constant for Algorithm 1 (GoodRadius):
///
/// `Γ = 8^{log*(2|X|√d)} · (144·log*(2|X|√d)/ε) · ln(24·log*(2|X|√d)/(βδ))`.
///
/// This is the value Theorem 4.3 (RecConcave) would require. The solver we
/// ship ([`crate::quasiconcave`]) requires a different (for realistic domain
/// sizes: *smaller*) promise, reported by its own `required_promise`; both
/// values appear in the experiment reports so the substitution documented in
/// DESIGN.md §3.1 can be inspected quantitatively.
pub fn paper_gamma(domain_size: u64, dim: usize, epsilon: f64, beta: f64, delta: f64) -> f64 {
    let arg = 2.0 * domain_size as f64 * (dim as f64).sqrt();
    let ls = log_star(arg) as f64;
    8.0_f64.powf(ls) * (144.0 * ls / epsilon) * (24.0 * ls / (beta * delta)).ln()
}

/// The paper's bound on the additive cluster-size loss of Theorem 3.2:
/// `Δ = O((1/ε)·log(n/δ)·log(1/β)·9^{log*(2|X|√d)})`, with the constant taken
/// to be 1 (the theorem is stated asymptotically).
pub fn paper_delta_bound(
    domain_size: u64,
    dim: usize,
    n: usize,
    epsilon: f64,
    beta: f64,
    delta: f64,
) -> f64 {
    let arg = 2.0 * domain_size as f64 * (dim as f64).sqrt();
    let ls = log_star(arg) as f64;
    (1.0 / epsilon) * (n.max(2) as f64 / delta).ln() * (1.0 / beta).ln() * 9.0_f64.powf(ls)
}

/// The paper's lower-bound requirement on the cluster size for Theorem 3.2:
/// `t ≥ O((√d/ε)·log(1/β)·log(nd/(βδ))·√log(1/(βδ))·9^{log*(2|X|√d)})`, again
/// with unit constant.
pub fn paper_t_requirement(
    domain_size: u64,
    dim: usize,
    n: usize,
    epsilon: f64,
    beta: f64,
    delta: f64,
) -> f64 {
    let arg = 2.0 * domain_size as f64 * (dim as f64).sqrt();
    let ls = log_star(arg) as f64;
    ((dim as f64).sqrt() / epsilon)
        * (1.0 / beta).ln()
        * ((n.max(2) * dim.max(1)) as f64 / (beta * delta)).ln()
        * (1.0 / (beta * delta)).ln().sqrt()
        * 9.0_f64.powf(ls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0.5), 0);
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(2.0_f64.powi(1000)), 5);
        assert_eq!(log_star(f64::NAN), 0);
        assert_eq!(log_star(f64::INFINITY), 0);
    }

    #[test]
    fn tower_values() {
        assert_eq!(tower(0), 1.0);
        assert_eq!(tower(1), 2.0);
        assert_eq!(tower(2), 4.0);
        assert_eq!(tower(3), 16.0);
        assert_eq!(tower(4), 65536.0);
        assert_eq!(tower(5), f64::MAX); // 2^65536 overflows f64
                                        // tower and log_star are inverse-ish: log_star(tower(j)) == j for small j
        for j in 1..5 {
            assert_eq!(log_star(tower(j)), j);
        }
    }

    #[test]
    fn paper_constants_behave_monotonically() {
        // Γ grows (weakly) with |X| through log*, and shrinks with ε.
        let g_small = paper_gamma(16, 2, 1.0, 0.1, 1e-6);
        let g_large = paper_gamma(1 << 40, 2, 1.0, 0.1, 1e-6);
        assert!(g_large >= g_small);
        let g_tight_eps = paper_gamma(1 << 16, 2, 0.1, 0.1, 1e-6);
        let g_loose_eps = paper_gamma(1 << 16, 2, 1.0, 0.1, 1e-6);
        assert!(g_tight_eps > g_loose_eps);

        let d_small = paper_delta_bound(1 << 16, 2, 1000, 1.0, 0.1, 1e-6);
        let d_large_domain = paper_delta_bound(1 << 50, 2, 1000, 1.0, 0.1, 1e-6);
        assert!(d_large_domain >= d_small);

        let t_low_dim = paper_t_requirement(1 << 16, 2, 1000, 1.0, 0.1, 1e-6);
        let t_high_dim = paper_t_requirement(1 << 16, 128, 1000, 1.0, 0.1, 1e-6);
        assert!(t_high_dim > t_low_dim);
    }
}
