//! Numeric helpers: iterated logarithm, towers and the paper's loss
//! bound `Δ`.

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
        // Δ grows (weakly) with |X| through log*, and as ε falls.
        let base = paper_delta_bound(1 << 16, 2, 1000, 1.0, 0.1, 1e-6);
        assert!(paper_delta_bound(1 << 50, 2, 1000, 1.0, 0.1, 1e-6) >= base);
        assert!(paper_delta_bound(1 << 16, 2, 1000, 0.1, 0.1, 1e-6) > base);
    }
}
