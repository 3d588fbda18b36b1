//! Property-based tests of the geometric substrate.

use privcluster_geometry::{
    smallest_ball_two_approx, tol, welzl_meb, AxisAlignedBox, Ball, BallCounter, BoxPartition,
    Dataset, GeometryBackend, GeometryIndex, GridDomain, JlTransform, OrthonormalBasis, Point,
    ProjectedBackend, ProjectedConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(max_n: usize, dim: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, dim..=dim), 2..max_n)
        .prop_map(|rows| Dataset::from_rows(rows).expect("uniform dimension"))
}

/// Shifts a positive float by `ulps` representable steps (negative = down).
fn ulp_shift(x: f64, ulps: i64) -> f64 {
    assert!(x > 0.0);
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

/// Point `i`'s count at radius `r` as `backend` approximates `B_r`: the
/// points whose bucket sites lie within `r` of `i`'s. The datasets here
/// are two-dimensional, so the projection is the identity and a bucket's
/// site is its representative's input point.
fn projected_count(backend: &ProjectedBackend, data: &Dataset, i: usize, r: f64) -> usize {
    assert_eq!(backend.projected_dim(), data.dim(), "the projection fired");
    let site = |j: usize| data.point(backend.representative_of(j));
    (0..data.len())
        .filter(|&j| tol::within_radius(site(i).distance(site(j)), r))
        .count()
}

/// Adversarially near-tied 1-d datasets: points at multiples of a base step
/// `a`, each nudged by a few ulps, so many pairwise distances differ only at
/// ulp scale — far inside the unified tolerance, which must treat them as
/// the same breakpoint everywhere.
fn near_tied_dataset(max_n: usize) -> impl Strategy<Value = Dataset> {
    (0.1f64..2.0, prop::collection::vec(-3i64..=3, 3..max_n)).prop_map(|(a, jitters)| {
        let rows: Vec<Vec<f64>> = jitters
            .iter()
            .enumerate()
            .map(|(i, &j)| vec![ulp_shift((i + 1) as f64 * a, j)])
            .collect();
        Dataset::from_rows(rows).expect("uniform dimension")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reference ball counts agree with a naive scan at arbitrary radii.
    #[test]
    fn ball_counts_match_naive(data in dataset(18, 3), r in 0.0f64..2.0) {
        let counter = BallCounter::new(&data, 1);
        for i in 0..data.len() {
            let naive = data
                .iter()
                .filter(|p| data.point(i).distance(p) <= r + 1e-12)
                .count();
            prop_assert_eq!(counter.count(i, r), naive);
        }
    }

    /// The L profile agrees with direct evaluation at random probes.
    #[test]
    fn l_profile_matches_direct(data in dataset(14, 2), cap_sel in 1usize..8, probe in 0.0f64..2.0) {
        let cap = 1 + cap_sel % data.len();
        let counter = BallCounter::new(&data, cap);
        let profile = counter.l_profile();
        prop_assert!((profile.value_at(probe) - counter.l_value(probe)).abs() < 1e-9);
    }

    /// Welzl's ball always covers every point and is no larger than the
    /// bounding-box ball.
    #[test]
    fn welzl_ball_covers_and_is_reasonable(data in dataset(20, 3), seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ball = welzl_meb(&data, &mut rng).unwrap();
        for p in data.iter() {
            prop_assert!(ball.contains(p));
        }
        let extreme = |j: usize, pick: fn(f64, f64) -> f64| {
            data.iter().map(|p| p[j]).reduce(pick).unwrap()
        };
        let lo = (0..data.dim()).map(|j| extreme(j, f64::min)).collect();
        let hi = (0..data.dim()).map(|j| extreme(j, f64::max)).collect();
        let bb_ball = AxisAlignedBox::new(lo, hi).unwrap().bounding_ball();
        prop_assert!(ball.radius() <= bb_ball.radius() + 1e-9);
    }

    /// The 2-approximation ball is centred at an input point and covers t points.
    #[test]
    fn two_approx_centred_at_an_input_point(data in dataset(16, 2), t_sel in 1usize..8) {
        let t = 1 + t_sel % data.len();
        let ball = smallest_ball_two_approx(&data, t).unwrap();
        prop_assert!(data.count_in_ball(&ball) >= t);
        prop_assert!(data.iter().any(|p| p.distance(ball.center()) < 1e-12));
    }

    /// A random orthonormal basis preserves norms and inner products.
    #[test]
    fn rotations_preserve_geometry(
        dim in 2usize..12,
        coords_a in prop::collection::vec(-1.0f64..1.0, 12),
        coords_b in prop::collection::vec(-1.0f64..1.0, 12),
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let basis = OrthonormalBasis::random(dim, &mut rng).unwrap();
        let a = Point::new(coords_a[..dim].to_vec());
        let b = Point::new(coords_b[..dim].to_vec());
        let coordinates = |p: &Point| (0..dim).map(|i| basis.project(p, i)).collect();
        let ra = Point::new(coordinates(&a));
        let rb = Point::new(coordinates(&b));
        prop_assert!((ra.norm() - a.norm()).abs() < 1e-9);
        prop_assert!((ra.dot(&rb) - a.dot(&b)).abs() < 1e-9);
    }

    /// Every point lands in exactly the box the partition reports for it.
    #[test]
    fn box_partition_cells_contain_their_points(
        data in dataset(15, 2),
        width in 0.01f64..1.0,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let partition = BoxPartition::random_cubes(2, width, &mut rng).unwrap();
        for p in data.iter() {
            let axes = partition.axes().iter().zip(p.coords());
            let cell: Vec<i64> = axes.map(|(axis, &x)| axis.cell_index(x)).collect();
            let bx = partition.cell_box(&cell).unwrap();
            prop_assert!(bx.contains(p));
        }
        // histogram counts sum to n
        let total: usize = partition.histogram(&data).values().sum();
        prop_assert_eq!(total, data.len());
    }

    /// JL projection of the zero vector is zero and projection is linear.
    #[test]
    fn jl_projection_is_linear(
        dim in 4usize..32,
        k in 2usize..4,
        coords in prop::collection::vec(-1.0f64..1.0, 32),
        scale in -3.0f64..3.0,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let jl = JlTransform::sample(dim, k, &mut rng).unwrap();
        let x = Point::new(coords[..dim].to_vec());
        let zero = jl.project(&Point::origin(dim)).unwrap();
        prop_assert!(zero.norm() < 1e-12);
        let px = jl.project(&x).unwrap();
        let psx = jl.project(&x.scale(scale)).unwrap();
        prop_assert!(psx.sub(&px.scale(scale)).norm() < 1e-9);
    }

    /// Scaling a ball preserves containment of previously contained points.
    #[test]
    fn ball_scaling_is_monotone(
        center in prop::collection::vec(0.0f64..1.0, 2..=2),
        radius in 0.01f64..1.0,
        probe in prop::collection::vec(0.0f64..1.0, 2..=2),
        factor in 1.0f64..5.0,
    ) {
        let ball = Ball::new(Point::new(center), radius).unwrap();
        let p = Point::new(probe);
        if ball.contains(&p) {
            let scaled = Ball::new(ball.center().clone(), radius * factor).unwrap();
            prop_assert!(scaled.contains(&p));
        }
    }

    /// On adversarially near-tied data (pairwise distances differing by a
    /// few ulps) the precomputed profile agrees with direct evaluation
    /// *exactly* — the regression the unified tolerance fixes: with
    /// inconsistent dedup/merge tolerances, ulp-scale ties could land on
    /// different sides of the two predicates.
    #[test]
    fn near_tied_profile_matches_direct_exactly(
        data in near_tied_dataset(12),
        cap_sel in 1usize..10,
        probe_jitter in -3i64..=3,
    ) {
        let cap = 1 + cap_sel % data.len();
        let counter = BallCounter::new(&data, cap);
        let profile = counter.l_profile();
        // Probe at every breakpoint, at ulp-perturbed breakpoints, and at
        // gap midpoints.
        let mut probes: Vec<f64> = Vec::new();
        for &b in profile.breakpoints() {
            probes.push(b);
            if b > 0.0 {
                probes.push(ulp_shift(b, probe_jitter));
            }
        }
        for w in profile.breakpoints().windows(2) {
            probes.push((w[0] + w[1]) / 2.0);
        }
        for &r in &probes {
            let direct = counter.l_value(r);
            let via_profile = profile.value_at(r);
            prop_assert!(
                via_profile.to_bits() == direct.to_bits(),
                "value_at({r}) = {via_profile} but l_value = {direct}"
            );
        }
    }

    /// The profile's breakpoint grouping and `sorted_all_distances`'s dedup
    /// use the same predicate, so they must produce the *same* breakpoints —
    /// a pair of distances that survives dedup is never merged by the
    /// profile sweep, and vice versa.
    #[test]
    fn profile_breakpoints_agree_with_dedup(data in near_tied_dataset(12), cap_sel in 1usize..6) {
        let cap = 1 + cap_sel % data.len();
        let counter = BallCounter::new(&data, cap);
        let profile = counter.l_profile();
        let deduped = counter.breakpoints();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(profile.breakpoints()), bits(&deduped));
    }

    /// A shared GeometryIndex is bit-identical to a per-query rebuild, and
    /// its memoised grid profiles stay identical on reuse.
    #[test]
    fn geometry_index_reuse_is_bit_identical(
        data in dataset(16, 2),
        cap_sel in 1usize..8,
    ) {
        let cap = 1 + cap_sel % data.len();
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let fresh = BallCounter::new(&data, cap).l_profile();
        let fresh_grid = BallCounter::new(&data, cap).grid_profile(&domain);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let index = GeometryIndex::build(&data);
        let profile = index.l_profile(cap);
        prop_assert_eq!(bits(profile.breakpoints()), bits(fresh.breakpoints()));
        prop_assert_eq!(bits(profile.values()), bits(fresh.values()));
        // First use builds, second reuses the memoised grid profile.
        for _ in 0..2 {
            prop_assert_eq!(&*index.grid_profile(cap, &domain), &fresh_grid);
        }
        prop_assert_eq!(index.cached_profiles(), 1);
    }

    /// The projected backend's counts and profile values — its breakpoint
    /// `l_profile` and the grid profile GoodRadius reads, at every quarter
    /// index — are bracketed by the exact backend's answers at radii
    /// shifted by the documented slack (`radius_slack = 2·displacement`),
    /// on random datasets and random bucket budgets — the approximation
    /// contract of the backend module.
    #[test]
    fn projected_backend_brackets_exact_within_documented_slack(
        data in dataset(36, 2),
        max_buckets in 4usize..48,
        cap_sel in 1usize..10,
        probe in 0.0f64..2.0,
    ) {
        let exact = GeometryIndex::build(&data);
        let counter = BallCounter::new(&data, 1);
        let projected = ProjectedBackend::build(&data, ProjectedConfig {
            max_buckets: Some(max_buckets),
            ..ProjectedConfig::default()
        });
        let cap = 1 + cap_sel % data.len();
        let slack = projected.radius_slack();
        prop_assert!(slack >= 0.0 && slack.is_finite());
        let margin = slack * (1.0 + 1e-9) + 1e-12;
        for i in 0..data.len() {
            let approx = projected_count(&projected, &data, i, probe);
            // Upper bracket phrased exactly as the contract states it,
            // through the tolerance layer: every point the backend counts
            // at radius r is a point the exact metric admits once r is
            // widened by the slack.
            let hi = data
                .iter()
                .filter(|p| tol::within_radius(data.point(i).distance(p), probe + margin))
                .count();
            prop_assert_eq!(hi, counter.count(i, probe + margin));
            let lo = if probe >= margin {
                counter.count(i, probe - margin)
            } else {
                0
            };
            prop_assert!(
                lo <= approx && approx <= hi,
                "count bracket violated: i={}, r={}, {} <= {} <= {}", i, probe, lo, approx, hi
            );
        }
        let pp = projected.l_profile(cap);
        let pe = exact.l_profile(cap);
        let v = pp.value_at(probe);
        prop_assert!(v <= pe.value_at(probe + margin) + 1e-9);
        let lo = if probe >= margin { pe.value_at(probe - margin) } else { 0.0 };
        prop_assert!(v + 1e-9 >= lo);
        // Monotone step function, like the exact profile.
        prop_assert!(pp.values().windows(2).all(|w| w[0] <= w[1] + 1e-12));
        let domain = GridDomain::unit_cube(2, 64).unwrap();
        let grid = projected.grid_profile(cap, &domain);
        for q in 0..=2 * (domain.radius_grid_len() - 1) {
            let r = domain.radius_from_index(q) / 2.0;
            let v = grid.value(q);
            prop_assert!(v <= pe.value_at(r + margin) + 1e-9, "L(ρ_{}) = {}", q, v);
            let lo = if r >= margin { pe.value_at(r - margin) } else { 0.0 };
            prop_assert!(v + 1e-9 >= lo, "L(ρ_{}) = {} below {}", q, v, lo);
        }
    }

    /// Projected-backend builds are deterministic: repeated builds — and
    /// builds racing on 1/2/4 concurrent threads — produce bit-identical
    /// breakpoint and grid profiles and selection metadata.
    #[test]
    fn projected_backend_build_is_deterministic_across_threads(
        data in dataset(24, 2),
        max_buckets in 4usize..32,
        cap_sel in 1usize..6,
    ) {
        let cap = 1 + cap_sel % data.len();
        let config = ProjectedConfig {
            max_buckets: Some(max_buckets),
            ..ProjectedConfig::default()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let reference = ProjectedBackend::build(&data, config);
        let ref_profile = reference.l_profile(cap);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let ref_grid = reference.grid_profile(cap, &domain);
        for threads in [1usize, 2, 4] {
            let built: Vec<ProjectedBackend> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| scope.spawn(|| ProjectedBackend::build(&data, config)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for backend in built {
                prop_assert_eq!(backend.bucket_count(), reference.bucket_count());
                prop_assert_eq!(
                    backend.cell_width().to_bits(),
                    reference.cell_width().to_bits()
                );
                prop_assert_eq!(
                    backend.radius_slack().to_bits(),
                    reference.radius_slack().to_bits()
                );
                for i in 0..data.len() {
                    prop_assert_eq!(
                        backend.representative_of(i),
                        reference.representative_of(i)
                    );
                }
                let profile = backend.l_profile(cap);
                prop_assert_eq!(bits(profile.breakpoints()), bits(ref_profile.breakpoints()));
                prop_assert_eq!(bits(profile.values()), bits(ref_profile.values()));
                let grid = backend.grid_profile(cap, &domain);
                for q in 0..=2 * (domain.radius_grid_len() - 1) {
                    prop_assert_eq!(grid.value(q).to_bits(), ref_grid.value(q).to_bits());
                }
                prop_assert_eq!(grid.segment_starts(), ref_grid.segment_starts());
            }
        }
    }
}

/// Pins the unified tolerance so it cannot silently drift: one relative
/// slack of 1e-12 plus one absolute slack of 1e-15, used identically by
/// membership counting, breakpoint dedup, and the profile sweep.
#[test]
fn unified_tolerance_regression() {
    // The predicate itself.
    assert!(tol::same_distance(1.0, 1.0 + 0.9e-12));
    assert!(!tol::same_distance(1.0, 1.0 + 1.2e-12));
    assert!(tol::within_radius(1.0 + 0.9e-12, 1.0));
    assert!(!tol::within_radius(1.0 + 1.2e-12, 1.0));
    assert!(tol::within_radius(0.9e-15, 0.0));
    assert!(!tol::within_radius(1.2e-15, 0.0));

    // Distances ~100 ulps apart (≈2e-14 at scale 1): inside the unified
    // tolerance, so dedup AND the profile merge them — under the old 4-ulp
    // dedup they survived as two breakpoints while the profile merged them.
    let a = 1.0f64;
    let b = f64::from_bits(a.to_bits() + 100);
    let data = Dataset::from_rows(vec![vec![0.0], vec![a], vec![-b]]).unwrap();
    let counter = BallCounter::new(&data, 2);
    let deduped = counter.breakpoints();
    let profile = counter.l_profile();
    assert_eq!(profile.breakpoints().len(), deduped.len());
    // Distances {0, a, b, a+b}: a and b collapse into one breakpoint.
    assert_eq!(deduped.len(), 3);

    // Distances 3e-12 apart at scale 1: beyond the tolerance, so BOTH keep
    // them distinct.
    let c = 1.0 + 3e-12;
    let data = Dataset::from_rows(vec![vec![0.0], vec![a], vec![-c]]).unwrap();
    let counter = BallCounter::new(&data, 2);
    assert_eq!(
        counter.l_profile().breakpoints().len(),
        counter.breakpoints().len()
    );
    assert_eq!(counter.breakpoints().len(), 4);
}
