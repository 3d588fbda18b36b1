//! Seeded inputs: the workloads' datasets and per-connection request logs.
//!
//! Everything here is a pure function of `(workload, seed, seconds)`, built
//! on the benchmark's own generator so that a change to the repository's
//! RNG can never change what the benchmark sends.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fixed forever by this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; distinct `stream` values give independent streams.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Grid values per axis: step 2⁻¹⁰, so a snapped coordinate is an exact
/// binary fraction with a short decimal form (a 20,000-point register line
/// is about 0.5 MB).
pub const GRID_SIZE: u64 = 1025;
/// Every dataset's declared budget. Basic composition of at most a few
/// thousand charges per dataset stays far inside it, so nothing is refused.
pub const BUDGET_EPSILON: f64 = 1_048_576.0;
pub const BUDGET_DELTA: f64 = 0.5;
/// Per-query δ = 2⁻²⁰. Query ε values are powers of two as well, so the
/// ledger's sums are exact in any order and the ledger check can demand
/// bit equality.
pub const QUERY_DELTA: f64 = 1.0 / 1_048_576.0;
pub const BETA: f64 = 0.1;
pub const BATCH_MEMBERS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LedgerSmall,
    ExactCold,
    ProjectedLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LedgerSmall,
        Workload::ExactCold,
        Workload::ProjectedLarge,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LedgerSmall => "ledger-small",
            Workload::ExactCold => "exact-cold",
            Workload::ProjectedLarge => "projected-large",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::LedgerSmall => Spec {
                shards: 2,
                snapshots: true,
                max_inflight: Some(64),
                connections: 2,
                datasets: 8,
                n: 64,
                on_grid: true,
                clusters: 1,
                cluster_percent: 33,
                cluster_radius: 0.08,
                query_epsilon: 0.25,
                caps: &[16, 32],
                ops_per_second: 600.0,
                round_singles: 0,
            },
            Workload::ExactCold => Spec {
                shards: 1,
                snapshots: false,
                max_inflight: None,
                connections: 1,
                datasets: 2,
                n: 1000,
                on_grid: false,
                clusters: 1,
                cluster_percent: 33,
                cluster_radius: 0.08,
                query_epsilon: 4.0,
                caps: &[200],
                ops_per_second: 1.1,
                round_singles: 12,
            },
            Workload::ProjectedLarge => Spec {
                shards: 1,
                snapshots: false,
                max_inflight: None,
                connections: 1,
                datasets: 2,
                n: 20_000,
                on_grid: true,
                clusters: 2,
                cluster_percent: 45,
                cluster_radius: 0.04,
                query_epsilon: 4.0,
                caps: &[5000],
                ops_per_second: 5.0,
                round_singles: 20,
            },
        }
    }
}

/// The fixed shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub shards: usize,
    /// `--snapshot-dir` with `--snapshot-every 1024`.
    pub snapshots: bool,
    pub max_inflight: Option<usize>,
    pub connections: usize,
    /// Datasets that queries address.
    pub datasets: usize,
    /// Points per dataset.
    pub n: usize,
    /// Whether points sit on the domain grid (off-grid points make every
    /// pairwise distance distinct, so the `L(r,S)` profile has the most
    /// breakpoints a dataset of this size can have).
    pub on_grid: bool,
    /// Dense clusters (uniform in a disc of `cluster_radius`), each holding
    /// `cluster_percent`% of the points; the rest are uniform.
    pub clusters: usize,
    pub cluster_percent: usize,
    pub cluster_radius: f64,
    pub query_epsilon: f64,
    /// Target cluster sizes `t` (the profile caps) queries use.
    pub caps: &'static [usize],
    /// Timed-phase size per second of `--seconds`: operations per
    /// connection-second for `ledger-small`, rounds per second otherwise.
    /// The log is fixed work, sized to take about `--seconds` on a 2-vCPU
    /// host, so counts such as bytes on disk repeat from run to run.
    pub ops_per_second: f64,
    /// Warm single queries per round (round-based workloads).
    pub round_singles: usize,
}

impl Spec {
    /// `serve` flags besides the journal, snapshot and listener paths.
    pub fn serve_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--shards".to_string(),
            self.shards.to_string(),
            "--group-commit-max-batch".to_string(),
            "64".to_string(),
            "--threads".to_string(),
            "2".to_string(),
        ];
        if let Some(bound) = self.max_inflight {
            flags.push("--max-inflight".to_string());
            flags.push(bound.to_string());
        }
        flags
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A fresh single `good_radius` query: charged and executed.
    Query,
    /// A byte-identical copy of an earlier single query on the same
    /// connection: answered from the result cache, uncharged.
    Replay,
    Batch,
    Reregister,
}

/// One fresh `good_radius` query: what it charges and how to run it
/// in-process.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    pub dataset: usize,
    pub seed: u64,
    pub t: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub line: String,
    pub class: Class,
    /// Fresh queries inside (one for a single, eight for a batch).
    pub members: Vec<Member>,
    /// For a replay, the index of the original in the same connection's log.
    pub replay_of: Option<usize>,
    /// For a reregister, its rows.
    pub rows: Vec<[f64; 2]>,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub spec: Spec,
    pub names: Vec<String>,
    pub registers: Vec<Op>,
    /// Untimed queries that build every profile the timed phase reuses.
    pub warmup: Vec<Op>,
    /// The timed phase: one log per connection.
    pub conns: Vec<Vec<Op>>,
}

impl Inputs {
    /// Every log line in generation order (registers, warm-up, then each
    /// connection's log) — the byte stream the determinism test pins.
    #[cfg(test)]
    pub fn log_bytes(&self) -> String {
        let mut out = String::new();
        let ops = self.registers.iter().chain(&self.warmup);
        for op in ops.chain(self.conns.iter().flatten()) {
            out.push_str(&op.line);
            out.push('\n');
        }
        out
    }

    #[cfg(test)]
    pub fn timed_ops(&self) -> impl Iterator<Item = &Op> {
        self.conns.iter().flatten()
    }
}

struct Gen {
    rng: Rng,
    spec: Spec,
    names: Vec<String>,
    next_seed: u64,
    seed_base: u64,
}

impl Gen {
    fn fresh_seed(&mut self) -> u64 {
        self.next_seed += 1;
        self.seed_base + self.next_seed
    }

    /// `n` points in the unit square laid out as the spec says, sorted by
    /// x then y. Clusters give every cap a dense ball to find;
    /// `projected-large` keeps its uniform background sparse (10%) around
    /// its two clusters.
    ///
    /// Row order is an input property the cost depends on: the projected
    /// backend sizes its grid from the spread around the first row, so with
    /// rows in random order its bucket count, and the set-up time with it,
    /// varied by up to 50% from seed to seed. Sorted rows start at the
    /// leftmost point, whose spread is the whole domain on every seed.
    fn points(&mut self, n: usize) -> Vec<[f64; 2]> {
        let spec = self.spec;
        let per_cluster = n * spec.cluster_percent / 100;
        let centers: Vec<[f64; 2]> = (0..spec.clusters)
            .map(|_| [0.2 + 0.6 * self.rng.unit(), 0.2 + 0.6 * self.rng.unit()])
            .collect();
        let radius = spec.cluster_radius;
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let p = match centers.get(i / per_cluster.max(1)) {
                Some(center) => loop {
                    let dx = (2.0 * self.rng.unit() - 1.0) * radius;
                    let dy = (2.0 * self.rng.unit() - 1.0) * radius;
                    if dx * dx + dy * dy <= radius * radius {
                        break [center[0] + dx, center[1] + dy];
                    }
                },
                None => [self.rng.unit(), self.rng.unit()],
            };
            points.push(if spec.on_grid { snap(p) } else { p });
        }
        points.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
        points
    }

    fn member(&mut self, dataset: usize, t: usize) -> Member {
        Member {
            dataset,
            seed: self.fresh_seed(),
            t,
        }
    }

    fn query_body(&self, m: &Member) -> String {
        format!(
            "\"dataset\":\"{}\",\"seed\":{},\"epsilon\":{:?},\"delta\":{:?},\"query\":{{\"type\":\"good_radius\",\"t\":{},\"beta\":{BETA}}}",
            self.names[m.dataset], m.seed, self.spec.query_epsilon, QUERY_DELTA, m.t
        )
    }

    fn single(&mut self, dataset: usize, t: usize) -> Op {
        let member = self.member(dataset, t);
        Op {
            line: format!("{{\"op\":\"query\",{}}}", self.query_body(&member)),
            class: Class::Query,
            members: vec![member],
            replay_of: None,
            rows: Vec::new(),
        }
    }

    /// A batch of `good_radius` members, one per `(dataset, cap)`.
    fn batch(&mut self, targets: &[(usize, usize)]) -> Op {
        let members: Vec<Member> = targets.iter().map(|&(d, t)| self.member(d, t)).collect();
        let bodies: Vec<String> = members
            .iter()
            .map(|m| format!("{{{}}}", self.query_body(m)))
            .collect();
        Op {
            line: format!("{{\"op\":\"batch\",\"requests\":[{}]}}", bodies.join(",")),
            class: Class::Batch,
            members,
            replay_of: None,
            rows: Vec::new(),
        }
    }

    fn registration(&mut self, dataset: usize, first: bool) -> Op {
        let rows = self.points(self.spec.n);
        let mut line = String::with_capacity(rows.len() * 32 + 160);
        let op = if first { "register" } else { "reregister" };
        write!(
            line,
            "{{\"op\":\"{op}\",\"dataset\":\"{}\",\"domain\":{{\"dim\":2,\"size\":{GRID_SIZE}}},",
            self.names[dataset]
        )
        .expect("write to String");
        if first {
            write!(
                line,
                "\"budget\":{{\"epsilon\":{BUDGET_EPSILON:?},\"delta\":{BUDGET_DELTA:?}}},"
            )
            .expect("write to String");
        }
        line.push_str("\"points\":[");
        for (i, p) in rows.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write!(line, "[{:?},{:?}]", p[0], p[1]).expect("write to String");
        }
        line.push_str("]}");
        Op {
            line,
            class: Class::Reregister,
            members: Vec::new(),
            replay_of: None,
            rows,
        }
    }
}

/// Snaps onto the `GRID_SIZE` grid of `[0, 1]`.
pub fn snap(p: [f64; 2]) -> [f64; 2] {
    let step = 1.0 / (GRID_SIZE - 1) as f64;
    p.map(|c| (c.clamp(0.0, 1.0) / step).round() * step)
}

/// Builds the inputs of one run.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let spec = workload.spec();
    let prefix = match workload {
        Workload::LedgerSmall => "ls",
        Workload::ExactCold => "ec",
        Workload::ProjectedLarge => "pl",
    };
    let names: Vec<String> = (0..spec.datasets).map(|i| format!("{prefix}{i}")).collect();
    let mut rng = Rng::new(seed, 0);
    // Query seeds lie in [2⁴⁸, 2⁴⁹): exact in JSON, and of one width in
    // every fingerprint, so record sizes do not depend on the run seed.
    let seed_base = (1 << 48) + ((rng.next_u64() >> 40) << 24);
    let mut gen = Gen {
        rng,
        spec,
        names: names.clone(),
        next_seed: 0,
        seed_base,
    };
    let registers: Vec<Op> = (0..names.len())
        .map(|d| gen.registration(d, true))
        .collect();
    // Warm-up: one `good_radius` per queried dataset and cap builds every
    // profile the timed phase reuses.
    let mut warmup = Vec::new();
    for d in 0..spec.datasets {
        for &t in spec.caps {
            warmup.push(gen.single(d, t));
        }
    }
    let conns = match workload {
        Workload::LedgerSmall => {
            let per_conn = (spec.ops_per_second * seconds as f64).round() as usize;
            (0..spec.connections)
                .map(|_| ledger_log(&mut gen, per_conn.max(1)))
                .collect()
        }
        _ => {
            let rounds = (spec.ops_per_second * seconds as f64).round().max(1.0) as usize;
            vec![round_log(&mut gen, rounds)]
        }
    };
    Inputs {
        workload,
        spec,
        names,
        registers,
        warmup,
        conns,
    }
}

/// `ledger-small`: of each connection's ops, exactly 70% are fresh
/// `good_radius` singles, 20% replays of one of the connection's last 8
/// fresh singles and 10% 8-member batches (one member per queried dataset,
/// so every batch spans both shards), in seeded order. Fresh singles visit
/// the datasets and caps evenly, so every seed puts the same number of
/// records on each shard.
fn ledger_log(gen: &mut Gen, ops: usize) -> Vec<Op> {
    const FIRST_FRESH: usize = 8;
    let replays = ops * 20 / 100;
    let batches = ops * 10 / 100;
    let mut classes: Vec<Class> = Vec::with_capacity(ops);
    classes.extend(std::iter::repeat_n(Class::Replay, replays));
    classes.extend(std::iter::repeat_n(Class::Batch, batches));
    let fresh = ops.saturating_sub(classes.len()).max(FIRST_FRESH);
    classes.extend(std::iter::repeat_n(Class::Query, fresh - FIRST_FRESH));
    gen.rng.shuffle(&mut classes);
    // A replay needs an original: the log opens with fresh singles.
    let mut order = vec![Class::Query; FIRST_FRESH];
    order.extend(classes);

    let datasets = gen.spec.datasets;
    let mut log: Vec<Op> = Vec::with_capacity(order.len());
    let mut recent: Vec<usize> = Vec::new();
    let mut block: Vec<usize> = Vec::new();
    let (mut singles, mut batch_count) = (0, 0);
    for class in order {
        let op = match class {
            Class::Query => {
                if block.is_empty() {
                    block = (0..datasets).collect();
                    gen.rng.shuffle(&mut block);
                }
                let d = block.pop().expect("refilled above");
                let t = gen.spec.caps[(singles / datasets) % gen.spec.caps.len()];
                singles += 1;
                recent.push(log.len());
                if recent.len() > 8 {
                    recent.remove(0);
                }
                gen.single(d, t)
            }
            Class::Replay => {
                let original = recent[gen.rng.below(recent.len())];
                Op {
                    line: log[original].line.clone(),
                    class: Class::Replay,
                    members: Vec::new(),
                    replay_of: Some(original),
                    rows: Vec::new(),
                }
            }
            Class::Batch => {
                batch_count += 1;
                let members: Vec<(usize, usize)> = (0..datasets)
                    .map(|d| (d, gen.spec.caps[(batch_count + d) % gen.spec.caps.len()]))
                    .collect();
                gen.batch(&members)
            }
            Class::Reregister => unreachable!("ledger-small never re-registers"),
        };
        log.push(op);
    }
    log
}

/// Round-based workloads: re-register one dataset (alternating), run one
/// cold 8-member same-cap `good_radius` batch on the new version, then warm
/// `good_radius` singles alternating between the new version and the other
/// dataset.
///
/// No workload sends `one_cluster` or `k_cluster`: their released values
/// are not reproducible (README, "Defects this benchmark shows"), so they
/// fail the traced run's bit-identity check at random.
fn round_log(gen: &mut Gen, rounds: usize) -> Vec<Op> {
    let mut log = Vec::new();
    for round in 0..rounds {
        let d = round % gen.spec.datasets;
        let other = (d + 1) % gen.spec.datasets;
        let t = gen.spec.caps[0];
        log.push(gen.registration(d, false));
        log.push(gen.batch(&[(d, t); BATCH_MEMBERS]));
        for i in 0..gen.spec.round_singles {
            let target = if i % 2 == 0 { d } else { other };
            log.push(gen.single(target, t));
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_log_and_other_seed_other_log() {
        for workload in Workload::ALL {
            let a = generate(workload, 7, 1).log_bytes();
            let b = generate(workload, 7, 1).log_bytes();
            let c = generate(workload, 8, 1).log_bytes();
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn off_grid_points_have_distinct_pairwise_distances() {
        let inputs = generate(Workload::ExactCold, 3, 1);
        for op in inputs.registers.iter().chain(inputs.timed_ops()) {
            if op.class != Class::Reregister {
                continue;
            }
            let p = &op.rows;
            let mut d: Vec<u64> = Vec::with_capacity(p.len() * p.len() / 2);
            for i in 0..p.len() {
                for j in i + 1..p.len() {
                    let (dx, dy) = (p[i][0] - p[j][0], p[i][1] - p[j][1]);
                    d.push((dx * dx + dy * dy).sqrt().to_bits());
                }
            }
            let total = d.len();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), total, "repeated pairwise distance");
        }
    }

    #[test]
    fn rows_are_sorted_by_x_then_y() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 4, 1);
            for op in inputs.registers.iter().chain(inputs.timed_ops()) {
                assert!(
                    op.rows.windows(2).all(|w| w[0] <= w[1]),
                    "{}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn on_grid_points_sit_on_the_grid() {
        let inputs = generate(Workload::LedgerSmall, 3, 1);
        for op in &inputs.registers {
            for p in &op.rows {
                assert_eq!(snap(*p), *p);
            }
        }
    }

    #[test]
    fn replays_copy_an_earlier_fresh_single_of_their_connection() {
        let inputs = generate(Workload::LedgerSmall, 5, 2);
        for log in &inputs.conns {
            for (i, op) in log.iter().enumerate() {
                if let Some(original) = op.replay_of {
                    assert!(original < i);
                    assert_eq!(log[original].class, Class::Query);
                    assert_eq!(log[original].line, op.line);
                }
            }
        }
    }

    /// The single-query classes pooled by `query_p50_ms`/`query_p90_ms`,
    /// fastest first. Measured on a 2-vCPU host: a replay is a cache read
    /// (~0.1 ms) against ~0.8 ms for a charged query. The round-based
    /// workloads send fresh singles only.
    fn latency_order(workload: Workload) -> Vec<Class> {
        match workload {
            Workload::LedgerSmall => vec![Class::Replay, Class::Query],
            _ => vec![Class::Query],
        }
    }

    #[test]
    fn class_shares_keep_p50_and_p90_off_class_boundaries() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 9, 10);
            let singles: Vec<Class> = inputs
                .timed_ops()
                .map(|op| op.class)
                .filter(|c| matches!(c, Class::Query | Class::Replay))
                .collect();
            let order = latency_order(workload);
            assert!(singles.iter().all(|c| order.contains(c)));
            let mut boundary = 0.0;
            for class in &order[..order.len() - 1] {
                let count = singles.iter().filter(|c| *c == class).count();
                boundary += 100.0 * count as f64 / singles.len() as f64;
                for p in [50.0, 90.0] {
                    assert!(
                        (p - boundary).abs() >= 10.0,
                        "{}: p{p} is {:.1} points from the boundary after {class:?}",
                        workload.name(),
                        (p - boundary).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn query_seeds_are_unique_within_a_run() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 11, 2);
            let mut seeds: Vec<u64> = inputs
                .warmup
                .iter()
                .chain(inputs.timed_ops())
                .flat_map(|op| op.members.iter().map(|m| m.seed))
                .collect();
            let total = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), total);
            assert!(
                seeds.iter().all(|&s| s < 1 << 53),
                "seeds must be exact in JSON"
            );
        }
    }
}
