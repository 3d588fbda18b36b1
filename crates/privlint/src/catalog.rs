//! The rule catalog: one entry per rule, documenting the invariant it
//! enforces, the previously-fixed bug that motivates it, and how to satisfy
//! it. `privlint explain <rule>` prints these verbatim; the README's rule
//! table is generated from the same text, so the tool and the docs cannot
//! drift apart.

/// Everything there is to know about one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case identifier (used in waivers and reports).
    pub id: &'static str,
    /// One-line summary for tables.
    pub summary: &'static str,
    /// Where the rule looks.
    pub scope: &'static str,
    /// The bug class it encodes, and the PR that fixed it by hand once.
    pub motivation: &'static str,
    /// How to bring a flagged site into compliance.
    pub fix: &'static str,
}

/// The full catalog, in the order rules run.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "raw-distance-compare",
        summary: "raw `<`/`<=` against a radius-named value instead of `geometry::tol`",
        scope: "library code of crates/geometry and crates/core, excluding tol.rs",
        motivation: "PR 3 found three silently inconsistent distance tolerances \
(the ball count's `r*(1+1e-12)+1e-15`, a 4-ulp breakpoint dedup, and `l_profile`'s \
group merge), so a pair of distances could survive dedup as two breakpoints and \
still be merged by the profile sweep — `LProfile::value_at` disagreed with the \
direct `l_value` near ties. Every distance comparison now routes through \
`geometry::tol`; a fresh raw comparison against a radius re-opens that split-brain.",
        fix: "Compare through `tol::within_radius`, `tol::within_radius_sq`, \
`tol::same_distance`, or the ball helper `tol::ball_contains_ball`. If the \
comparison is genuinely not a membership predicate (e.g. ordering two \
candidate radii), waive it with a reason.",
    },
    RuleInfo {
        id: "lock-unwrap",
        summary: "`.lock()/.read()/.write()` followed by `.unwrap()`/`.expect()` on a poisoning guard",
        scope: "library code of crates/engine, crates/geometry, crates/store and \
crates/server, outside the `lock_recover`/`read_recover`/`write_recover` helpers \
themselves",
        motivation: "PR 4's poisoned-lock kill: a panic inside one query's plan \
execution poisoned the engine's `pending`/`cache` mutexes, and every later query \
died in `.expect(\"lock poisoned\")` — one data-dependent panic turned into a \
permanently dead service. The engine's shared structures are never left \
mid-mutation by a payload panic, so recovering the guard is always sound there.",
        fix: "Route through `privcluster_geometry::sync::lock_recover` (or \
`read_recover`/`write_recover` for `RwLock`, or `.unwrap_or_else(PoisonError::into_inner)` \
in a crate without the geometry dependency), which recovers the data from a \
poisoned guard instead of propagating the panic. Where a panicked holder can \
leave the guarded state inconsistent with durable state (the store's state \
lock: a frame written but not yet applied), panicking is the safe choice — \
waive the site with that reason.",
    },
    RuleInfo {
        id: "entropy-source",
        summary: "ambient nondeterminism: `thread_rng`, `from_entropy`, `SystemTime::now`, `Instant::now`",
        scope: "library code of every crate except the bench harness (crates/bench), \
benches and tests",
        motivation: "PR 5's crash-recovery contract requires journal replay to be \
bit-identical: recovered registries, ledgers and replay caches are diffed \
bit-for-bit against an uninterrupted run. Any wall-clock read or OS-entropy draw \
on a code path that feeds released values, cache keys or journal records breaks \
replay in a way no test can pin down deterministically.",
        fix: "Derive all randomness from the vendored seed-deterministic `StdRng` \
with an explicit seed, and keep wall-clock reads out of library code. Timing \
that is genuinely diagnostics-only (e.g. Table-1 runtime columns) may be \
waived with a reason saying where the value flows.",
    },
    RuleInfo {
        id: "unsalted-rng",
        summary: "`seed_from_u64` in mechanism code whose seed expression has no salt constant",
        scope: "library code of crates/engine, crates/core, crates/dp, crates/baselines and crates/agg",
        motivation: "PR 2's composition fix: the baseline arms drew their released \
count noise from the *same* stream position as the solver's own draws, so the two \
releases were correlated and basic composition's independence assumption did not \
hold. The fix salts the second stream (`seed ^ COUNT_STREAM_SALT`). Any new \
mechanism that re-seeds from a shared seed without a salt re-creates the \
correlation.",
        fix: "XOR the incoming seed with a dedicated `*_SALT` constant per logical \
stream (`StdRng::seed_from_u64(seed ^ MY_STREAM_SALT)`). The single base stream \
a query hands to its primary mechanism is legitimate — waive it with a reason \
naming it as the base stream.",
    },
    RuleInfo {
        id: "float-ord-unwrap",
        summary: "`partial_cmp(…).unwrap()`/`.expect()` on floating-point keys",
        scope: "library code of every crate",
        motivation: "A NaN reaching a `sort_by(|a, b| a.partial_cmp(b).unwrap())` \
panics the worker mid-query; before PR 4's containment sweep such a panic \
poisoned the engine's locks and killed the service. `f64::total_cmp` is total, \
panic-free, and bit-identical to `partial_cmp` on every finite, \
consistently-signed input this workspace sorts.",
        fix: "Use `f64::total_cmp` for f64 sort keys. Where NaN is provably \
unreachable and the partial comparison is load-bearing for some other reason, \
waive with the proof sketch as the reason.",
    },
    RuleInfo {
        id: "wire-int-cast",
        summary: "`as u64`/`as i64` cast in the wire layer outside the checked 2^53-bound helpers",
        scope: "crates/engine/src/protocol.rs and crates/engine/src/query.rs",
        motivation: "PR 2's hardening sweep: the JSON layer carries numbers as f64, \
and integers at or above 2^53 collapse onto their neighbours (2^53 + 1 parses \
equal to 2^53) — a raw `as u64` on a wire number silently runs a different seed \
and collides cache keys relative to what the client sent. `wire::req_u64` \
rejects the inexact range before casting.",
        fix: "Parse wire integers through `wire::req_u64`/`wire::req_usize`, which \
reject values outside [0, 2^53). Never cast a wire-layer f64 directly.",
    },
    RuleInfo {
        id: "event-payload-leak",
        summary: "a payload-named identifier (`data`/`coords`/`point`/`radius`/`value`) at an `event!`/`annotate` telemetry site",
        scope: "library code of every crate, inside `event!(…)` and `.annotate(…)` call windows",
        motivation: "PR 7's telemetry privacy contract (crates/obs, \"The \
no-payload-data contract\"): the observability layer exports timings, counts, \
sequence numbers, fingerprints, and (ε, δ) aggregates — never coordinates, \
radii, or released values. One event field that captures a payload value turns \
the metrics endpoint and the events log into an unbudgeted side channel that \
bypasses the accountant entirely. Field names are the auditable surface, so a \
payload-named identifier at a telemetry site is treated as a leak until proven \
(and waived) otherwise.",
        fix: "Export an aggregate instead of the value itself — a count, an \
elapsed-seconds reading, or a fingerprint. Identifier segments are matched \
exactly after splitting on `_`: `dataset` and `points` are fine, `data` and \
`point_coords` are not. If a flagged identifier provably carries no payload \
(e.g. it counts radius buckets rather than holding a radius), waive with that \
proof as the reason.",
    },
    RuleInfo {
        id: "lock-order",
        summary: "a lock-acquisition cycle, self-reacquisition, or inversion of the declared \
`lockorder.toml` order, across one level of intra-workspace calls",
        scope: "library code of every crate; acquisitions are `geometry::sync` \
`lock_recover`/`read_recover`/`write_recover` calls and bare `.lock()` on a path receiver",
        motivation: "The engine holds multiple guards at once on its hot path \
(registration serial → pending → cache → accountant → journal), and ROADMAP \
item 2 (sharded admission) will multiply the lock surface. Two functions that \
acquire the same pair of locks in opposite orders deadlock only under \
contention — the kind of bug that passes every single-threaded test and kills \
the service in production. The analysis builds the workspace lock graph \
(guard lifetimes modelled lexically, one level of call resolution, \
guard-returning helpers like `DatasetEntry::accountant` counted at their call \
sites) and reports any cycle with both witness paths, plus any edge that \
inverts the order declared in `lockorder.toml`.",
        fix: "Acquire locks in the declared global order (see `lockorder.toml` \
at the workspace root: registration_serial before pending before cache before \
accountant before the store's journal mutex). Release the outer guard (end \
its scope or `drop` it) before taking a lock that precedes it in the order. \
If two locks are provably never held concurrently despite the lexical \
overlap, waive the witness site with that proof as the reason.",
    },
    RuleInfo {
        id: "charge-release-paths",
        summary: "a control path that journals a release before its charge, flips the registry \
before the reregister append, or refunds spend after a journaled charge",
        scope: "library code of crates/engine, per-function over the branch tree \
(`if`/`else` chains and `match` arms)",
        motivation: "The hard-refusal ledger's write-ahead contract (PR 5, \
extended by the versioned-registration PR): once a charge record is appended \
and fsynced, the spend must stand on every exit path — released, cached, or \
errored. The analysis enumerates the function's control paths, so a release \
reachable before the charge through an early branch, or a refund-shaped call \
reachable after the charge, is caught even when the lexical order looks right. A \
refunded charge is a privacy violation (budget restored for a value that may \
have been observed), not an availability gap.",
        fix: "Journal the charge before any path can release or cache the \
result, and never refund a journaled charge — on failure after the append, \
leave the spend standing and return the error. Replay-only code paths that \
re-apply records without writing may be waived with a reason saying why no \
journal write happens.",
    },
    RuleInfo {
        id: "wire-field-coverage",
        summary: "a wire field read via untyped `req`/`get` that never reaches a validation call",
        scope: "crates/engine/src/protocol.rs and crates/engine/src/query.rs",
        motivation: "Every request field crosses the trust boundary exactly once, \
in the decode layer, and PR 2's hardening (range-checked `wire::req_*` \
helpers, the 2^53 integer bound) only protects fields that actually route \
through a validator. A field plucked with the untyped accessors and handed \
straight to the planner re-opens the unvalidated-input path: NaN epsilons, \
negative radii, or integer-collapsing f64s reach the accountant as if they \
had been checked. This analysis proves the complement: every literal-named \
`req`/`get` read is wrapped in a `parse*` call, narrowed with `.as_*()`, \
pattern-matched, or let-bound into a typed `req_*`/`opt_*` helper.",
        fix: "Route the field through a typed `wire::req_*`/`opt_*` helper or a \
`parse*` function, or destructure it with a `match`/`.as_*()` narrowing \
before use. If a field is intentionally passed through opaquely (e.g. echoed \
back verbatim), waive the read with that reason.",
    },
    RuleInfo {
        id: "unused-pub",
        summary: "a `pub fn` in a mechanism or service crate that no production code names",
        scope: "library code of crates/dp, core, geometry, baselines, agg, engine, server, \
store, obs, datagen and lowerbound (outside `src/bin/`), against every identifier named by \
the workspace's non-test code and by nested workspaces' sources; trait items are exempt",
        motivation: "The service exists to run the paper's mechanisms, and a public \
surface that only tests call is code to read, document and keep correct for no served \
query. A name scan before this rule found 61 of 544 `pub fn`s in these crates named \
only by tests, comments or re-exports — split and composition helpers, vector samplers, \
diagnostic getters — about 590 lines with their docs, kept alive by nothing but their \
own unit tests. Names are matched by identifier, so a dead method whose name collides \
with a live one is missed; the rule is a floor, not a proof.",
        fix: "Delete the function (and any unit test that checks only it), make it \
private or `#[cfg(test)]`, or move it into the tests that use it. Callers count from \
`src/bin/`, examples, benches, the experiment binaries and nested workspaces such as the \
benchmark harness; `#[cfg(test)]` code, `tests/`, comments, doctests and `pub use` \
re-exports do not. Waive only a reference that other crates' tests compare against, or \
surface the facade's tests pin, with that reason.",
    },
    RuleInfo {
        id: "malformed-waiver",
        summary: "a `privlint::allow` comment that is unparseable, reasonless, or names an unknown rule",
        scope: "every scanned file",
        motivation: "A waiver without a written reason is an unreviewable \
suppression, and a typo'd rule name would silently suppress nothing forever. \
Both defeat the point of the audit trail, so they are findings themselves — \
and cannot be waived.",
        fix: "Write `// privlint::allow(<rule>): <reason>` with a real rule id \
and a non-empty reason.",
    },
];

/// Looks a rule up by id.
pub fn find(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Levenshtein distance, for unknown-rule suggestions. Catalog ids are
/// short, so the O(n·m) two-row form is plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest catalog id to a mistyped rule name, when it is close enough
/// to plausibly be a typo (distance at most half the query's length).
pub fn suggest(unknown: &str) -> Option<&'static str> {
    RULES
        .iter()
        .map(|r| (edit_distance(unknown, r.id), r.id))
        .min()
        .filter(|(d, _)| *d <= unknown.len().div_ceil(2))
        .map(|(_, id)| id)
}

/// The full explain text for one rule, as printed by `privlint explain`.
pub fn explain(info: &RuleInfo) -> String {
    format!(
        "rule: {id}\nsummary: {summary}\nscope: {scope}\n\nwhy this rule exists:\n{motivation}\n\nhow to comply:\n{fix}\n\nto waive a specific site (reason mandatory):\n    [code] // privlint::allow({id}): <reason>\n",
        id = info.id,
        summary = info.summary,
        scope = info.scope,
        motivation = info.motivation,
        fix = info.fix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_complete_and_unique() {
        assert!(
            RULES.len() >= 11,
            "eleven enforced rule classes since `journal-order` folded into `charge-release-paths`"
        );
        let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len(), "rule ids must be unique");
        for r in RULES {
            assert!(!r.motivation.is_empty() && !r.fix.is_empty());
        }
        assert!(find("lock-unwrap").is_some());
        assert!(find("no-such").is_none());
        assert!(explain(find("charge-release-paths").unwrap()).contains("fsync"));
    }

    #[test]
    fn suggestions_catch_typos_but_not_noise() {
        assert_eq!(suggest("lock-unwarp"), Some("lock-unwrap"));
        assert_eq!(suggest("lock-ordr"), Some("lock-order"));
        assert_eq!(suggest("charge-release-path"), Some("charge-release-paths"));
        assert_eq!(suggest("wire-feild-coverage"), Some("wire-field-coverage"));
        assert_eq!(suggest("zzzz"), None);
    }
}
