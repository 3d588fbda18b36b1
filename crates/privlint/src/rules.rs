//! The rule engine: eight token-level checks, each encoding a bug class
//! that was found and fixed by hand once (see [`crate::catalog`] for the
//! history). Rules run over the significant-token stream of one file at a
//! time; scoping (crate, test region, file name) is decided here so a rule
//! can never fire where its invariant does not apply.

use crate::lexer::TokKind;
use crate::scope::{
    cfg_test_line_ranges, enclosing_fn, fn_bodies, in_ranges, FileScope, SigTokens,
};

/// One rule violation, before waiver matching.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (matches [`crate::catalog::RuleInfo::id`]).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Site-specific message.
    pub message: String,
}

fn crate_in(scope: &FileScope, names: &[&str]) -> bool {
    scope
        .crate_name
        .as_deref()
        .is_some_and(|c| names.contains(&c))
}

/// Runs every rule applicable to this file and returns raw findings.
pub fn run_rules(scope: &FileScope, sig: &SigTokens<'_>) -> Vec<Finding> {
    if !scope.is_library_code() {
        return Vec::new();
    }
    let test_ranges = cfg_test_line_ranges(sig);
    let mut findings = Vec::new();
    let lib = |line: u32| !in_ranges(&test_ranges, line);

    raw_distance_compare(scope, sig, &lib, &mut findings);
    lock_unwrap(scope, sig, &lib, &mut findings);
    entropy_source(scope, sig, &lib, &mut findings);
    unsalted_rng(scope, sig, &lib, &mut findings);
    float_ord_unwrap(scope, sig, &lib, &mut findings);
    wire_int_cast(scope, sig, &lib, &mut findings);
    event_payload_leak(scope, sig, &lib, &mut findings);
    crate::analyses::charge_release_paths(scope, sig, &lib, &mut findings);
    crate::analyses::wire_field_coverage(scope, sig, &lib, &mut findings);
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    sig: &SigTokens<'_>,
    i: usize,
    message: String,
) {
    let t = sig.tok(i);
    findings.push(Finding {
        rule,
        line: t.line,
        col: t.col,
        message,
    });
}

/// `raw-distance-compare` — a `<`/`<=` whose right-hand side mentions a
/// radius-named value, in geometry/core library code outside `tol.rs`.
/// The RHS window ends at the first expression delimiter; eight tokens is
/// plenty for any comparison that should have been a `tol::` call.
fn raw_distance_compare(
    scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !crate_in(scope, &["geometry", "core"]) || scope.file_name == "tol.rs" {
        return;
    }
    for i in 0..sig.len() {
        if !(sig.is_punct(i, "<") || sig.is_punct(i, "<=")) || !lib(sig.tok(i).line) {
            continue;
        }
        // A `<` opening a generic-argument list follows a type name
        // (uppercase-initial identifier) or a path separator — those are
        // never value comparisons.
        if sig.is_punct(i, "<")
            && i > 0
            && (sig.is_punct(i - 1, "::")
                || sig.ident_matches(i - 1, |t| t.starts_with(char::is_uppercase)))
        {
            continue;
        }
        for j in (i + 1)..sig.len().min(i + 9) {
            if sig.tok(j).kind == TokKind::Punct
                && matches!(sig.text(j), ";" | "," | "{" | "}" | "==" | "&&" | "||")
            {
                break;
            }
            // Only snake_case value names count — `GoodRadiusOutcome` in a
            // generic list is a type, not a radius being compared.
            if sig.ident_matches(j, |t| {
                t.contains("radius") && !t.chars().any(char::is_uppercase)
            }) {
                push(
                    findings,
                    "raw-distance-compare",
                    sig,
                    i,
                    format!(
                        "raw `{}` comparison against `{}` — distance/radius predicates must route through `geometry::tol`",
                        sig.text(i),
                        sig.text(j)
                    ),
                );
                break;
            }
        }
    }
}

/// `lock-unwrap` — `.lock()`, `.read()` or `.write()` (no arguments, i.e. a
/// poisoning guard acquisition) immediately unwrapped or expected.
fn lock_unwrap(
    scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !crate_in(scope, &["engine", "geometry", "store", "server"]) {
        return;
    }
    let bodies = fn_bodies(sig);
    for i in 0..sig.len() {
        let hit = sig.is_punct(i, ".")
            && sig.ident_matches(i + 1, |t| matches!(t, "lock" | "read" | "write"))
            && sig.is_punct(i + 2, "(")
            && sig.is_punct(i + 3, ")")
            && sig.is_punct(i + 4, ".")
            && sig.ident_matches(i + 5, |t| matches!(t, "unwrap" | "expect"));
        if !hit || !lib(sig.tok(i).line) {
            continue;
        }
        if enclosing_fn(&bodies, i).is_some_and(|b| {
            matches!(
                b.name.as_str(),
                "lock_recover" | "read_recover" | "write_recover"
            )
        }) {
            continue; // the recovery helpers are the one sanctioned caller
        }
        push(
            findings,
            "lock-unwrap",
            sig,
            i + 5,
            format!(
                "`.{}().{}(…)` dies on a poisoned guard — use `privcluster_geometry::sync::{}_recover`",
                sig.text(i + 1),
                sig.text(i + 5),
                sig.text(i + 1),
            ),
        );
    }
}

/// `entropy-source` — ambient nondeterminism in library code.
fn entropy_source(
    scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if scope.crate_name.as_deref() == Some("bench") {
        return;
    }
    for i in 0..sig.len() {
        if !lib(sig.tok(i).line) {
            continue;
        }
        if sig.ident_matches(i, |t| matches!(t, "thread_rng" | "from_entropy")) {
            push(
                findings,
                "entropy-source",
                sig,
                i,
                format!(
                    "`{}` draws OS entropy — all randomness must come from the seed-deterministic `StdRng`",
                    sig.text(i)
                ),
            );
        }
        if sig.ident_matches(i, |t| matches!(t, "SystemTime" | "Instant"))
            && sig.is_punct(i + 1, "::")
            && sig.is_ident(i + 2, "now")
        {
            push(
                findings,
                "entropy-source",
                sig,
                i,
                format!(
                    "`{}::now()` reads the wall clock — replay/journal code must be deterministic",
                    sig.text(i)
                ),
            );
        }
    }
}

/// `unsalted-rng` — `seed_from_u64(expr)` in mechanism code where `expr`
/// contains no `*SALT*` constant (and is not a bare literal, which cannot
/// collide with another stream derived from the same runtime seed).
fn unsalted_rng(
    scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !crate_in(scope, &["engine", "core", "dp", "baselines", "agg"]) {
        return;
    }
    for i in 0..sig.len() {
        if !sig.is_ident(i, "seed_from_u64") || !sig.is_punct(i + 1, "(") || !lib(sig.tok(i).line) {
            continue;
        }
        let Some(close) = sig.matching_close(i + 1, "(", ")") else {
            continue;
        };
        let args = (i + 2)..close;
        let salted = args
            .clone()
            .any(|j| sig.ident_matches(j, |t| t.contains("SALT")));
        let literal_only = args.clone().all(|j| sig.tok(j).kind == TokKind::Number);
        if !salted && !literal_only && !args.is_empty() {
            push(
                findings,
                "unsalted-rng",
                sig,
                i,
                "`seed_from_u64` without a salt constant — a second stream from the same seed \
correlates mechanism draws (compose with `seed ^ SOME_STREAM_SALT`)"
                    .to_string(),
            );
        }
    }
}

/// `float-ord-unwrap` — `partial_cmp(…).unwrap()`/`.expect(…)`.
fn float_ord_unwrap(
    _scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..sig.len() {
        if !sig.is_ident(i, "partial_cmp") || !sig.is_punct(i + 1, "(") || !lib(sig.tok(i).line) {
            continue;
        }
        let Some(close) = sig.matching_close(i + 1, "(", ")") else {
            continue;
        };
        if sig.is_punct(close + 1, ".")
            && sig.ident_matches(close + 2, |t| matches!(t, "unwrap" | "expect"))
        {
            push(
                findings,
                "float-ord-unwrap",
                sig,
                close + 2,
                "`partial_cmp(…).unwrap()` panics on NaN — use `f64::total_cmp` for float sort keys"
                    .to_string(),
            );
        }
    }
}

/// `wire-int-cast` — `as u64`/`as i64` in the wire layer files; the checked
/// helpers live in `wire.rs`, which is outside this rule's file list.
fn wire_int_cast(
    scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if scope.crate_name.as_deref() != Some("engine")
        || !matches!(scope.file_name.as_str(), "protocol.rs" | "query.rs")
    {
        return;
    }
    for i in 0..sig.len() {
        if sig.is_ident(i, "as")
            && sig.ident_matches(i + 1, |t| matches!(t, "u64" | "i64"))
            && lib(sig.tok(i).line)
        {
            push(
                findings,
                "wire-int-cast",
                sig,
                i,
                format!(
                    "raw `as {}` in the wire layer — integers above 2^53 collapse in the f64 JSON \
layer; parse through `wire::req_u64`",
                    sig.text(i + 1)
                ),
            );
        }
    }
}

/// `event-payload-leak` — a payload-named identifier inside a telemetry
/// `event!(…)` or `.annotate(…)` call site. The telemetry privacy contract
/// (crates/obs, "The no-payload-data contract") allows timings, counts, seq
/// numbers, fingerprints, and `(ε, δ)` aggregates through the event stream
/// — never coordinates, radii, or released values. Identifier segments are
/// matched exactly after splitting on `_`, so `dataset` and `points` stay
/// clean while `data`, `point_coords` and `released_value` are flagged.
fn event_payload_leak(
    _scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    const PAYLOAD: &[&str] = &["data", "coords", "point", "radius", "value"];
    for i in 0..sig.len() {
        let (open, site) =
            if sig.is_ident(i, "event") && sig.is_punct(i + 1, "!") && sig.is_punct(i + 2, "(") {
                (i + 2, "`event!`")
            } else if sig.is_punct(i, ".")
                && sig.is_ident(i + 1, "annotate")
                && sig.is_punct(i + 2, "(")
            {
                (i + 2, "`Span::annotate`")
            } else {
                continue;
            };
        if !lib(sig.tok(i).line) {
            continue;
        }
        let Some(close) = sig.matching_close(open, "(", ")") else {
            continue;
        };
        for j in (open + 1)..close {
            if sig.ident_matches(j, |t| t.split('_').any(|seg| PAYLOAD.contains(&seg))) {
                push(
                    findings,
                    "event-payload-leak",
                    sig,
                    j,
                    format!(
                        "`{}` names payload data inside a {site} site — telemetry may carry \
timings, counts, seq numbers, fingerprints, and (ε, δ) aggregates only",
                        sig.text(j),
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(rel_path: &str, src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let sig = SigTokens::new(src, &toks);
        run_rules(&FileScope::classify(rel_path), &sig)
    }

    #[test]
    fn rules_skip_test_files_and_cfg_test_regions() {
        let src = "fn f() { x.lock().unwrap(); }";
        assert_eq!(check("crates/engine/tests/t.rs", src).len(), 0);
        let in_test_mod = "#[cfg(test)]\nmod tests {\n    fn f() { x.lock().unwrap(); }\n}\n";
        assert_eq!(check("crates/engine/src/a.rs", in_test_mod).len(), 0);
        assert_eq!(check("crates/engine/src/a.rs", src).len(), 1);
    }

    #[test]
    fn lock_recover_itself_is_exempt() {
        let src = "fn lock_recover() { m.lock().unwrap_or_else(|p| p.into_inner()); }\n\
                   fn other() { m.lock().expect(\"poisoned\"); }";
        let f = check("crates/geometry/src/sync.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-unwrap");
    }

    #[test]
    fn literal_seeds_do_not_trip_unsalted_rng() {
        let lit = "fn f() { let r = StdRng::seed_from_u64(42); }";
        assert_eq!(check("crates/dp/src/a.rs", lit).len(), 0);
        let unsalted = "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); }";
        assert_eq!(check("crates/dp/src/a.rs", unsalted).len(), 1);
        let salted = "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed ^ COUNT_STREAM_SALT); }";
        assert_eq!(check("crates/dp/src/a.rs", salted).len(), 0);
        // out of mechanism scope
        assert_eq!(check("crates/datagen/src/a.rs", unsalted).len(), 0);
    }

    #[test]
    fn event_payload_leak_matches_exact_segments_only() {
        let hit =
            "fn f(ev: &EventStream, r: f64) { event!(ev, Severity::Info, \"q\", radius = r); }";
        let f = check("crates/engine/src/a.rs", hit);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "event-payload-leak");
        // `dataset`/`points` contain banned words only as substrings, not
        // as whole `_`-separated segments — the aggregate names stay legal.
        let clean = "fn f(ev: &EventStream) { event!(ev, Severity::Info, \"q\", dataset = name, points = n); }";
        assert_eq!(check("crates/engine/src/a.rs", clean).len(), 0);
        // One finding per offending identifier, even with several banned
        // segments inside it; annotate sites are covered too.
        let annotate = "fn f(s: &mut Span) { s.annotate(\"k\", point_coords.len()); }";
        let f = check("crates/obs/src/a.rs", annotate);
        assert_eq!(f.len(), 1);
        // Payload-named identifiers *outside* a telemetry site are not this
        // rule's business.
        let outside = "fn f(radius: f64) -> f64 { radius * 2.0 }";
        assert_eq!(check("crates/engine/src/a.rs", outside).len(), 0);
    }
}
