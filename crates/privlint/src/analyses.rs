//! The syntax-aware analyses: `lock-order` (a workspace-wide
//! lock-acquisition graph with cycle and declared-order checking),
//! `charge-release-paths` (per-function dataflow over journal append
//! events), `wire-field-coverage` (every wire field read must reach a
//! validation call), and `unused-pub` (every `pub fn` of a mechanism or
//! service crate must be named by production code somewhere in the
//! workspace). The first three run on the function tree from
//! [`crate::syntax`], the last on the significant-token stream; none of
//! them parses full Rust.

use crate::lexer::TokKind;
use crate::rules::Finding;
use crate::scope::{FileScope, SigTokens};
use crate::syntax::{self, Call, FnNode};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// The declared global acquisition order, outermost first, from the
/// checked-in `lockorder.toml`.
#[derive(Debug, Clone, Default)]
pub struct LockOrderConfig {
    /// Lock classes, outermost first. Classes not listed are checked for
    /// cycles only, never for inversions.
    pub order: Vec<String>,
}

impl LockOrderConfig {
    /// An empty order: cycle detection only.
    pub fn empty() -> LockOrderConfig {
        LockOrderConfig::default()
    }

    /// Parses the minimal `lockorder.toml` dialect: comments (`#…`),
    /// and one `order = [ "a", "b", … ]` array (multi-line allowed).
    /// Hand-rolled because the workspace vendors no toml crate.
    pub fn parse_toml(text: &str) -> Result<LockOrderConfig, String> {
        let stripped: String = text
            .lines()
            .map(|l| l.split('#').next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n");
        // The `order` key must start a line (comments already stripped), so
        // a key like `noorder` cannot match.
        let mut rest = None;
        let mut offset = 0usize;
        for line in stripped.lines() {
            let trimmed = line.trim_start();
            if let Some(after) = trimmed.strip_prefix("order") {
                if after.trim_start().starts_with('=') {
                    let key_at = offset + (line.len() - trimmed.len());
                    rest = Some(stripped[key_at + "order".len()..].trim_start());
                    break;
                }
            }
            offset += line.len() + 1;
        }
        let Some(rest) = rest else {
            return Err("lockorder.toml: missing `order = [...]`".to_string());
        };
        let rest = rest
            .strip_prefix('=')
            .ok_or("lockorder.toml: `order` must be assigned with `=`")?
            .trim_start();
        let rest = rest
            .strip_prefix('[')
            .ok_or("lockorder.toml: `order` must be an array")?;
        let close = rest
            .find(']')
            .ok_or("lockorder.toml: unterminated `order` array")?;
        let mut order = Vec::new();
        for item in rest[..close].split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let name = item
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("lockorder.toml: `{item}` is not a quoted class name"))?;
            if name.is_empty() {
                return Err("lockorder.toml: empty class name".to_string());
            }
            order.push(name.to_string());
        }
        if order.len() != order.iter().collect::<BTreeSet<_>>().len() {
            return Err("lockorder.toml: duplicate class in `order`".to_string());
        }
        Ok(LockOrderConfig { order })
    }
}

/// How a guard blocks: a `Mutex` self-acquisition always deadlocks; two
/// `read`s of one `RwLock` do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqKind {
    /// `lock_recover` / `.lock()`.
    Mutex,
    /// `read_recover`.
    Read,
    /// `write_recover`.
    Write,
}

/// One lock acquisition with its lexical hold region.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Lock class — the acquisition argument's last path ident.
    pub class: String,
    /// Guard kind.
    pub kind: AcqKind,
    /// Significant-token index of the acquisition.
    pub pos: usize,
    /// Significant-token index (inclusive) where the guard dies.
    pub end: usize,
    /// 1-based source position, for findings.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A call that may resolve to another workspace function's lock effects.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Callee's final name segment.
    pub name: String,
    /// Significant-token index of the callee token.
    pub pos: usize,
    /// Hold region end if this call turns out to return a guard.
    pub hold_end: usize,
    /// 1-based source position.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One function's lock surface.
#[derive(Debug, Clone)]
pub struct FnLocks {
    /// Function name (resolution key).
    pub name: String,
    /// Direct acquisitions, in token order.
    pub acquisitions: Vec<Acq>,
    /// Resolvable calls, in token order.
    pub calls: Vec<CallRef>,
    /// When the function's tail expression is itself an acquisition, the
    /// class it hands to the caller (`DatasetEntry::accountant` style).
    pub returns_guard: Option<(String, AcqKind)>,
}

/// One file's lock surface.
#[derive(Debug, Clone)]
pub struct FileLocks {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Per-function surfaces.
    pub fns: Vec<FnLocks>,
}

/// Method names never resolved to workspace functions: they collide with
/// std-container / duck-typed surfaces (`.get` on a `HashMap` is not
/// `Registry::get`), so resolving them would fabricate edges. The real
/// edges all flow through distinctively named functions.
const AMBIENT_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "len",
    "is_empty",
    "push",
    "pop",
    "pop_front",
    "pop_back",
    "clear",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "contains",
    "contains_key",
    "clone",
    "cloned",
    "collect",
    "map",
    "and_then",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "expect",
    "drop",
    "lock",
    "read",
    "write",
    "wait",
    "snapshot",
    "next",
    "extend",
    "observe",
    "inc",
    "set",
    "new",
    "default",
    "is_some",
    "is_none",
    "as_ref",
    "as_str",
    "to_string",
    "entry",
    "or_insert_with",
    "notify_all",
    "append_pair",
];

const RECOVER_HELPERS: &[&str] = &["lock_recover", "read_recover", "write_recover"];

/// Extracts the lock surface of one file's library code. `lib` filters out
/// `#[cfg(test)]` lines.
pub fn extract_locks(
    scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
) -> FileLocks {
    let mut fns = Vec::new();
    if scope.is_library_code() {
        for node in syntax::fn_tree(sig) {
            if node.name.ends_with("_recover") {
                continue; // the acquisition primitives themselves
            }
            let mut acquisitions = Vec::new();
            let mut calls = Vec::new();
            for call in syntax::calls_in(sig, &node) {
                let t = sig.tok(call.idx);
                if !lib(t.line) {
                    continue;
                }
                if let Some((class, kind)) = direct_acquisition(sig, &call) {
                    let bound = syntax::let_binding_of(sig, &call);
                    let end = syntax::hold_end(sig, &call, bound.as_deref(), node.body_end);
                    acquisitions.push(Acq {
                        class,
                        kind,
                        pos: call.idx,
                        end,
                        line: t.line,
                        col: t.col,
                    });
                } else if !AMBIENT_METHODS.contains(&call.name.as_str()) {
                    let bound = syntax::let_binding_of(sig, &call);
                    let end = syntax::hold_end(sig, &call, bound.as_deref(), node.body_end);
                    calls.push(CallRef {
                        name: call.name.clone(),
                        pos: call.idx,
                        hold_end: end,
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            // Tail-position acquisition → the fn returns the guard.
            let returns_guard = acquisitions
                .iter()
                .find(|a| {
                    // The acquisition expression runs to the body's `}`:
                    // allow only closing braces after its call.
                    sig.is_punct(a.pos + 1, "(")
                        && sig
                            .matching_close(a.pos + 1, "(", ")")
                            .is_some_and(|c| c + 1 == node.body_end)
                })
                .map(|a| (a.class.clone(), a.kind));
            if !acquisitions.is_empty() || !calls.is_empty() {
                fns.push(FnLocks {
                    name: node.name.clone(),
                    acquisitions,
                    calls,
                    returns_guard,
                });
            }
        }
    }
    FileLocks {
        rel_path: scope.rel_path.clone(),
        fns,
    }
}

/// Classifies a call as a direct acquisition: a `*_recover(path)` helper
/// call, or a bare `.lock()` on a simple path receiver (the engine's
/// `registration_serial` uses a raw `Mutex` with explicit poison recovery).
fn direct_acquisition(sig: &SigTokens<'_>, call: &Call) -> Option<(String, AcqKind)> {
    if !call.method && RECOVER_HELPERS.contains(&call.name.as_str()) {
        let kind = match call.name.as_str() {
            "read_recover" => AcqKind::Read,
            "write_recover" => AcqKind::Write,
            _ => AcqKind::Mutex,
        };
        return syntax::first_arg_class(sig, call).map(|c| (c, kind));
    }
    if call.method && call.name == "lock" && call.args_close == call.args_open + 1 {
        return call.recv_last.clone().map(|c| (c, AcqKind::Mutex));
    }
    None
}

/// Lock effects a function exposes to its callers, pooled by name across
/// the workspace (one level of resolution — no transitive closure).
#[derive(Debug, Default, Clone)]
struct LockFacts {
    /// Classes acquired and released inside the function.
    internal: Vec<(String, AcqKind)>,
    /// Class whose guard the function returns, if any.
    returns: Option<(String, AcqKind)>,
}

/// A directed edge `outer → inner` with its first witness site.
#[derive(Debug, Clone)]
struct EdgeWitness {
    rel_path: String,
    fn_name: String,
    outer_line: u32,
    inner_line: u32,
    inner_col: u32,
}

/// Runs the global lock-order analysis: builds the acquisition graph from
/// every file's surface, resolves one level of intra-workspace calls, and
/// reports self-deadlocks, cycles (with both witness paths), and
/// inversions of the declared `lockorder.toml` order.
pub fn analyze_locks(files: &[FileLocks], config: &LockOrderConfig) -> Vec<(String, Finding)> {
    // Pool per-name facts across the workspace.
    let mut facts: BTreeMap<&str, LockFacts> = BTreeMap::new();
    for file in files {
        for f in &file.fns {
            let entry = facts.entry(f.name.as_str()).or_default();
            for a in &f.acquisitions {
                let item = (a.class.clone(), a.kind);
                if !entry.internal.contains(&item) {
                    entry.internal.push(item);
                }
            }
            if entry.returns.is_none() {
                entry.returns = f.returns_guard.clone();
            }
        }
    }

    let mut findings: Vec<(String, Finding)> = Vec::new();
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    let record_edge = |edges: &mut BTreeMap<(String, String), EdgeWitness>,
                       outer: &Acq,
                       inner_class: &str,
                       file: &str,
                       fn_name: &str,
                       line: u32,
                       col: u32| {
        edges
            .entry((outer.class.clone(), inner_class.to_string()))
            .or_insert_with(|| EdgeWitness {
                rel_path: file.to_string(),
                fn_name: fn_name.to_string(),
                outer_line: outer.line,
                inner_line: line,
                inner_col: col,
            });
    };

    for file in files {
        for f in &file.fns {
            // The full event list: direct acquisitions, guard-returning
            // calls (become acquisitions at the call site), and transient
            // call effects.
            let mut acqs: Vec<Acq> = f.acquisitions.clone();
            // (call idx, line, col, callee, classes acquired transiently
            // inside the callee).
            type CallEffect = (usize, u32, u32, String, Vec<(String, AcqKind)>);
            let mut effects: Vec<CallEffect> = Vec::new();
            for c in &f.calls {
                if c.name == f.name {
                    // A bare-name match to the enclosing function is either
                    // recursion or a same-named method on another type
                    // (`inner.journal.append` inside `Store::append`); both
                    // would only fabricate self-edges.
                    continue;
                }
                let Some(known) = facts.get(c.name.as_str()) else {
                    continue;
                };
                if let Some((class, kind)) = &known.returns {
                    acqs.push(Acq {
                        class: class.clone(),
                        kind: *kind,
                        pos: c.pos,
                        end: c.hold_end,
                        line: c.line,
                        col: c.col,
                    });
                    // The internal acquisition *is* the returned guard; any
                    // other internals remain transient effects.
                    let residual: Vec<_> = known
                        .internal
                        .iter()
                        .filter(|(cl, _)| cl != class)
                        .cloned()
                        .collect();
                    if !residual.is_empty() {
                        effects.push((c.pos, c.line, c.col, c.name.clone(), residual));
                    }
                } else if !known.internal.is_empty() {
                    effects.push((c.pos, c.line, c.col, c.name.clone(), known.internal.clone()));
                }
            }
            acqs.sort_by_key(|a| a.pos);

            for outer in &acqs {
                for inner in &acqs {
                    if inner.pos <= outer.pos || inner.pos > outer.end {
                        continue;
                    }
                    if inner.class == outer.class {
                        let deadlocks = outer.kind == AcqKind::Mutex
                            || outer.kind == AcqKind::Write
                            || inner.kind == AcqKind::Write;
                        if deadlocks {
                            findings.push((
                                file.rel_path.clone(),
                                Finding {
                                    rule: "lock-order",
                                    line: inner.line,
                                    col: inner.col,
                                    message: format!(
                                        "in `{}`, lock class `{}` is re-acquired while already held \
(first acquired on line {}) — a guaranteed self-deadlock",
                                        f.name, inner.class, outer.line
                                    ),
                                },
                            ));
                        }
                        continue;
                    }
                    record_edge(
                        &mut edges,
                        outer,
                        &inner.class,
                        &file.rel_path,
                        &f.name,
                        inner.line,
                        inner.col,
                    );
                }
                for (pos, line, col, via, classes) in &effects {
                    if *pos <= outer.pos || *pos > outer.end {
                        continue;
                    }
                    for (class, kind) in classes {
                        if class == &outer.class {
                            let deadlocks = outer.kind == AcqKind::Mutex
                                || outer.kind == AcqKind::Write
                                || *kind == AcqKind::Write;
                            if deadlocks {
                                findings.push((
                                    file.rel_path.clone(),
                                    Finding {
                                        rule: "lock-order",
                                        line: *line,
                                        col: *col,
                                        message: format!(
                                            "in `{}`, the call to `{}` re-acquires lock class `{}` \
while it is already held (acquired on line {}) — a guaranteed self-deadlock",
                                            f.name, via, class, outer.line
                                        ),
                                    },
                                ));
                            }
                            continue;
                        }
                        record_edge(
                            &mut edges,
                            outer,
                            class,
                            &file.rel_path,
                            &f.name,
                            *line,
                            *col,
                        );
                    }
                }
            }
        }
    }

    // Cycle detection over the class graph, with path recovery so the
    // finding carries both witness directions.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut reported_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), w) in &edges {
        // A cycle through edge a→b exists iff b reaches a.
        if let Some(back_path) = bfs_path(&adj, b, a) {
            let mut canon: Vec<String> = back_path.iter().map(|s| s.to_string()).collect();
            canon.sort();
            canon.dedup();
            if !reported_cycles.insert(canon) {
                continue;
            }
            let forward = format!(
                "`{a}` → `{b}` in `{}` ({}:{})",
                w.fn_name, w.rel_path, w.inner_line
            );
            let back_desc: Vec<String> = back_path
                .windows(2)
                .filter_map(|pair| {
                    let key = (pair[0].to_string(), pair[1].to_string());
                    edges.get(&key).map(|ew| {
                        format!(
                            "`{}` → `{}` in `{}` ({}:{})",
                            pair[0], pair[1], ew.fn_name, ew.rel_path, ew.inner_line
                        )
                    })
                })
                .collect();
            findings.push((
                w.rel_path.clone(),
                Finding {
                    rule: "lock-order",
                    line: w.inner_line,
                    col: w.inner_col,
                    message: format!(
                        "lock-order cycle — potential deadlock: {forward}; opposing path: {}",
                        back_desc.join(", ")
                    ),
                },
            ));
        }
    }

    // Declared-order inversions.
    let rank: BTreeMap<&str, usize> = config
        .order
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_str(), i))
        .collect();
    for ((a, b), w) in &edges {
        let (Some(ra), Some(rb)) = (rank.get(a.as_str()), rank.get(b.as_str())) else {
            continue;
        };
        if ra > rb {
            findings.push((
                w.rel_path.clone(),
                Finding {
                    rule: "lock-order",
                    line: w.inner_line,
                    col: w.inner_col,
                    message: format!(
                        "in `{}`, `{b}` is acquired while `{a}` is held (line {}), but \
lockorder.toml declares `{b}` before `{a}` — an inversion of the engine's global order",
                        w.fn_name, w.outer_line
                    ),
                },
            ));
        }
    }

    findings
}

/// Shortest path `from → … → to` in the class graph, if any.
fn bfs_path<'g>(
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
    from: &'g str,
    to: &str,
) -> Option<Vec<&'g str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(p) = prev.get(cur) {
                path.push(*p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for next in adj.get(n).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// charge-release-paths
// ---------------------------------------------------------------------------

/// A journal-ordering event inside one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    ChargeAppend,
    ReleaseAppend,
    ReregisterAppend,
    PushVersion,
    Refund,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    kind: EventKind,
    line: u32,
    col: u32,
}

/// A node of the simplified control-flow tree: a leaf event, or a branch
/// whose arms are alternative sequences.
#[derive(Debug)]
enum Node {
    Leaf(Event),
    Branch(Vec<Vec<Node>>),
}

/// Per-function dataflow: on every control path, a release append must not precede the charge
/// append that covers it, `push_version` must not precede the reregister
/// append, and no refund-shaped call may follow a charge append (spend is
/// never refunded — PR-5's write-ahead contract).
pub fn charge_release_paths(
    scope: &FileScope,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !matches!(scope.crate_name.as_deref(), Some("engine") | Some("server")) {
        return;
    }
    for node in syntax::fn_tree(sig) {
        let mut events: BTreeMap<usize, Event> = BTreeMap::new();
        for call in syntax::calls_in(sig, &node) {
            let t = sig.tok(call.idx);
            if !lib(t.line) {
                continue;
            }
            let kind = classify_journal_call(sig, &call);
            if let Some(kind) = kind {
                events.insert(
                    call.idx,
                    Event {
                        kind,
                        line: t.line,
                        col: t.col,
                    },
                );
            }
        }
        let kinds: BTreeSet<EventKind> = events.values().map(|e| e.kind).collect();
        let relevant = (kinds.contains(&EventKind::ReleaseAppend)
            && kinds.contains(&EventKind::ChargeAppend))
            || (kinds.contains(&EventKind::PushVersion)
                && kinds.contains(&EventKind::ReregisterAppend))
            || (kinds.contains(&EventKind::Refund) && kinds.contains(&EventKind::ChargeAppend));
        if !relevant {
            continue;
        }
        let tree = parse_seq(sig, &node, &events, node.body_start + 1, node.body_end);
        let mut paths: Vec<Vec<Event>> = vec![Vec::new()];
        enumerate_paths(&tree, &mut paths);
        let mut seen: BTreeSet<(u32, u32, &'static str)> = BTreeSet::new();
        for path in &paths {
            for (i, e) in path.iter().enumerate() {
                let later = &path[i + 1..];
                let earlier = &path[..i];
                match e.kind {
                    EventKind::ReleaseAppend
                        if later.iter().any(|x| x.kind == EventKind::ChargeAppend)
                            && seen.insert((e.line, e.col, "rel")) =>
                    {
                        findings.push(Finding {
                            rule: "charge-release-paths",
                            line: e.line,
                            col: e.col,
                            message: format!(
                                "in `{}`, a control path journals the release before its charge \
append — the charge must be durable (appended and fsynced) before any result is released",
                                node.name
                            ),
                        });
                    }
                    EventKind::PushVersion
                        if later.iter().any(|x| x.kind == EventKind::ReregisterAppend)
                            && seen.insert((e.line, e.col, "push")) =>
                    {
                        findings.push(Finding {
                            rule: "charge-release-paths",
                            line: e.line,
                            col: e.col,
                            message: format!(
                                "in `{}`, a control path flips the registry (`push_version`) \
before the reregister append — the record must be durable before the new version is visible",
                                node.name
                            ),
                        });
                    }
                    EventKind::Refund
                        if earlier.iter().any(|x| x.kind == EventKind::ChargeAppend)
                            && seen.insert((e.line, e.col, "refund")) =>
                    {
                        findings.push(Finding {
                            rule: "charge-release-paths",
                            line: e.line,
                            col: e.col,
                            message: format!(
                                "in `{}`, a control path refunds budget after the charge was \
journaled — spend must stand on every exit path once the charge append ran (hard-refusal ledger)",
                                node.name
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Classifies a call as a journal-ordering event, if it is one.
fn classify_journal_call(sig: &SigTokens<'_>, call: &Call) -> Option<EventKind> {
    if call.name == "push_version" {
        return Some(EventKind::PushVersion);
    }
    if call
        .name
        .split('_')
        .any(|seg| matches!(seg, "refund" | "rollback" | "uncharge" | "unspend"))
    {
        return Some(EventKind::Refund);
    }
    if call.name.contains("append") {
        let marker = |variant: &str, record: &str| {
            ((call.args_open + 1)..call.args_close).any(|i| {
                sig.is_ident(i, record)
                    || (sig.is_ident(i, "StoreRecord")
                        && sig.is_punct(i + 1, "::")
                        && sig.is_ident(i + 2, variant))
            })
        };
        if marker("Charge", "ChargeRecord") {
            return Some(EventKind::ChargeAppend);
        }
        if marker("Release", "ReleaseRecord") {
            return Some(EventKind::ReleaseAppend);
        }
        if marker("Reregister", "ReregisterRecord") {
            return Some(EventKind::ReregisterAppend);
        }
    }
    None
}

/// Recursive descent over the token stream building the branch tree.
/// `if`/`else` chains and `match` arms become [`Node::Branch`]; loops and
/// plain blocks are walked inline (their events are sequential).
fn parse_seq(
    sig: &SigTokens<'_>,
    node: &FnNode,
    events: &BTreeMap<usize, Event>,
    start: usize,
    end: usize,
) -> Vec<Node> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if !node.owns(i) {
            i += 1;
            continue;
        }
        if let Some(e) = events.get(&i) {
            out.push(Node::Leaf(*e));
            i += 1;
            continue;
        }
        if sig.is_ident(i, "if")
            && !sig.is_ident(i + 1, "let")
            && i > 0
            && sig.is_ident(i - 1, "else")
        {
            // `else if` — handled by the `if` that opened the chain.
            i += 1;
            continue;
        }
        if sig.is_ident(i, "if") {
            let (arms, after) = parse_if_chain(sig, node, events, i, end);
            out.push(Node::Branch(arms));
            i = after;
            continue;
        }
        if sig.is_ident(i, "match") {
            // Scrutinee events are sequential: walk to the `{` normally.
            let mut j = i + 1;
            while j < end && !sig.is_punct(j, "{") {
                if let Some(e) = events.get(&j) {
                    out.push(Node::Leaf(*e));
                }
                if sig.is_punct(j, "(") {
                    // Events inside scrutinee parens are still sequential.
                    let close = sig.matching_close(j, "(", ")").unwrap_or(end);
                    for k in (j + 1)..close.min(end) {
                        if let Some(e) = events.get(&k) {
                            out.push(Node::Leaf(*e));
                        }
                    }
                    j = close + 1;
                    continue;
                }
                j += 1;
            }
            if j >= end {
                break;
            }
            let Some(close) = sig.matching_close(j, "{", "}") else {
                i = j + 1;
                continue;
            };
            out.push(Node::Branch(parse_match_arms(sig, node, events, j, close)));
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Parses `if … { } else if … { } else { }` starting at the `if`; returns
/// the arms (an implicit empty arm when there is no final `else`) and the
/// index after the chain. Condition events are folded into the front of
/// each arm (they run only when that arm is reached).
fn parse_if_chain(
    sig: &SigTokens<'_>,
    node: &FnNode,
    events: &BTreeMap<usize, Event>,
    if_idx: usize,
    end: usize,
) -> (Vec<Vec<Node>>, usize) {
    let mut arms: Vec<Vec<Node>> = Vec::new();
    let mut i = if_idx;
    loop {
        // `i` sits on `if` (or the arm is a bare `else { … }` handled below).
        let mut cond_events: Vec<Node> = Vec::new();
        let mut j = i + 1;
        while j < end && !sig.is_punct(j, "{") {
            if let Some(e) = events.get(&j) {
                cond_events.push(Node::Leaf(*e));
            }
            if sig.is_punct(j, "(") {
                let close = sig.matching_close(j, "(", ")").unwrap_or(end);
                for k in (j + 1)..close.min(end) {
                    if let Some(e) = events.get(&k) {
                        cond_events.push(Node::Leaf(*e));
                    }
                }
                j = close + 1;
                continue;
            }
            j += 1;
        }
        if j >= end {
            return (arms, end);
        }
        let Some(close) = sig.matching_close(j, "{", "}") else {
            return (arms, end);
        };
        let mut arm = cond_events;
        arm.extend(parse_seq(sig, node, events, j + 1, close));
        arms.push(arm);
        if sig.is_ident(close + 1, "else") {
            if sig.is_ident(close + 2, "if") {
                i = close + 2;
                continue;
            }
            // bare `else { … }`
            let Some(ec) = (close + 2 < end)
                .then(|| sig.matching_close(close + 2, "{", "}"))
                .flatten()
            else {
                return (arms, end);
            };
            arms.push(parse_seq(sig, node, events, close + 3, ec));
            return (arms, ec + 1);
        }
        // No final else: the fall-through arm is empty.
        arms.push(Vec::new());
        return (arms, close + 1);
    }
}

/// Splits a `match` body (`open`..`close` braces) into arm expressions at
/// top-level `=>`, each parsed recursively.
fn parse_match_arms(
    sig: &SigTokens<'_>,
    node: &FnNode,
    events: &BTreeMap<usize, Event>,
    open: usize,
    close: usize,
) -> Vec<Vec<Node>> {
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip the pattern to its `=>` at depth 0.
        let mut depth = 0i32;
        let mut arrow = None;
        let mut j = i;
        while j < close {
            if depth == 0 && sig.is_punct(j, "=>") {
                arrow = Some(j);
                break;
            }
            match () {
                _ if sig.is_punct(j, "(") || sig.is_punct(j, "[") || sig.is_punct(j, "{") => {
                    depth += 1
                }
                _ if sig.is_punct(j, ")") || sig.is_punct(j, "]") || sig.is_punct(j, "}") => {
                    depth -= 1
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        // Arm expression: a `{…}` block, or tokens to the next `,` at depth 0.
        let (arm_start, arm_end, next);
        if sig.is_punct(arrow + 1, "{") {
            let bc = sig.matching_close(arrow + 1, "{", "}").unwrap_or(close);
            arm_start = arrow + 2;
            arm_end = bc;
            next = if sig.is_punct(bc + 1, ",") {
                bc + 2
            } else {
                bc + 1
            };
        } else {
            let mut depth = 0i32;
            let mut k = arrow + 1;
            while k < close {
                if depth == 0 && sig.is_punct(k, ",") {
                    break;
                }
                match () {
                    _ if sig.is_punct(k, "(") || sig.is_punct(k, "[") || sig.is_punct(k, "{") => {
                        depth += 1
                    }
                    _ if sig.is_punct(k, ")") || sig.is_punct(k, "]") || sig.is_punct(k, "}") => {
                        depth -= 1
                    }
                    _ => {}
                }
                k += 1;
            }
            arm_start = arrow + 1;
            arm_end = k;
            next = (k + 1).min(close);
        }
        arms.push(parse_seq(sig, node, events, arm_start, arm_end));
        i = next.max(arm_end + 1);
    }
    arms
}

/// Expands the branch tree into explicit event paths, capped so a
/// pathological function cannot blow up the checker (beyond the cap the
/// enumeration is a prefix sample — still sound for what it does check).
const PATH_CAP: usize = 512;

fn enumerate_paths(seq: &[Node], paths: &mut Vec<Vec<Event>>) {
    for node in seq {
        match node {
            Node::Leaf(e) => {
                for p in paths.iter_mut() {
                    p.push(*e);
                }
            }
            Node::Branch(arms) => {
                let mut expanded = Vec::new();
                for arm in arms {
                    let mut arm_paths = paths.clone();
                    enumerate_paths(arm, &mut arm_paths);
                    expanded.extend(arm_paths);
                    if expanded.len() > PATH_CAP {
                        expanded.truncate(PATH_CAP);
                        break;
                    }
                }
                if !expanded.is_empty() {
                    *paths = expanded;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// wire-field-coverage
// ---------------------------------------------------------------------------

/// Every wire field read through the untyped accessors (`req`/`get`) in the
/// request-decoding files must reach a validation call — a typed helper, a
/// `parse*` function, a pattern match, or an `.as_*()` narrowing — before
/// planner hand-off. Reads through the typed helpers (`req_f64`, `req_u64`,
/// …) validate internally and are not flagged.
pub fn wire_field_coverage(
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
    for node in syntax::fn_tree(sig) {
        let calls = syntax::calls_in(sig, &node);
        for call in &calls {
            if call.method || !matches!(call.name.as_str(), "req" | "get") {
                continue;
            }
            let t = sig.tok(call.idx);
            if !lib(t.line) {
                continue;
            }
            let Some(field) = literal_second_arg(sig, call) else {
                continue; // dynamic field names are out of scope
            };
            if access_is_validated(sig, &node, call, &calls) {
                continue;
            }
            findings.push(Finding {
                rule: "wire-field-coverage",
                line: t.line,
                col: t.col,
                message: format!(
                    "in `{}`, wire field {field} is read via `{}` but never reaches a \
validation call — route it through a typed `wire::req_*` helper, a `parse*` function, or a \
pattern match before planner hand-off",
                    node.name, call.name
                ),
            });
        }
    }
}

/// The string literal in second-argument position of `req(x, "field")`.
fn literal_second_arg(sig: &SigTokens<'_>, call: &Call) -> Option<String> {
    let mut depth = 0i32;
    for i in (call.args_open + 1)..call.args_close {
        if depth == 0 && sig.is_punct(i, ",") {
            let t = sig.tok(i + 1);
            if t.kind == TokKind::Str {
                return Some(sig.text(i + 1).to_string());
            }
            return None;
        }
        match () {
            _ if sig.is_punct(i, "(") || sig.is_punct(i, "[") => depth += 1,
            _ if sig.is_punct(i, ")") || sig.is_punct(i, "]") => depth -= 1,
            _ => {}
        }
    }
    None
}

/// Whether a callee name is validation-shaped.
fn is_validator(name: &str) -> bool {
    name == "parse"
        || name.starts_with("parse_")
        || name.starts_with("req_")
        || name.starts_with("opt_")
        || name.starts_with("validate")
}

/// Whether the untyped access flows into validation: wrapped in a
/// validator call, narrowed by `.as_*()`/`.is_some()`, used as a `match`
/// scrutinee, or let-bound and later passed to a validator / narrowed /
/// matched.
fn access_is_validated(
    sig: &SigTokens<'_>,
    node: &FnNode,
    call: &Call,
    _all_calls: &[Call],
) -> bool {
    // (a) Narrowing chain directly after the call: `req(…)?.as_array()`.
    let mut after = call.args_close + 1;
    if sig.is_punct(after, "?") {
        after += 1;
    }
    if sig.is_punct(after, ".")
        && sig.ident_matches(after + 1, |t| {
            t.starts_with("as_") || t == "is_some" || t == "is_none"
        })
    {
        return true;
    }
    // (b) Wrapped as an argument of a validator call: walk back to the
    // nearest enclosing `(` and inspect its callee.
    if let Some(callee) = enclosing_call_name(sig, node, call.idx) {
        if is_validator(&callee) {
            return true;
        }
    }
    // (c) `match` scrutinee: a `match` keyword before the call with no
    // statement boundary in between.
    if is_match_scrutinee(sig, node, call.idx) {
        return true;
    }
    // (d) Let-bound, later validated.
    if let Some(name) = syntax::let_binding_of(sig, call) {
        for i in (call.args_close + 1)..node.body_end {
            if !node.owns(i) || !sig.is_ident(i, &name) {
                continue;
            }
            // `match name { … }`
            if sig.is_ident(i - 1, "match") {
                return true;
            }
            // `name.as_*()` narrowing
            if sig.is_punct(i + 1, ".")
                && sig.ident_matches(i + 2, |t| {
                    t.starts_with("as_") || t == "is_some" || t == "is_none"
                })
            {
                return true;
            }
            // argument of a validator call
            if let Some(callee) = enclosing_call_name(sig, node, i) {
                if is_validator(&callee) {
                    return true;
                }
            }
        }
    }
    false
}

/// The callee name of the innermost call expression whose argument list
/// contains token `i`, if any.
fn enclosing_call_name(sig: &SigTokens<'_>, node: &FnNode, i: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut j = i;
    while j > node.body_start {
        j -= 1;
        if sig.is_punct(j, ")") || sig.is_punct(j, "]") {
            depth += 1;
        } else if sig.is_punct(j, "(") || sig.is_punct(j, "[") {
            if depth == 0 {
                if sig.is_punct(j, "(") && j > 0 && sig.tok(j - 1).kind == TokKind::Ident {
                    return Some(sig.text(j - 1).to_string());
                }
                return None;
            }
            depth -= 1;
        } else if depth == 0 && (sig.is_punct(j, ";") || sig.is_punct(j, "{")) {
            return None;
        }
    }
    None
}

/// Whether token `i` sits inside the scrutinee of a `match` (between the
/// keyword and its `{`).
fn is_match_scrutinee(sig: &SigTokens<'_>, node: &FnNode, i: usize) -> bool {
    let mut depth = 0i32;
    let mut j = i;
    while j > node.body_start {
        j -= 1;
        if sig.is_punct(j, ")") || sig.is_punct(j, "]") {
            depth += 1;
        } else if sig.is_punct(j, "(") || sig.is_punct(j, "[") {
            depth -= 1;
            if depth < 0 {
                // We left an enclosing paren group; a `match` even further
                // out still covers us (tuple scrutinees).
                depth = 0;
                continue;
            }
        } else if depth == 0 {
            if sig.is_ident(j, "match") {
                return true;
            }
            if sig.is_punct(j, ";") || sig.is_punct(j, "{") || sig.is_punct(j, "}") {
                return false;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// unused-pub
// ---------------------------------------------------------------------------

/// The mechanism and service crates, whose every `pub fn` needs a
/// production caller. The bench harness, the report writer and this lint
/// are tools, not API.
const API_CRATES: &[&str] = &[
    "dp",
    "core",
    "geometry",
    "baselines",
    "agg",
    "engine",
    "server",
    "store",
    "obs",
    "datagen",
    "lowerbound",
];

/// A `pub fn` defined in an API crate's library code.
#[derive(Debug, Clone)]
pub struct PubFn {
    /// The function's name.
    pub name: String,
    /// 1-based line of its `pub`, where findings and waivers attach.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One file's part of `unused-pub`: returns the `pub fn`s it defines (in
/// an API crate's library code, outside `src/bin/`) and adds to `names`
/// every identifier its production code names. Test files and `lib`-false
/// (`#[cfg(test)]`) lines name nothing; neither do a function definition's
/// own name nor a `pub use` re-export. Identifiers are sliced from `src`,
/// so the set outlives the file's token stream.
pub fn pub_fns_and_names<'a>(
    scope: &FileScope,
    src: &'a str,
    sig: &SigTokens<'_>,
    lib: &dyn Fn(u32) -> bool,
    names: &mut HashSet<&'a str>,
) -> Vec<PubFn> {
    let mut defs = Vec::new();
    if scope.is_test_file {
        return defs;
    }
    let defines = scope.is_library_code()
        && scope
            .crate_name
            .as_deref()
            .is_some_and(|c| API_CRATES.contains(&c))
        && !scope.rel_path.contains("/src/bin/");
    let mut i = 0;
    while i < sig.len() {
        let t = sig.tok(i);
        if t.kind != TokKind::Ident || !lib(t.line) {
            i += 1;
            continue;
        }
        if sig.is_ident(i, "pub") {
            // `pub(crate)` and the like restrict the item to its crate.
            let restricted = sig.is_punct(i + 1, "(");
            let mut j = i + 1;
            if restricted {
                j = sig.matching_close(j, "(", ")").map_or(j, |c| c + 1);
            }
            if sig.is_ident(j, "use") {
                i = (j..sig.len())
                    .find(|&k| sig.is_punct(k, ";"))
                    .map_or(sig.len(), |k| k + 1);
                continue;
            }
            while ["const", "async", "unsafe"]
                .iter()
                .any(|q| sig.is_ident(j, q))
            {
                j += 1;
            }
            if defines && !restricted && sig.is_ident(j, "fn") && sig.ident_matches(j + 1, |_| true)
            {
                defs.push(PubFn {
                    name: sig.text(j + 1).to_string(),
                    line: t.line,
                    col: t.col,
                });
            }
        }
        if !(i > 0 && sig.is_ident(i - 1, "fn")) {
            names.insert(&src[t.start..t.end]);
        }
        i += 1;
    }
    defs
}

/// `unused-pub` — each of `defs` whose name is not in `names`, the
/// identifiers the whole workspace's production code names.
pub fn unused_pub(defs: &[PubFn], names: &HashSet<&str>) -> Vec<Finding> {
    defs.iter()
        .filter(|d| !names.contains(d.name.as_str()))
        .map(|d| Finding {
            rule: "unused-pub",
            line: d.line,
            col: d.col,
            message: format!(
                "`pub fn {}` is named by no production code (only tests, comments or \
re-exports, if anything) — delete it, make it private or `#[cfg(test)]`, or waive it with \
the reason it stays public",
                d.name
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::cfg_test_line_ranges;

    fn with_file<R>(rel: &str, src: &str, f: impl FnOnce(&FileScope, &SigTokens<'_>) -> R) -> R {
        let scope = FileScope::classify(rel);
        let toks = lex(src);
        let sig = SigTokens::new(src, &toks);
        f(&scope, &sig)
    }

    fn locks_of(rel: &str, src: &str) -> FileLocks {
        with_file(rel, src, |scope, sig| {
            let ranges = cfg_test_line_ranges(sig);
            extract_locks(scope, sig, &|line| !crate::scope::in_ranges(&ranges, line))
        })
    }

    #[test]
    fn lockorder_toml_parses_and_rejects() {
        let cfg =
            LockOrderConfig::parse_toml("# comment\norder = [\n  \"a\", # inline\n  \"b\",\n]\n")
                .unwrap();
        assert_eq!(cfg.order, vec!["a", "b"]);
        assert!(LockOrderConfig::parse_toml("order = [a]").is_err());
        assert!(LockOrderConfig::parse_toml("noorder = []").is_err());
        assert!(LockOrderConfig::parse_toml("order = [\"a\", \"a\"]").is_err());
    }

    #[test]
    fn two_lock_cycle_is_detected_with_both_witnesses() {
        let src = "\
fn forward(&self) { let g = lock_recover(&self.alpha); lock_recover(&self.beta).touch(); }
fn backward(&self) { let g = lock_recover(&self.beta); lock_recover(&self.alpha).touch(); }
";
        let files = vec![locks_of("crates/engine/src/a.rs", src)];
        let found = analyze_locks(&files, &LockOrderConfig::empty());
        assert_eq!(found.len(), 1, "{found:?}");
        let msg = &found[0].1.message;
        assert!(msg.contains("cycle"), "{msg}");
        assert!(
            msg.contains("`forward`") && msg.contains("`backward`"),
            "{msg}"
        );
    }

    #[test]
    fn consistent_order_is_clean_and_inversion_against_toml_is_flagged() {
        let src = "\
fn one(&self) { let g = lock_recover(&self.alpha); lock_recover(&self.beta).touch(); }
fn two(&self) { let g = lock_recover(&self.alpha); lock_recover(&self.beta).touch(); }
";
        let files = vec![locks_of("crates/engine/src/a.rs", src)];
        assert!(analyze_locks(&files, &LockOrderConfig::empty()).is_empty());
        // Declared order says beta is outermost → the alpha→beta edge inverts it.
        let cfg = LockOrderConfig {
            order: vec!["beta".into(), "alpha".into()],
        };
        let found = analyze_locks(&files, &cfg);
        assert_eq!(found.len(), 1);
        assert!(found[0].1.message.contains("inversion"));
    }

    #[test]
    fn self_reacquisition_is_a_deadlock_but_read_read_is_not() {
        let src = "fn f(&self) { let g = lock_recover(&self.m); lock_recover(&self.m).touch(); }";
        let files = vec![locks_of("crates/engine/src/a.rs", src)];
        let found = analyze_locks(&files, &LockOrderConfig::empty());
        assert_eq!(found.len(), 1);
        assert!(found[0].1.message.contains("self-deadlock"));
        let rr = "fn f(&self) { let g = read_recover(&self.m); read_recover(&self.m).touch(); }";
        let files = vec![locks_of("crates/engine/src/a.rs", rr)];
        assert!(analyze_locks(&files, &LockOrderConfig::empty()).is_empty());
    }

    #[test]
    fn one_level_call_resolution_builds_cross_fn_edges() {
        // `helper` returns a guard for `inner`; `caller` holds `outer`
        // across the call → edge outer→inner; `rev` closes the cycle.
        let src = "\
fn helper(&self) -> Guard { lock_recover(&self.inner_l) }
fn caller(&self) { let g = lock_recover(&self.outer_l); let h = self.helper(); use_both(g, h); }
fn rev(&self) { let h = lock_recover(&self.inner_l); lock_recover(&self.outer_l).touch(); }
";
        let files = vec![locks_of("crates/engine/src/a.rs", src)];
        let found = analyze_locks(&files, &LockOrderConfig::empty());
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.message.contains("cycle"));
    }

    #[test]
    fn transient_internal_effects_create_edges() {
        let src = "\
fn effectful(&self) { lock_recover(&self.dep).bump(); }
fn holder(&self) { let g = lock_recover(&self.own); self.effectful(); }
fn back(&self) { let g = lock_recover(&self.dep); lock_recover(&self.own).touch(); }
";
        let files = vec![locks_of("crates/engine/src/a.rs", src)];
        let found = analyze_locks(&files, &LockOrderConfig::empty());
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.message.contains("cycle"));
    }

    fn run_charge(rel: &str, src: &str) -> Vec<Finding> {
        with_file(rel, src, |scope, sig| {
            let ranges = cfg_test_line_ranges(sig);
            let mut findings = Vec::new();
            charge_release_paths(
                scope,
                sig,
                &|line| !crate::scope::in_ranges(&ranges, line),
                &mut findings,
            );
            findings
        })
    }

    #[test]
    fn refund_after_charge_is_flagged_but_exclusive_arms_are_not() {
        let hit = "fn f(&self) { s.append(StoreRecord::Charge(c))?; if failed { self.refund_spend(k); } Ok(()) }";
        let found = run_charge("crates/engine/src/a.rs", hit);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("refund"));
        // Charge and refund in mutually exclusive match arms share no path.
        let arms = "fn f(&self) { match mode { A => { s.append(StoreRecord::Charge(c))?; } B => { self.refund_spend(k); } } }";
        assert!(run_charge("crates/engine/src/a.rs", arms).is_empty());
        // A refund helper in a fn with no charge append is not this rule's
        // business, and a `?` exit after the charge leaves spend standing.
        let helper = "fn refund_spend(&self, k: &str) { self.ledger.credit(k); }";
        assert!(run_charge("crates/engine/src/a.rs", helper).is_empty());
        let standing = "fn f(&self) { s.append(StoreRecord::Charge(c))?; run()?; Ok(()) }";
        assert!(run_charge("crates/engine/src/a.rs", standing).is_empty());
    }

    #[test]
    fn branch_sensitive_release_before_charge() {
        // Release on the early branch, charge afterwards on the main path:
        // the release-bearing path also reaches the charge → inversion.
        let bad = "fn f(&self) { if replay { s.append(StoreRecord::Release(r))?; } s.append(StoreRecord::Charge(c))?; }";
        let found = run_charge("crates/engine/src/a.rs", bad);
        assert_eq!(found.len(), 1, "{found:?}");
        // Exclusive arms: no path carries both → clean.
        let exclusive = "fn f(&self) { if replay { s.append(StoreRecord::Release(r))?; } else { s.append(StoreRecord::Charge(c))?; } }";
        assert!(run_charge("crates/engine/src/a.rs", exclusive).is_empty());
    }

    fn run_wire(rel: &str, src: &str) -> Vec<Finding> {
        with_file(rel, src, |scope, sig| {
            let ranges = cfg_test_line_ranges(sig);
            let mut findings = Vec::new();
            wire_field_coverage(
                scope,
                sig,
                &|line| !crate::scope::in_ranges(&ranges, line),
                &mut findings,
            );
            findings
        })
    }

    #[test]
    fn unvalidated_wire_field_is_flagged_and_validated_shapes_pass() {
        let hit = "fn f(value: &Value) -> Result<Value, E> { let raw = req(value, \"seed\")?; Ok(raw.clone()) }";
        let found = run_wire("crates/engine/src/protocol.rs", hit);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("\"seed\""));
        // Validated shapes: wrapped, narrowed, matched, let-then-validator.
        for clean in [
            "fn f(v: &Value) { let q = Query::parse(req(v, \"query\")?)?; }",
            "fn f(v: &Value) { let a = req(v, \"balls\")?.as_array(); }",
            "fn f(v: &Value) { match get(v, \"backend\") { Some(b) => use_b(b), None => {} } }",
            "fn f(v: &Value) { let spec = req(v, \"budget\")?; let e = req_f64(spec, \"epsilon\")?; }",
            "fn f(v: &Value) { let c = parse_f64_array(req(v, \"center\")?, \"center\")?; }",
            "fn f(v: &Value) { match (get(v, \"points\"), get(v, \"synthetic\")) { _ => {} } }",
        ] {
            assert!(
                run_wire("crates/engine/src/protocol.rs", clean).is_empty(),
                "false positive on: {clean}"
            );
        }
        // Other files / crates are out of scope.
        assert!(run_wire("crates/engine/src/wire.rs", hit).is_empty());
        assert!(run_wire("crates/core/src/protocol.rs", hit).is_empty());
    }
}
