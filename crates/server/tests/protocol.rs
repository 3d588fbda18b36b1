//! The wire protocol through the one dispatcher, `ShardedServer::handle`,
//! on a one-shard in-memory server: registration, queries and the result
//! cache, backend overrides, re-registration under an inherited ledger,
//! refused coordinates that are not finite, the serve loop, and batches.

use privcluster_engine::{serve_lines_with, Engine, EngineConfig, Request, StoreConfig};
use privcluster_server::ShardedServer;
use serde::Value;
use std::io::{BufRead, Write};

fn server() -> ShardedServer {
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 32,
        ..EngineConfig::default()
    });
    ShardedServer::new(vec![engine], 0)
}

/// `server`'s response to one parsed request (a copy of it: `handle`
/// takes its request by value, and the tests send some twice).
fn handle(server: &ShardedServer, request: &Request) -> Value {
    server.handle(request.clone()).0
}

/// `server`'s serve loop over `reader`, answering into `writer`.
fn serve_lines<R: BufRead, W: Write>(
    server: &ShardedServer,
    reader: R,
    writer: W,
) -> std::io::Result<bool> {
    serve_lines_with(reader, writer, |line| server.handle_line(line))
}

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

const REGISTER: &str = r#"{"op":"register","dataset":"demo","domain":{"dim":2,"size":1024},"budget":{"epsilon":4.0,"delta":0.0001},"composition":"basic","synthetic":{"kind":"planted_ball","n":400,"cluster_size":200,"cluster_radius":0.02,"seed":7}}"#;

#[test]
fn register_query_status_round_trip() {
    let server = server();
    let reg = Request::parse(REGISTER).unwrap();
    let reg_response = handle(&server, &reg);
    assert_eq!(get(&reg_response, "ok"), Some(&Value::Bool(true)));

    let query = Request::parse(
        r#"{"op":"query","dataset":"demo","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
    )
    .unwrap();
    let response = handle(&server, &query);
    assert_eq!(get(&response, "ok"), Some(&Value::Bool(true)));
    assert_eq!(get(&response, "cached"), Some(&Value::Bool(false)));
    let again = handle(&server, &query);
    assert_eq!(get(&again, "cached"), Some(&Value::Bool(true)));
    assert_eq!(get(&again, "charged"), Some(&Value::Null));
    assert_eq!(get(&again, "result"), get(&response, "result"));

    let status = handle(
        &server,
        &Request::parse(r#"{"op":"status","dataset":"demo"}"#).unwrap(),
    );
    let status_obj = get(&status, "status").unwrap();
    assert_eq!(get(status_obj, "granted").unwrap().as_f64(), Some(1.0));

    let list = handle(&server, &Request::parse(r#"{"op":"list"}"#).unwrap());
    assert_eq!(get(&list, "datasets").unwrap().as_array().unwrap().len(), 1);
}

#[test]
fn backend_override_on_the_wire_is_honoured_and_reported() {
    let server = server();
    let forced = REGISTER
        .replace(r#""dataset":"demo""#, r#""dataset":"forced""#)
        .replace(
            r#""composition":"basic""#,
            r#""composition":"basic","backend":"projected""#,
        );
    let response = handle(&server, &Request::parse(&forced).unwrap());
    let status = get(&response, "status").unwrap();
    assert_eq!(
        get(status, "backend").and_then(|v| v.as_str()),
        Some("projected"),
        "{response:?}"
    );
    // Default selection on a small dataset is exact, and status reports it.
    handle(&server, &Request::parse(REGISTER).unwrap());
    let status = handle(
        &server,
        &Request::parse(r#"{"op":"status","dataset":"demo"}"#).unwrap(),
    );
    let status = get(&status, "status").unwrap();
    assert_eq!(
        get(status, "backend").and_then(|v| v.as_str()),
        Some("exact")
    );
    // A projected-backend dataset still answers queries.
    let query = Request::parse(
        r#"{"op":"query","dataset":"forced","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
    )
    .unwrap();
    let response = handle(&server, &query);
    assert_eq!(
        get(&response, "ok"),
        Some(&Value::Bool(true)),
        "{response:?}"
    );
    // Unknown backend names are rejected at parse time.
    let bad = REGISTER.replace(
        r#""composition":"basic""#,
        r#""composition":"basic","backend":"mystery""#,
    );
    assert!(Request::parse(&bad).is_err());
}

/// `1e400` parses to `+∞`. A registration or re-registration holding it is
/// refused with a structured error on both backends, before it reaches the
/// journal, and the server keeps serving; a restart on that journal opens.
#[test]
fn coordinates_that_are_not_finite_are_refused_before_the_journal() {
    let dir = std::env::temp_dir().join(format!("privcluster-non-finite-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = StoreConfig::journal_only(dir.join("journal.pcsj"));
    let journaled = || {
        let engine = Engine::open(EngineConfig::default(), store.clone()).unwrap();
        ShardedServer::new(vec![engine], 0)
    };
    // A two-point `op` of `dataset` on `backend`, its second point at `x`.
    let line = |op: &str, dataset: &str, backend: &str, x: &str| {
        let budget = if op == "register" {
            r#""budget":{"epsilon":4.0,"delta":0.0001},"#
        } else {
            ""
        };
        format!(
            r#"{{"op":"{op}","dataset":"{dataset}","domain":{{"dim":2,"size":16}},{budget}"backend":"{backend}","points":[[0.5,0.5],[{x},0.25]]}}"#
        )
    };
    let kind = |response: &Value| Some(get(get(response, "error")?, "kind")?.as_str()?.to_string());
    let status = r#"{"op":"status","dataset":"fine"}"#;
    let seq = |server: &ShardedServer| {
        let response = server.handle_line(status).0;
        get(get(&response, "durability").unwrap(), "journal_seq").and_then(Value::as_f64)
    };
    let query = r#"{"op":"query","dataset":"fine","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":2,"beta":0.1}}"#;
    for server in [server(), journaled()] {
        let (response, _) = server.handle_line(&line("register", "fine", "exact", "0.75"));
        assert_eq!(kind(&response), None, "{response:?}");
        for backend in ["exact", "projected"] {
            let before = seq(&server);
            for (op, dataset) in [("register", backend), ("reregister", "fine")] {
                let (response, _) = server.handle_line(&line(op, dataset, backend, "1e400"));
                assert_eq!(
                    kind(&response).as_deref(),
                    Some("invalid_query"),
                    "{response:?}"
                );
            }
            assert_eq!(seq(&server), before, "nothing journaled on {backend}");
            assert_eq!(kind(&server.handle_line(query).0), None);
        }
    }
    let response = journaled().handle_line(status).0;
    let version = get(get(&response, "status").unwrap(), "version");
    assert_eq!(version.and_then(Value::as_f64), Some(1.0), "{response:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A finite coordinate can lie more than half of `f64`'s range from
/// another, so that twice the projected backend's extent overflows. Such a
/// registration still builds its backend, without panicking the server,
/// and answers a query.
#[test]
fn coordinates_near_the_f64_limit_register_on_the_projected_backend() {
    let server = server();
    let register = r#"{"op":"register","dataset":"far","domain":{"dim":2,"size":16},"budget":{"epsilon":4.0,"delta":0.0001},"backend":"projected","points":[[0.5,0.5],[1e308,0.25],[-1e308,0.75],[0.25,0.25]]}"#;
    let query = r#"{"op":"query","dataset":"far","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":2,"beta":0.1}}"#;
    for line in [register, query] {
        let (response, _) = server.handle_line(line);
        assert_eq!(
            get(&response, "ok"),
            Some(&Value::Bool(true)),
            "{response:?}"
        );
    }
}

#[test]
fn reregister_inherits_the_ledger_and_scopes_the_cache() {
    let server = server();
    handle(&server, &Request::parse(REGISTER).unwrap());
    let query = Request::parse(
        r#"{"op":"query","dataset":"demo","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
    )
    .unwrap();
    let first = handle(&server, &query);
    assert_eq!(get(&first, "cached"), Some(&Value::Bool(false)));

    // New data under the same name: version 2, ledger carried over.
    let rereg = Request::parse(
        r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"synthetic":{"kind":"planted_ball","n":300,"cluster_size":150,"cluster_radius":0.03,"seed":8}}"#,
    )
    .unwrap();
    let response = handle(&server, &rereg);
    assert_eq!(
        get(&response, "ok"),
        Some(&Value::Bool(true)),
        "{response:?}"
    );
    let status = get(&response, "status").unwrap();
    assert_eq!(get(status, "version").unwrap().as_f64(), Some(2.0));
    assert_eq!(get(status, "points").unwrap().as_f64(), Some(300.0));
    assert_eq!(get(status, "granted").unwrap().as_f64(), Some(1.0));
    assert_ne!(
        get(status, "inherited_spend"),
        Some(&Value::Null),
        "v2 inherits the spend of the pre-reregistration query"
    );

    // The unpinned repeat now targets v2: the v1-cached result must NOT
    // be replayed (it answers a question about different data).
    let repeat = handle(&server, &query);
    assert_eq!(get(&repeat, "cached"), Some(&Value::Bool(false)));
    assert_ne!(get(&repeat, "result"), get(&first, "result"));
    // Pinned to v1, the same query is a pure cache replay: free.
    let pinned = Request::parse(
        r#"{"op":"query","dataset":"demo","version":1,"seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
    )
    .unwrap();
    let replay = handle(&server, &pinned);
    assert_eq!(get(&replay, "cached"), Some(&Value::Bool(true)));
    assert_eq!(get(&replay, "result"), get(&first, "result"));

    // Status pins reach old versions; out-of-range pins are refused.
    let v1_status = handle(
        &server,
        &Request::parse(r#"{"op":"status","dataset":"demo","version":1}"#).unwrap(),
    );
    let v1_status = get(&v1_status, "status").unwrap();
    assert_eq!(get(v1_status, "version").unwrap().as_f64(), Some(1.0));
    assert_eq!(get(v1_status, "points").unwrap().as_f64(), Some(400.0));
    assert_eq!(get(v1_status, "inherited_spend"), Some(&Value::Null));
    let missing = handle(
        &server,
        &Request::parse(r#"{"op":"status","dataset":"demo","version":9}"#).unwrap(),
    );
    assert!(serde_json::to_string(&missing)
        .unwrap()
        .contains("unknown_version"));

    // A reregister that tries to redeclare the budget is refused at
    // parse time — inheriting silently would fake a ledger reset.
    let sneaky = r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"budget":{"epsilon":99.0,"delta":0.1},"points":[[0.5,0.5]]}"#;
    let err = Request::parse(sneaky).unwrap_err();
    assert!(err.to_string().contains("inherited"), "{err}");
    let sneaky_mode = r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"composition":"basic","points":[[0.5,0.5]]}"#;
    assert!(Request::parse(sneaky_mode).is_err());
    // Re-registering a name that was never registered is refused.
    let unknown = Request::parse(
        r#"{"op":"reregister","dataset":"ghost","domain":{"dim":2,"size":1024},"points":[[0.5,0.5]]}"#,
    )
    .unwrap();
    let response = handle(&server, &unknown);
    assert!(serde_json::to_string(&response)
        .unwrap()
        .contains("unknown_dataset"));
}

#[test]
fn serve_lines_speaks_the_protocol_end_to_end() {
    let server = server();
    let script = format!(
        "{REGISTER}\n\n{}\n{}\n{}\n",
        r#"{"op":"query","dataset":"demo","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
        r#"{"op":"query","dataset":"missing","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":10,"beta":0.1}}"#,
        r#"{"op":"shutdown"}"#,
    );
    let mut out = Vec::new();
    serve_lines(&server, script.as_bytes(), &mut out).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains(r#""op":"register""#));
    assert!(lines[1].contains(r#""op":"query""#));
    assert!(lines[2].contains(r#""kind":"unknown_dataset""#));
    assert!(lines[3].contains(r#""op":"shutdown""#));
    // The same script replayed against a fresh server produces
    // bit-identical output (the golden-file property CI relies on).
    let server2 = self::server();
    let mut out2 = Vec::new();
    serve_lines(&server2, script.as_bytes(), &mut out2).unwrap();
    assert_eq!(out, out2);
}

#[test]
fn batch_requests_fan_out_and_keep_order() {
    let server = server();
    handle(&server, &Request::parse(REGISTER).unwrap());
    let batch = Request::parse(
        r#"{"op":"batch","requests":[
            {"dataset":"demo","seed":1,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}},
            {"dataset":"demo","seed":2,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}},
            {"dataset":"nope","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":10,"beta":0.1}}
        ]}"#,
    )
    .unwrap();
    let response = handle(&server, &batch);
    let items = get(&response, "responses").unwrap().as_array().unwrap();
    assert_eq!(items.len(), 3);
    assert_eq!(get(&items[0], "ok"), Some(&Value::Bool(true)));
    assert_eq!(get(&items[1], "ok"), Some(&Value::Bool(true)));
    assert_eq!(get(&items[2], "ok"), Some(&Value::Bool(false)));
}
