//! Quickstart for the query engine: register a dataset with a total privacy
//! budget, issue adaptive queries until the accountant refuses, and show
//! that cached replays stay free — then hand an engine to the one-shard
//! server `serve --in-memory` runs and speak the JSON-lines protocol to it.
//!
//! ```text
//! cargo run --release --example engine_service
//! ```

use privcluster::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // A planted cluster of 500 points among 1000, in [0,1]^2 on a 2^10 grid.
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let instance = planted_ball_cluster(&domain, 1_000, 500, 0.02, &mut rng);

    // Register it once, with a hard (ε = 1, δ = 1e-6) lifetime budget.
    let engine = Engine::new(EngineConfig {
        threads: 4,
        cache_capacity: 64,
        ..EngineConfig::default()
    });
    engine
        .register_dataset(
            "hotspots",
            instance.data,
            domain,
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();

    // Adaptive querying: each GoodRadius call bids ε = 0.3 until refusal.
    println!("== adaptive queries until the budget runs out ==");
    for seed in 0..5u64 {
        let request = QueryRequest {
            dataset: "hotspots".into(),
            version: None,
            seed,
            privacy: PrivacyParams::new(0.3, 1e-8).unwrap(),
            query: Query::GoodRadius { t: 500, beta: 0.1 },
        };
        match engine.query(&request) {
            Ok(response) => println!(
                "seed {seed}: granted (remaining ε = {:.2}) -> {:?}",
                response.remaining_epsilon, response.value
            ),
            Err(e) => println!("seed {seed}: {e}"),
        }
    }

    // Replaying an already-granted query is post-processing: zero charge.
    let replay = engine
        .query(&QueryRequest {
            dataset: "hotspots".into(),
            version: None,
            seed: 0,
            privacy: PrivacyParams::new(0.3, 1e-8).unwrap(),
            query: Query::GoodRadius { t: 500, beta: 0.1 },
        })
        .unwrap();
    println!(
        "replay of seed 0: cached = {}, charged = {:?}",
        replay.cached, replay.charged
    );

    let status = engine.status("hotspots").unwrap();
    println!(
        "status: granted {}, refused {}, spent ε = {:.2} of {:.2}",
        status.granted,
        status.refused,
        status.spent.map(|p| p.epsilon()).unwrap_or(0.0),
        status.budget.epsilon()
    );

    // Refresh the data: version 2 gets a fresh backend, but the ledger is
    // inherited — the spend above still counts, so the refusal stands.
    let domain2 = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng2 = StdRng::seed_from_u64(11);
    let refreshed = planted_ball_cluster(&domain2, 2_000, 1_000, 0.05, &mut rng2);
    let status = engine
        .reregister_dataset("hotspots", refreshed.data, domain2)
        .unwrap();
    println!(
        "reregistered: version {}, inherited spend ε = {:.2} — still refused: {}",
        status.version,
        status.inherited_spend.map(|p| p.epsilon()).unwrap_or(0.0),
        engine
            .query(&QueryRequest {
                dataset: "hotspots".into(),
                version: None,
                seed: 9,
                privacy: PrivacyParams::new(0.3, 1e-8).unwrap(),
                query: Query::GoodRadius { t: 500, beta: 0.1 },
            })
            .is_err()
    );

    // The same engine core behind the JSON-lines protocol: `serve` wraps
    // its engines in a `ShardedServer` (one shard unless `--shards` says
    // otherwise), whose `handle_line` is what it runs over stdin/stdout or
    // TCP.
    println!("\n== the same conversation over the JSON-lines protocol ==");
    let script = concat!(
        r#"{"op":"register","dataset":"wire","domain":{"dim":2,"size":1024},"#,
        r#""budget":{"epsilon":1.0,"delta":1e-6},"composition":"basic","#,
        r#""synthetic":{"kind":"planted_ball","n":1000,"cluster_size":500,"cluster_radius":0.02,"seed":7}}"#,
        "\n",
        r#"{"op":"query","dataset":"wire","seed":0,"epsilon":0.3,"delta":1e-8,"query":{"type":"good_radius","t":500,"beta":0.1}}"#,
        "\n",
        r#"{"op":"status","dataset":"wire"}"#,
        "\n",
    );
    let fresh = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 64,
        ..EngineConfig::default()
    });
    let server = ShardedServer::new(vec![fresh], 0);
    let mut out = Vec::new();
    privcluster::engine::serve_lines_with(script.as_bytes(), &mut out, |line| {
        server.handle_line(line)
    })
    .unwrap();
    print!("{}", String::from_utf8(out).unwrap());
}
