//! A finished TCP connection must not keep its thread's stack mapped.
//!
//! `net::serve_tcp` serves each connection on its own thread. If the accept
//! loop kept every finished connection's `JoinHandle` until shutdown, each
//! exited thread would keep its stack and guard-page mappings, two lines of
//! `/proc/self/maps` per connection served, until the process hit
//! `vm.max_map_count` and could spawn no more threads.
//!
//! The measure is process-wide, so this file holds exactly **one** test,
//! and it opens its connections one after another, never concurrently.

use privcluster_engine::{Engine, EngineConfig};
use privcluster_server::{net, ShardedServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};

const CONNECTIONS: usize = 200;

fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// One connection: a `list` request, its answer, then hang up.
fn list_once(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, r#"{{"op":"list"}}"#).unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    assert!(line.contains(r#""op":"list""#), "{line}");
}

#[test]
fn finished_connections_release_their_thread_mappings() {
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 8,
        ..EngineConfig::default()
    });
    let server = Arc::new(ShardedServer::new(vec![engine], 0));
    let (addr_tx, addr_rx) = mpsc::channel();
    let listener = std::thread::spawn(move || {
        net::serve_tcp(&server, "127.0.0.1:0", move |addr| {
            addr_tx.send(addr).unwrap();
        })
    });
    let addr = addr_rx.recv().unwrap();

    // Warm-up connections map whatever a first connection maps once (the
    // allocator's per-thread arenas among them).
    for _ in 0..10 {
        list_once(addr);
    }
    let before = mapping_count();
    for _ in 0..CONNECTIONS {
        list_once(addr);
    }
    let grown = mapping_count().saturating_sub(before);

    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    listener.join().unwrap().unwrap();

    assert!(
        grown < 100,
        "{CONNECTIONS} sequential connections grew /proc/self/maps by {grown} lines"
    );
}
