//! Serving transports for [`ShardedServer`]: stdio (one scripted
//! connection) and concurrent TCP (one thread per connection).
//!
//! Every accepted connection gets a thread, all threads share the one
//! [`ShardedServer`], and the per-shard admission gate (not the accept
//! loop) is what bounds concurrent work. The accept loop blocks in
//! `accept`, so a new connection is served the moment it arrives. A
//! `shutdown` request on any connection raises a flag and wakes the loop
//! by connecting once to the listener; already-open connections are drained
//! before the listener returns.

use crate::ShardedServer;
use privcluster_engine::serve_lines_with;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Serves newline-delimited JSON over stdin/stdout — the scripted-smoke
/// transport. Returns at end of input or after a `shutdown` request.
pub fn serve_stdio(server: &ShardedServer) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_lines_with(BufReader::new(stdin.lock()), stdout.lock(), |line| {
        server.handle_line(line)
    })
    .map(|_| ())
}

/// A `shutdown` seen on some connection, and how to tell the accept loop.
struct Stop {
    requested: AtomicBool,
    /// The listener's own address, with an unspecified IP replaced by
    /// loopback: connecting there returns a blocked `accept`.
    wake: SocketAddr,
}

impl Stop {
    fn request(&self) {
        self.requested.store(true, Ordering::Release);
        if let Err(e) = TcpStream::connect(self.wake) {
            eprintln!("privcluster-server: cannot wake the accept loop: {e}");
        }
    }
}

fn serve_connection(server: &ShardedServer, stream: TcpStream, stop: &Stop) {
    // Latency measurements at this request size are dominated by Nagle
    // delays unless disabled; correctness does not depend on it.
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("privcluster-server: dropping connection: {e}");
            return;
        }
    };
    match serve_lines_with(reader, &stream, |line| server.handle_line(line)) {
        Ok(true) => stop.request(),
        Ok(false) => {}
        Err(e) => eprintln!("privcluster-server: connection ended with error: {e}"),
    }
}

/// Binds `addr` and serves connections concurrently, one thread each. The
/// locally bound address is reported through `on_bound` (useful with port
/// 0). A `shutdown` request on any connection stops the accept loop; the
/// call returns once every open connection has finished.
pub fn serve_tcp(
    server: &Arc<ShardedServer>,
    addr: &str,
    on_bound: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    on_bound(bound);
    let mut wake = bound;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let stop = Arc::new(Stop {
        requested: AtomicBool::new(false),
        wake,
    });
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        // The connection that woke the loop after a shutdown (or one that
        // raced it) is closed unserved.
        if stop.requested.load(Ordering::Acquire) {
            break;
        }
        match stream {
            Ok(stream) => {
                let server = Arc::clone(server);
                let stop = Arc::clone(&stop);
                // Dropping a finished connection's handle detaches its
                // thread, which frees the thread's stack; kept until
                // shutdown, every handle would hold one stack mapping.
                workers.retain(|w| !w.is_finished());
                workers.push(std::thread::spawn(move || {
                    serve_connection(&server, stream, &stop)
                }));
            }
            Err(e) => {
                // Out of descriptors, say: back off instead of spinning.
                eprintln!("privcluster-server: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_engine::{Engine, EngineConfig};
    use std::io::{BufRead, Write};
    use std::sync::mpsc;

    #[test]
    fn tcp_round_trip() {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        });
        let server = Arc::new(ShardedServer::new(vec![engine], 0));
        let (addr_tx, addr_rx) = mpsc::channel();
        let listener = std::thread::spawn(move || {
            serve_tcp(&server, "127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
        });
        let addr = addr_rx.recv().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, r#"{{"op":"list"}}"#).unwrap();
        writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""op":"list""#));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""op":"shutdown""#));
        listener.join().unwrap().unwrap();
    }
}
