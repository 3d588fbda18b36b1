//! The serving front end: the line loop's writes and its handling of bytes
//! that are not UTF-8, and the TCP accept loop's shutdown.

use privcluster_engine::{serve_lines_with, Engine, EngineConfig, MAX_REQUEST_LINE_BYTES};
use privcluster_server::{net, ShardedServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn server() -> ShardedServer {
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 8,
        ..EngineConfig::default()
    });
    ShardedServer::new(vec![engine], 0)
}

/// A writer that keeps each `write` call's bytes apart.
#[derive(Default)]
struct CountingWriter {
    writes: Vec<Vec<u8>>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_answer_is_one_write_oversize_errors_included() {
    let server = server();
    // A line one byte over the cap, streamed without being held in memory.
    let oversize = std::io::repeat(b'x').take(MAX_REQUEST_LINE_BYTES as u64 + 1);
    let script = oversize.chain(
        &b"\n{\"op\":\"list\"}\n\n{\"op\":\"status\",\"dataset\":\"none\"}\nnot json\n{\"op\":\"metrics\"}\n"[..],
    );
    let mut out = CountingWriter::default();
    let stopped = serve_lines_with(BufReader::new(script), &mut out, |line| {
        server.handle_line(line)
    })
    .unwrap();
    assert!(!stopped);
    // The blank line gets no answer; every other line gets one write.
    assert_eq!(out.writes.len(), 5);
    for write in &out.writes {
        let text = std::str::from_utf8(write).unwrap();
        assert!(text.ends_with('\n'), "{text}");
        assert_eq!(text.matches('\n').count(), 1, "{text}");
        assert!(text.starts_with("{\"ok\":"), "{text}");
    }
    let first = std::str::from_utf8(&out.writes[0]).unwrap();
    assert!(first.contains("exceeds the"), "{first}");
    assert!(first.contains("\"kind\":\"protocol\""), "{first}");
}

#[test]
fn lines_that_are_not_utf8_are_answered_as_before() {
    let server = server();
    let script: &[u8] =
        b"{\"op\":\"status\",\"dataset\":\"a\xffb\"}\n{\"op\":\"list\"}\xfe\n{\"op\":\"li\xc3st\"}\n";
    let mut out = Vec::new();
    serve_lines_with(script, &mut out, |line| server.handle_line(line)).unwrap();
    // Each bad byte reads as U+FFFD, as it did when every line was copied
    // through `String::from_utf8_lossy`.
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "{\"ok\":false,\"error\":{\"kind\":\"unknown_dataset\",\"message\":\"unknown dataset `a\u{fffd}b`\"}}\n\
         {\"ok\":false,\"error\":{\"kind\":\"protocol\",\"message\":\"protocol error: malformed JSON: JSON error: trailing characters at byte 13\"}}\n\
         {\"ok\":false,\"error\":{\"kind\":\"protocol\",\"message\":\"protocol error: unknown op `li\u{fffd}st`\"}}\n"
    );
}

fn call(stream: &mut TcpStream, request: &str) -> String {
    writeln!(stream, "{request}").unwrap();
    let mut answer = String::new();
    BufReader::new(&*stream).read_line(&mut answer).unwrap();
    answer
}

/// Serves on `bind`, sends `shutdown` on one connection while a second
/// stays open, and checks that `serve_tcp` waits for the second to close
/// and then returns.
fn shutdown_drains_open_connections(bind: &'static str) {
    let server = Arc::new(server());
    let (addr_tx, addr_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let served = net::serve_tcp(&server, bind, move |addr| addr_tx.send(addr).unwrap());
        done_tx.send(served.is_ok()).unwrap();
    });
    let mut addr: SocketAddr = addr_rx.recv().unwrap();
    if addr.ip().is_unspecified() {
        addr.set_ip([127, 0, 0, 1].into());
    }
    let mut open = TcpStream::connect(addr).unwrap();
    assert!(call(&mut open, r#"{"op":"list"}"#).contains(r#""op":"list""#));
    let mut stopper = TcpStream::connect(addr).unwrap();
    assert!(call(&mut stopper, r#"{"op":"shutdown"}"#).contains(r#""op":"shutdown""#));
    // The open connection is still served, and holds the listener open.
    assert!(call(&mut open, r#"{"op":"list"}"#).contains(r#""op":"list""#));
    assert!(done_rx.recv_timeout(Duration::from_millis(200)).is_err());
    drop(open);
    assert_eq!(done_rx.recv_timeout(Duration::from_secs(10)), Ok(true));
}

#[test]
fn a_shutdown_wakes_the_accept_loop_on_loopback() {
    shutdown_drains_open_connections("127.0.0.1:0");
}

#[test]
fn a_shutdown_wakes_the_accept_loop_on_every_interface() {
    shutdown_drains_open_connections("0.0.0.0:0");
}
