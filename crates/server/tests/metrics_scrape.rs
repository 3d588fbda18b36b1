//! `serve --metrics` answers a scrape while another client holds a silent
//! connection open. Scrapes are served one at a time, so without a read
//! timeout on each accepted stream the silent client would hold the
//! listener until it closed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn an_idle_connection_does_not_block_the_next_scrape() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--in-memory", "--metrics", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The stderr reader stays alive to the end, so later diagnostics never
    // meet a closed pipe.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "serve exited");
        if let Some(addr) = line
            .trim()
            .strip_prefix("privcluster-engine metrics listening on ")
        {
            break addr.to_string();
        }
    };

    let idle = TcpStream::connect(&addr).unwrap();
    let started = Instant::now();
    let mut scrape = TcpStream::connect(&addr).unwrap();
    scrape
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut answer = Vec::new();
    let read = scrape.read_to_end(&mut answer);
    let elapsed = started.elapsed();

    drop(idle);
    child.kill().unwrap();
    child.wait().unwrap();
    read.expect("the scrape must be answered while the idle client waits");
    assert!(
        answer.starts_with(b"HTTP/1.0 200"),
        "{}",
        String::from_utf8_lossy(&answer)
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "answered after {elapsed:?}"
    );
}
