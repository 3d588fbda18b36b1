//! The `serve` process and the benchmark's TCP client.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running `serve --tcp`. Dropping it kills the process and waits for it.
pub struct Serve {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Serve {
    /// Spawns `bin args… --tcp 127.0.0.1:0` and waits until it reports the
    /// address it bound (after every shard has been opened and recovered).
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Serve, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let _ = tx.send(addr.trim().to_string());
                } else if !line.contains(": journal ") {
                    eprintln!("[serve] {line}");
                }
            }
        });
        let mut serve = Serve {
            child,
            addr: String::new(),
            stderr: Some(reader),
        };
        match rx.recv_timeout(Duration::from_secs(150)) {
            Ok(addr) => {
                serve.addr = addr;
                Ok(serve)
            }
            Err(_) => Err("serve exited or never bound its listener".to_string()),
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    /// `VmHWM` (peak resident set) of the process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// `kill -9`, then reap.
    pub fn kill(mut self) {
        self.stop();
    }

    /// Asks the server to shut down and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.call("{\"op\":\"shutdown\"}")?;
        drop(conn);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("serve exited with {status}"))
        }
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection; requests are answered strictly in order.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns its response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.receive()
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .map_err(|e| format!("send: {e}"))
    }

    fn receive(&mut self) -> Result<String, String> {
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.buf.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    total
}
