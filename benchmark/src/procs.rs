//! Child processes: building the `systec` binary, spawning `systec
//! serve` / `systec cluster` on ephemeral ports, and making sure none
//! of them outlives the benchmark.
//!
//! Readiness is the child's own `listening on` banner followed by a
//! `ping`; nothing sleeps to wait for a port. Every child runs in its
//! own process group and is killed when its handle drops, so a failed
//! or panicking run leaves no server behind.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use systec_serve::Client;

const BANNER_TIMEOUT: Duration = Duration::from_secs(20);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The repo root: the working directory when it holds the benchmark
/// (how the driver runs it), else the directory this crate was built in.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("benchmark/Cargo.toml").is_file() && cwd.join("Cargo.toml").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the crate sits in the repo").into()
}

/// Builds the root package's `systec` binary from source into the
/// target directory this benchmark was itself built into, and returns
/// its path. Cargo's own fingerprints make this a no-op when nothing
/// changed. Not part of any measurement.
pub fn build_systec() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?;
    let root = repo_root();
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "systec"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the systec binary failed ({status})"));
    }
    let bin = target_dir.join("release/systec");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo succeeded but {} is missing", bin.display()))
    }
}

/// A running `systec serve` or `systec cluster`.
pub struct Server {
    child: std::process::Child,
    /// Lines of the child's stdout; disconnects when the child (and
    /// with it the pipe's write end) is gone.
    stdout: mpsc::Receiver<String>,
    drain: Option<std::thread::JoinHandle<()>>,
    /// The address clients talk to (the worker, or the router front).
    pub addr: String,
    /// Worker addresses behind a cluster front (empty for `serve`).
    pub shards: Vec<String>,
    /// Spawn → first `pong`, in seconds.
    pub ready_s: f64,
    descendants: Vec<u32>,
    stopped: bool,
}

impl Server {
    pub fn serve(bin: &Path) -> Result<Server, String> {
        Server::spawn(bin, &["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
    }

    pub fn cluster(bin: &Path, shards: usize) -> Result<Server, String> {
        let n = shards.to_string();
        Server::spawn(
            bin,
            &["cluster", "--shards", &n, "--listen", "127.0.0.1:0", "--threads", "1"],
        )
    }

    fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The reader thread forwards banner lines, then keeps draining
        // so the child never blocks on a full pipe; it ends at EOF.
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            stdout: rx,
            drain: Some(drain),
            addr: String::new(),
            shards: Vec::new(),
            ready_s: 0.0,
            descendants: Vec::new(),
            stopped: false,
        };
        loop {
            let line = server
                .stdout
                .recv_timeout(BANNER_TIMEOUT)
                .map_err(|_| format!("`systec {}` printed no `listening on` line", args[0]))?;
            let last = line.rsplit(' ').next().unwrap_or_default().to_string();
            if line.starts_with("cluster shard") {
                server.shards.push(last);
            } else if line.contains("listening on") {
                server.addr = last;
                break;
            }
        }
        let mut client = server.connect()?;
        let pong = client.send_raw(r#"{"op":"ping"}"#).map_err(|e| format!("first ping: {e}"))?;
        if !pong.contains("pong") {
            return Err(format!("first ping answered {pong}"));
        }
        server.ready_s = t0.elapsed().as_secs_f64();
        server.descendants = children_of(server.child.id());
        Ok(server)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Peak resident set (`VmHWM`) summed over the child and the
    /// workers it spawned, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.child.id())
            .chain(self.descendants.iter().copied())
            .filter_map(|pid| proc_status_kb(pid, "VmHWM:"))
            .sum::<f64>()
            / 1024.0
    }

    /// Asks the server to stop (a cluster front passes the request on
    /// to its workers and reaps them), waits for it to exit, and falls
    /// back to killing the process group.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.send_raw(r#"{"op":"shutdown"}"#).map_err(|e| e.to_string()));
        // The stdout pipe closes when the child exits: block on that
        // instead of polling.
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let exited = asked.is_ok()
            && loop {
                match self.stdout.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(_) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break true,
                    Err(mpsc::RecvTimeoutError::Timeout) => break false,
                }
            };
        self.reap(exited);
        match (asked, exited) {
            (Ok(_), true) => Ok(()),
            (Ok(_), false) => Err("the server ignored `shutdown` and was killed".into()),
            (Err(e), _) => Err(format!("could not ask the server to stop: {e}")),
        }
    }

    /// Waits for the child, its workers and the stdout reader to end;
    /// unless the child already `exited`, kills its process group first
    /// (a cluster's workers share the group, whose id is the child's pid).
    fn reap(&mut self, exited: bool) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        if !exited {
            let _ = self.child.kill();
            let _ = Command::new("kill")
                .args(["-KILL", "--", &format!("-{}", self.child.id())])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
        }
        let _ = self.child.wait();
        // Not our children, so there is nothing to wait on but /proc.
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while self.descendants.iter().any(|&pid| is_running(pid)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap(false);
    }
}

fn proc_status_kb(pid: u32, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's own peak resident set, in MB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status_kb(std::process::id(), "VmHWM:").unwrap_or(0.0) / 1024.0
}

fn is_running(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/status")) {
        Ok(text) => !text.lines().any(|l| l.starts_with("State:") && l.contains('Z')),
        Err(_) => false,
    }
}

fn children_of(parent: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else { return Vec::new() };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            std::fs::read_to_string(format!("/proc/{pid}/status")).is_ok_and(|text| {
                text.lines().any(|l| {
                    l.strip_prefix("PPid:").is_some_and(|v| v.trim().parse() == Ok(parent))
                })
            })
        })
        .collect()
}
