//! Descriptor exhaustion must not spin the event loop.
//!
//! When `accept` fails with `EMFILE` the pending connection stays in
//! the backlog and the listener stays readable; a level-triggered loop
//! that kept waiting on it would wake continuously. The server instead
//! looks away from the listener for one back-off period per failure,
//! counts it ([`RunningServer::accept_backoffs`]), and accepts the
//! connection once descriptors are free again.
//!
//! The test exhausts this process's own descriptor table, so it is the
//! only test in its binary — and it runs only under a modest
//! `ulimit -n` (at most 65 536): filling a table of a million entries
//! costs seconds and hundreds of megabytes of kernel memory.

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use systec_serve::protocol::{Request, Response};
use systec_serve::{serve, Client, Engine};

/// The soft `RLIMIT_NOFILE`, where `/proc` can tell.
fn descriptor_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn accept_failures_back_off_instead_of_spinning() {
    let Some(limit) = descriptor_limit().filter(|&n| n <= 1 << 16) else {
        eprintln!("skipped: needs a descriptor limit of at most 65536 to exhaust (`ulimit -n`)");
        return;
    };
    let server = serve("127.0.0.1:0", Engine::new()).expect("bind");
    let mut first = Client::connect(server.addr()).unwrap();
    assert_eq!(first.request(&Request::Ping).unwrap(), Response::Pong);

    // Fill the table, then free exactly the one slot the client's
    // socket needs: none is left for the server's end.
    let mut hoard: Vec<File> = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hoard.push(file);
        assert!(hoard.len() <= limit, "opened more files than the limit allows");
    }
    hoard.pop();
    let mut blocked = TcpStream::connect(server.addr()).expect("the backlog takes the connection");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.accept_backoffs() == 0 {
        assert!(Instant::now() < deadline, "accept never failed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // One wake-up per back-off period, not one per microsecond — and
    // the connections already open are served throughout.
    let before = server.loop_wakeups();
    std::thread::sleep(Duration::from_millis(300));
    let woke = server.loop_wakeups() - before;
    assert!(woke <= 20, "{woke} wake-ups in 300 ms of failing accepts");
    assert_eq!(first.request(&Request::Ping).unwrap(), Response::Pong);

    drop(hoard);
    blocked.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = [0u8; 64];
    let n = blocked.read(&mut pong).unwrap();
    assert_eq!(&pong[..n], format!("{}\n", Response::Pong.encode()).as_bytes(), "accepted late");
    server.join();
}
