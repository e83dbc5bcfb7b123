//! A small blocking client for the line protocol — used by the `systec
//! client` subcommand and the test tiers.
//!
//! [`RetryPolicy`] adds fault tolerance on top of [`Client`]: capped
//! exponential backoff with deterministic jitter on connect failures,
//! dropped connections, and the retryable error codes
//! ([`crate::protocol::ErrorCode::retryable`] — `deadline_exceeded`,
//! `admission_rejected`, `internal_error`). `kernel_quarantined` is
//! deliberately *not* retried: the handle is dead until re-`prepare`.

use std::io::{BufRead, BufReader, IoSlice, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{ErrorCode, ProtoError, Request, Response};

/// A connected client. Requests are answered in order on the same
/// connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket trouble (including the server closing the connection).
    Io(std::io::Error),
    /// The server's response line did not decode.
    Protocol(ProtoError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What is left of a line once `written` of its bytes — the newline
/// after `line` counts as one — have gone out, as the two slices of one
/// `writev`. A separate write for the newline would be a second
/// segment: it wakes the peer twice and, without `TCP_NODELAY`, waits
/// out the peer's delayed ACK first. A line is done when `written`
/// exceeds `line.len()`.
pub(crate) fn line_tail(line: &[u8], written: usize) -> [IoSlice<'_>; 2] {
    [IoSlice::new(&line[written.min(line.len())..]), IoSlice::new(b"\n")]
}

/// Writes `line` and its newline to a blocking stream in **one** write
/// (as many as a partial write forces), then flushes. Every line this
/// crate and the router put on a socket goes through here or through
/// the server's nonblocking equivalent.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_line(stream: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut written = 0;
    while written <= line.len() {
        match stream.write_vectored(&line_tail(line.as_bytes(), written)) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

impl Client {
    /// Connects to a running server. The socket is `TCP_NODELAY`: a
    /// request is one small write and must not wait for an ACK.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one raw line and returns the raw response line (without the
    /// trailing newline). The building block for scripted exchanges —
    /// the line is sent verbatim, malformed or not.
    ///
    /// # Errors
    ///
    /// Those of [`Client::send_line`] and [`Client::recv_line`].
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// The write half of [`Client::send_raw`]: a caller that owes
    /// several lines (the router's fan-out) sends them all first.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// The read half of [`Client::send_raw`]: the next response line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a closed connection surfaces as
    /// [`std::io::ErrorKind::UnexpectedEof`].
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            let closed = "server closed the connection";
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, closed));
        }
        while response.ends_with(['\n', '\r']) {
            response.pop();
        }
        Ok(response)
    }

    /// Sends a typed request and decodes the typed response.
    ///
    /// # Errors
    ///
    /// Transport errors and undecodable response lines.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let line = self.send_raw(&request.encode())?;
        Response::decode(&line).map_err(ClientError::Protocol)
    }

    /// Connects with capped exponential backoff: up to `policy.attempts`
    /// tries, sleeping `policy.delay(attempt)` between failures.
    ///
    /// # Errors
    ///
    /// The last connect error once every attempt is exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: &RetryPolicy,
    ) -> std::io::Result<Client> {
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            match Client::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(policy.delay(attempt));
            }
        }
        Err(last.expect("at least one connect attempt was made"))
    }
}

/// Retry schedule for connects and retryable requests: capped
/// exponential backoff plus deterministic jitter.
///
/// The delay before retry `attempt` (0-based) is
/// `min(cap, base << attempt) + jitter`, where jitter is drawn from a
/// seeded xorshift stream over `[0, base)` — deterministic for a given
/// `(seed, attempt)`, so test tiers replay identical schedules while
/// independent clients (different seeds) still decorrelate.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries). Clamped to ≥ 1.
    pub attempts: u32,
    /// Base delay; doubled each retry.
    pub base: Duration,
    /// Ceiling on the exponential component.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5353_5445_4331_2e30, // "SSTEC1.0"
        }
    }
}

impl RetryPolicy {
    /// A policy making `attempts` total tries with the default backoff.
    #[must_use]
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy { attempts, ..RetryPolicy::default() }
    }

    /// Whether a decoded error response should be retried under this
    /// policy (delegates to [`ErrorCode::retryable`]).
    #[must_use]
    pub fn should_retry(&self, code: ErrorCode) -> bool {
        code.retryable()
    }

    /// The delay before retry `attempt` (0-based):
    /// `min(cap, base * 2^attempt) + jitter(seed, attempt)` with jitter
    /// in `[0, base)`.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let base_ms = self.base.as_millis().min(u128::from(u64::MAX)) as u64;
        let cap_ms = self.cap.as_millis().min(u128::from(u64::MAX)) as u64;
        let exp = base_ms.checked_shl(attempt.min(32)).unwrap_or(u64::MAX).min(cap_ms);
        let jitter = if base_ms == 0 {
            0
        } else {
            // One splitmix64 step keyed by (seed, attempt): stateless, so
            // delay(n) is a pure function and replays identically.
            let mut z =
                self.seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            z % base_ms
        };
        Duration::from_millis(exp.saturating_add(jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts at most `self.1` bytes per write, like a full socket —
    /// across the slices of a vectored write, so a count can end inside
    /// the line, between the line and its newline, or after both.
    struct Trickle(Vec<u8>, usize);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let before = self.0.len();
            for buf in bufs {
                let room = self.1 - (self.0.len() - before);
                self.0.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.0.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_survives_partial_writes_at_every_boundary() {
        for line in ["", "x", r#"{"op":"ping"}"#] {
            for step in 1..=line.len() + 2 {
                let mut sink = Trickle(Vec::new(), step);
                write_line(&mut sink, line).unwrap();
                assert_eq!(sink.0, format!("{line}\n").into_bytes(), "step {step}");
            }
        }
        let mut full = Trickle(Vec::new(), 0);
        let err = write_line(&mut full, "x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn delay_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 7,
        };
        for attempt in 0..8 {
            let d = p.delay(attempt).as_millis() as u64;
            let exp = (10u64 << attempt).min(100);
            assert!(
                d >= exp && d < exp + 10,
                "attempt {attempt}: delay {d}ms outside [{exp}, {})",
                exp + 10
            );
        }
        // Deterministic: same (seed, attempt) → same delay.
        assert_eq!(p.delay(3), p.delay(3));
        // Different seeds decorrelate at least one attempt.
        let q = RetryPolicy { seed: 8, ..p.clone() };
        assert!((0..8).any(|a| p.delay(a) != q.delay(a)));
    }

    #[test]
    fn zero_base_never_divides_by_zero() {
        let p = RetryPolicy {
            attempts: 2,
            base: Duration::ZERO,
            cap: Duration::from_millis(5),
            seed: 1,
        };
        assert_eq!(p.delay(0), Duration::ZERO);
        assert_eq!(p.delay(63), Duration::ZERO);
    }

    #[test]
    fn retryable_codes_follow_protocol_policy() {
        let p = RetryPolicy::default();
        assert!(p.should_retry(ErrorCode::Internal));
        assert!(p.should_retry(ErrorCode::DeadlineExceeded));
        assert!(p.should_retry(ErrorCode::AdmissionRejected));
        assert!(!p.should_retry(ErrorCode::KernelQuarantined));
        assert!(!p.should_retry(ErrorCode::UnknownKernel));
    }

    #[test]
    fn connect_with_retry_surfaces_the_last_error() {
        // Port 1 on localhost is essentially never listening; keep the
        // schedule instant so the test doesn't sleep.
        let p = RetryPolicy { attempts: 2, base: Duration::ZERO, cap: Duration::ZERO, seed: 1 };
        let err = Client::connect_with_retry("127.0.0.1:1", &p);
        assert!(err.is_err());
    }
}
