//! A reconnecting, retrying client for the serve protocol.
//!
//! [`RetryClient`] is what a well-behaved consumer of a degraded service
//! looks like: connect with a timeout, send one frame, read one reply
//! with a timeout — and on any *transient* failure (transport error,
//! mid-frame disconnect, corrupt reply bytes, `overloaded`/`internal`/
//! `deadline` errors) reconnect and retry with capped exponential
//! backoff plus deterministic jitter. Load-shed replies carrying a
//! `retry_after_ms` hint are honoured verbatim. Definitive rejections
//! (`parse`, `invalid`, `draining`) are returned immediately — retrying
//! a request the server understood and refused only amplifies load.
//!
//! Jitter comes from a seeded [`SplitMix64`], so a chaos run with a
//! fixed seed produces the same backoff schedule every time — the e2e
//! suite can assert byte-identical reports across runs.

use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rvhpc_faults::SplitMix64;
use rvhpc_obs::JsonValue;

use crate::proto;

/// Retry/backoff tuning for a [`RetryClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-reply read timeout; expiry counts as a transient failure.
    pub read_timeout: Duration,
    /// Most attempts per request (first try included).
    pub max_attempts: u32,
    /// First backoff delay; attempt `n` waits `base << n`, capped.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_string(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            max_attempts: 8,
            backoff_base_ms: 5,
            backoff_cap_ms: 200,
            jitter_seed: 0,
        }
    }
}

/// Why a request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server understood the request and refused it (`parse`,
    /// `invalid`, `draining`): the full error reply, not retried.
    Rejected(JsonValue),
    /// Every attempt failed transiently; `last` describes the final one.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Human-readable description of the last failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected(doc) => write!(f, "rejected: {}", doc.to_json()),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

/// Lifetime counters for one client (all attempts, all requests).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests issued through [`RetryClient::call`].
    pub requests: u64,
    /// Extra attempts beyond each request's first.
    pub retries: u64,
    /// Fresh TCP connections established.
    pub reconnects: u64,
    /// Replies that did not parse as JSON (corrupt bytes).
    pub corrupt_replies: u64,
    /// Backoffs honouring a server `retry_after_ms` hint.
    pub overloaded_backoffs: u64,
    /// Total milliseconds slept across all backoffs.
    pub backoff_ms_total: u64,
}

/// A lazily-connecting, self-healing protocol client.
pub struct RetryClient {
    cfg: ClientConfig,
    conn: Option<BufReader<TcpStream>>,
    rng: SplitMix64,
    stats: ClientStats,
}

/// A failure worth retrying: the one definition of "transient" that
/// [`RetryClient`] and the cluster router's reactor-side relay share.
#[derive(Debug)]
pub(crate) enum Transient {
    /// Transport error, or a stream that closed or stalled mid-frame.
    Io(String),
    /// The frame did not parse as JSON.
    Corrupt,
    /// Retryable server error (`overloaded`, `internal`, `deadline`);
    /// carries the hinted back-off, if any.
    ServerError(&'static str, Option<u64>),
}

/// Classify one complete reply frame (newline stripped): `Ok` carries
/// the parsed document and whether it is `ok:true` (else a definitive
/// rejection — `parse`, `invalid`, `draining` — that retrying would
/// only amplify); `Err` is a failure to retry.
pub(crate) fn classify_reply(raw: &str) -> Result<(JsonValue, bool), Transient> {
    let doc = rvhpc_obs::json::parse(raw).map_err(|_| Transient::Corrupt)?;
    if doc.get("ok") == Some(&JsonValue::Bool(true)) {
        return Ok((doc, true));
    }
    let error = doc.get("error");
    let kind = error
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown");
    match kind {
        "overloaded" => {
            let hint = error
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(JsonValue::as_f64)
                .map(|ms| ms as u64);
            Err(Transient::ServerError("overloaded", hint))
        }
        "internal" => Err(Transient::ServerError("internal", None)),
        "deadline" => Err(Transient::ServerError("deadline", None)),
        _ => Ok((doc, false)),
    }
}

/// A finished attempt: the parsed reply plus its raw frame bytes
/// (newline stripped), so raw-forwarding callers can relay verbatim.
enum AttemptOutcome {
    /// `ok:true`.
    Ok(JsonValue, String),
    /// Definitive rejection (`parse`, `invalid`, `draining`).
    Rejected(JsonValue, String),
}

impl RetryClient {
    /// Client for `cfg.addr`; no connection is made until the first call.
    pub fn new(cfg: ClientConfig) -> Self {
        let rng = SplitMix64::new(cfg.jitter_seed);
        Self {
            cfg,
            conn: None,
            rng,
            stats: ClientStats::default(),
        }
    }

    /// Client for `addr` with default tuning.
    pub fn connect(addr: impl Into<String>) -> Self {
        Self::new(ClientConfig {
            addr: addr.into(),
            ..ClientConfig::default()
        })
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Send one request line and return the parsed `ok:true` reply,
    /// retrying transient failures per the config.
    pub fn call(&mut self, line: &str) -> Result<JsonValue, ClientError> {
        match self.call_inner(line, None)? {
            AttemptOutcome::Ok(doc, _) => Ok(doc),
            AttemptOutcome::Rejected(doc, _) => Err(ClientError::Rejected(doc)),
        }
    }

    /// As [`RetryClient::call`], but return the *raw* reply frame
    /// (newline stripped) — for both successes and definitive
    /// rejections, which a forwarding router relays to its own client
    /// verbatim rather than treating as local errors. Only transient
    /// exhaustion is an error.
    pub fn call_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.call_raw_after(line, None)
    }

    /// As [`RetryClient::call_raw`], resuming a request whose first
    /// attempt the caller already made elsewhere and saw fail with
    /// `failed`: that failure counts as attempt one, so the back-off
    /// (and any `retry_after_ms` hint) and the attempt budget are what
    /// they would have been had this client made it.
    pub(crate) fn call_raw_after(
        &mut self,
        line: &str,
        failed: Option<Transient>,
    ) -> Result<String, ClientError> {
        match self.call_inner(line, failed)? {
            AttemptOutcome::Ok(_, raw) | AttemptOutcome::Rejected(_, raw) => Ok(raw),
        }
    }

    /// The shared retry loop: transient failures back off and retry up
    /// to `max_attempts`; anything the server actually answered comes
    /// back as an [`AttemptOutcome`].
    fn call_inner(
        &mut self,
        line: &str,
        mut failed: Option<Transient>,
    ) -> Result<AttemptOutcome, ClientError> {
        self.stats.requests += 1;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let failure = match failed.take() {
                Some(transient) => transient,
                None => match self.attempt(line) {
                    Ok(outcome) => return Ok(outcome),
                    Err(transient) => transient,
                },
            };
            let (last, hint) = match failure {
                Transient::Io(what) => {
                    // The stream may hold half a frame; never reuse it.
                    self.conn = None;
                    (what, None)
                }
                Transient::Corrupt => {
                    self.stats.corrupt_replies += 1;
                    self.conn = None;
                    ("corrupt reply bytes".to_string(), None)
                }
                Transient::ServerError(kind, hint) => {
                    if hint.is_some() {
                        self.stats.overloaded_backoffs += 1;
                    }
                    (format!("server error '{kind}'"), hint)
                }
            };
            if attempt >= self.cfg.max_attempts {
                return Err(ClientError::Exhausted {
                    attempts: attempt,
                    last,
                });
            }
            self.stats.retries += 1;
            self.backoff(attempt, hint);
        }
    }

    /// One attempt: `Ok` when the server answered (success or
    /// definitive rejection), `Err` on transient failure.
    fn attempt(&mut self, line: &str) -> Result<AttemptOutcome, Transient> {
        let io = |e: std::io::Error| Transient::Io(e.to_string());
        if self.conn.is_none() {
            let addr = self
                .cfg
                .addr
                .to_socket_addrs()
                .map_err(io)?
                .next()
                .ok_or_else(|| Transient::Io(format!("'{}' resolves to nothing", self.cfg.addr)))?;
            let stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout).map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            stream
                .set_read_timeout(Some(self.cfg.read_timeout))
                .map_err(io)?;
            self.stats.reconnects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let reader = self.conn.as_mut().expect("connection established above");
        proto::write_frame(reader.get_mut(), line).map_err(io)?;
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) => return Err(Transient::Io("connection closed mid-request".to_string())),
            Ok(_) => {}
            Err(e) => return Err(io(e)),
        }
        if !reply.ends_with('\n') {
            // A frame without its newline is a mid-frame drop.
            return Err(Transient::Io("truncated reply frame".to_string()));
        }
        let raw = reply.trim_end().to_string();
        let (doc, ok) = classify_reply(&raw)?;
        Ok(if ok {
            AttemptOutcome::Ok(doc, raw)
        } else {
            AttemptOutcome::Rejected(doc, raw)
        })
    }

    /// Sleep `min(cap, base << (attempt-1))` plus jitter in `0..base`
    /// milliseconds — or exactly the server's hint when one was given.
    fn backoff(&mut self, attempt: u32, hint_ms: Option<u64>) {
        let ms = match hint_ms {
            Some(ms) => ms,
            None => {
                let base = self.cfg.backoff_base_ms.max(1);
                let exp = base
                    .saturating_mul(1u64 << (attempt - 1).min(16))
                    .min(self.cfg.backoff_cap_ms.max(base));
                exp + self.rng.next_below(base)
            }
        };
        self.stats.backoff_ms_total += ms;
        std::thread::sleep(Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A scripted one-connection-at-a-time server: each entry is what to
    /// do with the next incoming request line.
    enum Script {
        Reply(&'static str),
        CloseMidFrame(&'static str),
        DropConnection,
    }

    fn scripted_server(script: Vec<Script>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let mut script = script.into_iter().peekable();
            'outer: while script.peek().is_some() {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(n) if n > 0 => {}
                        _ => continue 'outer,
                    }
                    match script.next() {
                        None => break 'outer,
                        Some(Script::Reply(r)) => {
                            writeln!(writer, "{r}").expect("reply");
                        }
                        Some(Script::CloseMidFrame(half)) => {
                            let _ = writer.write_all(half.as_bytes());
                            continue 'outer;
                        }
                        Some(Script::DropConnection) => continue 'outer,
                    }
                    // Exit as soon as the script is spent rather than
                    // blocking in read_line/accept after the last reply.
                    if script.peek().is_none() {
                        break 'outer;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn quick_cfg(addr: String) -> ClientConfig {
        ClientConfig {
            addr,
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            max_attempts: 5,
            ..ClientConfig::default()
        }
    }

    #[test]
    fn retries_through_drops_corruption_and_overload() {
        let ok = r#"{"ok":true,"result":"pong"}"#;
        let (addr, server) = scripted_server(vec![
            Script::DropConnection,
            Script::CloseMidFrame(r#"{"ok":tr"#),
            Script::Reply(r#";corrupt-not-json"#),
            Script::Reply(
                r#"{"ok":false,"error":{"kind":"overloaded","message":"shed","retry_after_ms":1}}"#,
            ),
            Script::Reply(ok),
        ]);
        let mut client = RetryClient::new(quick_cfg(addr));
        let doc = client
            .call("{\"op\":\"ping\"}")
            .expect("eventually succeeds");
        assert_eq!(doc.get("result").and_then(JsonValue::as_str), Some("pong"));
        let stats = client.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.retries, 4);
        assert_eq!(stats.corrupt_replies, 1);
        assert_eq!(stats.overloaded_backoffs, 1);
        assert!(stats.reconnects >= 3, "each dead stream forces a reconnect");
        server.join().expect("server exits");
    }

    #[test]
    fn definitive_rejections_are_not_retried() {
        let (addr, server) = scripted_server(vec![Script::Reply(
            r#"{"ok":false,"error":{"kind":"invalid","message":"unknown benchmark"}}"#,
        )]);
        let mut client = RetryClient::new(quick_cfg(addr));
        match client.call(r#"{"bench":"nope"}"#) {
            Err(ClientError::Rejected(doc)) => {
                assert_eq!(
                    doc.get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(JsonValue::as_str),
                    Some("invalid")
                );
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(client.stats().retries, 0);
        drop(client);
        server.join().expect("server exits");
    }

    #[test]
    fn a_resumed_call_counts_the_callers_failure_as_attempt_one() {
        let ok = r#"{"ok":true,"result":"pong"}"#;
        let (addr, server) = scripted_server(vec![Script::Reply(ok)]);
        let mut client = RetryClient::new(ClientConfig {
            max_attempts: 2,
            ..quick_cfg(addr.clone())
        });
        let shed = Transient::ServerError("overloaded", Some(1));
        assert_eq!(
            client.call_raw_after("{\"op\":\"ping\"}", Some(shed)).ok(),
            Some(ok.to_string())
        );
        let stats = client.stats();
        assert_eq!((stats.requests, stats.retries), (1, 1));
        assert_eq!((stats.overloaded_backoffs, stats.backoff_ms_total), (1, 1));
        server.join().expect("server exits");

        // With the budget already spent there is no attempt to make.
        let mut client = RetryClient::new(ClientConfig {
            max_attempts: 1,
            ..quick_cfg(addr)
        });
        let closed = Transient::Io("connection closed mid-request".to_string());
        match client.call_raw_after("{\"op\":\"ping\"}", Some(closed)) {
            Err(ClientError::Exhausted { attempts: 1, last }) => {
                assert_eq!(last, "connection closed mid-request")
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(client.stats().reconnects, 0);
    }

    #[test]
    fn exhaustion_reports_attempts_and_last_failure() {
        // Bind-then-drop: connections to the address are refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let mut client = RetryClient::new(ClientConfig {
            max_attempts: 3,
            connect_timeout: Duration::from_millis(200),
            backoff_base_ms: 1,
            backoff_cap_ms: 1,
            ..quick_cfg(addr)
        });
        match client.call("{\"op\":\"ping\"}") {
            Err(ClientError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn equal_seeds_produce_equal_backoff_schedules() {
        let schedule = |seed: u64| -> Vec<u64> {
            let mut c = RetryClient::new(ClientConfig {
                jitter_seed: seed,
                backoff_base_ms: 8,
                backoff_cap_ms: 64,
                ..ClientConfig::default()
            });
            (1..=6)
                .map(|attempt| {
                    let before = c.stats.backoff_ms_total;
                    // Zero actual sleeping in tests is not worth the
                    // plumbing; 8..=72 ms per step is tolerable.
                    c.backoff(attempt, None);
                    c.stats.backoff_ms_total - before
                })
                .collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }
}
