//! The reactor: one thread's event loop — accept, dispatch readiness to
//! client connections and upstreams, collect off-reactor completions,
//! tick the clocks — and the handlers for what a request line asks
//! (admin ops and predicts).
//!
//! Batch and pool completions come back through a [`ReactorHub`] whose
//! [`poll::Waker`] pops the reactor out of its wait.
//!
//! Every request gets a [`TraceCtx`] whose id comes from a process-wide
//! counter, so ids are unique and monotone per connection. The context
//! records parse and reply-write spans on the reactor; the shard worker
//! tags queue-wait, dedup, cache-probe, engine-exec and pool-region
//! spans with the same id — one Chrome trace follows a request across
//! all layers. When `slow_us` is configured, any predict at or above
//! the threshold carries its span dump in the reply's `trace` field and
//! lands in the admin `slow` log.

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rvhpc_faults::{note_recovery, FaultSite};
use rvhpc_obs::{self as obs, EventKind, JsonValue, TraceCtx};

use super::conn::{Conn, ConnState, PendingPredict, Step, Verdict};
use super::metrics::{bump, rate};
use super::upstream::{Upstream, TOKEN_UPSTREAM};
use super::{drain_requested, request_drain, Shared, READ_POLL};
use crate::batch::{AdmissionError, Completion, CompletionPort, Job, JobResult, ReplySink};
use crate::cluster::{Forward, ForwardOutcome};
use crate::poll::{self, fd_of, Interest, PollEvent, Poller};
use crate::proto::{self, ErrorKind, PredictRequest, Priority, ProtoError, Request};

/// Most retained slow-request dumps (admin `slow` op).
const SLOW_LOG_CAP: usize = 64;
/// Reactor-internal token for the acceptor socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reactor-internal token for the wake channel.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Returns from [`Poller::wait`], every reactor in the process: lets a
/// test bound how often a parked connection wakes its reactor.
#[cfg(test)]
static LOOP_PASSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide trace id sequence. Ids start at 1 (0 marks "no trace")
/// and are handed out in request order, so within one connection they
/// are strictly increasing and across every server in the process they
/// never collide.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

fn next_trace_id() -> u64 {
    TRACE_SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

/// One finished piece of off-reactor work.
pub(super) enum Done {
    /// A batcher completion (local predict).
    Job(Completion),
    /// A cluster forward came back from the pool.
    Forward { token: u64, outcome: ForwardOutcome },
    /// The pool finished connecting an upstream.
    Connected {
        token: u64,
        stream: std::io::Result<TcpStream>,
    },
}

/// The reactor's completion mailbox: batch workers and forwarders push
/// results from their own threads, then wake the reactor. Implements
/// [`CompletionPort`] so a [`ReplySink::port`] can point straight at it.
pub(super) struct ReactorHub {
    done: Mutex<Vec<Done>>,
    waker: poll::Waker,
}

impl ReactorHub {
    pub(super) fn post(&self, done: Done) {
        self.done.lock().push(done);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock())
    }
}

impl CompletionPort for ReactorHub {
    fn complete(&self, completion: Completion) {
        self.post(Done::Job(completion));
    }
}

/// One structured error reply line.
pub(super) fn error_reply(id: Option<u64>, kind: ErrorKind, message: impl Into<String>) -> String {
    proto::render_error(&ProtoError::new(id, kind, message))
}

/// Account for one local predict's outcome and render its reply line:
/// the one place that counts `ok`, cache warmth and the QoS class,
/// records the service time and keeps the slow-request dump, for a
/// shard worker's completion and for a hot hit answered on the reactor
/// alike — so the metrics document and the reply bytes do not depend on
/// which of the two served the request. `result` is `None` when the
/// worker abandoned the batch.
fn settle_predict(
    sh: &Shared,
    conn: &mut Conn,
    req: &PredictRequest,
    trace: &mut TraceCtx,
    enqueued_us: u64,
    result: Option<JobResult>,
) -> String {
    let Some(res) = result else {
        // The batch was abandoned after repeated panics; the dropped
        // ReplySink delivered this tombstone.
        bump(&sh.counters.internal_errors);
        return error_reply(req.id, ErrorKind::Internal, "worker dropped the job");
    };
    bump(&sh.counters.ok);
    if let Some(pr) = req.priority {
        bump(&sh.counters.class_ok[pr.index()]);
        sh.counters.class_latency[pr.index()]
            .lock()
            .record(res.service_us);
    }
    if res.cached {
        bump(&sh.counters.cache_hits);
        conn.hits += 1;
    } else {
        bump(&sh.counters.cache_misses);
        conn.misses += 1;
    }
    sh.counters.service.lock().record(res.service_us);
    // The engine-side spans go into this request's retained dump only:
    // whoever executed the probe recorded them into its own ring.
    trace.retain_span(EventKind::QueueWait, "queue", enqueued_us, res.queue_us);
    trace.retain_span(
        EventKind::EngineExec,
        "execute",
        enqueued_us + res.queue_us,
        res.exec_us,
    );
    trace.retain_span(
        EventKind::CacheProbe,
        if res.cached {
            "cache-hit"
        } else {
            "cache-miss"
        },
        enqueued_us,
        0,
    );
    if sh.slow_us.is_some_and(|t| res.service_us >= t) {
        let dump = trace.dump();
        let reply = proto::render_prediction(req, &res.pred, Some(&dump));
        let mut log = sh.slow_log.lock();
        if log.len() == SLOW_LOG_CAP {
            log.pop_front();
        }
        log.push_back(dump);
        reply
    } else {
        proto::render_prediction(req, &res.pred, None)
    }
}

pub(super) struct Reactor {
    pub(super) shared: Arc<Shared>,
    pub(super) poller: Poller,
    pub(super) hub: Arc<ReactorHub>,
    waker_rx: poll::WakeRx,
    listener: TcpListener,
    listener_open: bool,
    conns: HashMap<u64, Conn>,
    /// In-flight predict tokens → connection id. A completion whose
    /// token is absent (deadline already answered, connection gone) is
    /// dropped — the result still landed in the cache.
    pub(super) pending: HashMap<u64, u64>,
    /// Upstream connections by node index (router mode; empty
    /// otherwise), at most `forward_workers` each.
    pub(super) upstreams: Vec<Vec<Upstream>>,
    pub(super) next_upstream: u32,
    next_conn: u64,
    next_seq: u64,
    events: Vec<PollEvent>,
}

impl Reactor {
    pub(super) fn new(
        shared: Arc<Shared>,
        poller: Poller,
        waker: poll::Waker,
        waker_rx: poll::WakeRx,
        listener: TcpListener,
    ) -> Reactor {
        let nodes = shared.router.as_ref().map_or(0, |r| r.config().nodes.len());
        Reactor {
            shared,
            poller,
            hub: Arc::new(ReactorHub {
                done: Mutex::new(Vec::new()),
                waker,
            }),
            waker_rx,
            listener,
            listener_open: true,
            conns: HashMap::new(),
            pending: HashMap::new(),
            upstreams: (0..nodes).map(|_| Vec::new()).collect(),
            next_upstream: 0,
            next_conn: 0,
            next_seq: 0,
            events: Vec::new(),
        }
    }

    pub(super) fn run(mut self) {
        for (fd, token) in [
            (fd_of(&self.listener), TOKEN_LISTENER),
            (fd_of(&self.waker_rx), TOKEN_WAKER),
        ] {
            if self.poller.register(fd, token, Interest::READ).is_err() {
                return;
            }
        }
        loop {
            if drain_requested() {
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = self.wait_timeout();
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            #[cfg(test)]
            LOOP_PASSES.fetch_add(1, Ordering::Relaxed);
            for i in 0..events.len() {
                let ev = events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => poll::drain_wakes(&mut self.waker_rx),
                    t if t >= TOKEN_UPSTREAM => {
                        self.on_upstream_event(t, ev.readable || ev.hangup, ev.writable)
                    }
                    id => self.on_conn_event(id, ev),
                }
            }
            self.events = events;
            for done in self.hub.drain() {
                self.on_done(done);
            }
            self.tick();
        }
    }

    /// Next wait's upper bound: the nearest predict deadline or stall
    /// cutoff, capped at [`READ_POLL`] so drains are noticed.
    fn wait_timeout(&self) -> Duration {
        let stall = self.shared.stall_timeout;
        let nearest = self.conns.values().filter_map(|c| c.next_wake(stall));
        let now = Instant::now();
        nearest.fold(READ_POLL, |t, at| t.min(at.saturating_duration_since(now)))
    }

    /// Run one I/O step on connection `id` and close the connection if
    /// the step's verdict says so. By id, not by reference: the callers
    /// sit behind handlers that can re-enter this reactor and close or
    /// re-park the very connection they were called for, so none of
    /// them can carry a `&mut Conn` across.
    fn conn_io(&mut self, id: u64, step: impl FnOnce(&mut Conn, &mut Poller) -> Verdict) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if step(conn, &mut self.poller) == Verdict::Close {
            self.close_conn(id);
        }
    }

    /// Append a frame to the connection's outbuf and flush what the
    /// socket will take now.
    fn queue_frame(&mut self, id: u64, reply: &str) {
        self.conn_io(id, |conn, poller| {
            conn.io.queue_line(reply);
            conn.flush(poller)
        });
    }

    fn update_interest(&mut self, id: u64) {
        self.conn_io(id, |conn, poller| {
            conn.update_interest(poller);
            Verdict::Keep
        });
    }

    /// Drain mode: stop accepting, convert every connection to
    /// close-after-current-work. Idempotent — runs every loop pass
    /// while draining, closing connections as their work completes.
    fn begin_drain(&mut self) {
        if self.listener_open {
            let _ = self.poller.deregister(fd_of(&self.listener));
            self.listener_open = false;
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.conn_io(id, |conn, poller| {
                conn.close_after_flush = true;
                if matches!(conn.state, ConnState::Ready) && !conn.io.has_unsent() {
                    return Verdict::Close;
                }
                conn.update_interest(poller);
                Verdict::Keep
            });
        }
    }

    fn accept_burst(&mut self) {
        if !self.listener_open {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(_) => {
                    // Transient accept failure (fd pressure etc.): the
                    // level-triggered poll retries on the next pass.
                    bump(&self.shared.counters.conns_rejected);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let conn_ord = self
            .shared
            .counters
            .conns_accepted
            .fetch_add(1, Ordering::Relaxed) as u32;
        self.shared.active.fetch_add(1, Ordering::Relaxed);
        let id = self.next_conn;
        self.next_conn += 1;
        if self
            .poller
            .register(fd_of(&stream), id, Interest::READ)
            .is_err()
        {
            bump(&self.shared.counters.conns_closed);
            self.shared.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.conns.insert(id, Conn::new(stream, id, conn_ord));
    }

    fn on_conn_event(&mut self, id: u64, ev: PollEvent) {
        let mut filled = false;
        self.conn_io(id, |conn, poller| {
            if ev.writable && conn.flush(poller) == Verdict::Close {
                return Verdict::Close;
            }
            if !(ev.readable || ev.hangup) {
                return Verdict::Keep;
            }
            if matches!(conn.state, ConnState::Ready) {
                filled = true;
                return conn.fill();
            }
            if ev.hangup {
                // Dead in both directions: nobody is left to answer, and an
                // error condition cannot be masked out of the poll set.
                return Verdict::Close;
            }
            conn.read_muted = true;
            conn.update_interest(poller);
            Verdict::Keep
        });
        if filled {
            self.advance(id);
        }
    }

    /// Process every complete request line buffered on the connection,
    /// stopping when it leaves `Ready` (in-flight predict), runs
    /// out of complete lines, or closes.
    pub(super) fn advance(&mut self, id: u64) {
        loop {
            // Looked up afresh for every line: `handle_line` can re-enter
            // this reactor for the same id (a forward that fails on the
            // spot is shed from inside `send_upstream`) and close it.
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if drain_requested() {
                // Stop consuming between requests; the drain sweep in
                // the main loop closes this connection.
                conn.close_after_flush = true;
                break;
            }
            if conn.close_after_flush || !matches!(conn.state, ConnState::Ready) {
                break;
            }
            let conn_ord = conn.conn_ord;
            let keep = match conn.next_step() {
                Step::Idle => break,
                Step::Close => return self.close_conn(id),
                Step::Oversize => {
                    bump(&self.shared.counters.protocol_errors);
                    let reply = error_reply(None, ErrorKind::Parse, "request line exceeds 64 KiB");
                    conn.io.queue_line(&reply);
                    false
                }
                Step::Line(line) => self.handle_line(id, conn_ord, &line),
            };
            if !keep {
                self.conn_io(id, |conn, poller| conn.shutdown_graceful(poller));
                break;
            }
        }
        self.update_interest(id);
    }

    /// Process one request line; returns false when the connection
    /// should close (after flushing what was queued).
    fn handle_line(&mut self, id: u64, conn_ord: u32, line: &str) -> bool {
        if line.is_empty() {
            return true;
        }
        let sh = Arc::clone(&self.shared);
        bump(&sh.counters.requests);
        // One trace per request: the id is process-unique and monotone
        // within the connection. The same context threads through parse,
        // the shard handoff (via the Job), and the reply write.
        let mut trace = TraceCtx::start(next_trace_id(), conn_ord);
        if sh.slow_us.is_some() {
            trace.set_retain(true);
        }
        trace.push("parse");
        let parsed = proto::parse_request(line);
        trace.pop(EventKind::ProtoParse);
        let mut quit = false;
        let reply = match parsed {
            Err(e) => {
                let counter = match e.kind {
                    ErrorKind::Parse => &sh.counters.protocol_errors,
                    _ => &sh.counters.invalid,
                };
                bump(counter);
                proto::render_error(&e)
            }
            Ok(Request::Ping) => {
                bump(&sh.counters.ok);
                proto::render_ok(None, JsonValue::from("pong"))
            }
            Ok(Request::Metrics) => {
                bump(&sh.counters.ok);
                proto::render_ok(None, sh.metrics_doc())
            }
            Ok(Request::Slow) => {
                bump(&sh.counters.ok);
                let log = sh.slow_log.lock();
                proto::render_ok(None, JsonValue::Array(log.iter().cloned().collect()))
            }
            Ok(Request::Quit) => {
                bump(&sh.counters.ok);
                quit = true;
                proto::render_ok(None, JsonValue::from("draining"))
            }
            Ok(Request::Predict(req)) => {
                return self.handle_predict(id, line, *req, trace);
            }
        };
        trace.push("reply");
        self.queue_frame(id, &reply);
        trace.pop(EventKind::ReplyWrite);
        if quit {
            request_drain();
        }
        !quit
    }

    /// Admit one predict: answer it here if it is a hot-cache hit;
    /// otherwise forward it to a ring owner (router mode) or submit it
    /// to a local shard, parking the connection in `Predicting` until
    /// the completion or its deadline.
    fn handle_predict(
        &mut self,
        id: u64,
        line: &str,
        req: PredictRequest,
        mut trace: TraceCtx,
    ) -> bool {
        let sh = Arc::clone(&self.shared);
        // Per-class QoS accounting covers only requests that named a
        // class; class-less requests are admitted as interactive but
        // recorded nowhere class-specific, so their replies and metrics
        // stay byte-identical to the pre-QoS protocol.
        if let Some(p) = req.priority {
            bump(&sh.counters.class_requests[p.index()]);
        }
        // Chaos: a queue-saturation burst sheds the request at admission
        // exactly as a genuinely full shard queue would — an `overloaded`
        // reply carrying the structured back-off hint.
        if let Some(inj) = &sh.injector {
            if inj.roll(FaultSite::QueueSaturate).is_some() {
                return self.shed(id, &req, &mut trace, false, "shard queues saturated");
            }
        }
        let (plan, query) = req.to_plan();
        let enqueued_us = obs::now_us();
        let enqueued_at = Instant::now();
        // A hot-tier hit is answered here: the probe costs less than
        // handing the job to a shard worker and being woken for its
        // completion. Only that case — a miss computes and a disk-tier
        // hit reads a file, neither of which may block a reactor; a
        // router owns no predictions; and under a fault plan every
        // request must reach the worker, whose stall and panic rolls are
        // scheduled per pickup.
        if sh.router.is_none() && sh.injector.is_none() {
            if let Some(pred) = sh.batcher.engine().hot_hit(&plan, &query) {
                let exec_us = enqueued_at.elapsed().as_micros() as u64;
                let Some(conn) = self.conns.get_mut(&id) else {
                    return false;
                };
                if trace.is_enabled() {
                    // What the worker's own context would have put in
                    // its ring, under this request's id.
                    for (kind, name, dur_us) in [
                        (EventKind::CacheProbe, "cache-hit", 0),
                        (EventKind::EngineExec, "execute", exec_us),
                    ] {
                        obs::record(obs::Event {
                            kind,
                            name,
                            tid: conn.conn_ord,
                            start_us: enqueued_us,
                            dur_us,
                            arg: trace.id(),
                        });
                    }
                }
                let result = JobResult {
                    pred,
                    cached: true,
                    service_us: exec_us,
                    queue_us: 0,
                    exec_us,
                };
                let reply = settle_predict(&sh, conn, &req, &mut trace, enqueued_us, Some(result));
                return self.finish_predict_reply(id, &mut trace, &reply);
            }
        }
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(sh.default_deadline);
        let seq = self.next_seq;
        self.next_seq += 1;
        let (trace_id, class) = (trace.id(), req.priority.unwrap_or(Priority::Interactive));
        let mut p = PendingPredict {
            seq,
            req: Box::new(req),
            trace,
            deadline_at: Instant::now() + deadline,
            deadline,
            enqueued_us,
        };
        if let Some(router) = &sh.router {
            let fingerprint = plan.key_of(&query).fingerprint();
            let forward = Forward {
                line: line.to_string(),
                fingerprint,
                order: router.route(fingerprint),
                token: seq,
            };
            self.park(id, p);
            return self.forward_predict(id, forward);
        }
        let job = Job {
            plan,
            query,
            enqueued_at,
            trace_id,
            enqueued_us,
            class,
            reply: ReplySink::port(Arc::clone(&self.hub) as Arc<dyn CompletionPort>, seq),
        };
        match sh.batcher.submit(job) {
            Err(AdmissionError::QueueFull) => {
                return self.shed(id, &p.req, &mut p.trace, true, "shard queue full");
            }
            Err(AdmissionError::Draining) => {
                let reply = error_reply(p.req.id, ErrorKind::Draining, "server is draining");
                return self.finish_predict_reply(id, &mut p.trace, &reply);
            }
            Ok(()) => {}
        }
        self.park(id, p);
        true
    }

    /// Park connection `id` on a predict until its completion, its
    /// upstream's reply, or its deadline.
    fn park(&mut self, id: u64, p: PendingPredict) {
        self.pending.insert(p.seq, id);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.state = ConnState::Predicting(p);
        }
    }

    /// Shed one predict with an `overloaded` reply carrying the
    /// structured back-off hint. `genuine` is false for an injected
    /// saturation burst, which is not an admission rejection.
    pub(super) fn shed(
        &mut self,
        id: u64,
        req: &PredictRequest,
        trace: &mut TraceCtx,
        genuine: bool,
        what: &str,
    ) -> bool {
        let counters = &self.shared.counters;
        if genuine {
            bump(&counters.rejected_admission);
        }
        bump(&counters.shed_total);
        if let Some(p) = req.priority {
            bump(&counters.class_shed[p.index()]);
        }
        note_recovery("load-shed", trace.id());
        let reply = proto::render_error(
            &ProtoError::new(
                req.id,
                ErrorKind::Overloaded,
                format!("{what}, retry later"),
            )
            .with_retry_after(self.shared.retry_after_ms),
        );
        self.finish_predict_reply(id, trace, &reply)
    }

    fn on_done(&mut self, done: Done) {
        match done {
            Done::Job(c) => self.on_job_done(c),
            Done::Forward { token, outcome } => {
                // Absent: deadline already answered or the connection
                // is gone.
                if let Some(id) = self.pending.remove(&token) {
                    self.finish_forward(id, outcome);
                }
            }
            Done::Connected { token, stream } => self.on_connected(token, stream),
        }
    }

    /// Un-park connection `id`, handing back the predict it waited on.
    pub(super) fn take_parked(&mut self, id: u64) -> Option<PendingPredict> {
        self.conns.get_mut(&id)?.take_parked()
    }

    fn on_job_done(&mut self, c: Completion) {
        let Some(id) = self.pending.remove(&c.token) else {
            // Deadline already answered or the connection is gone; the
            // computed result still landed in the cache.
            return;
        };
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(p) = conn.take_parked() else {
            return;
        };
        let mut trace = p.trace;
        let reply = settle_predict(
            &self.shared,
            conn,
            &p.req,
            &mut trace,
            p.enqueued_us,
            c.result,
        );
        if self.finish_predict_reply(id, &mut trace, &reply) {
            self.advance(id);
        }
    }

    /// Wrap a predict reply in its reply-write span and push it through
    /// the chaos choke point ([`Conn::queue_through_faults`]) when a
    /// fault plan is active. Returns false when the connection must
    /// close (injected drop); true lets a parked predict's caller go on
    /// with the lines buffered behind it.
    pub(super) fn finish_predict_reply(
        &mut self,
        id: u64,
        trace: &mut TraceCtx,
        reply: &str,
    ) -> bool {
        trace.push("reply");
        let mut keep = true;
        if let Some(conn) = self.conns.get_mut(&id) {
            match &self.shared.injector {
                None => conn.io.queue_line(reply),
                Some(inj) => keep = conn.queue_through_faults(inj, reply),
            }
            if conn.flush(&mut self.poller) == Verdict::Close {
                self.close_conn(id);
            }
        }
        trace.pop(EventKind::ReplyWrite);
        keep
    }

    /// Reactor-clock work: expired predict deadlines and read/write
    /// stall sheds.
    fn tick(&mut self) {
        let now = Instant::now();
        self.tick_upstreams(now);
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let expired = self.conns.get_mut(&id).and_then(|conn| match &conn.state {
                ConnState::Predicting(p) if now >= p.deadline_at => conn.take_parked(),
                _ => None,
            });
            if let Some(p) = expired {
                // The completion (or the upstream's reply), when it
                // eventually arrives, finds no pending entry and is
                // dropped — but the result still lands in the cache,
                // exactly like the blocking `recv_timeout` path.
                self.pending.remove(&p.seq);
                bump(&self.shared.counters.deadline_expired);
                let what = format!("deadline of {} ms expired", p.deadline.as_millis());
                let reply = error_reply(p.req.id, ErrorKind::Deadline, what);
                let mut trace = p.trace;
                if self.finish_predict_reply(id, &mut trace, &reply) {
                    self.advance(id);
                }
                continue;
            }
            self.tick_stalls(id, now);
        }
    }

    fn tick_stalls(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        let stall = self.shared.stall_timeout;
        let stalled =
            |since: Option<Instant>| since.is_some_and(|s| now.duration_since(s) >= stall);
        if matches!(conn.state, ConnState::Ready) && stalled(conn.partial_since) {
            bump(&self.shared.counters.stalled_conns_shed);
            note_recovery("stalled-conn-shed", u64::from(conn.conn_ord));
            self.close_conn(id);
        } else if stalled(conn.write_blocked_since) {
            // The blocking path bounded writes with a socket write
            // timeout; a peer that won't drain its replies is cut off
            // the same way.
            self.close_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        if let ConnState::Predicting(p) = &conn.state {
            self.pending.remove(&p.seq);
        }
        if let Some(stream) = &conn.io.stream {
            let _ = self.poller.deregister(fd_of(stream));
            if conn.hard_close {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if conn.hits + conn.misses > 0 {
            *self.shared.counters.conn_hit_rate_sum.lock() += rate(conn.hits, conn.misses);
        }
        bump(&self.shared.counters.conns_closed);
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::server::{reset_drain, Server, ServerConfig};
    use rvhpc_core::engine::Engine;
    use rvhpc_faults::FaultPlan;
    use std::io::{BufRead, BufReader, Read, Write};

    fn metrics(admin: &mut BufReader<TcpStream>) -> JsonValue {
        admin
            .get_mut()
            .write_all(b"{\"op\":\"metrics\"}\n")
            .expect("write");
        let mut reply = String::new();
        admin.read_line(&mut reply).expect("read");
        obs::json::parse(reply.trim_end()).expect("metrics reply parses")
    }

    /// Read interest stays armed across a park, so what arrives while a
    /// connection is parked — pipelined lines, then a half-close, both
    /// level-triggered — must wake the reactor once, not once per loop
    /// pass; and the lines are still answered in request order.
    #[test]
    fn parked_connection_is_not_read_and_does_not_spin_the_reactor() {
        const STALL_MS: u64 = 300;
        reset_drain();
        // The only worker stalls on its first pickup: the first predict
        // stays parked for STALL_MS whatever the machine's speed.
        let plan = format!("seed=1,stall=1:1x1/{STALL_MS}");
        let engine: &'static Engine = Box::leak(Box::new(Engine::new()));
        let server = Server::bind_on(
            ServerConfig {
                reactors: 1,
                shards: 1,
                pool_threads: 1,
                faults: Some(FaultPlan::parse(&plan).expect("plan parses")),
                ..ServerConfig::default()
            },
            engine,
        )
        .expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("run"));

        let predict = |id: u32| {
            format!("{{\"op\":\"predict\",\"id\":{id},\"bench\":\"cg\",\"class\":\"B\",\"threads\":8,\"machine\":\"sg2044\"}}\n")
        };
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(predict(1).as_bytes()).expect("write");
        let mut admin = BufReader::new(TcpStream::connect(addr).expect("connect"));
        let stalled = |doc: &JsonValue| {
            ["result", "faults", "injected", "stall", "injected"]
                .iter()
                .try_fold(doc, |d, key| d.get(key))
                .and_then(JsonValue::as_f64)
        };
        while stalled(&metrics(&mut admin)) != Some(1.0) {
            std::thread::yield_now();
        }

        let before = LOOP_PASSES.load(Ordering::Relaxed);
        client
            .write_all(format!("{}{{\"op\":\"ping\"}}\n", predict(2)).as_bytes())
            .expect("write");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut replies = String::new();
        client.read_to_string(&mut replies).expect("read to EOF");
        let passes = LOOP_PASSES.load(Ordering::Relaxed) - before;

        let replies: Vec<&str> = replies.lines().collect();
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert!(
            replies[0].starts_with("{\"id\":1,\"ok\":true,"),
            "{replies:?}"
        );
        assert!(
            replies[1].starts_with("{\"id\":2,\"ok\":true,"),
            "{replies:?}"
        );
        assert_eq!(replies[2], "{\"ok\":true,\"result\":\"pong\"}");
        // One pass for the pipelined bytes, one per READ_POLL tick of
        // the stall, a handful to answer and close; a level-triggered
        // spin would be tens of thousands.
        let ticks = STALL_MS / READ_POLL.as_millis() as u64;
        assert!(passes <= ticks + 16, "{passes} loop passes while parked");

        admin
            .get_mut()
            .write_all(b"{\"op\":\"quit\"}\n")
            .expect("write");
        handle.join().expect("server thread");
        reset_drain();
    }
}
