//! Router mode on the reactor: forwarding a predict to a cluster node
//! over a nonblocking [`Upstream`] connection the reactor polls beside
//! its clients, and handing to the
//! [`Forwarder`](crate::cluster::Forwarder) pool only what must block
//! (connects, retries, failover, every forward under a fault plan).
//! Pool completions come back through the reactor's hub.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rvhpc_obs as obs;

use super::conn::{LineIo, Split};
use super::metrics::bump;
use super::reactor::{error_reply, Done, Reactor};
use super::Shared;
use crate::client::{classify_reply, Transient};
use crate::cluster::{ConnectJob, Forward, ForwardJob, ForwardOutcome, PoolJob};
use crate::poll::{fd_of, Interest, Poller};
use crate::proto::{ErrorKind, PredictRequest};

/// Tokens from here up (below the listener's and the waker's) are
/// upstream connections, `TOKEN_UPSTREAM | node << 32 | serial`;
/// connection ids count up from zero and never get here.
pub(super) const TOKEN_UPSTREAM: u64 = 1 << 62;
/// Hard cap on one upstream reply line (a reply may carry a span dump,
/// so it is far above the request cap); a node that exceeds it is cut
/// off like one that sent garbage.
const MAX_REPLY_BYTES: usize = 4 * 1024 * 1024;

/// Account for one cluster forward's outcome and give its reply line:
/// the router-mode sibling of `settle_predict`, shared by the reactor's
/// own relay and the pool's completion so the counters cannot tell the
/// two apart.
fn settle_forward(
    sh: &Shared,
    req: &PredictRequest,
    enqueued_us: u64,
    outcome: ForwardOutcome,
) -> String {
    match outcome {
        ForwardOutcome::Reply(raw) => {
            // The owner's reply is relayed byte-for-byte. Service
            // accounting covers the whole forward round trip; cache
            // warmth is the owner's story, not the router's.
            // `render_ok` leads with the echoed id when present, so
            // match the marker anywhere in the (single-line) frame.
            if raw.contains("\"ok\":true") {
                bump(&sh.counters.ok);
                let service_us = obs::now_us().saturating_sub(enqueued_us);
                sh.counters.service.lock().record(service_us);
                if let Some(pr) = req.priority {
                    bump(&sh.counters.class_ok[pr.index()]);
                    sh.counters.class_latency[pr.index()]
                        .lock()
                        .record(service_us);
                }
            }
            raw
        }
        ForwardOutcome::Failed(last) => {
            bump(&sh.counters.internal_errors);
            let what = format!("cluster forward failed: {last}");
            error_reply(req.id, ErrorKind::Internal, what)
        }
    }
}

/// One nonblocking connection from this reactor to a cluster node.
///
/// INVARIANT (FIFO matching): a node serves one connection's lines in
/// the order it read them and answers each with exactly one line, so
/// the k-th reply line read from the stream answers the k-th request
/// line written to it. `inflight` *is* that order: a [`Forward`] is
/// pushed exactly when its line is queued on `io`, and the front is
/// popped exactly when one complete line is split off it — never for an
/// expired deadline or a closed client, whose replies still arrive, are
/// popped, and find nobody waiting. Whatever would break the pairing —
/// EOF, a transport error, a corrupt, oversize or unsolicited frame, a
/// reply overdue by `read_timeout_ms` — retires the whole connection
/// ([`Reactor::fail_upstream`]) and hands every forward still in
/// `inflight` to the pool; none is ever matched against a later line.
pub(super) struct Upstream {
    token: u64,
    /// Streamless until the pool's connect job hands the stream over;
    /// lines queue meanwhile.
    io: LineIo,
    write_armed: bool,
    inflight: VecDeque<Forward>,
    /// Since when the reply now due (the front of `inflight`) has been
    /// awaited: restarted when a line joins an idle upstream and at
    /// every reply.
    waiting_since: Instant,
}

impl Upstream {
    /// Write the buffered lines until the socket blocks or the buffer
    /// empties, keeping write interest in step; `Err` says why the
    /// stream is broken.
    fn flush(&mut self, poller: &mut Poller) -> Result<(), String> {
        let Some(fd) = self.io.fd() else {
            return Ok(());
        };
        let blocked = self.io.flush().map_err(|e| e.to_string())?;
        if blocked != self.write_armed {
            let want = Interest {
                read: true,
                write: blocked,
            };
            if poller.reregister(fd, self.token, want).is_ok() {
                self.write_armed = blocked;
            }
        }
        Ok(())
    }
}

fn upstream_node(token: u64) -> usize {
    ((token & !TOKEN_UPSTREAM) >> 32) as usize
}

fn find_upstream(upstreams: &mut [Vec<Upstream>], token: u64) -> Option<&mut Upstream> {
    upstreams
        .get_mut(upstream_node(token))?
        .iter_mut()
        .find(|u| u.token == token)
}

/// Whether an upstream reply line can be relayed without parsing it: a
/// brace-delimited frame carrying the success marker, which is what
/// every `ok` reply a node renders looks like and what a corrupted or
/// cut-off one does not. Everything else takes [`classify_reply`].
fn is_ok_frame(raw: &str) -> bool {
    raw.starts_with('{') && raw.ends_with('}') && raw.contains("\"ok\":true")
}

impl Reactor {
    /// A forward ended, on either entry: settle it and answer.
    pub(super) fn finish_forward(&mut self, id: u64, outcome: ForwardOutcome) {
        let Some(p) = self.take_parked(id) else {
            return;
        };
        let mut trace = p.trace;
        let reply = settle_forward(&self.shared, &p.req, p.enqueued_us, outcome);
        if self.finish_predict_reply(id, &mut trace, &reply) {
            self.advance(id);
        }
    }

    /// Send the forward connection `id` has just been parked on: the
    /// raw request line travels to the ring owner verbatim, so the
    /// owner's reply bytes are exactly what a directly-connected client
    /// would have received. This reactor writes it itself; the pool
    /// takes it when no upstream can be had, and always under a fault
    /// plan, whose partition rolls are scheduled per worker pickup.
    /// Parked before the send: a write that fails on the spot already
    /// hands the forward on, and that looks the connection up.
    pub(super) fn forward_predict(&mut self, id: u64, forward: Forward) -> bool {
        let seq = forward.token;
        let unsent = match self.shared.injector {
            None => self.send_upstream(forward).err(),
            Some(_) => Some(forward),
        };
        if unsent.is_some_and(|forward| !self.submit_forward(forward, None)) {
            self.pending.remove(&seq);
            let Some(p) = self.take_parked(id) else {
                return false;
            };
            let mut trace = p.trace;
            return self.shed(id, &p.req, &mut trace, true, "forward queue full");
        }
        true
    }

    /// Hand a forward to the pool; false when its queue is full or
    /// draining. `failed` is how this reactor's own attempt ended, if
    /// it made one.
    fn submit_forward(&self, forward: Forward, failed: Option<Transient>) -> bool {
        let Some(pool) = &self.shared.forwarder else {
            return false;
        };
        let hub = Arc::clone(&self.hub);
        pool.submit(PoolJob::Forward(ForwardJob {
            forward,
            failed,
            done: Box::new(move |token, outcome| hub.post(Done::Forward { token, outcome })),
        }))
    }

    /// A forward this reactor could not finish goes to the pool, which
    /// resumes from `failed`; one whose client no longer waits (deadline
    /// answered, connection gone) is dropped.
    fn resubmit(&mut self, forward: Forward, failed: Transient) {
        let token = forward.token;
        if !self.pending.contains_key(&token) || self.submit_forward(forward, Some(failed)) {
            return;
        }
        let Some(id) = self.pending.remove(&token) else {
            return;
        };
        let Some(p) = self.take_parked(id) else {
            return;
        };
        let mut trace = p.trace;
        if self.shed(id, &p.req, &mut trace, true, "forward queue full") {
            self.advance(id);
        }
    }

    /// Write one forward to an upstream of its first owner: an idle
    /// connection if there is one, else a new one while the node has
    /// fewer than `forward_workers`, else pipelined behind the
    /// shortest queue. Hands the forward back when no upstream can be
    /// had (no owner, or the pool refused the connect job).
    fn send_upstream(&mut self, forward: Forward) -> Result<(), Forward> {
        let sh = Arc::clone(&self.shared);
        let (Some(router), Some(pool), Some(&node)) =
            (&sh.router, &sh.forwarder, forward.order.first())
        else {
            return Err(forward);
        };
        let upstreams = &mut self.upstreams[node];
        let shortest = upstreams
            .iter()
            .enumerate()
            .map(|(at, up)| (up.inflight.len(), at))
            .min();
        let at = match shortest {
            Some((0, at)) => at,
            Some((_, at)) if upstreams.len() >= router.config().forward_workers.max(1) => at,
            _ => {
                let token = TOKEN_UPSTREAM | (node as u64) << 32 | u64::from(self.next_upstream);
                self.next_upstream = self.next_upstream.wrapping_add(1);
                let hub = Arc::clone(&self.hub);
                let opened = pool.submit(PoolJob::Connect(ConnectJob {
                    node,
                    done: Box::new(move |stream| hub.post(Done::Connected { token, stream })),
                }));
                match (opened, shortest) {
                    (true, _) => {
                        upstreams.push(Upstream {
                            token,
                            io: LineIo::default(),
                            write_armed: false,
                            inflight: VecDeque::new(),
                            waiting_since: Instant::now(),
                        });
                        upstreams.len() - 1
                    }
                    (false, Some((_, at))) => at,
                    (false, None) => return Err(forward),
                }
            }
        };
        let up = &mut upstreams[at];
        up.io.queue_line(&forward.line);
        if up.inflight.is_empty() {
            up.waiting_since = Instant::now();
        }
        up.inflight.push_back(forward);
        router.note_sent(node, true);
        let token = up.token;
        if let Err(why) = up.flush(&mut self.poller) {
            self.fail_upstream(token, why);
        }
        Ok(())
    }

    /// The pool finished a connect job: adopt the stream and send what
    /// queued up meanwhile, or retire the upstream.
    pub(super) fn on_connected(&mut self, token: u64, stream: std::io::Result<TcpStream>) {
        let Some(up) = find_upstream(&mut self.upstreams, token) else {
            // Retired while connecting; the stream just closes.
            return;
        };
        let adopted = stream
            .and_then(|stream| {
                self.poller
                    .register(fd_of(&stream), token, Interest::READ)?;
                up.io.stream = Some(stream);
                Ok(())
            })
            .map_err(|e| e.to_string())
            .and_then(|()| up.flush(&mut self.poller));
        if let Err(why) = adopted {
            self.fail_upstream(token, why);
        }
    }

    /// Readiness on an upstream: flush, then read what arrived, split
    /// it into reply lines and match each to the forward at the front
    /// of the FIFO (see [`Upstream`]).
    pub(super) fn on_upstream_event(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(up) = find_upstream(&mut self.upstreams, token) else {
            return;
        };
        let mut broken = None;
        if writable {
            broken = up.flush(&mut self.poller).err();
        }
        if broken.is_none() && readable {
            match up.io.fill() {
                Ok(false) => {}
                Ok(true) => broken = Some("connection closed mid-request".to_string()),
                Err(e) => broken = Some(e.to_string()),
            }
            // A reply can re-enter this reactor (the client's next line is
            // forwarded from inside `finish_forward`) and even retire this
            // upstream, so look it up afresh for every line.
            while let Some(up) = find_upstream(&mut self.upstreams, token) {
                let raw = match up.io.next_line(MAX_REPLY_BYTES, false) {
                    Split::Line(raw) => raw,
                    Split::Oversize => {
                        broken = Some("reply frame exceeds 4 MiB".to_string());
                        break;
                    }
                    Split::Partial => break,
                };
                let Some(forward) = up.inflight.pop_front() else {
                    broken = Some("unsolicited reply frame".to_string());
                    break;
                };
                up.waiting_since = Instant::now();
                if !self.on_upstream_reply(token, forward, raw) {
                    broken = Some("corrupt reply bytes".to_string());
                    break;
                }
            }
        }
        if let Some(why) = broken {
            self.fail_upstream(token, why);
        }
    }

    /// One reply line for `forward`: relay it if the node answered
    /// (success or definitive rejection), hand the forward to the pool
    /// if the answer is transient. False when the frame was corrupt —
    /// the stream can no longer be trusted to be in step.
    fn on_upstream_reply(&mut self, token: u64, forward: Forward, raw: Vec<u8>) -> bool {
        let Some(&id) = self.pending.get(&forward.token) else {
            // Deadline already answered or the client is gone: the
            // late reply is consumed here and goes nowhere.
            return true;
        };
        let verdict = match String::from_utf8(raw) {
            Err(_) => Err(Transient::Corrupt),
            Ok(mut raw) => {
                raw.truncate(raw.trim_end().len());
                if is_ok_frame(&raw) {
                    Ok(raw)
                } else {
                    classify_reply(&raw).map(|_| raw)
                }
            }
        };
        match verdict {
            Ok(raw) => {
                if let Some(router) = &self.shared.router {
                    router.note_served(forward.fingerprint, upstream_node(token));
                }
                self.pending.remove(&forward.token);
                self.finish_forward(id, ForwardOutcome::Reply(raw));
                true
            }
            Err(failed) => {
                let in_step = !matches!(failed, Transient::Corrupt);
                self.resubmit(forward, failed);
                in_step
            }
        }
    }

    /// Retire an upstream that can no longer pair replies with
    /// forwards; everything it had in flight goes to the pool.
    pub(super) fn fail_upstream(&mut self, token: u64, why: String) {
        let Some(upstreams) = self.upstreams.get_mut(upstream_node(token)) else {
            return;
        };
        let Some(at) = upstreams.iter().position(|up| up.token == token) else {
            return;
        };
        let up = upstreams.swap_remove(at);
        if let Some(fd) = up.io.fd() {
            let _ = self.poller.deregister(fd);
        }
        for forward in up.inflight {
            self.resubmit(forward, Transient::Io(why.clone()));
        }
    }

    /// Retire every upstream whose due reply is overdue by the router's
    /// `read_timeout_ms` — a node that accepted the line and went
    /// silent — so the pool can retry and fail over.
    pub(super) fn tick_upstreams(&mut self, now: Instant) {
        let Some(router) = &self.shared.router else {
            return;
        };
        let read_timeout = Duration::from_millis(router.config().read_timeout_ms);
        let overdue: Vec<u64> = self
            .upstreams
            .iter()
            .flatten()
            .filter(|up| !up.inflight.is_empty())
            .filter(|up| now.duration_since(up.waiting_since) >= read_timeout)
            .map(|up| up.token)
            .collect();
        for token in overdue {
            self.fail_upstream(token, "timed out waiting for a reply".to_string());
        }
    }
}
