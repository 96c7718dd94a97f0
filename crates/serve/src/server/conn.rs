//! The line transport, and the client connection built on it.
//!
//! [`LineIo`] is the server's only code that reads a nonblocking
//! socket, splits one line under a cap, queues a line and writes until
//! the socket blocks. Its two users differ in their rules: a client
//! [`Conn`] caps a line at [`MAX_LINE_BYTES`] and takes an unterminated
//! last line at EOF as a request; an
//! [`Upstream`](super::upstream::Upstream) caps a reply at 4 MiB, takes
//! EOF mid-line as a broken stream, and has no stream while connecting.
//!
//! `Conn` adds what the connection is doing ([`ConnState`]), the poller
//! interest that follows from it and the stall clocks. Its I/O steps
//! return a [`Verdict`]: closing settles counters and the
//! pending-predict table, so it is the reactor's job.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rvhpc_faults::{FaultSite, Injector, TornWriter};
use rvhpc_obs::TraceCtx;

use crate::poll::{fd_of, Interest, Poller, RawFd};
use crate::proto::{self, PredictRequest};

/// Hard cap on one request line; longer input is a protocol error.
pub(super) const MAX_LINE_BYTES: usize = 64 * 1024;
/// One nonblocking read's scratch size.
const READ_CHUNK: usize = 16 * 1024;
/// Most bytes one readiness event may pull into a connection's input
/// buffer before yielding back to the event loop (level-triggered
/// polling re-fires for the rest), so one firehose client cannot
/// starve its reactor's other connections.
const FILL_CAP: usize = 256 * 1024;

/// What [`LineIo::next_line`] found.
pub(super) enum Split {
    /// One line, its `\n` and any `\r` before it stripped.
    Line(Vec<u8>),
    /// The line's content is longer than the cap, however it arrived:
    /// terminated, still growing, or cut off by EOF.
    Oversize,
    /// Nothing complete yet.
    Partial,
}

/// One nonblocking newline-delimited stream: an input buffer lines are
/// split off, an output buffer lines are queued on. The default is a
/// stream still connecting.
#[derive(Default)]
pub(super) struct LineIo {
    /// `None` until a connecting upstream's stream arrives; lines queue
    /// in `outbuf` meanwhile.
    pub(super) stream: Option<TcpStream>,
    inbuf: Vec<u8>,
    /// Bytes before this offset are known newline-free — incremental
    /// scans never re-walk old partial data.
    scan_from: usize,
    outbuf: Vec<u8>,
    outpos: usize,
}

impl LineIo {
    /// The descriptor to (de)register, once there is a stream.
    pub(super) fn fd(&self) -> Option<RawFd> {
        self.stream.as_ref().map(fd_of)
    }

    /// Whether queued output is still waiting for the socket.
    pub(super) fn has_unsent(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Whether input is buffered that no line has been split off yet.
    pub(super) fn has_unread(&self) -> bool {
        !self.inbuf.is_empty()
    }

    /// Pull what a readiness event promised into the input buffer,
    /// until a read comes back short or [`FILL_CAP`] bytes are in;
    /// `Ok(true)` when the peer has closed its side.
    pub(super) fn fill(&mut self) -> io::Result<bool> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(false);
        };
        let mut buf = [0u8; READ_CHUNK];
        let mut pulled = 0usize;
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    pulled += n;
                    // A short read emptied the socket buffer; asking again
                    // would only buy a `WouldBlock`. Polling is
                    // level-triggered, so bytes (or the EOF) arriving after
                    // this read fire another event.
                    if n < READ_CHUNK || pulled >= FILL_CAP {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Split the next line off the input buffer. The cap is on the
    /// bytes before the newline and holds for every line handed out, so
    /// what passes does not depend on how TCP segmented it. With
    /// `at_eof`, an unterminated rest counts as the last line.
    pub(super) fn next_line(&mut self, cap: usize, at_eof: bool) -> Split {
        let newline = self.inbuf[self.scan_from..]
            .iter()
            .position(|&b| b == b'\n');
        let len = match newline {
            Some(pos) => self.scan_from + pos,
            None => {
                self.scan_from = self.inbuf.len();
                if !at_eof || self.inbuf.is_empty() {
                    let grown = self.inbuf.len() > cap;
                    return if grown {
                        Split::Oversize
                    } else {
                        Split::Partial
                    };
                }
                self.inbuf.len()
            }
        };
        if len > cap {
            return Split::Oversize;
        }
        let terminator = usize::from(newline.is_some());
        let mut line: Vec<u8> = self.inbuf.drain(..len + terminator).collect();
        self.scan_from = 0;
        while let Some(b'\n' | b'\r') = line.last() {
            line.pop();
        }
        Split::Line(line)
    }

    /// Append raw bytes to the output buffer.
    pub(super) fn queue_bytes(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    /// Append one line and its newline to the output buffer.
    pub(super) fn queue_line(&mut self, line: &str) {
        self.queue_bytes(line.as_bytes());
        self.outbuf.push(b'\n');
    }

    /// Write queued output until the socket blocks or the buffer
    /// empties; `Ok(true)` while an unsent tail remains (the caller
    /// wants write interest). A no-op until there is a stream.
    pub(super) fn flush(&mut self) -> io::Result<bool> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(false);
        };
        while self.outpos < self.outbuf.len() {
            match stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepts no bytes",
                    ))
                }
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbuf.clear();
        self.outpos = 0;
        Ok(false)
    }
}

/// What an I/O step leaves its connection fit for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub(super) enum Verdict {
    Keep,
    /// Dead, or flushed and due to close: the reactor closes it.
    Close,
}

/// A predict waiting on its completion (local batch or cluster
/// forward).
pub(super) struct PendingPredict {
    pub(super) seq: u64,
    pub(super) req: Box<PredictRequest>,
    pub(super) trace: TraceCtx,
    pub(super) deadline_at: Instant,
    pub(super) deadline: Duration,
    pub(super) enqueued_us: u64,
}

/// What a connection is doing: reading requests, or waiting on one
/// predict. While `Predicting` the reactor neither reads from nor parses
/// the connection — the same one-request-at-a-time backpressure the
/// blocking loop had.
pub(super) enum ConnState {
    Ready,
    Predicting(PendingPredict),
}

/// What the incremental frame scanner found.
pub(super) enum Step {
    /// A complete request line, terminator stripped.
    Line(String),
    /// The line is longer than [`MAX_LINE_BYTES`].
    Oversize,
    /// Close silently: the peer closed with nothing buffered, or the
    /// line bytes are not UTF-8 (the blocking reader's `InvalidData`
    /// behavior).
    Close,
    /// Nothing complete yet.
    Idle,
}

/// One client connection.
pub(super) struct Conn {
    pub(super) io: LineIo,
    /// The poller token, and the key in the reactor's connection map.
    id: u64,
    pub(super) conn_ord: u32,
    interest: Interest,
    /// Read interest stays armed across a park, so a request/reply
    /// client costs no `epoll_ctl`; only a readable event that arrives
    /// while parked (pipelined bytes, a half-close — level-triggered,
    /// they would fire every pass) sets this and drops it until the
    /// connection is `Ready` again.
    pub(super) read_muted: bool,
    pub(super) state: ConnState,
    pub(super) close_after_flush: bool,
    pub(super) hard_close: bool,
    peer_closed: bool,
    pub(super) partial_since: Option<Instant>,
    pub(super) write_blocked_since: Option<Instant>,
    pub(super) hits: u64,
    pub(super) misses: u64,
}

impl Conn {
    /// A just-accepted connection, registered for read interest.
    pub(super) fn new(stream: TcpStream, id: u64, conn_ord: u32) -> Conn {
        Conn {
            io: LineIo {
                stream: Some(stream),
                ..LineIo::default()
            },
            id,
            conn_ord,
            interest: Interest::READ,
            read_muted: false,
            state: ConnState::Ready,
            close_after_flush: false,
            hard_close: false,
            peer_closed: false,
            partial_since: None,
            write_blocked_since: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Pull ready bytes into the input buffer. Reads only while the
    /// connection is `Ready` — in-flight work keeps the same
    /// backpressure the blocking loop enforced by not calling
    /// `read_line`.
    pub(super) fn fill(&mut self) -> Verdict {
        if self.close_after_flush || !matches!(self.state, ConnState::Ready) {
            return Verdict::Keep;
        }
        match self.io.fill() {
            Ok(eof) => {
                self.peer_closed |= eof;
                Verdict::Keep
            }
            Err(_) => Verdict::Close,
        }
    }

    /// The next request line, keeping the stall clock: a final
    /// unterminated line at EOF is still a request — the blocking
    /// reader's `read_line` behavior.
    pub(super) fn next_step(&mut self) -> Step {
        match self.io.next_line(MAX_LINE_BYTES, self.peer_closed) {
            Split::Line(raw) => {
                self.partial_since = None;
                String::from_utf8(raw).map_or(Step::Close, Step::Line)
            }
            Split::Oversize => Step::Oversize,
            Split::Partial if self.peer_closed => Step::Close,
            Split::Partial => {
                if !self.io.has_unread() {
                    self.partial_since = None;
                } else if self.partial_since.is_none() {
                    // A partial frame starts the stall clock: a client that
                    // opens a frame and stalls holds buffers hostage, so
                    // past the stall timeout it is shed.
                    self.partial_since = Some(Instant::now());
                }
                Step::Idle
            }
        }
    }

    /// Un-park the connection, handing back the predict it waited on.
    pub(super) fn take_parked(&mut self) -> Option<PendingPredict> {
        match std::mem::replace(&mut self.state, ConnState::Ready) {
            ConnState::Predicting(p) => Some(p),
            ConnState::Ready => None,
        }
    }

    /// When the reactor clock next owes this connection a look: its
    /// predict's deadline or a stall cutoff.
    pub(super) fn next_wake(&self, stall_timeout: Duration) -> Option<Instant> {
        let state = match &self.state {
            ConnState::Predicting(p) => Some(p.deadline_at),
            ConnState::Ready => self.partial_since.map(|s| s + stall_timeout),
        };
        let write = self.write_blocked_since.map(|s| s + stall_timeout);
        state.into_iter().chain(write).min()
    }

    /// Queue a predict reply through the chaos choke point: the corrupt,
    /// drop and torn sites each get one roll per reply, then the frame
    /// enters the outbuf. Admin replies bypass this, so metrics fetches
    /// always come back clean even mid-chaos. False when the connection
    /// must close once flushed (injected drop).
    pub(super) fn queue_through_faults(&mut self, inj: &Injector, reply: &str) -> bool {
        // Corrupt: flip the opening brace so the frame stays a single
        // newline-terminated line but no longer parses as JSON.
        let corrupted;
        let mut reply = reply;
        if inj.roll(FaultSite::CorruptReply).is_some() && !reply.is_empty() {
            corrupted = format!(";{}", &reply[1..]);
            reply = &corrupted;
        }
        // Drop: deliver half the frame, then hard-close the socket —
        // the client sees a mid-frame disconnect.
        if inj.roll(FaultSite::ConnDrop).is_some() {
            let full = format!("{reply}\n");
            self.io.queue_bytes(&full.as_bytes()[..full.len() / 2]);
            self.close_after_flush = true;
            self.hard_close = true;
            return false;
        }
        // Torn: route the frame through short writes + injected EINTR;
        // write_frame's retry loop must still assemble it intact before
        // the bytes enter the outbuf.
        if let Some(chunk) = inj.roll(FaultSite::TornWrite) {
            let mut assembled: Vec<u8> = Vec::with_capacity(reply.len() + 1);
            {
                let mut torn = TornWriter::new(&mut assembled, chunk as usize);
                let _ = proto::write_frame(&mut torn, reply);
            }
            self.io.queue_bytes(&assembled);
            return true;
        }
        self.io.queue_line(reply);
        true
    }

    /// Write buffered output until the socket blocks or empties; empty
    /// + close-after-flush closes the connection.
    pub(super) fn flush(&mut self, poller: &mut Poller) -> Verdict {
        match self.io.flush() {
            Err(_) => return Verdict::Close,
            Ok(false) => {
                self.write_blocked_since = None;
                if self.close_after_flush {
                    return Verdict::Close;
                }
            }
            Ok(true) => {
                self.write_blocked_since.get_or_insert_with(Instant::now);
            }
        }
        self.update_interest(poller);
        Verdict::Keep
    }

    /// Mark the connection close-after-flush and close it immediately
    /// if nothing is still buffered.
    pub(super) fn shutdown_graceful(&mut self, poller: &mut Poller) -> Verdict {
        self.close_after_flush = true;
        self.flush(poller)
    }

    /// Keep the poller's interest in sync with connection state: read
    /// unless closing or muted while parked (see [`Conn::read_muted`];
    /// parked connections are never read *from* either way — that is
    /// the backpressure), write only while the outbuf holds bytes.
    pub(super) fn update_interest(&mut self, poller: &mut Poller) {
        if matches!(self.state, ConnState::Ready) {
            self.read_muted = false;
        }
        let want = Interest {
            read: !self.read_muted && !self.close_after_flush && !self.peer_closed,
            write: self.io.has_unsent(),
        };
        let Some(fd) = self.io.fd() else {
            return;
        };
        if want != self.interest && poller.reregister(fd, self.id, want).is_ok() {
            self.interest = want;
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    /// A connected loopback pair: the transport under test over one
    /// end, the test's own blocking stream as its peer.
    fn pair() -> (LineIo, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let io = LineIo {
            stream: Some(stream),
            ..LineIo::default()
        };
        (io, peer)
    }

    /// Fill until `want` more bytes are buffered: a loopback write is
    /// readable when `write_all` returns, but pace on the count anyway.
    fn fill_to(io: &mut LineIo, want: usize) -> bool {
        loop {
            let eof = io.fill().expect("fill");
            if eof || io.inbuf.len() >= want {
                return eof;
            }
            std::thread::yield_now();
        }
    }

    fn line(split: Split) -> Option<String> {
        match split {
            Split::Line(raw) => Some(String::from_utf8(raw).expect("utf-8")),
            _ => None,
        }
    }

    #[test]
    fn a_line_split_across_reads_is_scanned_once_and_both_terminators_strip() {
        let (mut io, mut peer) = pair();
        for (chunk, buffered) in [("{\"op\":", 6), ("\"pi", 9)] {
            peer.write_all(chunk.as_bytes()).expect("write");
            fill_to(&mut io, buffered);
            assert!(matches!(io.next_line(64, false), Split::Partial));
            assert_eq!(io.scan_from, buffered, "old bytes are not re-walked");
        }
        peer.write_all(b"ng\"}\r\nsecond\nthi").expect("write");
        fill_to(&mut io, 9 + 16);
        assert_eq!(
            line(io.next_line(64, false)).as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert_eq!(io.scan_from, 0, "a fresh line is scanned from its start");
        assert_eq!(line(io.next_line(64, false)).as_deref(), Some("second"));
        // The unterminated rest is a line only for a user that says EOF
        // ends one.
        assert!(matches!(io.next_line(64, false), Split::Partial));
        assert_eq!(line(io.next_line(64, true)).as_deref(), Some("thi"));
        assert!(matches!(io.next_line(64, true), Split::Partial));

        peer.shutdown(Shutdown::Write).expect("half-close");
        assert!(fill_to(&mut io, usize::MAX), "EOF is reported");
    }

    #[test]
    fn the_cap_holds_for_every_line_however_it_arrived() {
        let (mut io, mut peer) = pair();
        // One byte stream, two caps, two verdicts — the newline already
        // buffered, as one segment delivers it.
        peer.write_all(b"0123456789\nab\r\n").expect("write");
        fill_to(&mut io, 15);
        assert!(matches!(io.next_line(9, false), Split::Oversize));
        assert!(matches!(io.next_line(9, true), Split::Oversize));
        assert_eq!(
            line(io.next_line(10, false)).as_deref(),
            Some("0123456789"),
            "the cap is on the bytes before the newline"
        );
        assert_eq!(line(io.next_line(10, false)).as_deref(), Some("ab"));
        // Still growing, and cut off by EOF.
        peer.write_all(b"0123456789a").expect("write");
        fill_to(&mut io, 11);
        assert!(matches!(io.next_line(10, false), Split::Oversize));
        assert!(matches!(io.next_line(10, true), Split::Oversize));
        assert!(matches!(io.next_line(11, false), Split::Partial));
        assert_eq!(line(io.next_line(11, true)).as_deref(), Some("0123456789a"));
    }

    #[test]
    fn flush_reports_blocked_keeps_the_tail_and_finishes_later() {
        let (mut io, mut peer) = pair();
        // The peer is not reading: queue until both loopback socket
        // buffers are full and the write blocks part-way.
        let payload = "x".repeat(255);
        let mut total = 0usize;
        while !io.flush().expect("flush") {
            assert!(total < 1 << 28, "256 MiB went into a socket nobody reads");
            for _ in 0..1024 {
                io.queue_line(&payload);
            }
            total += 1024 * (payload.len() + 1);
        }
        assert!(io.has_unsent());
        let (queued, sent) = (io.outbuf.len(), io.outpos);
        assert!(sent < queued, "sent {sent} of {queued}");
        assert!(io.flush().expect("flush"), "still blocked, nothing read");
        assert_eq!(
            (io.outbuf.len(), io.outpos),
            (queued, sent),
            "the unsent tail is intact"
        );

        // The peer drains on its own thread; flush until done. Every
        // byte arrives once and in order.
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; total];
            peer.read_exact(&mut got).expect("read all");
            got
        });
        while io.flush().expect("flush") {
            std::thread::yield_now();
        }
        assert!(!io.has_unsent());
        assert_eq!((io.outbuf.len(), io.outpos), (0, 0));
        let got = reader.join().expect("reader");
        let expected = format!("{payload}\n");
        assert!(got.chunks(expected.len()).all(|l| l == expected.as_bytes()));
    }

    #[test]
    fn flush_returns_the_error_of_a_reset_peer() {
        let (mut io, peer) = pair();
        // A peer that closes with input unread resets the connection.
        io.queue_line("never read");
        assert!(!io.flush().expect("flush"));
        drop(peer);
        // Whichever write meets the reset fails, and flush says how.
        let err = loop {
            io.queue_line("after the close");
            match io.flush() {
                Ok(_) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
            ),
            "{err}"
        );
    }
}
