//! A thin readiness-polling layer on level-triggered epoll, and the
//! serve crate's every foreign call — the reactor's only OS-facing
//! surface. Linux only: elsewhere the same API compiles to a stub whose
//! [`Poller::new`] fails with `Unsupported`.
//!
//! The bindings (epoll, plus `signal` and `listen` for
//! [`flag_on_terminate`] and [`set_backlog`]) are raw `extern "C"`
//! declarations against the libc std already links; no crate
//! dependency. The API is deliberately small:
//! register a file descriptor under a caller-chosen `u64` token with a
//! read/write interest, wait with a timeout, and get back a flat list
//! of [`PollEvent`]s. Everything is level-triggered, so a handler that
//! leaves bytes unread or a buffer unflushed is simply called again on
//! the next wait — no edge-tracking state machines.
//!
//! [`Waker`] is the cross-thread wake primitive: a Unix stream socket
//! pair, both halves nonblocking (std-only, so no foreign call of its
//! own; an `eventfd` would be cheaper still, at the price of one more).
//! Writing one byte to the send half makes the receive half readable,
//! which pops the owning reactor out of its `wait`; the reactor drains
//! the bytes and consults its completion queue.

use std::io;
#[cfg(unix)]
pub(crate) use std::os::unix::io::RawFd;
use std::time::Duration;

#[cfg(not(unix))]
pub(crate) type RawFd = i32;

// The receive half of a wake channel. Off Unix none is ever built
// (`waker_pair` fails), so any std stream stands in for the type.
#[cfg(not(unix))]
pub(crate) use std::net::TcpStream as WakeRx;
#[cfg(unix)]
pub(crate) use std::os::unix::net::UnixStream as WakeRx;

pub(crate) use sys::{flag_on_terminate, set_backlog};

/// The descriptor a socket is registered under.
#[cfg(unix)]
pub(crate) fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> RawFd {
    t.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_t: &T) -> RawFd {
    0
}

/// What to watch a registered descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable (or peer-closed).
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the idle-connection default.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (includes peer close — a read will observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup; the owner should read to completion and close.
    pub hangup: bool,
}

/// A readiness poller owning one OS polling instance.
pub struct Poller {
    sys: sys::Sys,
}

impl Poller {
    /// A fresh polling instance.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            sys: sys::Sys::new()?,
        })
    }

    /// Watch `fd` under `token`. One registration per descriptor.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.sys.register(fd, token, interest)
    }

    /// Change the interest (and token) of an already-registered `fd`.
    pub(crate) fn reregister(
        &mut self,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.reregister(fd, token, interest)
    }

    /// Stop watching `fd`. Must be called before the descriptor closes.
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.sys.deregister(fd)
    }

    /// Block until at least one registered descriptor is ready or the
    /// timeout lapses (`None` = forever). Ready events are appended to
    /// `events` (cleared first).
    pub fn wait(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        self.sys.wait(events, timeout)
    }
}

/// Round a timeout up to whole milliseconds for the kernel interface
/// (`-1` = infinite). Rounding *up* keeps short deadline sleeps from
/// degenerating into a busy loop at sub-millisecond remainders.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Level-triggered epoll via raw syscall bindings, and the two
    //! other libc calls the server makes.

    use super::{Interest, PollEvent, RawFd};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;
    use std::time::Duration;

    // glibc packs `struct epoll_event` on x86_64 only; other targets
    // (riscv64, aarch64) use natural alignment. Mirror that exactly or
    // the kernel scribbles over the wrong bytes.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// The flag SIGINT/SIGTERM raise, set before the handler is installed.
    static TERMINATE_FLAG: OnceLock<&'static AtomicBool> = OnceLock::new();

    extern "C" fn raise_terminate_flag(_sig: i32) {
        // Async-signal-safe: an atomic load and an atomic store.
        if let Some(flag) = TERMINATE_FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Have SIGTERM and SIGINT set `flag` (the first caller's, for the
    /// life of the process). Uses the libc `signal` entry point std
    /// already links against.
    pub(crate) fn flag_on_terminate(flag: &'static AtomicBool) {
        let _ = TERMINATE_FLAG.set(flag);
        // SAFETY: both signal numbers are valid, and the handler is a
        // static function that only performs async-signal-safe atomic
        // operations on statics.
        unsafe {
            signal(SIGINT, raise_terminate_flag);
            signal(SIGTERM, raise_terminate_flag);
        }
    }

    /// Deepen a listening socket's accept backlog: listen(2) on an
    /// already-listening socket just updates it. Best effort.
    pub(crate) fn set_backlog(listener: &std::net::TcpListener, backlog: i32) {
        // SAFETY: `listen` takes the descriptor by value and touches no
        // memory of ours; the borrow keeps the descriptor open.
        let _ = unsafe { listen(super::fd_of(listener), backlog) };
    }

    /// How many kernel events one wait call can surface.
    const WAIT_CAP: usize = 256;

    pub(super) struct Sys {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    fn events_mask(interest: Interest) -> u32 {
        // Peer half-close rides on read interest: level-triggered, it
        // would otherwise fire on every wait for a descriptor its owner
        // has chosen not to read.
        let mut ev = 0;
        if interest.read {
            ev |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.write {
            ev |= EPOLLOUT;
        }
        ev
    }

    impl Sys {
        pub(super) fn new() -> io::Result<Sys> {
            // SAFETY: takes a flag word, returns a descriptor or -1.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Sys {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; WAIT_CAP],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: events_mask(interest),
                data: token,
            };
            // SAFETY: `ev` is a live, correctly laid out `epoll_event`
            // the kernel only reads; bad descriptors come back as errors.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(super) fn reregister(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // DEL ignores the event, but kernels before 2.6.9 require
            // the pointer `ctl` passes to be non-null.
            let none = Interest {
                read: false,
                write: false,
            };
            self.ctl(EPOLL_CTL_DEL, fd, 0, none)
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let n = loop {
                // SAFETY: the kernel writes at most `buf.len()` events
                // into `buf`, which `&mut self` borrows exclusively for
                // the call.
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        super::timeout_ms(timeout),
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                events.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Sys {
        fn drop(&mut self) {
            // SAFETY: `epfd` is the descriptor `new` opened; nothing
            // else owns or closes it.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Stub off Linux: binds fail at runtime, nothing at compile time.

    use super::{Interest, PollEvent, RawFd};
    use std::io;
    use std::time::Duration;

    /// No-op off Linux; `quit` and a drain request still work.
    pub(crate) fn flag_on_terminate(_flag: &'static std::sync::atomic::AtomicBool) {}

    /// No-op off Linux.
    pub(crate) fn set_backlog(_listener: &std::net::TcpListener, _backlog: i32) {}

    pub(super) struct Sys;

    impl Sys {
        pub(super) fn new() -> io::Result<Sys> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "readiness polling is Linux-only (epoll)",
            ))
        }
        pub(super) fn register(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }
        pub(super) fn reregister(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }
        pub(super) fn deregister(&mut self, _: RawFd) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }
        pub(super) fn wait(
            &mut self,
            _: &mut Vec<PollEvent>,
            _: Option<Duration>,
        ) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }
    }
}

/// The writable half of a reactor's wake channel. Cheap: a wake is one
/// nonblocking byte onto a Unix socket, and it never blocks. A full
/// socket buffer (a few hundred undrained wakes) means wake bytes are
/// already pending, so the refused write is itself a successful wake.
pub struct Waker {
    tx: WakeRx,
}

impl Waker {
    /// Pop the owning reactor out of its current (or next) wait.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// Build a wake channel: the [`Waker`] goes to producers (batch
/// workers, forwarders), the returned nonblocking stream is the receive
/// half the reactor registers for read interest and drains. Off Unix it
/// fails with `Unsupported`, like [`Poller::new`].
#[cfg(unix)]
pub fn waker_pair() -> io::Result<(Waker, WakeRx)> {
    let (tx, rx) = WakeRx::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Off Unix there is no wake channel (and no poller to wake).
#[cfg(not(unix))]
pub fn waker_pair() -> io::Result<(Waker, WakeRx)> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the wake channel is a Unix socket pair",
    ))
}

/// Drain every pending wake byte from the receive half.
pub fn drain_wakes(rx: &mut WakeRx) {
    use std::io::Read;
    let mut buf = [0u8; 256];
    loop {
        match rx.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readiness_follows_data_and_interest() {
        let (mut a, mut b) = socket_pair();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: the wait times out empty.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no data, no events");

        // Peer data makes the socket readable under its token.
        b.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 1);

        // Write interest on an idle socket reports writable immediately.
        poller
            .reregister(
                a.as_raw_fd(),
                7,
                Interest {
                    read: true,
                    write: true,
                },
            )
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        let (a, b) = socket_pair();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(b);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "EOF must wake the reader: {events:?}"
        );
    }

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let (waker, rx) = waker_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let mut rx = rx;
        drain_wakes(&mut rx);
        t.join().unwrap();
    }

    /// A shard worker wakes its reactor and goes on: a wake must return
    /// even when the reactor has not drained for a long time (a Unix
    /// pair refuses after a few hundred undrained bytes).
    #[test]
    fn wakes_never_block_and_one_drain_empties_the_channel() {
        let (waker, mut rx) = waker_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            for _ in 0..10_000 {
                waker.wake();
            }
            done_tx.send(()).unwrap();
            waker // a dropped send half would read as a hangup
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "an undrained wake channel blocked the waker"
        );
        let _waker = worker.join().unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        drain_wakes(&mut rx);
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "drained, yet readable: {events:?}");
    }
}
