//! The readiness poller behind the event loop.
//!
//! On Linux this is a thin epoll shim declared over the C symbols the
//! standard library already links (the workspace builds offline, so no
//! `libc`/`mio` crates — the same vendored-shim convention as
//! `vendor/`). Registration is level-triggered: a socket with unread
//! bytes or writable space keeps reporting ready, so the event loop
//! never needs edge-triggered bookkeeping.
//!
//! Everywhere else a portable fallback poller reports every registered
//! token as maybe-ready after a short sleep (or immediately on
//! [`Poller::wake`]). That is the degenerate level-triggered model:
//! correctness comes from the loop's nonblocking reads/writes treating
//! `WouldBlock` as "not actually ready", the poller only bounds how long
//! the loop sleeps. Slower, never wrong.

/// Token the poller reports for its own waker; never assigned to a
/// socket.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Reading would (probably) not block.
    pub readable: bool,
    /// Writing would (probably) not block.
    pub writable: bool,
    /// The peer closed or the socket errored; the connection is done.
    pub closed: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{PollEvent, WAKER_TOKEN};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // epoll_event is packed on x86_64 (a 12-byte struct) and naturally
    // aligned elsewhere; mirroring glibc's layout exactly is what makes
    // the raw syscalls safe.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
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
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Level-triggered epoll instance plus an eventfd waker.
    pub struct Poller {
        epfd: RawFd,
        waker: RawFd,
    }

    // The fds are plain integers used from one poll thread plus wake()
    // calls from worker threads; both syscalls are thread-safe.
    unsafe impl Send for Poller {}
    unsafe impl Sync for Poller {}

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let waker = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if waker < 0 {
                let e = io::Error::last_os_error();
                unsafe { close(epfd) };
                return Err(e);
            }
            let poller = Self { epfd, waker };
            poller.ctl(EPOLL_CTL_ADD, waker, EPOLLIN, WAKER_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn interest(want_write: bool) -> u32 {
            EPOLLIN | EPOLLRDHUP | if want_write { EPOLLOUT } else { 0 }
        }

        /// Starts watching `fd` under `token`; read interest always,
        /// write interest only when asked.
        pub fn register(&self, fd: RawFd, token: u64, want_write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::interest(want_write), token)
        }

        /// Adjusts an already-registered fd's write interest.
        pub fn set_write_interest(
            &self,
            fd: RawFd,
            token: u64,
            want_write: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::interest(want_write), token)
        }

        /// Stops watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until readiness or `timeout`, filling `out`. A waker
        /// event is drained internally and reported as [`WAKER_TOKEN`].
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            out.clear();
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), 64, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // a signal landed; the loop re-checks flags
                }
                return Err(e);
            }
            for ev in events.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (ev.events, ev.data);
                if token == WAKER_TOKEN {
                    let mut buf = [0u8; 8];
                    // Drain the eventfd counter so the next wake re-arms.
                    while unsafe { read(self.waker, buf.as_mut_ptr(), 8) } == 8 {}
                    out.push(PollEvent {
                        token,
                        readable: false,
                        writable: false,
                        closed: false,
                    });
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }

        /// Interrupts a concurrent [`wait`](Self::wait) (callable from
        /// any thread).
        pub fn wake(&self) {
            let one: u64 = 1;
            let _ = unsafe { write(self.waker, &one as *const u64 as *const u8, 8) };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.waker);
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{PollEvent, WAKER_TOKEN};
    use crate::lock;
    use std::collections::HashMap;
    use std::io;
    use std::sync::{Condvar, Mutex, PoisonError};
    use std::time::Duration;

    #[cfg(unix)]
    type RawFd = std::os::unix::io::RawFd;
    #[cfg(not(unix))]
    type RawFd = u64;

    /// Portable fallback: every registered token is reported maybe-ready
    /// after a bounded sleep. The event loop's nonblocking I/O turns the
    /// spurious readiness into `WouldBlock` no-ops.
    pub struct Poller {
        registered: Mutex<HashMap<RawFd, u64>>,
        woken: Mutex<bool>,
        cond: Condvar,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                registered: Mutex::new(HashMap::new()),
                woken: Mutex::new(false),
                cond: Condvar::new(),
            })
        }

        pub fn register(&self, fd: RawFd, token: u64, _want_write: bool) -> io::Result<()> {
            lock(&self.registered).insert(fd, token);
            Ok(())
        }

        pub fn set_write_interest(
            &self,
            _fd: RawFd,
            _token: u64,
            _want_write: bool,
        ) -> io::Result<()> {
            Ok(())
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            lock(&self.registered).remove(&fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            out.clear();
            {
                let mut woken = lock(&self.woken);
                if !*woken {
                    // Cap the sleep so spurious-readiness polls stay
                    // responsive even under a long caller timeout.
                    let nap = timeout.min(Duration::from_millis(5));
                    woken = self
                        .cond
                        .wait_timeout(woken, nap)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                if *woken {
                    *woken = false;
                    out.push(PollEvent {
                        token: WAKER_TOKEN,
                        readable: false,
                        writable: false,
                        closed: false,
                    });
                }
            }
            for (_, &token) in lock(&self.registered).iter() {
                out.push(PollEvent {
                    token,
                    readable: true,
                    writable: true,
                    closed: false,
                });
            }
            Ok(())
        }

        pub fn wake(&self) {
            *lock(&self.woken) = true;
            self.cond.notify_all();
        }
    }
}

pub use imp::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[cfg(unix)]
    #[test]
    fn readiness_and_waker() {
        let poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller
            .register(listener.as_raw_fd(), 7, false)
            .expect("register");

        // Nothing pending: a short wait returns without listener events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(20))
            .expect("wait");
        assert!(
            events.iter().all(|e| e.token != 7 || !e.readable) || cfg!(not(target_os = "linux")),
            "no connection yet"
        );

        // A connection makes the listener readable.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut saw_accept = false;
        while Instant::now() < deadline && !saw_accept {
            poller
                .wait(&mut events, Duration::from_millis(50))
                .expect("wait");
            saw_accept = events.iter().any(|e| e.token == 7 && e.readable);
        }
        assert!(saw_accept, "listener never reported readable");
        let (mut server_side, _) = listener.accept().expect("accept");

        // Data makes a registered stream readable.
        server_side.set_nonblocking(true).expect("nonblocking");
        poller
            .register(server_side.as_raw_fd(), 8, false)
            .expect("register stream");
        client.write_all(b"ping").expect("write");
        let mut saw_data = false;
        while Instant::now() < deadline && !saw_data {
            poller
                .wait(&mut events, Duration::from_millis(50))
                .expect("wait");
            saw_data = events.iter().any(|e| e.token == 8 && e.readable);
        }
        assert!(saw_data, "stream never reported readable");
        let mut buf = [0u8; 4];
        server_side.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");

        // wake() interrupts a long wait promptly.
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                poller.wake();
            });
            poller
                .wait(&mut events, Duration::from_secs(10))
                .expect("wait");
        });
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "wake did not interrupt the wait"
        );
        assert!(events.iter().any(|e| e.token == WAKER_TOKEN));

        poller.deregister(server_side.as_raw_fd()).expect("dereg");
        poller.deregister(listener.as_raw_fd()).expect("dereg");
    }
}
