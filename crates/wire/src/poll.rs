//! Minimal Linux `epoll` + `eventfd` bindings for the server's event
//! loop.
//!
//! The build environment has no registry access and therefore no `libc`
//! or `mio` crate, so the handful of syscalls the readiness loop needs
//! are declared directly against the C library Rust already links on
//! Linux: `epoll_create1` / `epoll_ctl` / `epoll_wait` for readiness,
//! `eventfd` plus `read`/`write` for cross-thread wakeups, and `fcntl`
//! to flip descriptors nonblocking. Everything is wrapped in two small
//! RAII types — [`Epoll`] and [`EventFd`] — that keep the `unsafe`
//! confined to this module.
//!
//! Linux-only by design (the tier-1 environment is Linux); elsewhere
//! `BrokerServer::bind` returns an error.

#![cfg(target_os = "linux")]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;

/// Readable readiness (socket has bytes, listener has a connection).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (socket send buffer has room again).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the descriptor.
pub const EPOLLERR: u32 = 0x008;
/// Hangup: the peer closed its end.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the writing half (half-close detection).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

/// One readiness report from the kernel.
///
/// Matches the kernel's `struct epoll_event` layout: packed on x86-64,
/// naturally aligned elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The token registered alongside the descriptor.
    pub token: u64,
}

impl EpollEvent {
    /// The readiness bitmask (copied out of the possibly-packed field).
    pub fn readiness(&self) -> u32 {
        // Copy out of the possibly-packed field before returning.
        {
            self.events
        }
    }

    /// The registered token (copied out of the possibly-packed field).
    pub fn data(&self) -> u64 {
        // Copy out of the possibly-packed field before returning.
        {
            self.token
        }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// Put a raw descriptor into nonblocking mode via `fcntl`.
///
/// Used for descriptors std cannot configure (the wakeup eventfd);
/// sockets go through `TcpStream::set_nonblocking`.
///
/// # Errors
///
/// The `fcntl` errno as [`io::Error`].
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on a descriptor we own; no memory is passed.
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: as above.
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// An epoll instance: register descriptors with a `u64` token, then
/// [`Epoll::wait`] for readiness. Level-triggered (the default), which
/// lets the loop stop reading or writing mid-buffer without losing the
/// wakeup.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The `epoll_create1` errno as [`io::Error`].
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            token,
        };
        let event_ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event as *mut EpollEvent
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.fd, op, fd, event_ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given interest set and token.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno as [`io::Error`].
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest set of an already-registered descriptor.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno as [`io::Error`].
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister a descriptor. Safe to call on one already closed by the
    /// kernel side; the error is reported but usually ignorable.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno as [`io::Error`].
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block up to `timeout_ms` (-1 = forever) for readiness events,
    /// filling `events`. Returns how many entries are valid. A signal
    /// interruption reports zero events rather than an error.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` errno as [`io::Error`] (except `EINTR`).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the kernel writes at most `events.len()` entries.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing a descriptor we own.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking `eventfd` used to wake the event loop from other
/// threads (the broker's delivery notifier, federation link queues,
/// shutdown).
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking eventfd.
    ///
    /// # Errors
    ///
    /// The `eventfd`/`fcntl` errno as [`io::Error`].
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: plain syscall. Flags are set separately via fcntl so
        // this works on kernels predating EFD_NONBLOCK too.
        let fd = unsafe { eventfd(0, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let this = EventFd { fd };
        set_nonblocking(fd)?;
        Ok(this)
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Wake the loop: add 1 to the eventfd counter. A full counter
    /// (`EAGAIN`) already guarantees a pending wakeup, so errors are
    /// ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a stack value.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consume all pending wakeups so level-triggered epoll goes quiet.
    pub fn drain(&self) {
        let mut buf = 0u64;
        // SAFETY: reading 8 bytes into a stack value; nonblocking, so a
        // drained counter returns EAGAIN immediately.
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: closing a descriptor we own.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_wakes_and_drains() {
        let epoll = Epoll::new().expect("epoll");
        let wakeup = EventFd::new().expect("eventfd");
        epoll
            .add(wakeup.raw_fd(), EPOLLIN, 7)
            .expect("register eventfd");
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).expect("idle wait"), 0);
        wakeup.wake();
        wakeup.wake();
        let n = epoll.wait(&mut events, 1000).expect("wake wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].data(), 7);
        assert!(events[0].readiness() & EPOLLIN != 0);
        wakeup.drain();
        assert_eq!(epoll.wait(&mut events, 0).expect("drained wait"), 0);
    }

    #[test]
    fn socket_readiness_is_reported() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let epoll = Epoll::new().expect("epoll");
        epoll
            .add(listener.as_raw_fd(), EPOLLIN, 1)
            .expect("register listener");
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).expect("idle"), 0);
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, 2000).expect("accept readiness");
        assert_eq!(n, 1);
        assert_eq!(events[0].data(), 1);
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        epoll
            .add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 2)
            .expect("register conn");
        client.write_all(b"ping").expect("write");
        let n = epoll.wait(&mut events, 2000).expect("read readiness");
        assert!(n >= 1 && events[..n].iter().any(|e| e.data() == 2));
        epoll.delete(server_side.as_raw_fd()).expect("deregister");
    }
}
