//! Readiness notification over raw `epoll`, with no `libc` crate.
//!
//! The build environment has no registry access, so the three syscalls the
//! reactor needs — `epoll_create1`, `epoll_ctl`, `epoll_wait` — are bound
//! here directly with `extern "C"` declarations against the libc that std
//! already links, plus `eventfd` for the cross-thread waker the workers use
//! to hand finished connections back to the reactor. This is the whole
//! platform layer: everything above it ([`crate::serve`]) speaks
//! [`Poller`]/[`Waker`] and `std::net`.
//!
//! Linux-only by construction (`epoll` is a Linux API); the crate targets
//! the Linux containers this system deploys into.

use std::io::{Error, ErrorKind};
use std::os::fd::{AsRawFd, RawFd};

// ---------------------------------------------------------------------------
// Syscall bindings
// ---------------------------------------------------------------------------

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes);
/// other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (half-close shows up as readable EOF).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o0004000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

// `asm-generic/socket.h`; mips, sparc, alpha and parisc number these
// differently.
const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;

fn cvt(ret: i32) -> std::io::Result<i32> {
    if ret < 0 {
        Err(Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------------
// Socket options
// ---------------------------------------------------------------------------

/// `SO_RCVBUF` of a socket, as the kernel accounts it (twice what was set).
fn receive_buffer(socket: RawFd) -> std::io::Result<usize> {
    let mut bytes: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    // SAFETY: `bytes` and `len` are live, writable locals for the whole
    // call and `len` says how large `bytes` is, so the kernel writes at
    // most four bytes into it and keeps neither pointer. A descriptor that
    // is closed or no socket makes the call fail (EBADF / ENOTSOCK); it
    // cannot touch memory.
    cvt(unsafe { getsockopt(socket, SOL_SOCKET, SO_RCVBUF, &mut bytes, &mut len) })?;
    Ok(bytes.max(0) as usize)
}

/// Fix the receive buffer of every connection a listening socket accepts
/// from now on at the size it starts with; returns that size.
///
/// A receive buffer nobody set is autotuned: it starts at `tcp_rmem[1]`
/// and grows towards `tcp_rmem[2]` (tens of megabytes) while a sender
/// outpaces the reader — memory per connection that no request asked for
/// and no limit of this server bounds. Setting the size the socket already
/// has changes nothing today and marks it as the application's choice,
/// which ends autotuning; accepted sockets inherit size and mark. The
/// kernel doubles what it is given and reports the doubled value, so half
/// of what it reports sets the same size again.
pub(crate) fn pin_receive_buffer(listener: RawFd) -> std::io::Result<usize> {
    let half = (receive_buffer(listener)? / 2) as i32;
    // SAFETY: `half` is a live local for the whole call and the length
    // passed is its size; the kernel reads those four bytes and keeps no
    // pointer. A bad descriptor fails with EBADF / ENOTSOCK.
    cvt(unsafe {
        setsockopt(
            listener,
            SOL_SOCKET,
            SO_RCVBUF,
            &half,
            std::mem::size_of::<i32>() as u32,
        )
    })?;
    receive_buffer(listener)
}

// ---------------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------------

/// An `epoll` instance plus the event buffer for [`Poller::wait`].
pub struct Poller {
    epfd: RawFd,
    events: Vec<EpollEvent>,
}

impl Poller {
    pub fn new() -> std::io::Result<Poller> {
        // SAFETY: takes no pointers; failure is a negative return that
        // `cvt` turns into an error.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Register `fd` under `token` for `interest` (level-triggered).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregister an fd. Safe to call on an fd the kernel already dropped
    /// (closing a socket deregisters it implicitly).
    pub fn delete(&self, fd: RawFd) -> std::io::Result<()> {
        match self.ctl(EPOLL_CTL_DEL, fd, 0, 0) {
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a live local for the whole call; the kernel
        // copies it (DEL ignores it) and keeps no pointer. `epfd` is ours
        // until drop; a stale `fd` fails with EBADF / ENOENT.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Block until at least one registered fd is ready or `timeout_ms`
    /// elapses (`-1` = forever). Returns `(token, events)` pairs; `EINTR`
    /// is retried internally.
    pub fn wait(&mut self, timeout_ms: i32) -> std::io::Result<Vec<(u64, u32)>> {
        loop {
            // SAFETY: the kernel writes at most `events.len()` entries into
            // the buffer, which `&mut self` keeps alive and unaliased for
            // the call, and returns how many it wrote (read back below only
            // up to that count).
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.events.as_mut_ptr(),
                    self.events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(self.events[..n as usize]
                    .iter()
                    .map(|ev| ({ ev.data }, { ev.events }))
                    .collect());
            }
            let err = Error::last_os_error();
            if err.kind() != ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was created by `new`, is owned by this value
        // alone, and is closed only here.
        unsafe { close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

/// A cross-thread wakeup channel: an `eventfd` registered in the [`Poller`].
/// Worker threads [`Waker::wake`] after queueing a finished connection; the
/// reactor drains it with [`Waker::drain`] and checks its return queue.
/// Clone-free sharing: wrap in `Arc`.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    pub fn new() -> std::io::Result<Waker> {
        // SAFETY: takes no pointers; failure is a negative return that
        // `cvt` turns into an error.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// Make the next (or current) [`Poller::wait`] return. Async-safe,
    /// never blocks: an eventfd write only fails if the counter would
    /// overflow, which still leaves it readable.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: reads the eight bytes of the live local `one`; the fd is
        // ours until drop. The only failure (EAGAIN on a saturated counter)
        // writes nothing and still leaves the fd readable.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the wakeup counter (reactor side).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: writes at most eight bytes into the live local `buf`; the
        // fd is ours until drop and non-blocking, so an unset counter is
        // EAGAIN, not a hang.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` was created by `new`, is owned by this value alone
        // (`AsRawFd` lends it, never gives it away), and is closed only here.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_readiness_and_waker_wakes() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.as_raw_fd(), 7, EPOLLIN).unwrap();

        // Nothing ready: a zero-timeout wait returns empty.
        assert!(poller.wait(0).unwrap().is_empty());

        waker.wake();
        let ready = poller.wait(1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].0, 7);
        assert!(ready[0].1 & EPOLLIN != 0);
        waker.drain();
        assert!(poller.wait(0).unwrap().is_empty());
    }

    #[test]
    fn accepted_sockets_inherit_the_pinned_receive_buffer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let before = receive_buffer(listener.as_raw_fd()).unwrap();
        let pinned = pin_receive_buffer(listener.as_raw_fd()).unwrap();
        assert_eq!(pinned, before, "the pin keeps the size the socket had");

        // A sender that outpaces the reader is what makes an unpinned
        // buffer grow; a pinned one reads the same before and after.
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();
        assert_eq!(receive_buffer(accepted.as_raw_fd()).unwrap(), pinned);
        let sender = std::thread::spawn(move || {
            let block = vec![b'x'; 1 << 20];
            for _ in 0..32 {
                client.write_all(&block).unwrap();
            }
        });
        let mut sink = vec![0u8; 256 << 10];
        while std::io::Read::read(&mut accepted, &mut sink).unwrap() > 0 {}
        sender.join().unwrap();
        assert_eq!(receive_buffer(accepted.as_raw_fd()).unwrap(), pinned);
    }

    #[test]
    fn pinning_what_is_no_socket_is_an_error_not_a_crash() {
        let waker = Waker::new().unwrap();
        assert!(pin_receive_buffer(waker.as_raw_fd()).is_err());
        assert!(receive_buffer(-1).is_err());
    }

    #[test]
    fn poller_sees_a_connected_socket_become_readable() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 1, EPOLLIN).unwrap();

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let ready = poller.wait(2000).unwrap();
        assert!(ready.iter().any(|&(t, e)| t == 1 && e & EPOLLIN != 0));

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .add(server_side.as_raw_fd(), 2, EPOLLIN | EPOLLRDHUP)
            .unwrap();
        assert!(poller.wait(0).unwrap().iter().all(|&(t, _)| t != 2));

        client.write_all(b"x").unwrap();
        let ready = poller.wait(2000).unwrap();
        assert!(ready.iter().any(|&(t, e)| t == 2 && e & EPOLLIN != 0));

        // Deleting stops reports even though data is still pending.
        poller.delete(server_side.as_raw_fd()).unwrap();
        assert!(poller.wait(0).unwrap().is_empty());
    }
}
