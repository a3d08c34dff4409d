//! The few system calls the harness makes itself: an epoll loop for the
//! back-ends, `SO_LINGER` for sockets that must not linger, and the
//! process CPU clock.

use std::io;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;

#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// On-CPU time so far of every thread this process has run, including
/// threads that have exited.
pub fn process_cpu_time() -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live `struct timespec` the kernel fills in.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is always available");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// Makes closing `stream` reset the connection instead of shutting it
/// down: neither end keeps a `TIME_WAIT` entry. Only for sockets whose
/// peer has everything it needs when they close, since a reset discards
/// unsent data.
///
/// The churn workload closes five connections per request. Left in
/// `TIME_WAIT` they fill the kernel's table within seconds and slow every
/// `connect` for the following minute, including the next run's set-up.
pub fn reset_on_close(stream: &TcpStream) -> io::Result<()> {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the pointer and length describe `linger`, a live
    // `struct linger`, and the fd is open for the duration of the call.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// An owned level-triggered epoll instance keyed by file descriptor.
pub struct Epoll(RawFd);

impl Epoll {
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative result is
        // an error and is not wrapped.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll(fd))
    }

    pub fn add(&self, fd: RawFd) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN,
            data: fd as u64,
        };
        // SAFETY: `event` is a live, initialised epoll_event for the
        // duration of the call, and `self.0` is an open epoll fd.
        let rc = unsafe { epoll_ctl(self.0, EPOLL_CTL_ADD, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn remove(&self, fd: RawFd) {
        let mut event = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`; the kernel ignores the event for DEL but
        // pre-2.6.9 kernels require a non-null pointer.
        unsafe { epoll_ctl(self.0, EPOLL_CTL_DEL, fd, &mut event) };
    }

    /// Waits up to `timeout_ms` and returns the fds that are readable.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> Vec<RawFd> {
        // SAFETY: the pointer and length describe `events`, which the
        // kernel fills with at most `events.len()` records.
        let n = unsafe { epoll_wait(self.0, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        events[..n.max(0) as usize]
            .iter()
            .map(|e| {
                let data = e.data;
                data as RawFd
            })
            .collect()
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.0` is owned by this value and closed once.
        unsafe { close(self.0) };
    }
}
