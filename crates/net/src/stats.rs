//! Substrate-wide counters used by the benchmark harness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic counters describing everything that crossed the substrate.
///
/// The counters are updated with relaxed atomics on the data path and read
/// by the harness after (or during) a run; exactness under concurrent reads
/// is not required, monotonicity is.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections successfully established.
    pub connections_opened: AtomicU64,
    /// Connections fully closed.
    pub connections_closed: AtomicU64,
    /// Bytes written into the substrate (all connections, both directions).
    pub bytes_sent: AtomicU64,
    /// Bytes read out of the substrate.
    pub bytes_received: AtomicU64,
    /// Read calls issued (including ones that returned `WouldBlock`).
    pub read_calls: AtomicU64,
    /// Write calls issued.
    pub write_calls: AtomicU64,
    /// `Endpoint::writable` checks issued: output tasks ask once per
    /// blocked flush, to tell a full peer buffer from a rate-limiter stall.
    pub writable_polls: AtomicU64,
    /// Vectored (`writev`-style) write calls: writes that handed the
    /// substrate more than one segment in one call — the batched-syscall
    /// output path, where header+body leave together without a staging
    /// copy. Every vectored write is also counted in `write_calls` and its
    /// bytes in `bytes_sent`, so the byte-conservation law is unchanged.
    pub vectored_writes: AtomicU64,
    /// Segments carried by those vectored writes (≥ one per call).
    pub vectored_segments: AtomicU64,
    /// Ingest-buffer copy events: fills of a [`crate::SharedBuf`] that had
    /// to carry live bytes to a new (or compacted) chunk. Zero on the
    /// shared-buffer fast path — the regression assertion behind the
    /// zero-copy data plane.
    pub ingest_copies: AtomicU64,
    /// Bytes moved by those ingest copy events.
    pub ingest_copied_bytes: AtomicU64,
    /// Connections terminated because their byte stream failed to parse
    /// (a malformed or over-limit frame). Each such close also appears in
    /// `connections_closed`; this counter isolates the hostile-traffic
    /// blast radius so the sim battery can assert it stays confined to
    /// the offending connections.
    pub malformed_closes: AtomicU64,
}

impl NetStats {
    /// Creates a fresh, shareable counter block.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(NetStats::default())
    }

    /// Records an opened connection.
    pub fn record_open(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a closed connection.
    pub fn record_close(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a write of `n` bytes.
    pub fn record_write(&self, n: usize) {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records a read of `n` bytes.
    pub fn record_read(&self, n: usize) {
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one `Endpoint::writable` poll.
    pub fn record_writable_poll(&self) {
        self.writable_polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one vectored write that carried `segments` segments (call
    /// [`NetStats::record_write`] separately for the bytes, as the scalar
    /// path does — the vectored counters only add the shape).
    pub fn record_vectored(&self, segments: usize) {
        self.vectored_writes.fetch_add(1, Ordering::Relaxed);
        self.vectored_segments
            .fetch_add(segments as u64, Ordering::Relaxed);
    }

    /// Records one ingest-buffer carry of `n` live bytes.
    pub fn record_ingest_copy(&self, n: usize) {
        self.ingest_copies.fetch_add(1, Ordering::Relaxed);
        self.ingest_copied_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one connection close caused by a malformed stream. Call
    /// *after* the close itself has been recorded, so a snapshot (which
    /// loads this counter before `connections_closed`) can never observe
    /// the malformed close without its plain close.
    pub fn record_malformed_close(&self) {
        self.malformed_closes.fetch_add(1, Ordering::Release);
    }

    /// A point-in-time copy of all counters.
    ///
    /// `bytes_received` is loaded *before* `bytes_sent` (and closes before
    /// opens): senders record under the pipe lock before their reader can
    /// observe the bytes, so this load order means a concurrent transfer
    /// can only ever inflate the "sent" side of a snapshot — which keeps
    /// [`StatsSnapshot::check_conservation`] free of false positives while
    /// traffic is in flight.
    pub fn snapshot(&self) -> StatsSnapshot {
        // Loaded before `connections_closed`: a malformed close records the
        // plain close first, so the close counter can only be inflated
        // relative to this one, keeping `malformed_closes ≤
        // connections_closed` sound mid-flight.
        let malformed_closes = self.malformed_closes.load(Ordering::Acquire);
        let bytes_received = self.bytes_received.load(Ordering::Acquire);
        let connections_closed = self.connections_closed.load(Ordering::Acquire);
        StatsSnapshot {
            malformed_closes,
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed,
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received,
            read_calls: self.read_calls.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            writable_polls: self.writable_polls.load(Ordering::Relaxed),
            vectored_writes: self.vectored_writes.load(Ordering::Relaxed),
            vectored_segments: self.vectored_segments.load(Ordering::Relaxed),
            ingest_copies: self.ingest_copies.load(Ordering::Relaxed),
            ingest_copied_bytes: self.ingest_copied_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of [`NetStats`] taken at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections successfully established.
    pub connections_opened: u64,
    /// Connections fully closed.
    pub connections_closed: u64,
    /// Bytes written into the substrate.
    pub bytes_sent: u64,
    /// Bytes read out of the substrate.
    pub bytes_received: u64,
    /// Read calls issued.
    pub read_calls: u64,
    /// Write calls issued.
    pub write_calls: u64,
    /// `Endpoint::writable` checks issued.
    pub writable_polls: u64,
    /// Vectored write calls (see [`NetStats::vectored_writes`]).
    pub vectored_writes: u64,
    /// Segments carried by vectored writes.
    pub vectored_segments: u64,
    /// Ingest-buffer carry events (see [`NetStats::ingest_copies`]).
    pub ingest_copies: u64,
    /// Bytes moved by ingest carries.
    pub ingest_copied_bytes: u64,
    /// Connections closed due to malformed input (see
    /// [`NetStats::malformed_closes`]).
    pub malformed_closes: u64,
}

impl StatsSnapshot {
    /// Megabits represented by `bytes_received`, convenient for Figure 6.
    pub fn received_megabits(&self) -> f64 {
        self.bytes_received as f64 * 8.0 / 1_000_000.0
    }

    /// Checks the substrate's conservation laws, shared by the simulation
    /// harness's tick checks and the end-to-end suite so counter math is
    /// derived in exactly one place:
    ///
    /// * bytes cannot be read that were never written
    ///   (`bytes_received ≤ bytes_sent` — a pipe may still hold or drop
    ///   buffered bytes at close, never invent them);
    /// * a connection has two endpoints, each closed at most once
    ///   (`connections_closed ≤ 2 × connections_opened`);
    /// * ingest-copy events and the bytes they moved appear together;
    /// * the writev path is a subset of the write path: every vectored
    ///   write is also a write call (`vectored_writes ≤ write_calls`) and
    ///   carries at least one segment
    ///   (`vectored_segments ≥ vectored_writes`) — so bytes leaving as
    ///   vectored writes are already inside `bytes_sent` and the bytes-out
    ///   law above covers them.
    ///
    /// Counters are written with relaxed atomics. The checks stay sound
    /// under concurrency because every receive is preceded by its send and
    /// [`NetStats::snapshot`] reads `bytes_received` before `bytes_sent`:
    /// a concurrent transfer can only inflate the right-hand side of the
    /// inequality, never the left.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.bytes_received > self.bytes_sent {
            return Err(format!(
                "byte conservation violated: received {} > sent {}",
                self.bytes_received, self.bytes_sent
            ));
        }
        if self.connections_closed > 2 * self.connections_opened {
            return Err(format!(
                "connection conservation violated: {} closes for {} opens \
                 (max 2 per connection)",
                self.connections_closed, self.connections_opened
            ));
        }
        if self.vectored_writes > self.write_calls {
            return Err(format!(
                "writev conservation violated: {} vectored writes > {} write calls \
                 (a vectored write must be recorded as a write call)",
                self.vectored_writes, self.write_calls
            ));
        }
        if self.vectored_segments < self.vectored_writes {
            return Err(format!(
                "writev conservation violated: {} segments < {} vectored writes \
                 (every vectored write carries at least one segment)",
                self.vectored_segments, self.vectored_writes
            ));
        }
        if (self.ingest_copies == 0) != (self.ingest_copied_bytes == 0) {
            return Err(format!(
                "ingest accounting inconsistent: {} copy events moved {} bytes",
                self.ingest_copies, self.ingest_copied_bytes
            ));
        }
        if self.malformed_closes > self.connections_closed {
            return Err(format!(
                "malformed-close conservation violated: {} malformed closes > {} closes \
                 (every malformed close is a close)",
                self.malformed_closes, self.connections_closed
            ));
        }
        Ok(())
    }

    /// The zero-copy data-plane gate: no ingest-buffer carries at all.
    pub fn check_zero_copy(&self) -> Result<(), String> {
        if self.ingest_copies != 0 {
            return Err(format!(
                "zero-copy ingest violated: {} copy events moved {} bytes",
                self.ingest_copies, self.ingest_copied_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = NetStats::default();
        stats.record_open();
        stats.record_write(100);
        stats.record_write(50);
        stats.record_read(100);
        stats.record_close();
        let snap = stats.snapshot();
        assert_eq!(snap.connections_opened, 1);
        assert_eq!(snap.connections_closed, 1);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.bytes_received, 100);
        assert_eq!(snap.write_calls, 2);
    }

    #[test]
    fn conservation_accepts_a_real_run_shape() {
        let snap = StatsSnapshot {
            connections_opened: 10,
            connections_closed: 18,
            bytes_sent: 4096,
            bytes_received: 4096,
            ..Default::default()
        };
        snap.check_conservation().unwrap();
        snap.check_zero_copy().unwrap();
    }

    #[test]
    fn conservation_rejects_invented_bytes() {
        let snap = StatsSnapshot {
            bytes_sent: 100,
            bytes_received: 101,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("byte conservation"), "{err}");
    }

    #[test]
    fn conservation_rejects_excess_closes() {
        let snap = StatsSnapshot {
            connections_opened: 3,
            connections_closed: 7,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("connection conservation"), "{err}");
    }

    #[test]
    fn conservation_rejects_vectored_writes_outside_write_calls() {
        let snap = StatsSnapshot {
            write_calls: 2,
            vectored_writes: 3,
            vectored_segments: 6,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("writev conservation"), "{err}");
    }

    #[test]
    fn conservation_rejects_fewer_segments_than_vectored_writes() {
        let snap = StatsSnapshot {
            write_calls: 5,
            vectored_writes: 3,
            vectored_segments: 2,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("at least one segment"), "{err}");
    }

    #[test]
    fn conservation_accepts_a_vectored_run_shape() {
        let snap = StatsSnapshot {
            bytes_sent: 1000,
            bytes_received: 1000,
            connections_opened: 2,
            write_calls: 10,
            vectored_writes: 4,
            vectored_segments: 8,
            ..Default::default()
        };
        snap.check_conservation().unwrap();
    }

    #[test]
    fn conservation_rejects_inconsistent_ingest_accounting() {
        let snap = StatsSnapshot {
            ingest_copies: 2,
            ingest_copied_bytes: 0,
            ..Default::default()
        };
        assert!(snap.check_conservation().is_err());
        let snap = StatsSnapshot {
            ingest_copies: 0,
            ingest_copied_bytes: 5,
            ..Default::default()
        };
        assert!(snap.check_conservation().is_err());
    }

    #[test]
    fn conservation_rejects_malformed_closes_outside_closes() {
        let snap = StatsSnapshot {
            connections_opened: 2,
            connections_closed: 1,
            malformed_closes: 2,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("malformed-close conservation"), "{err}");
    }

    #[test]
    fn malformed_close_is_recorded_alongside_the_close() {
        let stats = NetStats::default();
        stats.record_open();
        stats.record_close();
        stats.record_malformed_close();
        let snap = stats.snapshot();
        assert_eq!(snap.malformed_closes, 1);
        snap.check_conservation().unwrap();
    }

    #[test]
    fn zero_copy_gate_reports_copies() {
        let snap = StatsSnapshot {
            ingest_copies: 1,
            ingest_copied_bytes: 512,
            ..Default::default()
        };
        let err = snap.check_zero_copy().unwrap_err();
        assert!(err.contains("512 bytes"), "{err}");
    }

    #[test]
    fn megabit_conversion() {
        let snap = StatsSnapshot {
            bytes_received: 1_000_000,
            ..Default::default()
        };
        assert!((snap.received_megabits() - 8.0).abs() < 1e-9);
    }
}
