//! The wordcount aggregation workload: mapper connections stream seeded
//! records into the aggregator, and a round ends when the reducer's
//! per-word totals equal the generator's ground truth.

use crate::backend::{Backends, RoundVerdict};
use crate::gen::{self, MapperStream};
use crate::trace::Tracer;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::Receiver;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A round whose totals do not arrive within this long has failed.
const ROUND_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Rounds<'a> {
    pub addr: &'a str,
    pub seed: u64,
    pub mappers: usize,
    pub dict: &'a [String],
    pub bytes_per_mapper: usize,
    pub backends: &'a Backends,
    pub verdicts: &'a Receiver<RoundVerdict>,
}

/// One finished round.
#[derive(Debug)]
pub struct Round {
    /// When the first byte was sent and when the verdict arrived.
    pub started: Instant,
    pub ended: Instant,
    pub elapsed: Duration,
    pub bytes: u64,
    pub records: u64,
    pub verdict: RoundVerdict,
}

impl Rounds<'_> {
    /// Runs round `round`: generates the mapper streams, connects every
    /// mapper, then times from the first byte sent until the reducer's
    /// verdict. Returns the round and the streams it sent.
    pub fn run(&self, round: u64, tracer: &mut Tracer) -> (Round, Vec<MapperStream>) {
        let streams: Vec<MapperStream> = (0..self.mappers)
            .map(|m| gen::mapper_stream(self.seed, round, m, self.dict, self.bytes_per_mapper))
            .collect();
        self.backends.expect_totals(gen::merge_totals(&streams));
        let bytes = streams.iter().map(|s| s.bytes.len() as u64).sum();
        let records = streams.iter().map(|s| s.records as u64).sum();
        let barrier = Barrier::new(self.mappers + 1);
        let addr = self.addr;
        let span = tracer.begin("client.round", round + 1);
        let (started, elapsed, verdict, children) = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let mut child = tracer.child();
                    let barrier = &barrier;
                    s.spawn(move || {
                        let conn = TcpStream::connect(addr);
                        barrier.wait();
                        let sent = conn.and_then(|mut c| {
                            child.scope("client.send", round + 1, |_| c.write_all(&stream.bytes))
                        });
                        (sent, child)
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let verdict = match self.verdicts.recv_timeout(ROUND_TIMEOUT) {
                Ok(v) => v,
                Err(_) => Err(format!("no reducer verdict within {ROUND_TIMEOUT:?}")),
            };
            let elapsed = start.elapsed();
            let mut verdict = verdict;
            let mut children = Vec::new();
            for h in handles {
                let (sent, child) = h.join().expect("mapper thread panicked");
                if let Err(e) = sent {
                    verdict = Err(format!("mapper send: {e}"));
                }
                children.push(child);
            }
            (start, elapsed, verdict, children)
        });
        for child in children {
            tracer.adopt(child);
        }
        tracer.end(span);
        (
            Round {
                started,
                ended: started + elapsed,
                elapsed,
                bytes,
                records,
                verdict,
            },
            streams,
        )
    }
}
