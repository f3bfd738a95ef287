//! Closed-loop clients over real loopback connections.
//!
//! Each client thread owns one `ServeClient` connection and sends its
//! next request only after the previous reply. There are no retries:
//! an error status, a BUSY shed, an exceeded deadline or a dropped
//! connection is a failed request, and the thread reconnects for the
//! next one.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use spq_graph::types::{Dist, NodeId};
use spq_serve::protocol::{self, Request};
use spq_serve::{BackendKind, ClientError, ServeClient};

use crate::gen::{sampled, Op, Pool, Req, POI_SET};
use crate::trace::{Span, Tracer};

/// Every request goes to the CH serving slot.
pub const BACKEND: BackendKind = BackendKind::Ch;
/// Socket timeout: a hung server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A served answer, decoded by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Dist(Option<Dist>),
    Path(Option<(Dist, Vec<NodeId>)>),
    Table(Vec<Option<Dist>>),
    Entries(Vec<(NodeId, Dist)>),
}

/// One request of a timed window kept for the answer check.
pub struct Recorded {
    pub req: Req,
    pub answer: Answer,
}

pub fn connect(addr: SocketAddr) -> Result<ServeClient, ClientError> {
    let client = ServeClient::connect(addr)?;
    client.set_io_timeout(Some(IO_TIMEOUT))?;
    Ok(client)
}

/// Sends one request through the typed client.
pub fn send(client: &mut ServeClient, req: &Req) -> Result<Answer, ClientError> {
    Ok(match req {
        Req::Distance { s, t } => Answer::Dist(client.distance(BACKEND, *s, *t)?),
        Req::Path { s, t } => Answer::Path(client.shortest_path(BACKEND, *s, *t)?),
        Req::Distances { sources, targets } => {
            Answer::Table(client.distances(BACKEND, sources, targets)?)
        }
        Req::O2m { s, targets } => Answer::Table(client.one_to_many(BACKEND, *s, targets)?),
        Req::Knn { s, k } => Answer::Entries(client.knn(BACKEND, *s, *k, POI_SET)?),
        Req::Range { s, limit } => Answer::Entries(client.range(BACKEND, *s, *limit)?),
    })
}

/// The wire form of a request, as the server decodes it.
pub fn wire(req: &Req) -> Request {
    let backend = BACKEND.wire_id();
    match req.clone() {
        Req::Distance { s, t } => Request::Distance {
            backend,
            s,
            t,
            deadline_ms: 0,
        },
        Req::Path { s, t } => Request::Path {
            backend,
            s,
            t,
            deadline_ms: 0,
        },
        Req::Distances { sources, targets } => Request::Distances {
            backend,
            sources,
            targets,
            deadline_ms: 0,
        },
        Req::O2m { s, targets } => Request::OneToMany {
            backend,
            s,
            targets,
            deadline_ms: 0,
        },
        Req::Knn { s, k } => Request::Knn {
            backend,
            s,
            k,
            poi: POI_SET.to_string(),
            deadline_ms: 0,
        },
        Req::Range { s, limit } => Request::Range {
            backend,
            s,
            limit,
            deadline_ms: 0,
        },
    }
}

/// Sends `reqs` untimed over `threads` connections, pipelining up to
/// the server's default depth. Returns the number of non-OK replies.
pub fn warm_up(addr: SocketAddr, reqs: &[Req], threads: usize) -> Result<u64, ClientError> {
    let frames: Vec<Vec<u8>> = reqs.iter().map(|r| wire(r).encode()).collect();
    let per = frames.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = frames
            .chunks(per)
            .map(|chunk| {
                scope.spawn(move || -> Result<u64, ClientError> {
                    let mut client = connect(addr)?;
                    let mut bad = 0;
                    for burst in chunk.chunks(32) {
                        for reply in client.pipeline_raw(burst)? {
                            bad += u64::from(reply.first() != Some(&protocol::STATUS_OK));
                        }
                    }
                    Ok(bad)
                })
            })
            .collect();
        let mut bad = 0;
        for h in handles {
            bad += h.join().expect("warm-up thread panicked")?;
        }
        Ok(bad)
    })
}

/// The outcome of one timed window.
#[derive(Default)]
pub struct Window {
    pub elapsed_s: f64,
    /// Client-observed latency of every reply in ns (saturating at
    /// ~4.3 s), with its op; only when the window records latencies.
    pub latencies: Vec<(Op, u32)>,
    pub ok: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub recorded: Vec<Recorded>,
    /// A non-repeating pool ran dry before the window's time was up.
    pub drained: bool,
    pub spans: Vec<Span>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    pub fn absorb(&mut self, other: Window) {
        self.elapsed_s += other.elapsed_s;
        self.latencies.extend(other.latencies);
        self.ok += other.ok;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.recorded.extend(other.recorded);
        self.drained |= other.drained;
        self.spans.extend(other.spans);
    }
}

/// What a window records besides latencies.
#[derive(Clone, Copy)]
pub struct Recording<'a> {
    pub seed: u64,
    /// Record about one in this many replies for the answer check.
    pub one_in: u64,
    /// Keep every reply's latency (c=1 windows; throughput windows
    /// only count replies, so the benchmark's own memory stays small).
    pub latencies: bool,
    /// Record a client span per request (traced runs only).
    pub tracer: Option<&'a Tracer>,
}

/// Runs `threads` closed-loop clients for `dur`, drawing requests from
/// `pool` through the shared `cursor`.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    cursor: &AtomicU64,
    threads: usize,
    dur: Duration,
    rec: Recording<'_>,
) -> Window {
    let barrier = Barrier::new(threads + 1);
    let (start, parts) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| client_thread(addr, pool, cursor, &barrier, dur, rec)))
            .collect();
        barrier.wait();
        let start = Instant::now();
        let parts: Vec<Window> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start, parts)
    });
    let mut window = Window::default();
    for part in parts {
        window.absorb(part);
    }
    window.elapsed_s = start.elapsed().as_secs_f64();
    window
}

fn client_thread(
    addr: SocketAddr,
    pool: &Pool,
    cursor: &AtomicU64,
    barrier: &Barrier,
    dur: Duration,
    rec: Recording<'_>,
) -> Window {
    let mut out = Window::default();
    let mut client = connect(addr).ok();
    barrier.wait();
    let mut now = Instant::now();
    let end = now + dur;
    while now < end {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(req) = pool.get(i) else {
            out.drained = true;
            break;
        };
        let t0 = Instant::now();
        let result = match client.as_mut() {
            Some(c) => send(c, &req),
            None => connect(addr).and_then(|c| send(client.insert(c), &req)),
        };
        let t1 = Instant::now();
        now = t1;
        match result {
            Ok(answer) => {
                out.ok += 1;
                if rec.latencies {
                    let ns = u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX);
                    out.latencies.push((req.op(), ns));
                }
                if let Some(tracer) = rec.tracer {
                    out.spans.push(tracer.span(i, 0, req.op().name(), t0, t1));
                }
                if sampled(rec.seed, i, rec.one_in) {
                    out.recorded.push(Recorded { req, answer });
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 4 {
                    out.errors
                        .push(format!("{} request {i}: {e}", req.op().name()));
                }
                if matches!(e, ClientError::Io(_)) {
                    client = None;
                }
            }
        }
    }
    out
}

/// Counters read from the server's STATS text.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub len: u64,
    pub capacity: u64,
    pub shed: u64,
    pub deadlines_exceeded: u64,
}

fn field(text: &str, line: &str, key: &str) -> Result<u64, String> {
    text.lines()
        .find(|l| l.starts_with(line))
        .and_then(|l| {
            l.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        })
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("STATS has no {line} {key}=<n>"))
}

/// Reads the `cache:` and `faults:` counters over a fresh connection.
pub fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let text = connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))?;
    Ok(Counters {
        hits: field(&text, "cache:", "hits")?,
        misses: field(&text, "cache:", "misses")?,
        evictions: field(&text, "cache:", "evictions")?,
        len: field(&text, "cache:", "len")?,
        capacity: field(&text, "cache:", "capacity")?,
        shed: field(&text, "faults:", "shed")?,
        deadlines_exceeded: field(&text, "faults:", "deadlines_exceeded")?,
    })
}

/// Closed-loop round-trip samples (µs) of `probe` on one connection.
pub fn rtt_samples(
    count: usize,
    mut probe: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = Instant::now();
        probe()?;
        out.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_parse_by_line_and_key() {
        let text = "epoch: 1\n\
            faults: shed=3 client_timeouts=0 deadlines_exceeded=2 force_closed=0 slow_closed=0\n\
            cache: hits=10 misses=5 hit_rate=66.7% insertions=5 evictions=1 purged=0 len=4 capacity=64\n";
        assert_eq!(field(text, "cache:", "hits"), Ok(10));
        assert_eq!(field(text, "cache:", "capacity"), Ok(64));
        assert_eq!(field(text, "faults:", "shed"), Ok(3));
        assert_eq!(field(text, "faults:", "deadlines_exceeded"), Ok(2));
        // `hit_rate` is not a whole number; a missing line is an error.
        assert!(field(text, "cache:", "hit_rate").is_err());
        assert!(field(text, "resources:", "mem_used").is_err());
    }
}
