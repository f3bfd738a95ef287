//! The traced run's spans and its per-layer probes.
//!
//! Spans are recorded by the benchmark's own wrappers around calls
//! into each layer's public API (the program itself carries no spans):
//! name, start, end, parent and the id of the request they belong to.
//! They stay in memory and are written out as JSON lines at the end.
//!
//! A seeded sample of the requests the traced window served is replayed
//! in-process, one child span per layer under that request's client
//! span: `Request::decode`, the distance-cache get (and insert on a
//! miss), the `Session` call with a budget installed the way the
//! server installs one, the raw kernel on its own, and the response
//! encoder. Session minus kernel is the session overhead.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spq_ch::{BatchDistances, ChQuery, ContractionHierarchy};
use spq_graph::backend::{Backend, PoiRef, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;
use spq_many::{KnnWorkspace, ManyBackend, OneToMany, PoiEntry, PoiIndex, PoiSet, PoiTable};
use spq_serve::protocol::{self, Request};
use spq_serve::DistanceCache;

use crate::drive::{wire, Answer, BACKEND};
use crate::gen::{Op, Req, CACHE_CAPACITY, POI_SET};
use crate::pct::median;

/// One timed interval. `parent` 0 marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The request this span belongs to (0 for set-up and probes).
    pub rid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Hands out span ids and timestamps relative to one origin.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn span(
        &self,
        rid: u64,
        parent: u64,
        name: &'static str,
        t0: Instant,
        t1: Instant,
    ) -> Span {
        Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            rid,
            name,
            start_ns: (t0 - self.origin).as_nanos() as u64,
            end_ns: (t1 - self.origin).as_nanos() as u64,
        }
    }

    /// Times `f` as one root span of no request (set-up work).
    pub fn time<R>(&self, spans: &mut Vec<Span>, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        spans.push(self.span(0, 0, name, t0, Instant::now()));
        r
    }
}

/// Median cost of reading the clock twice around nothing: subtracted
/// from every replayed span so sub-microsecond layers are not swamped.
pub fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..10_000)
        .map(|_| {
            let t0 = Instant::now();
            (Instant::now() - t0).as_nanos() as f64
        })
        .collect();
    median(&mut v)
}

/// Each span's self time: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> std::collections::HashMap<u64, u64> {
    let mut kids: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(iv) = kids.get_mut(&s.id) {
                iv.sort_unstable();
                let mut cur = s.start_ns;
                for &(a, b) in iv.iter() {
                    let (a, b) = (a.max(cur), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cur = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"rid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.rid, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Layer timings of one replayed request (ns, clock overhead removed).
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub op: Option<Op>,
    pub decode: f64,
    pub cache_get: f64,
    pub cache_insert: f64,
    pub cache_hit: bool,
    pub session: f64,
    pub kernel: f64,
    pub encode: f64,
    pub response_bytes: usize,
    /// Vertices on the path / entries in the range ball.
    pub items: usize,
}

/// The in-process copy of every layer a request passes through.
pub struct Layers<'a> {
    ch: &'a ContractionHierarchy,
    poi_index: &'a PoiIndex,
    session: Box<dyn Session + 'a>,
    query: ChQuery<'a>,
    batch: BatchDistances<'a>,
    o2m: OneToMany<'a>,
    knn_ws: KnnWorkspace,
    pub cache: DistanceCache,
    kill: Arc<AtomicBool>,
    clock_ns: f64,
    kernel_first: bool,
}

/// The serving backend the replay's sessions come from: the same type
/// the engine serves its CH slot through, over the given hierarchy and
/// POI set.
pub fn serving_backend(
    ch: Arc<ContractionHierarchy>,
    pois: PoiSet,
    index: PoiIndex,
) -> Result<ManyBackend, String> {
    let table = PoiTable::empty();
    table.install(vec![PoiEntry { set: pois, index }])?;
    Ok(ManyBackend::new(ch, table))
}

impl<'a> Layers<'a> {
    pub fn new(
        net: &'a RoadNetwork,
        backend: &'a ManyBackend,
        poi_index: &'a PoiIndex,
        clock_ns: f64,
    ) -> Layers<'a> {
        let ch: &ContractionHierarchy = backend.hierarchy();
        Layers {
            ch,
            poi_index,
            session: backend.session(net),
            query: ChQuery::new(ch),
            batch: BatchDistances::new(ch),
            o2m: OneToMany::new(ch),
            knn_ws: KnnWorkspace::new(),
            cache: DistanceCache::new(CACHE_CAPACITY, 16),
            kill: Arc::new(AtomicBool::new(false)),
            clock_ns,
            kernel_first: false,
        }
    }

    /// The request through `Session`, as a server worker runs it.
    fn session_call(&mut self, req: &Request) -> Answer {
        let session = &mut self.session;
        let mut out = Vec::new();
        let mut entries = Vec::new();
        match req {
            Request::Distance { s, t, .. } => Answer::Dist(session.distance(*s, *t)),
            Request::Path { s, t, .. } => Answer::Path(session.shortest_path(*s, *t)),
            Request::Distances {
                sources, targets, ..
            } => {
                session.distances(sources, targets, &mut out);
                Answer::Table(out)
            }
            Request::OneToMany { s, targets, .. } => {
                session.one_to_many(*s, targets, &mut out);
                Answer::Table(out)
            }
            Request::Knn { s, k, poi, .. } => {
                let poi = PoiRef {
                    name: poi,
                    nodes: self.poi_index.nodes(),
                };
                session.knn(*s, *k as usize, poi, &mut entries);
                Answer::Entries(entries)
            }
            Request::Range { s, limit, .. } => {
                session.range(*s, *limit, &mut entries);
                Answer::Entries(entries)
            }
            other => unreachable!("the benchmark sends no {other:?}"),
        }
    }

    /// The same request straight into the kernel that answers it.
    fn kernel_call(&mut self, req: &Request) -> Answer {
        let mut out = Vec::new();
        let mut entries = Vec::new();
        match req {
            Request::Distance { s, t, .. } => Answer::Dist(self.query.distance(*s, *t)),
            Request::Path { s, t, .. } => Answer::Path(self.query.shortest_path(*s, *t)),
            Request::Distances {
                sources, targets, ..
            } => {
                let mut raw = Vec::new();
                self.batch.table_into(sources, targets, &mut raw);
                Answer::Table(raw.iter().map(|&d| (d < INFINITY).then_some(d)).collect())
            }
            Request::OneToMany { s, targets, .. } => {
                self.o2m.run(*s);
                self.o2m.distances_into(targets, &mut out);
                Answer::Table(out)
            }
            Request::Knn { s, k, .. } => {
                let sg = self.ch.search_graph();
                self.poi_index
                    .knn(sg, &mut self.knn_ws, *s, *k as usize, &mut entries);
                Answer::Entries(entries)
            }
            Request::Range { s, limit, .. } => {
                self.o2m.range(*s, *limit, &mut entries);
                Answer::Entries(entries)
            }
            other => unreachable!("the benchmark sends no {other:?}"),
        }
    }

    /// Replays one request through every layer, recording child spans
    /// of `parent`. `Err` when a layer fails or the session and the raw
    /// kernel disagree.
    pub fn replay(
        &mut self,
        tracer: &Tracer,
        spans: &mut Vec<Span>,
        rid: u64,
        parent: u64,
        req: &Req,
    ) -> Result<Replayed, String> {
        let op = req.op();
        let payload = wire(req).encode();
        let clock_ns = self.clock_ns;
        let mut mark = |name: &'static str, t0: Instant, t1: Instant| -> f64 {
            spans.push(tracer.span(rid, parent, name, t0, t1));
            ((t1 - t0).as_nanos() as f64 - clock_ns).max(0.0)
        };
        let mut r = Replayed {
            op: Some(op),
            ..Replayed::default()
        };
        let t0 = Instant::now();
        let decoded = Request::decode(&payload);
        r.decode = mark("protocol.decode", t0, Instant::now());
        let decoded = decoded?;

        let backend = BACKEND.wire_id();
        let mut answer = None;
        if let Request::Distance { s, t, .. } = decoded {
            let t0 = Instant::now();
            let cached = self.cache.get(1, backend, s, t);
            r.cache_get = mark("cache.get", t0, Instant::now());
            r.cache_hit = cached.is_some();
            answer = cached.map(Answer::Dist);
        }
        let answer = match answer {
            Some(hit) => hit,
            None => {
                let (session_span, kernel_span) = op.span_names();
                // The second of two identical searches finds the first
                // one's data in cache, so the order alternates: each
                // median mixes first and second runs in equal parts.
                self.kernel_first = !self.kernel_first;
                let mut kernel_t = (Instant::now(), Instant::now());
                let mut raw = None;
                if self.kernel_first {
                    raw = Some(self.kernel_call(&decoded));
                    kernel_t.1 = Instant::now();
                }
                let t0 = Instant::now();
                self.session
                    .set_budget(QueryBudget::unlimited().with_kill_flag(Arc::clone(&self.kill)));
                let served = self.session_call(&decoded);
                let t1 = Instant::now();
                let raw = match raw {
                    Some(raw) => raw,
                    None => {
                        kernel_t.0 = t1;
                        let raw = self.kernel_call(&decoded);
                        kernel_t.1 = Instant::now();
                        raw
                    }
                };
                r.session = mark(session_span, t0, t1);
                r.kernel = mark(kernel_span, kernel_t.0, kernel_t.1);
                if served != raw {
                    return Err(format!(
                        "{}: the session and the raw kernel disagree",
                        op.name()
                    ));
                }
                if let (Request::Distance { s, t, .. }, Answer::Dist(d)) = (&decoded, &served) {
                    let t0 = Instant::now();
                    self.cache.insert(1, backend, *s, *t, *d);
                    r.cache_insert = mark("cache.insert", t0, Instant::now());
                }
                served
            }
        };
        r.items = match &answer {
            Answer::Path(p) => p.as_ref().map_or(0, |(_, v)| v.len()),
            Answer::Entries(e) => e.len(),
            Answer::Table(t) => t.len(),
            Answer::Dist(_) => 1,
        };
        let t0 = Instant::now();
        let bytes = match answer {
            Answer::Dist(d) => protocol::encode_distance_response(d),
            Answer::Path(p) => protocol::encode_path_response(p),
            Answer::Table(t) => protocol::encode_distances_response(&t),
            Answer::Entries(e) => protocol::encode_nodes_dists_response(&e),
        };
        r.encode = mark("protocol.encode", t0, Instant::now());
        r.response_bytes = bytes.len();
        Ok(r)
    }
}

/// Median ns per operation of `op` timed in batches of `batch`.
pub fn batched_ns(batches: usize, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per: Vec<f64> = (0..batches)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..batch {
                op(b * batch + i);
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&mut per)
}

/// `cache.get_ns` / `cache.insert_ns`: a cache filled to capacity and
/// evicting, as the server's is after route-cold's warm-up. Gets hit
/// recently inserted keys; every insert is a new key that evicts.
pub fn cache_probe() -> (f64, f64) {
    let cache = DistanceCache::new(CACHE_CAPACITY, 16);
    let key = |i: usize| ((i * 7919 % 100_003) as NodeId, (i / 100_003) as NodeId);
    let filled = CACHE_CAPACITY * 3 / 2;
    for i in 0..filled {
        let (s, t) = key(i);
        cache.insert(1, BACKEND.wire_id(), s, t, Some(i as Dist));
    }
    let recent = filled - 4096;
    let get = batched_ns(64, 256, |i| {
        let (s, t) = key(recent + i % 4096);
        std::hint::black_box(cache.get(1, BACKEND.wire_id(), s, t));
    });
    let insert = batched_ns(64, 256, |i| {
        let (s, t) = key(filled + i);
        cache.insert(1, BACKEND.wire_id(), s, t, Some(i as Dist));
    });
    (get, insert)
}

/// A std-only echo peer: answers each frame with a frame of
/// `reply_len` bytes, the floor under any request/response exchange
/// of those sizes over loopback.
pub struct Echo {
    pub addr: SocketAddr,
    handle: std::thread::JoinHandle<()>,
}

impl Echo {
    pub fn start(reply_len: usize) -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let handle = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let reply = vec![0u8; reply_len];
            let mut buf = Vec::new();
            while let Ok(true) = protocol::read_frame(&mut stream, &mut buf) {
                if protocol::write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
        });
        Ok(Echo { addr, handle })
    }

    /// Connects the one client the peer serves.
    pub fn client(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Waits for the peer thread (its client must be closed first).
    pub fn join(self) {
        self.handle.join().expect("echo thread panicked");
    }
}

/// Builds the POI set every workload's traced run indexes (and
/// bulk-mixed registers with the engine).
pub fn poi_set(net: &RoadNetwork, seed: u64) -> PoiSet {
    PoiSet::sample(net, POI_SET, crate::gen::poi_count(net), seed)
        .expect("1% of a non-empty network is a valid POI sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            rid: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_part_children_cover() {
        // Parent 0..100; children 10..30 and 25..40 overlap each other
        // (covering 10..40) and 90..120 runs past the parent's end
        // (covering 90..100): 40 of the parent's 100 ns are covered.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 25, 40),
            span(4, 1, 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 60);
        assert_eq!((st[&2], st[&3], st[&4]), (20, 15, 30));
    }
}
