//! Seeded inputs: the three workloads and the request shapes they send.
//!
//! Everything here is a pure function of the seed and the network the
//! seed generated, so one seed always replays the same requests.

use std::collections::HashSet;

use spq_dijkstra::{Dijkstra, SearchScope};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_queries::{linf_query_sets, QueryGenParams};

/// Name of the POI set bulk-mixed registers and its kNN requests use.
pub const POI_SET: &str = "bench-poi";
/// kNN requests ask for this many neighbours.
pub const KNN_K: u32 = 8;
/// Sources × targets of one DISTANCES request.
pub const TABLE_SIDE: usize = 32;
/// Targets of one ONE_TO_MANY request.
pub const O2M_TARGETS: usize = 1024;
/// Distinct working-set pairs hot-distance cycles through.
pub const HOT_PAIRS: usize = 4096;
/// The server's default cache capacity (`ServerConfig::default()`);
/// route-cold's warm-up inserts an eighth more distinct keys than
/// that, so every one of the 16 cache shards is full and evicting
/// before timing starts (keys spread over shards by hash; an eighth
/// is several standard deviations of headroom per shard).
pub const CACHE_CAPACITY: usize = 1 << 16;
pub const COLD_WARMUP: usize = CACHE_CAPACITY + CACHE_CAPACITY / 8;
/// Requests per second of timed window the route-cold pair pool is
/// sized for: about twice what the current stack serves on average
/// over the c=1 and c=2 windows on 2 vCPUs. A faster stack that drains
/// it ends the window early and the report says so.
const COLD_POOL_PER_SECOND: usize = 30_000;
/// bulk-mixed request pool (cycled; these ops never touch the cache).
const BULK_POOL: usize = 4096;

/// A named workload: which network, which requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RouteCold,
    HotDistance,
    BulkMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RouteCold,
        Workload::HotDistance,
        Workload::BulkMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteCold => "route-cold",
            Workload::HotDistance => "hot-distance",
            Workload::BulkMixed => "bulk-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Table-1 dataset whose 1/40-scale proxy the workload serves.
    pub fn dataset(self) -> &'static str {
        match self {
            Workload::RouteCold | Workload::BulkMixed => "W-US",
            Workload::HotDistance => "CO",
        }
    }

    pub fn uses_pois(self) -> bool {
        self == Workload::BulkMixed
    }
}

/// The six query ops the benchmark sends, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Distance,
    Path,
    Distances,
    O2m,
    Knn,
    Range,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Distance,
        Op::Path,
        Op::Distances,
        Op::O2m,
        Op::Knn,
        Op::Range,
    ];

    /// Span names of the session call and the raw kernel for this op.
    pub fn span_names(self) -> (&'static str, &'static str) {
        match self {
            Op::Distance => ("session.distance", "kernel.distance"),
            Op::Path => ("session.path", "kernel.path"),
            Op::Distances => ("session.distances", "kernel.distances"),
            Op::O2m => ("session.o2m", "kernel.o2m"),
            Op::Knn => ("session.knn", "kernel.knn"),
            Op::Range => ("session.range", "kernel.range"),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Distance => "distance",
            Op::Path => "path",
            Op::Distances => "distances",
            Op::O2m => "o2m",
            Op::Knn => "knn",
            Op::Range => "range",
        }
    }
}

/// One request as the benchmark generates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    Distance {
        s: NodeId,
        t: NodeId,
    },
    Path {
        s: NodeId,
        t: NodeId,
    },
    Distances {
        sources: Vec<NodeId>,
        targets: Vec<NodeId>,
    },
    O2m {
        s: NodeId,
        targets: Vec<NodeId>,
    },
    Knn {
        s: NodeId,
        k: u32,
    },
    Range {
        s: NodeId,
        limit: Dist,
    },
}

impl Req {
    pub fn op(&self) -> Op {
        match self {
            Req::Distance { .. } => Op::Distance,
            Req::Path { .. } => Op::Path,
            Req::Distances { .. } => Op::Distances,
            Req::O2m { .. } => Op::O2m,
            Req::Knn { .. } => Op::Knn,
            Req::Range { .. } => Op::Range,
        }
    }
}

/// The requests a workload sends. `Pairs` never repeats: request `i`
/// is pair `i`, DISTANCE and PATH alternating in runs of ten so both
/// ops see every Q-band. `Cycle` repeats its list.
pub enum Pool {
    Pairs(Vec<(NodeId, NodeId)>),
    Cycle(Vec<Req>),
}

impl Pool {
    /// Request `i`, or `None` once a non-repeating pool is drained.
    pub fn get(&self, i: u64) -> Option<Req> {
        match self {
            Pool::Pairs(pairs) => {
                let &(s, t) = pairs.get(i as usize)?;
                Some(if (i / 10).is_multiple_of(2) {
                    Req::Distance { s, t }
                } else {
                    Req::Path { s, t }
                })
            }
            Pool::Cycle(reqs) => Some(reqs[(i % reqs.len() as u64) as usize].clone()),
        }
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// Sent (pipelined, untimed) before any timed window.
    pub warmup: Vec<Req>,
    /// Drawn in order by the timed windows.
    pub pool: Pool,
    /// Vertices of the POI set kNN requests name (empty when unused).
    pub pois: Vec<NodeId>,
}

/// SplitMix64: a tiny seeded generator, enough for sampling inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn vertex(&mut self, net: &RoadNetwork) -> NodeId {
        self.below(net.num_nodes()) as NodeId
    }

    pub fn vertices(&mut self, net: &RoadNetwork, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.vertex(net)).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Whether request `i` of a window is recorded for the answer check:
/// a seeded hash so the sample is spread evenly over the window.
pub fn sampled(seed: u64, i: u64, one_in: u64) -> bool {
    let mut r = Rng::new(seed ^ i.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64().is_multiple_of(one_in)
}

/// `count` distinct (s, t) pairs stratified over the paper's Q1–Q10
/// L∞ bands, interleaved band by band (a band that runs dry drops out
/// of the rotation).
pub fn band_pairs(net: &RoadNetwork, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let params = QueryGenParams {
        // Headroom for duplicates inside the tight near bands.
        per_set: (count + count / 20).div_ceil(10) + 16,
        grid: 1024,
        seed,
    };
    let sets = linf_query_sets(net, &params);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut cursors = vec![0usize; sets.len()];
    while out.len() < count {
        let mut progressed = false;
        for (set, cur) in sets.iter().zip(cursors.iter_mut()) {
            while let Some(&pair) = set.pairs.get(*cur) {
                *cur += 1;
                if seen.insert(pair) {
                    out.push(pair);
                    progressed = true;
                    break;
                }
            }
            if out.len() == count {
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    out
}

/// Distance at which a source's ball holds `share_pct`% of the
/// network: the radius a truncated Dijkstra reaches after settling
/// that many vertices.
pub fn profile_radius(net: &RoadNetwork, dij: &mut Dijkstra, s: NodeId, share_pct: usize) -> Dist {
    let want = (net.num_nodes() * share_pct / 100).max(1);
    let mut settled = 0;
    let mut radius = 0;
    dij.run_scoped(net, s, SearchScope::Full, |_, d| {
        settled += 1;
        radius = d;
        settled >= want
    });
    radius
}

/// One request of `op`, as bulk-mixed (and the traced probes) send it.
pub fn make_req(op: Op, net: &RoadNetwork, dij: &mut Dijkstra, rng: &mut Rng) -> Req {
    match op {
        Op::Distance | Op::Path => {
            let (s, t) = (rng.vertex(net), rng.vertex(net));
            if op == Op::Distance {
                Req::Distance { s, t }
            } else {
                Req::Path { s, t }
            }
        }
        Op::Distances => Req::Distances {
            sources: rng.vertices(net, TABLE_SIDE),
            targets: rng.vertices(net, TABLE_SIDE),
        },
        Op::O2m => Req::O2m {
            s: rng.vertex(net),
            targets: rng.vertices(net, O2M_TARGETS),
        },
        Op::Knn => Req::Knn {
            s: rng.vertex(net),
            k: KNN_K,
        },
        Op::Range => {
            let s = rng.vertex(net);
            Req::Range {
                s,
                limit: profile_radius(net, dij, s, 1),
            }
        }
    }
}

/// The POI set bulk-mixed registers: 1% of the vertices.
pub fn poi_count(net: &RoadNetwork) -> usize {
    (net.num_nodes() / 100).max(KNN_K as usize)
}

/// Generates a workload's inputs for a timed budget of `seconds`.
pub fn inputs(wl: Workload, net: &RoadNetwork, pois: &[NodeId], seed: u64, seconds: u64) -> Inputs {
    match wl {
        Workload::RouteCold => {
            let total = COLD_WARMUP + seconds as usize * COLD_POOL_PER_SECOND;
            let mut pairs = band_pairs(net, total, seed);
            let timed = pairs.split_off(COLD_WARMUP.min(pairs.len()));
            Inputs {
                warmup: pairs
                    .into_iter()
                    .map(|(s, t)| Req::Distance { s, t })
                    .collect(),
                pool: Pool::Pairs(timed),
                pois: Vec::new(),
            }
        }
        Workload::HotDistance => {
            let mut pairs = band_pairs(net, HOT_PAIRS, seed);
            Rng::new(seed).shuffle(&mut pairs);
            let reqs: Vec<Req> = pairs
                .into_iter()
                .map(|(s, t)| Req::Distance { s, t })
                .collect();
            Inputs {
                warmup: reqs.clone(),
                pool: Pool::Cycle(reqs),
                pois: Vec::new(),
            }
        }
        Workload::BulkMixed => {
            let mut rng = Rng::new(seed);
            let mut dij = Dijkstra::new(net.num_nodes());
            // Weights 4:2:1:1 (tables : one-to-many : kNN : range).
            const PATTERN: [Op; 8] = [
                Op::Distances,
                Op::Distances,
                Op::Distances,
                Op::Distances,
                Op::O2m,
                Op::O2m,
                Op::Knn,
                Op::Range,
            ];
            let mut reqs: Vec<Req> = (0..BULK_POOL)
                .map(|i| make_req(PATTERN[i % PATTERN.len()], net, &mut dij, &mut rng))
                .collect();
            rng.shuffle(&mut reqs);
            Inputs {
                warmup: reqs[..64].to_vec(),
                pool: Pool::Cycle(reqs),
                pois: pois.to_vec(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_cold_pool_alternates_ops_across_bands_and_never_repeats() {
        let pairs: Vec<(NodeId, NodeId)> = (0..40).map(|i| (i, i + 1)).collect();
        let pool = Pool::Pairs(pairs);
        let ops: Vec<Op> = (0..40).map(|i| pool.get(i).unwrap().op()).collect();
        // Runs of ten (one per Q-band) alternate DISTANCE and PATH, so
        // each band position sees both ops.
        assert!(ops[..10].iter().all(|&o| o == Op::Distance));
        assert!(ops[10..20].iter().all(|&o| o == Op::Path));
        assert!(pool.get(40).is_none(), "a drained pool never wraps around");
    }

    #[test]
    fn band_pairs_are_distinct_and_seeded() {
        let net = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(3000, 5));
        let a = band_pairs(&net, 2000, 9);
        assert_eq!(a.len(), 2000);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), a.len());
        assert_eq!(a, band_pairs(&net, 2000, 9));
        assert_ne!(a, band_pairs(&net, 2000, 10));
    }
}
