//! The answer check: served answers against plain Dijkstra.
//!
//! Runs after the clock stops, over the seeded sample each timed
//! window recorded. Distances must match the oracle exactly; a path
//! must start at `s`, end at `t`, exist edge by edge and be as long as
//! its claimed distance; tables, one-to-many rows, kNN lists and range
//! balls must equal what a Dijkstra search from the source gives.

use spq_dijkstra::{Dijkstra, SearchScope};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

use crate::drive::{Answer, Recorded};
use crate::gen::Req;

/// Table rows checked per recorded DISTANCES reply (each row is a full
/// Dijkstra search on a network of ~167k vertices).
const TABLE_ROWS_CHECKED: usize = 2;

pub struct Oracle<'a> {
    net: &'a RoadNetwork,
    dij: Dijkstra,
    /// POI vertices, sorted.
    pois: Vec<NodeId>,
}

impl<'a> Oracle<'a> {
    pub fn new(net: &'a RoadNetwork, pois: &[NodeId]) -> Oracle<'a> {
        let mut pois = pois.to_vec();
        pois.sort_unstable();
        Oracle {
            net,
            dij: Dijkstra::new(net.num_nodes()),
            pois,
        }
    }

    fn row(&mut self, s: NodeId, targets: &[NodeId]) -> Vec<Option<Dist>> {
        self.dij.run(self.net, s);
        targets.iter().map(|&t| self.dij.distance(t)).collect()
    }

    /// `Err` describes the first disagreement.
    pub fn check(&mut self, rec: &Recorded) -> Result<(), String> {
        let net = self.net;
        match (&rec.req, &rec.answer) {
            (Req::Distance { s, t }, Answer::Dist(got)) => {
                let want = self.dij.run_to_target(net, *s, *t);
                expect_eq(*got, want, || format!("distance({s}, {t})"))
            }
            (Req::Path { s, t }, Answer::Path(got)) => {
                let want = self.dij.run_to_target(net, *s, *t);
                match got {
                    None => expect_eq(None, want, || format!("path({s}, {t})")),
                    Some((d, path)) => {
                        expect_eq(Some(*d), want, || format!("path({s}, {t}) distance"))?;
                        if path.first() != Some(s) || path.last() != Some(t) {
                            return Err(format!("path({s}, {t}) has the wrong endpoints"));
                        }
                        expect_eq(net.path_length(path), Some(*d), || {
                            format!("path({s}, {t}) length along its edges")
                        })
                    }
                }
            }
            (Req::Distances { sources, targets }, Answer::Table(got)) => {
                if got.len() != sources.len() * targets.len() {
                    return Err(format!(
                        "table has {} cells, wants {}",
                        got.len(),
                        sources.len() * targets.len()
                    ));
                }
                let step = (sources.len() / TABLE_ROWS_CHECKED).max(1);
                for (i, &s) in sources.iter().enumerate().step_by(step) {
                    let want = self.row(s, targets);
                    let have = &got[i * targets.len()..(i + 1) * targets.len()];
                    expect_eq(have, want.as_slice(), || format!("table row of source {s}"))?;
                }
                Ok(())
            }
            (Req::O2m { s, targets }, Answer::Table(got)) => {
                let want = self.row(*s, targets);
                expect_eq(got.as_slice(), want.as_slice(), || {
                    format!("one-to-many from {s}")
                })
            }
            (Req::Knn { s, k }, Answer::Entries(got)) => {
                let want = self.knn(*s, *k as usize);
                expect_eq(got.as_slice(), want.as_slice(), || {
                    format!("knn({s}, k={k})")
                })
            }
            (Req::Range { s, limit }, Answer::Entries(got)) => {
                let mut want = Vec::new();
                self.dij.run_scoped(net, *s, SearchScope::Full, |v, d| {
                    if d > *limit {
                        return true;
                    }
                    want.push((v, d));
                    false
                });
                want.sort_unstable();
                expect_eq(got.as_slice(), want.as_slice(), || {
                    format!("range({s}, {limit})")
                })
            }
            (req, answer) => Err(format!("{:?} answered with {answer:?}", req.op())),
        }
    }

    /// The `k` nearest POIs by `(distance, vertex)`: settle in distance
    /// order until the k-th POI's distance is passed, so ties at that
    /// distance are all seen before the vertex-id tie-break.
    fn knn(&mut self, s: NodeId, k: usize) -> Vec<(NodeId, Dist)> {
        let mut found: Vec<(NodeId, Dist)> = Vec::new();
        let pois = &self.pois;
        self.dij.run_scoped(self.net, s, SearchScope::Full, |v, d| {
            if found.len() >= k && d > found[k - 1].1 {
                return true;
            }
            if pois.binary_search(&v).is_ok() {
                found.push((v, d));
            }
            false
        });
        found.sort_unstable_by_key(|&(v, d)| (d, v));
        found.truncate(k);
        found
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    got: T,
    want: T,
    what: impl FnOnce() -> String,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let (g, w) = (format!("{got:?}"), format!("{want:?}"));
        let clip = |s: &str| s.chars().take(160).collect::<String>();
        Err(format!(
            "{}: served {} but the oracle says {}",
            what(),
            clip(&g),
            clip(&w)
        ))
    }
}
