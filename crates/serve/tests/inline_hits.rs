//! The shard-side cache fast path over real sockets: a `DISTANCE` whose
//! answer is already cached is answered by the event-loop shard itself,
//! with no worker round-trip. These tests pin what that path may and
//! may not do:
//!
//! * re-queried pairs come back oracle-exact, are counted as
//!   `inline_hits`, and every DISTANCE costs exactly one cache lookup;
//! * a pipelined burst that is mostly cache hits comes back complete,
//!   in request order, and without waiting for the event loop's idle
//!   timeout between pipeline windows;
//! * a quarantined backend never takes the fast path — its requests go
//!   through the worker's failover chain;
//! * after a reload acknowledgement, the previous epoch's cached
//!   answers are never served.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_serve::epoch::ReloadFactory;
use spq_serve::protocol::{self, Request, STATUS_OK, UNREACHABLE};
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{BackendKind, Engine, ServeClient};
use spq_synth::SynthParams;

const NET_SEED: u64 = 0x1a11e;

fn test_net() -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(400),
        NET_SEED,
    ))
}

fn start(cfg: ServerConfig) -> (Server, SocketAddr) {
    let engine = Arc::new(Engine::build(
        test_net(),
        &[BackendKind::Dijkstra, BackendKind::Ch],
    ));
    engine.self_check(16, 3).expect("engine must be clean");
    let server = Server::start(engine, &cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

fn shutdown(server: Server, addr: SocketAddr) {
    let mut client = ServeClient::connect(addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown frame");
    server.join();
}

/// Reads one `name=<n>` counter out of the STATS text.
fn field(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("stats missing {name}:\n{stats}"))
}

fn stats(addr: SocketAddr) -> String {
    ServeClient::connect(addr)
        .expect("connect for stats")
        .stats()
        .expect("stats")
}

/// `count` distinct (s, t) pairs, deterministic for a seed.
fn distinct_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as NodeId
    };
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(count);
    while pairs.len() < count {
        let pair = (next(), next());
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

fn oracle_distance(oracle: &mut Dijkstra, net: &RoadNetwork, s: NodeId, t: NodeId) -> Option<Dist> {
    oracle.run_to_target(net, s, t);
    oracle.distance(t)
}

fn distance_frame(s: NodeId, t: NodeId) -> Vec<u8> {
    Request::Distance {
        backend: BackendKind::Ch.wire_id(),
        s,
        t,
        deadline_ms: 0,
    }
    .encode()
}

#[test]
fn warmed_pairs_are_answered_on_the_shard_and_match_the_oracle() {
    let (server, addr) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let net = test_net();
    let mut oracle = Dijkstra::new(net.num_nodes());
    let pairs = distinct_pairs(net.num_nodes(), 40, 0xfeed);
    let mut client = ServeClient::connect(addr).expect("connect");

    // Warm-up: every pair misses and is computed by a worker.
    for &(s, t) in &pairs {
        let got = client.distance(BackendKind::Ch, s, t).expect("distance");
        assert_eq!(got, oracle_distance(&mut oracle, &net, s, t), "({s}, {t})");
    }
    let warmed = stats(addr);
    assert_eq!(field(&warmed, "inline_hits"), 0, "{warmed}");

    // Re-query twice: every answer is a hit, served by the shard.
    for _ in 0..2 {
        for &(s, t) in &pairs {
            let got = client.distance(BackendKind::Ch, s, t).expect("distance");
            assert_eq!(got, oracle_distance(&mut oracle, &net, s, t), "({s}, {t})");
        }
    }
    let after = stats(addr);
    let requeried = 2 * pairs.len() as u64;
    assert_eq!(field(&after, "inline_hits"), requeried, "{after}");
    assert_eq!(
        field(&after, "hits") + field(&after, "misses"),
        3 * pairs.len() as u64,
        "exactly one cache lookup per DISTANCE request:\n{after}"
    );
    assert_eq!(field(&after, "misses"), pairs.len() as u64, "{after}");
    shutdown(server, addr);
}

#[test]
fn pipelined_burst_of_hits_does_not_stall_between_windows() {
    let (server, addr) = start(ServerConfig {
        workers: 2,
        pipeline_depth: 32,
        ..ServerConfig::default()
    });
    let net = test_net();
    let mut oracle = Dijkstra::new(net.num_nodes());
    let pairs = distinct_pairs(net.num_nodes(), 136, 0xb0b);
    let (warm, cold) = pairs.split_at(120);
    let mut client = ServeClient::connect(addr).expect("connect");
    for &(s, t) in warm {
        client.distance(BackendKind::Ch, s, t).expect("warm-up");
    }
    let before = stats(addr);

    // 256 frames in one write: long runs of hits at both ends (several
    // pipeline windows each, with no worker completion to wake the
    // shard between them) around a cluster of misses and one PING.
    const PING_AT: usize = 128;
    let mut burst: Vec<Option<(NodeId, NodeId)>> = Vec::with_capacity(256);
    burst.extend(warm.iter().copied().map(Some));
    burst.extend(cold[..8].iter().copied().map(Some));
    burst.push(None);
    burst.extend(cold[8..].iter().copied().map(Some));
    burst.extend(warm[..256 - burst.len()].iter().copied().map(Some));
    assert_eq!(burst.len(), 256);
    assert_eq!(burst[PING_AT], None);
    let mut bytes = Vec::new();
    for req in &burst {
        let payload = match *req {
            Some((s, t)) => distance_frame(s, t),
            None => Request::Ping.encode(),
        };
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let started = Instant::now();
    stream
        .write_all(&bytes)
        .expect("one write of the whole burst");
    let mut responses = Vec::with_capacity(burst.len());
    let mut buf = Vec::new();
    for _ in 0..burst.len() {
        assert!(
            protocol::read_frame(&mut stream, &mut buf).expect("response"),
            "connection closed mid-burst"
        );
        responses.push(buf.clone());
    }
    let elapsed = started.elapsed();

    for (i, (req, resp)) in burst.iter().zip(&responses).enumerate() {
        assert_eq!(resp.first(), Some(&STATUS_OK), "frame {i}: {resp:?}");
        match *req {
            Some((s, t)) => {
                let got = u64::from_le_bytes(resp[1..9].try_into().unwrap());
                let expected = oracle_distance(&mut oracle, &net, s, t).unwrap_or(UNREACHABLE);
                assert_eq!(
                    got, expected,
                    "frame {i}: out of order or wrong for ({s}, {t})"
                );
            }
            None => assert_eq!(&resp[1..], b"pong", "frame {i} is the PING"),
        }
    }
    assert!(
        elapsed < Duration::from_millis(50),
        "256 pipelined frames took {elapsed:?}: the shard waited out its idle timeout"
    );

    let after = stats(addr);
    let distances = (burst.len() - 1) as u64;
    assert_eq!(
        field(&after, "inline_hits") - field(&before, "inline_hits"),
        distances - cold.len() as u64,
        "{after}"
    );
    assert_eq!(
        field(&after, "hits") + field(&after, "misses")
            - field(&before, "hits")
            - field(&before, "misses"),
        distances,
        "exactly one cache lookup per DISTANCE request:\n{after}"
    );
    drop(stream);
    shutdown(server, addr);
}

#[test]
fn quarantined_backend_skips_the_fast_path_and_fails_over() {
    let (server, addr) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let net = test_net();
    let mut oracle = Dijkstra::new(net.num_nodes());
    let pairs = distinct_pairs(net.num_nodes(), 8, 0xc0ffee);
    let mut client = ServeClient::connect(addr).expect("connect");
    for &(s, t) in &pairs {
        client.distance(BackendKind::Ch, s, t).expect("warm-up");
    }
    let (s, t) = pairs[0];
    client.distance(BackendKind::Ch, s, t).expect("warm hit");
    let before = stats(addr);
    assert_eq!(field(&before, "inline_hits"), 1, "{before}");

    let state = server.registry().current();
    let pos = state
        .engine
        .position_of_wire(BackendKind::Ch.wire_id())
        .expect("ch is served");
    assert!(state.quarantine(pos, "quarantined by the test".into()));

    for &(s, t) in &pairs {
        let got = client
            .distance(BackendKind::Ch, s, t)
            .expect("failover answer");
        assert_eq!(got, oracle_distance(&mut oracle, &net, s, t), "({s}, {t})");
    }
    let after = stats(addr);
    assert_eq!(
        field(&after, "inline_hits"),
        field(&before, "inline_hits"),
        "a quarantined backend was answered on the shard:\n{after}"
    );
    assert_eq!(
        field(&after, "quarantine_failovers") - field(&before, "quarantine_failovers"),
        pairs.len() as u64,
        "{after}"
    );
    shutdown(server, addr);
}

#[test]
fn reload_acknowledgement_retires_the_old_epochs_hits() {
    let factory_net = test_net();
    let (server, addr) = start(ServerConfig {
        workers: 2,
        reload_factory: Some(ReloadFactory::new(move || {
            Ok(Arc::new(Engine::build(
                factory_net.clone(),
                &[BackendKind::Dijkstra, BackendKind::Ch],
            )))
        })),
        ..ServerConfig::default()
    });
    let net = test_net();
    let mut oracle = Dijkstra::new(net.num_nodes());
    let pairs = distinct_pairs(net.num_nodes(), 16, 0xd1ce);
    let mut client = ServeClient::connect(addr).expect("connect");
    for _ in 0..2 {
        for &(s, t) in &pairs {
            client.distance(BackendKind::Ch, s, t).expect("warm-up");
        }
    }
    let before = stats(addr);
    assert_eq!(
        field(&before, "inline_hits"),
        pairs.len() as u64,
        "{before}"
    );

    assert_eq!(client.reload().expect("reload"), 1);
    // The first query of each pair after the acknowledgement is a miss
    // under epoch 1, computed by a worker; the second is a hit again.
    for round in 0..2u64 {
        for &(s, t) in &pairs {
            let got = client.distance(BackendKind::Ch, s, t).expect("distance");
            assert_eq!(got, oracle_distance(&mut oracle, &net, s, t), "({s}, {t})");
        }
        let now = stats(addr);
        assert_eq!(
            field(&now, "inline_hits"),
            (1 + round) * pairs.len() as u64,
            "round {round}: hits were not answered from the new epoch alone:\n{now}"
        );
    }
    shutdown(server, addr);
}
