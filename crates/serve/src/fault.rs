//! Deterministic fault injection for chaos testing the server.
//!
//! A [`FaultInjector`] is handed to [`ServerConfig`](crate::ServerConfig)
//! by tests; the shard draws it once per request at dispatch, and a
//! request with any action set goes to a worker, which acts on the
//! resulting [`FaultAction`]: sleep (artificial backend latency),
//! drop the connection without responding (a mid-request crash as seen
//! by the client), panic inside the request path (exercising the
//! worker-supervision `catch_unwind`), or a combination. All randomness
//! flows from one seeded [`StdRng`], so a chaos run replays identically
//! for a fixed seed — a failure is a test case, not a flake.
//!
//! The injector also offers pure helpers ([`FaultInjector::corrupt`],
//! [`FaultInjector::truncate`]) that tests use to mangle request frames
//! and index files deterministically. Those faults are injected at the
//! *input* boundary on purpose: the server must reject garbage, never
//! absorb it — an OK response always carries a genuinely computed
//! answer, which is what lets the chaos suite oracle-check every
//! success.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Probabilities and magnitudes of the injected faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the injector's private PRNG.
    pub seed: u64,
    /// Probability that a request is served only after [`FaultPlan::latency`].
    pub latency_prob: f64,
    /// The artificial service latency.
    pub latency: Duration,
    /// Probability that the connection is dropped instead of answered.
    pub drop_prob: f64,
    /// Probability that the worker panics while serving the request —
    /// a stand-in for a defect in a backend's query code.
    pub panic_prob: f64,
    /// The first this many accepted connections are treated as if
    /// `accept` had returned `EMFILE`: the server must answer a typed
    /// BUSY and close, exactly as on a real fd-exhausted box. Counted,
    /// not random, so tests can pin "connection N is refused, N+1
    /// serves" without probability tuning.
    pub emfile_accepts: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xC4A05,
            latency_prob: 0.0,
            latency: Duration::from_millis(10),
            drop_prob: 0.0,
            panic_prob: 0.0,
            emfile_accepts: 0,
        }
    }
}

/// What the worker should do to the current request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// Sleep this long before serving (None: no injected latency).
    pub delay: Option<Duration>,
    /// Close the connection without writing a response.
    pub drop_connection: bool,
    /// Panic mid-request; the supervision layer must contain it to
    /// this one connection.
    pub panic: bool,
}

impl FaultAction {
    /// The no-fault action.
    pub const NONE: FaultAction = FaultAction {
        delay: None,
        drop_connection: false,
        panic: false,
    };
}

/// A shared, seeded fault source. One per server; shards call
/// [`FaultInjector::on_request`] under an internal lock (the chaos
/// path is not the hot path, so a mutex is fine).
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    delays: AtomicU64,
    drops: AtomicU64,
    panics: AtomicU64,
    accepts: AtomicU64,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("delays", &self.delays.load(Ordering::Relaxed))
            .field("drops", &self.drops.load(Ordering::Relaxed))
            .field("panics", &self.panics.load(Ordering::Relaxed))
            .finish()
    }
}

impl FaultInjector {
    /// Creates an injector following `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            rng: Mutex::new(rng),
            delays: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
        }
    }

    /// Consulted once per accepted connection; `true` means the
    /// acceptor must behave as if `accept` returned `EMFILE` (shed the
    /// peer with a typed BUSY and close). Fires on the plan's first
    /// `emfile_accepts` connections.
    pub fn on_accept(&self) -> bool {
        if self.plan.emfile_accepts == 0 {
            return false;
        }
        self.accepts.fetch_add(1, Ordering::Relaxed) < self.plan.emfile_accepts as u64
    }

    /// Draws the fault action for one request.
    pub fn on_request(&self) -> FaultAction {
        // Poison-tolerant: the injector's own panics unwind through
        // the worker while this lock is *not* held, but a defensive
        // recovery keeps the chaos plan running either way.
        let mut rng = crate::sync::lock_unpoisoned(&self.rng);
        let delay = if rng.random::<f64>() < self.plan.latency_prob {
            self.delays.fetch_add(1, Ordering::Relaxed);
            Some(self.plan.latency)
        } else {
            None
        };
        let drop_connection = rng.random::<f64>() < self.plan.drop_prob;
        if drop_connection {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
        let panic = rng.random::<f64>() < self.plan.panic_prob;
        if panic {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction {
            delay,
            drop_connection,
            panic,
        }
    }

    /// Injected latency events so far.
    pub fn delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }

    /// Injected connection drops so far.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Injected worker panics so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Deterministically flips one bit of `data` (chosen by `seed`).
    /// Empty inputs are returned unchanged.
    pub fn corrupt(data: &[u8], seed: u64) -> Vec<u8> {
        let mut out = data.to_vec();
        if !out.is_empty() {
            let mut rng = StdRng::seed_from_u64(seed);
            let byte = rng.random_range(0..out.len());
            let bit = rng.random_range(0u32..8);
            out[byte] ^= 1 << bit;
        }
        out
    }

    /// Deterministically truncates `data` to a strict prefix (chosen by
    /// `seed`; empty inputs stay empty).
    pub fn truncate(data: &[u8], seed: u64) -> Vec<u8> {
        if data.is_empty() {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let keep = rng.random_range(0..data.len());
        data[..keep].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan {
            seed: 77,
            latency_prob: 0.3,
            latency: Duration::from_millis(1),
            drop_prob: 0.2,
            panic_prob: 0.1,
            emfile_accepts: 0,
        };
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let seq_a: Vec<FaultAction> = (0..200).map(|_| a.on_request()).collect();
        let seq_b: Vec<FaultAction> = (0..200).map(|_| b.on_request()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.delays(), b.delays());
        assert_eq!(a.drops(), b.drops());
        assert_eq!(a.panics(), b.panics());
        assert!(a.delays() > 0, "0.3 over 200 draws must fire");
        assert!(a.drops() > 0, "0.2 over 200 draws must fire");
        assert!(a.panics() > 0, "0.1 over 200 draws must fire");
    }

    #[test]
    fn zero_probabilities_never_fault() {
        let injector = FaultInjector::new(FaultPlan::default());
        for _ in 0..100 {
            assert_eq!(injector.on_request(), FaultAction::NONE);
        }
        assert_eq!(
            (injector.delays(), injector.drops(), injector.panics()),
            (0, 0, 0)
        );
    }

    #[test]
    fn emfile_injection_is_count_based_and_exact() {
        let injector = FaultInjector::new(FaultPlan {
            emfile_accepts: 3,
            ..FaultPlan::default()
        });
        let fired: Vec<bool> = (0..6).map(|_| injector.on_accept()).collect();
        assert_eq!(fired, [true, true, true, false, false, false]);
        // Zero means the accept path is never touched.
        let clean = FaultInjector::new(FaultPlan::default());
        assert!((0..10).all(|_| !clean.on_accept()));
    }

    #[test]
    fn corrupt_flips_exactly_one_bit_deterministically() {
        let data = vec![0u8; 64];
        let a = FaultInjector::corrupt(&data, 9);
        let b = FaultInjector::corrupt(&data, 9);
        assert_eq!(a, b);
        let flipped: u32 = data.iter().zip(&a).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(flipped, 1);
        assert!(FaultInjector::corrupt(&[], 9).is_empty());
    }

    #[test]
    fn truncate_returns_a_strict_prefix() {
        let data: Vec<u8> = (0..=255).collect();
        let t = FaultInjector::truncate(&data, 4);
        assert!(t.len() < data.len());
        assert_eq!(&data[..t.len()], &t[..]);
        assert_eq!(t, FaultInjector::truncate(&data, 4));
    }
}
