//! `servebench` — the repository's end-to-end serving benchmark.
//!
//! One run builds a seeded road network, brings up the real serving
//! stack in-process (`Engine::build`, `Engine::self_check`,
//! `Server::start` with `ServerConfig::default()`), drives it over
//! loopback with closed-loop `ServeClient`s, checks a seeded sample of
//! the served answers against Dijkstra, and prints one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload route-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports per-layer metrics (see `trace`).

mod drive;
mod gen;
mod oracle;
mod pct;
mod trace;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_graph::size::IndexSize;
use spq_graph::RoadNetwork;
use spq_serve::{BackendKind, Engine, Server, ServerConfig};
use spq_synth::{Dataset, Scale};

use drive::{closed_loop, counters, Counters, Recorded, Recording, Window};
use gen::{Op, Workload, POI_SET};
use pct::{median, Summary};
use trace::{Span, Tracer};

/// Set-ups per run; `setup_s` is their median, and each serves an
/// equal share of the timed rounds.
const SETUPS: usize = 3;
/// Share of a round spent in the c=1 latency window: each round's p99
/// needs about ten samples beyond it, which at bulk-mixed's ~550
/// req/s takes most of the round; throughput averages fine over less.
const LATENCY_SHARE: f64 = 0.75;
/// Untimed closed-loop lead-in before the first timed window.
const LEAD_IN: Duration = Duration::from_millis(500);
/// Loopback-echo and PING samples in the traced run (interleaved).
const RTT_SAMPLES: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = Workload::parse(get("workload")?).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    let seconds = num("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if let Some(unknown) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <route-cold|hot-distance|bulk-mixed> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    print_provenance(&args);
    let outcome = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    match outcome {
        Ok(out) => {
            out.print();
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout when it is a git work tree, read from
/// `.git` directly (no subprocess); "unknown" otherwise.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn print_provenance(args: &Args) {
    println!(
        "# servebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={} cpu=\"{}\" commit={}",
        nproc(),
        cpu_model(),
        commit()
    );
}

/// Host-wide CPU time stolen by the hypervisor so far (clock ticks,
/// `/proc/stat`), 0 where unavailable: printed beside the timed
/// rounds, since time taken by other guests shows up as latency.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running stack and how long each set-up step took.
struct Stack {
    engine: Arc<Engine>,
    server: Server,
    steps: Vec<(&'static str, Instant, Instant)>,
}

impl Stack {
    /// Synth network, index build, POI registration (bulk-mixed),
    /// self-check and server start: everything before the first
    /// request can be sent.
    fn up(wl: Workload, seed: u64) -> Result<Stack, String> {
        let mut steps = Vec::new();
        let mut step = |name, t0| {
            let t1 = Instant::now();
            steps.push((name, t0, t1));
            t1
        };
        let t = Instant::now();
        let dataset = Dataset::by_name(wl.dataset()).expect("workload datasets are registered");
        // The network is the dataset's standard proxy instance (the one
        // every harness in the repository builds); the seed picks the
        // requests, so two seeds compare the same system on new inputs.
        let net = dataset.build(Scale::Paper);
        let t = step("synth", t);
        let engine = Engine::build(net, &[BackendKind::Ch]);
        let mut t = step("engine.build", t);
        if wl.uses_pois() {
            engine.register_pois(vec![trace::poi_set(engine.net(), seed)])?;
            t = step("poi.register", t);
        }
        let cfg = ServerConfig::default();
        engine.self_check(cfg.selfcheck_queries, cfg.selfcheck_seed)?;
        let t = step("engine.self_check", t);
        let engine = Arc::new(engine);
        let server =
            Server::start(Arc::clone(&engine), &cfg).map_err(|e| format!("server start: {e}"))?;
        step("server.start", t);
        Ok(Stack {
            engine,
            server,
            steps,
        })
    }

    fn total_s(&self) -> f64 {
        let first = self.steps.first().expect("set-up has steps").1;
        (self.steps.last().expect("set-up has steps").2 - first).as_secs_f64()
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn down(self) {
        self.server.request_shutdown();
        self.server.join();
    }
}

/// One end-to-end or per-layer metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run prints.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Outcome {
    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Cache and fault counters over a set of timed windows.
#[derive(Default)]
struct Guard {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Guard {
    fn add(&mut self, before: Counters, after: Counters) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
    }

    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The cache-validity rule: route-cold must miss, hot-distance
    /// must hit. A run that breaks it measured the wrong thing.
    fn violation(&self, wl: Workload) -> Option<String> {
        let rate = self.hit_rate();
        match wl {
            Workload::RouteCold if rate >= 0.01 => Some(format!(
                "route-cold served {:.2}% of its lookups from the cache (must be under 1%)",
                rate * 100.0
            )),
            Workload::HotDistance if rate <= 0.99 => Some(format!(
                "hot-distance served only {:.2}% of its lookups from the cache (must be over 99%)",
                rate * 100.0
            )),
            _ => None,
        }
    }
}

/// A workload's seeded inputs and the cursor every timed window draws
/// from. The stacks serving them come and go; the inputs stay, so a
/// non-repeating pool never repeats across stacks either.
struct Load {
    workload: Workload,
    seed: u64,
    inputs: gen::Inputs,
    cursor: AtomicU64,
    threads: usize,
}

impl Load {
    fn new(wl: Workload, seed: u64, seconds: u64, engine: &Engine) -> Load {
        let pois: Vec<u32> = engine
            .poi_set(POI_SET)
            .map(|e| e.set.nodes().to_vec())
            .unwrap_or_default();
        Load {
            workload: wl,
            seed,
            inputs: gen::inputs(wl, engine.net(), &pois, seed, seconds),
            cursor: AtomicU64::new(0),
            threads: nproc(),
        }
    }

    /// Warms a fresh stack: route-cold fills its cache past capacity,
    /// hot-distance touches every working-set pair. Then a short
    /// untimed closed-loop lead-in.
    fn warm(&self, stack: &Stack) -> Result<(), String> {
        let bad = drive::warm_up(stack.addr(), &self.inputs.warmup, self.threads)
            .map_err(|e| format!("warm-up: {e}"))?;
        if bad > 0 {
            return Err(format!("warm-up: {bad} request(s) answered with an error"));
        }
        let c = counters(stack.addr())?;
        let want = match self.workload {
            Workload::RouteCold => c.capacity * 99 / 100,
            Workload::HotDistance => gen::HOT_PAIRS as u64,
            Workload::BulkMixed => 0,
        };
        if c.len < want {
            return Err(format!(
                "cache-validity: warm-up left {} cache entries, wants at least {want}",
                c.len
            ));
        }
        let rec = Recording {
            seed: self.seed,
            one_in: u64::MAX,
            latencies: false,
            tracer: None,
        };
        closed_loop(
            stack.addr(),
            &self.inputs.pool,
            &self.cursor,
            self.threads,
            LEAD_IN,
            rec,
        );
        Ok(())
    }

    /// One timed window with the STATS counters sampled around it.
    fn window(
        &self,
        stack: &Stack,
        threads: usize,
        dur: Duration,
        rec: Recording<'_>,
        guard: &mut Guard,
    ) -> Result<Window, String> {
        let before = counters(stack.addr())?;
        let w = closed_loop(
            stack.addr(),
            &self.inputs.pool,
            &self.cursor,
            threads,
            dur,
            rec,
        );
        guard.add(before, counters(stack.addr())?);
        Ok(w)
    }

    /// Checks up to `per_op` evenly spread answers of each op.
    fn check(
        &self,
        net: &RoadNetwork,
        recorded: &[Recorded],
        per_op: usize,
    ) -> (usize, Vec<String>) {
        let mut by_op: BTreeMap<Op, Vec<&Recorded>> = BTreeMap::new();
        for r in recorded {
            by_op.entry(r.req.op()).or_default().push(r);
        }
        let mut oracle = oracle::Oracle::new(net, &self.inputs.pois);
        let (mut checked, mut mismatches) = (0, Vec::new());
        for list in by_op.values() {
            for r in list.iter().step_by(list.len().div_ceil(per_op).max(1)) {
                checked += 1;
                if let Err(e) = oracle.check(r) {
                    mismatches.push(e);
                }
            }
        }
        (checked, mismatches)
    }
}

/// Answers checked against the oracle per op and run, at most: each
/// check is a Dijkstra search, ~1 ms on the CO proxy and up to ~35 ms
/// (a full search) on W-US.
fn checks_per_op(wl: Workload) -> usize {
    match wl {
        Workload::RouteCold => 64,
        Workload::HotDistance => 256,
        Workload::BulkMixed => 24,
    }
}

/// Replies per recorded answer, so each op gets a few dozen samples
/// spread over the whole timed window.
fn one_in(wl: Workload) -> u64 {
    match wl {
        Workload::RouteCold => 1024,
        Workload::HotDistance => 512,
        Workload::BulkMixed => 64,
    }
}

fn per_op_lines(label: &str, w: &Window) -> Vec<String> {
    let mut by_op: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    for &(op, ns) in &w.latencies {
        by_op.entry(op).or_default().push(f64::from(ns) / 1e3);
    }
    by_op
        .into_iter()
        .filter_map(|(op, mut v)| {
            let s = Summary::of(&mut v)?;
            Some(format!(
                "#   {label} {:<9} p50={:.1}us p99={:.1}us n={}",
                op.name(),
                s.p50,
                s.p99,
                s.count
            ))
        })
        .collect()
}

fn latencies(w: &Window) -> Vec<f64> {
    w.latencies
        .iter()
        .map(|&(_, ns)| f64::from(ns) / 1e3)
        .collect()
}

/// One timed round's figures.
struct Round {
    p50: f64,
    p99: f64,
    /// c=1 latencies, µs.
    latencies: Vec<f64>,
    qps: f64,
    steal: u64,
}

/// Timed rounds per set-up; each round holds one c=1 and one c=nproc
/// window. Rounds are about a second long where the c=1 window still
/// gets 10,000+ samples in that time (route-cold, hot-distance), and
/// 2.7 s on bulk-mixed, whose ~550 req/s need that long for ten
/// samples beyond a round's p99. Short rounds let the steal filter
/// (`quiet_rounds`) cut a neighbour's burst out finely.
fn rounds_per_setup(wl: Workload, seconds: u64) -> usize {
    let round_s = match wl {
        Workload::BulkMixed => 8.0 / 3.0,
        Workload::RouteCold | Workload::HotDistance => 1.0,
    };
    ((seconds as f64 / round_s / SETUPS as f64).round() as usize).max(1)
}

/// `/proc/stat` counts CPU time in USER_HZ ticks, 100 a second on Linux.
const TICKS_PER_S: f64 = 100.0;
/// A round is quiet when the hypervisor stole at most this share of
/// the CPU time the guest had in it (nproc x the round's length).
const QUIET_STEAL_SHARE: f64 = 0.01;

/// The quiet rounds, or the third of the rounds with the least steal
/// (at least five) when fewer than that are quiet. On a shared host a
/// neighbour's burst shows up as CPU time the hypervisor stole, and it
/// inflates every figure of the rounds it hits; the program under test
/// cannot cause or avoid it, so those rounds are left out. The pick is
/// over the whole run, not per set-up: a burst can last most of one
/// set-up's life.
fn quiet_rounds(rounds: &[Round], quiet_ticks: f64) -> Vec<&Round> {
    let mut by_steal: Vec<&Round> = rounds.iter().collect();
    by_steal.sort_by_key(|r| r.steal);
    let quiet = by_steal
        .iter()
        .take_while(|r| r.steal as f64 <= quiet_ticks)
        .count();
    by_steal.truncate(quiet.max(rounds.len().div_ceil(3).max(5)));
    by_steal
}

/// The untraced run: end-to-end metrics.
///
/// The stack is set up `SETUPS` times and each set-up serves an equal
/// share of the timed rounds, so the figures span several server
/// processes' worth of thread placement and memory layout, not one.
fn timed(args: &Args) -> Result<Outcome, String> {
    let wl = args.workload;
    let per_setup = rounds_per_setup(wl, args.seconds);
    let round = args.seconds as f64 / (per_setup * SETUPS) as f64;
    let (lat_dur, thr_dur) = (
        Duration::from_secs_f64(round * LATENCY_SHARE),
        Duration::from_secs_f64(round * (1.0 - LATENCY_SHARE)),
    );
    let rec = Recording {
        seed: args.seed,
        one_in: one_in(wl),
        latencies: true,
        tracer: None,
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut load: Option<Load> = None;
    let (mut inputs_s, mut warm_s, mut timed_s, mut check_s) = (0.0, 0.0, 0.0, 0.0);
    let mut rss_mib = 0.0;
    let mut guard = Guard::default();
    let (mut lat, mut thr) = (Window::default(), Window::default());
    let mut rounds = Vec::with_capacity(per_setup * SETUPS);
    let (mut checked, mut mismatches) = (0, Vec::new());
    let mut last_steps = String::new();
    for k in 0..SETUPS {
        let stack = Stack::up(wl, args.seed)?;
        setups.push(stack.total_s());
        let t = Instant::now();
        let load =
            load.get_or_insert_with(|| Load::new(wl, args.seed, args.seconds, &stack.engine));
        inputs_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        load.warm(&stack)?;
        warm_s += t.elapsed().as_secs_f64();
        if k == 0 {
            // Read before any timed round: their latency buffers grow
            // with throughput and are the benchmark's, not the server's.
            rss_mib = peak_rss_mib();
        }

        let t = Instant::now();
        let (mut stack_lat, mut stack_thr) = (Window::default(), Window::default());
        for _ in 0..per_setup {
            let steal0 = steal_ticks();
            let l = load.window(&stack, 1, lat_dur, rec, &mut guard)?;
            let no_lat = Recording {
                latencies: false,
                ..rec
            };
            let q = load.window(&stack, load.threads, thr_dur, no_lat, &mut guard)?;
            let mut us = latencies(&l);
            let s = Summary::of(&mut us).ok_or("a c=1 window completed no request")?;
            rounds.push(Round {
                p50: s.p50,
                p99: s.p99,
                latencies: us,
                qps: q.ok as f64 / q.elapsed_s,
                steal: steal_ticks() - steal0,
            });
            stack_lat.absorb(l);
            stack_thr.absorb(q);
        }
        timed_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let recorded: Vec<Recorded> = stack_lat
            .recorded
            .drain(..)
            .chain(stack_thr.recorded.drain(..))
            .collect();
        let (c, m) = load.check(stack.engine.net(), &recorded, checks_per_op(wl) / SETUPS);
        checked += c;
        mismatches.extend(m);
        check_s += t.elapsed().as_secs_f64();
        lat.absorb(stack_lat);
        thr.absorb(stack_thr);
        last_steps = stack
            .steps
            .iter()
            .map(|(n, a, b)| format!("{n}={:.3}s", (*b - *a).as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ");
        stack.down();
    }
    let load = load.expect("at least one set-up");
    let setup_s = median(&mut setups.clone());
    let quiet_ticks = QUIET_STEAL_SHARE * load.threads as f64 * round * TICKS_PER_S;
    let quiet = quiet_rounds(&rounds, quiet_ticks);
    let over_quiet =
        |f: fn(&Round) -> f64| median(&mut quiet.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut quiet_us: Vec<f64> = quiet
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let pooled = Summary::of(&mut quiet_us).expect("quiet rounds completed requests");

    let violation = guard.violation(wl);
    let attempted = lat.attempted() + thr.attempted();
    let failed = lat.failed + thr.failed + mismatches.len() as u64;
    let fmt = |f: fn(&Round) -> String| rounds.iter().map(f).collect::<Vec<_>>().join(" ");

    let mut lines = vec![format!(
        "# phases: {SETUPS} set-ups [{}] s, inputs {inputs_s:.2}s, warm-up {warm_s:.2}s, timed {timed_s:.2}s, check {check_s:.2}s",
        setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" "),
    )];
    lines.push(format!(
        "# network: {} proxy; set-up steps (last): {last_steps}",
        wl.dataset()
    ));
    lines.push(format!(
        "# rounds: {} x (c=1 {:.2}s + c={} {:.2}s), {per_setup} per set-up; the {} rounds with the least cpu steal count (quiet: at most {quiet_ticks:.1} ticks; the quietest third when fewer are quiet)",
        rounds.len(),
        lat_dur.as_secs_f64(),
        load.threads,
        thr_dur.as_secs_f64(),
        quiet.len()
    ));
    lines.push(format!(
        "# each metric is the median over those rounds of the round's own figure (qps at c={}; p50/p99 exact over the round's c=1 samples); pooled over their c=1 samples instead: n={} p50 {:.2}us p99 {:.2}us",
        load.threads, pooled.count, pooled.p50, pooled.p99
    ));
    lines.push(format!(
        "#   cpu steal ticks  [{}]",
        fmt(|r| r.steal.to_string())
    ));
    lines.push(format!(
        "#   qps (c={})        [{}]",
        load.threads,
        fmt(|r| format!("{:.0}", r.qps))
    ));
    lines.push(format!(
        "#   p50_us (c=1)     [{}]",
        fmt(|r| format!("{:.1}", r.p50))
    ));
    lines.push(format!(
        "#   p99_us (c=1)     [{}]",
        fmt(|r| format!("{:.1}", r.p99))
    ));
    lines.push(format!(
        "#   c=1 samples      [{}]",
        fmt(|r| r.latencies.len().to_string())
    ));
    lines.extend(per_op_lines("c=1, all rounds", &lat));
    lines.push(format!(
        "# error_rate: {} ({} failed of {} attempted; {} answers oracle-checked, {} mismatches)",
        failed as f64 / attempted.max(1) as f64,
        failed,
        attempted,
        checked,
        mismatches.len()
    ));
    lines.push(format!(
        "# cache over timed windows: hits={} misses={} hit_rate={:.3}% evictions={}",
        guard.hits,
        guard.misses,
        guard.hit_rate() * 100.0,
        guard.evictions
    ));
    lines.extend(
        lat.errors
            .iter()
            .chain(&thr.errors)
            .map(|e| format!("# FAILED {e}")),
    );
    lines.extend(mismatches.iter().take(8).map(|e| format!("# MISMATCH {e}")));
    if let Some(v) = &violation {
        lines.push(format!("# INVALID {v}"));
    }
    if lat.drained || thr.drained {
        lines.push("# NOTE the request pool ran dry before the window ended".into());
    }

    Ok(Outcome {
        correct: mismatches.is_empty() && violation.is_none(),
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("rss_mb", rss_mib, "MiB"),
            metric("qps", over_quiet(|r| r.qps), "req/s"),
            metric("p50_us", over_quiet(|r| r.p50), "us"),
            metric("p99_us", over_quiet(|r| r.p99), "us"),
        ],
        lines,
    })
}

/// The traced run: per-layer metrics.
fn traced(args: &Args) -> Result<Outcome, String> {
    let wl = args.workload;
    let seed = args.seed;
    let tracer = Tracer::new();
    let mut spans: Vec<Span> = Vec::new();

    let stack = Stack::up(wl, seed)?;
    let root = tracer.span(
        0,
        0,
        "setup",
        stack.steps[0].1,
        stack.steps.last().expect("steps").2,
    );
    for &(name, a, b) in &stack.steps {
        spans.push(tracer.span(0, root.id, name, a, b));
    }
    spans.push(root);

    // The layers' own builds, timed from outside over the same network.
    let net = stack.engine.net();
    let ((ch, poi_set, poi_index), build_root) = {
        let t0 = Instant::now();
        let mut kids = Vec::new();
        let ch = tracer.time(&mut kids, "ch.build", || {
            Arc::new(spq_ch::ContractionHierarchy::build(net))
        });
        let poi_set = trace::poi_set(net, seed);
        let poi_index = tracer.time(&mut kids, "many.poi_build", || {
            spq_many::PoiIndex::build(&ch, &poi_set)
        });
        let root = tracer.span(0, 0, "layer.build", t0, Instant::now());
        for k in &mut kids {
            k.parent = root.id;
        }
        spans.extend(kids);
        ((ch, poi_set, poi_index?), root)
    };
    spans.push(build_root);
    let span_s = |spans: &[Span], name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
    };
    let ch_shortcuts = ch.num_shortcuts() as f64;
    let ch_bytes = ch.index_size_bytes() as f64;
    let backend = trace::serving_backend(Arc::clone(&ch), poi_set, poi_index.clone())?;

    let load = Load::new(wl, seed, args.seconds, &stack.engine);
    load.warm(&stack)?;
    let start_counters = counters(stack.addr())?;

    // Untraced and traced c=1 windows alternate: the difference in
    // client p50 between them is the tracing overhead.
    let quarter = Duration::from_secs_f64(args.seconds as f64 / 4.0);
    let plain = Recording {
        seed,
        one_in: one_in(wl),
        latencies: true,
        tracer: None,
    };
    let with_spans = Recording {
        tracer: Some(&tracer),
        ..plain
    };
    let (mut untraced, mut traced_w) = (Window::default(), Window::default());
    let mut guard = Guard::default();
    for _ in 0..2 {
        untraced.absorb(load.window(&stack, 1, quarter, plain, &mut guard)?);
        traced_w.absorb(load.window(&stack, 1, quarter, with_spans, &mut guard)?);
    }
    let client_spans = std::mem::take(&mut traced_w.spans);

    let (loopback, ping) = rtt_probes(stack.addr(), &tracer, &mut spans)?;

    // In-process replay through every layer.
    let clock_ns = trace::clock_overhead_ns();
    let mut layers = trace::Layers::new(net, &backend, &poi_index, clock_ns);
    // The replay cache starts where the server's is: hot-distance's
    // working set resident, route-cold's full of warm-up keys.
    for req in &load.inputs.warmup {
        if let gen::Req::Distance { s, t } = *req {
            let d = if wl == Workload::HotDistance {
                spq_ch::ChQuery::new(&ch).distance(s, t)
            } else {
                Some(0)
            };
            layers.cache.insert(1, drive::BACKEND.wire_id(), s, t, d);
        }
    }
    let mut replayed = Vec::new();
    let mut mismatches = Vec::new();
    let replay_one_in = match wl {
        Workload::BulkMixed => 8,
        _ => 16,
    };
    let replay_cap = match wl {
        Workload::BulkMixed => 240,
        _ => 1500,
    };
    for cs in client_spans
        .iter()
        .filter(|s| gen::sampled(seed ^ 0x7e9a, s.rid, replay_one_in))
        .take(replay_cap)
    {
        let req = load
            .inputs
            .pool
            .get(cs.rid)
            .expect("a served request is in the pool");
        match layers.replay(&tracer, &mut spans, cs.rid, cs.id, &req) {
            Ok(r) => replayed.push((r, cs.dur_ns() as f64 / 1e3)),
            Err(e) => mismatches.push(e),
        }
    }
    // Ops whose kernel the workload did not run (all of them on a warm
    // hot-distance cache) get a small seeded probe set of their own.
    let mut rng = gen::Rng::new(seed ^ 0x9b0e);
    let mut dij = spq_dijkstra::Dijkstra::new(net.num_nodes());
    let mut probes = Vec::new();
    for op in Op::ALL {
        let have = replayed
            .iter()
            .filter(|(r, _)| r.op == Some(op) && !r.cache_hit)
            .count();
        let want = if matches!(op, Op::Distance | Op::Path) {
            256
        } else {
            24
        };
        for _ in have..want {
            let req = gen::make_req(op, net, &mut dij, &mut rng);
            let t0 = Instant::now();
            let mut kids = Vec::new();
            let r = layers.replay(&tracer, &mut kids, 0, 0, &req);
            let root = tracer.span(0, 0, "probe.request", t0, Instant::now());
            for k in &mut kids {
                k.parent = root.id;
            }
            spans.extend(kids);
            spans.push(root);
            match r {
                Ok(r) => probes.push(r),
                Err(e) => mismatches.push(e),
            }
        }
    }
    drop(layers);
    let (cache_get, cache_insert) = trace::cache_probe();

    let end_counters = counters(stack.addr())?;
    let recorded: Vec<Recorded> = untraced
        .recorded
        .drain(..)
        .chain(traced_w.recorded.drain(..))
        .collect();
    let (checked, oracle_mismatches) = load.check(net, &recorded, checks_per_op(wl));
    mismatches.extend(oracle_mismatches);
    let violation = guard.violation(wl);

    // Per-layer medians.
    let all: Vec<&trace::Replayed> = replayed
        .iter()
        .map(|(r, _)| r)
        .chain(probes.iter())
        .collect();
    let med = |f: &dyn Fn(&trace::Replayed) -> Option<f64>, rs: &[&trace::Replayed]| {
        let mut v: Vec<f64> = rs.iter().filter_map(|r| f(r)).collect();
        median(&mut v)
    };
    let ran = |op: Op, r: &trace::Replayed| r.op == Some(op) && !r.cache_hit;
    let kernel = |op: Op| med(&|r| ran(op, r).then_some(r.kernel), &all);
    let session = |op: Op| med(&|r| ran(op, r).then_some(r.session), &all);
    let items = |op: Op| med(&|r| ran(op, r).then_some(r.items as f64), &all);
    let workload_reqs: Vec<&trace::Replayed> = replayed.iter().map(|(r, _)| r).collect();
    let sampled_or_all = if workload_reqs.is_empty() {
        &all
    } else {
        &workload_reqs
    };
    let decode = med(&|r| Some(r.decode), sampled_or_all);
    let encode = med(&|r| Some(r.encode), sampled_or_all);
    let bytes = med(&|r| Some(r.response_bytes as f64), sampled_or_all);
    let mut unexplained: Vec<f64> = replayed
        .iter()
        .map(|(r, client_us)| {
            let inside = r.decode + r.cache_get + r.cache_insert + r.session + r.encode;
            client_us - ping - inside / 1e3
        })
        .collect();
    let unexplained = median(&mut unexplained);

    let mut traced_lat = latencies(&traced_w);
    let traced_sum =
        Summary::of(&mut traced_lat).ok_or("the traced window completed no request")?;
    let mut untraced_lat = latencies(&untraced);
    let untraced_sum =
        Summary::of(&mut untraced_lat).ok_or("the untraced window completed no request")?;
    let attempted = untraced.attempted() + traced_w.attempted();
    let failed = untraced.failed + traced_w.failed + mismatches.len() as u64;

    spans.extend(client_spans);
    let out_path = std::path::PathBuf::from(format!(
        ".bench_out/servebench-spans-{}-seed{}.jsonl",
        wl.name(),
        seed
    ));
    trace::write_spans(&out_path, &spans).map_err(|e| format!("writing spans: {e}"))?;

    let mut lines = vec![format!(
        "# traced run: c=1 windows alternate untraced/traced, {:.2}s each; {} replayed requests + {} probe requests; clock read {:.0}ns (subtracted per span)",
        quarter.as_secs_f64(),
        replayed.len(),
        probes.len(),
        clock_ns
    )];
    lines.push(format!(
        "# tracing overhead: client p50 {:.2}us traced (n={}) vs {:.2}us untraced (n={}) = {:+.2}us",
        traced_sum.p50,
        traced_sum.count,
        untraced_sum.p50,
        untraced_sum.count,
        traced_sum.p50 - untraced_sum.p50
    ));
    lines.push(format!(
        "# stack (medians): client {:.2}us = loopback {:.2}us + handoff {:.2}us + decode {:.3}us + cache {:.3}us + session {:.2}us + encode {:.3}us + unexplained {:.2}us",
        traced_sum.p50,
        loopback,
        ping - loopback,
        decode / 1e3,
        med(&|r| Some(r.cache_get + r.cache_insert), sampled_or_all) / 1e3,
        med(&|r| Some(r.session), sampled_or_all) / 1e3,
        encode / 1e3,
        unexplained
    ));
    lines.extend(per_op_lines("traced c=1", &traced_w));
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let self_ns = trace::self_times(&spans);
    for s in &spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(self_ns[&s.id] as f64);
    }
    for (name, mut v) in by_name {
        let n = v.len();
        lines.push(format!(
            "#   span {name:<22} median self {:>12.3}us n={n}",
            median(&mut v) / 1e3
        ));
    }
    for op in Op::ALL {
        let of_op =
            |f: fn(&trace::Replayed) -> f64| med(&|r| (r.op == Some(op)).then(|| f(r)), &all);
        lines.push(format!(
            "#   layer {:<9} kernel={:.0}ns session={:.0}ns (overhead {:+.0}ns) items={:.0} decode={:.0}ns encode={:.0}ns response={:.0}B",
            op.name(),
            kernel(op),
            session(op),
            session(op) - kernel(op),
            items(op),
            of_op(|r| r.decode),
            of_op(|r| r.encode),
            of_op(|r| r.response_bytes as f64)
        ));
    }
    lines.push(format!(
        "# answers: {checked} oracle-checked, {} mismatches; spans written to {}",
        mismatches.len(),
        out_path.display()
    ));
    lines.extend(mismatches.iter().take(8).map(|e| format!("# MISMATCH {e}")));
    if let Some(v) = &violation {
        lines.push(format!("# INVALID {v}"));
    }
    stack.down();

    let m = metric;
    let metrics = vec![
        m("synth.build_s", span_s(&spans, "synth"), "s"),
        m("ch.build_s", span_s(&spans, "ch.build"), "s"),
        m("ch.shortcuts", ch_shortcuts, "count"),
        m("ch.index_bytes", ch_bytes, "bytes"),
        m("many.poi_build_s", span_s(&spans, "many.poi_build"), "s"),
        m(
            "engine.self_check_s",
            span_s(&spans, "engine.self_check"),
            "s",
        ),
        m("server.start_s", span_s(&spans, "server.start"), "s"),
        m("ch.distance_ns", kernel(Op::Distance), "ns"),
        m("ch.path_ns", kernel(Op::Path), "ns"),
        m("ch.path_vertices", items(Op::Path), "count"),
        m(
            "ch.batch_entry_ns",
            kernel(Op::Distances) / (gen::TABLE_SIDE * gen::TABLE_SIDE) as f64,
            "ns",
        ),
        m("many.o2m_ns", kernel(Op::O2m), "ns"),
        m("many.knn_ns", kernel(Op::Knn), "ns"),
        m("many.range_ns", kernel(Op::Range), "ns"),
        m("many.range_entries", items(Op::Range), "count"),
        m("session.distance_ns", session(Op::Distance), "ns"),
        m("session.path_ns", session(Op::Path), "ns"),
        m("session.distances_ns", session(Op::Distances), "ns"),
        m("session.o2m_ns", session(Op::O2m), "ns"),
        m("session.knn_ns", session(Op::Knn), "ns"),
        m("session.range_ns", session(Op::Range), "ns"),
        m("protocol.decode_ns", decode, "ns"),
        m("protocol.encode_ns", encode, "ns"),
        m("protocol.response_bytes", bytes, "bytes"),
        m("cache.hit_rate", guard.hit_rate(), "ratio"),
        m(
            "cache.evictions_per_req",
            guard.evictions as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        m("cache.get_ns", cache_get, "ns"),
        m("cache.insert_ns", cache_insert, "ns"),
        m("server.ping_rtt_us", ping, "us"),
        m("server.handoff_us", ping - loopback, "us"),
        m(
            "server.shed",
            (end_counters.shed - start_counters.shed) as f64,
            "count",
        ),
        m(
            "server.deadlines_exceeded",
            (end_counters.deadlines_exceeded - start_counters.deadlines_exceeded) as f64,
            "count",
        ),
        m("net.loopback_rtt_us", loopback, "us"),
        m("client.p50_us", traced_sum.p50, "us"),
        m("client.p99_us", traced_sum.p99, "us"),
        m("client.count", traced_sum.count as f64, "count"),
        m(
            "client.failed",
            (untraced.failed + traced_w.failed) as f64,
            "count",
        ),
        m("stack.unexplained_us", unexplained, "us"),
        m("trace.overhead_us", traced_sum.p50 - untraced_sum.p50, "us"),
    ];
    Ok(Outcome {
        correct: mismatches.is_empty() && violation.is_none(),
        attempted,
        failed,
        metrics,
        lines,
    })
}

/// Median round trips (µs) of a std-only loopback echo peer (the
/// floor) and of PING through the server (answered by a worker), in
/// interleaved blocks so drift lands on both.
fn rtt_probes(
    addr: SocketAddr,
    tracer: &Tracer,
    spans: &mut Vec<Span>,
) -> Result<(f64, f64), String> {
    let probe_req = drive::wire(&gen::Req::Distance { s: 0, t: 0 }).encode();
    let echo = trace::Echo::start(spq_serve::protocol::encode_distance_response(Some(0)).len())
        .map_err(|e| format!("echo peer: {e}"))?;
    let (mut loop_us, mut ping_us) = (Vec::new(), Vec::new());
    {
        let mut echo_conn = echo.client().map_err(|e| format!("echo connect: {e}"))?;
        let mut ping_conn = drive::connect(addr).map_err(|e| format!("ping connect: {e}"))?;
        let mut buf = Vec::new();
        for _ in 0..10 {
            let t0 = Instant::now();
            loop_us.extend(drive::rtt_samples(RTT_SAMPLES / 10, || {
                spq_serve::protocol::write_frame(&mut echo_conn, &probe_req)
                    .map_err(|e| e.to_string())?;
                spq_serve::protocol::read_frame(&mut echo_conn, &mut buf)
                    .map_err(|e| e.to_string())?;
                Ok(())
            })?);
            spans.push(tracer.span(0, 0, "probe.loopback", t0, Instant::now()));
            let t0 = Instant::now();
            ping_us.extend(drive::rtt_samples(RTT_SAMPLES / 10, || {
                ping_conn.ping().map_err(|e| e.to_string())
            })?);
            spans.push(tracer.span(0, 0, "probe.ping", t0, Instant::now()));
        }
    }
    echo.join();
    Ok((median(&mut loop_us), median(&mut ping_us)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(steal: u64) -> Round {
        Round {
            p50: 0.0,
            p99: 0.0,
            latencies: Vec::new(),
            qps: 0.0,
            steal,
        }
    }

    #[test]
    fn every_quiet_round_counts() {
        let rounds: Vec<Round> = [0, 9, 1, 2, 0, 3, 1, 0, 40, 2, 0, 1].map(round).into();
        let picked: Vec<u64> = quiet_rounds(&rounds, 2.0).iter().map(|r| r.steal).collect();
        assert_eq!(picked, [0, 0, 0, 0, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn a_noisy_run_keeps_its_quietest_third() {
        let steals = [30, 12, 0, 44, 18, 3, 25, 9, 60, 15, 2, 31, 7, 20, 50];
        let rounds: Vec<Round> = steals.map(round).into();
        let picked: Vec<u64> = quiet_rounds(&rounds, 2.0).iter().map(|r| r.steal).collect();
        assert_eq!(picked, [0, 2, 3, 7, 9]);
        // At least five rounds count, however few the run has.
        assert_eq!(quiet_rounds(&rounds[..6], 0.0).len(), 5);
    }
}
