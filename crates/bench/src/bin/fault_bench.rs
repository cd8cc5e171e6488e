//! Fault-injected serving: throughput and answer completeness under
//! seeded shard-panic plans, against a crash-on-first-fault baseline.
//!
//! Builds both sublinear-write oracles once, then drives the 94%-hot
//! streaming workload through the `wec_serve::StreamingServer` at
//! injected shard-panic rates of 0‰, 1‰, 10‰ (the 1% acceptance rate),
//! and 50‰ — with cache-lock poisoning layered in at a fifth of the
//! panic rate and retry-ladder failures at a fixed 250‰. Every leg
//! measures:
//!
//! * **completeness** — delivered answers over submitted queries; the
//!   recovery contract (isolation → quarantine → charged backoff →
//!   degraded recompute) pins this at 1.0 for every rate;
//! * **baseline completeness** — what a crash-on-first-fault server
//!   would deliver: the same seeded plan is replayed analytically and
//!   the baseline is credited with exactly the queries dispatched
//!   before the first decision point that fires;
//! * median wall-clock throughput, plus the robustness counters and the
//!   model reads/ops charged per query (recovery charges included).
//!
//! Writes the machine-readable `BENCH_PR6.json` (override the path with
//! `WEC_FAULT_BENCH_OUT`) whose `query_throughput_per_sec` /
//! `completeness_at_10pm` / `baseline_completeness_at_10pm` /
//! `throughput_retained_pct_at_10pm` keys CI's bench guard validates.
//! Pass `--smoke` for the CI-sized run.

use wec_asym::Ledger;
use wec_bench::{time_median, FaultLeg, FaultSnapshot};
use wec_biconnectivity::oracle::build_biconnectivity_oracle;
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_core::BuildOpts;
use wec_graph::{gen, Priorities, Vertex};
use wec_serve::{
    AdmissionPolicy, FaultPlan, Query, RecoveryPolicy, Routing, ShardedServer, StreamingServer,
};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;
const HOT_KEYS: u32 = 64;
const MAX_BATCH: usize = 256;
const SEED: u64 = 0xF6;

/// The 94%-hot mixed stream (same generator family as `affinity_bench`).
fn stream(n: u32, len: usize, salt: u32) -> Vec<Query> {
    let mut v = salt;
    let mut step = move || {
        v = v.wrapping_mul(2654435761).wrapping_add(12345);
        v
    };
    (0..len)
        .map(|_| {
            let r = step();
            let domain = if r % 256 < 241 { HOT_KEYS.min(n) } else { n };
            let a = step() % domain;
            let b = (step() >> 7) % domain;
            match r % 10 {
                0..=5 => Query::Component(a),
                6 | 7 => Query::Connected(a, b),
                8 => Query::TwoEdgeConnected(a, b),
                _ => Query::Biconnected(a, b),
            }
        })
        .collect()
}

/// The fault plan for one leg: shard panics at `per_mille`, lock
/// poisoning at a fifth of that, retry-ladder failures at a fixed 250‰.
fn plan(per_mille: u64) -> Option<FaultPlan> {
    if per_mille == 0 {
        return None;
    }
    Some(
        FaultPlan::seeded(SEED)
            .with_panic_per_mille(per_mille as u32)
            .with_poison_per_mille(per_mille as u32 / 5)
            .with_retry_fail_per_mille(250),
    )
}

/// Replay the seeded plan over the leg's dispatch schedule and credit a
/// crash-on-first-fault baseline with the queries dispatched before the
/// first (dispatch, shard) decision point that fires. `submit` under
/// `Overflow::DispatchInline` with `max_batch == max_queue` serves exact
/// `MAX_BATCH`-sized batches, so dispatch `d` (1-based) covers queries
/// `(d − 1)·MAX_BATCH ..` — the baseline answers everything before its
/// fatal dispatch and nothing after.
fn baseline_completeness(p: Option<FaultPlan>, stream_len: usize) -> f64 {
    let Some(p) = p else { return 1.0 };
    let dispatches = stream_len.div_ceil(MAX_BATCH) as u64;
    for d in 1..=dispatches {
        for s in 0..SHARDS as u64 {
            if p.injects_panic(d, s) || p.injects_poison(d, s) {
                let answered = ((d - 1) as usize * MAX_BATCH).min(stream_len);
                return answered as f64 / stream_len as f64;
            }
        }
    }
    1.0
}

fn main() {
    // Injected panics are the point; keep the output readable.
    std::panic::set_hook(Box::new(|_| {}));
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, stream_len, iters): (usize, usize, usize) = if smoke {
        (2000, 4000, 3)
    } else {
        (60_000, 100_000, 5)
    };
    let rates: &[u64] = &[0, 1, 10, 50];

    println!(
        "=== wec-serve fault-injection sweep (threads = {}, ω = {OMEGA}, n = {n}, \
         stream = {stream_len}, shards = {SHARDS}, seed = {SEED:#x}) ===",
        rayon::current_num_threads()
    );
    let g = gen::bounded_degree_connected(n, 4, n / 4, 42);
    let pri = Priorities::random(n, 42);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let k = 8usize;
    let opts = OracleBuildOpts {
        decomp: BuildOpts {
            parallel: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut led = Ledger::new(OMEGA);
    let conn = ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, opts);
    let bicon = build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 1, opts.decomp);
    println!(
        "oracle builds done: {} writes, {} operations",
        led.costs().asym_writes,
        led.costs().operations()
    );

    let queries = stream(n as u32, stream_len, 7);
    let make_server = |p: Option<FaultPlan>| {
        let sharded = ShardedServer::new(conn.query_handle(), SHARDS)
            .with_biconnectivity(bicon.query_handle());
        let mut srv = StreamingServer::new(
            sharded,
            AdmissionPolicy::builder()
                .max_batch(MAX_BATCH)
                .max_queue(MAX_BATCH)
                .cache_capacity(256)
                .routing(Routing::Affinity { skew_factor: 4 })
                .build(),
        )
        .with_recovery(RecoveryPolicy::default());
        if let Some(p) = p {
            srv = srv.with_fault_plan(p);
        }
        srv
    };

    let mut legs = Vec::new();
    println!(
        "{:>8} {:>9} {:>9} {:>14} {:>8} {:>9} {:>8} {:>7} {:>9} {:>9}",
        "fault‰",
        "complete",
        "baseline",
        "queries/s",
        "panics",
        "degraded",
        "trips",
        "probes",
        "reads/q",
        "ops/q"
    );
    for &rate in rates {
        let p = plan(rate);
        // Accounted run: completeness, robustness counters, model costs.
        let mut srv = make_server(p);
        let mut qled = Ledger::new(OMEGA);
        for &q in &queries {
            srv.submit(&mut qled, q).unwrap();
        }
        srv.drain(&mut qled);
        let out = srv.take_ready();
        for (i, (t, _)) in out.iter().enumerate() {
            assert_eq!(t.id(), i as u64, "tickets stay in submission order");
        }
        let stats = srv.robustness_stats();
        let costs = qled.costs();
        let completeness = out.len() as f64 / stream_len as f64;
        // Timed runs, fresh server (cold caches, fresh health) each
        // iteration so every run replays the identical fault schedule.
        let secs = time_median(iters, || {
            let mut srv = make_server(p);
            let mut ql = Ledger::new(OMEGA);
            for &q in &queries {
                srv.submit(&mut ql, q).unwrap();
            }
            srv.drain(&mut ql);
            assert_eq!(srv.take_ready().len(), stream_len);
        });
        let leg = FaultLeg {
            fault_per_mille: rate,
            completeness,
            baseline_completeness: baseline_completeness(p, stream_len),
            seconds_per_stream: secs,
            query_throughput_per_sec: if secs > 0.0 {
                stream_len as f64 / secs
            } else {
                f64::INFINITY
            },
            panics_caught: stats.panics_caught,
            degraded_answers: stats.degraded_answers,
            retries: stats.retries,
            breaker_trips: stats.breaker_trips,
            half_open_probes: stats.half_open_probes,
            shards_restored: stats.shards_restored,
            lock_poison_recoveries: stats.lock_poison_recoveries,
            reads_per_query: costs.asym_reads as f64 / stream_len as f64,
            ops_per_query: costs.operations() as f64 / stream_len as f64,
        };
        println!(
            "{:>8} {:>9.4} {:>9.4} {:>14.0} {:>8} {:>9} {:>8} {:>7} {:>9.1} {:>9.1}",
            leg.fault_per_mille,
            leg.completeness,
            leg.baseline_completeness,
            leg.query_throughput_per_sec,
            leg.panics_caught,
            leg.degraded_answers,
            leg.breaker_trips,
            leg.half_open_probes,
            leg.reads_per_query,
            leg.ops_per_query
        );
        assert!(
            (leg.completeness - 1.0).abs() < f64::EPSILON,
            "recovery must answer 100% at {rate}‰"
        );
        legs.push(leg);
    }

    let snap = FaultSnapshot {
        pr: 6,
        threads: rayon::current_num_threads() as u64,
        omega: OMEGA,
        n: n as u64,
        m: g.m() as u64,
        shards: SHARDS as u64,
        stream_len: stream_len as u64,
        seed: SEED,
        legs,
    };
    println!(
        "acceptance (1% faults): completeness {:.4} vs crash baseline {:.4}, \
         throughput retained {:.1}%",
        snap.leg_completeness(10),
        snap.leg_baseline(10),
        snap.throughput_retained_pct(10)
    );
    match snap.write("BENCH_PR6.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR6.json: {e}"),
    }
}
