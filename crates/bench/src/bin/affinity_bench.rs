//! Affinity routing under cache-capacity pressure.
//!
//! Builds both sublinear-write oracles once, then sweeps workload locality
//! (`hot_fraction`) × total cache capacity (as a fraction of the stream's
//! working set) × routing — the contiguous baseline (`Routing::Contiguous`)
//! and the default (`Routing::Affinity`), both under the CLOCK eviction
//! every shard cache runs — measuring the cumulative cache hit ratio,
//! evictions, queries/sec, and the model reads/writes charged per query.
//!
//! The headline comparison is the acceptance point: on the 94%-hot stream
//! with total capacity at 25% of the working set, affinity routing must
//! sustain a strictly higher cumulative hit ratio than contiguous routing
//! (asserted by `tests/affinity.rs`; reported here at bench scale).
//!
//! Writes the machine-readable `BENCH_PR4.json` (override the path with
//! `WEC_AFFINITY_BENCH_OUT`) whose `query_throughput_per_sec` /
//! `affinity_hit_ratio` / `baseline_hit_ratio` keys CI's bench guard
//! validates. Pass `--smoke` for the CI-sized run.

use std::collections::HashSet;

use wec_asym::Ledger;
use wec_bench::{time_median, AffinitySnapshot, AffinitySweepPoint};
use wec_biconnectivity::oracle::build_biconnectivity_oracle;
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_core::BuildOpts;
use wec_graph::{gen, Priorities, Vertex};
use wec_serve::{AdmissionPolicy, Query, Routing, ShardedServer, StreamingServer};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;
/// Hot-set size: small enough that a hot-heavy stream repeats keys
/// constantly, large enough that it cannot fit one pressured shard cache.
const HOT_KEYS: u32 = 64;

/// Deterministic component-heavy stream. With probability `hot_256` (in
/// 1/256ths) a query's vertices come from the hot set; cold vertices are
/// near-one-shot junk drawn from the whole graph.
fn stream(n: u32, len: usize, hot_256: u32, salt: u32) -> Vec<Query> {
    let mut v = salt;
    let mut step = move || {
        v = v.wrapping_mul(2654435761).wrapping_add(12345);
        v
    };
    (0..len)
        .map(|_| {
            let r = step();
            let domain = if r % 256 < hot_256 {
                HOT_KEYS.min(n)
            } else {
                n
            };
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

/// Distinct cache keys the stream probes (per-vertex component memos +
/// canonical predicate keys) — the working set the capacity fractions are
/// relative to.
fn working_set(queries: &[Query]) -> usize {
    let mut keys: HashSet<(u8, u32, u32)> = HashSet::new();
    for &q in queries {
        match q {
            Query::Component(v) => {
                keys.insert((0, v, 0));
            }
            Query::Connected(u, v) => {
                keys.insert((0, u, 0));
                keys.insert((0, v, 0));
            }
            Query::TwoEdgeConnected(u, v) => {
                keys.insert((1, u.min(v), u.max(v)));
            }
            Query::Biconnected(u, v) => {
                keys.insert((2, u.min(v), u.max(v)));
            }
        }
    }
    keys.len()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, stream_len, iters): (usize, usize, usize) = if smoke {
        (2000, 4000, 3)
    } else {
        (60_000, 100_000, 5)
    };
    // Locality knob (1/256ths): 50% and the acceptance point's ~94.1%.
    let hot_fracs: &[u32] = &[128, 241];
    // Total capacity as a percentage of the stream's working set.
    let cap_percents: &[u64] = &[10, 25, 100];
    let configs: &[(&str, Routing)] = &[
        ("contiguous", Routing::Contiguous),
        ("affinity", Routing::Affinity { skew_factor: 4 }),
    ];

    println!(
        "=== wec-serve affinity routing sweep (threads = {}, ω = {OMEGA}, n = {n}, \
         stream = {stream_len}, shards = {SHARDS}, hot set = {HOT_KEYS}) ===",
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

    let make_server = |capacity: usize, routing: Routing| {
        let sharded = ShardedServer::new(conn.query_handle(), SHARDS)
            .with_biconnectivity(bicon.query_handle());
        StreamingServer::new(
            sharded,
            AdmissionPolicy::builder()
                .max_batch(256)
                .max_queue(256)
                .cache_capacity(capacity)
                .routing(routing)
                .build(),
        )
    };

    let mut sweep = Vec::new();
    let mut acceptance_ws = 0u64;
    let (mut accept_base, mut accept_affinity) = (0.0f64, 0.0f64);
    println!(
        "{:>11} {:>6} {:>7} {:>9} {:>9} {:>9} {:>14} {:>10} {:>10}",
        "routing", "hot%", "cap%", "slots/sh", "hit%", "evic/q", "queries/s", "reads/q", "writes/q"
    );
    for &hot in hot_fracs {
        let queries = stream(n as u32, stream_len, hot, 7 + hot);
        let ws = working_set(&queries);
        if hot == 241 {
            acceptance_ws = ws as u64;
        }
        for &pct in cap_percents {
            let per_shard = ((ws as u64 * pct / 100) as usize / SHARDS).max(1);
            for &(routing_label, routing) in configs {
                // Accounted run (fresh caches): model costs + hit ratio.
                let mut srv = make_server(per_shard, routing);
                let mut qled = Ledger::new(OMEGA);
                for &q in &queries {
                    srv.submit(&mut qled, q).unwrap();
                }
                srv.drain(&mut qled);
                assert_eq!(srv.take_ready().len(), stream_len);
                let stats = srv.cache_stats();
                let costs = qled.costs();
                // Timed runs, cache-cold each iteration.
                let secs = time_median(iters, || {
                    let mut srv = make_server(per_shard, routing);
                    let mut ql = Ledger::new(OMEGA);
                    for &q in &queries {
                        srv.submit(&mut ql, q).unwrap();
                    }
                    srv.drain(&mut ql);
                    assert_eq!(srv.take_ready().len(), stream_len);
                });
                let point = AffinitySweepPoint {
                    routing: routing_label.to_string(),
                    hot_fraction: hot as f64 / 256.0,
                    capacity_fraction: pct as f64 / 100.0,
                    per_shard_capacity: per_shard as u64,
                    hit_ratio: stats.hit_ratio(),
                    evictions_per_query: stats.evictions as f64 / stream_len as f64,
                    seconds_per_stream: secs,
                    query_throughput_per_sec: if secs > 0.0 {
                        stream_len as f64 / secs
                    } else {
                        f64::INFINITY
                    },
                    reads_per_query: costs.asym_reads as f64 / stream_len as f64,
                    writes_per_query: costs.asym_writes as f64 / stream_len as f64,
                };
                if hot == 241 && pct == 25 {
                    // The acceptance point: 94%-hot, 25%-of-working-set
                    // total capacity.
                    match routing {
                        Routing::Contiguous => accept_base = point.hit_ratio,
                        Routing::Affinity { .. } => accept_affinity = point.hit_ratio,
                    }
                }
                println!(
                    "{:>11} {:>6.1} {:>7} {:>9} {:>9.1} {:>9.3} {:>14.0} {:>10.1} {:>10.3}",
                    point.routing,
                    100.0 * point.hot_fraction,
                    pct,
                    per_shard,
                    100.0 * point.hit_ratio,
                    point.evictions_per_query,
                    point.query_throughput_per_sec,
                    point.reads_per_query,
                    point.writes_per_query
                );
                sweep.push(point);
            }
        }
    }

    println!(
        "acceptance point (94% hot, 25% capacity): affinity hit {:.1}% vs \
         contiguous {:.1}% ({})",
        100.0 * accept_affinity,
        100.0 * accept_base,
        if accept_affinity > accept_base {
            "PASS: affinity routing sustains strictly more hits"
        } else {
            "REGRESSION: baseline not beaten — see tests/affinity.rs"
        }
    );

    let peak_q = sweep
        .iter()
        .map(|p| p.query_throughput_per_sec)
        .fold(0.0f64, f64::max);
    let snap = AffinitySnapshot {
        pr: 4,
        threads: rayon::current_num_threads() as u64,
        omega: OMEGA,
        n: n as u64,
        m: g.m() as u64,
        shards: SHARDS as u64,
        stream_len: stream_len as u64,
        working_set: acceptance_ws,
        sweep,
        query_throughput_per_sec: peak_q,
        affinity_hit_ratio: accept_affinity,
        baseline_hit_ratio: accept_base,
    };
    match snap.write("BENCH_PR4.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR4.json: {e}"),
    }
}
