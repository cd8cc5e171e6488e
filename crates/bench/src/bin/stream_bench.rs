//! Wall-clock throughput of the `wec-serve` streaming front end.
//!
//! Builds both sublinear-write oracles once, then sweeps micro-batch size
//! (`AdmissionPolicy::max_batch`) × per-shard cache capacity × workload
//! locality (`hot_fraction` of queries drawn from a small hot key set) over
//! a deterministic query stream, measuring queries/sec, the achieved cache
//! hit ratio, and the model reads/writes charged per query.
//!
//! Writes the machine-readable `BENCH_PR3.json` (override the path with
//! `WEC_STREAM_BENCH_OUT`) whose `query_throughput_per_sec` /
//! `peak_hit_ratio` keys CI's bench guard validates. Pass `--smoke` for
//! the CI-sized run.

use wec_asym::Ledger;
use wec_bench::{time_median, StreamSnapshot, StreamSweepPoint};
use wec_biconnectivity::oracle::build_biconnectivity_oracle;
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_core::BuildOpts;
use wec_graph::{gen, Priorities, Vertex};
use wec_serve::{AdmissionPolicy, Query, ShardedServer, StreamingServer};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;
/// Hot-set size for the locality knob: small enough that a hot-heavy
/// stream repeats keys constantly.
const HOT_KEYS: u32 = 64;

/// Deterministic query stream mixing all four kinds. With probability
/// `hot_fraction` (in 1/256ths) a query's vertices come from the hot set.
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
            match r % 8 {
                0..=3 => Query::Connected(a, b),
                4 | 5 => Query::Component(a),
                6 => Query::TwoEdgeConnected(a, b),
                _ => Query::Biconnected(a, b),
            }
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, stream_len, batch_sizes, capacities, hot_fracs, iters): (
        usize,
        usize,
        &[usize],
        &[usize],
        &[u32], // in 1/256ths
        usize,
    ) = if smoke {
        (2000, 4000, &[64, 256], &[0, 1 << 14], &[0, 230], 3)
    } else {
        (
            60_000,
            100_000,
            &[64, 256, 4096],
            &[0, 1 << 16],
            &[0, 128, 243],
            5,
        )
    };

    println!(
        "=== wec-serve streaming sweep (threads = {}, ω = {OMEGA}, n = {n}, \
         stream = {stream_len}, shards = {SHARDS}) ===",
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

    let make_server = |max_batch: usize, capacity: usize| {
        let sharded = ShardedServer::new(conn.query_handle(), SHARDS)
            .with_biconnectivity(bicon.query_handle());
        // max_queue = max_batch: every admission that fills a micro-batch
        // dispatches it, the steady-state streaming regime.
        StreamingServer::new(
            sharded,
            AdmissionPolicy::builder()
                .max_batch(max_batch)
                .max_queue(max_batch)
                .cache_capacity(capacity)
                .build(),
        )
    };

    let mut sweep = Vec::new();
    println!(
        "{:>7} {:>10} {:>6} {:>9} {:>12} {:>14} {:>12} {:>12}",
        "batch", "capacity", "hot%", "hit%", "ms/stream", "queries/s", "reads/q", "writes/q"
    );
    for &max_batch in batch_sizes {
        for &capacity in capacities {
            for &hot in hot_fracs {
                let queries = stream(n as u32, stream_len, hot, 7 + hot);
                // Accounted run (fresh server, fresh caches): model costs
                // and the achieved hit ratio.
                let mut srv = make_server(max_batch, capacity);
                let mut qled = Ledger::new(OMEGA);
                for &q in &queries {
                    srv.submit(&mut qled, q).unwrap();
                }
                srv.drain(&mut qled);
                let answered = srv.take_ready().len();
                assert_eq!(answered, stream_len, "every query answered in order");
                let stats = srv.cache_stats();
                let costs = qled.costs();
                // Timed runs: rebuild the server each iteration so every
                // run starts cache-cold (deterministic, comparable).
                let secs = time_median(iters, || {
                    let mut srv = make_server(max_batch, capacity);
                    let mut ql = Ledger::new(OMEGA);
                    for &q in &queries {
                        srv.submit(&mut ql, q).unwrap();
                    }
                    srv.drain(&mut ql);
                    assert_eq!(srv.take_ready().len(), stream_len);
                });
                let point = StreamSweepPoint {
                    max_batch: max_batch as u64,
                    cache_capacity: capacity as u64,
                    hot_fraction: hot as f64 / 256.0,
                    hit_ratio: stats.hit_ratio(),
                    seconds_per_stream: secs,
                    query_throughput_per_sec: if secs > 0.0 {
                        stream_len as f64 / secs
                    } else {
                        f64::INFINITY
                    },
                    reads_per_query: costs.asym_reads as f64 / stream_len as f64,
                    writes_per_query: costs.asym_writes as f64 / stream_len as f64,
                };
                println!(
                    "{:>7} {:>10} {:>6.1} {:>9.1} {:>12.3} {:>14.0} {:>12.1} {:>12.3}",
                    max_batch,
                    capacity,
                    100.0 * point.hot_fraction,
                    100.0 * point.hit_ratio,
                    1e3 * secs,
                    point.query_throughput_per_sec,
                    point.reads_per_query,
                    point.writes_per_query
                );
                sweep.push(point);
            }
        }
    }

    let peak_q = sweep
        .iter()
        .map(|p| p.query_throughput_per_sec)
        .fold(0.0f64, f64::max);
    let peak_hit = sweep.iter().map(|p| p.hit_ratio).fold(0.0f64, f64::max);
    let snap = StreamSnapshot {
        pr: 3,
        threads: rayon::current_num_threads() as u64,
        omega: OMEGA,
        n: n as u64,
        m: g.m() as u64,
        shards: SHARDS as u64,
        stream_len: stream_len as u64,
        sweep,
        query_throughput_per_sec: peak_q,
        peak_hit_ratio: peak_hit,
    };
    match snap.write("BENCH_PR3.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR3.json: {e}"),
    }
}
