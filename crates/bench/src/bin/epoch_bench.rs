//! Epoch-snapshot serving under batched edge insertions: throughput
//! retained and install-blocking behaviour against a read-only baseline.
//!
//! Builds both sublinear-write oracles over a deliberately fragmented
//! base graph (eight disconnected bounded-degree blocks, so insertions
//! actually merge components), then drives the 94%-hot streaming
//! workload through `wec_serve::StreamingServer` twice:
//!
//! * **read-only leg** — the plain stream, no mutations: the baseline
//!   `query_throughput_per_sec`;
//! * **mutating leg** — edge insertions arrive at 1% of the query rate
//!   (10‰), batched into 16-edge `GraphDelta`s. Each batch is staged
//!   mid-stream (`stage_delta`), the stream keeps submitting and
//!   delivering answers for a 384-query window while the next epoch's
//!   overlay exists only as staged state, and then the epoch installs
//!   (`install_staged`) with the queue non-empty — so every install has
//!   in-flight tickets that must keep serving.
//!
//! The leg asserts the double-buffered contract directly: every
//! submitted query is delivered in ticket order (`blocked_on_install`
//! is 0 — no query ever waits for an install), answers flow while a
//! delta is staged (`answered_during_stage`), and tickets in flight
//! across an install resolve through their submission epoch's retained
//! overlay (`straggler_answers`).
//!
//! Writes the machine-readable `BENCH_PR7.json` (override the path with
//! `WEC_EPOCH_BENCH_OUT`) whose `query_throughput_per_sec` /
//! `mutating_throughput_per_sec` / `throughput_retained_pct` /
//! `blocked_on_install` / `answered_during_stage` / `installs` keys
//! CI's bench guard validates. Pass `--smoke` for the CI-sized run.

use wec_asym::Ledger;
use wec_bench::{time_median, EpochLeg, EpochSnapshot};
use wec_biconnectivity::oracle::build_biconnectivity_oracle;
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_core::BuildOpts;
use wec_graph::{gen, Csr, Priorities, Vertex};
use wec_serve::{
    AdmissionPolicy, FullStreamingServer, GraphDelta, Query, Routing, ShardedServer,
    StreamingServer,
};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;
const HOT_KEYS: u32 = 64;
const MAX_BATCH: usize = 256;
const SEED: u64 = 0xE7;
/// Disconnected base-graph blocks; insertions merge them.
const BLOCKS: usize = 8;
/// Edge insertions per thousand queries on the mutating leg (the 1%
/// acceptance rate).
const UPDATE_PER_MILLE: u64 = 10;
/// Edges batched into each staged `GraphDelta`.
const DELTA_BATCH: usize = 16;
/// Queries submitted (and delivered) between `stage_delta` and the
/// matching `install_staged` — the window that proves staging does not
/// block reads. 1.5 × `MAX_BATCH`, so every window is guaranteed to
/// contain at least one inline dispatch (answers flow while staged)
/// while still ending mid-batch (the install always sees a non-empty
/// queue of in-flight tickets).
const STAGE_WINDOW: usize = MAX_BATCH + MAX_BATCH / 2;

/// The 94%-hot mixed stream (same generator family as `fault_bench`).
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

/// Deterministic insertion stream: distinct endpoint pairs drawn over
/// the whole vertex range, so most edges bridge two of the disconnected
/// base blocks and genuinely merge components.
fn insertions(n: u32, count: usize, salt: u32) -> Vec<(Vertex, Vertex)> {
    let mut v = salt ^ 0x9E37;
    let mut step = move || {
        v = v.wrapping_mul(2654435761).wrapping_add(12345);
        v
    };
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let u = step() % n;
        let w = (step() >> 5) % n;
        if u != w {
            out.push((u, w));
        }
    }
    out
}

/// What one interleaved run observed (used once for accounting; the
/// timed iterations replay the identical schedule and assert only the
/// delivery total).
struct RunOut {
    delivered: u64,
    answered_during_stage: u64,
}

/// Drive the full stream through `srv`, staging a `DELTA_BATCH`-edge
/// delta every `DELTA_BATCH * update_every` queries and installing it
/// `STAGE_WINDOW` queries later, delivering answers throughout. With
/// `update_every == 0` this is the plain read-only stream.
fn run_stream(
    srv: &mut FullStreamingServer<'_, '_, Csr>,
    led: &mut Ledger,
    queries: &[Query],
    edges: &[(Vertex, Vertex)],
    update_every: usize,
) -> RunOut {
    let mut delivered = 0u64;
    let mut answered_during_stage = 0u64;
    let mut next_edge = 0usize;
    let mut pending: Vec<(Vertex, Vertex)> = Vec::new();
    // Query index at which the currently staged delta installs; None
    // when nothing is staged.
    let mut install_at: Option<usize> = None;
    for (i, &q) in queries.iter().enumerate() {
        srv.submit(led, q).unwrap();
        let staged = install_at.is_some();
        while srv.try_next().is_some() {
            delivered += 1;
            if staged {
                answered_during_stage += 1;
            }
        }
        if install_at.is_some_and(|at| i >= at) {
            srv.install_staged(led);
            install_at = None;
        }
        if update_every != 0 && (i + 1) % update_every == 0 && next_edge < edges.len() {
            pending.push(edges[next_edge]);
            next_edge += 1;
            if pending.len() >= DELTA_BATCH && install_at.is_none() {
                let delta = GraphDelta::from_edges(std::mem::take(&mut pending));
                srv.stage_delta(led, &delta);
                install_at = Some(i + STAGE_WINDOW);
            }
        }
    }
    // Tail: install anything still staged (plus leftover edges), then
    // drain the queue and deliver the rest.
    if !pending.is_empty() {
        let delta = GraphDelta::from_edges(std::mem::take(&mut pending));
        srv.stage_delta(led, &delta);
        install_at = Some(usize::MAX);
    }
    if install_at.is_some() {
        srv.install_staged(led);
    }
    srv.drain(led);
    while srv.try_next().is_some() {
        delivered += 1;
    }
    RunOut {
        delivered,
        answered_during_stage,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (block_n, stream_len, iters): (usize, usize, usize) = if smoke {
        (500, 4000, 3)
    } else {
        (7500, 100_000, 5)
    };
    let n = block_n * BLOCKS;
    let update_every = (1000 / UPDATE_PER_MILLE) as usize;
    let updates = stream_len / update_every;

    println!(
        "=== wec-serve epoch-snapshot mutation sweep (threads = {}, ω = {OMEGA}, n = {n}, \
         stream = {stream_len}, updates = {updates} @ {UPDATE_PER_MILLE}‰, shards = {SHARDS}, \
         seed = {SEED:#x}) ===",
        rayon::current_num_threads()
    );
    let blocks: Vec<Csr> = (0..BLOCKS)
        .map(|b| gen::bounded_degree_connected(block_n, 4, block_n / 4, 42 + b as u64))
        .collect();
    let block_refs: Vec<&Csr> = blocks.iter().collect();
    let g = gen::disjoint_union(&block_refs);
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
    let edges = insertions(n as u32, updates, 11);
    let make_server = || {
        let sharded = ShardedServer::new(conn.query_handle(), SHARDS)
            .with_biconnectivity(bicon.query_handle());
        StreamingServer::new(
            sharded,
            AdmissionPolicy::builder()
                .max_batch(MAX_BATCH)
                .max_queue(MAX_BATCH)
                .cache_capacity(256)
                .routing(Routing::Affinity { skew_factor: 4 })
                .build(),
        )
    };

    let mut legs = Vec::new();
    println!(
        "{:>8} {:>14} {:>9} {:>8} {:>9} {:>9} {:>10} {:>9} {:>9}",
        "update‰",
        "queries/s",
        "installs",
        "blocked",
        "staged-q",
        "straggle",
        "invalid",
        "reads/q",
        "ops/q"
    );
    for &rate in &[0u64, UPDATE_PER_MILLE] {
        let every = if rate == 0 { 0 } else { update_every };
        // Accounted run: epoch stats, cache stats, model costs.
        let mut srv = make_server();
        let mut qled = Ledger::new(OMEGA);
        let out = run_stream(&mut srv, &mut qled, &queries, &edges, every);
        assert_eq!(
            out.delivered, stream_len as u64,
            "every submitted query is delivered — none block on an install"
        );
        let estats = srv.epoch_stats();
        let cstats = srv.cache_stats();
        let costs = qled.costs();
        if rate != 0 {
            assert!(
                estats.installs > 0 && estats.staged_edges == updates as u64,
                "mutating leg staged and installed the whole insertion stream"
            );
            assert!(
                out.answered_during_stage > 0,
                "queries must keep flowing while a delta is staged"
            );
        }
        // Timed runs, fresh server and ledger each iteration so every
        // run replays the identical interleaved schedule.
        let secs = time_median(iters, || {
            let mut srv = make_server();
            let mut ql = Ledger::new(OMEGA);
            let out = run_stream(&mut srv, &mut ql, &queries, &edges, every);
            assert_eq!(out.delivered, stream_len as u64);
        });
        let leg = EpochLeg {
            update_per_mille: rate,
            delta_batch: if rate == 0 { 0 } else { DELTA_BATCH as u64 },
            seconds_per_stream: secs,
            query_throughput_per_sec: if secs > 0.0 {
                stream_len as f64 / secs
            } else {
                f64::INFINITY
            },
            installs: estats.installs,
            staged_edges: estats.staged_edges,
            blocked_on_install: stream_len as u64 - out.delivered,
            answered_during_stage: out.answered_during_stage,
            straggler_answers: estats.straggler_answers,
            in_flight_at_install: estats.in_flight_at_install,
            invalidated_entries: estats.invalidated_entries,
            invalidation_swept_slots: estats.invalidation_swept_slots,
            retired_overlays: estats.retired_overlays,
            cache_hits: cstats.hits,
            cache_misses: cstats.misses,
            reads_per_query: costs.asym_reads as f64 / stream_len as f64,
            writes_per_query: costs.asym_writes as f64 / stream_len as f64,
            ops_per_query: costs.operations() as f64 / stream_len as f64,
        };
        println!(
            "{:>8} {:>14.0} {:>9} {:>8} {:>9} {:>9} {:>10} {:>9.1} {:>9.1}",
            leg.update_per_mille,
            leg.query_throughput_per_sec,
            leg.installs,
            leg.blocked_on_install,
            leg.answered_during_stage,
            leg.straggler_answers,
            leg.invalidated_entries,
            leg.reads_per_query,
            leg.ops_per_query
        );
        legs.push(leg);
    }

    let snap = EpochSnapshot {
        pr: 7,
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
        "acceptance (1% updates): blocked_on_install = {}, answered during staging = {}, \
         throughput retained {:.1}%",
        snap.legs
            .iter()
            .find(|l| l.update_per_mille == UPDATE_PER_MILLE)
            .map_or(u64::MAX, |l| l.blocked_on_install),
        snap.legs
            .iter()
            .find(|l| l.update_per_mille == UPDATE_PER_MILLE)
            .map_or(0, |l| l.answered_during_stage),
        snap.throughput_retained_pct(UPDATE_PER_MILLE)
    );
    match snap.write("BENCH_PR7.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR7.json: {e}"),
    }
}
