//! Oracle builds, their verification, and the traced build-layer legs.

use std::time::Instant;

use wec_asym::{Costs, Ledger};
use wec_biconnectivity::oracle::build_biconnectivity_oracle;
use wec_biconnectivity::BiconnectivityOracle;
use wec_connectivity::{
    connectivity_csr, star_connectivity, ComponentId, ConnectivityOracle, OracleBuildOpts,
};
use wec_core::{BuildOpts, ImplicitDecomposition};
use wec_graph::{Csr, Vertex};
use wec_prims::low_diameter_decomposition;
use wec_serve::{Answer, Query};

use crate::metrics::Metrics;
use crate::reference::Reference;
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::workload::{Inputs, INSTANCE_SEED, K, OMEGA};

/// The two paper oracles over one graph.
pub struct Oracles<'g> {
    pub conn: ConnectivityOracle<'g, Csr>,
    pub bicc: BiconnectivityOracle<'g, Csr>,
}

/// Wall time and charged costs of one build of both oracles.
#[derive(Debug, Clone, Copy)]
pub struct BuildSample {
    pub conn_s: f64,
    pub bicc_s: f64,
    pub conn: Costs,
    pub bicc: Costs,
    pub words: usize,
}

impl BuildSample {
    pub fn secs(&self) -> f64 {
        self.conn_s + self.bicc_s
    }

    pub fn costs(&self) -> Costs {
        self.conn + self.bicc
    }
}

/// The parallel `SECONDARYCENTERS` variant, with the center-less
/// component pass (Lemma 3.7).
fn decomp_opts(parallel: bool) -> BuildOpts {
    BuildOpts {
        parallel,
        ..BuildOpts::default()
    }
}

/// Build the connectivity oracle (§4.3) and then the biconnectivity
/// oracle (§5.3), each on a fresh ledger.
pub fn build_oracles<'g>(inputs: &'g Inputs, tracer: &mut Tracer) -> (Oracles<'g>, BuildSample) {
    let (g, pri, verts) = (&inputs.g, &inputs.pri, &inputs.verts[..]);
    let opts = OracleBuildOpts {
        decomp: decomp_opts(true),
        ..OracleBuildOpts::default()
    };
    let mut cl = Ledger::new(OMEGA);
    let t = Instant::now();
    let conn = tracer.span("connectivity.oracle", &mut cl, |l| {
        ConnectivityOracle::build(l, g, pri, verts, K, INSTANCE_SEED, opts)
    });
    let conn_s = t.elapsed().as_secs_f64();
    let mut bl = Ledger::new(OMEGA);
    let t = Instant::now();
    let bicc = tracer.span("biconnectivity.oracle", &mut bl, |l| {
        build_biconnectivity_oracle(l, g, pri, verts, K, INSTANCE_SEED, opts.decomp)
    });
    let bicc_s = t.elapsed().as_secs_f64();
    let words = conn.storage_words() + bicc.storage_words();
    let sample = BuildSample {
        conn_s,
        bicc_s,
        conn: cl.costs(),
        bicc: bl.costs(),
        words,
    };
    (Oracles { conn, bicc }, sample)
}

/// Every vertex's component id, queried through the oracle.
pub fn component_ids(o: &Oracles<'_>, n: usize) -> Vec<ComponentId> {
    let mut led = Ledger::new(OMEGA);
    let h = o.conn.query_handle();
    (0..n as Vertex).map(|v| h.component(&mut led, v)).collect()
}

/// Predicate queries over a seeded vertex sample, for build checks.
pub fn predicate_sample(n: usize, seed: u64, count: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0xc4ec);
    (0..count)
        .map(|i| {
            let (a, b) = (rng.below(n as u32), rng.below(n as u32));
            if i % 2 == 0 {
                Query::TwoEdgeConnected(a, b)
            } else {
                Query::Biconnected(a, b)
            }
        })
        .collect()
}

/// Answer `q` through the oracles' query handles, uncached.
pub fn answer(o: &Oracles<'_>, led: &mut Ledger, q: Query) -> Answer {
    let (c, b) = (o.conn.query_handle(), o.bicc.query_handle());
    match q {
        Query::Component(v) => Answer::Component(c.component(led, v)),
        Query::Connected(u, v) => Answer::Connected(c.connected(led, u, v)),
        Query::TwoEdgeConnected(u, v) => Answer::TwoEdgeConnected(b.two_edge_connected(led, u, v)),
        Query::Biconnected(u, v) => Answer::Biconnected(b.biconnected(led, u, v)),
    }
}

/// Whether a freshly built pair of oracles answers like the reference:
/// every vertex's component, and the predicate sample.
pub fn verify(o: &Oracles<'_>, reference: &Reference, predicates: &[Query]) -> bool {
    let n = reference.vertices();
    let ids_ok = component_ids(o, n)
        .iter()
        .enumerate()
        .all(|(v, &id)| id == reference.base_id(v as Vertex));
    let mut led = Ledger::new(OMEGA);
    ids_ok
        && predicates
            .iter()
            .all(|&q| reference.check(q, &Ok(answer(o, &mut led, q)), 0, 0))
}

fn timed<R>(f: impl FnOnce(&mut Ledger) -> R) -> (f64, Costs, R) {
    let mut led = Ledger::new(OMEGA);
    let t = Instant::now();
    let r = f(&mut led);
    (t.elapsed().as_secs_f64(), led.costs(), r)
}

/// The traced build-layer legs on the workload's graph. Each leg calls
/// one public entry point on the same inputs; `oracle_self` is an oracle
/// build minus its decomposition (identical inputs and seed, so the
/// decomposition is the same one the oracle builds). Returns one
/// decomposition build's median wall time and its charge.
pub fn build_layers(
    inputs: &Inputs,
    seed: u64,
    samples: &[BuildSample],
    o: &Oracles<'_>,
    queries: &[Query],
    m: &mut Metrics,
) -> (f64, Costs) {
    let (g, pri, verts) = (&inputs.g, &inputs.pri, &inputs.verts[..]);
    let (n, edges) = (g.n() as f64, g.m().max(1) as f64);
    let decomp = |parallel: bool| {
        timed(|l| {
            let d = ImplicitDecomposition::build(
                l,
                g,
                pri,
                verts,
                K,
                INSTANCE_SEED,
                decomp_opts(parallel),
            );
            (d.num_centers(), d.stats().secondaries)
        })
    };
    let runs: Vec<_> = (0..3).map(|_| decomp(true)).collect();
    let decomp_s = median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
    let (_, dcosts, (centers, secondaries)) = runs[0];
    let (seq_s, _, _) = decomp(false);
    m.layer("core.decomp_s", decomp_s, "s");
    m.layer("core.decomp_seq_s", seq_s, "s");
    m.layer("core.decomp_writes", dcosts.asym_writes as f64, "count");
    m.layer("core.centers", centers as f64, "count");
    m.layer("core.secondaries", secondaries as f64, "count");

    let conn_s = median(&samples.iter().map(|s| s.conn_s).collect::<Vec<_>>());
    let bicc_s = median(&samples.iter().map(|s| s.bicc_s).collect::<Vec<_>>());
    let last = samples.last().expect("at least one build");
    m.layer("connectivity.oracle_self_s", conn_s - decomp_s, "s");
    m.layer(
        "connectivity.oracle_self_writes",
        last.conn.since(&dcosts).asym_writes as f64,
        "count",
    );
    m.layer("biconnectivity.oracle_self_s", bicc_s - decomp_s, "s");
    m.layer(
        "biconnectivity.oracle_self_writes",
        last.bicc.since(&dcosts).asym_writes as f64,
        "count",
    );

    let beta = 1.0 / OMEGA as f64;
    let (ldd_s, ldd, _) = timed(|l| low_diameter_decomposition(l, g, verts, beta, INSTANCE_SEED));
    m.layer("prims.ldd_s", ldd_s, "s");
    m.layer("prims.ldd_writes", ldd.asym_writes as f64, "count");
    let (s42_s, s42, _) = timed(|l| connectivity_csr(l, g, beta, INSTANCE_SEED));
    m.layer("connectivity.sec42_s", s42_s, "s");
    m.layer(
        "connectivity.sec42_writes_per_edge",
        s42.asym_writes as f64 / edges,
        "writes/edge",
    );
    let (star_s, star, _) = timed(|l| star_connectivity(l, g, beta, INSTANCE_SEED));
    m.layer("connectivity.star_s", star_s, "s");
    m.layer(
        "connectivity.star_writes_per_edge",
        star.asym_writes as f64 / edges,
        "writes/edge",
    );

    let mut rng = Rng::new(seed ^ 0x240);
    let sample: Vec<Vertex> = (0..20_000).map(|_| rng.below(n as u32)).collect();
    let d = o.conn.decomposition();
    let (rho_s, rho, _) = timed(|l| {
        for &v in &sample {
            std::hint::black_box(d.rho(l, v));
        }
    });
    m.layer("core.rho_us", rho_s * 1e6 / sample.len() as f64, "us");
    m.layer(
        "core.rho_reads",
        rho.asym_reads as f64 / sample.len() as f64,
        "reads/call",
    );

    let per_kind = |pick: fn(&Query) -> bool| -> (f64, f64, usize) {
        let qs: Vec<Query> = queries.iter().copied().filter(pick).collect();
        let (s, c, _) = timed(|l| {
            for &q in &qs {
                std::hint::black_box(answer(o, l, q));
            }
        });
        let k = qs.len().max(1) as f64;
        (s * 1e6 / k, c.asym_reads as f64 / k, qs.len())
    };
    let (conn_us, conn_reads, _) =
        per_kind(|q| matches!(q, Query::Component(_) | Query::Connected(..)));
    m.layer("connectivity.query_us", conn_us, "us");
    m.layer("connectivity.query_reads", conn_reads, "reads/query");
    let (bic_us, bic_reads, bic_n) = per_kind(|q| matches!(q, Query::Biconnected(..)));
    let (tec_us, tec_reads, tec_n) = per_kind(|q| matches!(q, Query::TwoEdgeConnected(..)));
    m.layer("biconnectivity.biconnected_us", bic_us, "us");
    m.layer("biconnectivity.two_edge_us", tec_us, "us");
    let pred_reads =
        (bic_reads * bic_n as f64 + tec_reads * tec_n as f64) / (bic_n + tec_n).max(1) as f64;
    m.layer("biconnectivity.query_reads", pred_reads, "reads/query");

    let opts = OracleBuildOpts {
        decomp: decomp_opts(true),
        ..OracleBuildOpts::default()
    };
    let mut seq = Ledger::sequential(OMEGA);
    let t = Instant::now();
    std::hint::black_box(ConnectivityOracle::build(
        &mut seq,
        g,
        pri,
        verts,
        K,
        INSTANCE_SEED,
        opts,
    ));
    m.layer(
        "rayon.build_speedup",
        t.elapsed().as_secs_f64() / conn_s,
        "x",
    );
    (decomp_s, dcosts)
}
