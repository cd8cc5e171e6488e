//! The three workloads, their inputs and the reason each one exists.
//!
//! The graph instance of a workload is pinned: the cost of an oracle
//! query depends on the instance (uniform queries over one 60 000-vertex
//! graph charge 230 to 370 reads on average, depending on the graph's
//! seed), which would hide a regression behind instance-to-instance
//! spread. The `--seed` draws everything sent to that instance: the query
//! streams, the hot set, the inserted edges and the checked samples.

use wec_graph::{gen, Csr, Priorities, Vertex};
use wec_serve::Query;

use crate::stats::Rng;

/// Write cost of the asymmetric memory.
pub const OMEGA: u64 = 64;
/// Cluster parameter, `√ω`.
pub const K: usize = 8;
/// Generator seed of the pinned graph instances and of the builds on them
/// (the seed of the n = 60 000 oracle-build snapshots).
pub const INSTANCE_SEED: u64 = 42;
/// Vertices of the connected graph (`build`, `serve_cold`): the regime of
/// the oracle-build snapshots.
pub const N_CONNECTED: usize = 60_000;
/// Vertices of the fragmented graph (`serve_hot_rw`).
pub const N_BLOCKS: usize = 240_000;
/// Vertices per block of the fragmented graph. Every inserted edge must
/// join two components that are still apart, so the graph needs more
/// components than one serving repetition inserts edges (1% of its
/// queries).
pub const BLOCK: usize = 3;
/// Hot vertices of `serve_hot_rw`: their memo and predicate keys fit the
/// 4 × 256 result-cache slots.
pub const HOT_VERTICES: usize = 16;
/// Shards of the sharded server, and result-cache slots per shard.
pub const SHARDS: usize = 4;
pub const CACHE_SLOTS: usize = 256;
/// Edges per staged `GraphDelta`.
pub const DELTA_EDGES: usize = 16;
/// One inserted edge per this many submitted queries (1%).
pub const QUERIES_PER_EDGE: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Build,
    ServeCold,
    ServeHotRw,
}

/// Everything that differs between workloads.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub n: usize,
    /// `Some(b)`: disjoint bounded-degree blocks of `b` vertices.
    pub block: Option<usize>,
    /// Per mille of queries drawn from the hot set.
    pub hot_per_mille: u32,
    /// Requests each of the two clients keeps in flight.
    pub windows: [usize; 2],
    /// Largest micro-batch one pump dispatches. Below the requests in
    /// flight on `serve_hot_rw`, so queued work waits, DRR composes
    /// batches, and installs find admitted tickets in flight.
    pub max_batch: usize,
    /// The two clients are two tenants under equal-weight DRR.
    pub tenants: bool,
    /// Edge insertions while serving.
    pub inserts: bool,
    /// Share of the run spent building oracles (the rest serves).
    pub build_share: f64,
    /// Submissions per serving repetition, so a run measures dozens of
    /// them. On `serve_cold` a repetition lasts under 0.1 s on a 2-core
    /// host: most fall between the host's slow stretches, which would
    /// otherwise set every repetition's p99. On `serve_hot_rw` it inserts
    /// over a thousand edges, so installs stay part of every repetition.
    pub rep_queries: u64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Build, Workload::ServeCold, Workload::ServeHotRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHotRw => "serve_hot_rw",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload was chosen, and which layers it isolates or
    /// bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Build => {
                "builds both paper oracles back to back on the connected bounded-degree \
                 graph, where the paper sets its write bounds: DetSearch/rho, secondary \
                 planting, biconnectivity labeling and the rayon scheduler do nearly all \
                 the work; its serving metrics come from a cold serving window run \
                 before the builds"
            }
            Workload::ServeCold => {
                "uniform queries over all vertices: the working set dwarfs the 4 x 256 \
                 result-cache slots, so the oracle query path (rho, biconnectivity local \
                 graphs) does the work and cache, DRR and epochs are bypassed"
            }
            Workload::ServeHotRw => {
                "94% of queries hit a 16-vertex hot set that fits the caches, two tenants \
                 with 10:1 in-flight skew share equal-weight DRR, and 16-edge insert \
                 deltas arrive at 1% of the query rate: client, frontend, admission, \
                 cache, DRR and epoch installs dominate"
            }
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::Build => Spec {
                n: N_CONNECTED,
                block: None,
                hot_per_mille: 0,
                windows: [32, 32],
                max_batch: 64,
                tenants: false,
                inserts: false,
                build_share: 0.5,
                rep_queries: 3_000,
            },
            Workload::ServeCold => Spec {
                build_share: 0.0,
                ..Workload::Build.spec()
            },
            Workload::ServeHotRw => Spec {
                n: N_BLOCKS,
                block: Some(BLOCK),
                hot_per_mille: 940,
                windows: [40, 4],
                max_batch: 16,
                tenants: true,
                inserts: true,
                build_share: 0.0,
                rep_queries: 120_000,
            },
        }
    }
}

/// The graph instance and its priority order.
pub struct Inputs {
    pub g: Csr,
    pub pri: Priorities,
    pub verts: Vec<Vertex>,
}

impl Inputs {
    pub fn generate(spec: &Spec) -> Inputs {
        let (n, seed) = (spec.n, INSTANCE_SEED);
        let g = match spec.block {
            None => gen::bounded_degree_connected(n, 4, n / 4, seed),
            Some(b) => {
                let blocks: Vec<Csr> = (0..n / b)
                    .map(|i| gen::bounded_degree_connected(b, 4, b / 4, seed ^ (i as u64) << 20))
                    .collect();
                let refs: Vec<&Csr> = blocks.iter().collect();
                gen::disjoint_union(&refs)
            }
        };
        let n = g.n();
        Inputs {
            g,
            pri: Priorities::random(n, seed ^ 0x9a1),
            verts: (0..n as Vertex).collect(),
        }
    }
}

/// A client's query stream: 60% `Component`, 20% `Connected`, 10%
/// `TwoEdgeConnected`, 10% `Biconnected`, each endpoint drawn from the hot
/// set with probability `hot_per_mille`/1000, else uniformly.
#[derive(Debug, Clone)]
pub struct QueryGen {
    rng: Rng,
    n: u32,
    hot: Vec<Vertex>,
    hot_per_mille: u32,
}

impl QueryGen {
    pub fn new(spec: &Spec, hot: &[Vertex], seed: u64, client: usize) -> Self {
        QueryGen {
            rng: Rng::new(seed ^ 0xc11e_0000 ^ client as u64),
            n: spec.n as u32,
            hot: hot.to_vec(),
            hot_per_mille: spec.hot_per_mille,
        }
    }

    fn vertex(&mut self, hot: bool) -> Vertex {
        if hot {
            self.hot[self.rng.below(self.hot.len() as u32) as usize]
        } else {
            self.rng.below(self.n)
        }
    }

    pub fn next_query(&mut self) -> Query {
        let kind = self.rng.below(10);
        let hot = self.rng.below(1000) < self.hot_per_mille;
        let a = self.vertex(hot);
        let b = self.vertex(hot);
        match kind {
            0..=5 => Query::Component(a),
            6 | 7 => Query::Connected(a, b),
            8 => Query::TwoEdgeConnected(a, b),
            _ => Query::Biconnected(a, b),
        }
    }
}

/// The hot vertex set: `HOT_VERTICES` distinct vertices.
pub fn hot_set(n: usize, seed: u64) -> Vec<Vertex> {
    let mut rng = Rng::new(seed ^ 0x407);
    let mut hot: Vec<Vertex> = Vec::with_capacity(HOT_VERTICES);
    while hot.len() < HOT_VERTICES.min(n) {
        let v = rng.below(n as u32);
        if !hot.contains(&v) {
            hot.push(v);
        }
    }
    hot
}

/// The insertion stream: every edge joins two components that are still
/// apart given the base graph and all earlier edges; one edge in four
/// starts at a hot vertex, so installs keep remapping hot cache entries.
/// Generated from the seed and the graph alone, up to `max_edges`.
pub fn insert_stream(
    g: &Csr,
    hot: &[Vertex],
    seed: u64,
    max_edges: usize,
) -> Vec<(Vertex, Vertex)> {
    let n = g.n() as u32;
    let mut uf = wec_baseline::UnionFind::new(g.n());
    for &(u, v) in g.edges() {
        uf.union(u, v);
    }
    let mut rng = Rng::new(seed ^ 0x1115);
    let mut out = Vec::with_capacity(max_edges.min(uf.components()));
    while out.len() < max_edges && uf.components() > 1 {
        let u = if out.len() % 4 == 0 && !hot.is_empty() {
            hot[rng.below(hot.len() as u32) as usize]
        } else {
            rng.below(n)
        };
        let w = rng.below(n);
        if uf.union(u, w) {
            out.push((u, w));
        }
    }
    out
}
