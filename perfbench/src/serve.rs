//! Wire serving: two `WireClient`s over in-process loopback connections to
//! one `Frontend → StreamingServer → ShardedServer` stack, both driven from
//! the single main thread. The loop is closed: each client keeps its
//! window full and submits again only when an answer frees a slot.

use std::time::{Duration, Instant};

use wec_asym::{Costs, Ledger};
use wec_biconnectivity::BiconnQueryHandle;
use wec_connectivity::ConnQueryHandle;
use wec_graph::{Csr, Vertex};
use wec_serve::{
    encode_frame, loopback_listener, AdmissionPolicy, FairShare, Frame, FrameBuf, Frontend,
    GraphDelta, LoopbackListener, Query, RetryPolicy, ShardedServer, StreamingServer, TenantId,
    TenantSpec, WireClient,
};

use crate::build::Oracles;
use crate::reference::Reference;
use crate::stats::{quantile_sorted, tail_sorted};
use crate::trace::Tracer;
use crate::workload::{QueryGen, Spec, CACHE_SLOTS, DELTA_EDGES, OMEGA, QUERIES_PER_EDGE, SHARDS};

type Fe<'o, 'g> = Frontend<ConnQueryHandle<'o, 'g, Csr>, BiconnQueryHandle<'o, 'g, Csr>>;

/// Wire credentials of the two tenants.
const CREDENTIALS: [u64; 2] = [0x7e_0001, 0x7e_0002];
/// Queries of a window kept for the traced replays through inner layers.
pub const REPLAY_QUERIES: usize = 16_384;

fn policy(spec: &Spec) -> AdmissionPolicy {
    let b = AdmissionPolicy::builder()
        .max_batch(spec.max_batch)
        .max_queue(4096)
        .cache_capacity(CACHE_SLOTS);
    if spec.tenants {
        b.fair_share(FairShare::DRR)
            .tenants((0..2).map(|t| TenantSpec::new(t as u16).credential(CREDENTIALS[t])))
            .build()
    } else {
        b.build()
    }
}

fn sharded<'o, 'g>(
    o: &'o Oracles<'g>,
) -> ShardedServer<ConnQueryHandle<'o, 'g, Csr>, BiconnQueryHandle<'o, 'g, Csr>> {
    ShardedServer::new(o.conn.query_handle(), SHARDS).with_biconnectivity(o.bicc.query_handle())
}

/// A connected serving stack: the server side, its listener, the two
/// clients, and one ledger per side.
pub struct Stack<'o, 'g> {
    pub fe: Fe<'o, 'g>,
    listener: LoopbackListener,
    pub clients: Vec<WireClient>,
    pub sled: Ledger,
    pub cled: Ledger,
}

impl<'o, 'g> Stack<'o, 'g> {
    /// Build the server over `oracles`, dial both clients and complete
    /// their session handshakes.
    pub fn connect(oracles: &'o Oracles<'g>, spec: &Spec) -> Self {
        let srv = StreamingServer::new(sharded(oracles), policy(spec));
        let window = spec.windows.iter().copied().max().unwrap_or(1);
        let fe = Frontend::new(srv).with_window(window);
        let (connector, listener) = loopback_listener();
        let clients = (0..2)
            .map(|i| {
                let c = WireClient::new(Box::new(connector.clone()), 0x5e55_0000 + i as u64)
                    .with_retry(RetryPolicy {
                        window: spec.windows[i],
                        ..RetryPolicy::default()
                    });
                if spec.tenants {
                    c.with_identity(TenantId(i as u16), CREDENTIALS[i])
                } else {
                    c
                }
            })
            .collect();
        let mut stack = Stack {
            fe,
            listener,
            clients,
            sled: Ledger::new(OMEGA),
            cled: Ledger::new(OMEGA),
        };
        for c in stack.clients.iter_mut() {
            c.tick(&mut stack.cled);
        }
        stack.accept();
        stack.fe.pump(&mut stack.sled);
        stack
    }

    fn accept(&mut self) {
        while let Some(t) = self.listener.accept() {
            self.fe.connect(Box::new(t));
        }
    }

    fn epoch(&self) -> u32 {
        self.fe.server().current_epoch() as u32
    }
}

/// How many repetitions a serving window runs.
#[derive(Debug, Clone, Copy)]
pub enum Reps {
    Count(usize),
    /// Repetitions until this much time has passed, at least `MIN_REPS`.
    For(Duration),
}

impl Reps {
    /// The `i`-th of `k` equal shares.
    pub fn share(self, i: usize, k: usize) -> Reps {
        match self {
            Reps::Count(n) => Reps::Count(n * (i + 1) / k - n * i / k),
            Reps::For(d) => Reps::For(d / k as u32),
        }
    }
}

/// Fewest repetitions of a timed serving window.
const MIN_REPS: usize = 3;

/// Counters of one window: the costs and samples cover its measured
/// answers (those that arrived before the last submission), the answer
/// and error counts the whole window.
#[derive(Debug, Clone, Default)]
pub struct Served {
    /// Wall time until the last submission.
    pub secs: f64,
    /// Wall time of the whole window, drain included.
    pub wall_secs: f64,
    pub submitted: u64,
    /// Answers measured: those that arrived before the last submission.
    pub answered: u64,
    /// All answers, the drain after the stop included.
    pub answered_total: u64,
    pub wrong: u64,
    /// Latency (ns) of each measured answer, per client: a buffer of the
    /// caller's, handed back for the next window.
    pub latency_ns: [Vec<u32>; 2],
    /// Measured answers per client.
    pub delivered: [u64; 2],
    /// Quantiles of the measured latencies of both clients.
    pub p50_ns: u32,
    pub p99_ns: u32,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(&'static str, u32)>,
    /// The p99 of the second (light) client's measured latencies.
    pub light_p99_ns: u32,
    pub server_costs: Costs,
    pub client_costs: Costs,
    pub pumps: u64,
    pub dispatched: u64,
    pub dispatching_pumps: u64,
    pub depth_sum: u64,
    /// Requests in flight (submitted, unanswered), summed after each pump.
    pub in_flight_sum: u64,
    pub stage_ns: Vec<u32>,
    pub install_ns: Vec<u32>,
    /// From `stage_delta` until `install_staged` returns.
    pub visible_ns: Vec<u32>,
    pub edges_inserted: u64,
    /// The insert stream ran out before the window ended.
    pub inserts_exhausted: bool,
    /// Traced windows: the first `REPLAY_QUERIES` submissions, with their
    /// client.
    pub replay: Vec<(usize, Query)>,
}

struct InFlight {
    corr: u64,
    t: Instant,
    q: Query,
    epoch: u32,
}

struct ClientLoop<'a> {
    gens: &'a mut [QueryGen],
    rings: Vec<Vec<Option<InFlight>>>,
    out: Served,
    replay: bool,
}

impl ClientLoop<'_> {
    fn submit(&mut self, stack: &mut Stack<'_, '_>, c: usize) {
        let q = self.gens[c].next_query();
        let epoch = stack.epoch();
        let corr = stack.clients[c].submit(q);
        let ring = &mut self.rings[c];
        let slot = (corr as usize) & (ring.len() - 1);
        assert!(ring[slot].is_none(), "more than the ring's span in flight");
        ring[slot] = Some(InFlight {
            corr,
            t: Instant::now(),
            q,
            epoch,
        });
        self.out.submitted += 1;
        if self.replay && self.out.replay.len() < REPLAY_QUERIES {
            self.out.replay.push((c, q));
        }
    }
}

/// Serve one closed-loop window of `queries` submissions. The metrics
/// cover the answers that arrive before the last submission, while the
/// windows are full: on `serve_hot_rw` the work per query grows with the
/// edges inserted so far, so a fixed submission count gives every window
/// the same work and its rate reflects speed alone. `inserts` feeds
/// `DELTA_EDGES`-edge deltas at one edge per `QUERIES_PER_EDGE`
/// submissions (empty: read-only); `reference` checks every answer at
/// receipt and follows the installs. `latency` has room for every answer
/// a client can receive before the last submission, allocated and touched
/// before the window.
#[allow(clippy::too_many_arguments)]
pub fn serve_window(
    stack: &mut Stack<'_, '_>,
    spec: &Spec,
    gens: &mut [QueryGen],
    inserts: &mut impl Iterator<Item = (Vertex, Vertex)>,
    reference: &mut Reference,
    queries: u64,
    mut latency: [Vec<u32>; 2],
    tracer: &mut Tracer,
) -> Served {
    for v in latency.iter_mut() {
        v.clear();
    }
    let rings = spec
        .windows
        .iter()
        .map(|w| (0..(w * 4).next_power_of_two()).map(|_| None).collect())
        .collect();
    let mut d = ClientLoop {
        gens,
        rings,
        out: Served {
            latency_ns: latency,
            ..Served::default()
        },
        replay: tracer.is_on(),
    };
    let s0 = stack.sled.costs();
    let c0 = stack.cled.costs();
    let mut pending: Vec<(Vertex, Vertex)> = Vec::with_capacity(DELTA_EDGES);
    let mut staged: Option<(Instant, Vec<(Vertex, Vertex)>)> = None;
    let mut next_edge_at = QUERIES_PER_EDGE;

    let t0 = Instant::now();
    for c in 0..2 {
        for _ in 0..spec.windows[c] {
            d.submit(stack, c);
        }
    }
    let (mut stopping, mut measuring) = (false, true);
    loop {
        stack.accept();
        for c in 0..2 {
            let open = tracer.begin("serve.wire.client.tick", &stack.cled);
            let done = stack.clients[c].tick(&mut stack.cled);
            tracer.end(open, &stack.cled);
            let now = Instant::now();
            let epoch = stack.epoch();
            let open = tracer.begin("bench.answers", &stack.cled);
            for (corr, result) in done {
                let ring = &mut d.rings[c];
                let slot = (corr as usize) & (ring.len() - 1);
                let f = ring[slot].take().expect("answer for a request in flight");
                assert_eq!(f.corr, corr, "answer matches its request");
                d.out.answered_total += 1;
                if measuring {
                    let ns = now.duration_since(f.t).as_nanos().min(u32::MAX as u128) as u32;
                    let lat = &mut d.out.latency_ns[c];
                    assert!(lat.len() < lat.capacity(), "a latency buffer too small");
                    lat.push(ns);
                    d.out.answered += 1;
                }
                if !reference.check(f.q, &result, f.epoch, epoch) {
                    d.out.wrong += 1;
                }
                if !stopping {
                    d.submit(stack, c);
                }
            }
            tracer.end(open, &stack.cled);
        }
        let open = tracer.begin("serve.wire.frontend.pump", &stack.sled);
        let report = stack.fe.pump(&mut stack.sled);
        tracer.end(open, &stack.sled);
        if measuring {
            d.out.pumps += 1;
            d.out.dispatched += report.dispatched as u64;
            d.out.dispatching_pumps += u64::from(report.dispatched > 0);
            let srv = stack.fe.server();
            d.out.depth_sum += (srv.queue_len() + srv.ready_len()) as u64;
            d.out.in_flight_sum += d.out.submitted - d.out.answered_total;
        }

        if let Some((t, edges)) = staged.take() {
            let open = tracer.begin("serve.epoch.install", &stack.sled);
            let ti = Instant::now();
            let epoch = stack.fe.server_mut().install_staged(&mut stack.sled);
            let done = Instant::now();
            tracer.end(open, &stack.sled);
            if measuring {
                d.out
                    .install_ns
                    .push(done.duration_since(ti).as_nanos() as u32);
                d.out
                    .visible_ns
                    .push(done.duration_since(t).as_nanos() as u32);
            }
            let epoch = epoch.expect("a delta was staged") as u32;
            for (u, v) in edges {
                reference.insert(u, v, epoch);
            }
        }
        if spec.inserts && !stopping {
            while d.out.submitted >= next_edge_at {
                next_edge_at += QUERIES_PER_EDGE;
                match inserts.next() {
                    Some(e) => pending.push(e),
                    None => d.out.inserts_exhausted = true,
                }
            }
            if pending.len() >= DELTA_EDGES {
                let edges = std::mem::take(&mut pending);
                let delta = GraphDelta::from_edges(edges.clone());
                let open = tracer.begin("serve.epoch.stage", &stack.sled);
                let t = Instant::now();
                stack.fe.server_mut().stage_delta(&mut stack.sled, &delta);
                tracer.end(open, &stack.sled);
                if measuring {
                    d.out.stage_ns.push(t.elapsed().as_nanos() as u32);
                }
                d.out.edges_inserted += edges.len() as u64;
                staged = Some((t, edges));
            }
        }
        stopping = d.out.submitted >= queries;
        if measuring && stopping {
            measuring = false;
            d.out.secs = t0.elapsed().as_secs_f64();
            d.out.server_costs = stack.sled.costs().since(&s0);
            d.out.client_costs = stack.cled.costs().since(&c0);
        }
        if stopping && staged.is_none() && stack.clients.iter().all(WireClient::is_idle) {
            break;
        }
    }
    let mut out = d.out;
    out.wall_secs = t0.elapsed().as_secs_f64();
    for (c, lat) in out.latency_ns.iter_mut().enumerate() {
        lat.sort_unstable();
        out.delivered[c] = lat.len() as u64;
    }
    if !out.latency_ns[1].is_empty() {
        out.light_p99_ns = quantile_sorted(&out.latency_ns[1], 0.99);
    }
    let mut all = out.latency_ns.concat();
    all.sort_unstable();
    if !all.is_empty() {
        out.p50_ns = quantile_sorted(&all, 0.5);
        out.p99_ns = quantile_sorted(&all, 0.99);
        out.tail = tail_sorted(&all);
    }
    out
}

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counters of a serving stack, from its stats views.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counts {
            $(pub $field: u64,)*
        }

        impl Counts {
            pub fn since(&self, earlier: &Counts) -> Counts {
                Counts { $($field: self.$field - earlier.$field,)* }
            }

            pub fn plus(&self, other: &Counts) -> Counts {
                Counts { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counts!(
    hits,
    misses,
    evictions,
    invalidations,
    drr_visits,
    invalidated_entries,
    straggler_answers,
    in_flight_at_install,
    frames_in,
    frames_out,
    admitted,
    rejected,
    rejected_window,
    answers,
    resubmitted,
    retryable_errors,
);

impl Counts {
    pub fn of(stack: &Stack<'_, '_>) -> Counts {
        let srv = stack.fe.server();
        let (cache, epoch, fe) = (
            srv.cache_stats(),
            srv.epoch_stats(),
            stack.fe.frontend_stats(),
        );
        let mut c = Counts {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            invalidations: cache.invalidations,
            drr_visits: srv.tenancy_stats().drr_visits,
            invalidated_entries: epoch.invalidated_entries,
            straggler_answers: epoch.straggler_answers,
            in_flight_at_install: epoch.in_flight_at_install,
            frames_in: fe.frames_in,
            frames_out: fe.frames_out,
            admitted: fe.admitted,
            rejected: fe.rejected_window + fe.rejected_admission + fe.rejected_shutdown,
            rejected_window: fe.rejected_window,
            ..Counts::default()
        };
        for client in &stack.clients {
            let s = client.client_stats();
            c.answers += s.answers;
            c.resubmitted += s.resubmitted;
            c.retryable_errors += s.retryable_errors;
        }
        c
    }
}

/// The serving window as repetitions of `queries` submissions, each on a
/// freshly connected stack (cold caches, epoch 0) with the insert stream
/// replayed from its start, so every repetition does the same work and a
/// slow stretch of the host moves a few repetitions, not the median.
/// The repetitions share the two latency `buffers`. Returns each
/// repetition's counters, their summed stack counters, and the last stack.
#[allow(clippy::too_many_arguments)]
pub fn serve_reps<'o, 'g>(
    oracles: &'o Oracles<'g>,
    spec: &Spec,
    gens: &mut [QueryGen],
    edges: &[(Vertex, Vertex)],
    reference: &mut Reference,
    queries: u64,
    reps: Reps,
    buffers: &mut [Vec<u32>; 2],
    tracer: &mut Tracer,
) -> (Vec<Served>, Counts, Stack<'o, 'g>) {
    let mut out: Vec<Served> = Vec::new();
    let mut counts = Counts::default();
    let mut stack = Stack::connect(oracles, spec);
    let t = Instant::now();
    while match reps {
        Reps::Count(n) => out.len() < n,
        Reps::For(d) => out.len() < MIN_REPS || t.elapsed() < d,
    } {
        if !out.is_empty() {
            stack = Stack::connect(oracles, spec);
        }
        reference.reset_epochs();
        let before = Counts::of(&stack);
        let mut s = serve_window(
            &mut stack,
            spec,
            gens,
            &mut edges.iter().copied(),
            reference,
            queries,
            std::mem::take(buffers),
            tracer,
        );
        *buffers = std::mem::take(&mut s.latency_ns);
        out.push(s);
        counts = counts.plus(&Counts::of(&stack).since(&before));
    }
    (out, counts, stack)
}

/// Stage and install `deltas` on an idle server: the visibility latency
/// of an insert batch when no query is in flight.
pub fn epoch_probe(
    stack: &mut Stack<'_, '_>,
    deltas: &[Vec<(Vertex, Vertex)>],
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Served {
    let mut out = Served::default();
    for edges in deltas {
        let delta = GraphDelta::from_edges(edges.clone());
        let t = Instant::now();
        tracer.span("serve.epoch.stage", &mut stack.sled, |l| {
            stack.fe.server_mut().stage_delta(l, &delta)
        });
        let ti = Instant::now();
        let epoch = tracer.span("serve.epoch.install", &mut stack.sled, |l| {
            stack.fe.server_mut().install_staged(l)
        });
        let done = Instant::now();
        out.stage_ns.push(ti.duration_since(t).as_nanos() as u32);
        out.install_ns
            .push(done.duration_since(ti).as_nanos() as u32);
        out.visible_ns
            .push(done.duration_since(t).as_nanos() as u32);
        let epoch = epoch.expect("a delta was staged") as u32;
        for &(u, v) in edges {
            reference.insert(u, v, epoch);
        }
    }
    out
}

/// Inclusive per-query time (µs) of `ShardedServer::serve` over `queries`
/// in `max_batch` batches, uncached.
pub fn replay_sharded(o: &Oracles<'_>, spec: &Spec, queries: &[Query]) -> f64 {
    let server = sharded(o);
    let mut led = Ledger::new(OMEGA);
    let t = Instant::now();
    for batch in queries.chunks(spec.max_batch) {
        std::hint::black_box(server.serve(&mut led, batch));
    }
    t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
}

/// Inclusive per-query time (µs) of `StreamingServer` `submit` / `flush` /
/// `take_ready` over the recorded `(client, query)` stream, no wire.
pub fn replay_streaming(o: &Oracles<'_>, spec: &Spec, queries: &[(usize, Query)]) -> f64 {
    let mut srv = StreamingServer::new(sharded(o), policy(spec));
    let mut led = Ledger::new(OMEGA);
    let t = Instant::now();
    for batch in queries.chunks(spec.max_batch) {
        for &(c, q) in batch {
            let tenant = TenantId(if spec.tenants { c as u16 } else { 0 });
            srv.submit_as(&mut led, tenant, q)
                .expect("replay submissions are admitted");
        }
        srv.flush(&mut led);
        std::hint::black_box(srv.take_ready());
    }
    t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
}

/// Per-frame time (ns) of `encode_frame` plus `FrameBuf` decoding over
/// the request and answer frames of the recorded queries.
pub fn replay_codec(o: &Oracles<'_>, queries: &[Query]) -> f64 {
    let server = sharded(o);
    let mut led = Ledger::new(OMEGA);
    let answers = server.serve(&mut led, queries);
    let t = Instant::now();
    let mut rx = FrameBuf::default();
    let mut frames = 0u64;
    for (corr, (&query, &answer)) in queries.iter().zip(&answers).enumerate() {
        let corr = corr as u64;
        rx.extend(&encode_frame(&Frame::RequestV2 { corr, query }));
        rx.extend(&encode_frame(&Frame::AnswerV2 { corr, answer }));
        while let Some(f) = rx.next_frame() {
            std::hint::black_box(f.expect("well-formed frame"));
            frames += 1;
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / frames.max(1) as f64
}
