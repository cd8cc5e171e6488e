//! The repository benchmark: oracle builds and wire serving, measured end
//! to end and, in a traced run, layer by layer.
//!
//! ```text
//! perfbench --workload <build|serve_cold|serve_hot_rw> --seed <n> --seconds <s> --trace <0|1>
//!           [--n <vertices>] [--queries <count>]
//! ```
//!
//! Everything runs in one process at `WEC_THREADS=2` unless the variable
//! is set: two `WireClient`s over in-process loopback connections, driven
//! from this thread, and the rayon pool. Each workload's graph instance is
//! pinned; the seed draws everything sent to it. `--queries` replaces the time limit by a submission count
//! (and the build loop by two builds), so every charged count is a pure
//! function of the seed; `--n` shrinks the graph. The last line of
//! standard output is the result: end-to-end metrics, or per-layer
//! metrics with `--trace 1`. A wrong answer makes the exit code 1.

mod build;
mod metrics;
mod reference;
mod serve;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use wec_asym::{Costs, Ledger};
use wec_graph::Vertex;

use build::{
    build_layers, build_oracles, component_ids, predicate_sample, verify, BuildSample, Oracles,
};
use metrics::Metrics;
use reference::Reference;
use serve::{
    epoch_probe, replay_codec, replay_sharded, replay_streaming, serve_reps, Counts, Reps, Served,
    Stack, REPLAY_QUERIES,
};
use stats::{median, peak_rss_mb, quantile_sorted, Rng};
use trace::Tracer;
use wec_serve::Query;
use workload::{
    hot_set, insert_stream, Inputs, QueryGen, Spec, Workload, DELTA_EDGES, INSTANCE_SEED, K, OMEGA,
};

/// Set-up cycles per run: at least `SETUP_REPS`, as many as the first
/// set-up's time fits in `SETUP_BUDGET_S`, at most `SETUP_MAX`.
/// `setup_s` is the median set-up.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 7.0;
const SETUP_MAX: usize = 12;
/// Repetitions of the serving window with `--queries` (half of them
/// traced in a traced run); timed runs repeat it until the serving time
/// is spent.
const COUNTED_REPS: usize = 8;
/// Serving throughput and p50 latency are the value met by all but this
/// share of the repetitions.
const SLOW_QUARTILE: f64 = 0.25;
/// Predicate queries checked against the reference after each timed build.
const PREDICATE_CHECKS: usize = 2_000;
/// Insert deltas staged and installed on an idle server by read-only
/// workloads, for `delta_visible_p50_us`.
const PROBE_DELTAS: usize = 512;
const SPAN_CAPACITY: usize = 1 << 20;

const USAGE: &str = "usage: perfbench --workload <build|serve_cold|serve_hot_rw> --seed <n> \
                     --seconds <s> --trace <0|1> [--n <vertices>] [--queries <count>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    n: Option<usize>,
    queries: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("every option takes one value".into());
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut n, mut queries) =
        (None, None, None, None, None, None);
    for pair in argv.chunks(2) {
        let (key, val) = (pair[0].as_str(), pair[1].as_str());
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{key}: not a number: {val:?}"))
        };
        match key {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match val {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
            },
            "--n" => n = Some((num()? as usize).max(64)),
            "--queries" => queries = Some(num()?.max(1_000)),
            _ => return Err(format!("unknown option {key:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        n,
        queries,
    })
}

fn git_commit() -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let ceiling = dir.parent().and_then(|root| root.parent());
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(dir)
        .stderr(std::process::Stdio::null());
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Median of nanosecond samples; 0 when there are none (a window too
/// short to stage a delta).
fn median_ns(xs: &[u32]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

/// Median over repetitions of `f`.
fn rep_median(reps: &[Served], f: impl Fn(&Served) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The `q`-quantile over repetitions of `f`.
fn rep_quantile(reps: &[Served], q: f64, f: impl Fn(&Served) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Measured answers per second of one repetition.
fn rate(s: &Served) -> f64 {
    s.answered as f64 / s.secs
}

/// Everything a run sends to the program or checks its answers against,
/// drawn once from the first set-up: every set-up builds the same pinned
/// instance.
struct Drawn {
    n: usize,
    edges: usize,
    reference: Reference,
    gens: Vec<QueryGen>,
    insert_edges: Vec<(Vertex, Vertex)>,
    predicates: Vec<Query>,
    probe_deltas: Vec<Vec<(Vertex, Vertex)>>,
}

impl Drawn {
    /// Outside timing. Fails when the built oracle's component ids are
    /// wrong.
    fn new(
        spec: &Spec,
        seed: u64,
        inputs: &Inputs,
        oracles: &Oracles<'_>,
    ) -> Result<Drawn, String> {
        let (n, edges) = (inputs.g.n(), inputs.g.m());
        let reference = Reference::new(&inputs.g, &component_ids(oracles, n))?;
        let hot = hot_set(n, seed);
        let gens = (0..2).map(|c| QueryGen::new(spec, &hot, seed, c)).collect();
        // Half the merges the graph allows: far more than the one insert
        // per `QUERIES_PER_EDGE` submissions of a repetition, without the
        // slow tail of drawing the last merges.
        let max_edges = if spec.inserts {
            reference.components() / 2
        } else {
            0
        };
        let insert_edges = insert_stream(&inputs.g, &hot, seed, max_edges);
        let mut rng = Rng::new(seed ^ 0x9b0be);
        let probe_deltas = (0..PROBE_DELTAS)
            .map(|_| {
                (0..DELTA_EDGES)
                    .map(|_| (rng.below(n as u32), rng.below(n as u32)))
                    .collect()
            })
            .collect();
        Ok(Drawn {
            n,
            edges,
            reference,
            gens,
            insert_edges,
            predicates: predicate_sample(n, seed, PREDICATE_CHECKS),
            probe_deltas,
        })
    }
}

fn run(a: &Args) -> Outcome {
    let w = a.workload;
    let mut spec = w.spec();
    if let Some(n) = a.n {
        spec.n = n;
    }
    let seed = a.seed;
    let mut m = Metrics::default();
    let mut off = Tracer::new(false, 0);

    // Each repetition submits a fixed count of queries; timed runs repeat
    // them until the serving time is spent (traced runs trace the second
    // half), `--queries` runs a fixed count of repetitions.
    let serve_secs = a.seconds as f64 * (1.0 - spec.build_share);
    let (queries, reps) = match a.queries {
        Some(q) => {
            let r = if a.trace {
                COUNTED_REPS / 2
            } else {
                COUNTED_REPS
            };
            (q / COUNTED_REPS as u64, Reps::Count(r))
        }
        None => {
            let share = if a.trace { 0.5 } else { 1.0 };
            (
                spec.rep_queries,
                Reps::For(Duration::from_secs_f64(serve_secs * share)),
            )
        }
    };
    // Latency buffers, allocated and touched before timing: measured
    // answers arrive before the last submission, so at most `queries`
    // plus the requests in flight.
    let cap = queries as usize + spec.windows.iter().sum::<usize>();
    let mut buffers = [vec![u32::MAX; cap], vec![u32::MAX; cap]];

    // Set-up and untraced serving, in cycles. Each cycle sets up afresh
    // (graph generation, both oracle builds, and the serving stack with
    // its two connected clients), then serves its share of the untraced
    // repetitions, so the set-up and build samples spread over the run
    // as the serving ones do and a slow stretch of the host moves a few
    // of them, not the median. At least SETUP_REPS cycles, as many as
    // the first set-up's time fits in SETUP_BUDGET_S, at most SETUP_MAX
    // (`--queries`: SETUP_REPS). The last cycle's set-up is kept.
    let (mut setup_s, mut gen_s, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut plain: Vec<Served> = Vec::new();
    let mut drawn: Option<Drawn> = None;
    let mut cycles = SETUP_REPS;
    while setup_s.len() + 1 < cycles {
        let t = Instant::now();
        let inputs = Inputs::generate(&spec);
        gen_s.push(t.elapsed().as_secs_f64());
        let (o, sample) = build_oracles(&inputs, &mut off);
        drop(Stack::connect(&o, &spec));
        setup_s.push(t.elapsed().as_secs_f64());
        builds.push(sample);
        if drawn.is_none() {
            if a.queries.is_none() {
                cycles =
                    ((SETUP_BUDGET_S / setup_s[0]).ceil() as usize).clamp(SETUP_REPS, SETUP_MAX);
            }
            drawn = match Drawn::new(&spec, seed, &inputs, &o) {
                Ok(d) => Some(d),
                Err(e) => {
                    eprintln!("the built oracle's component ids are wrong: {e}");
                    return Outcome {
                        metrics: m,
                        attempted: 1,
                        failed: 1,
                    };
                }
            };
        }
        let d = drawn.as_mut().expect("drawn from the first set-up");
        let chunk = reps.share(setup_s.len() - 1, cycles);
        let (served, _, _) = serve_reps(
            &o,
            &spec,
            &mut d.gens,
            &d.insert_edges,
            &mut d.reference,
            queries,
            chunk,
            &mut buffers,
            &mut off,
        );
        plain.extend(served);
    }
    let t = Instant::now();
    let inputs = Inputs::generate(&spec);
    gen_s.push(t.elapsed().as_secs_f64());
    let (oracles, sample) = build_oracles(&inputs, &mut off);
    drop(Stack::connect(&oracles, &spec));
    setup_s.push(t.elapsed().as_secs_f64());
    builds.push(sample);
    let Drawn {
        n,
        edges,
        mut reference,
        mut gens,
        insert_edges,
        predicates,
        probe_deltas,
    } = drawn.expect("SETUP_REPS is at least 2: the first cycle drew the inputs");

    let mut tracer = Tracer::new(false, SPAN_CAPACITY);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut traced_wall = 0.0;
    let mut overhead_pct = 0.0;

    // Serving: the closed loop over the wire, in repetitions.
    let (served, _, mut stack) = serve_reps(
        &oracles,
        &spec,
        &mut gens,
        &insert_edges,
        &mut reference,
        queries,
        reps.share(cycles - 1, cycles),
        &mut buffers,
        &mut off,
    );
    plain.extend(served);
    let sched1 = rayon::scheduler_stats();
    let (mut traced, mut counts) = (Vec::new(), Counts::default());
    if a.trace {
        tracer.set_on(true);
        (traced, counts, stack) = serve_reps(
            &oracles,
            &spec,
            &mut gens,
            &insert_edges,
            &mut reference,
            queries,
            reps,
            &mut buffers,
            &mut tracer,
        );
    }
    let serve_sched = rayon::scheduler_stats().since(&sched1);
    if a.trace {
        traced_wall += traced.iter().map(|s| s.wall_secs).sum::<f64>();
        if spec.build_share == 0.0 {
            overhead_pct = (1.0 - rep_median(&traced, rate) / rep_median(&plain, rate)) * 100.0;
        }
    }
    for s in plain.iter().chain(&traced) {
        attempted += s.submitted;
        failed += s.wrong + (s.submitted - s.answered_total);
    }

    // Read-only workloads: insert batches on the idle server after the
    // window, for the visibility latency.
    let probe = (!spec.inserts).then(|| {
        reference.reset_epochs();
        let before = Counts::of(&stack);
        let t = Instant::now();
        let p = epoch_probe(&mut stack, &probe_deltas, &mut reference, &mut tracer);
        if a.trace {
            traced_wall += t.elapsed().as_secs_f64();
        }
        (p, Counts::of(&stack).since(&before))
    });
    tracer.set_on(false);

    // `build`: timed builds of both oracles from the same inputs, each
    // checked against the reference, after the serving window so that
    // serving starts from the same state as on `serve_cold`. Traced runs
    // trace the second half.
    let sched0 = rayon::scheduler_stats();
    let mut timed: Vec<(bool, BuildSample)> = Vec::new();
    if spec.build_share > 0.0 {
        let budget = a.seconds as f64 * spec.build_share;
        let t0 = Instant::now();
        let idle = Ledger::new(OMEGA);
        loop {
            let second_half = match a.queries {
                Some(_) => !timed.is_empty(),
                None => t0.elapsed().as_secs_f64() >= budget / 2.0,
            };
            tracer.set_on(a.trace && second_half);
            let tb = Instant::now();
            let (o, s) = build_oracles(&inputs, &mut tracer);
            let open = tracer.begin("bench.verify", &idle);
            let ok = verify(&o, &reference, &predicates);
            tracer.end(open, &idle);
            if tracer.is_on() {
                traced_wall += tb.elapsed().as_secs_f64();
            }
            attempted += 1;
            failed += u64::from(!ok);
            timed.push((tracer.is_on(), s));
            let done = match a.queries {
                Some(_) => timed.len() >= 2,
                None => {
                    t0.elapsed().as_secs_f64() >= budget
                        && (!a.trace || timed.iter().any(|&(on, _)| on))
                }
            };
            if done {
                break;
            }
        }
        tracer.set_on(false);
        if a.trace {
            let secs = |on: bool| -> Vec<f64> {
                timed
                    .iter()
                    .filter(|t| t.0 == on)
                    .map(|t| t.1.secs())
                    .collect()
            };
            overhead_pct = (median(&secs(true)) / median(&secs(false)) - 1.0) * 100.0;
        }
    }
    let build_sched = rayon::scheduler_stats().since(&sched0);

    // End-to-end metrics, from the untraced repetitions.
    let all_builds: Vec<BuildSample> = builds
        .iter()
        .copied()
        .chain(timed.iter().filter(|t| !t.0).map(|t| t.1))
        .collect();
    let last = *all_builds.last().expect("at least one build");
    let build_costs: Costs = last.costs();
    let answered: u64 = plain.iter().map(|s| s.answered).sum();
    let charged = plain
        .iter()
        .fold(Costs::ZERO, |c, s| c + s.server_costs + s.client_costs);
    let visible: Vec<u32> = match &probe {
        Some((p, _)) => p.visible_ns.clone(),
        None => plain
            .iter()
            .flat_map(|s| s.visible_ns.iter().copied())
            .collect(),
    };
    let reps = plain.len();
    m.e2e(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {} set-ups", setup_s.len()),
    );
    m.e2e("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM at exit");
    m.e2e(
        "build_s",
        median(&all_builds.iter().map(BuildSample::secs).collect::<Vec<_>>()),
        "s",
        format!("median of {} builds of both oracles", all_builds.len()),
    );
    m.e2e(
        "build_writes_per_vertex",
        build_costs.asym_writes as f64 / n as f64,
        "writes/vertex",
        "charged",
    );
    m.e2e(
        "build_work_per_edge",
        build_costs.work(OMEGA) as f64 / edges.max(1) as f64,
        "work/edge",
        "charged, reads + ops + omega * writes",
    );
    m.e2e(
        "oracle_words_per_vertex",
        last.words as f64 / n as f64,
        "words/vertex",
        "stored",
    );
    // Throughput and p50 are the value that three in four repetitions
    // meet: the slower quartile over repetitions. The host's speed drifts
    // between a steady slow state and faster stretches of varying length
    // and speed; this quartile follows the steady state and repeats
    // across runs more closely than the median. The tails are the median
    // repetition's: a repetition's p99 is already set by its slowest
    // stretch, and its slower quartile would count those stretches twice.
    m.e2e(
        "qps",
        rep_quantile(&plain, SLOW_QUARTILE, rate),
        "1/s",
        format!("met by 3 in 4 of {reps} repetitions, {answered} answers measured"),
    );
    let samples = plain
        .iter()
        .map(|s| s.delivered.iter().sum::<u64>())
        .sum::<u64>();
    let tail = match plain.iter().find_map(|s| s.tail).map(|t| t.0) {
        Some(q) => {
            let v = rep_median(&plain, |s| s.tail.map_or(f64::NAN, |t| t.1 as f64));
            format!("{q} = {:.1} us in the median repetition", us(v))
        }
        None => "none".into(),
    };
    m.e2e(
        "latency_p50_us",
        us(rep_quantile(&plain, 1.0 - SLOW_QUARTILE, |s| {
            s.p50_ns as f64
        })),
        "us",
        format!("met by 3 in 4 of {reps} repetitions, {samples} samples; tail {tail}"),
    );
    m.e2e(
        "latency_p99_us",
        us(rep_median(&plain, |s| s.p99_ns as f64)),
        "us",
        format!("median over {reps} repetitions, {samples} samples"),
    );
    m.e2e(
        "reads_per_query",
        charged.asym_reads as f64 / answered.max(1) as f64,
        "reads/query",
        "charged, server + client ledgers",
    );
    m.e2e(
        "writes_per_query",
        charged.asym_writes as f64 / answered.max(1) as f64,
        "writes/query",
        "charged, server + client ledgers",
    );
    // Inserts exist only on `serve_hot_rw`; elsewhere the idle-server
    // probe times the same path. Its spread across runs on read-only
    // workloads is too wide for a bound, so the result line leaves it out.
    m.also(
        "delta_visible_p50_us",
        us(median_ns(&visible)),
        "us",
        if spec.inserts {
            format!("{} deltas staged while serving", visible.len())
        } else {
            format!(
                "{} deltas on the idle server after the window",
                visible.len()
            )
        },
    );
    m.also(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} of {attempted} builds and queries"),
    );

    // Per-layer metrics, from the traced repetitions and the replays.
    if a.trace {
        m.layer("graph.gen_s", median(&gen_s), "s");
        let pairs: Vec<(usize, Query)> = traced
            .iter()
            .flat_map(|s| s.replay.iter().copied())
            .take(REPLAY_QUERIES)
            .collect();
        let replay: Vec<Query> = pairs.iter().map(|&(_, q)| q).collect();
        let build_samples: Vec<BuildSample> = if timed.is_empty() {
            builds.clone()
        } else {
            timed.iter().map(|t| t.1).collect()
        };
        let decomp = build_layers(&inputs, seed, &build_samples, &oracles, &replay, &mut m);
        let sched = if spec.build_share > 0.0 {
            build_sched
        } else {
            serve_sched
        };
        m.layer("rayon.steals", sched.steals as f64, "count");
        m.layer(
            "rayon.published",
            (sched.published_deque + sched.published_injector) as f64,
            "count",
        );
        m.layer(
            "serve.sharded.query_us",
            replay_sharded(&oracles, &spec, &replay),
            "us",
        );
        m.layer(
            "serve.streaming.query_us",
            replay_streaming(&oracles, &spec, &pairs),
            "us",
        );
        let epochs = probe.as_ref().map_or(counts, |p| p.1);
        let epoch_runs: Vec<&Served> = match &probe {
            Some((p, _)) => vec![p],
            None => traced.iter().collect(),
        };
        serve_layers(
            &mut m,
            &spec,
            &traced,
            &counts,
            &epochs,
            &epoch_runs,
            &tracer,
        );
        m.layer(
            "serve.epoch.delta_visible_p50_us",
            us(median_ns(&visible)),
            "us",
        );
        m.layer(
            "serve.wire.codec.frame_ns",
            replay_codec(&oracles, &replay),
            "ns",
        );
        m.layer("trace.overhead_pct", overhead_pct, "%");
        m.layer_table = layer_table(&tracer, traced_wall, decomp);
    }

    // The run record.
    let submitted: u64 = plain.iter().chain(&traced).map(|s| s.submitted).sum();
    m.record("workload", w.name());
    m.record("why", w.why());
    m.record("seed", seed);
    m.record("instance_seed", INSTANCE_SEED);
    m.record(
        "host_nproc",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    m.record("wec_threads", rayon::current_num_threads());
    m.record("git_commit", git_commit());
    m.record("n", n);
    m.record("m", edges);
    m.record("components", reference.components());
    m.record("omega", OMEGA);
    m.record("k", K);
    m.record("run_seconds", a.seconds);
    m.record("trace", u8::from(a.trace));
    m.record("queries_submitted", submitted);
    m.record(
        "serve_repetitions",
        format!("{} untraced + {} traced", plain.len(), traced.len()),
    );
    m.record("measured_answers", answered);
    m.record(
        "repetition_p99_us",
        plain
            .iter()
            .map(|s| format!("{:.0}", us(s.p99_ns as f64)))
            .collect::<Vec<_>>()
            .join(" "),
    );
    m.record(
        "repetition_qps",
        plain
            .iter()
            .map(|s| format!("{:.0}", rate(s)))
            .collect::<Vec<_>>()
            .join(" "),
    );
    m.record(
        "repetition_p50_us",
        plain
            .iter()
            .map(|s| format!("{:.1}", us(s.p50_ns as f64)))
            .collect::<Vec<_>>()
            .join(" "),
    );
    m.record(
        "build_secs",
        all_builds
            .iter()
            .map(|b| format!("{:.3}", b.secs()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    m.record(
        "setup_secs",
        setup_s
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    m.record("windows", format!("{:?}", spec.windows));
    let (pumps, in_flight) = plain
        .iter()
        .fold((0, 0), |(p, f), s| (p + s.pumps, f + s.in_flight_sum));
    m.record(
        "in_flight_mean",
        format!("{:.2}", in_flight as f64 / pumps.max(1) as f64),
    );
    m.record(
        "tenants",
        if spec.tenants {
            "2, equal-weight DRR"
        } else {
            "1, FIFO"
        },
    );
    m.record("setup_samples", setup_s.len());
    m.record("build_samples", all_builds.len());
    m.record("latency_samples", samples);
    m.record(
        "edges_inserted",
        plain
            .iter()
            .chain(&traced)
            .map(|s| s.edges_inserted)
            .sum::<u64>(),
    );
    m.record(
        "inserts_exhausted",
        plain.iter().chain(&traced).any(|s| s.inserts_exhausted),
    );
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}

/// The serving layers' per-layer metrics over the traced repetitions.
/// `epochs` and `epoch_runs` are the epoch counters and samples: the
/// traced repetitions when they insert, else the idle-server probe.
fn serve_layers(
    m: &mut Metrics,
    spec: &Spec,
    traced: &[Served],
    counts: &Counts,
    epochs: &Counts,
    epoch_runs: &[&Served],
    tracer: &Tracer,
) {
    let sum = |f: fn(&Served) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let secs: f64 = traced.iter().map(|s| s.secs).sum();
    let answered = sum(|s| s.answered);
    m.layer(
        "serve.streaming.batch_mean",
        sum(|s| s.dispatched) / sum(|s| s.dispatching_pumps).max(1.0),
        "queries",
    );
    let depth = sum(|s| s.depth_sum) / sum(|s| s.pumps).max(1.0);
    m.layer("serve.streaming.queue_depth_mean", depth, "queries");
    m.layer(
        "serve.streaming.queue_wait_us",
        depth / (answered / secs) * 1e6,
        "us",
    );
    let c = counts;
    m.layer(
        "serve.cache.hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        "ratio",
    );
    m.layer("serve.cache.evictions", c.evictions as f64, "count");
    m.layer("serve.cache.invalidations", c.invalidations as f64, "count");
    m.layer("serve.tenant.drr_visits", c.drr_visits as f64, "count");
    let delivered = [0, 1].map(|i| traced.iter().map(|s| s.delivered[i]).sum::<u64>() as f64);
    let share_dev = if spec.tenants {
        let total = (delivered[0] + delivered[1]).max(1.0);
        delivered
            .iter()
            .map(|d| (d / total - 0.5).abs() / 0.5 * 100.0)
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    m.layer("serve.tenant.share_dev_pct", share_dev, "%");
    m.layer(
        "serve.tenant.light_p99_us",
        us(rep_median(traced, |s| s.light_p99_ns as f64)),
        "us",
    );
    let pooled = |f: fn(&Served) -> &Vec<u32>| -> f64 {
        let all: Vec<u32> = epoch_runs
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect();
        us(median_ns(&all))
    };
    m.layer("serve.epoch.stage_us", pooled(|s| &s.stage_ns), "us");
    m.layer("serve.epoch.install_us", pooled(|s| &s.install_ns), "us");
    m.layer(
        "serve.epoch.invalidated_entries",
        epochs.invalidated_entries as f64,
        "count",
    );
    m.layer(
        "serve.epoch.straggler_answers",
        epochs.straggler_answers as f64,
        "count",
    );
    m.layer(
        "serve.epoch.in_flight_at_install",
        epochs.in_flight_at_install as f64,
        "count",
    );
    let totals = tracer.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    for (layer, name) in [
        ("serve.wire.frontend.pump", "pump"),
        ("serve.wire.client.tick", "tick"),
    ] {
        let t = span(layer);
        m.layer(&format!("{layer}_s"), t.self_ns as f64 / 1e9, "s");
        m.layer(
            &format!("{layer}_us"),
            t.self_ns as f64 / 1e3 / t.count.max(1) as f64,
            "us",
        );
        if name == "pump" {
            m.layer("serve.wire.frontend.frames_in", c.frames_in as f64, "count");
            m.layer(
                "serve.wire.frontend.frames_out",
                c.frames_out as f64,
                "count",
            );
            m.layer(
                "serve.wire.frontend.admit_ratio",
                c.admitted as f64 / (c.admitted + c.rejected).max(1) as f64,
                "ratio",
            );
            m.layer(
                "serve.wire.frontend.rejected_window",
                c.rejected_window as f64,
                "count",
            );
        }
    }
    m.layer(
        "serve.wire.client.useful_ratio",
        c.answers as f64 / (c.answers + c.resubmitted).max(1) as f64,
        "ratio",
    );
    m.layer(
        "serve.wire.client.resubmitted",
        c.resubmitted as f64,
        "count",
    );
    m.layer(
        "serve.wire.client.retryable_errors",
        c.retryable_errors as f64,
        "count",
    );
    let client_ops: u64 = traced.iter().map(|s| s.client_costs.operations()).sum();
    m.layer(
        "serve.wire.client.ops_per_query",
        client_ops as f64 / answered.max(1.0),
        "ops/query",
    );
}

/// Each traced layer's self wall time and self charge, side by side with
/// its share of the traced wall time and of all traced charges. `decomp`
/// is one decomposition build (wall time, charge) replayed on the same
/// inputs: it is peeled out of every oracle build span into a row of its
/// own.
fn layer_table(tracer: &Tracer, wall_s: f64, decomp: (f64, Costs)) -> Vec<String> {
    let totals = tracer.totals();
    let mut rows: Vec<(String, u64, f64, u64)> = totals
        .iter()
        .map(|(name, t)| {
            let work = t.self_costs.work(OMEGA);
            (name.to_string(), t.count, t.self_ns as f64 / 1e9, work)
        })
        .collect();
    let (d_secs, d_work) = (decomp.0, decomp.1.work(OMEGA));
    let mut peeled = ("core.decomp (peeled)".to_string(), 0, 0.0, 0);
    for row in rows.iter_mut().filter(|r| r.0.ends_with(".oracle")) {
        row.2 = (row.2 - d_secs * row.1 as f64).max(0.0);
        row.3 -= d_work * row.1;
        peeled.1 += row.1;
        peeled.2 += d_secs * row.1 as f64;
        peeled.3 += d_work * row.1;
    }
    if peeled.1 > 0 {
        rows.push(peeled);
    }
    let charged: u64 = rows.iter().map(|r| r.3).sum();
    let spanned: f64 = totals.values().map(|t| t.self_ns as f64 / 1e9).sum();
    rows.push(("(outside spans)".into(), 0, (wall_s - spanned).max(0.0), 0));
    let mut out = vec![format!(
        "{:<28} {:>9} {:>10} {:>7} {:>14} {:>8}",
        "layer (self)", "calls", "wall s", "wall %", "charged work", "charge %"
    )];
    for (name, calls, secs, work) in rows {
        out.push(format!(
            "{name:<28} {calls:>9} {secs:>10.4} {:>7.2} {work:>14} {:>8.2}",
            100.0 * secs / wall_s,
            100.0 * work as f64 / charged.max(1) as f64
        ));
    }
    out
}

fn main() {
    if std::env::var_os("WEC_THREADS").is_none() {
        // Single-threaded here: no other thread reads the environment yet.
        std::env::set_var("WEC_THREADS", "2");
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&args);
    let m = &out.metrics;
    println!(
        "=== perfbench {} (seed {}, {} s, trace {}) ===",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &m.record {
        println!("  {k:<20} {v}");
    }
    m.print_table("end-to-end (untraced repetitions)", &m.end_to_end);
    m.print_table("also measured, not in the result line", &m.unlisted);
    if args.trace {
        m.print_table("per layer", &m.per_layer);
        println!("traced layers: self time and self charge (work = reads + ops + omega * writes)");
        for line in &m.layer_table {
            println!("  {line}");
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, m.record_json()))
    {
        eprintln!("could not store the run record at {}: {e}", path.display());
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        m.result_line(correct, out.attempted, out.failed, args.trace)
    );
    if !correct {
        std::process::exit(1);
    }
}
