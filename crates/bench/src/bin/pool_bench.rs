//! **Scheduler bench** — fork/join overhead and steal rates of the rayon
//! shim's work-stealing runtime.
//!
//! Thread count is latched process-wide on first pool use, so each
//! thread-count leg runs in its own **subprocess** (`--leg` with
//! `WEC_THREADS` set); the orchestrating parent collects the legs into
//! `BENCH_PR5.json` (override the path with `WEC_POOL_BENCH_OUT`). Pass
//! `--smoke` for the CI-sized run.
//!
//! Each leg measures:
//!
//! 1. **join microbench** — a balanced fan-out tree of trivial leaves:
//!    wall-clock per `join` is almost pure scheduler overhead (publish +
//!    settle, steal traffic included);
//! 2. **grain-1 `scoped_par`** — the ledger-level fork path every real
//!    pass uses, at one accounting chunk per task (`Grain::Fixed(1)`, the
//!    pre-PR-5 execution shape) so the per-fork cost is visible;
//! 3. **build phase** — the implicit-decomposition + connectivity-oracle
//!    build on a bounded-degree graph (the workload the ROADMAP's
//!    multi-core item tracks);
//!
//! plus the scheduler-stats delta (publishes per channel, steals,
//! overflows, blocked joins, parks) over the whole leg.

use wec_asym::{Grain, Ledger};
use wec_bench::{time_median, PoolLeg, PoolSnapshot};
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_core::BuildOpts;
use wec_graph::{gen, Priorities, Vertex};

const OMEGA: u64 = 64;

/// Balanced binary fan-out of `2^depth` trivial leaves: `2^depth − 1`
/// joins of almost-zero body work.
fn fan(depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = rayon::join(|| fan(depth - 1), || fan(depth - 1));
    a + b
}

fn run_leg(smoke: bool) {
    let threads = rayon::current_num_threads();
    let before = rayon::scheduler_stats();

    // 1. join microbench.
    let (fan_depth, iters) = if smoke { (12, 5) } else { (15, 9) };
    let joins = (1u64 << fan_depth) - 1;
    let join_secs = time_median(iters, || {
        assert_eq!(fan(fan_depth), 1 << fan_depth);
    });
    let join_ns = join_secs * 1e9 / joins as f64;

    // 2. grain-1 scoped_par: one accounting chunk per forked task.
    let chunks = if smoke { 2_000usize } else { 20_000 };
    let chunk_secs = time_median(iters, || {
        let mut led = Ledger::new(OMEGA);
        let out = led.scoped_par_grained(chunks, 1, Grain::Fixed(1), &|r, s| {
            s.op(1);
            r.len()
        });
        assert_eq!(out.len(), chunks);
    });
    let chunk_ns = chunk_secs * 1e9 / chunks as f64;

    // 3. build phase.
    let n = if smoke { 3_000usize } else { 12_000 };
    let g = gen::bounded_degree_connected(n, 4, n / 4, 42);
    let pri = Priorities::random(n, 42);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let opts = OracleBuildOpts {
        decomp: BuildOpts {
            parallel: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let build_seconds = time_median(if smoke { 1 } else { 3 }, || {
        let mut led = Ledger::new(OMEGA);
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, 8, 1, opts);
    });

    let delta = rayon::scheduler_stats().since(&before);
    let leg = PoolLeg {
        threads: threads as u64,
        join_ns,
        joins_per_sec: if join_secs > 0.0 {
            joins as f64 / join_secs
        } else {
            f64::INFINITY
        },
        chunk_ns,
        build_seconds,
        steals: delta.steals,
        published_deque: delta.published_deque,
        published_injector: delta.published_injector,
        deque_overflows: delta.deque_overflows,
        blocked_joins: delta.blocked_joins,
        parks: delta.parks,
    };
    // The marker line the orchestrator scrapes from our stdout.
    println!("LEGJSON {}", leg.to_json());
}

/// Minimal extraction of a numeric field from the leg JSON we emitted
/// ourselves (flat object, `"key":value` with no nested ambiguity).
fn json_num(doc: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let start = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("leg JSON missing {key:?}: {doc}"))
        + pat.len();
    let rest = &doc[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated value for {key:?}"));
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("bad number for {key:?}: {e}"))
}

fn spawn_leg(threads: usize, smoke: bool) -> PoolLeg {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--leg").env("WEC_THREADS", threads.to_string());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawning bench leg");
    assert!(
        out.status.success(),
        "leg threads={threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout
        .lines()
        .find_map(|l| l.strip_prefix("LEGJSON "))
        .unwrap_or_else(|| panic!("leg produced no LEGJSON line:\n{stdout}"));
    PoolLeg {
        threads: json_num(doc, "threads") as u64,
        join_ns: json_num(doc, "join_ns"),
        joins_per_sec: json_num(doc, "joins_per_sec"),
        chunk_ns: json_num(doc, "chunk_ns"),
        build_seconds: json_num(doc, "build_seconds"),
        steals: json_num(doc, "steals") as u64,
        published_deque: json_num(doc, "published_deque") as u64,
        published_injector: json_num(doc, "published_injector") as u64,
        deque_overflows: json_num(doc, "deque_overflows") as u64,
        blocked_joins: json_num(doc, "blocked_joins") as u64,
        parks: json_num(doc, "parks") as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--leg") {
        run_leg(smoke);
        return;
    }

    println!("=== scheduler bench: work-stealing fork/join ===");
    let mut legs = Vec::new();
    for &threads in &[2usize, 8] {
        let leg = spawn_leg(threads, smoke);
        println!(
            "threads={threads}  join {:>8.0} ns   chunk {:>8.0} ns   build {:>7.1} ms   \
             steals {:>7}  deque {:>7}  injector {:>7}  overflows {}",
            leg.join_ns,
            leg.chunk_ns,
            1e3 * leg.build_seconds,
            leg.steals,
            leg.published_deque,
            leg.published_injector,
            leg.deque_overflows,
        );
        legs.push(leg);
    }
    let snap = PoolSnapshot {
        pr: 5,
        host_threads: rayon::current_num_threads() as u64,
        legs,
    };
    match snap.write("BENCH_PR5.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR5.json: {e}"),
    }
}
