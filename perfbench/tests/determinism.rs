//! Every charged-count metric is a pure function of the seed: bit-identical
//! across two runs and across `WEC_THREADS=1` and `2`, at a small size with
//! a fixed submission count.

use std::process::Command;

const CHARGED_END_TO_END: [&str; 5] = [
    "build_writes_per_vertex",
    "build_work_per_edge",
    "oracle_words_per_vertex",
    "reads_per_query",
    "writes_per_query",
];

const CHARGED_PER_LAYER: [&str; 14] = [
    "serve.cache.hit_ratio",
    "serve.cache.evictions",
    "serve.cache.invalidations",
    "serve.epoch.invalidated_entries",
    "serve.epoch.straggler_answers",
    "serve.epoch.in_flight_at_install",
    "serve.tenant.drr_visits",
    "serve.tenant.share_dev_pct",
    "serve.wire.frontend.frames_in",
    "serve.wire.client.ops_per_query",
    "core.decomp_writes",
    "core.rho_reads",
    "connectivity.oracle_self_writes",
    "biconnectivity.oracle_self_writes",
];

/// The result line of one small run.
fn run(workload: &str, threads: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--n", "2400", "--queries", "16000"])
        .env("WEC_THREADS", threads)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    last
}

/// The metric's value exactly as printed (shortest round-trip digits, so
/// equal text means equal bits).
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {line}"))
        + key.len();
    let rest = &line[at..];
    &rest[..rest.find(',').expect("value is followed by its unit")]
}

fn assert_identical(workload: &str, trace: &str, names: &[&str]) {
    let runs = [
        run(workload, "2", trace),
        run(workload, "2", trace),
        run(workload, "1", trace),
    ];
    for name in names {
        let first = value(&runs[0], name);
        for other in &runs[1..] {
            assert_eq!(first, value(other, name), "{workload}: {name} differs");
        }
    }
}

#[test]
fn charged_end_to_end_metrics_repeat_exactly() {
    for workload in ["build", "serve_cold", "serve_hot_rw"] {
        assert_identical(workload, "0", &CHARGED_END_TO_END);
    }
}

#[test]
fn charged_layer_counts_repeat_exactly() {
    for workload in ["serve_cold", "serve_hot_rw"] {
        assert_identical(workload, "1", &CHARGED_PER_LAYER);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
