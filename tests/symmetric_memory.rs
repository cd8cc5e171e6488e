//! Pinned symmetric-memory peaks of the ρ search and cluster enumeration.
//!
//! `costs_golden.json` pins the exact charged `Costs` but not the ledger's
//! symmetric-memory high-water mark, which is what Lemma 3.2's
//! O(k log n) symmetric-memory claim is about. These figures were recorded
//! on one fixed seeded instance; a change to how the searches charge
//! `sym_alloc`/`sym_free` moves them, a change to how they hold their
//! containers must not.

use wec::asym::Ledger;
use wec::core::{BuildOpts, ImplicitDecomposition};
use wec::graph::{gen, Csr, Priorities, Vertex};

const OMEGA: u64 = 64;
const K: usize = 8;

/// A bounded-degree component, a path that may hold no sampled center,
/// and two components smaller than `k` whose centers are implicit.
fn instance() -> Csr {
    gen::disjoint_union(&[
        &gen::bounded_degree_connected(2000, 4, 500, 11),
        &gen::path(40),
        &gen::path(5),
        &gen::cycle(6),
    ])
}

/// Per-call peaks of `f` over `items`, each on a fresh sequential ledger,
/// as `(sum, max)`; also checks every call releases what it charged.
fn peaks(items: &[Vertex], mut f: impl FnMut(&mut Ledger, Vertex)) -> (u64, u64) {
    let mut sum = 0;
    let mut max = 0;
    for &v in items {
        let mut led = Ledger::sequential(OMEGA);
        f(&mut led, v);
        assert_eq!(led.sym_live(), 0, "symmetric memory released at {v}");
        sum += led.sym_peak();
        max = max.max(led.sym_peak());
    }
    (sum, max)
}

#[test]
fn rho_and_cluster_sym_peaks_are_pinned() {
    let g = instance();
    let n = g.n();
    let pri = Priorities::random(n, 5);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let mut led = Ledger::sequential(OMEGA);
    let d = ImplicitDecomposition::build(&mut led, &g, &pri, &verts, K, 3, BuildOpts::default());
    assert_eq!(led.sym_live(), 0);

    let rho = peaks(&verts, |l, v| {
        d.rho(l, v);
    });
    let mut centers: Vec<Vertex> = verts
        .iter()
        .map(|&v| d.rho(&mut Ledger::sequential(OMEGA), v).center.vertex())
        .collect();
    centers.sort_unstable();
    centers.dedup();
    let cluster = peaks(&centers, |l, c| {
        d.cluster(l, c);
    });

    // One ledger across every call: the peak is the largest single call's.
    let mut shared = Ledger::sequential(OMEGA);
    for &v in &verts {
        d.rho(&mut shared, v);
    }
    assert_eq!(shared.sym_peak(), rho.1);
    assert_eq!(shared.sym_live(), 0);

    // Recorded when every search still allocated its own containers.
    assert_eq!(
        (centers.len(), rho, cluster),
        (403, (88_996, 404), (44_001, 421)),
        "(centers, rho (sum, max), cluster (sum, max))"
    );
}
