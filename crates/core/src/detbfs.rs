//! The deterministic tie-breaking BFS of Section 3.
//!
//! The paper orders paths of equal hop-length by comparing, at the first
//! position where they diverge, the *priority* of the vertices there
//! (higher priority = "shorter"). Under that order, subpaths of shortest
//! paths are themselves unique shortest paths, so the search from a vertex
//! enumerates the graph in a canonical order `L(SP(v, ·))` that is
//! **independent of which vertices happen to be centers** — the property
//! Lemma 3.2's expectation argument needs.
//!
//! Realization: process the search level by level. Within level `d+1`,
//! the canonical parent of `u` is its level-`d` neighbor whose own rank is
//! minimal, and vertices are ranked by `(parent's rank, own priority)`:
//! two canonical paths to different level-`(d+1)` vertices either diverge
//! before level `d` (compare parent ranks) or at level `d+1` itself
//! (same parent — compare own priorities).
//!
//! Everything lives in **symmetric memory** (hash maps + frontier vectors,
//! tracked against the ledger's high-water mark): the search performs no
//! asymmetric writes, which is the whole point. The containers themselves
//! come from a small per-thread pool, so a search allocates nothing once
//! its thread has run one of similar size; the charged symmetric memory
//! is the same either way.

use crate::centers::{CenterLabel, CenterLookup};
use std::cell::RefCell;
use wec_asym::{FxHashMap, Ledger};
use wec_graph::{GraphView, Priorities, Vertex};

/// Per-visited-vertex record (symmetric memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// Canonical parent (toward the search start; start's parent = itself).
    pub parent: Vertex,
    /// Hop distance from the start.
    pub level: u32,
    /// Rank within its level under the canonical order.
    pub rank: u32,
}

/// Words of symmetric memory charged per visited vertex (key + record).
const WORDS_PER_NODE: u64 = 4;

/// A scratch whose visited map can hold more entries than this is dropped
/// instead of pooled: one exhaustive search of a large center-less
/// component must not pin its memory on a worker, nor make every later
/// `clear()` (linear in capacity) pay for it.
const POOLED_VISITED_CAP: usize = 1 << 12;

/// Scratches kept per thread; more than this are only live when searches
/// nest that deeply.
const POOLED_PER_THREAD: usize = 4;

/// A search's working memory. Pooled per thread and handed out cleared;
/// the containers' capacities are the only state that survives a search,
/// and nothing the search returns depends on them.
#[derive(Default)]
struct Scratch {
    /// Visited records.
    info: FxHashMap<Vertex, NodeInfo>,
    /// Next-level candidate → rank of its best (minimal-rank) parent.
    cand: FxHashMap<Vertex, u32>,
    /// One frontier vertex's neighbors.
    nbrs: Vec<Vertex>,
    /// The next level as `(parent rank, own priority, vertex)`, to sort.
    next: Vec<(u32, u32, Vertex)>,
    /// Current level's vertices in canonical rank order.
    frontier: Vec<Vertex>,
    /// The previous frontier's buffer, reused for the next one.
    spare: Vec<Vertex>,
}

impl Scratch {
    fn clear(&mut self) {
        self.info.clear();
        self.cand.clear();
        self.nbrs.clear();
        self.next.clear();
        self.frontier.clear();
        self.spare.clear();
    }
}

thread_local! {
    static FREE: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// A cleared scratch: this thread's most recently returned one, or new.
fn take_scratch() -> Scratch {
    FREE.try_with(|f| f.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Clear `s` and keep it for this thread's next search, unless it grew
/// past the cap or the pool is full.
fn return_scratch(mut s: Scratch) {
    if s.info.capacity() > POOLED_VISITED_CAP {
        return;
    }
    s.clear();
    let _ = FREE.try_with(|f| {
        let mut free = f.borrow_mut();
        if free.len() < POOLED_PER_THREAD {
            free.push(s);
        }
    });
}

/// A running deterministic search.
pub struct DetSearch<'a, G: GraphView> {
    g: &'a G,
    pri: &'a Priorities,
    scratch: Scratch,
    level: u32,
    sym_words: u64,
}

impl<'a, G: GraphView> DetSearch<'a, G> {
    /// Start a search at `start` (level 0, rank 0).
    pub fn new(led: &mut Ledger, g: &'a G, pri: &'a Priorities, start: Vertex) -> Self {
        let mut scratch = take_scratch();
        scratch.info.insert(
            start,
            NodeInfo {
                parent: start,
                level: 0,
                rank: 0,
            },
        );
        scratch.frontier.push(start);
        led.op(1);
        led.sym_alloc(WORDS_PER_NODE);
        DetSearch {
            g,
            pri,
            scratch,
            level: 0,
            sym_words: WORDS_PER_NODE,
        }
    }

    /// Current level's vertices in canonical rank order.
    pub fn frontier(&self) -> &[Vertex] {
        &self.scratch.frontier
    }

    /// Current level number.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Number of vertices visited so far.
    pub fn visited(&self) -> usize {
        self.scratch.info.len()
    }

    /// The visited vertex of minimum priority rank, charging one op per
    /// visited vertex.
    pub fn min_priority_visited(&self, led: &mut Ledger) -> Vertex {
        let min = self
            .scratch
            .info
            .keys()
            .copied()
            .min_by_key(|&u| self.pri.rank(u))
            .expect("search visited at least its start");
        led.op(self.visited() as u64);
        min
    }

    /// Expand to the next level. Returns `false` when the component is
    /// exhausted (frontier became empty).
    pub fn advance(&mut self, led: &mut Ledger) -> bool {
        let Scratch {
            info,
            cand,
            nbrs,
            next,
            frontier,
            spare,
        } = &mut self.scratch;
        for (rank, &v) in frontier.iter().enumerate() {
            nbrs.clear();
            self.g.neighbors_into(led, v, nbrs);
            for &w in nbrs.iter() {
                led.op(1);
                if info.contains_key(&w) {
                    continue;
                }
                cand.entry(w)
                    .and_modify(|r| *r = (*r).min(rank as u32))
                    .or_insert(rank as u32);
            }
        }
        if cand.is_empty() {
            frontier.clear();
            return false;
        }
        // Canonical order within the new level.
        next.clear();
        next.extend(cand.drain().map(|(w, pr)| (pr, self.pri.rank(w), w)));
        next.sort_unstable();
        let f = next.len() as u64;
        led.op(f * (64 - f.leading_zeros() as u64).max(1)); // sort cost
        self.level += 1;
        spare.clear();
        for (rank, &(pr, _, w)) in next.iter().enumerate() {
            // Parent ranks refer to the *previous* level's order.
            let parent = frontier[pr as usize];
            info.insert(
                w,
                NodeInfo {
                    parent,
                    level: self.level,
                    rank: rank as u32,
                },
            );
            led.op(1);
            spare.push(w);
        }
        std::mem::swap(frontier, spare);
        led.sym_alloc(f * WORDS_PER_NODE);
        self.sym_words += f * WORDS_PER_NODE;
        true
    }

    /// The canonical path `start → v` (inclusive of both endpoints),
    /// reconstructed from parent pointers. `v` must be visited.
    pub fn path_from_start(&self, led: &mut Ledger, v: Vertex) -> Vec<Vertex> {
        let mut rev = vec![v];
        let mut cur = v;
        loop {
            let info = self.scratch.info[&cur];
            led.op(1);
            if info.parent == cur {
                break;
            }
            cur = info.parent;
            rev.push(cur);
        }
        rev.reverse();
        rev
    }

    /// Scan the current frontier in canonical order for the first center
    /// with the given label, charging lookups.
    pub fn first_in_frontier(
        &self,
        led: &mut Ledger,
        centers: &impl CenterLookup,
        want: CenterLabel,
    ) -> Option<Vertex> {
        self.scratch
            .frontier
            .iter()
            .copied()
            .find(|&u| centers.lookup(led, u) == Some(want))
    }

    /// Release the symmetric memory this search charged.
    pub fn release(self, led: &mut Ledger) {
        led.sym_free(self.sym_words);
    }
}

impl<G: GraphView> Drop for DetSearch<'_, G> {
    fn drop(&mut self) {
        return_scratch(std::mem::take(&mut self.scratch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::CenterSet;
    use crate::rho::{rho, RhoAnswer};
    use wec_asym::Costs;
    use wec_graph::gen::{cycle, grid, path};
    use wec_graph::Csr;

    fn collect_order(g: &Csr, pri: &Priorities, start: Vertex) -> Vec<Vertex> {
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, g, pri, start);
        let order = exhaust(&mut led, &mut s);
        s.release(&mut led);
        assert_eq!(led.sym_live(), 0);
        order
    }

    /// The search's visit order, level by level, until it is exhausted.
    fn exhaust(led: &mut Ledger, s: &mut DetSearch<'_, Csr>) -> Vec<Vertex> {
        let mut order = s.frontier().to_vec();
        while s.advance(led) {
            order.extend_from_slice(s.frontier());
        }
        order
    }

    #[test]
    fn levels_are_bfs_distances() {
        let g = grid(5, 5);
        let pri = Priorities::identity(25);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 0);
        while s.advance(&mut led) {}
        let dist = wec_graph::props::bfs_distances(&g, 0);
        for v in 0..25u32 {
            assert_eq!(s.scratch.info[&v].level, dist[v as usize], "level of {v}");
        }
        s.release(&mut led);
    }

    #[test]
    fn priority_breaks_ties_within_level() {
        // Star-of-two: 0 adjacent to 1 and 2; identity priorities => 1 ranks
        // before 2.
        let g = Csr::from_edges(3, &[(0, 1), (0, 2)]);
        let pri = Priorities::identity(3);
        let order = collect_order(&g, &pri, 0);
        assert_eq!(order, vec![0, 1, 2]);
        // Reversed priorities flip the tie.
        let pri2 = Priorities::from_ranks(vec![0, 2, 1]);
        let order2 = collect_order(&g, &pri2, 0);
        assert_eq!(order2, vec![0, 2, 1]);
    }

    #[test]
    fn parent_rank_dominates_own_priority() {
        // 0 - 1, 0 - 2 ; 1 - 3, 2 - 4. With identity priorities, level-1
        // order is [1, 2]; level-2 order must be [3, 4] because 3's parent
        // (1) outranks 4's parent (2), regardless of 3/4's own priorities.
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let pri = Priorities::from_ranks(vec![0, 1, 2, 4, 3]); // 4 beats 3
        let order = collect_order(&g, &pri, 0);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn canonical_parent_is_min_rank_neighbor() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. 3's parents could be 1 or 2; the
        // canonical parent is the one ranked first in level 1.
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let pri = Priorities::identity(4);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 0);
        s.advance(&mut led);
        s.advance(&mut led);
        assert_eq!(s.scratch.info[&3].parent, 1);
        let path = s.path_from_start(&mut led, 3);
        assert_eq!(path, vec![0, 1, 3]);
        s.release(&mut led);
        // flip priorities of 1 and 2
        let pri2 = Priorities::from_ranks(vec![0, 2, 1, 3]);
        let mut led2 = Ledger::new(8);
        let mut s2 = DetSearch::new(&mut led2, &g, &pri2, 0);
        s2.advance(&mut led2);
        s2.advance(&mut led2);
        assert_eq!(s2.scratch.info[&3].parent, 2);
        s2.release(&mut led2);
    }

    #[test]
    fn search_does_no_asymmetric_writes() {
        let g = grid(6, 6);
        let pri = Priorities::random(36, 1);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 17);
        while s.advance(&mut led) {}
        assert_eq!(led.costs().asym_writes, 0);
        assert!(led.sym_peak() >= 36 * WORDS_PER_NODE);
        s.release(&mut led);
    }

    #[test]
    fn exhaustion_on_cycle() {
        let g = cycle(7);
        let pri = Priorities::identity(7);
        let order = collect_order(&g, &pri, 3);
        assert_eq!(order.len(), 7);
        assert_eq!(order[0], 3);
    }

    #[test]
    fn path_from_start_is_shortest() {
        let g = path(10);
        let pri = Priorities::identity(10);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 0);
        while s.advance(&mut led) {}
        assert_eq!(s.path_from_start(&mut led, 4), vec![0, 1, 2, 3, 4]);
        s.release(&mut led);
    }

    /// One search's report, taken before it ends: visit order, records by
    /// vertex, and its ledger's costs, symmetric-memory peak and live words.
    type Report = (Vec<Vertex>, Vec<(Vertex, NodeInfo)>, Costs, u64, u64);

    fn report(led: &Ledger, order: Vec<Vertex>, s: &DetSearch<'_, Csr>) -> Report {
        let mut infos: Vec<(Vertex, NodeInfo)> =
            s.scratch.info.iter().map(|(&v, &i)| (v, i)).collect();
        infos.sort_unstable_by_key(|&(v, _)| v);
        (order, infos, led.costs(), led.sym_peak(), led.sym_live())
    }

    /// A search held open while `rho` runs, one dropped mid-search without
    /// `release`, and one more after both; with the `rho` answers.
    fn search_sequence() -> (Vec<Report>, Vec<RhoAnswer>) {
        let g = grid(9, 9);
        let pri = Priorities::random(81, 4);
        let mut setup = Ledger::new(8);
        let mut centers = CenterSet::with_capacity(&mut setup, 3);
        centers.insert(&mut setup, 40, CenterLabel::Primary);
        centers.insert(&mut setup, 13, CenterLabel::Secondary);
        let mut out = Vec::new();

        let mut led = Ledger::new(8);
        let mut held = DetSearch::new(&mut led, &g, &pri, 0);
        let order = exhaust(&mut led, &mut held);
        let rhos: Vec<RhoAnswer> = (0..81)
            .map(|v| rho(&mut led, &g, &pri, &centers, v))
            .collect();
        out.push(report(&led, order, &held));
        held.release(&mut led);
        assert_eq!(led.sym_live(), 0);
        let mut again = Ledger::new(8);
        let rhos_again: Vec<RhoAnswer> = (0..81)
            .map(|v| rho(&mut again, &g, &pri, &centers, v))
            .collect();
        assert_eq!(
            rhos, rhos_again,
            "rho is the same with and without a search held open"
        );

        let mut led = Ledger::new(8);
        let mut dropped = DetSearch::new(&mut led, &g, &pri, 80);
        let mut order = dropped.frontier().to_vec();
        for _ in 0..3 {
            dropped.advance(&mut led);
            order.extend_from_slice(dropped.frontier());
        }
        out.push(report(&led, order, &dropped));
        drop(dropped);

        let mut led = Ledger::new(8);
        let mut last = DetSearch::new(&mut led, &g, &pri, 44);
        let order = exhaust(&mut led, &mut last);
        out.push(report(&led, order, &last));
        last.release(&mut led);
        assert_eq!(led.sym_live(), 0);
        (out, rhos)
    }

    #[test]
    fn results_do_not_depend_on_pool_state() {
        // Leave this thread's pool holding large, dirty scratches: one
        // exhaustive search past the cap, one below it, and one dropped
        // mid-search without `release`.
        for side in [80, 40] {
            let g = grid(side, side);
            let pri = Priorities::random(side * side, 2);
            let mut led = Ledger::new(8);
            let mut s = DetSearch::new(&mut led, &g, &pri, 0);
            exhaust(&mut led, &mut s);
            s.release(&mut led);
        }
        {
            let g = grid(30, 30);
            let pri = Priorities::random(900, 3);
            let mut led = Ledger::new(8);
            let mut s = DetSearch::new(&mut led, &g, &pri, 450);
            s.advance(&mut led);
            s.advance(&mut led);
        }
        let pooled = search_sequence();
        let fresh = std::thread::spawn(search_sequence).join().unwrap();
        assert_eq!(pooled, fresh);
    }

    #[test]
    fn pool_drops_scratch_past_the_cap() {
        let g = grid(80, 80);
        let pri = Priorities::identity(6400);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 0);
        exhaust(&mut led, &mut s);
        assert!(s.scratch.info.capacity() > POOLED_VISITED_CAP);
        s.release(&mut led);
        // Nested searches each hold their own scratch; the pool keeps at
        // most `POOLED_PER_THREAD` of them, all cleared.
        let small = path(10);
        let pri = Priorities::identity(10);
        let searches: Vec<_> = (0..POOLED_PER_THREAD + 2)
            .map(|v| DetSearch::new(&mut led, &small, &pri, v as Vertex))
            .collect();
        drop(searches);
        FREE.with(|f| {
            let free = f.borrow();
            assert_eq!(free.len(), POOLED_PER_THREAD);
            for s in free.iter() {
                assert!(s.info.capacity() <= POOLED_VISITED_CAP);
                assert!(s.info.is_empty() && s.frontier.is_empty() && s.cand.is_empty());
            }
        });
    }

    #[test]
    fn order_independent_of_start_time_of_centers() {
        // The search order must be a pure function of (graph, priorities):
        // the same from any fixed start regardless of external state.
        let g = grid(4, 4);
        let pri = Priorities::random(16, 9);
        let o1 = collect_order(&g, &pri, 5);
        let o2 = collect_order(&g, &pri, 5);
        assert_eq!(o1, o2);
    }
}
