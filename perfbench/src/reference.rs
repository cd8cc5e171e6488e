//! The answer key every served answer is checked against, computed once
//! outside timing from `wec_baseline`: union-find components,
//! Hopcroft–Tarjan biconnected components, and 2-edge-connected
//! components (connectivity without the bridges).
//!
//! Inserted edges are replayed into a union-find over the base components
//! that keeps, for every link, the epoch that made it, and for every root
//! the history of its class's smallest component id. That answers "were
//! `u` and `v` connected at epoch `e`" and "what was `v`'s canonical
//! component id at epoch `e`" for any past epoch, so an answer is checked
//! against every epoch between the one current at send and the one current
//! at receipt.

use wec_asym::{FxHashMap, Ledger};
use wec_baseline::unionfind::uf_labels;
use wec_baseline::{hopcroft_tarjan, HtResult, UnionFind};
use wec_connectivity::ComponentId;
use wec_graph::{Csr, Vertex};
use wec_serve::{Answer, Query, ServeResult};

use crate::workload::OMEGA;

const NEVER: u32 = u32::MAX;

pub struct Reference {
    g: Csr,
    /// Base component (dense index) of every vertex.
    comp: Vec<u32>,
    /// The oracle's id of every base component.
    key: Vec<ComponentId>,
    index: FxHashMap<ComponentId, u32>,
    /// 2-edge-connected class of every vertex.
    tecc: Vec<u32>,
    ht: HtResult,
    // Union-find over base components with link epochs, no path
    // compression (so past states stay readable).
    parent: Vec<u32>,
    rank: Vec<u8>,
    link_epoch: Vec<u32>,
    /// `(epoch, smallest id of the class)` each time a root's smallest id
    /// changed.
    min_history: Vec<Vec<(u32, ComponentId)>>,
}

impl Reference {
    /// The reference for `g`, given the oracle's component id of every
    /// vertex. Fails when those ids do not label the union-find components
    /// one to one.
    pub fn new(g: &Csr, oracle_ids: &[ComponentId]) -> Result<Reference, String> {
        let comp = uf_labels(g);
        let nc = comp.iter().max().map_or(0, |&c| c as usize + 1);
        let mut key: Vec<Option<ComponentId>> = vec![None; nc];
        let mut index: FxHashMap<ComponentId, u32> = FxHashMap::default();
        for (v, &c) in comp.iter().enumerate() {
            let id = oracle_ids[v];
            match key[c as usize] {
                None => {
                    if index.insert(id, c).is_some() {
                        return Err(format!("component id {id:?} labels two components"));
                    }
                    key[c as usize] = Some(id);
                }
                Some(k) if k != id => {
                    return Err(format!("vertex {v} has id {id:?}, its component {k:?}"));
                }
                Some(_) => {}
            }
        }
        let ht = hopcroft_tarjan(&mut Ledger::new(OMEGA), g);
        let mut uf = UnionFind::new(g.n());
        for (eid, &(u, v)) in g.edges().iter().enumerate() {
            if !ht.bridge[eid] {
                uf.union(u, v);
            }
        }
        Ok(Reference {
            g: g.clone(),
            tecc: uf.labels(),
            key: key
                .into_iter()
                .map(|k| k.expect("every component has a vertex"))
                .collect(),
            index,
            comp,
            ht,
            parent: (0..nc as u32).collect(),
            rank: vec![0; nc],
            link_epoch: vec![NEVER; nc],
            min_history: vec![Vec::new(); nc],
        })
    }

    pub fn vertices(&self) -> usize {
        self.comp.len()
    }

    pub fn components(&self) -> usize {
        self.key.len()
    }

    /// The base-graph component id of `v`.
    pub fn base_id(&self, v: Vertex) -> ComponentId {
        self.key[self.comp[v as usize] as usize]
    }

    fn root(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    fn root_at(&self, mut x: u32, epoch: u32) -> u32 {
        while self.parent[x as usize] != x && self.link_epoch[x as usize] <= epoch {
            x = self.parent[x as usize];
        }
        x
    }

    fn min_of(&self, root: u32, epoch: u32) -> ComponentId {
        self.min_history[root as usize]
            .iter()
            .rev()
            .find(|&&(e, _)| e <= epoch)
            .map_or(self.key[root as usize], |&(_, id)| id)
    }

    /// Forget every inserted edge: back to the base graph at epoch 0.
    pub fn reset_epochs(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.rank.fill(0);
        self.link_epoch.fill(NEVER);
        self.min_history.iter_mut().for_each(Vec::clear);
    }

    /// Record that the install of `epoch` inserted edge `(u, v)`.
    pub fn insert(&mut self, u: Vertex, v: Vertex, epoch: u32) {
        let (a, b) = (
            self.root(self.comp[u as usize]),
            self.root(self.comp[v as usize]),
        );
        if a == b {
            return;
        }
        let (child, parent) = if self.rank[a as usize] < self.rank[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        if self.rank[a as usize] == self.rank[b as usize] {
            self.rank[parent as usize] += 1;
        }
        let before = self.min_of(parent, epoch);
        let merged = before.min(self.min_of(child, epoch));
        self.parent[child as usize] = parent;
        self.link_epoch[child as usize] = epoch;
        if merged != before {
            self.min_history[parent as usize].push((epoch, merged));
        }
    }

    /// The first epoch at which base components `a` and `b` were
    /// connected (`NEVER` if they are not).
    fn connect_epoch(&self, a: u32, b: u32) -> u32 {
        let mut path: Vec<(u32, u32)> = Vec::new();
        let (mut x, mut worst) = (a, 0u32);
        loop {
            path.push((x, worst));
            if self.parent[x as usize] == x {
                break;
            }
            worst = worst.max(self.link_epoch[x as usize]);
            x = self.parent[x as usize];
        }
        let (mut y, mut worst_b) = (b, 0u32);
        loop {
            if let Some(&(_, wa)) = path.iter().find(|&&(n, _)| n == y) {
                return wa.max(worst_b);
            }
            if self.parent[y as usize] == y {
                return NEVER;
            }
            worst_b = worst_b.max(self.link_epoch[y as usize]);
            y = self.parent[y as usize];
        }
    }

    fn same_bcc(&self, u: Vertex, v: Vertex) -> bool {
        let bccs = |x: Vertex| {
            self.g
                .neighbor_edge_ids(x)
                .iter()
                .map(|&e| self.ht.edge_bcc[e as usize])
        };
        bccs(u).any(|b| bccs(v).any(|c| c == b))
    }

    /// Whether `result` is a correct answer to `q` at some epoch between
    /// `sent` and `received`. Connectivity follows the inserted edges;
    /// the predicates keep base-graph semantics.
    pub fn check(&self, q: Query, result: &ServeResult, sent: u32, received: u32) -> bool {
        let Ok(answer) = result else { return false };
        let comp = |v: Vertex| self.comp[v as usize];
        match (q, *answer) {
            (Query::Component(v), Answer::Component(id)) => {
                let Some(&c) = self.index.get(&id) else {
                    return false;
                };
                let joined = self.connect_epoch(comp(v), c);
                if joined > received {
                    return false;
                }
                // The canonical id only ever decreases, so the earliest
                // epoch in range at which `id`'s component is joined is
                // the only one at which `id` can be the smallest.
                let at = joined.max(sent);
                self.min_of(self.root_at(comp(v), at), at) == id
            }
            (Query::Connected(u, v), Answer::Connected(b)) => {
                let joined = self.connect_epoch(comp(u), comp(v));
                if b {
                    joined <= received
                } else {
                    joined > sent
                }
            }
            (Query::TwoEdgeConnected(u, v), Answer::TwoEdgeConnected(b)) => {
                b == (u == v || self.tecc[u as usize] == self.tecc[v as usize])
            }
            (Query::Biconnected(u, v), Answer::Biconnected(b)) => {
                b == (u == v || self.same_bcc(u, v))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_graph::gen;

    fn ids(n: usize, comp_of: impl Fn(u32) -> u32) -> Vec<ComponentId> {
        (0..n as u32)
            .map(|v| ComponentId::Labeled(comp_of(v)))
            .collect()
    }

    #[test]
    fn epochs_bound_connectivity_and_canonical_ids() {
        // Three paths of 3: components {0,1,2}, {3,4,5}, {6,7,8}.
        let p = gen::path(3);
        let g = gen::disjoint_union(&[&p, &p, &p]);
        let mut r = Reference::new(&g, &ids(9, |v| 10 - v / 3)).unwrap();
        r.insert(0, 3, 1); // ids 10 + 9 → 9
        r.insert(4, 8, 2); // + 8 → 8
        let ok = |r: &Reference, q, a, s, e| r.check(q, &Ok(a), s, e);
        assert!(ok(
            &r,
            Query::Connected(0, 8),
            Answer::Connected(false),
            0,
            0
        ));
        assert!(ok(
            &r,
            Query::Connected(0, 8),
            Answer::Connected(false),
            1,
            2
        ));
        assert!(!ok(
            &r,
            Query::Connected(0, 8),
            Answer::Connected(false),
            2,
            2
        ));
        assert!(ok(
            &r,
            Query::Connected(0, 8),
            Answer::Connected(true),
            1,
            2
        ));
        assert!(!ok(
            &r,
            Query::Connected(0, 8),
            Answer::Connected(true),
            0,
            1
        ));
        let c = |x| Answer::Component(ComponentId::Labeled(x));
        assert!(ok(&r, Query::Component(1), c(10), 0, 0));
        assert!(ok(&r, Query::Component(1), c(9), 1, 1));
        assert!(ok(&r, Query::Component(1), c(9), 0, 2));
        assert!(ok(&r, Query::Component(1), c(8), 0, 2));
        assert!(!ok(&r, Query::Component(1), c(8), 0, 1));
        assert!(!ok(&r, Query::Component(1), c(10), 1, 2));
        assert!(ok(
            &r,
            Query::Biconnected(0, 1),
            Answer::Biconnected(true),
            0,
            0
        ));
        assert!(ok(
            &r,
            Query::Biconnected(0, 2),
            Answer::Biconnected(false),
            0,
            0
        ));
        assert!(ok(
            &r,
            Query::TwoEdgeConnected(0, 1),
            Answer::TwoEdgeConnected(false),
            0,
            0
        ));
        assert!(!ok(
            &r,
            Query::TwoEdgeConnected(0, 0),
            Answer::TwoEdgeConnected(false),
            0,
            0
        ));
    }

    #[test]
    fn rejects_ids_that_do_not_label_components() {
        let g = gen::disjoint_union(&[&gen::path(2), &gen::path(2)]);
        assert!(Reference::new(&g, &ids(4, |_| 1)).is_err());
        assert!(Reference::new(&g, &ids(4, |v| v)).is_err());
        assert!(Reference::new(&g, &ids(4, |v| v / 2)).is_ok());
    }
}
