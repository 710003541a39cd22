//! LocalInsert / LocalDelete (Algorithms 4–5): exact maintenance of every
//! vertex's ego-betweenness under edge updates.
//!
//! The index keeps the same map invariant as the static engine, for every
//! vertex `w` and unordered pair `{x,y} ⊆ N(w)`:
//!
//! * `(x,y) ∈ E` ⟺ `S_w(x,y) = 0`;
//! * `(x,y) ∉ E` with `c > 0` connectors inside `N(w)` ⟺ `S_w(x,y) = c`;
//! * `(x,y) ∉ E` with no connectors ⟺ no entry.
//!
//! Every mutation flows through contribution-tracked helpers, so
//! `CB[w] = Σ contributions` is maintained as a running total — the
//! Lemma 4–7 deltas fall out automatically instead of being transcribed
//! case by case (the transcription in the paper's own Example 6 has two
//! sign errors; see the `egobtw_gen::toy` module docs).

use egobtw_core::smap::SMapStore;
use egobtw_graph::{CsrGraph, DynGraph, VertexId};

/// Contribution of a pair to its ego's `CB`, given the stored value
/// (`None` = non-adjacent, zero connectors).
#[inline]
fn contrib(val: Option<u32>) -> f64 {
    match val {
        None => 1.0,
        Some(0) => 0.0,
        Some(c) => 1.0 / (f64::from(c) + 1.0),
    }
}

/// Scratch buffers reused across updates, so a replayed stream does not
/// pay one round of allocations per op (capacity survives, contents do
/// not).
#[derive(Default)]
struct Scratch {
    common: Vec<VertexId>,
    xs: Vec<VertexId>,
    nbrs: Vec<VertexId>,
}

/// Exact dynamic index over all vertices.
pub struct LocalIndex {
    g: DynGraph,
    store: SMapStore,
    cb: Vec<f64>,
    scratch: Scratch,
}

impl LocalIndex {
    /// Builds the index from a static graph: one shared edge-centric pass
    /// (`build_store`, routed through the hybrid intersection kernels) to
    /// populate the maps.
    pub fn new(g: &CsrGraph) -> Self {
        let (store, _) = egobtw_core::compute_all::build_store(g);
        // Deterministic finalize, so the starting values are bit-identical
        // to `compute_all` (and hence to a fresh `LazyTopK`).
        let cb = (0..g.n() as VertexId)
            .map(|v| store.map(v).cb_given_degree_det(g.degree(v)))
            .collect();
        LocalIndex {
            g: DynGraph::from_csr(g),
            store,
            cb,
            scratch: Scratch::default(),
        }
    }

    /// Current graph.
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    /// Current exact ego-betweenness of `v`.
    #[inline]
    pub fn cb(&self, v: VertexId) -> f64 {
        self.cb[v as usize]
    }

    /// All current values.
    pub fn all_cb(&self) -> &[f64] {
        &self.cb
    }

    /// The `k` highest-`CB` vertices right now (descending; ties toward
    /// smaller id).
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        let mut v: Vec<(VertexId, f64)> = self
            .cb
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as VertexId, c))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Appends an isolated vertex.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.g.add_vertex();
        self.store.push_vertex();
        self.cb.push(0.0);
        v
    }

    // ---- contribution-tracked map mutations ----

    #[inline]
    fn add_connector(&mut self, w: VertexId, x: VertexId, y: VertexId) {
        let m = self.store.map_mut(w);
        let old = m.get(x, y);
        debug_assert_ne!(old, Some(0), "connector added to an edge pair");
        let new = m.add_connector(x, y);
        self.cb[w as usize] += contrib(Some(new)) - contrib(old);
    }

    #[inline]
    fn remove_connector(&mut self, w: VertexId, x: VertexId, y: VertexId) {
        let m = self.store.map_mut(w);
        let old = m.get(x, y);
        debug_assert!(matches!(old, Some(c) if c > 0), "removing absent connector");
        let new = m.remove_connector(x, y);
        let new_opt = if new == 0 { None } else { Some(new) };
        self.cb[w as usize] += contrib(new_opt) - contrib(old);
    }

    /// Pair `(x,y)` inside `N(w)` turns into an edge (insertion of `(x,y)`
    /// observed from common neighbor `w`).
    #[inline]
    fn pair_becomes_edge(&mut self, w: VertexId, x: VertexId, y: VertexId) {
        let m = self.store.map_mut(w);
        let old = m.get(x, y);
        m.set_raw(x, y, 0);
        self.cb[w as usize] -= contrib(old);
    }

    /// Pair `(x,y)` inside `N(w)` stops being an edge; it now has
    /// `connectors` connectors.
    #[inline]
    fn pair_stops_being_edge(&mut self, w: VertexId, x: VertexId, y: VertexId, connectors: u32) {
        let m = self.store.map_mut(w);
        debug_assert_eq!(m.get(x, y), Some(0), "pair was not an edge");
        if connectors == 0 {
            m.remove(x, y);
        } else {
            m.set_raw(x, y, connectors);
        }
        let new_opt = if connectors == 0 {
            None
        } else {
            Some(connectors)
        };
        self.cb[w as usize] += contrib(new_opt);
    }

    /// A brand-new pair `(x,y)` appears in `N(w)` (a neighbor arrived).
    /// `val`: `Some(0)` edge, `Some(c)` c connectors, `None` isolated pair.
    #[inline]
    fn pair_appears(&mut self, w: VertexId, x: VertexId, y: VertexId, val: Option<u32>) {
        if let Some(v) = val {
            self.store.map_mut(w).set_raw(x, y, v);
        }
        self.cb[w as usize] += contrib(val);
    }

    /// Pair `(x,y)` disappears from `N(w)` (a neighbor left).
    #[inline]
    fn pair_disappears(&mut self, w: VertexId, x: VertexId, y: VertexId) {
        let old = self.store.map_mut(w).remove(x, y);
        self.cb[w as usize] -= contrib(old);
    }

    /// Inserts edge `(u,v)`, updating `CB` for `u`, `v`, and all common
    /// neighbors (Observation 1). Returns `false` (no-op) if the edge
    /// already exists or `u == v`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.g.has_edge(u, v) {
            return false;
        }
        // Everything below reasons about the OLD graph; the adjacency flip
        // happens last.
        let mut common = std::mem::take(&mut self.scratch.common);
        self.g.common_neighbors_into(u, v, &mut common);
        common.sort_unstable();

        // --- common neighbors w ∈ L (Lemma 5) ---
        for &w in &common {
            // (u,v) becomes an edge inside GE(w).
            self.pair_becomes_edge(w, u, v);
            // v is a new connector for pairs (u,x), x ∈ N(w) ∩ N(v).
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(w, v, &mut xs);
            for &x in &xs {
                if x != u && !self.g.has_edge(x, u) {
                    self.add_connector(w, u, x);
                }
            }
            // u is a new connector for pairs (v,x), x ∈ N(w) ∩ N(u).
            self.g.common_neighbors_into(w, u, &mut xs);
            for &x in &xs {
                if x != v && !self.g.has_edge(x, v) {
                    self.add_connector(w, v, x);
                }
            }
            self.scratch.xs = xs;
        }

        // --- endpoints (Lemma 4 / Algorithm 5) ---
        self.endpoint_gains_neighbor(u, v, &common);
        self.endpoint_gains_neighbor(v, u, &common);

        self.g.insert_edge(u, v);
        self.scratch.common = common;
        true
    }

    /// Endpoint `u` gains neighbor `nv`; `common = N(u) ∩ N(nv)` in the old
    /// graph.
    fn endpoint_gains_neighbor(&mut self, u: VertexId, nv: VertexId, common: &[VertexId]) {
        // New pairs (nv, x) for every old neighbor x.
        let mut old_nbrs = std::mem::take(&mut self.scratch.nbrs);
        self.g.sorted_neighbors_into(u, &mut old_nbrs);
        for &x in &old_nbrs {
            if common.binary_search(&x).is_ok() {
                self.pair_appears(u, nv, x, Some(0)); // (nv,x) ∈ E
            } else {
                self.pair_appears(u, nv, x, None); // connectors added below
            }
        }
        self.scratch.nbrs = old_nbrs;
        // Connectors for the new pairs come exactly from L: p ∈ L is
        // adjacent to nv; it connects (nv, x) for x ∈ N(u) ∩ N(p), x ∉ L.
        for &p in common {
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(u, p, &mut xs);
            for &x in &xs {
                if x != nv && common.binary_search(&x).is_err() {
                    self.add_connector(u, nv, x);
                }
            }
            self.scratch.xs = xs;
        }
        // nv becomes a connector for existing non-adjacent pairs inside L.
        for (i, &p) in common.iter().enumerate() {
            for &q in common.iter().skip(i + 1) {
                if !self.g.has_edge(p, q) {
                    self.add_connector(u, p, q);
                }
            }
        }
    }

    /// Deletes edge `(u,v)`, updating `CB` for `u`, `v`, and all common
    /// neighbors. Returns `false` (no-op) if the edge does not exist.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.g.has_edge(u, v) {
            return false;
        }
        let mut common = std::mem::take(&mut self.scratch.common);
        self.g.common_neighbors_into(u, v, &mut common);
        common.sort_unstable();

        // --- common neighbors w ∈ L (Lemma 7) ---
        for &w in &common {
            // (u,v) stops being an edge inside GE(w); its connector count
            // is |L ∩ N(w)|.
            let c = common
                .iter()
                .filter(|&&x| x != w && self.g.has_edge(x, w))
                .count() as u32;
            self.pair_stops_being_edge(w, u, v, c);
            // v stops connecting pairs (u,x), x ∈ N(w) ∩ N(v).
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(w, v, &mut xs);
            for &x in &xs {
                if x != u && !self.g.has_edge(x, u) {
                    self.remove_connector(w, u, x);
                }
            }
            // u stops connecting pairs (v,x), x ∈ N(w) ∩ N(u).
            self.g.common_neighbors_into(w, u, &mut xs);
            for &x in &xs {
                if x != v && !self.g.has_edge(x, v) {
                    self.remove_connector(w, v, x);
                }
            }
            self.scratch.xs = xs;
        }

        // --- endpoints (Lemma 6) ---
        self.endpoint_loses_neighbor(u, v, &common);
        self.endpoint_loses_neighbor(v, u, &common);

        self.g.remove_edge(u, v);
        self.scratch.common = common;
        true
    }

    /// Endpoint `u` loses neighbor `nv`; `common = N(u) ∩ N(nv)`.
    fn endpoint_loses_neighbor(&mut self, u: VertexId, nv: VertexId, common: &[VertexId]) {
        let mut nbrs = std::mem::take(&mut self.scratch.nbrs);
        self.g.sorted_neighbors_into(u, &mut nbrs);
        for &x in &nbrs {
            if x != nv {
                self.pair_disappears(u, nv, x);
            }
        }
        self.scratch.nbrs = nbrs;
        for (i, &p) in common.iter().enumerate() {
            for &q in common.iter().skip(i + 1) {
                if !self.g.has_edge(p, q) {
                    self.remove_connector(u, p, q);
                }
            }
        }
    }

    /// Exhaustively re-derives every map entry and `CB` from the current
    /// graph and asserts they match the maintained state. Test helper —
    /// O(n · d³); call only on small graphs.
    pub fn validate(&self) {
        for w in 0..self.g.n() as VertexId {
            let nbrs = self.g.sorted_neighbors(w);
            let mut expect_cb = 0.0;
            let mut entries = 0usize;
            for (i, &x) in nbrs.iter().enumerate() {
                for &y in nbrs.iter().skip(i + 1) {
                    let stored = self.store.map(w).get(x, y);
                    if self.g.has_edge(x, y) {
                        assert_eq!(stored, Some(0), "S_{w}({x},{y}) should be an edge entry");
                        entries += 1;
                        continue;
                    }
                    let c = nbrs
                        .iter()
                        .filter(|&&z| {
                            z != x && z != y && self.g.has_edge(z, x) && self.g.has_edge(z, y)
                        })
                        .count() as u32;
                    if c == 0 {
                        assert_eq!(stored, None, "S_{w}({x},{y}) should be absent");
                    } else {
                        assert_eq!(stored, Some(c), "S_{w}({x},{y}) connector count");
                        entries += 1;
                    }
                    expect_cb += contrib(if c == 0 { None } else { Some(c) });
                }
            }
            assert_eq!(
                self.store.map(w).len(),
                entries,
                "S_{w} holds exactly the live pairs"
            );
            assert!(
                (self.cb[w as usize] - expect_cb).abs() < 1e-9,
                "CB({w}) drifted: {} vs {expect_cb}",
                self.cb[w as usize]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_core::naive::ego_betweenness_of;
    use egobtw_gen::{classic, gnp, toy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_naive(idx: &LocalIndex) {
        let g = idx.graph();
        for v in 0..g.n() as VertexId {
            let expect = ego_betweenness_of(g, v);
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({v}) = {} expected {expect}",
                idx.cb(v)
            );
        }
    }

    #[test]
    fn initial_values_match_naive() {
        let idx = LocalIndex::new(&classic::karate_club());
        assert_matches_naive(&idx);
        idx.validate();
    }

    #[test]
    fn paper_example5_insert_ik() {
        let g = toy::paper_graph();
        let mut idx = LocalIndex::new(&g);
        assert!(idx.insert_edge(toy::ids::I, toy::ids::K));
        for (v, expect) in toy::example5_after_insert() {
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({}) = {} expected {expect}",
                toy::label(v),
                idx.cb(v)
            );
        }
        idx.validate();
        assert_matches_naive(&idx);
    }

    #[test]
    fn paper_example6_delete_cg_corrected() {
        // Corrected values (paper's own Example 6 contradicts Lemmas 6–7;
        // see `egobtw_gen::toy`): CB(c)=14/3, CB(g)=1/2, CB(e)=13/2.
        let g = toy::paper_graph();
        let mut idx = LocalIndex::new(&g);
        assert!(idx.delete_edge(toy::ids::C, toy::ids::G));
        for (v, expect) in toy::example6_after_delete() {
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({}) = {} expected {expect}",
                toy::label(v),
                idx.cb(v)
            );
        }
        idx.validate();
        assert_matches_naive(&idx);
    }

    #[test]
    fn insert_then_delete_is_identity() {
        let g = classic::karate_club();
        let before = LocalIndex::new(&g);
        let mut idx = LocalIndex::new(&g);
        assert!(idx.insert_edge(3, 9));
        assert!(idx.delete_edge(3, 9));
        for v in 0..g.n() as VertexId {
            assert!(
                (idx.cb(v) - before.cb(v)).abs() < 1e-9,
                "vertex {v} not restored"
            );
        }
        idx.validate();
    }

    #[test]
    fn noop_on_duplicate_or_missing() {
        let mut idx = LocalIndex::new(&classic::path(4));
        assert!(!idx.insert_edge(0, 1), "edge already present");
        assert!(!idx.insert_edge(2, 2), "self-loop");
        assert!(!idx.delete_edge(0, 2), "edge absent");
    }

    #[test]
    fn randomized_update_stream_stays_exact() {
        let mut rng = StdRng::seed_from_u64(2024);
        let g0 = gnp(24, 0.18, 3);
        let mut idx = LocalIndex::new(&g0);
        for step in 0..160 {
            let u = rng.random_range(0..24u32);
            let v = rng.random_range(0..24u32);
            if u == v {
                continue;
            }
            if idx.graph().has_edge(u, v) {
                idx.delete_edge(u, v);
            } else {
                idx.insert_edge(u, v);
            }
            if step % 20 == 0 {
                idx.validate();
            }
            assert_matches_naive(&idx);
        }
        idx.validate();
    }

    #[test]
    fn grow_from_empty_matches() {
        // Insert the whole toy graph edge by edge into an empty index.
        let mut idx = LocalIndex::new(&egobtw_graph::CsrGraph::from_edges(16, &[]));
        for &(a, b) in toy::EDGES.iter() {
            idx.insert_edge(a, b);
        }
        for (v, expect) in toy::expected_cb() {
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({}) after incremental build",
                toy::label(v)
            );
        }
        idx.validate();
    }

    #[test]
    fn shrink_to_empty() {
        let g = classic::barbell(4);
        let mut idx = LocalIndex::new(&g);
        let edges: Vec<_> = g.edges().collect();
        for (a, b) in edges {
            idx.delete_edge(a, b);
            assert_matches_naive(&idx);
        }
        for v in 0..g.n() as VertexId {
            assert_eq!(idx.cb(v), 0.0);
        }
    }

    #[test]
    fn add_vertex_and_wire_up() {
        let mut idx = LocalIndex::new(&classic::star(4));
        let v = idx.add_vertex();
        assert_eq!(v, 4);
        idx.insert_edge(0, v);
        idx.insert_edge(1, v);
        assert_matches_naive(&idx);
        idx.validate();
    }

    #[test]
    fn top_k_tracks_updates() {
        let g = toy::paper_graph();
        let mut idx = LocalIndex::new(&g);
        assert_eq!(idx.top_k(1)[0].0, toy::ids::F);
        // Example 7: inserting (i,k) makes i the new top-1 (10.5 > 9.5).
        idx.insert_edge(toy::ids::I, toy::ids::K);
        assert_eq!(idx.top_k(1)[0].0, toy::ids::I);
    }
}
