//! The shared triangle-driven engine behind Algorithms 1–3.
//!
//! All three algorithms reduce to one primitive: *process a triangle*
//! (the paper's Algorithm 3, EgoBWCal; `docs/ARCHITECTURE.md`, "Paper
//! concept → module map"). Processing triangle `{a,b,c}`:
//!
//! 1. writes the three edge entries (`S_a(b,c) = S_b(a,c) = S_c(a,b) = 0`);
//! 2. for each triangle edge `(p,q)` with third corner `t`, pairs `t`
//!    against the common neighbors of `(p,q)` seen in *previously
//!    processed* triangles (`cn(p,q)`, the paper's `rd(·)` lists): every
//!    such `x` with `(x,t) ∉ E` is a diamond — `t`'s opposite wing gains a
//!    connector in both `S_p` and `S_q`;
//! 3. appends `t` to `cn(p,q)` (and symmetrically for the other edges).
//!
//! Invariant: `x ∈ cn(p,q)` ⟺ triangle `{p,q,x}` has been processed.
//! Hence each triangle is processed at most once, every diamond is counted
//! exactly once (when the *later* of its two triangles is processed), and
//! a vertex's map `S_u` is complete exactly when every triangle containing
//! `u` has been processed.
//!
//! * BaseBSearch achieves completeness by visiting vertices in the total
//!   order and processing the triangles each vertex *leads*
//!   ([`Engine::process_vertex_in_order`]);
//! * OptBSearch calls [`Engine::complete_vertex`] (the paper's EgoBWCal),
//!   which processes exactly the still-unprocessed triangles containing
//!   the vertex, wherever the search has wandered so far.

use crate::smap::SMapStore;
use crate::stats::SearchStats;
use egobtw_graph::triangle::intersect_rank_sorted;
use egobtw_graph::{
    pack_pair, CsrGraph, DegreeOrder, EdgeSet, FxHashMap, FxHashSet, OrientedGraph, VertexId,
};

/// Shared state of one search over one graph.
pub struct Engine<'g> {
    g: &'g CsrGraph,
    order: DegreeOrder,
    og: OrientedGraph,
    edges: EdgeSet,
    store: SMapStore,
    /// Per-edge list of common neighbors already seen in processed
    /// triangles (`rd` in Algorithm 3).
    cn: FxHashMap<u64, Vec<VertexId>>,
    /// `B` array of the paper: vertices whose `CB` is exact.
    completed: Vec<bool>,
    /// Cached exact values for completed vertices (NaN = not computed).
    cb_cache: Vec<f64>,
    tri_buf: Vec<(VertexId, VertexId)>,
    scratch: Vec<VertexId>,
    /// Work counters for the current run.
    pub stats: SearchStats,
}

impl<'g> Engine<'g> {
    /// Fresh engine over `g` (computes the total order, the orientation,
    /// and the edge set; allocates empty maps).
    pub fn new(g: &'g CsrGraph) -> Self {
        let order = DegreeOrder::new(g);
        let og = OrientedGraph::new(g, &order);
        Engine {
            g,
            og,
            edges: EdgeSet::from_graph(g),
            store: SMapStore::new(g.n()),
            cn: FxHashMap::default(),
            completed: vec![false; g.n()],
            cb_cache: vec![f64::NAN; g.n()],
            tri_buf: Vec::new(),
            scratch: Vec::new(),
            stats: SearchStats::default(),
            order,
        }
    }

    /// The graph this engine runs over.
    pub fn graph(&self) -> &CsrGraph {
        self.g
    }

    /// The total order `≺`.
    pub fn order(&self) -> &DegreeOrder {
        &self.order
    }

    /// Read access to the map store (tests and harnesses).
    pub fn store(&self) -> &SMapStore {
        &self.store
    }

    /// Whether `CB(u)` has been computed exactly.
    #[inline]
    pub fn is_completed(&self, u: VertexId) -> bool {
        self.completed[u as usize]
    }

    /// Exact `CB(u)` if it has been computed.
    pub fn cached_cb(&self, u: VertexId) -> Option<f64> {
        self.completed[u as usize].then(|| self.cb_cache[u as usize])
    }

    /// The dynamic upper bound `ũb(u)` (Lemma 3) from the current partial
    /// map; equals `CB(u)` once `u` is complete.
    #[inline]
    pub fn dynamic_bound(&self, u: VertexId) -> f64 {
        self.store.map(u).cb_given_degree(self.g.degree(u))
    }

    /// Core primitive: processes one *not yet processed* triangle.
    fn process_triangle(&mut self, a: VertexId, b: VertexId, c: VertexId) {
        self.stats.triangles_processed += 1;
        self.store.map_mut(a).set_edge(b, c);
        self.store.map_mut(b).set_edge(a, c);
        self.store.map_mut(c).set_edge(a, b);
        for (p, q, t) in [(a, b, c), (a, c, b), (b, c, a)] {
            let list = self.cn.entry(pack_pair(p, q)).or_default();
            for &x in list.iter() {
                debug_assert!(x != t, "triangle ({p},{q},{t}) processed twice");
                if !self.edges.contains(x, t) {
                    self.store.map_mut(p).add_connector(x, t);
                    self.store.map_mut(q).add_connector(x, t);
                    self.stats.diamonds_counted += 1;
                }
            }
            // `list` stayed valid throughout: the loop body only touched
            // `store`/`edges`/`stats`, all disjoint fields.
            list.push(t);
        }
    }

    /// BaseBSearch step: processes every triangle *led by* `u` (i.e. with
    /// `u` as its `≺`-minimal corner). When vertices are fed in total
    /// order, `S_u` is complete at the end of `u`'s own call.
    pub fn process_vertex_in_order(&mut self, u: VertexId) {
        let mut tris = std::mem::take(&mut self.tri_buf);
        let mut scratch = std::mem::take(&mut self.scratch);
        tris.clear();
        let nu = self.og.out_neighbors(u);
        for &v in nu {
            scratch.clear();
            intersect_rank_sorted(&self.order, nu, self.og.out_neighbors(v), &mut scratch);
            tris.extend(scratch.iter().map(|&w| (v, w)));
        }
        for &(v, w) in &tris {
            self.process_triangle(u, v, w);
        }
        self.tri_buf = tris;
        self.scratch = scratch;
    }

    /// Finalizes `CB(u)` assuming `S_u` is already complete (BaseBSearch's
    /// in-order guarantee). Debug builds verify the guarantee against the
    /// naive oracle.
    pub fn finalize_in_order(&mut self, u: VertexId) -> f64 {
        debug_assert!(!self.completed[u as usize]);
        let cb = self.dynamic_bound(u);
        self.completed[u as usize] = true;
        self.cb_cache[u as usize] = cb;
        self.stats.exact_computations += 1;
        cb
    }

    /// EgoBWCal (Algorithm 3): completes `S_u` by processing exactly the
    /// unprocessed triangles containing `u`, then returns the exact
    /// `CB(u)`. Safe to call in any order, any number of times (idempotent
    /// after the first call); also tightens other vertices' dynamic bounds
    /// as a side effect, which is what makes OptBSearch's bound "dynamic".
    pub fn complete_vertex(&mut self, u: VertexId) -> f64 {
        if self.completed[u as usize] {
            return self.cb_cache[u as usize];
        }
        let mut full = std::mem::take(&mut self.scratch);
        let mut seen: FxHashSet<VertexId> = FxHashSet::default();
        let mut fresh: Vec<(VertexId, VertexId)> = Vec::new();
        for idx in 0..self.g.degree(u) {
            let b = self.g.neighbors(u)[idx];
            full.clear();
            // Hybrid dispatch: hub rows answer with bit-probes instead of
            // rescanning the long sorted slice (EgoBWCal's hot query).
            self.g.common_neighbors_into(u, b, &mut full);
            seen.clear();
            if let Some(list) = self.cn.get(&pack_pair(u, b)) {
                if list.len() == full.len() {
                    continue; // every triangle on edge (u,b) already done
                }
                seen.extend(list.iter().copied());
            }
            fresh.extend(
                full.iter()
                    .copied()
                    .filter(|y| !seen.contains(y))
                    .map(|y| (b, y)),
            );
            for &(b2, y) in fresh.iter() {
                self.process_triangle(u, b2, y);
            }
            fresh.clear();
        }
        self.scratch = full;
        self.completed[u as usize] = true;
        self.stats.exact_computations += 1;
        let cb = self.dynamic_bound(u);
        self.cb_cache[u as usize] = cb;
        cb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::ego_betweenness_of;
    use egobtw_gen::{classic, gnp, toy};

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            "{what}: {a} vs {b}"
        );
    }

    /// Ordered processing (BaseBSearch style) matches the oracle on every
    /// vertex.
    fn check_ordered(g: &CsrGraph) {
        let mut e = Engine::new(g);
        let order: Vec<VertexId> = e.order().iter().collect();
        for u in order {
            e.process_vertex_in_order(u);
            let cb = e.finalize_in_order(u);
            assert_close(cb, ego_betweenness_of(g, u), &format!("vertex {u}"));
        }
    }

    /// Out-of-order completion (OptBSearch style) matches the oracle.
    fn check_completion(g: &CsrGraph, visit: impl Iterator<Item = VertexId>) {
        let mut e = Engine::new(g);
        for u in visit {
            let cb = e.complete_vertex(u);
            assert_close(cb, ego_betweenness_of(g, u), &format!("vertex {u}"));
        }
    }

    #[test]
    fn ordered_matches_oracle_on_classics() {
        for g in [
            classic::complete(7),
            classic::star(9),
            classic::path(8),
            classic::cycle(6),
            classic::barbell(5),
            classic::karate_club(),
        ] {
            check_ordered(&g);
        }
    }

    #[test]
    fn ordered_matches_oracle_on_paper_graph() {
        check_ordered(&toy::paper_graph());
    }

    #[test]
    fn completion_any_order_matches_oracle() {
        let g = toy::paper_graph();
        // Forward, reverse, and a shuffled visit order.
        check_completion(&g, 0..g.n() as VertexId);
        check_completion(&g, (0..g.n() as VertexId).rev());
        let weird = [5u32, 9, 0, 15, 8, 7, 3, 2, 11, 1, 6, 4, 13, 12, 14, 10];
        check_completion(&g, weird.into_iter());
    }

    #[test]
    fn completion_is_idempotent() {
        let g = classic::karate_club();
        let mut e = Engine::new(&g);
        let first = e.complete_vertex(0);
        let tris = e.stats.triangles_processed;
        let second = e.complete_vertex(0);
        assert_eq!(first, second);
        assert_eq!(e.stats.triangles_processed, tris, "no re-processing");
        assert_eq!(e.stats.exact_computations, 1);
    }

    #[test]
    fn mixed_ordered_and_completion() {
        // Interleave the two entry points: complete some vertices out of
        // order, then run the remaining ordered sweep via completion.
        let g = classic::karate_club();
        let mut e = Engine::new(&g);
        e.complete_vertex(33);
        e.complete_vertex(0);
        for u in 0..g.n() as VertexId {
            let cb = e.complete_vertex(u);
            assert_close(cb, ego_betweenness_of(&g, u), &format!("v{u}"));
        }
        // Every triangle processed exactly once overall.
        assert_eq!(
            e.stats.triangles_processed,
            egobtw_graph::triangle::count_triangles(&g)
        );
    }

    #[test]
    fn random_graphs_match_oracle() {
        for seed in 0..5 {
            let g = gnp(40, 0.15, seed);
            check_ordered(&g);
            check_completion(&g, (0..g.n() as VertexId).rev());
        }
    }

    #[test]
    fn dynamic_bound_dominates_cb_and_tightens() {
        let g = toy::paper_graph();
        let mut e = Engine::new(&g);
        let truth: Vec<f64> = (0..16).map(|v| ego_betweenness_of(&g, v)).collect();
        let mut prev: Vec<f64> = (0..16u32).map(|v| e.dynamic_bound(v)).collect();
        for v in [toy::ids::C, toy::ids::I, toy::ids::F, toy::ids::X] {
            e.complete_vertex(v);
            for u in 0..16u32 {
                let b = e.dynamic_bound(u);
                assert!(
                    b >= truth[u as usize] - 1e-9,
                    "bound {b} below CB {} for {u}",
                    truth[u as usize]
                );
                assert!(
                    b <= prev[u as usize] + 1e-9,
                    "bound increased for {u}: {b} > {}",
                    prev[u as usize]
                );
                prev[u as usize] = b;
            }
        }
    }

    #[test]
    fn paper_example4_bound_after_c_and_i() {
        // Fig. 3(a): after computing c and i exactly, the paper's trace
        // refreshes f's dynamic bound to 23/2. Our engine shares *all*
        // triangle information discovered by EgoBWCal (the paper's
        // identified-information propagation is a subset), so our bound at
        // the same point is at least as tight — and still a valid upper
        // bound on CB(f) = 11. In fact the three triangles containing f
        // all touch c or i, so here the bound is already exact.
        let g = toy::paper_graph();
        let mut e = Engine::new(&g);
        e.complete_vertex(toy::ids::C);
        e.complete_vertex(toy::ids::I);
        let b = e.dynamic_bound(toy::ids::F);
        assert!(b <= 23.0 / 2.0 + 1e-9, "no looser than the paper: {b}");
        assert!(b >= 11.0 - 1e-9, "still an upper bound on CB(f): {b}");
        assert_close(b, 11.0, "all of f's triangles touch c or i");
    }
}
