//! Mutable adjacency structure for the maintenance algorithms.
//!
//! [`DynGraph`] trades the CSR's compactness for O(1) edge insertion,
//! deletion, and membership (hash-set adjacency). The dynamic algorithms
//! (Section IV of the paper) need exactly these three operations plus
//! common-neighbor enumeration.

use crate::csr::CsrGraph;
use crate::hash::FxHashSet;
use crate::VertexId;

/// An undirected simple graph under edge/vertex updates.
#[derive(Clone, Debug, Default)]
pub struct DynGraph {
    adj: Vec<FxHashSet<VertexId>>,
    m: usize,
}

impl DynGraph {
    /// Empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        DynGraph {
            adj: vec![FxHashSet::default(); n],
            m: 0,
        }
    }

    /// Copies a static graph into dynamic form.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut dg = DynGraph::new(g.n());
        for u in g.vertices() {
            dg.adj[u as usize] = g.neighbors(u).iter().copied().collect();
        }
        dg.m = g.m();
        dg
    }

    /// Freezes into a static CSR graph.
    pub fn to_csr(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.m);
        for (u, ns) in self.adj.iter().enumerate() {
            for &v in ns {
                if (u as VertexId) < v {
                    edges.push((u as VertexId, v));
                }
            }
        }
        CsrGraph::from_edges(self.n(), &edges)
    }

    /// Freezes by patching `base`, a CSR of an earlier state of this
    /// graph: the rows of `touched` (in any order, duplicates allowed) and
    /// of vertices added since `base` come from `self`, every other row
    /// and every untouched hub bitmap row is taken from `base`, under
    /// `base`'s hub policy. Costs `O(n)` for the offsets plus a copy of
    /// the adjacency array, instead of [`DynGraph::to_csr`]'s hash, sort
    /// and repack of all `m` edges.
    ///
    /// `touched` must contain both endpoints of every edge that differs
    /// between `base` and `self`; the result then equals `to_csr()`
    /// rebuilt under the hub policy `base` was built with.
    pub fn refreeze(&self, base: &CsrGraph, touched: &[VertexId]) -> CsrGraph {
        let mut touched = touched.to_vec();
        touched.sort_unstable();
        touched.dedup();
        CsrGraph::patched(base, self, &touched)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.adj[u as usize].len()
    }

    /// Edge membership in O(1).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.adj[u as usize].contains(&v)
    }

    /// Neighbor set of `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &FxHashSet<VertexId> {
        &self.adj[u as usize]
    }

    /// Neighbors of `u` as a sorted vector (for deterministic iteration
    /// where float summation order matters, e.g. test oracles).
    pub fn sorted_neighbors(&self, u: VertexId) -> Vec<VertexId> {
        let mut v: Vec<_> = self.adj[u as usize].iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// [`DynGraph::sorted_neighbors`] into a caller-owned buffer (cleared
    /// first), so tight update loops can reuse capacity across calls.
    pub fn sorted_neighbors_into(&self, u: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.adj[u as usize].iter().copied());
        out.sort_unstable();
    }

    /// Appends a new isolated vertex; returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(FxHashSet::default());
        (self.adj.len() - 1) as VertexId
    }

    /// Inserts edge `(u,v)`. Returns `false` (no-op) if it already exists
    /// or is a self-loop.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.adj[u as usize].contains(&v) {
            return false;
        }
        self.adj[u as usize].insert(v);
        self.adj[v as usize].insert(u);
        self.m += 1;
        true
    }

    /// Removes edge `(u,v)`. Returns `false` (no-op) if it was absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.adj[u as usize].remove(&v) {
            return false;
        }
        self.adj[v as usize].remove(&u);
        self.m -= 1;
        true
    }

    /// Removes all edges incident to `u` (the paper models vertex deletion
    /// as a series of edge deletions; this performs the series). The vertex
    /// id itself stays valid but isolated. Returns the removed neighbors.
    pub fn isolate_vertex(&mut self, u: VertexId) -> Vec<VertexId> {
        let ns: Vec<VertexId> = self.adj[u as usize].iter().copied().collect();
        for &v in &ns {
            self.adj[v as usize].remove(&u);
        }
        self.m -= ns.len();
        self.adj[u as usize].clear();
        ns
    }

    /// Common neighbors `N(u) ∩ N(v)`, iterating the smaller set. The result
    /// order follows hash iteration; sort if determinism is required.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize]
            .iter()
            .copied()
            .filter(|&w| self.adj[b as usize].contains(&w))
            .collect()
    }

    /// [`DynGraph::common_neighbors`] into a caller-owned buffer (cleared
    /// first). Same hash-order contents; sort if determinism is required.
    pub fn common_neighbors_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        out.extend(
            self.adj[a as usize]
                .iter()
                .copied()
                .filter(|&w| self.adj[b as usize].contains(&w)),
        );
    }

    /// Exhaustively checks the structural invariants the maintenance
    /// algorithms rely on: no self-loops, in-range endpoints, symmetric
    /// adjacency sets, and an edge counter consistent with the degrees.
    ///
    /// Returns a description of the first violation. The conformance
    /// harness runs this after every replayed update stream. Cost `O(m)`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        let mut degree_sum = 0usize;
        for (u, ns) in self.adj.iter().enumerate() {
            degree_sum += ns.len();
            for &v in ns {
                if v as usize >= n {
                    return Err(format!("neighbor {v} of {u} out of range (n={n})"));
                }
                if v as usize == u {
                    return Err(format!("self-loop at {u}"));
                }
                if !self.adj[v as usize].contains(&(u as VertexId)) {
                    return Err(format!("asymmetric edge: {v} ∈ N({u}) but {u} ∉ N({v})"));
                }
            }
        }
        if !degree_sum.is_multiple_of(2) {
            return Err(format!("odd total degree {degree_sum}"));
        }
        if degree_sum / 2 != self.m {
            return Err(format!(
                "edge counter {} disagrees with degrees ({} / 2)",
                self.m, degree_sum
            ));
        }
        Ok(())
    }

    /// `|N(u) ∩ N(v)|`.
    pub fn common_neighbor_count(&self, u: VertexId, v: VertexId) -> usize {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize]
            .iter()
            .filter(|w| self.adj[b as usize].contains(w))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = DynGraph::new(4);
        assert!(g.insert_edge(0, 1));
        assert!(!g.insert_edge(1, 0), "duplicate rejected");
        assert!(!g.insert_edge(2, 2), "self-loop rejected");
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn csr_roundtrip() {
        let g0 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let dg = DynGraph::from_csr(&g0);
        assert_eq!(dg.m(), g0.m());
        let g1 = dg.to_csr();
        assert_eq!(g1.n(), g0.n());
        assert_eq!(g1.m(), g0.m());
        for u in g0.vertices() {
            assert_eq!(g1.neighbors(u), g0.neighbors(u));
        }
    }

    #[test]
    fn common_neighbors_correct() {
        let mut g = DynGraph::new(6);
        for &(u, v) in &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)] {
            g.insert_edge(u, v);
        }
        let mut cn = g.common_neighbors(0, 1);
        cn.sort_unstable();
        assert_eq!(cn, vec![2, 3]);
        assert_eq!(g.common_neighbor_count(0, 1), 2);
        assert_eq!(g.common_neighbor_count(4, 5), 0);
    }

    #[test]
    fn isolate_vertex_removes_all() {
        let mut g = DynGraph::new(4);
        g.insert_edge(0, 1);
        g.insert_edge(0, 2);
        g.insert_edge(1, 2);
        let mut removed = g.isolate_vertex(0);
        removed.sort_unstable();
        assert_eq!(removed, vec![1, 2]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn add_vertex_extends_range() {
        let mut g = DynGraph::new(1);
        let v = g.add_vertex();
        assert_eq!(v, 1);
        assert!(g.insert_edge(0, 1));
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn validate_tracks_mutations() {
        let mut g = DynGraph::new(5);
        assert_eq!(g.validate(), Ok(()));
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        g.insert_edge(3, 4);
        assert_eq!(g.validate(), Ok(()));
        g.remove_edge(1, 2);
        g.isolate_vertex(0);
        assert_eq!(g.validate(), Ok(()));
        // Corrupt it: one-sided edge plus a stale counter.
        g.adj[2].insert(4);
        assert!(g.validate().unwrap_err().contains("asymmetric"));
        g.adj[4].insert(2);
        assert!(g.validate().unwrap_err().contains("edge counter"));
        g.m += 1;
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn sorted_neighbors_deterministic() {
        let mut g = DynGraph::new(5);
        for v in [4u32, 1, 3, 2] {
            g.insert_edge(0, v);
        }
        assert_eq!(g.sorted_neighbors(0), vec![1, 2, 3, 4]);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let mut g = DynGraph::new(7);
        for &(u, v) in &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (0, 6)] {
            g.insert_edge(u, v);
        }
        // Reused buffer starts dirty to prove it is cleared.
        let mut buf = vec![99u32; 4];
        g.sorted_neighbors_into(0, &mut buf);
        assert_eq!(buf, g.sorted_neighbors(0));
        g.common_neighbors_into(0, 1, &mut buf);
        buf.sort_unstable();
        let mut direct = g.common_neighbors(0, 1);
        direct.sort_unstable();
        assert_eq!(buf, direct);
        assert_eq!(buf, vec![2, 3]);
        // Empty intersection clears the buffer too.
        g.common_neighbors_into(4, 5, &mut buf);
        assert!(buf.is_empty());
    }
}
