//! VertexPEBW and EdgePEBW.

use egobtw_core::smap::PairMap;
use egobtw_graph::{CsrGraph, DegreeOrder, OrientedGraph, VertexId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Work pulled per `fetch_add`, amortizing cursor contention without
/// hurting balance (items are cheap; 64 keeps the tail short).
const CHUNK: usize = 64;

/// Shared mutable state: one locked map per vertex.
struct SharedMaps {
    maps: Vec<Mutex<PairMap>>,
}

impl SharedMaps {
    fn new(n: usize) -> Self {
        SharedMaps {
            maps: (0..n).map(|_| Mutex::new(PairMap::default())).collect(),
        }
    }

    /// Processes one undirected edge `(a,b)` given its sorted common
    /// neighborhood. Locks are acquired one map at a time.
    #[inline]
    fn apply_edge(&self, g: &CsrGraph, a: VertexId, b: VertexId, common: &[VertexId]) {
        for &x in common {
            self.maps[x as usize].lock().set_edge(a, b);
        }
        if common.len() < 2 {
            return;
        }
        // Batch this edge's connector bumps per endpoint map: one lock
        // acquisition per endpoint instead of one per diamond.
        let mut map_a = self.maps[a as usize].lock();
        for (i, &x) in common.iter().enumerate() {
            for &y in common.iter().skip(i + 1) {
                if !g.has_edge(x, y) {
                    map_a.add_connector(x, y);
                }
            }
        }
        drop(map_a);
        let mut map_b = self.maps[b as usize].lock();
        for (i, &x) in common.iter().enumerate() {
            for &y in common.iter().skip(i + 1) {
                if !g.has_edge(x, y) {
                    map_b.add_connector(x, y);
                }
            }
        }
    }

    /// Finalizes `CB` for every vertex in parallel. Uses the deterministic
    /// sorted-entry summation, so the result is bit-identical to
    /// sequential `compute_all` at every thread count — the map *content*
    /// is schedule-independent, and sorting fixes the float association.
    ///
    /// A vertex's cost here scales with its ego-net (hub rows hold far
    /// more pairs than leaf rows), so static `n/threads` ranges strand
    /// every thread behind whichever one drew the hubs — the measured
    /// cause of `edge_pebw` t=4 regressing below t=2 on hub-heavy graphs.
    /// A fine-grained atomic cursor self-balances instead; each slot is
    /// written exactly once, so routing the f64 bits through `AtomicU64`
    /// changes nothing about the value.
    fn finalize(self, g: &CsrGraph, threads: usize) -> Vec<f64> {
        let n = g.n();
        if n == 0 {
            return Vec::new();
        }
        let cb: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let cursor = AtomicUsize::new(0);
        let maps = &self.maps;
        std::thread::scope(|s| {
            for _ in 0..threads.max(1) {
                s.spawn(|| loop {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for v in start..(start + CHUNK).min(n) {
                        let val = maps[v].lock().cb_given_degree_det(g.degree(v as VertexId));
                        cb[v].store(val.to_bits(), Ordering::Relaxed);
                    }
                });
            }
        });
        cb.into_iter()
            .map(|bits| f64::from_bits(bits.into_inner()))
            .collect()
    }
}

/// **VertexPEBW**: vertices are the unit of work; each processes the edges
/// it owns under the `≺` orientation (hubs own many — skewed load).
pub fn vertex_pebw(g: &CsrGraph, threads: usize) -> Vec<f64> {
    assert!(threads >= 1);
    let order = DegreeOrder::new(g);
    let og = OrientedGraph::new(g, &order);
    let shared = SharedMaps::new(g.n());
    let cursor = AtomicUsize::new(0);
    let n = g.n();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut common: Vec<VertexId> = Vec::new();
                loop {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + CHUNK).min(n) {
                        let u = order.at(i);
                        for &v in og.out_neighbors(u) {
                            common.clear();
                            g.common_neighbors_into(u, v, &mut common);
                            shared.apply_edge(g, u, v, &common);
                        }
                    }
                }
            });
        }
    });
    shared.finalize(g, threads)
}

/// **EdgePEBW**: individual oriented edges are the unit of work — the
/// balanced variant.
pub fn edge_pebw(g: &CsrGraph, threads: usize) -> Vec<f64> {
    assert!(threads >= 1);
    let edge_list: Vec<(VertexId, VertexId)> = g.edges().collect();
    let shared = SharedMaps::new(g.n());
    let cursor = AtomicUsize::new(0);
    let m = edge_list.len();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut common: Vec<VertexId> = Vec::new();
                loop {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= m {
                        break;
                    }
                    for &(a, b) in &edge_list[start..(start + CHUNK).min(m)] {
                        common.clear();
                        g.common_neighbors_into(a, b, &mut common);
                        shared.apply_edge(g, a, b, &common);
                    }
                }
            });
        }
    });
    shared.finalize(g, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_core::compute_all;
    use egobtw_gen::{barabasi_albert, classic, gnp, toy};

    fn assert_matches_sequential(g: &CsrGraph, threads: usize) {
        let (seq, _) = compute_all(g);
        for (name, par) in [
            ("vertex", vertex_pebw(g, threads)),
            ("edge", edge_pebw(g, threads)),
        ] {
            assert_eq!(par.len(), seq.len());
            for (v, (a, b)) in par.iter().zip(&seq).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{name} t={threads} vertex {v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn single_thread_matches() {
        assert_matches_sequential(&toy::paper_graph(), 1);
        assert_matches_sequential(&classic::karate_club(), 1);
    }

    #[test]
    fn multi_thread_matches() {
        for threads in [2, 4, 8] {
            assert_matches_sequential(&classic::karate_club(), threads);
            assert_matches_sequential(&gnp(60, 0.12, 3), threads);
        }
    }

    #[test]
    fn skewed_graph_matches() {
        let g = barabasi_albert(400, 4, 9);
        assert_matches_sequential(&g, 4);
    }

    #[test]
    fn repeated_runs_agree() {
        // Interleaving must not change results beyond float association.
        let g = gnp(80, 0.1, 5);
        let a = edge_pebw(&g, 4);
        let b = edge_pebw(&g, 4);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn thread_sweep_bit_identical_on_community_graphs() {
        // The deterministic sorted-entry finalize makes the parallel
        // output *exactly* equal to sequential `compute_all` — same bits,
        // no epsilon — at every thread count, because the shared maps'
        // final content is schedule-independent and the summation order
        // is fixed. Community graphs are the triangle-dense regime where
        // the most cross-thread map traffic happens.
        use egobtw_gen::community::PlantedPartition;
        for seed in 0..3u64 {
            let g = egobtw_gen::planted_partition(
                PlantedPartition {
                    communities: 6,
                    community_size: 10,
                    p_in: 0.6,
                    cross_edges_per_vertex: 1.0,
                },
                seed,
            );
            let (seq, _) = compute_all(&g);
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    vertex_pebw(&g, threads),
                    seq,
                    "vertex_pebw t={threads} seed={seed} diverged bitwise"
                );
                assert_eq!(
                    edge_pebw(&g, threads),
                    seq,
                    "edge_pebw t={threads} seed={seed} diverged bitwise"
                );
            }
        }
    }

    #[test]
    fn thread_sweep_bit_identical_across_repeats() {
        // Re-running at the same thread count must also be bit-stable:
        // scheduling noise may reorder map construction, never content.
        let g = egobtw_gen::planted_partition(
            egobtw_gen::community::PlantedPartition {
                communities: 5,
                community_size: 9,
                p_in: 0.7,
                cross_edges_per_vertex: 0.8,
            },
            11,
        );
        let first = edge_pebw(&g, 4);
        for _ in 0..3 {
            assert_eq!(edge_pebw(&g, 4), first);
            assert_eq!(vertex_pebw(&g, 4), first);
        }
    }

    #[test]
    fn empty_and_tiny() {
        let g = CsrGraph::from_edges(0, &[]);
        assert!(vertex_pebw(&g, 2).is_empty());
        assert!(edge_pebw(&g, 2).is_empty());
        let g1 = CsrGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(vertex_pebw(&g1, 3), vec![0.0, 0.0]);
    }
}
