//! Degenerate-input conformance for every core engine: empty graph,
//! single vertex, isolated vertices, stars, k = 0, k > n. Engines must
//! neither panic nor disagree on any of these.

use egobtw_core::registry::builtin_engines;
use egobtw_core::{compute_all_naive, naive::ego_betweenness_of};
use egobtw_gen::classic;
use egobtw_graph::{CsrGraph, VertexId};

fn check_engines(g: &CsrGraph, k: usize, ctx: &str) {
    let truth = compute_all_naive(g);
    let mut sorted = truth.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    for engine in builtin_engines() {
        let got = engine.topk(g, k);
        assert_eq!(
            got.len(),
            k.min(g.n()),
            "{ctx}: {} returned wrong length",
            engine.name()
        );
        for (rank, &(v, s)) in got.iter().enumerate() {
            assert!(
                (s - truth[v as usize]).abs() < 1e-9,
                "{ctx}: {} vertex {v}",
                engine.name()
            );
            assert!(
                (s - sorted[rank]).abs() < 1e-9,
                "{ctx}: {} rank {rank}",
                engine.name()
            );
        }
    }
}

#[test]
fn empty_graph_all_engines() {
    let g = CsrGraph::from_edges(0, &[]);
    for k in [0usize, 1, 5] {
        check_engines(&g, k, &format!("empty k={k}"));
    }
}

#[test]
fn single_vertex_all_engines() {
    let g = CsrGraph::from_edges(1, &[]);
    assert_eq!(ego_betweenness_of(&g, 0), 0.0);
    for k in [0usize, 1, 2] {
        check_engines(&g, k, &format!("single k={k}"));
    }
}

#[test]
fn edgeless_graph_with_many_vertices() {
    let g = CsrGraph::from_edges(7, &[]);
    for k in [0usize, 3, 7, 12] {
        check_engines(&g, k, &format!("edgeless k={k}"));
    }
}

#[test]
fn two_vertices_one_edge() {
    let g = CsrGraph::from_edges(2, &[(0, 1)]);
    for k in [0usize, 1, 2, 9] {
        check_engines(&g, k, &format!("K2 k={k}"));
    }
}

#[test]
fn star_including_isolated_tail() {
    // Star on 0..6 plus isolated vertices 6..9: engines must rank the
    // isolated zeros without touching uninitialized state.
    let edges: Vec<(VertexId, VertexId)> = (1..6).map(|v| (0, v)).collect();
    let g = CsrGraph::from_edges(9, &edges);
    for k in [0usize, 1, 5, 9, 14] {
        check_engines(&g, k, &format!("star+isolated k={k}"));
    }
}

#[test]
fn k_zero_and_k_over_n_on_named_graphs() {
    for (name, g) in [
        ("karate", classic::karate_club()),
        ("complete6", classic::complete(6)),
        ("path1", classic::path(1)),
        ("star1", classic::star(1)),
        ("barbell3", classic::barbell(3)),
    ] {
        let n = g.n();
        for k in [0usize, n, n + 1, n + 100] {
            check_engines(&g, k, &format!("{name} k={k}"));
        }
    }
}

/// A client-supplied k far beyond n (the service passes TOPK's k straight
/// through) must be clamped, not used to size any allocation.
#[test]
fn huge_k_is_clamped_to_n() {
    for k in [u32::MAX as usize, usize::MAX] {
        check_engines(&classic::karate_club(), k, &format!("karate k={k}"));
    }
}

#[test]
fn duplicate_and_self_loop_edges_collapse_before_search() {
    // from_edges tolerates duplicates (both orientations) and self-loops;
    // engines must see the cleaned simple graph.
    let messy = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (2, 1), (3, 3)]);
    let clean = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]);
    assert_eq!(messy.m(), clean.m());
    let truth = compute_all_naive(&clean);
    for engine in builtin_engines() {
        let got = engine.topk(&messy, 4);
        for &(v, s) in &got {
            assert!(
                (s - truth[v as usize]).abs() < 1e-9,
                "{}: duplicate-edge input changed CB({v})",
                engine.name()
            );
        }
    }
}
