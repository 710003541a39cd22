//! Differential test for the epoch patch: after every seeded batch of
//! edge ops, `DynGraph::refreeze` of the previous frozen graph must equal
//! a full `to_csr` rebuild under the same hub policy — vertex for vertex,
//! hub row for hub row — pass `validate`, and share every untouched hub
//! row with its base instead of repacking it.

use egobtw_graph::{CsrGraph, DynGraph, HybridConfig, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Barabási–Albert graph: each new vertex attaches to `attach` distinct
/// earlier vertices chosen proportionally to degree.
fn barabasi_albert(n: usize, attach: usize, seed: u64) -> DynGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DynGraph::new(n);
    // Endpoint multiset: sampling an entry is sampling by degree.
    let mut ends: Vec<VertexId> = Vec::new();
    for u in 1..=attach as VertexId {
        for v in 0..u {
            g.insert_edge(u, v);
            ends.extend([u, v]);
        }
    }
    for u in attach as VertexId + 1..n as VertexId {
        let mut added = 0;
        while added < attach {
            let v = ends[rng.random_range(0..ends.len())];
            if g.insert_edge(u, v) {
                ends.extend([u, v]);
                added += 1;
            }
        }
    }
    g
}

/// Structural equality of a patched graph and its rebuild, plus sharing
/// of every untouched hub row with `base`.
fn assert_patch_matches(
    base: &CsrGraph,
    patched: &CsrGraph,
    rebuilt: &CsrGraph,
    touched: &[VertexId],
    ctx: &str,
) {
    assert_eq!(patched.validate(), Ok(()), "{ctx}: validate");
    assert_eq!(patched.n(), rebuilt.n(), "{ctx}: n");
    assert_eq!(patched.m(), rebuilt.m(), "{ctx}: m");
    assert_eq!(
        patched.hub_threshold(),
        rebuilt.hub_threshold(),
        "{ctx}: threshold"
    );
    assert_eq!(patched.hub_count(), rebuilt.hub_count(), "{ctx}: hub count");
    for u in rebuilt.vertices() {
        assert_eq!(patched.neighbors(u), rebuilt.neighbors(u), "{ctx}: N({u})");
        assert_eq!(
            patched.hub_bitmap(u),
            rebuilt.hub_bitmap(u),
            "{ctx}: row of {u}"
        );
        let same_width = base.n().div_ceil(64) == patched.n().div_ceil(64);
        if let (Some(old), Some(new)) = (base.hub_bitmap(u), patched.hub_bitmap(u)) {
            if same_width && !touched.contains(&u) {
                assert!(
                    std::ptr::eq(old.as_ptr(), new.as_ptr()),
                    "{ctx}: untouched hub {u} repacked instead of shared"
                );
            }
        }
    }
}

/// Runs `batches` seeded batches of up to `max_batch` state-changing ops
/// (insert-heavy, then delete-heavy) and checks every patch. Returns the
/// thresholds seen in order (repeats collapsed) and how many touched
/// vertices gained or lost a row.
fn run_stream(
    mut dg: DynGraph,
    cfg: &HybridConfig,
    batches: usize,
    max_batch: usize,
    seed: u64,
) -> (Vec<Option<usize>>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = dg.n() as VertexId;
    let mut base = dg.to_csr().with_hybrid_config(cfg);
    let mut thresholds = vec![base.hub_threshold()];
    let mut crossings = 0;
    for batch in 0..batches {
        let insert_bias = if batch < batches / 2 { 0.8 } else { 0.2 };
        let mut touched = Vec::new();
        for _ in 0..rng.random_range(1..max_batch + 1) {
            let u = rng.random_range(0..n);
            let changed = if rng.random_bool(insert_bias) {
                let v = rng.random_range(0..n);
                dg.insert_edge(u, v).then_some(v)
            } else {
                // Delete one of u's edges, so deletes mostly take effect.
                let ns = dg.sorted_neighbors(u);
                let w = (!ns.is_empty()).then(|| ns[rng.random_range(0..ns.len())]);
                w.filter(|&w| dg.remove_edge(u, w))
            };
            if let Some(v) = changed {
                touched.extend([u, v]);
            }
        }
        let patched = dg.refreeze(&base, &touched);
        let rebuilt = dg.to_csr().with_hybrid_config(cfg);
        let ctx = format!("seed {seed} batch {batch}");
        assert_patch_matches(&base, &patched, &rebuilt, &touched, &ctx);
        crossings += touched
            .iter()
            .filter(|&&u| base.hub_bitmap(u).is_some() != patched.hub_bitmap(u).is_some())
            .count();
        if thresholds.last() != Some(&patched.hub_threshold()) {
            thresholds.push(patched.hub_threshold());
        }
        base = patched;
    }
    (thresholds, crossings)
}

#[test]
fn ba_streams_under_the_default_policy_equal_a_rebuild() {
    // n = 1000 (not a multiple of 64); hubs clear the default floor of 32.
    for seed in 0..2u64 {
        let dg = barabasi_albert(1000, 4, 0xBA + seed);
        run_stream(dg, &HybridConfig::new(), 60, 8, seed);
    }
}

#[test]
fn budget_driven_threshold_moves_and_crossings_are_covered() {
    // A low floor with a tight budget: the threshold is set by the budget,
    // so inserts and deletes move it, and vertices cross it both ways.
    let cfg = HybridConfig {
        enabled: true,
        min_hub_degree: 4,
        budget_words_per_edge: 1,
    };
    let dg = barabasi_albert(1000, 3, 0x7E57);
    let (thresholds, crossings) = run_stream(dg, &cfg, 120, 16, 7);
    assert!(
        thresholds.len() >= 3,
        "threshold never moved: {thresholds:?}"
    );
    assert!(crossings > 0, "no touched vertex crossed the threshold");
}

#[test]
fn graph_without_hubs_stays_plain() {
    // G(n, m) with average degree 6: no vertex reaches the floor of 32.
    let mut rng = StdRng::seed_from_u64(3);
    let mut dg = DynGraph::new(300);
    while dg.m() < 900 {
        dg.insert_edge(rng.random_range(0..300), rng.random_range(0..300));
    }
    assert_eq!(
        dg.to_csr().hub_count(),
        0,
        "max degree stays under the floor"
    );
    let (thresholds, _) = run_stream(dg, &HybridConfig::new(), 40, 4, 11);
    assert_eq!(thresholds, vec![None]);
}

#[test]
fn dense_base_keeps_its_policy() {
    // Every patch is compared with a dense rebuild, so a patch that fell
    // back to the default policy would lose most of its rows.
    let dense = HybridConfig::dense();
    let dg = barabasi_albert(70, 3, 5);
    assert!(dg.to_csr().with_hybrid_config(&dense).hub_count() > 60);
    run_stream(dg, &dense, 40, 6, 13);
}

#[test]
fn plain_base_stays_plain() {
    run_stream(
        barabasi_albert(300, 5, 9),
        &HybridConfig::disabled(),
        20,
        6,
        17,
    );
}

#[test]
fn added_vertices_get_rows_and_widths_grow() {
    // 64 → 66 vertices: the bitmap rows widen from 1 word to 2, so no row
    // can be shared; the new vertices' rows come from the dynamic graph.
    let dense = HybridConfig::dense();
    let mut dg = barabasi_albert(64, 3, 21);
    let base = dg.to_csr().with_hybrid_config(&dense);
    let a = dg.add_vertex();
    let b = dg.add_vertex();
    for v in [0, 5, 9, a] {
        dg.insert_edge(b, v);
    }
    let patched = dg.refreeze(&base, &[b, 0, 5, 9]);
    let rebuilt = dg.to_csr().with_hybrid_config(&dense);
    assert_patch_matches(&base, &patched, &rebuilt, &[0, 5, 9, a, b], "grown");
    assert_eq!(patched.n(), 66);
    assert_eq!(patched.degree(a), 1);
}

#[test]
fn empty_touch_set_reproduces_the_base() {
    let dg = barabasi_albert(500, 6, 2);
    let base = dg.to_csr();
    assert!(base.hub_count() > 0);
    let patched = dg.refreeze(&base, &[]);
    assert_patch_matches(&base, &patched, &base, &[], "no-op");
}
