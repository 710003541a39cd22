//! Golden work trace of OptBSearch.
//!
//! Constant-factor work on the engine (how membership is tested, how the
//! `cn` lists and EgoBWCal's scratch are stored) must not change *what*
//! the search does: the same vertices are computed exactly, the same
//! triangles and diamonds are processed, the same bounds are refreshed,
//! and every `S`-map receives the same write sequence — so even the
//! hash-order bound sums, and with them the returned scores, stay
//! bit-identical. This test pins all six `SearchStats` counters and an
//! FNV-1a checksum over the `(vertex, score bits)` entries, recorded from
//! the engine before its set-up and scratch were slimmed down, for seeded
//! power-law and community graphs at k ∈ {1, 16, 64}.
//!
//! Each graph runs under three hub-bitmap layouts (none, the automatic
//! default, a row for every vertex): edge membership and common-neighbor
//! queries go through the bitmaps where they exist, and the answers and
//! work must agree exactly across all three.

use egobtw_core::opt_search::{opt_bsearch, OptParams};
use egobtw_core::SearchStats;
use egobtw_gen::community::PlantedPartition;
use egobtw_graph::io::fnv1a64;
use egobtw_graph::{CsrGraph, HybridConfig, VertexId};

/// One golden record: graph label, k, the six counters in
/// `SearchStats` field order, and the entries checksum.
type Row = (&'static str, usize, [u64; 6], u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("ba1500x6", 1, [2, 491, 3951, 0, 3, 0], 14779921219446241226),
    ("ba1500x6", 16, [17, 1620, 10284, 0, 25, 7], 11848986634308479203),
    ("ba1500x6", 64, [65, 1908, 10695, 2, 86, 18], 13990395556828395382),
    ("ba800x3", 1, [2, 131, 381, 0, 3, 0], 9708896034395219162),
    ("ba800x3", 16, [17, 214, 516, 0, 20, 2], 13530167222444294013),
    ("ba800x3", 64, [64, 231, 521, 0, 78, 13], 12833988350038339961),
    ("pp16x24", 1, [18, 696, 2116, 12, 34, 3], 8535932866508784131),
    ("pp16x24", 16, [63, 1685, 5129, 107, 219, 48], 9667784274105164876),
    ("pp16x24", 64, [122, 2495, 8229, 97, 410, 190], 1599859509355564416),
];

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("ba1500x6", egobtw_gen::barabasi_albert(1500, 6, 3)),
        ("ba800x3", egobtw_gen::barabasi_albert(800, 3, 19)),
        (
            "pp16x24",
            egobtw_gen::planted_partition(
                PlantedPartition {
                    communities: 16,
                    community_size: 24,
                    p_in: 0.45,
                    cross_edges_per_vertex: 1.5,
                },
                5,
            ),
        ),
    ]
}

fn counters(s: &SearchStats) -> [u64; 6] {
    [
        s.exact_computations as u64,
        s.triangles_processed,
        s.diamonds_counted,
        s.pruned as u64,
        s.bound_refreshes as u64,
        s.heap_reinserts as u64,
    ]
}

fn checksum(entries: &[(VertexId, f64)]) -> u64 {
    let mut bytes = Vec::with_capacity(entries.len() * 12);
    for &(v, score) in entries {
        bytes.extend_from_slice(&v.to_le_bytes());
        bytes.extend_from_slice(&score.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[test]
fn opt_search_work_and_answers_match_the_golden_trace() {
    let layouts = [
        ("disabled", HybridConfig::disabled()),
        ("default", HybridConfig::default()),
        ("dense", HybridConfig::dense()),
    ];
    let mut observed: Vec<Row> = Vec::new();
    for (label, g) in graphs() {
        for k in [1usize, 16, 64] {
            let mut first: Option<Row> = None;
            for (layout, cfg) in &layouts {
                let twin = g.with_hybrid_config(cfg);
                let r = opt_bsearch(&twin, k, OptParams::default());
                let row = (label, k, counters(&r.stats), checksum(&r.entries));
                match first {
                    None => first = Some(row),
                    Some(ref want) => assert_eq!(
                        &row, want,
                        "{label} k={k}: layout {layout} diverged from layout disabled"
                    ),
                }
            }
            observed.extend(first);
        }
    }
    assert_eq!(observed, GOLDEN, "OptBSearch work trace changed");
}
