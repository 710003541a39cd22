//! BaseBSearch — Algorithm 1.
//!
//! Processes vertices in the total order `≺` (non-increasing static upper
//! bound `ub(u) = d(u)(d(u)−1)/2`), computing each `CB` exactly via the
//! shared engine, and terminates as soon as the answer set holds `k`
//! vertices whose minimum `CB` is at least the next vertex's bound —
//! every remaining vertex then satisfies
//! `CB(w) ≤ ub(w) ≤ ub(next) ≤ min CB(R)` (Theorem 1).

use crate::engine::Engine;
use crate::topk::{TopKSet, TopkResult};
use egobtw_graph::CsrGraph;

/// Runs BaseBSearch for the top `k` ego-betweenness vertices.
///
/// Returns exact `(vertex, CB)` entries sorted by descending `CB`, plus
/// work counters ([`crate::stats::SearchStats::exact_computations`] is the
/// Table II column).
pub fn base_bsearch(g: &CsrGraph, k: usize) -> TopkResult {
    // A top-k never holds more than n entries; clamping keeps a huge
    // client-supplied k from sizing the heap.
    let mut top = TopKSet::new(k.min(g.n()));
    let mut engine = Engine::new(g);
    if k == 0 {
        return TopkResult {
            entries: Vec::new(),
            stats: engine.stats,
        };
    }
    let n = g.n();
    for i in 0..n {
        let u = engine.order().at(i);
        if top.is_full() {
            let min_cb = top.min_score().expect("full set has a minimum");
            if min_cb >= g.degree_bound(u) {
                engine.stats.pruned += n - i;
                break;
            }
        }
        engine.process_vertex_in_order(u);
        let cb = engine.finalize_in_order(u);
        top.offer(u, cb);
    }
    TopkResult {
        entries: top.into_sorted_vec(),
        stats: engine.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::compute_all_naive;
    use egobtw_gen::{classic, gnp, toy};

    /// Oracle: top-k from a full naive computation, tie-tolerant — asserts
    /// the returned *values* match the k best values, and that every
    /// returned vertex's value is its true value.
    fn check_against_oracle(g: &CsrGraph, k: usize, result: &TopkResult) {
        let all = compute_all_naive(g);
        let mut sorted: Vec<f64> = all.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let expect_k = k.min(g.n());
        assert_eq!(result.entries.len(), expect_k);
        for (rank, &(v, cb)) in result.entries.iter().enumerate() {
            assert!(
                (cb - all[v as usize]).abs() < 1e-9,
                "returned CB for {v} is wrong: {cb} vs {}",
                all[v as usize]
            );
            assert!(
                (cb - sorted[rank]).abs() < 1e-9,
                "rank {rank} value {cb} differs from oracle {}",
                sorted[rank]
            );
        }
    }

    #[test]
    fn paper_example2_top1_and_top3() {
        let g = toy::paper_graph();
        let r1 = base_bsearch(&g, 1);
        assert_eq!(r1.entries[0].0, toy::ids::F);
        assert!((r1.entries[0].1 - 11.0).abs() < 1e-9);
        let r3 = base_bsearch(&g, 3);
        let mut vs = r3.vertices();
        vs.sort_unstable();
        let mut expect = vec![toy::ids::F, toy::ids::X, toy::ids::I];
        expect.sort_unstable();
        assert_eq!(vs, expect);
    }

    #[test]
    fn paper_example3_computes_exactly_ten_vertices() {
        // Fig. 2: for k = 5, BaseBSearch computes c,i,f,d,x,e,h,g,b,a then
        // stops (ub(j) = 3 < CB(d) = 14/3).
        let g = toy::paper_graph();
        let r = base_bsearch(&g, 5);
        assert_eq!(r.stats.exact_computations, 10);
        let mut vs = r.vertices();
        vs.sort_unstable();
        let mut expect = vec![
            toy::ids::F,
            toy::ids::X,
            toy::ids::I,
            toy::ids::C,
            toy::ids::D,
        ];
        expect.sort_unstable();
        assert_eq!(vs, expect);
        // Exact values per Fig. 2 row.
        let by_rank = r.entries;
        assert!((by_rank[0].1 - 11.0).abs() < 1e-9);
        assert!((by_rank[1].1 - 10.0).abs() < 1e-9);
        assert!((by_rank[2].1 - 8.0).abs() < 1e-9);
        assert!((by_rank[3].1 - 41.0 / 6.0).abs() < 1e-9);
        assert!((by_rank[4].1 - 14.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let g = classic::karate_club();
        let r = base_bsearch(&g, 100);
        check_against_oracle(&g, 100, &r);
        assert_eq!(r.stats.exact_computations, g.n());
    }

    #[test]
    fn k_zero_is_empty() {
        let g = classic::star(5);
        let r = base_bsearch(&g, 0);
        assert!(r.entries.is_empty());
        assert_eq!(r.stats.exact_computations, 0);
    }

    #[test]
    fn pruning_actually_happens_on_star() {
        // Star: hub dominates; k=1 must stop after the hub (all leaves
        // have ub 0).
        let g = classic::star(50);
        let r = base_bsearch(&g, 1);
        assert_eq!(r.stats.exact_computations, 1);
        assert_eq!(r.stats.pruned, 49);
        assert_eq!(r.entries[0], (0, 49.0 * 48.0 / 2.0));
    }

    #[test]
    fn random_graphs_match_oracle_various_k() {
        for seed in 0..4 {
            let g = gnp(45, 0.12, seed);
            for k in [1, 3, 7, 20, 45] {
                let r = base_bsearch(&g, k);
                check_against_oracle(&g, k, &r);
            }
        }
    }

    #[test]
    fn results_sorted_descending() {
        let g = classic::karate_club();
        let r = base_bsearch(&g, 10);
        for w in r.entries.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
