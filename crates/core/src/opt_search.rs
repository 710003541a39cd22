//! OptBSearch — Algorithm 2, with EgoBWCal (Algorithm 3) inside the engine.
//!
//! Instead of the frozen degree bound, OptBSearch keeps vertices in a
//! max-heap keyed by the *dynamic* bound `ũb` (Lemma 3), which tightens as
//! other vertices' exact computations deposit information into the shared
//! maps. On each pop the bound is refreshed; if it dropped substantially
//! (`θ·ũb < old`), the vertex is pushed back (or pruned outright when it
//! can no longer reach the top-k) instead of being computed. The gradient
//! ratio `θ ≥ 1` trades bound-refresh cost against exact-computation cost
//! (Exp-2 sweeps it; the paper's default is 1.05).
//!
//! The heap is a lazy push-duplicates structure: `bound[v]` records the
//! value of `v`'s only *live* entry, and popped entries that disagree with
//! it are stale and skipped — the flat-structure idiom recommended over
//! decrease-key heaps.

use crate::cancel::{Cancel, Cancelled};
use crate::engine::Engine;
use crate::topk::{OrdF64, TopKSet, TopkResult};
use egobtw_graph::{CsrGraph, VertexId};
use std::collections::BinaryHeap;

/// Tuning knobs for [`opt_bsearch`].
#[derive(Clone, Copy, Debug)]
pub struct OptParams {
    /// Gradient ratio `θ ≥ 1` (paper default 1.05): a popped vertex is
    /// re-enqueued rather than computed when `θ·ũb < old_bound`.
    pub theta: f64,
}

impl Default for OptParams {
    fn default() -> Self {
        OptParams { theta: 1.05 }
    }
}

/// Runs OptBSearch for the top `k` ego-betweenness vertices.
pub fn opt_bsearch(g: &CsrGraph, k: usize, params: OptParams) -> TopkResult {
    opt_bsearch_cancellable(g, k, params, &Cancel::never())
        .expect("a never-cancelled search cannot be cancelled")
}

/// Heap pops between cancellation checkpoints in
/// [`opt_bsearch_cancellable`] — an exact computation per pop is the unit
/// of work, so this bounds wasted post-cancel work to a handful of egos.
const CANCEL_POLL_POPS: u32 = 32;

/// [`opt_bsearch`] with cooperative cancellation, polled every
/// [`CANCEL_POLL_POPS`] heap pops.
pub fn opt_bsearch_cancellable(
    g: &CsrGraph,
    k: usize,
    params: OptParams,
    cancel: &Cancel,
) -> Result<TopkResult, Cancelled> {
    assert!(params.theta >= 1.0, "θ must be ≥ 1");
    let mut engine = Engine::new(g);
    // A top-k never holds more than n entries; clamping keeps a huge
    // client-supplied k from sizing the heap.
    let mut top = TopKSet::new(k.min(g.n()));
    if k == 0 || g.n() == 0 {
        return Ok(TopkResult {
            entries: Vec::new(),
            stats: engine.stats,
        });
    }
    let n = g.n();
    // Live bound per vertex; NEG_INFINITY once computed exactly or pruned.
    let mut bound: Vec<f64> = (0..n as VertexId).map(|v| g.degree_bound(v)).collect();
    let mut heap: BinaryHeap<(OrdF64, VertexId)> = (0..n as VertexId)
        .map(|v| (OrdF64(bound[v as usize]), v))
        .collect();

    let mut pops = 0u32;
    while let Some((OrdF64(tb), v)) = heap.pop() {
        pops += 1;
        // `== 1` so the very first pop polls: a token fired before the
        // search started must cancel even a search that would terminate
        // early, and `k` small searches often pop < CANCEL_POLL_POPS times.
        if pops % CANCEL_POLL_POPS == 1 {
            cancel.check()?;
        }
        if tb != bound[v as usize] {
            continue; // stale duplicate
        }
        let fresh = engine.dynamic_bound(v);
        engine.stats.bound_refreshes += 1;
        if params.theta * fresh < tb {
            // Bound dropped substantially: requeue or prune (Alg. 2, l.8-11).
            match top.min_score() {
                Some(min_cb) if top.is_full() && fresh <= min_cb => {
                    bound[v as usize] = f64::NEG_INFINITY;
                    engine.stats.pruned += 1;
                }
                _ => {
                    bound[v as usize] = fresh;
                    heap.push((OrdF64(fresh), v));
                    engine.stats.heap_reinserts += 1;
                }
            }
            continue;
        }
        // Early termination (Alg. 2, l.12): `tb` dominates every remaining
        // bound (bounds only decrease, stale entries are never smaller).
        if top.is_full() && tb <= top.min_score().expect("full set") {
            break;
        }
        let cb = engine.complete_vertex(v);
        bound[v as usize] = f64::NEG_INFINITY;
        top.offer(v, cb);
    }
    Ok(TopkResult {
        entries: top.into_sorted_vec(),
        stats: engine.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_search::base_bsearch;
    use crate::naive::compute_all_naive;
    use egobtw_gen::{classic, gnp, toy};

    fn check_against_oracle(g: &CsrGraph, k: usize, result: &TopkResult) {
        let all = compute_all_naive(g);
        let mut sorted: Vec<f64> = all.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(result.entries.len(), k.min(g.n()));
        for (rank, &(v, cb)) in result.entries.iter().enumerate() {
            assert!((cb - all[v as usize]).abs() < 1e-9, "value for {v}");
            assert!((cb - sorted[rank]).abs() < 1e-9, "rank {rank}");
        }
    }

    #[test]
    fn paper_example4_result_and_pruning() {
        // k=5, θ=1 on the Fig. 1 graph: answers {f,x,i,c,d}; the paper's
        // trace invokes EgoBWCal six times — our heap may tie-break pops
        // differently, so assert the pruning is at least as strong as
        // BaseBSearch's ten computations and the result is exact.
        let g = toy::paper_graph();
        let r = opt_bsearch(&g, 5, OptParams { theta: 1.0 });
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
        assert!(
            r.stats.exact_computations <= 8,
            "dynamic bound should beat BaseBSearch's 10 exact computations \
             (paper trace: 6); got {}",
            r.stats.exact_computations
        );
        check_against_oracle(&g, 5, &r);
    }

    #[test]
    fn matches_base_search_values_everywhere() {
        for seed in 0..4 {
            let g = gnp(40, 0.15, seed);
            for k in [1, 5, 15, 40] {
                let b = base_bsearch(&g, k);
                let o = opt_bsearch(&g, k, OptParams::default());
                let bv: Vec<f64> = b.entries.iter().map(|e| e.1).collect();
                let ov: Vec<f64> = o.entries.iter().map(|e| e.1).collect();
                for (x, y) in bv.iter().zip(&ov) {
                    assert!((x - y).abs() < 1e-9, "seed {seed} k {k}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn oracle_on_named_graphs() {
        for g in [
            classic::karate_club(),
            classic::barbell(6),
            classic::star(12),
            classic::complete(9),
        ] {
            for k in [1, 4, 9] {
                let r = opt_bsearch(&g, k, OptParams::default());
                check_against_oracle(&g, k, &r);
            }
        }
    }

    #[test]
    fn theta_insensitive_results() {
        // θ changes work, never answers.
        let g = gnp(50, 0.1, 9);
        let reference = opt_bsearch(&g, 10, OptParams { theta: 1.0 });
        for theta in [1.05, 1.15, 1.3, 2.0] {
            let r = opt_bsearch(&g, 10, OptParams { theta });
            let rv: Vec<f64> = reference.entries.iter().map(|e| e.1).collect();
            let tv: Vec<f64> = r.entries.iter().map(|e| e.1).collect();
            for (x, y) in rv.iter().zip(&tv) {
                assert!((x - y).abs() < 1e-9, "θ={theta}");
            }
        }
    }

    #[test]
    fn prunes_at_least_as_well_as_base() {
        // Table II's headline: OptBSearch computes no more vertices
        // exactly than BaseBSearch.
        for seed in 0..3 {
            let g = gnp(60, 0.12, seed);
            for k in [5, 15] {
                let b = base_bsearch(&g, k);
                let o = opt_bsearch(&g, k, OptParams::default());
                assert!(
                    o.stats.exact_computations <= b.stats.exact_computations,
                    "seed {seed} k {k}: opt {} vs base {}",
                    o.stats.exact_computations,
                    b.stats.exact_computations
                );
            }
        }
    }

    #[test]
    fn k_zero_and_k_over_n() {
        let g = classic::star(6);
        assert!(opt_bsearch(&g, 0, OptParams::default()).entries.is_empty());
        let r = opt_bsearch(&g, 99, OptParams::default());
        assert_eq!(r.entries.len(), 6);
        check_against_oracle(&g, 99, &r);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let r = opt_bsearch(&g, 3, OptParams::default());
        assert!(r.entries.is_empty());
    }

    #[test]
    fn cancelled_search_stops_instead_of_answering() {
        let g = gnp(80, 0.1, 11);
        let token = Cancel::new();
        token.cancel();
        assert!(matches!(
            opt_bsearch_cancellable(&g, 10, OptParams::default(), &token),
            Err(Cancelled)
        ));
        // And a live token changes nothing about the answer.
        let fine = opt_bsearch_cancellable(&g, 10, OptParams::default(), &Cancel::new()).unwrap();
        let plain = opt_bsearch(&g, 10, OptParams::default());
        assert_eq!(fine.entries, plain.entries);
    }
}
