//! Experiment reproduction driver: one subcommand per table/figure of the
//! paper's evaluation (Section VI). Prints the same rows/series the paper
//! reports, on the synthetic dataset stand-ins (`egobtw_bench::standins`).
//!
//! ```text
//! cargo run --release -p egobtw-bench --bin repro -- <command> [--scale S] [--k K]
//!
//! commands:
//!   datasets   Table I     dataset statistics
//!   exp1       Fig. 6 + Table II   BaseBSearch vs OptBSearch, varying k
//!   exp2       Fig. 7      OptBSearch vs the gradient ratio θ
//!   exp3       Fig. 8      update maintenance: Local vs Lazy, insert/delete
//!   exp4       Fig. 9      scalability on edge/vertex samples
//!   exp5       Fig. 10     parallel runtime and speedup, varying threads
//!   exp6       Fig. 11     TopBW vs TopEBW: runtime and overlap
//!   exp7       Fig. 12 + Tables III/IV   case study on DB/IR stand-ins
//!   ablate     (extra)     design-choice ablations
//!   all        everything above
//! ```
//!
//! `--scale` multiplies dataset sizes (default 1.0; use 0.1–0.3 for a
//! quick pass).

use egobtw_baseline::{overlap_fraction, top_bw};
use egobtw_bench::{case_study, ms, print_table, standins, time, Dataset};
use egobtw_core::{base_bsearch, compute_all, compute_all_naive, opt_bsearch, OptParams};
use egobtw_dynamic::{LazyTopK, LocalIndex};
use egobtw_gen::sample::{edge_sample, vertex_sample};
use egobtw_graph::intersect::{
    bitmap_bitmap_intersection_count, gallop_intersection_count, intersection_count,
    intersection_count_with, merge_intersection_count, pack_bitmap,
    slice_bitmap_intersection_count, KernelParams,
};
use egobtw_graph::VertexId;
use egobtw_parallel::{edge_pebw, vertex_pebw};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let scale = flag_value(&args, "--scale").unwrap_or(1.0);
    let k_default = flag_value(&args, "--k").map(|k| k as usize).unwrap_or(500);

    match cmd {
        "datasets" => datasets(scale),
        "exp1" => exp1(scale),
        "exp2" => exp2(scale),
        "exp3" => exp3(scale, k_default),
        "exp4" => exp4(scale),
        "exp5" => exp5(scale),
        "exp6" => exp6(scale),
        "exp7" => exp7(scale),
        "ablate" => ablate(scale),
        "all" => {
            datasets(scale);
            exp1(scale);
            exp2(scale);
            exp3(scale, k_default);
            exp4(scale);
            exp5(scale);
            exp6(scale);
            exp7(scale);
            ablate(scale);
        }
        _ => {
            eprintln!(
                "usage: repro <datasets|exp1..exp7|ablate|all> [--scale S] [--k K]\n\
                 see the module docs at the top of repro.rs"
            );
            std::process::exit(2);
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

// ---------------------------------------------------------------- Table I

fn datasets(scale: f64) {
    banner(&format!("Table I: datasets (stand-ins, scale={scale})"));
    let rows: Vec<Vec<String>> = standins(scale)
        .iter()
        .map(|d| {
            vec![
                d.name.to_string(),
                d.graph.n().to_string(),
                d.graph.m().to_string(),
                d.graph.max_degree().to_string(),
                egobtw_graph::triangle::count_triangles(&d.graph).to_string(),
                d.substitutes.to_string(),
            ]
        })
        .collect();
    print_table(
        &["dataset", "n", "m", "dmax", "triangles", "substitutes"],
        &rows,
    );
}

// -------------------------------------------------- Fig. 6 + Table II

fn exp1(scale: f64) {
    banner("Exp-1 (Fig. 6): BaseBSearch vs OptBSearch runtime, varying k");
    let ks = [50usize, 100, 200, 500, 1000, 2000];
    let sets = standins(scale);
    let mut fig6: Vec<Vec<String>> = Vec::new();
    let mut table2: Vec<Vec<String>> = Vec::new();
    for d in &sets {
        for &k in &ks {
            let (rb, tb) = time(|| base_bsearch(&d.graph, k));
            let (ro, to) = time(|| opt_bsearch(&d.graph, k, OptParams::default()));
            let speedup = tb.as_secs_f64() / to.as_secs_f64().max(1e-12);
            fig6.push(vec![
                d.name.into(),
                k.to_string(),
                ms(tb),
                ms(to),
                format!("{speedup:.1}x"),
            ]);
            if matches!(k, 500 | 1000 | 2000) {
                table2.push(vec![
                    d.name.into(),
                    k.to_string(),
                    rb.stats.exact_computations.to_string(),
                    ro.stats.exact_computations.to_string(),
                ]);
            }
            // Sanity: identical value sequences.
            for (a, b) in rb.entries.iter().zip(&ro.entries) {
                assert!((a.1 - b.1).abs() < 1e-9, "base/opt disagree");
            }
        }
    }
    print_table(
        &["dataset", "k", "BaseBS (ms)", "OptBS (ms)", "speedup"],
        &fig6,
    );
    banner("Table II: #vertices computed exactly");
    print_table(&["dataset", "k", "BaseBS", "OptBS"], &table2);
}

// ------------------------------------------------------------- Fig. 7

fn exp2(scale: f64) {
    banner("Exp-2 (Fig. 7): OptBSearch vs gradient ratio θ (k=500)");
    let thetas = [1.05, 1.10, 1.15, 1.20, 1.25, 1.30];
    let sets = standins(scale);
    let mut rows = Vec::new();
    for d in sets
        .iter()
        .filter(|d| d.name == "wikitalk-like" || d.name == "livejournal-like")
    {
        for &theta in &thetas {
            let (r, t) = time(|| opt_bsearch(&d.graph, 500, OptParams { theta }));
            rows.push(vec![
                d.name.into(),
                format!("{theta:.2}"),
                ms(t),
                r.stats.exact_computations.to_string(),
                r.stats.bound_refreshes.to_string(),
            ]);
        }
    }
    print_table(
        &["dataset", "theta", "OptBS (ms)", "exact", "bound refreshes"],
        &rows,
    );
}

// ------------------------------------------------------------- Fig. 8

/// Undirected edge list, as produced by [`pick_updates`].
type EdgeList = Vec<(VertexId, VertexId)>;

/// Picks `count` random insertable non-edges and deletable edges.
fn pick_updates(g: &egobtw_graph::CsrGraph, count: usize, seed: u64) -> (EdgeList, EdgeList) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n() as VertexId;
    let mut inserts = Vec::with_capacity(count);
    while inserts.len() < count {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && !g.has_edge(u, v) {
            inserts.push((u, v));
        }
    }
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let deletes = (0..count)
        .map(|_| edges[rng.random_range(0..edges.len())])
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    (inserts, deletes)
}

fn exp3(scale: f64, k: usize) {
    banner(&format!(
        "Exp-3 (Fig. 8): maintenance — 1000 random updates, k={k}"
    ));
    let count = 1000;
    let mut rows = Vec::new();
    for d in &standins(scale) {
        let (inserts, deletes) = pick_updates(&d.graph, count, 0xF1B8);

        // Inserts.
        let mut local = LocalIndex::new(&d.graph);
        let (_, t_li) = time(|| {
            for &(u, v) in &inserts {
                local.insert_edge(u, v);
            }
        });
        let mut lazy = LazyTopK::new(&d.graph, k);
        let (_, t_zi) = time(|| {
            for &(u, v) in &inserts {
                lazy.insert_edge(u, v);
            }
        });

        // Deletes (from the original graph).
        let mut local = LocalIndex::new(&d.graph);
        let (_, t_ld) = time(|| {
            for &(u, v) in &deletes {
                local.delete_edge(u, v);
            }
        });
        let mut lazy = LazyTopK::new(&d.graph, k);
        let (_, t_zd) = time(|| {
            for &(u, v) in &deletes {
                lazy.delete_edge(u, v);
            }
        });

        let per =
            |t: std::time::Duration, c: usize| format!("{:.4}", t.as_secs_f64() * 1e3 / c as f64);
        rows.push(vec![
            d.name.into(),
            per(t_li, inserts.len()),
            per(t_zi, inserts.len()),
            per(t_ld, deletes.len()),
            per(t_zd, deletes.len()),
        ]);
    }
    print_table(
        &[
            "dataset",
            "LocalInsert (ms/op)",
            "LazyInsert (ms/op)",
            "LocalDelete (ms/op)",
            "LazyDelete (ms/op)",
        ],
        &rows,
    );
}

// ------------------------------------------------------------- Fig. 9

fn exp4(scale: f64) {
    banner("Exp-4 (Fig. 9): scalability on livejournal-like (k=500)");
    let lj = standins(scale)
        .into_iter()
        .find(|d| d.name == "livejournal-like")
        .expect("registry contains livejournal-like");
    let fracs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut rows = Vec::new();
    for &f in &fracs {
        let sub = edge_sample(&lj.graph, f, 0xE49);
        let (_, tb) = time(|| base_bsearch(&sub, 500));
        let (_, to) = time(|| opt_bsearch(&sub, 500, OptParams::default()));
        rows.push(vec![
            format!("{:.0}% edges", f * 100.0),
            sub.m().to_string(),
            ms(tb),
            ms(to),
        ]);
    }
    for &f in &fracs {
        let (sub, _) = vertex_sample(&lj.graph, f, 0xE49);
        let (_, tb) = time(|| base_bsearch(&sub, 500));
        let (_, to) = time(|| opt_bsearch(&sub, 500, OptParams::default()));
        rows.push(vec![
            format!("{:.0}% vertices", f * 100.0),
            sub.m().to_string(),
            ms(tb),
            ms(to),
        ]);
    }
    print_table(&["sample", "m", "BaseBS (ms)", "OptBS (ms)"], &rows);
}

// ------------------------------------------------------------ Fig. 10

fn exp5(scale: f64) {
    banner("Exp-5 (Fig. 10): parallel all-vertex computation on livejournal-like");
    let lj = standins(scale)
        .into_iter()
        .find(|d| d.name == "livejournal-like")
        .expect("registry contains livejournal-like");
    let (_, t_seq) = time(|| compute_all(&lj.graph));
    println!("sequential edge-centric baseline: {} ms", ms(t_seq));
    let mut rows = Vec::new();
    for &t in &[1usize, 4, 8, 12, 16] {
        let (_, tv) = time(|| vertex_pebw(&lj.graph, t));
        let (_, te) = time(|| edge_pebw(&lj.graph, t));
        rows.push(vec![
            t.to_string(),
            ms(tv),
            format!("{:.1}", t_seq.as_secs_f64() / tv.as_secs_f64().max(1e-12)),
            ms(te),
            format!("{:.1}", t_seq.as_secs_f64() / te.as_secs_f64().max(1e-12)),
        ]);
    }
    print_table(
        &[
            "threads",
            "VertexPEBW (ms)",
            "speedup",
            "EdgePEBW (ms)",
            "speedup",
        ],
        &rows,
    );
}

// ------------------------------------------------------------ Fig. 11

fn run_bw_vs_ebw(d: &Dataset, ks: &[usize], threads: usize) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    // Betweenness is k-independent; compute once.
    let (bc, t_bw_all) = time(|| egobtw_baseline::betweenness_parallel(&d.graph, threads));
    let mut ranked: Vec<VertexId> = (0..d.graph.n() as VertexId).collect();
    ranked.sort_by(|&a, &b| bc[b as usize].total_cmp(&bc[a as usize]).then(a.cmp(&b)));
    for &k in ks {
        let (ebw, t_ebw) = time(|| opt_bsearch(&d.graph, k, OptParams::default()));
        let ev: Vec<VertexId> = ebw.entries.iter().map(|e| e.0).collect();
        let bv: Vec<VertexId> = ranked.iter().copied().take(k).collect();
        rows.push(vec![
            d.name.into(),
            k.to_string(),
            ms(t_bw_all),
            ms(t_ebw),
            format!(
                "{:.0}x",
                t_bw_all.as_secs_f64() / t_ebw.as_secs_f64().max(1e-12)
            ),
            format!("{:.0}%", 100.0 * overlap_fraction(&bv, &ev)),
        ]);
    }
    rows
}

fn exp6(scale: f64) {
    let threads = std::thread::available_parallelism().map_or(8, |p| p.get());
    banner(&format!(
        "Exp-6 (Fig. 11): TopBW (Brandes × {threads} threads) vs TopEBW"
    ));
    let ks = [50usize, 100, 200, 500, 1000, 2000];
    let mut rows = Vec::new();
    for d in standins(scale)
        .into_iter()
        .filter(|d| d.name == "wikitalk-like" || d.name == "pokec-like")
    {
        rows.extend(run_bw_vs_ebw(&d, &ks, threads));
    }
    print_table(
        &[
            "dataset",
            "k",
            "TopBW (ms)",
            "TopEBW (ms)",
            "speedup",
            "overlap",
        ],
        &rows,
    );
}

// ------------------------------------- Fig. 12 + Tables III / IV

fn exp7(scale: f64) {
    let threads = std::thread::available_parallelism().map_or(8, |p| p.get());
    banner("Exp-7 (Fig. 12): case study on DB-like / IR-like collaboration graphs");
    let ks = [10usize, 50, 100, 150, 200, 250];
    let sets = case_study(scale);
    let mut rows = Vec::new();
    for d in &sets {
        println!(
            "{}: n={} m={} ({})",
            d.name,
            d.graph.n(),
            d.graph.m(),
            d.substitutes
        );
        rows.extend(run_bw_vs_ebw(d, &ks, threads));
    }
    print_table(
        &[
            "dataset",
            "k",
            "TopBW (ms)",
            "TopEBW (ms)",
            "speedup",
            "overlap",
        ],
        &rows,
    );

    banner("Tables III/IV: top-10 authors, EBW vs BW side by side");
    for d in &sets {
        let ebw = opt_bsearch(&d.graph, 10, OptParams::default());
        let bw = top_bw(&d.graph, 10, threads);
        let in_bw: Vec<VertexId> = bw.iter().map(|e| e.0).collect();
        let in_ebw: Vec<VertexId> = ebw.entries.iter().map(|e| e.0).collect();
        println!(
            "\n{} (authors appearing in both lists are starred):",
            d.name
        );
        let rows: Vec<Vec<String>> = (0..10)
            .map(|i| {
                let (ve, cbe) = ebw.entries[i];
                let (vb, btb) = bw[i];
                vec![
                    format!("{}author-{ve}", if in_bw.contains(&ve) { "*" } else { " " }),
                    d.graph.degree(ve).to_string(),
                    format!("{cbe:.1}"),
                    format!(
                        "{}author-{vb}",
                        if in_ebw.contains(&vb) { "*" } else { " " }
                    ),
                    d.graph.degree(vb).to_string(),
                    format!("{btb:.1}"),
                ]
            })
            .collect();
        print_table(&["Top-10 EBW", "d", "CB", "Top-10 BW", "d", "BT"], &rows);
    }
}

// ------------------------------------------------------------ ablations

fn ablate(scale: f64) {
    banner("Ablations: design choices");
    let d = standins(scale)
        .into_iter()
        .find(|d| d.name == "dblp-like")
        .expect("registry contains dblp-like");
    let g = &d.graph;

    // (a) shared-work engine vs per-ego straightforward algorithm.
    let (_, t_engine) = time(|| compute_all(g));
    let (_, t_naive) = time(|| compute_all_naive(g));
    // (b) ordered-engine full sweep (BaseBSearch with k = n): measures the
    //     cn-list bookkeeping overhead the edge-centric pass avoids.
    let (_, t_ordered) = time(|| base_bsearch(g, g.n()));
    print_table(
        &["variant", "all-vertices (ms)"],
        &[
            vec!["edge-centric shared engine".into(), ms(t_engine)],
            vec!["ordered engine (BaseBSearch k=n)".into(), ms(t_ordered)],
            vec!["per-ego straightforward".into(), ms(t_naive)],
        ],
    );
    kernel_ablations();
}

/// Id universe of the kernel ablations' synthetic adjacency rows.
const UNIVERSE: u32 = 1 << 20;

/// `len` distinct ids below [`UNIVERSE`], ascending: an adjacency-row shape.
fn sorted_random(len: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < len {
        set.insert(rng.random_range(0..UNIVERSE));
    }
    set.into_iter().collect()
}

/// Nanoseconds per call of `f`: the best of five timed batches of `reps`
/// calls, so one descheduled batch does not skew a kernel's row.
fn ns_per_call(reps: usize, mut f: impl FnMut() -> usize) -> String {
    let best = (0..5)
        .map(|_| {
            time(|| {
                for _ in 0..reps {
                    black_box(f());
                }
            })
            .1
        })
        .min()
        .expect("five batches");
    format!("{:.1}", best.as_nanos() as f64 / reps as f64)
}

/// The intersection-kernel measurements behind `KernelParams`' defaults:
/// merge vs gallop vs the adaptive dispatch across length skews, the
/// bitmap kernels on hub-shaped rows, and a `gallop_ratio` sweep on the
/// mid-skew shape where the merge/gallop crossover sits.
fn kernel_ablations() {
    const REPS: usize = 1_000;
    println!("\nIntersection kernels, ns per call (2^20-id universe):");
    let mut rows = Vec::new();
    for (la, lb) in [(1_000usize, 1_000usize), (32, 10_000), (4, 50_000)] {
        let a = sorted_random(la, 1);
        let b = sorted_random(lb, 2);
        rows.push(vec![
            format!("{la}x{lb}"),
            ns_per_call(REPS, || merge_intersection_count(&a, &b)),
            ns_per_call(REPS, || gallop_intersection_count(&a, &b)),
            ns_per_call(REPS, || intersection_count(&a, &b)),
        ]);
    }
    print_table(&["shape", "merge", "gallop", "adaptive"], &rows);

    let words = (UNIVERSE as usize).div_ceil(64);
    let hub_a = sorted_random(20_000, 11);
    let hub_b = sorted_random(16_000, 12);
    let row_a = pack_bitmap(&hub_a, words);
    let row_b = pack_bitmap(&hub_b, words);
    println!("\nBitmap kernels vs slice kernels on hub rows, ns per call:");
    let mut rows = Vec::new();
    for probe_len in [8usize, 64, 1_024] {
        let probe = sorted_random(probe_len, 13);
        rows.push(vec![
            format!("{probe_len}x{}", hub_a.len()),
            ns_per_call(REPS, || merge_intersection_count(&probe, &hub_a)),
            ns_per_call(REPS, || gallop_intersection_count(&probe, &hub_a)),
            ns_per_call(REPS, || slice_bitmap_intersection_count(&probe, &row_a)),
            "-".into(),
        ]);
    }
    rows.push(vec![
        format!("{}x{}", hub_a.len(), hub_b.len()),
        ns_per_call(REPS, || merge_intersection_count(&hub_a, &hub_b)),
        "-".into(),
        "-".into(),
        ns_per_call(REPS, || bitmap_bitmap_intersection_count(&row_a, &row_b)),
    ]);
    print_table(
        &["shape", "merge", "gallop", "slice_bitmap", "bitmap_bitmap"],
        &rows,
    );

    let a = sorted_random(64, 21);
    let b = sorted_random(4_096, 22);
    println!("\nKernelParams::gallop_ratio sweep on 64x4096, ns per call:");
    let rows: Vec<Vec<String>> = [1usize, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|ratio| {
            let params = KernelParams {
                gallop_ratio: ratio,
                ..KernelParams::new()
            };
            vec![
                ratio.to_string(),
                ns_per_call(REPS, || intersection_count_with(&a, &b, &params)),
            ]
        })
        .collect();
    print_table(&["gallop_ratio", "adaptive"], &rows);
}
