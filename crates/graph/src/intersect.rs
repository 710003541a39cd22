//! Intersection kernels: sorted slices and packed bitmaps.
//!
//! Common-neighbor queries `N(a) ∩ N(b)` dominate the full-computation and
//! dynamic paths. Four kernels are provided:
//!
//! * a linear **merge** (best when the slices have similar lengths);
//! * a **galloping**/binary variant (best when one slice is much shorter,
//!   as happens constantly on power-law graphs);
//! * **slice×bitmap**: one membership bit-test per element of the short
//!   slice, when the long side has a packed bitmap row (hub rows in
//!   [`crate::CsrGraph`]'s hybrid adjacency);
//! * **bitmap×bitmap**: word-wise `AND` (+ popcount for counting), when
//!   both sides have rows and the slices are long enough that scanning
//!   `n/64` words beats probing.
//!
//! [`intersect_into`] / [`intersection_count`] pick adaptively between the
//! slice kernels; the bitmap-aware dispatch lives in
//! [`crate::CsrGraph::common_neighbors_into_with`], because only the graph
//! knows which vertices own bitmap rows. All thresholds are carried by
//! [`KernelParams`] so harnesses can pin or sweep them.

use crate::VertexId;

/// Dispatch thresholds for the adaptive intersection kernels.
///
/// The defaults are the values chosen by the kernel ablations of
/// `repro ablate` (`crates/bench/src/bin/repro.rs`);
/// [`KernelParams::legacy`] pins the pre-hybrid behavior (merge/gallop
/// only, as shipped before bitmap rows existed) for baseline timing in
/// `bench/src/bin/perf.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Length ratio above which galloping beats the linear merge
    /// (`short · gallop_ratio < long`). 16–64 are all reasonable; see the
    /// `gallop_ratio` sweep of `repro ablate`.
    pub gallop_ratio: usize,
    /// Bitmap×bitmap is chosen over probing the short slice into the long
    /// row when `short_len · bitmap_word_ratio ≥ words_per_row` — i.e. one
    /// 64-bit word op is costed at `1/bitmap_word_ratio` slice probes.
    pub bitmap_word_ratio: usize,
}

impl KernelParams {
    /// The tuned defaults (also what [`Default`] returns; `const` so the
    /// zero-argument entry points stay allocation- and branch-free).
    pub const fn new() -> Self {
        KernelParams {
            gallop_ratio: 32,
            bitmap_word_ratio: 4,
        }
    }

    /// The pre-hybrid kernel behavior: merge/gallop dispatch exactly as it
    /// shipped before bitmap rows existed. Used by the perf harness to
    /// measure speedups against the recorded baseline — pair it with a
    /// bitmap-free graph (`HybridConfig::disabled()`): params steer the
    /// bitmap×bitmap/slice×bitmap choice but cannot disable hub rows a
    /// graph already carries.
    pub const fn legacy() -> Self {
        KernelParams {
            gallop_ratio: 32,
            // `short·ratio ≥ words_per_row` picks bitmap×bitmap, so 0
            // means "never" (rows have ≥ 1 word).
            bitmap_word_ratio: 0,
        }
    }
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams::new()
    }
}

/// Appends `a ∩ b` to `out` (both inputs strictly ascending), picking
/// merge or gallop with the default [`KernelParams`].
#[inline]
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    intersect_into_with(a, b, &KernelParams::new(), out);
}

/// [`intersect_into`] with explicit dispatch thresholds.
#[inline]
pub fn intersect_into_with(
    a: &[VertexId],
    b: &[VertexId],
    params: &KernelParams,
    out: &mut Vec<VertexId>,
) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len().saturating_mul(params.gallop_ratio) < long.len() {
        gallop_intersect_into(short, long, out);
    } else {
        merge_intersect_into(a, b, out);
    }
}

/// `|a ∩ b|` without materializing the intersection, with the default
/// [`KernelParams`].
#[inline]
pub fn intersection_count(a: &[VertexId], b: &[VertexId]) -> usize {
    intersection_count_with(a, b, &KernelParams::new())
}

/// [`intersection_count`] with explicit dispatch thresholds.
#[inline]
pub fn intersection_count_with(a: &[VertexId], b: &[VertexId], params: &KernelParams) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len().saturating_mul(params.gallop_ratio) < long.len() {
        gallop_intersection_count(short, long)
    } else {
        merge_intersection_count(a, b)
    }
}

/// Linear two-pointer merge intersection.
pub fn merge_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Counting variant of [`merge_intersect_into`].
pub fn merge_intersection_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Exponential (galloping) search for `x` in `hay[from..]`; returns the
/// index of the first element `>= x`.
#[inline]
fn gallop(hay: &[VertexId], from: usize, x: VertexId) -> usize {
    let mut step = 1;
    let mut lo = from;
    let mut hi = from;
    while hi < hay.len() && hay[hi] < x {
        lo = hi;
        hi = (hi + step).min(hay.len());
        step <<= 1;
    }
    lo + hay[lo..hi].partition_point(|&y| y < x)
}

/// Galloping intersection: for each element of the short slice, gallop
/// through the long slice. `O(s · log(l/s))`.
pub fn gallop_intersect_into(short: &[VertexId], long: &[VertexId], out: &mut Vec<VertexId>) {
    let mut from = 0;
    for &x in short {
        let at = gallop(long, from, x);
        if at < long.len() && long[at] == x {
            out.push(x);
            from = at + 1;
        } else {
            from = at;
        }
        if from >= long.len() {
            break;
        }
    }
}

/// Counting variant of [`gallop_intersect_into`].
pub fn gallop_intersection_count(short: &[VertexId], long: &[VertexId]) -> usize {
    let mut from = 0;
    let mut c = 0;
    for &x in short {
        let at = gallop(long, from, x);
        if at < long.len() && long[at] == x {
            c += 1;
            from = at + 1;
        } else {
            from = at;
        }
        if from >= long.len() {
            break;
        }
    }
    c
}

/// Appends the elements of `slice` whose bit is set in `words` (a packed
/// bitmap over vertex ids: bit `v` of word `v / 64`). Output order follows
/// `slice`, so an ascending slice yields an ascending intersection. Ids at
/// or beyond `64 · words.len()` are treated as absent.
pub fn slice_bitmap_intersect_into(slice: &[VertexId], words: &[u64], out: &mut Vec<VertexId>) {
    for &x in slice {
        let w = x as usize >> 6;
        if w < words.len() && words[w] & (1u64 << (x & 63)) != 0 {
            out.push(x);
        }
    }
}

/// Counting variant of [`slice_bitmap_intersect_into`].
pub fn slice_bitmap_intersection_count(slice: &[VertexId], words: &[u64]) -> usize {
    slice
        .iter()
        .filter(|&&x| {
            let w = x as usize >> 6;
            w < words.len() && words[w] & (1u64 << (x & 63)) != 0
        })
        .count()
}

/// Appends the set bits of the word-wise `AND` of two equal-universe
/// packed bitmaps, decoded as ascending vertex ids.
pub fn bitmap_bitmap_intersect_into(a: &[u64], b: &[u64], out: &mut Vec<VertexId>) {
    for (i, (&wa, &wb)) in a.iter().zip(b).enumerate() {
        let mut w = wa & wb;
        while w != 0 {
            out.push((i as u32) << 6 | w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// Counting variant of [`bitmap_bitmap_intersect_into`]: pure `AND` +
/// popcount, no decode.
pub fn bitmap_bitmap_intersection_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(&wa, &wb)| (wa & wb).count_ones() as usize)
        .sum()
}

/// Packs a strictly ascending id slice into a bitmap with `words` words
/// (ids `≥ 64 · words` are ignored). Helper for tests and benches; the
/// hybrid graph builds its hub rows directly.
pub fn pack_bitmap(slice: &[VertexId], words: usize) -> Vec<u64> {
    let mut out = vec![0u64; words];
    for &x in slice {
        let w = x as usize >> 6;
        if w < words {
            out[w] |= 1u64 << (x & 63);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn basic_cases() {
        let mut out = Vec::new();
        intersect_into(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
        assert_eq!(intersection_count(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(intersection_count(&[], &[1, 2]), 0);
        assert_eq!(intersection_count(&[1, 2], &[]), 0);
    }

    #[test]
    fn gallop_skewed() {
        let long: Vec<u32> = (0..10_000).map(|x| x * 3).collect();
        let short = vec![3, 2_997, 29_997, 50_000];
        let mut out = Vec::new();
        gallop_intersect_into(&short, &long, &mut out);
        assert_eq!(out, vec![3, 2_997, 29_997]);
        assert_eq!(gallop_intersection_count(&short, &long), 3);
    }

    #[test]
    fn bitmap_kernels_basic() {
        let a = [1u32, 3, 64, 127, 128, 300];
        let b = [3u32, 64, 65, 128, 299];
        let words = 6; // universe 0..384
        let ba = pack_bitmap(&a, words);
        let bb = pack_bitmap(&b, words);
        let expect = vec![3u32, 64, 128];

        let mut out = Vec::new();
        slice_bitmap_intersect_into(&a, &bb, &mut out);
        assert_eq!(out, expect);
        out.clear();
        bitmap_bitmap_intersect_into(&ba, &bb, &mut out);
        assert_eq!(out, expect);
        assert_eq!(slice_bitmap_intersection_count(&b, &ba), 3);
        assert_eq!(bitmap_bitmap_intersection_count(&ba, &bb), 3);
        // Ids beyond the bitmap universe are treated as absent.
        assert_eq!(slice_bitmap_intersection_count(&[10_000], &ba), 0);
    }

    #[test]
    fn params_dispatch_matches_fixed_kernels() {
        let a: Vec<u32> = (0..400).map(|x| x * 2).collect();
        let b = vec![4u32, 100, 399, 400];
        let merge_only = KernelParams {
            gallop_ratio: usize::MAX,
            ..KernelParams::new()
        };
        let gallop_always = KernelParams {
            gallop_ratio: 0,
            ..KernelParams::new()
        };
        let mut m = Vec::new();
        intersect_into_with(&a, &b, &merge_only, &mut m);
        let mut g = Vec::new();
        intersect_into_with(&a, &b, &gallop_always, &mut g);
        assert_eq!(m, g);
        assert_eq!(m, vec![4, 100, 400]);
        assert_eq!(intersection_count_with(&a, &b, &merge_only), 3);
        assert_eq!(intersection_count_with(&a, &b, &gallop_always), 3);
        assert_eq!(KernelParams::default(), KernelParams::new());
    }

    /// Random strictly-ascending slice: up to 120 values drawn from 0..500.
    fn sorted_vec(rng: &mut StdRng) -> Vec<u32> {
        let len = rng.random_range(0..120usize);
        let mut s = std::collections::BTreeSet::new();
        for _ in 0..len {
            s.insert(rng.random_range(0..500u32));
        }
        s.into_iter().collect()
    }

    /// Randomized equivalence check (seeded, 512 cases): every kernel must
    /// agree with the quadratic reference on arbitrary sorted inputs.
    #[test]
    fn kernels_agree() {
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        for _ in 0..512 {
            let a = sorted_vec(&mut rng);
            let b = sorted_vec(&mut rng);
            let expect = naive(&a, &b);

            let mut m = Vec::new();
            merge_intersect_into(&a, &b, &mut m);
            assert_eq!(m, expect);

            let (short, long) = if a.len() <= b.len() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            let mut g = Vec::new();
            gallop_intersect_into(short, long, &mut g);
            assert_eq!(g, expect);

            let mut ad = Vec::new();
            intersect_into(&a, &b, &mut ad);
            assert_eq!(ad, expect);

            assert_eq!(merge_intersection_count(&a, &b), expect.len());
            assert_eq!(gallop_intersection_count(short, long), expect.len());
            assert_eq!(intersection_count(&a, &b), expect.len());
        }
    }
}
