//! Exact k-nearest-neighbour search under squared Euclidean distance.
//!
//! [`k_nearest`] finds, for every row of a matrix, the `k` other rows
//! closest to it. It returns exactly what the brute-force search in
//! [`reference::brute_force_knn`] returns, on every SIMD tier, without
//! materialising or sorting any per-row candidate list:
//!
//! * **Distances.** Rows are packed once into lane-major blocks of 8
//!   candidates, and a 4-anchor × 8-candidate register tile sweeps the
//!   columns in ascending order (see `kernels::dist_strip_v`). Each lane runs the sequential chain
//!   `acc = acc + (a − b)·(a − b)` with separate roundings — never a fused
//!   multiply-add, not even on the `fma`/`avx512` tiers — so every distance
//!   is bit-identical to the scalar `map(..).sum()` of the brute force.
//! * **Selection.** A bounded top-k insertion replaces collect + sort. It
//!   keeps the total `(distance, index)` order; candidates are offered in
//!   ascending index order, so an exact tie resolves to the lower index,
//!   just as the stable sort did.
//! * **Parallelism.** Anchors are split into tasks of a few tiles each.
//!   Within a task the candidates are streamed in stripes small enough to
//!   stay in L2 while every tile of the task visits them. A task owns its
//!   anchors' lists outright, so results do not depend on thread count.
//!
//! Because the output is a discrete choice, not a float, "close enough" is
//! not an option: the tier-independence above is the whole contract, and
//! `tests/smote_knn.rs` pins it against the frozen brute force.

use rayon::prelude::*;

use crate::kernels::{dist_strip, DIST_L, DIST_MR};
use crate::simd::{active_tier, SimdTier};
use crate::Matrix;

/// Anchor tiles per parallel task.
const TILES_PER_TASK: usize = 8;

/// Candidate blocks per stripe: at 79 columns a stripe is about 160 KB, so
/// it stays cache-resident while every anchor tile of a task sweeps it.
const STRIPE_BLOCKS: usize = 32;

/// The `k` nearest other rows of every row of `points`, nearest first.
///
/// Distances are squared Euclidean over all columns; ties resolve to the
/// lower row index. `k` is clamped to `rows − 1`, and every returned list
/// has `capacity() == len()`.
///
/// # Panics
///
/// Panics with "finite distances" if any pairwise distance is NaN (which
/// needs a non-finite input value), as the brute force did.
pub fn k_nearest(points: &Matrix, k: usize) -> Vec<Vec<usize>> {
    k_nearest_on(active_tier(), points, k)
}

/// [`k_nearest`] on an explicit tier (in-crate tests sweep every tier the
/// host supports in one process).
pub(crate) fn k_nearest_on(tier: SimdTier, points: &Matrix, k: usize) -> Vec<Vec<usize>> {
    let n = points.rows();
    let cols = points.cols();
    let k = k.min(n.saturating_sub(1));
    if k == 0 {
        return vec![Vec::new(); n];
    }
    let blocks = n.div_ceil(DIST_L);
    let packed = pack_lane_major(points, blocks);
    let block_len = cols * DIST_L;
    let task_rows = TILES_PER_TASK * DIST_MR;

    let per_task: Vec<Vec<Vec<usize>>> = (0..n.div_ceil(task_rows))
        .into_par_iter()
        .map(|task| {
            let first = task * task_rows;
            let end = (first + task_rows).min(n);
            let mut best: Vec<TopK> = (first..end).map(|_| TopK::new(k)).collect();
            let mut dist = vec![0.0; STRIPE_BLOCKS * DIST_MR * DIST_L];
            for b0 in (0..blocks).step_by(STRIPE_BLOCKS) {
                let stripe_blocks = STRIPE_BLOCKS.min(blocks - b0);
                let stripe = &packed[b0 * block_len..(b0 + stripe_blocks) * block_len];
                for i0 in (first..end).step_by(DIST_MR) {
                    // A short last tile repeats its final row; those lanes
                    // are computed and ignored.
                    let anchors: [&[f64]; DIST_MR] =
                        std::array::from_fn(|m| points.row((i0 + m).min(end - 1)));
                    dist_strip(tier, &anchors, stripe, stripe_blocks, cols, &mut dist);
                    for b in 0..stripe_blocks {
                        let j0 = (b0 + b) * DIST_L;
                        let live = DIST_L.min(n - j0);
                        for m in 0..DIST_MR.min(end - i0) {
                            let i = i0 + m;
                            let top = &mut best[i - first];
                            let tile = &dist[(b * DIST_MR + m) * DIST_L..][..live];
                            for (l, &d) in tile.iter().enumerate() {
                                if j0 + l != i {
                                    top.offer(d, j0 + l);
                                }
                            }
                        }
                    }
                }
            }
            best.into_iter().map(TopK::into_indices).collect()
        })
        .collect();
    per_task.into_iter().flatten().collect()
}

/// Pack `points` into `blocks` lane-major blocks of `DIST_L` rows:
/// `packed[(b·cols + c)·DIST_L + l]` is column `c` of row `b·DIST_L + l`.
/// Lanes past the last row stay zero; their distances are never read.
fn pack_lane_major(points: &Matrix, blocks: usize) -> Vec<f64> {
    let cols = points.cols();
    let mut packed = vec![0.0; blocks * cols * DIST_L];
    for r in 0..points.rows() {
        let (b, l) = (r / DIST_L, r % DIST_L);
        let block = &mut packed[b * cols * DIST_L..(b + 1) * cols * DIST_L];
        for (c, &v) in points.row(r).iter().enumerate() {
            block[c * DIST_L + l] = v;
        }
    }
    packed
}

/// The `k` best `(distance, index)` pairs seen so far, ascending.
struct TopK {
    k: usize,
    items: Vec<(f64, usize)>,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k),
        }
    }

    /// Offer candidate `j` at distance `d`. Candidates must arrive in
    /// ascending `j`, so a candidate tied with a kept one ranks after it.
    #[inline]
    fn offer(&mut self, d: f64, j: usize) {
        if self.items.len() == self.k {
            // NaN fails this test and reaches the assert below.
            if d >= self.items[self.k - 1].0 {
                return;
            }
            self.items.pop();
        }
        assert!(!d.is_nan(), "finite distances");
        let at = self.items.partition_point(|&(e, _)| e <= d);
        self.items.insert(at, (d, j));
    }

    fn into_indices(self) -> Vec<usize> {
        self.items.iter().map(|&(_, j)| j).collect()
    }
}

/// The seed-state brute-force neighbour search, frozen verbatim as the
/// oracle for [`k_nearest`] and as the baseline of `perf_report`'s
/// `smote_knn_*` entry (`baseline_kind: "seed_knn"`). Every anchor collects
/// all `n − 1` `(index, distance)` pairs, sorts them stably by distance and
/// keeps `k`. Nothing here may be optimised: the recorded speedup is
/// measured against it.
pub mod reference {
    use rayon::prelude::*;

    use crate::Matrix;

    /// The squared Euclidean distance exactly as the seed computed it.
    pub(crate) fn squared_distance(row_a: &[f64], row_b: &[f64]) -> f64 {
        row_a
            .iter()
            .zip(row_b)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Brute-force kNN, parallel over anchor rows.
    ///
    /// # Panics
    ///
    /// Panics with "finite distances" when the sort meets a NaN distance.
    pub fn brute_force_knn(points: &Matrix, k: usize) -> Vec<Vec<usize>> {
        (0..points.rows())
            .into_par_iter()
            .map(|i| {
                let row_i = points.row(i);
                let mut distances: Vec<(usize, f64)> = (0..points.rows())
                    .filter(|&j| j != i)
                    .map(|j| (j, squared_distance(row_i, points.row(j))))
                    .collect();
                distances.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
                distances.truncate(k);
                distances.into_iter().map(|(j, _)| j).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::detected_max_tier;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TIERS: [SimdTier; 5] = [
        SimdTier::Scalar,
        SimdTier::Sse2,
        SimdTier::Avx2,
        SimdTier::Fma,
        SimdTier::Avx512,
    ];

    /// Random rows on a coarse grid (many exact ties), with some rows
    /// duplicated outright.
    fn points(rng: &mut StdRng, n: usize, cols: usize) -> Matrix {
        let mut data: Vec<f64> = (0..n * cols)
            .map(|_| f64::from(rng.gen_range(0..4u8)) * 0.5 - 0.75)
            .collect();
        for r in 1..n {
            if rng.gen_range(0..5) == 0 {
                let src = rng.gen_range(0..r);
                data.copy_within(src * cols..(src + 1) * cols, r * cols);
            }
        }
        Matrix::from_vec(n, cols, data)
    }

    #[test]
    fn every_supported_tier_matches_the_brute_force() {
        let mut rng = StdRng::seed_from_u64(17);
        for &tier in TIERS.iter().filter(|&&t| t <= detected_max_tier()) {
            for (n, cols, k) in [(1, 3, 5), (2, 1, 5), (9, 5, 3), (37, 79, 5), (300, 7, 4)] {
                let x = points(&mut rng, n, cols);
                assert_eq!(
                    k_nearest_on(tier, &x, k),
                    reference::brute_force_knn(&x, k),
                    "{tier:?} n={n} cols={cols} k={k}"
                );
            }
        }
    }

    #[test]
    fn tile_distances_are_bit_identical_to_the_scalar_chain() {
        // Full-precision values, where a fused multiply-add would round
        // differently from the separate multiply and add.
        let mut rng = StdRng::seed_from_u64(5);
        let (n, cols) = (21, 79);
        let data: Vec<f64> = (0..n * cols).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let x = Matrix::from_vec(n, cols, data);
        let blocks = n.div_ceil(DIST_L);
        let packed = pack_lane_major(&x, blocks);
        let anchors: [&[f64]; DIST_MR] = std::array::from_fn(|m| x.row(5 * m));
        for &tier in TIERS.iter().filter(|&&t| t <= detected_max_tier()) {
            let mut out = vec![f64::NAN; blocks * DIST_MR * DIST_L];
            dist_strip(tier, &anchors, &packed, blocks, cols, &mut out);
            for (m, anchor) in anchors.iter().enumerate() {
                for j in 0..n {
                    let (b, l) = (j / DIST_L, j % DIST_L);
                    let want = reference::squared_distance(anchor, x.row(j));
                    let got = out[(b * DIST_MR + m) * DIST_L + l];
                    assert_eq!(got.to_bits(), want.to_bits(), "{tier:?} anchor {m} row {j}");
                }
            }
        }
    }

    #[test]
    fn zero_columns_rank_by_index_and_zero_k_is_empty() {
        let x = Matrix::zeros(6, 0);
        assert_eq!(k_nearest(&x, 2), reference::brute_force_knn(&x, 2));
        assert_eq!(k_nearest(&x, 0), vec![Vec::<usize>::new(); 6]);
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn nan_distances_panic_like_the_brute_force() {
        let mut x = Matrix::zeros(4, 2);
        x.set(2, 1, f64::NAN);
        k_nearest(&x, 2);
    }
}
