//! Banded dynamic time warping (paper Algorithm 1).
//!
//! The recurrence fills a cost matrix `DTW[i][j] = (a_i − b_j)² +
//! min(DTW[i−1][j], DTW[i][j−1], DTW[i−1][j−1])` restricted to a
//! Sakoe–Chiba band of half-width `w`, and returns
//! `sqrt(DTW[n−1][m−1])`. Two rolling rows keep memory at `O(m)` instead
//! of the paper's didactic `T × T` matrix.

/// DTW distance between `a` and `b` under band half-width `window`.
///
/// Sequences may have different lengths; the band is widened to at least
/// `|len(a) − len(b)|` so a path always exists. `window = usize::MAX`
/// gives unconstrained DTW. Returns `0.0` when both inputs are empty and
/// `f64::INFINITY` when exactly one is.
pub fn dtw_distance(a: &[f64], b: &[f64], window: usize) -> f64 {
    dtw_distance_early_abandon(a, b, window, f64::INFINITY)
}

/// Reusable scratch space for the two rolling DTW rows.
///
/// `dtw_distance_early_abandon` allocates two fresh `Vec`s per call,
/// which dominates the cost of short-series comparisons in the hot
/// `O(n²)` clustering loops. Callers that evaluate many pairs (the
/// Ball-Tree leaf verification, the Descender pairwise matrix) keep one
/// `DtwScratch` per thread and pass it to
/// [`dtw_distance_early_abandon_scratch`]; the buffers grow to the
/// largest series seen and are reused verbatim afterwards.
#[derive(Debug, Clone, Default)]
pub struct DtwScratch {
    prev: Vec<f64>,
    curr: Vec<f64>,
}

impl DtwScratch {
    /// Empty scratch; rows are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure both rows hold at least `len` cells, all set to +∞.
    fn reset(&mut self, len: usize) {
        self.prev.clear();
        self.prev.resize(len, f64::INFINITY);
        self.curr.clear();
        self.curr.resize(len, f64::INFINITY);
    }
}

/// DTW with early abandoning: returns `f64::INFINITY` as soon as every
/// cell of the current row exceeds `cutoff²`, where `cutoff` is the best
/// (smallest) distance found so far by the caller. Used by the Ball-Tree
/// and the LB_Keogh-filtered scans.
///
/// Allocates two rolling rows per call; hot loops should prefer
/// [`dtw_distance_early_abandon_scratch`] with a reused [`DtwScratch`].
pub fn dtw_distance_early_abandon(a: &[f64], b: &[f64], window: usize, cutoff: f64) -> f64 {
    let mut scratch = DtwScratch::new();
    dtw_distance_early_abandon_scratch(a, b, window, cutoff, &mut scratch)
}

/// [`dtw_distance_early_abandon`] with caller-provided row buffers —
/// bitwise-identical results, zero allocations once the scratch has
/// grown to the longest series in play.
pub fn dtw_distance_early_abandon_scratch(
    a: &[f64],
    b: &[f64],
    window: usize,
    cutoff: f64,
    scratch: &mut DtwScratch,
) -> f64 {
    let n = a.len();
    let m = b.len();
    if n == 0 && m == 0 {
        return 0.0;
    }
    if n == 0 || m == 0 {
        return f64::INFINITY;
    }
    // A path must cover the length difference.
    let w = window.max(n.abs_diff(m));
    let cutoff_sq = if cutoff.is_finite() { cutoff * cutoff } else { f64::INFINITY };

    scratch.reset(m + 1);
    let mut prev = &mut scratch.prev;
    let mut curr = &mut scratch.curr;
    prev[0] = 0.0;
    for i in 1..=n {
        let lo = i.saturating_sub(w).max(1);
        let hi = i.saturating_add(w).min(m);
        if lo > hi {
            return f64::INFINITY;
        }
        // `reset` filled both rows with +∞ once per call. The band
        // edges lo(i)/hi(i) are nondecreasing in i, so every in-band
        // cell of this row is overwritten below before anyone reads it,
        // and every out-of-band cell the next row consults still holds
        // +∞ from the initial fill — except `curr[lo − 1]`, which row
        // i−2 may have left finite. One write replaces the old O(m)
        // per-row fill.
        curr[lo - 1] = f64::INFINITY;
        let ai = a[i - 1];
        let mut row_min = f64::INFINITY;
        // Branch-light inner loop: the early-abandon check is hoisted
        // out of the loop (one comparison per row), the running minimum
        // compiles to a select, and the left/diagonal neighbours ride
        // in registers instead of being re-loaded from the row buffers.
        // `up.min(diag)` is computed off the loop-carried chain, so the
        // serial dependence per cell is one `min` plus one add; the
        // reorder is bitwise-safe because every cell is a non-NaN value
        // in [+0.0, +∞] (no −0.0 can arise from squares and sums of
        // them), where `min` is exactly associative.
        let mut diag = prev[lo - 1];
        let mut left = f64::INFINITY;
        for j in lo..=hi {
            let d = ai - b[j - 1];
            let up = prev[j];
            let best = up.min(diag).min(left);
            let v = d * d + best;
            curr[j] = v;
            row_min = row_min.min(v);
            diag = up;
            left = v;
        }
        if row_min > cutoff_sq {
            return f64::INFINITY;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m].sqrt()
}

/// Reference oracle for [`dtw_distance_early_abandon_scratch`]: the
/// pre-optimization kernel, kept verbatim (full per-row +∞ fill,
/// branchy row minimum) so property tests and the `kernels` criterion
/// bench can prove the banded kernel bitwise-identical and measure the
/// win.
pub fn dtw_distance_early_abandon_reference(
    a: &[f64],
    b: &[f64],
    window: usize,
    cutoff: f64,
) -> f64 {
    let n = a.len();
    let m = b.len();
    if n == 0 && m == 0 {
        return 0.0;
    }
    if n == 0 || m == 0 {
        return f64::INFINITY;
    }
    let w = window.max(n.abs_diff(m));
    let cutoff_sq = if cutoff.is_finite() { cutoff * cutoff } else { f64::INFINITY };

    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        let lo = i.saturating_sub(w).max(1);
        let hi = i.saturating_add(w).min(m);
        if lo > hi {
            return f64::INFINITY;
        }
        let ai = a[i - 1];
        let mut row_min = f64::INFINITY;
        for j in lo..=hi {
            let d = ai - b[j - 1];
            let cost = d * d;
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            let v = cost + best;
            curr[j] = v;
            if v < row_min {
                row_min = v;
            }
        }
        if row_min > cutoff_sq {
            return f64::INFINITY;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m].sqrt()
}

/// Squared Euclidean "lock-step" distance — the baseline DTW beats; only
/// defined for equal lengths.
///
/// # Panics
/// Panics when lengths differ.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean distance requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let a = [1.0, 2.0, 3.0, 2.0];
        assert_eq!(dtw_distance(&a, &a, 2), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = [1.0, 3.0, 4.0, 9.0];
        let b = [1.0, 2.0, 4.0, 8.0, 9.0];
        assert!((dtw_distance(&a, &b, 3) - dtw_distance(&b, &a, 3)).abs() < 1e-12);
    }

    #[test]
    fn known_small_case() {
        // a = [0, 1], b = [0, 1, 1]: warp the trailing 1 -> distance 0.
        assert_eq!(dtw_distance(&[0.0, 1.0], &[0.0, 1.0, 1.0], 5), 0.0);
    }

    #[test]
    fn shifted_sequence_is_closer_under_dtw_than_euclid() {
        // A sine and its shifted copy: Euclid sees a big gap, DTW almost none.
        let n = 64;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64 - 3.0) * 0.2).sin()).collect();
        let d_dtw = dtw_distance(&a, &b, 8);
        let d_euc = euclidean(&a, &b);
        assert!(d_dtw < 0.4 * d_euc, "dtw {d_dtw} should be far below euclid {d_euc}");
    }

    #[test]
    fn unconstrained_band_matches_large_window() {
        let a = [3.0, 1.0, 4.0, 1.0, 5.0];
        let b = [2.0, 7.0, 1.0, 8.0, 2.0];
        let full = dtw_distance(&a, &b, usize::MAX);
        let wide = dtw_distance(&a, &b, 5);
        assert!((full - wide).abs() < 1e-12);
    }

    #[test]
    fn window_zero_equal_length_equals_euclidean() {
        // With w = 0 the only path is the diagonal.
        let a = [1.0, 5.0, 2.0];
        let b = [2.0, 3.0, 4.0];
        assert!((dtw_distance(&a, &b, 0) - euclidean(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn narrower_window_never_decreases_distance() {
        let a = [0.0, 2.0, 4.0, 2.0, 0.0, 2.0];
        let b = [0.0, 0.0, 2.0, 4.0, 2.0, 0.0];
        let d1 = dtw_distance(&a, &b, 1);
        let d3 = dtw_distance(&a, &b, 3);
        let d5 = dtw_distance(&a, &b, 5);
        assert!(d1 >= d3 - 1e-12);
        assert!(d3 >= d5 - 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dtw_distance(&[], &[], 1), 0.0);
        assert_eq!(dtw_distance(&[1.0], &[], 1), f64::INFINITY);
        assert_eq!(dtw_distance(&[], &[1.0], 1), f64::INFINITY);
    }

    #[test]
    fn length_difference_widens_band() {
        // window 0 but different lengths: still finite because the band
        // must at least cover |n - m|.
        let d = dtw_distance(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 3.0, 3.0], 0);
        assert!(d.is_finite());
    }

    #[test]
    fn early_abandon_returns_infinity_when_cut() {
        let a = [0.0; 16];
        let b = [100.0; 16];
        let exact = dtw_distance(&a, &b, 4);
        assert!(exact > 1.0);
        let cut = dtw_distance_early_abandon(&a, &b, 4, 1.0);
        assert_eq!(cut, f64::INFINITY);
        // And does not cut when the cutoff is generous.
        let kept = dtw_distance_early_abandon(&a, &b, 4, exact + 1.0);
        assert!((kept - exact).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn euclidean_length_mismatch_panics() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn banded_kernel_matches_reference_bitwise_over_seeded_corpus() {
        // The band-footprint clear and branch-light inner loop must
        // reproduce the old kernel bit-for-bit over a corpus covering
        // ragged lengths, band widths 0/1/huge, and cut/uncut paths.
        let mut scratch = DtwScratch::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        };
        let lens = [1usize, 2, 3, 7, 16, 33, 64];
        let series: Vec<Vec<f64>> =
            lens.iter().map(|&l| (0..l).map(|_| next()).collect()).collect();
        for a in &series {
            for b in &series {
                for window in [0usize, 1, 4, 1000, usize::MAX] {
                    for cutoff in [f64::INFINITY, 25.0, 3.0, 0.1] {
                        let reference =
                            dtw_distance_early_abandon_reference(a, b, window, cutoff);
                        let banded = dtw_distance_early_abandon_scratch(
                            a, b, window, cutoff, &mut scratch,
                        );
                        assert_eq!(
                            reference.to_bits(),
                            banded.to_bits(),
                            "len {}x{} window {} cutoff {}",
                            a.len(),
                            b.len(),
                            window,
                            cutoff
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_variant_is_bitwise_identical_across_reuse() {
        // One scratch reused across pairs of *different* lengths must
        // give exactly the fresh-allocation result every time, cut or
        // uncut — stale cells from a longer earlier pair must not leak.
        let mut scratch = DtwScratch::new();
        let series: Vec<Vec<f64>> = vec![
            (0..48).map(|i| (i as f64 * 0.3).sin()).collect(),
            (0..12).map(|i| i as f64).collect(),
            (0..33).map(|i| (i as f64 * 0.7).cos() * 3.0).collect(),
            vec![5.0; 20],
            vec![],
        ];
        for a in &series {
            for b in &series {
                for cutoff in [f64::INFINITY, 10.0, 0.5] {
                    let fresh = dtw_distance_early_abandon(a, b, 4, cutoff);
                    let reused =
                        dtw_distance_early_abandon_scratch(a, b, 4, cutoff, &mut scratch);
                    assert_eq!(fresh.to_bits(), reused.to_bits());
                }
            }
        }
    }
}
