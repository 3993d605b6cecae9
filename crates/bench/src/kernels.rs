//! Seeded workloads for the compute-kernel criterion bench
//! (`benches/kernels.rs`): matrices for blocked matmul vs the naive
//! reference, series for the banded DTW inner loop vs the
//! pre-optimization kernel.

use dbaugur_nn::Mat;

/// Deterministic xorshift stream in `[-10, 10)` — no RNG dependency so
/// the workload is identical everywhere.
pub struct SeededStream(u64);

impl SeededStream {
    /// Stream seeded so different call sites can diverge.
    pub fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// Next value in `[-10, 10)`.
    pub fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    }
}

/// A seeded `rows × cols` matrix.
pub fn seeded_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut s = SeededStream::new(seed);
    Mat::from_fn(rows, cols, |_, _| s.next_f64())
}

/// A seeded series of length `len` (smooth + noise, like a binned
/// arrival-rate trace).
pub fn seeded_series(len: usize, seed: u64) -> Vec<f64> {
    let mut s = SeededStream::new(seed);
    (0..len)
        .map(|i| 50.0 + 30.0 * (i as f64 * 0.07).sin() + s.next_f64() * 0.5)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_workloads_are_deterministic() {
        assert_eq!(seeded_mat(4, 5, 7).as_slice(), seeded_mat(4, 5, 7).as_slice());
        assert_eq!(seeded_series(16, 3), seeded_series(16, 3));
    }
}
