//! The one place percentiles, medians and spreads are computed. Samples
//! are nanoseconds from `Instant`, so a microsecond-scale call can no
//! longer read as `p50_us: 0`; a percentile always comes with its
//! sample count and is refused when fewer than ten samples lie beyond
//! it, because a tail read off a handful of points is noise.

use crate::metrics::Better;

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: u64,
    /// Samples the percentile was read from.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `sorted` (ascending):
/// the smallest sample with at least `q` of the data at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank must be in (0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Sort and read a percentile; the run fails loudly when the workload
/// was sized too small to support the percentile it declares.
pub fn percentile_of(samples: &mut [u64], q: f64, what: &str) -> Percentile {
    samples.sort_unstable();
    percentile(samples, q).unwrap_or_else(|| {
        panic!(
            "{what}: {} samples cannot support p{}",
            samples.len(),
            q * 100.0
        )
    })
}

/// Median over repetitions (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repetitions");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("repetition values are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timed repetition: `passes` back-to-back passes of a fixed
/// operation count (for ingest, on one fresh store).
#[derive(Debug, Clone)]
pub struct Round<T> {
    /// Whether spans were recorded during the round (traced runs time
    /// every other round without them).
    pub traced: bool,
    pub passes: Vec<T>,
}

/// The value a stage reports for one metric: its **best pass** over the
/// traced or the untraced rounds. Host interference only ever slows a
/// pass, so the best one is the one the host disturbed least.
pub fn best<T>(rounds: &[Round<T>], traced: bool, better: Better, f: impl Fn(&T) -> f64) -> f64 {
    rounds
        .iter()
        .filter(|r| r.traced == traced)
        .flat_map(|r| r.passes.iter().map(&f))
        .reduce(|a, b| match better {
            Better::Higher => a.max(b),
            Better::Lower => a.min(b),
        })
        .expect("a stage has a pass of each kind")
}

/// First and third quartile by the exclusive method — the same cut
/// points Python's `statistics.quantiles(values, n=4)` gives, which is
/// what the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(
            percentile(&v, 0.50),
            Some(Percentile {
                value: 50,
                samples: 100
            })
        );
        assert_eq!(
            percentile(&v, 0.90),
            Some(Percentile {
                value: 90,
                samples: 100
            })
        );
        // p99 of 100 samples has one sample beyond it: refused.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1100).collect();
        assert_eq!(percentile(&v, 0.99).map(|p| p.value), Some(1089));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn sub_microsecond_samples_keep_their_resolution() {
        // The BENCH_10 failure: 400 ns calls reported in whole µs read 0.
        let v = vec![380u64; 64];
        let p = percentile(&v, 0.5).expect("64 samples support a median");
        assert_eq!(p.value, 380);
        assert!(p.value as f64 / 1e3 > 0.0);
    }

    #[test]
    fn best_is_the_best_pass_of_the_rounds_asked_for() {
        let round = |traced, passes: &[f64]| Round {
            traced,
            passes: passes.to_vec(),
        };
        let rounds = [
            round(false, &[5.0, 3.0, 9.0]),
            round(true, &[1.0, 12.0]),
            round(false, &[4.0, 8.0]),
        ];
        assert_eq!(best(&rounds, false, Better::Lower, |v| *v), 3.0);
        assert_eq!(best(&rounds, false, Better::Higher, |v| *v), 9.0);
        assert_eq!(best(&rounds, true, Better::Lower, |v| *v), 1.0);
        assert_eq!(best(&rounds, true, Better::Higher, |v| *v), 12.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartiles(&[11.0, 1.0, 7.0, 2.0, 4.0]), (1.5, 9.0));
    }
}
