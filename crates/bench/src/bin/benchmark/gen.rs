//! Seeded input generation. `--seed` drives literals, the shape
//! permutation, Zipf draws and arrival noise — never how many shapes,
//! templates, bins or events a workload has, so two seeds load the
//! system identically and differ only in the bytes it sees. The program
//! under test receives nothing but what this module produced.

/// SplitMix64: a tiny, fast, well-mixed generator whose whole state is
/// the seed — the same seed gives the same stream on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// The statement text of stream shape `shape` with the given literals.
/// Shapes differ in identifiers (so they canonicalize to distinct
/// templates); literals never change the template.
pub fn stream_sql(shape: usize, key: u64, tenant: u64) -> String {
    format!("SELECT c{shape} FROM stream_rel_{shape} WHERE key = {key} AND tenant = {tenant}")
}

/// A pre-generated, cycled statement pool for the ingest stage: `len`
/// statements walking a seeded permutation of a `shapes`-shape universe
/// round-robin, each with seeded literals. With `shapes` below the
/// 8 192-entry fingerprint caches every statement after the first lap
/// is a cache hit; with `shapes` far above them every statement misses.
pub fn stream_pool(seed: u64, shapes: usize, len: usize) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let perm = rng.permutation(shapes);
    (0..len)
        .map(|i| stream_sql(perm[i % shapes], rng.below(1_000_000), rng.below(7)))
        .collect()
}

/// The periodic workload the serving, training and recovery stages run
/// on: six phase-shifted sinusoidal families × four volume scales ×
/// variants, one template each, with a slow trend and arrival noise.
#[derive(Debug, Clone)]
pub struct Periodic {
    /// Drives the literals.
    seed: u64,
    /// Drives the arrival rounding.
    noise_seed: u64,
}

/// Bin width of every workload, seconds (the forecasting interval).
pub const BIN_SECS: u64 = 60;
/// Phase-shifted periodic shapes; template `t` belongs to `t % FAMILIES`.
const FAMILIES: usize = 6;
/// Volume multipliers cycled within a family.
const SCALES: [u64; 4] = [2, 3, 4, 6];
/// Bins over which the trend doubles the rate (a slow drift: 10 % over
/// the first 200 bins).
const TREND_BINS: f64 = 2_000.0;
/// Half-width of the per-family, per-bin load shock, as a share of the
/// rate.
const SHOCK: f64 = 0.3;

impl Periodic {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            noise_seed: seed,
        }
    }

    /// The same workload with arrival counts that do not follow the
    /// seed — only the literals do. The companion store is loaded with
    /// it: what its barely trained models make of the holdout swings
    /// ±15 % with the last digit of an arrival count, and
    /// `holdout_nmse` has one bound for every workload.
    pub fn with_fixed_arrivals(seed: u64) -> Self {
        Self {
            seed,
            noise_seed: 0,
        }
    }

    /// Statement text for template `t` with literal `lit`. The text of
    /// a template does not follow the seed: routing, and with it which
    /// families share a shard and which clusters make the top K, is the
    /// same under every seed, so seeds differ in literals and arrival
    /// noise and not in how much there is to train.
    pub fn sql(&self, t: usize, lit: u64) -> String {
        format!(
            "SELECT v{t} FROM periodic_{t} WHERE id = {lit} AND region = {}",
            lit % 5
        )
    }

    /// Arrival rate of template `t` in bin `bin`: a sinusoid whose
    /// period and phase its family sets, on a slow upward trend, times
    /// the template's volume scale, times a load shock every template of
    /// the family shares in that bin. The wave moves the rate between
    /// one and three times the scale, so predicting the previous bin has
    /// a real error for a forecaster to beat; the shock does not average
    /// out over a cluster's members, and a forecaster that smooths it
    /// pays for it once where last-value pays twice. Every scale of a
    /// family z-normalizes to the same shape, so the density clustering
    /// finds the families under any seed.
    fn rate(&self, t: usize, bin: u64) -> f64 {
        let family = t % FAMILIES;
        let f = family as f64;
        let period = 12.0 + 6.0 * f;
        let wave = (std::f64::consts::TAU * (bin as f64 + 5.0 * f) / period).sin();
        let trend = 1.0 + bin as f64 / TREND_BINS;
        let shock = 1.0
            + SHOCK
                * (2.0
                    * Rng::new((family as u64) << 56 ^ bin.wrapping_mul(0xD1B5_4A32_D192_ED03))
                        .unit()
                    - 1.0);
        SCALES[(t / FAMILIES) % SCALES.len()] as f64 * (2.0 + wave) * trend * shock
    }

    fn noise_rng(&self, t: usize, bin: u64) -> Rng {
        Rng::new(self.noise_seed ^ (t as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ (bin << 20))
    }

    /// Arrivals of template `t` in bin `bin`: the rate rounded up or
    /// down at random in proportion to its fraction — the arrival noise.
    /// A pure function of (seed, t, bin), so any bin range can be
    /// generated on its own.
    pub fn arrivals(&self, t: usize, bin: u64) -> u64 {
        let rate = self.rate(t, bin);
        rate.floor() as u64 + u64::from(self.noise_rng(t, bin).unit() < rate.fract())
    }

    /// The events of template `t` in bin `bin` as `(ts_secs, sql)`,
    /// spread evenly over the bin, each with a seeded literal.
    pub fn bin_events(&self, t: usize, bin: u64) -> impl Iterator<Item = (u64, String)> + '_ {
        let n = self.arrivals(t, bin);
        let mut rng =
            Rng::new(self.seed ^ (t as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ (bin << 20));
        (0..n).map(move |k| {
            (
                bin * BIN_SECS + k * BIN_SECS / n,
                self.sql(t, rng.below(100_000)),
            )
        })
    }
}

/// Zipf(1) sampler over `n` ranks by inverse-CDF table lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / r as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event of bins `[0, bins)`, bin by bin, template by template.
    fn events(p: &Periodic, templates: usize, bins: u64) -> Vec<(u64, String)> {
        (0..bins)
            .flat_map(|bin| (0..templates).flat_map(move |t| p.bin_events(t, bin)))
            .collect()
    }

    /// FNV-1a over everything a seed generates at the given sizes.
    fn input_digest(seed: u64, shapes: usize, pool: usize, templates: usize, bins: u64) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for s in stream_pool(seed, shapes, pool) {
            eat(s.as_bytes());
        }
        let p = Periodic::new(seed);
        for (ts, sql) in events(&p, templates, bins) {
            eat(&ts.to_le_bytes());
            eat(sql.as_bytes());
        }
        let z = Zipf::new(templates);
        let mut rng = Rng::new(seed);
        for _ in 0..256 {
            eat(&(z.draw(&mut rng) as u64).to_le_bytes());
        }
        h
    }

    #[test]
    fn one_seed_is_byte_identical_and_two_seeds_differ() {
        let a = input_digest(7, 64, 500, 24, 6);
        assert_eq!(a, input_digest(7, 64, 500, 24, 6));
        assert_ne!(a, input_digest(8, 64, 500, 24, 6));
    }

    #[test]
    fn seed_never_changes_shape_or_template_counts() {
        for seed in [1u64, 2, 99] {
            let pool = stream_pool(seed, 64, 640);
            let shapes: std::collections::HashSet<String> = pool
                .iter()
                .map(|s| dbaugur_sqlproc::canonicalize(s))
                .collect();
            assert_eq!(shapes.len(), 64);
            let p = Periodic::new(seed);
            let tpls: std::collections::HashSet<String> = events(&p, 24, 3)
                .iter()
                .map(|(_, s)| dbaugur_sqlproc::canonicalize(s))
                .collect();
            assert_eq!(tpls.len(), 24, "every template arrives in every bin");
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(50);
        let mut rng = Rng::new(3);
        let mut hist = [0usize; 50];
        for _ in 0..20_000 {
            hist[z.draw(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[9] && hist[9] > hist[49]);
        assert!(
            hist[0] > 3_000 && hist[0] < 6_000,
            "rank 1 share ~ 1/H(50): {}",
            hist[0]
        );
    }
}
