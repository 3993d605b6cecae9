//! Evaluation datasets and experiment scale.

use dbaugur_trace::synth;
use dbaugur_trace::Trace;

/// Experiment scale, selected by the `DBAUGUR_SCALE` environment
/// variable (`quick` / `standard` / `full`).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable name.
    pub name: &'static str,
    /// BusTracker-like dataset length in days (paper: 58).
    pub bustracker_days: usize,
    /// Alibaba-like dataset length in days (paper: 6).
    pub alibaba_days: usize,
    /// MLP training epochs.
    pub epochs_mlp: usize,
    /// LSTM training epochs.
    pub epochs_lstm: usize,
    /// TCN training epochs.
    pub epochs_tcn: usize,
    /// WFGAN training epochs.
    pub epochs_wfgan: usize,
    /// Per-epoch example cap for every neural model.
    pub max_examples: usize,
    /// Forecasting horizons (in 10-minute intervals) for BusTracker.
    pub horizons_bus: Vec<usize>,
    /// Forecasting horizons for the Alibaba disk trace.
    pub horizons_ali: Vec<usize>,
}

impl Scale {
    /// Resolve from `DBAUGUR_SCALE`: unset means `standard`. Any other
    /// value than the three names exits non-zero, so a mistyped smoke
    /// run cannot train at the wrong size under the wrong label.
    pub fn from_env() -> Self {
        let value = std::env::var("DBAUGUR_SCALE").ok();
        Self::parse(value.as_deref()).unwrap_or_else(|bad| {
            eprintln!("error: DBAUGUR_SCALE={bad:?} is not one of quick|standard|full");
            std::process::exit(2);
        })
    }

    /// The scale a `DBAUGUR_SCALE` value names (`None` = unset), or the
    /// rejected value.
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            Some("quick") => Ok(Self::quick()),
            None | Some("standard") => Ok(Self::standard()),
            Some("full") => Ok(Self::full()),
            Some(other) => Err(other.to_string()),
        }
    }

    /// Smoke-test scale: seconds per figure.
    pub fn quick() -> Self {
        Self {
            name: "quick",
            bustracker_days: 4,
            alibaba_days: 3,
            epochs_mlp: 5,
            epochs_lstm: 3,
            epochs_tcn: 3,
            epochs_wfgan: 3,
            max_examples: 200,
            horizons_bus: vec![1, 6],
            horizons_ali: vec![1, 6],
        }
    }

    /// Default scale: minutes per figure on one core; enough data and
    /// epochs for the paper's orderings to emerge.
    pub fn standard() -> Self {
        Self {
            name: "standard",
            bustracker_days: 21,
            alibaba_days: 6,
            epochs_mlp: 30,
            epochs_lstm: 18,
            epochs_tcn: 25,
            epochs_wfgan: 18,
            max_examples: 1000,
            horizons_bus: vec![1, 3, 9, 18, 36],
            horizons_ali: vec![1, 3, 6, 12, 24],
        }
    }

    /// Paper-sized scale (hours of CPU).
    pub fn full() -> Self {
        Self {
            name: "full",
            bustracker_days: 58,
            alibaba_days: 6,
            epochs_mlp: 40,
            epochs_lstm: 50,
            epochs_tcn: 50,
            epochs_wfgan: 50,
            max_examples: 4000,
            horizons_bus: vec![1, 3, 6, 18, 36, 72],
            horizons_ali: vec![1, 3, 6, 12, 24, 48],
        }
    }
}

/// Fixed seed so every run of every binary sees identical data.
pub const DATA_SEED: u64 = 42;

/// The BusTracker-like query-rate dataset.
pub fn bustracker(scale: &Scale) -> Trace {
    synth::bustracker(DATA_SEED, scale.bustracker_days)
}

/// The Alibaba-like disk-utilization dataset.
pub fn alibaba(scale: &Scale) -> Trace {
    synth::alibaba_disk(DATA_SEED.wrapping_add(1), scale.alibaba_days)
}

/// The paper's 70/30 chronological split point.
pub fn split_point(trace: &Trace) -> usize {
    (trace.len() as f64 * 0.7).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let s = Scale::standard();
        let f = Scale::full();
        assert!(q.bustracker_days < s.bustracker_days);
        assert!(s.bustracker_days <= f.bustracker_days);
        assert!(q.epochs_wfgan <= s.epochs_wfgan);
    }

    #[test]
    fn scale_parser_accepts_the_three_names_and_rejects_the_rest() {
        let name = |v| Scale::parse(v).map(|s| s.name);
        assert_eq!(name(None), Ok("standard"));
        assert_eq!(name(Some("quick")), Ok("quick"));
        assert_eq!(name(Some("standard")), Ok("standard"));
        assert_eq!(name(Some("full")), Ok("full"));
        assert_eq!(name(Some("quikc")), Err("quikc".to_string()));
        assert_eq!(name(Some("Quick")), Err("Quick".to_string()));
        assert_eq!(name(Some("")), Err(String::new()));
    }

    #[test]
    fn datasets_are_deterministic() {
        let s = Scale::quick();
        assert_eq!(bustracker(&s).values(), bustracker(&s).values());
        assert_eq!(alibaba(&s).values(), alibaba(&s).values());
    }

    #[test]
    fn split_is_seventy_percent() {
        let s = Scale::quick();
        let t = bustracker(&s);
        let cut = split_point(&t);
        assert!((cut as f64 / t.len() as f64 - 0.7).abs() < 0.01);
    }
}
