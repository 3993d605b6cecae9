//! The forecaster abstraction shared by every model in the zoo.

use crate::guard::TrainHealth;
use dbaugur_trace::WindowSpec;

/// A single-trace forecaster (paper Definition 4): observes a history
/// window of length `spec.history` and predicts the value
/// `spec.horizon` intervals past the window's end.
///
/// `Sync` because `predict` takes `&self`: a fitted model behind a
/// reader-writer lock is read by concurrent forecasts.
pub trait Forecaster: Send + Sync {
    /// Short display name (matches the labels of the paper's figures).
    fn name(&self) -> &'static str;

    /// Fit on a training series. Implementations build their own
    /// supervised windows from `train` under `spec` and remember the
    /// spec; `predict` windows must have length `spec.history`.
    fn fit(&mut self, train: &[f64], spec: WindowSpec);

    /// Predict the value `horizon` intervals after the window's last
    /// element. Must not mutate the model (dynamic ensembles learn via
    /// [`Forecaster::observe`] instead).
    fn predict(&self, window: &[f64]) -> f64;

    /// Predict many windows at once. The contract is bitwise: element
    /// `i` must equal `self.predict(windows[i])` exactly — batching is
    /// a kernel-level optimization (one N-row matmul instead of N
    /// row-vector matmuls for neural members), never a semantic change.
    /// The default loops `predict`; models with a batched forward pass
    /// override it.
    fn predict_batch(&self, windows: &[&[f64]]) -> Vec<f64> {
        windows.iter().map(|w| self.predict(w)).collect()
    }

    /// Feed back an observed target for the window that was used to
    /// predict it. Default: no-op. The time-sensitive ensemble uses this
    /// to maintain its per-member error history (Eqn. 7).
    fn observe(&mut self, _window: &[f64], _actual: f64) {}

    /// Serialized parameter size in bytes (Table II "Storage"); 0 for
    /// models that are not parameter-based.
    fn storage_bytes(&self) -> usize {
        0
    }

    /// Outcome of the last `fit` for guard-aware models. Classical
    /// models cannot diverge and report `Healthy`; neural members
    /// override this with the verdict of their [`crate::TrainGuard`]
    /// run, which the ensemble uses to quarantine failed members.
    fn health(&self) -> TrainHealth {
        TrainHealth::Healthy
    }

    /// Export the fitted state as opaque bytes for checkpointing.
    /// `None` means the model carries no persistable parameters
    /// (classical members refit deterministically instead). Neural
    /// members override this via `models::persist`.
    fn export_state(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state previously produced by [`Forecaster::export_state`]
    /// on an identically configured, already-fitted instance. Returns
    /// `false` when unsupported or when the bytes are rejected (the
    /// model is left unchanged in that case).
    fn import_state(&mut self, _bytes: &[u8]) -> bool {
        false
    }
}

/// Blanket impl so `Box<dyn Forecaster>` composes into ensembles.
impl Forecaster for Box<dyn Forecaster> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn fit(&mut self, train: &[f64], spec: WindowSpec) {
        self.as_mut().fit(train, spec)
    }

    fn predict(&self, window: &[f64]) -> f64 {
        self.as_ref().predict(window)
    }

    fn predict_batch(&self, windows: &[&[f64]]) -> Vec<f64> {
        self.as_ref().predict_batch(windows)
    }

    fn observe(&mut self, window: &[f64], actual: f64) {
        self.as_mut().observe(window, actual)
    }

    fn storage_bytes(&self) -> usize {
        self.as_ref().storage_bytes()
    }

    fn health(&self) -> TrainHealth {
        self.as_ref().health()
    }

    fn export_state(&mut self) -> Option<Vec<u8>> {
        self.as_mut().export_state()
    }

    fn import_state(&mut self, bytes: &[u8]) -> bool {
        self.as_mut().import_state(bytes)
    }
}

/// A trivial forecaster predicting the window's last value (random-walk
/// baseline; handy in tests and as a sanity floor).
#[derive(Debug, Clone, Default)]
pub struct Naive;

impl Forecaster for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn fit(&mut self, _train: &[f64], _spec: WindowSpec) {}

    fn predict(&self, window: &[f64]) -> f64 {
        window.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_predicts_last() {
        let mut n = Naive;
        n.fit(&[1.0, 2.0], WindowSpec::new(2, 1));
        assert_eq!(n.predict(&[5.0, 7.0]), 7.0);
        assert_eq!(n.predict(&[]), 0.0);
    }

    #[test]
    fn boxed_forecaster_delegates() {
        let mut b: Box<dyn Forecaster> = Box::new(Naive);
        b.fit(&[0.0; 4], WindowSpec::new(2, 1));
        assert_eq!(b.name(), "naive");
        assert_eq!(b.predict(&[1.0, 9.0]), 9.0);
        assert_eq!(b.storage_bytes(), 0);
    }
}
