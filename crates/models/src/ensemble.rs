//! Ensembles: QB5000 (equal-weight LR+LSTM+KR) and DBAugur's
//! time-sensitive ensemble of WFGAN, TCN and MLP (paper Sec. V-C).
//!
//! The time-sensitive ensemble maintains, per member `i`, the
//! *forecasting distance* of Eqn. 7 — `Γ(e(i), t) = Σ_j δ^{t−j} e_j(i)`,
//! an exponentially attenuated sum of squared errors — updated
//! incrementally as `Γ ← δ·Γ + e_t`. Ensemble weights follow Eqn. 8:
//! `w_t(i) = (Σ_j Γ(j) − Γ(i)) / (2 Σ_j Γ(j))`, which sum to 1 and give
//! recently accurate members more say. Members train in parallel ("the
//! three models can be trained in parallel", Sec. III).
//!
//! # Degradation policy
//!
//! The time-sensitive ensemble tolerates member failure instead of
//! propagating it:
//!
//! * a member whose `fit` panics, or whose [`Forecaster::health`]
//!   reports a failed guarded-training run, is **quarantined** — its
//!   dynamic weight is zeroed and redistributed over the active members;
//! * a member that produces a non-finite prediction during `observe` is
//!   quarantined at runtime (non-finite predictions during `predict`
//!   are skipped per call without permanent quarantine);
//! * when every member is out, the ensemble serves its always-fitted
//!   fallback floor (a [`SeasonalNaive`] by default).
//!
//! Quarantine state resets on the next `fit`.

use crate::forecaster::Forecaster;
use crate::guard::TrainHealth;
use crate::kr::KernelRegression;
use crate::lr::LinearRegression;
use crate::lstm::LstmForecaster;
use crate::mlp::MlpForecaster;
use crate::seasonal::SeasonalNaive;
use crate::tcn::TcnForecaster;
use crate::wfgan::Wfgan;
use dbaugur_exec::{Deadline, Executor, TaskError};
use dbaugur_trace::WindowSpec;
use std::borrow::Cow;
use std::sync::Arc;

/// Fit every member through the bounded executor ("the three models
/// can be trained in parallel", Sec. III) instead of spawning one OS
/// thread per member. Panics are caught per member; the returned
/// vector holds the panic message for each member whose `fit` did not
/// complete (`None` = fitted cleanly). Each member trains with its own
/// pre-seeded RNG state, so results do not depend on the worker count.
fn fit_members(
    members: &mut [Box<dyn Forecaster>],
    train: &[f64],
    spec: WindowSpec,
    exec: &Executor,
) -> Vec<Option<String>> {
    exec.try_map_mut(members, |_, m| m.fit(train, spec))
        .into_iter()
        .map(|outcome| outcome.err())
        .collect()
}

/// Deadline-governed variant of [`fit_members`]: members whose task was
/// still queued at expiry are skipped (left unfitted) and report
/// [`TaskError::Expired`]; members already training finish normally.
fn fit_members_governed(
    members: &mut [Box<dyn Forecaster>],
    train: &[f64],
    spec: WindowSpec,
    exec: &Executor,
    deadline: &Deadline,
) -> Vec<Option<TaskError>> {
    exec.try_map_mut_deadline(members, deadline, |_, m| m.fit(train, spec))
        .into_iter()
        .map(|outcome| outcome.err())
        .collect()
}

/// A fixed-weight ensemble (the Fig. 7 baseline, and QB5000's mechanism).
pub struct FixedEnsemble {
    name: &'static str,
    members: Vec<Box<dyn Forecaster>>,
    weights: Vec<f64>,
    exec: Arc<Executor>,
}

impl FixedEnsemble {
    /// Equal-weight ensemble over `members`.
    ///
    /// # Panics
    /// Panics on an empty member list.
    pub fn equal(name: &'static str, members: Vec<Box<dyn Forecaster>>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let w = 1.0 / members.len() as f64;
        let weights = vec![w; members.len()];
        Self { name, members, weights, exec: Executor::global() }
    }

    /// Explicit weights (normalized by the caller).
    ///
    /// # Panics
    /// Panics when lengths mismatch or the list is empty.
    pub fn weighted(
        name: &'static str,
        members: Vec<Box<dyn Forecaster>>,
        weights: Vec<f64>,
    ) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        assert_eq!(members.len(), weights.len(), "one weight per member");
        Self { name, members, weights, exec: Executor::global() }
    }

    /// Route member training through `exec` instead of the process-wide
    /// shared pool.
    pub fn set_executor(&mut self, exec: Arc<Executor>) {
        self.exec = exec;
    }

    /// Member names (for reports).
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }
}

impl Forecaster for FixedEnsemble {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, train: &[f64], spec: WindowSpec) {
        // Fixed-weight baselines keep fail-fast semantics: with static
        // weights there is no principled way to reassign a dead member's
        // share, so a member panic propagates (with a better message).
        let outcomes = fit_members(&mut self.members, train, spec, &self.exec);
        for (m, outcome) in self.members.iter().zip(outcomes) {
            if let Some(msg) = outcome {
                panic!("{} member {} panicked during fit: {msg}", self.name, m.name());
            }
        }
    }

    fn predict(&self, window: &[f64]) -> f64 {
        self.members
            .iter()
            .zip(&self.weights)
            .map(|(m, w)| w * m.predict(window))
            .sum()
    }

    fn storage_bytes(&self) -> usize {
        self.members.iter().map(|m| m.storage_bytes()).sum()
    }
}

/// QB5000 (Ma et al., SIGMOD'18): "QB5000 makes the forecast by equally
/// averaging the results of LR, LSTM and KR."
pub struct Qb5000 {
    inner: FixedEnsemble,
}

impl Qb5000 {
    /// The paper's QB5000 configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: FixedEnsemble::equal(
                "QB5000",
                vec![
                    Box::new(LinearRegression::default()),
                    Box::new(LstmForecaster::new(seed)),
                    Box::new(KernelRegression::default()),
                ],
            ),
        }
    }
}

impl Forecaster for Qb5000 {
    fn name(&self) -> &'static str {
        "QB5000"
    }

    fn fit(&mut self, train: &[f64], spec: WindowSpec) {
        self.inner.fit(train, spec);
    }

    fn predict(&self, window: &[f64]) -> f64 {
        self.inner.predict(window)
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
}

/// One member's status in a [`TimeSensitiveEnsemble`] report.
#[derive(Debug, Clone)]
pub struct MemberState {
    /// Member display name.
    pub name: &'static str,
    /// Guarded-training outcome of the last fit.
    pub health: TrainHealth,
    /// Whether the member is excluded from weighting.
    pub quarantined: bool,
    /// Human-readable quarantine cause, when quarantined.
    pub reason: Option<String>,
}

/// The dynamic state of a [`TimeSensitiveEnsemble`] captured for a
/// durable checkpoint (see [`TimeSensitiveEnsemble::export_snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSnapshot {
    /// Attenuation factor δ at capture time.
    pub delta: f64,
    /// Fitted history length (0 = never fitted).
    pub history: usize,
    /// Forecasting distances Γ, aligned with the member roster.
    pub gamma: Vec<f64>,
    /// Quarantine flags, aligned with the member roster.
    pub quarantined: Vec<bool>,
    /// Quarantine causes, aligned with the member roster.
    pub reasons: Vec<Option<String>>,
    /// Per-member weight blobs (`None` for classical members).
    pub member_blobs: Vec<Option<Vec<u8>>>,
}

/// DBAugur's time-sensitive ensemble (Eqns. 7–8).
pub struct TimeSensitiveEnsemble {
    name: &'static str,
    members: Vec<Box<dyn Forecaster>>,
    /// Attenuation factor δ (paper: 0.9).
    pub delta: f64,
    /// Incrementally maintained forecasting distances Γ(e(i), t).
    gamma: Vec<f64>,
    /// Quarantine flags, aligned with `members`.
    quarantined: Vec<bool>,
    /// Quarantine causes, aligned with `members`.
    reasons: Vec<Option<String>>,
    /// Served when every member is quarantined (always fitted).
    fallback: Box<dyn Forecaster>,
    /// `spec.history` of the last fit; predict/observe windows are
    /// normalized to this length (0 until first fit = pass-through).
    history: usize,
    /// Pool member training fans out through (shared, bounded).
    exec: Arc<Executor>,
}

impl TimeSensitiveEnsemble {
    /// The DBAugur configuration: WFGAN + TCN + MLP, δ = 0.9.
    pub fn dbaugur(seed: u64) -> Self {
        Self::new(
            "DBAugur",
            vec![
                Box::new(Wfgan::new(seed)),
                Box::new(TcnForecaster::new(seed.wrapping_add(1))),
                Box::new(MlpForecaster::new(seed.wrapping_add(2))),
            ],
            0.9,
        )
    }

    /// A time-sensitive ensemble over arbitrary members.
    ///
    /// # Panics
    /// Panics on an empty member list or δ outside `(0, 1]`.
    pub fn new(name: &'static str, members: Vec<Box<dyn Forecaster>>, delta: f64) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        assert!(delta > 0.0 && delta <= 1.0, "attenuation must be in (0, 1]");
        let n = members.len();
        Self {
            name,
            members,
            delta,
            gamma: vec![0.0; n],
            quarantined: vec![false; n],
            reasons: vec![None; n],
            // Season 1 degrades to last-value until a caller supplies a
            // real seasonality (see `set_fallback`).
            fallback: Box::new(SeasonalNaive::new(1)),
            history: 0,
            exec: Executor::global(),
        }
    }

    /// Route member training through `exec` instead of the process-wide
    /// shared pool (the pipeline passes its own bounded pool down).
    pub fn set_executor(&mut self, exec: Arc<Executor>) {
        self.exec = exec;
    }

    /// Replace the all-members-down fallback floor (e.g. a
    /// [`SeasonalNaive`] with the trace's daily season). The fallback is
    /// (re)fitted on the next `fit`.
    pub fn set_fallback(&mut self, fallback: Box<dyn Forecaster>) {
        self.fallback = fallback;
    }

    /// Name of the fallback floor model.
    pub fn fallback_name(&self) -> &'static str {
        self.fallback.name()
    }

    /// Current ensemble weights (Eqn. 8) over the *active* members;
    /// quarantined members get weight 0, uniform while no error has been
    /// observed.
    pub fn weights(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.members.len()];
        let active: Vec<usize> = (0..self.members.len())
            .filter(|&i| !self.quarantined[i])
            .collect();
        match active.len() {
            0 => out,
            1 => {
                out[active[0]] = 1.0;
                out
            }
            k => {
                let total: f64 = active.iter().map(|&i| self.gamma[i]).sum();
                if total <= 0.0 {
                    for &i in &active {
                        out[i] = 1.0 / k as f64;
                    }
                } else {
                    // For k members the normalization is (k−1)·ΣΓ so
                    // weights sum to 1; the paper's 2·ΣΓ is the k = 3
                    // case.
                    for &i in &active {
                        out[i] = (total - self.gamma[i]) / ((k as f64 - 1.0) * total);
                    }
                }
                out
            }
        }
    }

    /// Current forecasting distances Γ (for inspection).
    pub fn forecasting_distances(&self) -> &[f64] {
        &self.gamma
    }

    /// Member names (for reports).
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }

    /// The inference half of [`Forecaster::predict`]: every active
    /// member's prediction for `window`, aligned with the roster. A
    /// quarantined member is not evaluated (it may never have been
    /// fitted) and reports NaN. Member output depends only on the fitted
    /// parameters and the window, so the vector stays valid across any
    /// number of [`Self::mix`] / [`Self::observe_members`] calls.
    pub fn member_predictions(&self, window: &[f64]) -> Vec<f64> {
        let w = self.adapt_window(window);
        self.members
            .iter()
            .zip(&self.quarantined)
            .map(|(m, &q)| if q { f64::NAN } else { m.predict(&w) })
            .collect()
    }

    /// The mixing half of [`Forecaster::predict`]: Eqn. 8 over
    /// `member_preds` (as returned by [`Self::member_predictions`] for
    /// the same `window`) under the *current* weights and quarantine
    /// flags — no member inference.
    pub fn mix(&self, window: &[f64], member_preds: &[f64]) -> f64 {
        let weights = self.weights();
        let mut acc = 0.0;
        let mut wsum = 0.0;
        for (i, &p) in member_preds.iter().enumerate() {
            // A transiently non-finite member is skipped for this call;
            // `observe` is where it gets quarantined for good.
            if !self.quarantined[i] && p.is_finite() {
                acc += weights[i] * p;
                wsum += weights[i];
            }
        }
        if wsum > 0.0 {
            return acc / wsum;
        }
        // Every member is out: serve the seasonal-naive floor. Before
        // the first fit the fallback has no spec, so skip straight to
        // the last-value floor.
        let window = self.adapt_window(window);
        let p = if self.history == 0 { f64::NAN } else { self.fallback.predict(&window) };
        if p.is_finite() {
            p
        } else {
            window.last().copied().unwrap_or(0.0)
        }
    }

    /// The update half of [`Forecaster::observe`]: fold `actual` into
    /// each active member's forecasting distance (Eqn. 7) given that
    /// member's prediction, quarantining members whose prediction or
    /// distance is non-finite. A non-finite `actual` changes nothing.
    pub fn observe_members(&mut self, member_preds: &[f64], actual: f64) {
        if !actual.is_finite() {
            // Poisoned feedback must not corrupt the error histories.
            return;
        }
        for (i, &p) in member_preds.iter().enumerate() {
            if self.quarantined[i] {
                continue;
            }
            if !p.is_finite() {
                self.quarantine_member(i, format!("non-finite prediction {p}"));
                continue;
            }
            let e = (actual - p) * (actual - p);
            let g = self.delta * self.gamma[i] + e;
            if g.is_finite() {
                self.gamma[i] = g;
            } else {
                self.quarantine_member(i, format!("non-finite forecasting distance {g}"));
            }
        }
    }

    /// Per-member health/quarantine snapshot.
    pub fn member_states(&self) -> Vec<MemberState> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| MemberState {
                name: m.name(),
                health: m.health(),
                quarantined: self.quarantined[i],
                reason: self.reasons[i].clone(),
            })
            .collect()
    }

    /// Members still contributing to the forecast.
    pub fn active_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| !q).count()
    }

    /// Members excluded from the forecast.
    pub fn quarantined_count(&self) -> usize {
        self.members.len() - self.active_count()
    }

    /// True when any member is quarantined or reported degraded training.
    pub fn is_degraded(&self) -> bool {
        self.quarantined.iter().any(|&q| q)
            || self.members.iter().any(|m| m.health().is_degraded())
    }

    /// Exclude member `idx` from weighting until the next `fit`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn quarantine_member(&mut self, idx: usize, reason: impl Into<String>) {
        self.quarantined[idx] = true;
        if self.reasons[idx].is_none() {
            self.reasons[idx] = Some(reason.into());
        }
    }

    /// Capture the ensemble's dynamic state — member weights (for
    /// neural members), forecasting distances, quarantine flags and the
    /// fitted history length — for a durable checkpoint.
    ///
    /// Classical members (no persistable parameters) export `None` and
    /// are expected to be refitted deterministically before
    /// [`import_snapshot`] restores the dynamic state on top.
    ///
    /// [`import_snapshot`]: TimeSensitiveEnsemble::import_snapshot
    pub fn export_snapshot(&mut self) -> EnsembleSnapshot {
        EnsembleSnapshot {
            delta: self.delta,
            history: self.history,
            gamma: self.gamma.clone(),
            quarantined: self.quarantined.clone(),
            reasons: self.reasons.clone(),
            member_blobs: self.members.iter_mut().map(|m| m.export_state()).collect(),
        }
    }

    /// Restore a snapshot into an ensemble with the same member roster
    /// that has been fitted once (so member networks exist with the
    /// right shapes). Members whose saved weights fail to import are
    /// quarantined rather than left silently wrong. Returns the number
    /// of members whose weights were restored from bytes.
    ///
    /// # Errors
    /// Fails fast when the member count differs — that is a different
    /// ensemble, not a restorable one.
    pub fn import_snapshot(&mut self, snap: &EnsembleSnapshot) -> Result<usize, String> {
        let n = self.members.len();
        if snap.member_blobs.len() != n
            || snap.gamma.len() != n
            || snap.quarantined.len() != n
            || snap.reasons.len() != n
        {
            return Err(format!(
                "snapshot shape mismatch: {} members saved, {} present",
                snap.member_blobs.len(),
                n
            ));
        }
        self.delta = snap.delta;
        self.history = snap.history;
        self.gamma = snap.gamma.clone();
        self.quarantined = snap.quarantined.clone();
        self.reasons = snap.reasons.clone();
        let mut restored = 0;
        for (i, blob) in snap.member_blobs.iter().enumerate() {
            if let Some(bytes) = blob {
                if self.members[i].import_state(bytes) {
                    restored += 1;
                } else {
                    self.quarantine_member(i, "saved weights failed to import");
                }
            }
        }
        Ok(restored)
    }

    /// Deadline-governed fit: members whose training has not started by
    /// expiry are skipped and quarantined ("deadline expired"), so the
    /// ensemble degrades to whatever subset did train — or, with every
    /// member out, to the fallback floor, which is fitted *before* the
    /// member fan-out precisely so it survives a total expiry. Returns
    /// the number of members skipped at the deadline.
    ///
    /// A skipped member keeps its previous parameters (it was never
    /// touched); the quarantine flag is what keeps those stale weights
    /// out of the forecast until the next successful fit.
    pub fn fit_governed(&mut self, train: &[f64], spec: WindowSpec, deadline: &Deadline) -> usize {
        self.history = spec.history;
        self.fallback.fit(train, spec);
        let outcomes = fit_members_governed(&mut self.members, train, spec, &self.exec, deadline);
        self.gamma.iter_mut().for_each(|g| *g = 0.0);
        self.quarantined.iter_mut().for_each(|q| *q = false);
        self.reasons.iter_mut().for_each(|r| *r = None);
        let mut expired = 0;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Some(TaskError::Expired) => {
                    expired += 1;
                    self.quarantine_member(i, "deadline expired before training");
                }
                Some(TaskError::Panicked(msg)) => {
                    self.quarantine_member(i, format!("training panicked: {msg}"));
                }
                None => {
                    if self.members[i].health().is_failed() {
                        let health = self.members[i].health();
                        self.quarantine_member(i, format!("training {health}"));
                    }
                }
            }
        }
        expired
    }

    /// Normalize a window to the fitted history length so member models
    /// (which assert exact window length) never see a mismatched slice:
    /// longer windows keep their most recent values, shorter ones are
    /// left-padded with their first value.
    fn adapt_window<'a>(&self, window: &'a [f64]) -> Cow<'a, [f64]> {
        if self.history == 0 || window.len() == self.history {
            Cow::Borrowed(window)
        } else if window.len() > self.history {
            Cow::Borrowed(&window[window.len() - self.history..])
        } else {
            let pad = window.first().copied().unwrap_or(0.0);
            let mut w = vec![pad; self.history - window.len()];
            w.extend_from_slice(window);
            Cow::Owned(w)
        }
    }
}

impl Forecaster for TimeSensitiveEnsemble {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, train: &[f64], spec: WindowSpec) {
        // An untimed deadline never expires, so this is the historical
        // unconditional fit.
        let skipped = self.fit_governed(train, spec, &Deadline::none());
        debug_assert_eq!(skipped, 0);
    }

    fn predict(&self, window: &[f64]) -> f64 {
        self.mix(window, &self.member_predictions(window))
    }

    fn predict_batch(&self, windows: &[&[f64]]) -> Vec<f64> {
        if windows.is_empty() {
            return Vec::new();
        }
        let adapted: Vec<Cow<[f64]>> = windows.iter().map(|w| self.adapt_window(w)).collect();
        let refs: Vec<&[f64]> = adapted.iter().map(|w| w.as_ref()).collect();
        // Each live member answers the whole batch in one forward pass;
        // every window is then mixed by the same `mix` as `predict`, so
        // each output is bitwise-identical to a single-window call.
        let member_preds: Vec<Option<Vec<f64>>> = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| (!self.quarantined[i]).then(|| m.predict_batch(&refs)))
            .collect();
        (0..windows.len())
            .map(|t| {
                let column: Vec<f64> = member_preds
                    .iter()
                    .map(|preds| preds.as_ref().map_or(f64::NAN, |p| p[t]))
                    .collect();
                self.mix(refs[t], &column)
            })
            .collect()
    }

    fn observe(&mut self, window: &[f64], actual: f64) {
        if actual.is_finite() {
            let preds = self.member_predictions(window);
            self.observe_members(&preds, actual);
        }
    }

    fn storage_bytes(&self) -> usize {
        self.members.iter().map(|m| m.storage_bytes()).sum()
    }
}

/// Combine pre-recorded member prediction series with the time-sensitive
/// weighting (Eqns. 7–8), causally: the weights used at step `t` depend
/// only on errors at steps `< t`. Returns the ensemble prediction series.
///
/// This mirrors [`TimeSensitiveEnsemble`]'s online behaviour but operates
/// on recorded series, which lets the Fig. 7 harness compare dynamic and
/// fixed weighting over *identical* fitted members without refitting.
///
/// # Panics
/// Panics when series lengths disagree or `member_preds` is empty.
pub fn combine_time_sensitive(member_preds: &[Vec<f64>], targets: &[f64], delta: f64) -> Vec<f64> {
    assert!(!member_preds.is_empty(), "need at least one member series");
    assert!(
        member_preds.iter().all(|p| p.len() == targets.len()),
        "member series must align with targets"
    );
    let k = member_preds.len();
    let mut gamma = vec![0.0f64; k];
    let mut out = Vec::with_capacity(targets.len());
    for t in 0..targets.len() {
        let total: f64 = gamma.iter().sum();
        let weights: Vec<f64> = if total <= 0.0 {
            vec![1.0 / k as f64; k]
        } else {
            gamma.iter().map(|g| (total - g) / ((k as f64 - 1.0) * total)).collect()
        };
        let pred: f64 = member_preds.iter().zip(&weights).map(|(p, w)| w * p[t]).sum();
        out.push(pred);
        for (i, g) in gamma.iter_mut().enumerate() {
            let e = targets[t] - member_preds[i][t];
            *g = delta * *g + e * e;
        }
    }
    out
}

/// Equal-weight combination of recorded member prediction series (the
/// fixed-weight baseline of Fig. 7).
///
/// # Panics
/// Panics when series lengths disagree or `member_preds` is empty.
pub fn combine_fixed(member_preds: &[Vec<f64>]) -> Vec<f64> {
    assert!(!member_preds.is_empty(), "need at least one member series");
    let k = member_preds.len() as f64;
    let n = member_preds[0].len();
    assert!(member_preds.iter().all(|p| p.len() == n), "member series must align");
    (0..n).map(|t| member_preds.iter().map(|p| p[t]).sum::<f64>() / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Naive;

    /// A stub with a fixed prediction, for weight arithmetic tests.
    struct Constant(f64);

    impl Forecaster for Constant {
        fn name(&self) -> &'static str {
            "const"
        }
        fn fit(&mut self, _: &[f64], _: WindowSpec) {}
        fn predict(&self, _: &[f64]) -> f64 {
            self.0
        }
    }

    #[test]
    fn equal_ensemble_averages() {
        let e = FixedEnsemble::equal(
            "avg",
            vec![Box::new(Constant(1.0)), Box::new(Constant(3.0))],
        );
        assert_eq!(e.predict(&[0.0]), 2.0);
    }

    #[test]
    fn weighted_ensemble_respects_weights() {
        let e = FixedEnsemble::weighted(
            "w",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0))],
            vec![0.9, 0.1],
        );
        assert!((e.predict(&[0.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn initial_weights_are_uniform() {
        let e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(0.0)), Box::new(Constant(0.0)), Box::new(Constant(0.0))],
            0.9,
        );
        assert_eq!(e.weights(), vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn weights_sum_to_one_and_favor_accurate_member() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![
                Box::new(Constant(10.0)), // perfect (actual will be 10)
                Box::new(Constant(0.0)),  // bad
                Box::new(Constant(5.0)),  // mediocre
            ],
            0.9,
        );
        for _ in 0..5 {
            e.observe(&[0.0], 10.0);
        }
        let w = e.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[2] && w[2] > w[1], "weights {w:?} should order by accuracy");
        // The perfect member has Γ = 0 ⇒ maximal weight 1/(k−1).
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn attenuation_forgets_old_errors() {
        let mut fast = TimeSensitiveEnsemble::new(
            "f",
            vec![Box::new(Constant(0.0)), Box::new(Constant(1.0))],
            0.5,
        );
        let mut slow = TimeSensitiveEnsemble::new(
            "s",
            vec![Box::new(Constant(0.0)), Box::new(Constant(1.0))],
            0.99,
        );
        // Phase 1: member 0 is right (actual 0).
        for _ in 0..20 {
            fast.observe(&[0.0], 0.0);
            slow.observe(&[0.0], 0.0);
        }
        // Phase 2: regime change, member 1 is right (actual 1).
        for _ in 0..5 {
            fast.observe(&[0.0], 1.0);
            slow.observe(&[0.0], 1.0);
        }
        let wf = fast.weights();
        let ws = slow.weights();
        assert!(
            wf[1] > ws[1],
            "fast attenuation {wf:?} should adapt to the regime change faster than {ws:?}"
        );
    }

    #[test]
    fn predict_uses_dynamic_weights() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0))],
            0.9,
        );
        // Before observations: (10 + 0) / 2 = 5.
        assert_eq!(e.predict(&[0.0]), 5.0);
        // Teach it member 0 is right.
        for _ in 0..10 {
            e.observe(&[0.0], 10.0);
        }
        // Member 0's Γ is 0 ⇒ weight 1 ⇒ prediction 10.
        assert!((e.predict(&[0.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fit_resets_error_history() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Naive), Box::new(Constant(0.0))],
            0.9,
        );
        e.observe(&[1.0], 100.0);
        assert!(e.forecasting_distances().iter().any(|&g| g > 0.0));
        e.fit(&[1.0, 2.0, 3.0, 4.0, 5.0], WindowSpec::new(2, 1));
        assert!(e.forecasting_distances().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn qb5000_builds_and_predicts() {
        let series: Vec<f64> = (0..120).map(|i| (i % 10) as f64).collect();
        let mut q = Qb5000::new(0);
        // Keep the LSTM cheap in tests.
        q.inner = FixedEnsemble::equal(
            "QB5000",
            vec![
                Box::new(LinearRegression::default()),
                Box::new(LstmForecaster::new(0).with_epochs(2)),
                Box::new(KernelRegression::default()),
            ],
        );
        q.fit(&series, WindowSpec::new(10, 1));
        let p = q.predict(&series[100..110]);
        assert!(p.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        FixedEnsemble::equal("x", vec![]);
    }

    #[test]
    fn combine_fixed_averages_series() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        assert_eq!(combine_fixed(&[a, b]), vec![2.0, 3.0]);
    }

    #[test]
    fn combine_time_sensitive_matches_online_ensemble() {
        // The offline combiner must reproduce the online ensemble's
        // predictions for the same member outputs and targets.
        let preds = vec![vec![10.0; 6], vec![0.0; 6], vec![5.0; 6]];
        let targets = vec![10.0, 10.0, 9.0, 10.0, 11.0, 10.0];
        let offline = combine_time_sensitive(&preds, &targets, 0.9);

        let mut online = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0)), Box::new(Constant(5.0))],
            0.9,
        );
        let mut online_preds = Vec::new();
        for &target in &targets {
            online_preds.push(online.predict(&[0.0]));
            online.observe(&[0.0], target);
        }
        for (a, b) in offline.iter().zip(&online_preds) {
            assert!((a - b).abs() < 1e-12, "offline {a} vs online {b}");
        }
    }

    #[test]
    fn combine_time_sensitive_is_causal_first_step_uniform() {
        let preds = vec![vec![4.0, 4.0], vec![0.0, 0.0]];
        let out = combine_time_sensitive(&preds, &[4.0, 4.0], 0.9);
        assert_eq!(out[0], 2.0, "no information at step 0 -> uniform");
        assert!(out[1] > 3.9, "step 1 should lean on the accurate member");
    }

    #[test]
    #[should_panic(expected = "attenuation")]
    fn bad_delta_panics() {
        TimeSensitiveEnsemble::new("x", vec![Box::new(Naive)], 0.0);
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_predict_loop() {
        // Real neural member (batched matmul path) + classical members,
        // with uneven error-history weights: batching must be invisible.
        let series: Vec<f64> =
            (0..240).map(|i| 50.0 + 30.0 * (i as f64 * 0.25).sin()).collect();
        let spec = WindowSpec::new(12, 1);
        let mut e = TimeSensitiveEnsemble::new(
            "batch",
            vec![
                Box::new(crate::mlp::MlpForecaster::new(3).with_epochs(4)),
                Box::new(Naive),
                Box::new(Constant(40.0)),
            ],
            0.9,
        );
        e.fit(&series[..200], spec);
        for t in 200..210 {
            e.observe(&series[t - 12..t], series[t]);
        }
        // Mixed lengths exercise the adapt_window paths too.
        let windows: Vec<&[f64]> = vec![
            &series[100..112],
            &series[50..62],
            &series[0..6],   // short: left-padded
            &series[0..40],  // long: truncated
        ];
        let batched = e.predict_batch(&windows);
        for (w, b) in windows.iter().zip(&batched) {
            assert_eq!(e.predict(w).to_bits(), b.to_bits());
        }
    }

    /// A stub whose `fit` always panics (simulated member crash).
    struct PanicOnFit;

    impl Forecaster for PanicOnFit {
        fn name(&self) -> &'static str {
            "panicker"
        }
        fn fit(&mut self, _: &[f64], _: WindowSpec) {
            panic!("injected fit failure");
        }
        fn predict(&self, _: &[f64]) -> f64 {
            999.0
        }
    }

    /// A stub that fits fine but always predicts NaN.
    struct NanPredictor;

    impl Forecaster for NanPredictor {
        fn name(&self) -> &'static str {
            "nan"
        }
        fn fit(&mut self, _: &[f64], _: WindowSpec) {}
        fn predict(&self, _: &[f64]) -> f64 {
            f64::NAN
        }
    }

    /// A stub whose guarded training always reports `Failed`.
    struct AlwaysFailed;

    impl Forecaster for AlwaysFailed {
        fn name(&self) -> &'static str {
            "failed"
        }
        fn fit(&mut self, _: &[f64], _: WindowSpec) {}
        fn predict(&self, _: &[f64]) -> f64 {
            0.0
        }
        fn health(&self) -> TrainHealth {
            TrainHealth::Failed {
                retries: 0,
                cause: crate::guard::DivergenceCause::NonFinite { epoch: 0 },
            }
        }
    }

    const TRAIN: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    const SPEC: WindowSpec = WindowSpec { history: 2, horizon: 1 };

    #[test]
    fn member_fit_panic_is_quarantined_not_propagated() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(PanicOnFit), Box::new(Constant(3.0))],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        assert_eq!(e.quarantined_count(), 1);
        assert_eq!(e.active_count(), 1);
        assert!(e.is_degraded());
        let states = e.member_states();
        assert!(states[0].quarantined);
        assert!(states[0].reason.as_deref().unwrap().contains("injected fit failure"));
        assert!(!states[1].quarantined);
        // The surviving member carries the full weight.
        assert_eq!(e.weights(), vec![0.0, 1.0]);
        assert_eq!(e.predict(&[5.0, 6.0]), 3.0);
    }

    #[test]
    fn failed_training_health_is_quarantined() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(AlwaysFailed), Box::new(Constant(7.0))],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        let states = e.member_states();
        assert!(states[0].quarantined, "states: {states:?}");
        assert_eq!(e.predict(&[5.0, 6.0]), 7.0);
    }

    #[test]
    fn all_members_out_falls_back_to_seasonal_floor() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(PanicOnFit), Box::new(AlwaysFailed)],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        assert_eq!(e.active_count(), 0);
        assert_eq!(e.fallback_name(), "SeasonalNaive");
        // Season-1 fallback degrades to last-value.
        assert_eq!(e.predict(&[5.0, 6.0]), 6.0);
        assert!(e.predict(&[5.0, 6.0]).is_finite());
    }

    #[test]
    fn non_finite_prediction_is_skipped_per_call() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(NanPredictor), Box::new(Constant(4.0))],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        // NaN member not quarantined by predict, but its share is
        // renormalized away.
        assert_eq!(e.predict(&[5.0, 6.0]), 4.0);
        assert_eq!(e.quarantined_count(), 0);
    }

    #[test]
    fn observe_quarantines_non_finite_member_for_good() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(NanPredictor), Box::new(Constant(4.0))],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        e.observe(&[5.0, 6.0], 4.0);
        assert_eq!(e.quarantined_count(), 1);
        let states = e.member_states();
        assert!(states[0].quarantined);
        assert!(states[0].reason.as_deref().unwrap().contains("non-finite prediction"));
        // Γ of the healthy member stays finite.
        assert!(e.forecasting_distances().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn non_finite_actual_does_not_corrupt_gamma() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(1.0)), Box::new(Constant(2.0))],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        e.observe(&[5.0, 6.0], f64::NAN);
        assert_eq!(e.forecasting_distances(), &[0.0, 0.0]);
        assert_eq!(e.quarantined_count(), 0);
    }

    #[test]
    fn refit_clears_quarantine() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(NanPredictor), Box::new(Constant(4.0))],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        e.observe(&[5.0, 6.0], 4.0);
        assert_eq!(e.quarantined_count(), 1);
        e.fit(&TRAIN, SPEC);
        assert_eq!(e.quarantined_count(), 0);
    }

    #[test]
    fn single_active_member_gets_full_weight_without_nan() {
        // Regression: the Eqn. 8 normalization divides by (k−1)·ΣΓ,
        // which is 0/0 for a single active member with history.
        let mut e = TimeSensitiveEnsemble::new("t", vec![Box::new(Constant(2.0))], 0.9);
        e.fit(&TRAIN, SPEC);
        e.observe(&[5.0, 6.0], 4.0); // Γ > 0
        assert_eq!(e.weights(), vec![1.0]);
        assert_eq!(e.predict(&[5.0, 6.0]), 2.0);
    }

    #[test]
    fn windows_are_adapted_to_fit_history() {
        let mut e = TimeSensitiveEnsemble::new("t", vec![Box::new(Naive)], 0.9);
        e.fit(&TRAIN, SPEC);
        // Longer window: most recent values kept.
        assert_eq!(e.predict(&[1.0, 2.0, 3.0, 9.0]), 9.0);
        // Shorter window: left-padded, last value intact.
        assert_eq!(e.predict(&[7.0]), 7.0);
    }

    #[test]
    fn snapshot_roundtrip_restores_dynamic_state() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0))],
            0.9,
        );
        e.fit(&TRAIN, SPEC);
        for _ in 0..5 {
            e.observe(&[5.0, 6.0], 10.0);
        }
        let weights_before = e.weights();
        let snap = e.export_snapshot();
        // Constants carry no parameters: all blobs are None.
        assert!(snap.member_blobs.iter().all(|b| b.is_none()));

        let mut fresh = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0))],
            0.9,
        );
        fresh.fit(&TRAIN, SPEC);
        let restored = fresh.import_snapshot(&snap).expect("shape matches");
        assert_eq!(restored, 0);
        assert_eq!(fresh.weights(), weights_before);
        assert_eq!(fresh.forecasting_distances(), e.forecasting_distances());
    }

    #[test]
    fn snapshot_restores_neural_member_weights() {
        let series: Vec<f64> =
            (0..220).map(|i| 40.0 + 30.0 * ((i % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()).collect();
        let spec = WindowSpec::new(12, 1);
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(MlpForecaster::new(3).with_epochs(4)), Box::new(Constant(1.0))],
            0.9,
        );
        e.fit(&series[..180], spec);
        let window = &series[180..192];
        let expected = e.member_predictions(window)[0];
        let snap = e.export_snapshot();
        assert!(snap.member_blobs[0].is_some() && snap.member_blobs[1].is_none());

        // Fresh process: same roster, cheap shape-establishing fit, then
        // the snapshot overwrites the weights.
        let mut fresh = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(MlpForecaster::new(41).with_epochs(1)), Box::new(Constant(1.0))],
            0.9,
        );
        fresh.fit(&series[..60], spec);
        let restored = fresh.import_snapshot(&snap).expect("shape matches");
        assert_eq!(restored, 1);
        assert!((fresh.member_predictions(window)[0] - expected).abs() < 1e-12);
        assert_eq!(fresh.quarantined_count(), 0);
    }

    #[test]
    fn snapshot_mismatched_roster_is_rejected() {
        let mut e = TimeSensitiveEnsemble::new("t", vec![Box::new(Constant(1.0))], 0.9);
        e.fit(&TRAIN, SPEC);
        let snap = e.export_snapshot();
        let mut other = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(1.0)), Box::new(Constant(2.0))],
            0.9,
        );
        other.fit(&TRAIN, SPEC);
        assert!(other.import_snapshot(&snap).is_err());
    }

    #[test]
    fn snapshot_with_corrupt_member_blob_quarantines_that_member() {
        let series: Vec<f64> =
            (0..220).map(|i| 40.0 + 30.0 * ((i % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()).collect();
        let spec = WindowSpec::new(12, 1);
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(MlpForecaster::new(3).with_epochs(2)), Box::new(Constant(1.0))],
            0.9,
        );
        e.fit(&series[..120], spec);
        let mut snap = e.export_snapshot();
        snap.member_blobs[0] = Some(b"rotten weight file".to_vec());

        let mut fresh = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(MlpForecaster::new(9).with_epochs(1)), Box::new(Constant(1.0))],
            0.9,
        );
        fresh.fit(&series[..60], spec);
        let restored = fresh.import_snapshot(&snap).expect("shape matches");
        assert_eq!(restored, 0);
        let states = fresh.member_states();
        assert!(states[0].quarantined, "corrupt member quarantined: {states:?}");
        assert!(!states[1].quarantined);
        assert!(fresh.predict(window_of(&series, spec)).is_finite());
    }

    fn window_of(series: &[f64], spec: WindowSpec) -> &[f64] {
        &series[series.len() - spec.history..]
    }

    #[test]
    fn fit_governed_expired_deadline_quarantines_members_and_serves_floor() {
        let mut e = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0))],
            0.9,
        );
        let dl = Deadline::none();
        dl.cancel();
        let skipped = e.fit_governed(&TRAIN, SPEC, &dl);
        assert_eq!(skipped, 2);
        assert_eq!(e.active_count(), 0);
        assert!(e.is_degraded());
        let states = e.member_states();
        assert!(states.iter().all(|s| s.quarantined));
        assert!(states[0].reason.as_deref().unwrap().contains("deadline expired"));
        // The fallback floor was fitted before the member fan-out, so a
        // total expiry still serves a finite seasonal-naive forecast.
        assert_eq!(e.predict(&[5.0, 6.0]), 6.0);
    }

    #[test]
    fn fit_governed_untimed_deadline_matches_fit() {
        let mut governed = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0))],
            0.9,
        );
        let skipped = governed.fit_governed(&TRAIN, SPEC, &Deadline::none());
        assert_eq!(skipped, 0);
        assert_eq!(governed.quarantined_count(), 0);
        let mut plain = TimeSensitiveEnsemble::new(
            "t",
            vec![Box::new(Constant(10.0)), Box::new(Constant(0.0))],
            0.9,
        );
        plain.fit(&TRAIN, SPEC);
        assert_eq!(governed.predict(&[5.0, 6.0]), plain.predict(&[5.0, 6.0]));
    }

    #[test]
    fn fixed_ensemble_still_propagates_member_panics() {
        let mut e = FixedEnsemble::equal(
            "f",
            vec![Box::new(PanicOnFit), Box::new(Constant(0.0))],
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.fit(&TRAIN, SPEC);
        }));
        let msg = dbaugur_exec::panic_message(&r.expect_err("fixed ensembles fail fast"));
        assert!(msg.contains("panicker"), "message: {msg}");
    }
}
