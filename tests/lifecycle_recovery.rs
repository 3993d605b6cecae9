//! End-to-end acceptance for the closed-loop model lifecycle: a regime
//! shift drives a cluster into quarantine, the lifecycle manager
//! retrains a challenger, shadow-evaluates it against the incumbent,
//! promotes the winner, and the cluster serves full-quality forecasts
//! again — deterministically at any worker count. The losing path is
//! exercised too: a challenger that cannot clear the gate is rejected
//! and the incumbent keeps serving.

use dbaugur::{DbAugur, DbAugurConfig, DriftState, ForecastError};
use dbaugur_exec::Deadline;
use dbaugur_lifecycle::{LifecycleConfig, LifecycleManager, PromotionKind};

fn cfg(threads: usize) -> DbAugurConfig {
    let mut cfg = DbAugurConfig {
        interval_secs: 60,
        history: 8,
        horizon: 1,
        top_k: 3,
        threads,
        ..DbAugurConfig::default()
    };
    cfg.clustering.min_size = 1;
    cfg.fast();
    // Enough budget that a fresh challenger can actually learn the
    // shifted regime it is shadow-scored on.
    cfg.epochs = 12;
    cfg.max_examples = 256;
    cfg
}

fn trained_system(threads: usize) -> DbAugur {
    let mut sys = DbAugur::new(cfg(threads));
    for minute in 0..120u64 {
        let n = 2 + 5 * u64::from(minute % 10 < 5);
        for q in 0..n {
            sys.ingest_record(minute * 60 + q, "SELECT * FROM t WHERE a = 1");
        }
    }
    sys.train(0, 120 * 60).expect("trains");
    sys
}

/// Zero-error warmup, then a sustained square-wave regime shift long
/// enough that the recent-observation buffer holds a learnable picture
/// of the new regime.
fn shift_regime(sys: &DbAugur, i: usize) {
    let history = sys.config().history;
    let c = &sys.clusters()[i];
    let warm = sys.config().drift.warmup + sys.config().drift.window;
    for _ in 0..warm {
        let f = c.forecast(history);
        c.observe(history, f);
    }
    for k in 0..320 {
        c.observe(history, 50.0 + 15.0 * f64::from(k % 10 < 5));
    }
    assert_eq!(c.drift_state(), DriftState::Quarantined, "the shift must quarantine");
}

fn lenient() -> LifecycleConfig {
    LifecycleConfig {
        min_improvement: 0.01,
        min_eval_windows: 2,
        shadow_folds: 6,
        cooldown_ticks: 3,
        ..LifecycleConfig::default()
    }
}

/// Run the full loop once and return (manager, system) after promotion.
fn recover_from_shift(threads: usize) -> (LifecycleManager, DbAugur) {
    let mut sys = trained_system(threads);
    shift_regime(&sys, 0);
    assert_eq!(
        sys.clusters()[0].try_forecast(sys.config().history),
        Err(ForecastError::Quarantined),
        "full-quality forecasts refused while quarantined"
    );
    let mut mgr = LifecycleManager::new(lenient());
    let rep = mgr.tick(&mut sys, &Deadline::none());
    assert_eq!(rep.flagged, 1, "quarantined cluster flagged: {rep:?}");
    assert_eq!(rep.promoted, vec![0], "challenger promoted: {rep:?} {:?}", mgr.events());
    (mgr, sys)
}

#[test]
fn shifted_cluster_recovers_to_serving_forecasts() {
    let (mgr, sys) = recover_from_shift(2);
    let c = &sys.clusters()[0];
    assert_eq!(c.generation(), 1, "promotion bumps the serving generation");
    assert_eq!(c.drift_state(), DriftState::Warmup, "quarantine cleared on promotion");
    let f = c.try_forecast(sys.config().history).expect("forecasts flow again");
    assert!(f.is_finite());
    // The audit trail shows the decision and both scores.
    let ev = mgr.events().last().expect("promotion audited");
    assert_eq!(ev.kind, PromotionKind::Promoted);
    assert!(ev.challenger_smape.is_finite());
    // The challenger measurably beat the stale champion (or the
    // champion was unscorable); either way accuracy never regressed.
    if ev.champion_smape.is_finite() {
        assert!(
            ev.challenger_smape <= ev.champion_smape,
            "promoted challenger must not be worse: {} vs {}",
            ev.challenger_smape,
            ev.champion_smape
        );
    }
}

#[test]
fn recovery_is_identical_at_one_and_eight_workers() {
    let (mgr1, sys1) = recover_from_shift(1);
    let (mgr8, sys8) = recover_from_shift(8);
    assert_eq!(sys1.clusters()[0].generation(), sys8.clusters()[0].generation());
    let h = sys1.config().history;
    let f1 = sys1.clusters()[0].try_forecast(h).expect("serves");
    let f8 = sys8.clusters()[0].try_forecast(h).expect("serves");
    assert_eq!(
        f1.to_bits(),
        f8.to_bits(),
        "promoted model is bit-identical at 1 vs 8 workers: {f1} vs {f8}"
    );
    let e1 = mgr1.events().last().expect("event");
    let e8 = mgr8.events().last().expect("event");
    assert_eq!(e1.kind, e8.kind);
    assert_eq!(e1.generation, e8.generation);
    assert_eq!(
        e1.challenger_smape.to_bits(),
        e8.challenger_smape.to_bits(),
        "shadow scores are worker-count independent"
    );
}

#[test]
fn losing_challenger_is_rejected_and_incumbent_keeps_serving() {
    let mut sys = trained_system(2);
    shift_regime(&sys, 0);
    // An absurd bar: the challenger must be 99% better, which a
    // one-cluster square wave cannot deliver.
    let mut mgr = LifecycleManager::new(LifecycleConfig {
        min_improvement: 0.99,
        ..lenient()
    });
    let rep = mgr.tick(&mut sys, &Deadline::none());
    assert_eq!(rep.attempted, 1);
    assert_eq!(rep.rejected, vec![0], "the gate holds: {rep:?}");
    assert!(rep.promoted.is_empty());
    // Nothing changed for the serving path: same generation, degraded
    // floor answers still available, no model archived.
    let c = &sys.clusters()[0];
    assert_eq!(c.generation(), 0);
    assert_eq!(c.drift_state(), DriftState::Quarantined);
    let f = sys.forecast_cluster(0).expect("floor still serves");
    assert!(f.is_finite());
    assert_eq!(mgr.registry().generations(0), 0, "rejected challengers are not archived");
    assert_eq!(mgr.events().last().expect("audited").kind, PromotionKind::Rejected);
}

#[test]
fn promotion_then_rollback_each_move_the_served_value_past_a_warm_cache() {
    let mut sys = trained_system(2);
    shift_regime(&sys, 0);
    let h = sys.config().history;
    let sql = "SELECT * FROM t WHERE a = 7";
    // What the installed model says about the current window, computed
    // without the serving state.
    let oracle = |sys: &DbAugur| {
        let c = &sys.clusters()[0];
        let rep = c.summary.representative.values();
        c.predict_window(&rep[rep.len() - h..]).to_bits()
    };
    let served = |sys: &DbAugur| {
        let cluster = sys.forecast_cluster(0).expect("cluster").to_bits();
        (cluster, sys.forecast_template(sql).expect("covered").to_bits())
    };

    let incumbent = served(&sys);
    assert_eq!(served(&sys), incumbent, "warm before the promotion");
    let mut mgr = LifecycleManager::new(lenient());
    let rep = mgr.tick(&mut sys, &Deadline::none());
    assert_eq!(rep.promoted, vec![0], "challenger promoted: {rep:?}");
    let promoted = served(&sys);
    assert_eq!(promoted.0, oracle(&sys), "the tick that promotes serves the challenger");
    assert_ne!(promoted, incumbent, "not the incumbent's cached answer");

    mgr.rollback(&mut sys, 0).expect("predecessor archived");
    let rolled_back = served(&sys);
    assert_eq!(rolled_back.0, oracle(&sys), "the rollback serves the restored model at once");
    assert_ne!(rolled_back, promoted, "not the challenger's cached answer");
}
