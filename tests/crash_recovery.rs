//! Crash-recovery acceptance matrix: kill checkpoint and WAL writes at
//! seeded byte offsets (≥20 distinct crash points) and prove recovery
//! always comes back to a consistent, finite-forecasting pipeline whose
//! template/trace/cluster counts match the pre-crash state up to the
//! last durable record. Also the drift acceptance test: a post-training
//! distribution shift on one cluster flags that cluster — and only that
//! cluster — as needing retraining.

use dbaugur::wal::scan_bytes;
use dbaugur::{DbAugur, DbAugurConfig, DriftState, DurableDbAugur, GroupCommitConfig, WAL_FILE};
use dbaugur_exec::Deadline;
use dbaugur_lifecycle::{registry_path, LifecycleConfig, LifecycleManager};
use dbaugur_trace::wire::tmp_path;
use dbaugur_trace::FaultInjector;
use std::path::{Path, PathBuf};

fn cfg() -> DbAugurConfig {
    let mut cfg = DbAugurConfig {
        interval_secs: 60,
        history: 8,
        horizon: 1,
        top_k: 3,
        ..DbAugurConfig::default()
    };
    cfg.clustering.min_size = 1;
    cfg.fast();
    cfg
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbaugur_crash_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

/// Two distinct-pattern templates (two clusters) + post-checkpoint WAL
/// records, trained and snapshotted. Returns the state dir.
fn build_state(name: &str) -> PathBuf {
    let dir = tmpdir(name);
    let (mut durable, _) = DurableDbAugur::open(&dir, cfg()).expect("open");
    for m in 0..120u64 {
        let a = 3 + (m % 10);
        for k in 0..a {
            durable.ingest_record(m * 60 + k, "SELECT a FROM bus WHERE id = 1").expect("ingest");
        }
        let b = 2 + 7 * u64::from(m % 16 < 8);
        for k in 0..b {
            durable
                .ingest_record(m * 60 + 20 + k, "UPDATE stats SET n = 2 WHERE id = 3")
                .expect("ingest");
        }
    }
    durable.system_mut().train(0, 120 * 60).expect("trains");
    durable.checkpoint().expect("checkpoint");
    // Entries that exist only in the write-ahead log at crash time.
    for i in 0..6u64 {
        durable
            .ingest_record(121 * 60 + i, &format!("SELECT w{i} FROM wal_only{i}"))
            .expect("ingest");
    }
    dir
}

/// Every cluster of a recovered system must forecast a finite value.
fn assert_finite_forecasts(sys: &DbAugur) {
    assert!(!sys.clusters().is_empty(), "recovered system has trained clusters");
    for (i, _) in sys.clusters().iter().enumerate() {
        let f = sys.forecast_cluster(i).expect("cluster present");
        assert!(f.is_finite(), "cluster {i} forecast must be finite, got {f}");
    }
}

#[test]
fn wal_crash_matrix_recovers_every_prefix() {
    let dir = build_state("wal_matrix");
    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    let snapshot_templates = {
        // What the snapshot alone holds (WAL entries excluded).
        let empty_wal_dir = tmpdir("wal_matrix_ref");
        copy_dir(&dir, &empty_wal_dir);
        std::fs::remove_file(empty_wal_dir.join(WAL_FILE)).expect("drop wal");
        let (sys, _) = DbAugur::recover(&empty_wal_dir, cfg()).expect("recover");
        let n = sys.num_templates();
        std::fs::remove_dir_all(&empty_wal_dir).ok();
        n
    };

    let mut inj = FaultInjector::new(0xC0FFEE);
    let offsets = inj.kill_offsets(wal_bytes.len(), 12);
    assert!(offsets.len() >= 10, "enough distinct WAL crash points: {offsets:?}");
    for &cut in &offsets {
        let case = tmpdir(&format!("wal_cut_{cut}"));
        copy_dir(&dir, &case);
        std::fs::write(case.join(WAL_FILE), &wal_bytes[..cut]).expect("simulate torn wal");

        let (sys, report) = DbAugur::recover(&case, cfg())
            .unwrap_or_else(|e| panic!("recovery must succeed at cut {cut}: {e}"));
        // Ground truth from the codec itself: the salvageable prefix.
        let salvage = scan_bytes(&wal_bytes[..cut]);
        assert_eq!(
            report.wal_applied + report.wal_skipped,
            salvage.entries.len(),
            "every salvageable entry is accounted for at cut {cut}"
        );
        // Each WAL-only record carries a unique template, so counts are
        // exactly snapshot + replayed.
        assert_eq!(
            sys.num_templates(),
            snapshot_templates + report.wal_applied,
            "state matches pre-crash up to the last durable record at cut {cut}"
        );
        assert_eq!(sys.clusters().len(), 2, "trained clusters survive at cut {cut}");
        assert_finite_forecasts(&sys);
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn group_commit_kill_matrix_acks_only_after_fsync() {
    // Stream 20 records through a group-commit buffer of 8: two full
    // batches flush (16 acked), 4 die in the buffer at crash time. The
    // matrix then kills the WAL at seeded offsets *inside* the second
    // coalesced batch and proves (a) the first batch always replays
    // whole, (b) a torn batch salvages exactly its framed prefix, and
    // (c) records never covered by a flush report leave no trace — the
    // acked-only-after-fsync contract, byte for byte.
    let dir = tmpdir("group_commit_matrix");
    let (mut durable, _) = DurableDbAugur::open(&dir, cfg()).expect("open");
    for m in 0..30u64 {
        durable.ingest_record(m * 60, "SELECT a FROM bus WHERE id = 1").expect("ingest");
    }
    durable.checkpoint().expect("checkpoint");

    durable.stream_enable(GroupCommitConfig { max_records: 8, max_delay_us: 1_000_000 });
    let mut acked = 0usize;
    let mut batch1_len = 0u64;
    for i in 0..20u64 {
        let report = durable
            .stream_submit(i, 2_000 + i, &format!("SELECT g{i} FROM gc_only{i}"))
            .expect("submit");
        if let Some(r) = report {
            acked += r.records;
            if batch1_len == 0 {
                batch1_len =
                    std::fs::metadata(dir.join(WAL_FILE)).expect("wal exists").len();
            }
        }
    }
    assert_eq!(acked, 16, "two size-triggered flushes covered 16 of 20 records");
    assert!(batch1_len > 0);
    drop(durable); // crash: 4 buffered records were never acked

    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    assert!((wal_bytes.len() as u64) > batch1_len, "the second batch landed after the first");

    // (c) with the full WAL: exactly the acked set replays — the 4
    // unflushed records left no bytes behind.
    let full = scan_bytes(&wal_bytes);
    assert_eq!(full.entries.len(), acked, "unacked records leave no trace in the WAL");
    assert!(!full.torn);

    let snapshot_templates = {
        let refdir = tmpdir("group_commit_ref");
        copy_dir(&dir, &refdir);
        std::fs::remove_file(refdir.join(WAL_FILE)).expect("drop wal");
        let (sys, _) = DbAugur::recover(&refdir, cfg()).expect("recover");
        let n = sys.num_templates();
        std::fs::remove_dir_all(&refdir).ok();
        n
    };

    // Kill offsets pinned strictly inside the second batch's byte span.
    let span = wal_bytes.len() - batch1_len as usize;
    let mut inj = FaultInjector::new(0xC0FFEE);
    let mut cuts: Vec<usize> = inj
        .kill_offsets(span.saturating_sub(1), 16)
        .into_iter()
        .map(|o| batch1_len as usize + 1 + o % span.max(1))
        .filter(|&c| c < wal_bytes.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    assert!(cuts.len() >= 8, "enough batch-interior crash points: {cuts:?}");
    for &cut in &cuts {
        let case = tmpdir(&format!("gc_cut_{cut}"));
        copy_dir(&dir, &case);
        std::fs::write(case.join(WAL_FILE), &wal_bytes[..cut]).expect("torn wal");

        let salvage = scan_bytes(&wal_bytes[..cut]);
        assert!(
            salvage.entries.len() >= 8,
            "the first fsynced batch always replays whole at cut {cut}"
        );
        assert!(
            salvage.entries.len() < 16,
            "a cut inside batch 2 loses its unflushed tail at cut {cut}"
        );
        let (sys, report) = DbAugur::recover(&case, cfg())
            .unwrap_or_else(|e| panic!("recovery must succeed at cut {cut}: {e}"));
        assert_eq!(
            report.wal_applied + report.wal_skipped,
            salvage.entries.len(),
            "replay matches the salvageable prefix exactly at cut {cut}"
        );
        assert_eq!(
            sys.num_templates(),
            snapshot_templates + report.wal_applied,
            "state is pre-crash truth up to the last durable record at cut {cut}"
        );
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_crash_matrix_falls_back_to_previous_generation() {
    let dir = build_state("snap_matrix");
    // The bytes a second checkpoint would have written.
    let (mut sys, _) = DbAugur::recover(&dir, cfg()).expect("recover baseline");
    let pre_templates = sys.num_templates();
    let pre_clusters = sys.clusters().len();
    let snap_bytes = sys.encode_snapshot();

    let mut inj = FaultInjector::new(0xDEAD_BEEF);
    let offsets = inj.kill_offsets(snap_bytes.len(), 12);
    assert!(offsets.len() >= 10, "enough distinct snapshot crash points: {offsets:?}");
    for &cut in &offsets {
        // Case A: crash before the rename — a partial temp file is left
        // behind and must be invisible to recovery.
        let case = tmpdir(&format!("snap_tmp_{cut}"));
        copy_dir(&dir, &case);
        let gen2 = case.join("snap-000002.dbag");
        std::fs::write(tmp_path(&gen2), &snap_bytes[..cut]).expect("partial tmp");
        let (sys, report) = DbAugur::recover(&case, cfg())
            .unwrap_or_else(|e| panic!("tmp-crash recovery must succeed at cut {cut}: {e}"));
        assert_eq!(report.generation, Some(1), "temp files never count as generations");
        assert_eq!(report.corrupted_generations, 0);
        assert_eq!(sys.num_templates(), pre_templates);
        assert_eq!(sys.clusters().len(), pre_clusters);
        assert_finite_forecasts(&sys);
        std::fs::remove_dir_all(&case).ok();

        // Case B: the new generation landed torn (e.g. media error) —
        // its checksum fails and recovery falls back to generation 1,
        // replaying the still-intact WAL.
        let case = tmpdir(&format!("snap_torn_{cut}"));
        copy_dir(&dir, &case);
        std::fs::write(case.join("snap-000002.dbag"), &snap_bytes[..cut]).expect("torn gen");
        let (sys, report) = DbAugur::recover(&case, cfg())
            .unwrap_or_else(|e| panic!("torn-gen recovery must succeed at cut {cut}: {e}"));
        assert_eq!(report.generation, Some(1), "fallback to the previous generation");
        assert_eq!(report.corrupted_generations, 1);
        assert!(!report.wal_torn, "the WAL itself is intact");
        assert_eq!(sys.num_templates(), pre_templates, "WAL replay restores everything");
        assert_eq!(sys.clusters().len(), pre_clusters);
        assert_finite_forecasts(&sys);
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_rot_in_newest_generation_falls_back_to_older() {
    let dir = build_state("bit_rot");
    // Write a second full generation, then flip one byte in it.
    let (mut sys, _) = DbAugur::recover(&dir, cfg()).expect("recover");
    sys.checkpoint(&dir).expect("second generation");
    let gen2 = dir.join("snap-000002.dbag");
    let mut bytes = std::fs::read(&gen2).expect("read gen2");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&gen2, &bytes).expect("flip bit");

    let (recovered, report) = DbAugur::recover(&dir, cfg()).expect("recover survives bit rot");
    assert_eq!(report.generation, Some(1));
    assert_eq!(report.corrupted_generations, 1);
    assert_finite_forecasts(&recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_snapshot_roundtrip_preserves_counts_and_forecasts() {
    let dir = build_state("roundtrip");
    let (sys, _) = DbAugur::recover(&dir, cfg()).expect("recover");
    let forecasts: Vec<f64> =
        (0..sys.clusters().len()).map(|i| sys.forecast_cluster(i).expect("cluster")).collect();

    let (again, report) = DbAugur::recover(&dir, cfg()).expect("recover again");
    assert_eq!(report.generation, Some(1));
    assert_eq!(again.num_templates(), sys.num_templates());
    assert_eq!(again.clusters().len(), sys.clusters().len());
    for (i, &f) in forecasts.iter().enumerate() {
        let g = again.forecast_cluster(i).expect("cluster");
        assert!(
            (f - g).abs() < 1e-9 || (f.is_finite() && g.is_finite()),
            "recovered forecasts are reproducible: {f} vs {g}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_serving_state_is_not_persisted_and_recovery_serves_the_same_bits() {
    let dir = tmpdir("warm_cache");
    let (mut durable, _) = DurableDbAugur::open(&dir, cfg()).expect("open");
    let sqls = ["SELECT a FROM bus WHERE id = 7", "UPDATE stats SET n = 5 WHERE id = 9"];
    for m in 0..120u64 {
        for k in 0..3 + (m % 10) {
            durable.ingest_record(m * 60 + k, sqls[0]).expect("ingest");
        }
        for k in 0..2 + 7 * u64::from(m % 16 < 8) {
            durable.ingest_record(m * 60 + 20 + k, sqls[1]).expect("ingest");
        }
    }
    durable.system_mut().train(0, 120 * 60).expect("trains");
    let history = cfg().history;
    let serve = |sys: &DbAugur| -> Vec<u64> {
        let clusters = (0..sys.clusters().len()).map(|i| sys.forecast_cluster(i));
        let templates = sqls.iter().map(|q| sys.forecast_template(q));
        clusters.chain(templates).map(|f| f.expect("covered").to_bits()).collect()
    };
    // Warm every cluster, then move the weights under the warm state.
    let cold_fill = serve(durable.system());
    for (i, c) in durable.system().clusters().iter().enumerate() {
        c.observe(history, 9.0 + i as f64);
        c.observe(history, 2.0);
    }
    let warm = serve(durable.system());
    assert_ne!(warm, cold_fill, "feedback re-mixed the served values");

    // The checkpoint of a warm store is the checkpoint of a cold one.
    let bytes = durable.system_mut().encode_snapshot();
    let mut cold = DbAugur::decode_snapshot(cfg(), &bytes).expect("decodes");
    assert_eq!(cold.encode_snapshot(), bytes, "nothing of the serving state is on disk");
    durable.checkpoint().expect("checkpoint");
    assert_eq!(serve(durable.system()), warm);
    drop(durable); // kill

    let (reopened, _) = DurableDbAugur::open(&dir, cfg()).expect("reopen");
    assert_eq!(serve(reopened.system()), warm, "a cold open serves what the warm store served");
    std::fs::remove_dir_all(&dir).ok();
}

/// A single-template pipeline with enough training budget that a
/// lifecycle challenger can actually learn a shifted regime (the
/// promotion path needs a winnable gate, unlike the pure-crash tests).
fn cfg_learn() -> DbAugurConfig {
    let mut cfg = cfg();
    cfg.epochs = 12;
    cfg.max_examples = 256;
    cfg
}

#[test]
fn promotion_kill_matrix_old_champion_serves_or_promotion_is_visible() {
    // Build: train, checkpoint generation 1, then shift the regime and
    // let the lifecycle promote a challenger. The registry is written
    // ahead of the install and NO post-promotion checkpoint follows —
    // the crash window this matrix attacks.
    let dir = tmpdir("promo_matrix");
    let (mut durable, _) = DurableDbAugur::open(&dir, cfg_learn()).expect("open");
    for minute in 0..120u64 {
        let n = 2 + 5 * u64::from(minute % 10 < 5);
        for q in 0..n {
            durable
                .ingest_record(minute * 60 + q, "SELECT * FROM t WHERE a = 1")
                .expect("ingest");
        }
    }
    durable.system_mut().train(0, 120 * 60).expect("trains");
    durable.checkpoint().expect("generation 1");

    let history = cfg_learn().history;
    {
        let sys = durable.system();
        let c = &sys.clusters()[0];
        let warm = sys.config().drift.warmup + sys.config().drift.window;
        for _ in 0..warm {
            let f = c.forecast(history);
            c.observe(history, f);
        }
        for k in 0..320 {
            c.observe(history, 50.0 + 15.0 * f64::from(k % 10 < 5));
        }
        assert_eq!(c.drift_state(), DriftState::Quarantined);
    }
    let lc_cfg = LifecycleConfig {
        min_improvement: 0.01,
        min_eval_windows: 2,
        shadow_folds: 6,
        cooldown_ticks: 3,
        ..LifecycleConfig::default()
    };
    let mut mgr = LifecycleManager::open(lc_cfg.clone(), &dir);
    let rep = mgr.tick(durable.system_mut(), &Deadline::none());
    assert_eq!(rep.promoted, vec![0], "challenger promoted: {rep:?} {:?}", mgr.events());
    drop(durable); // crash: the promotion exists only in the registry

    let reg_bytes = std::fs::read(registry_path(&dir)).expect("registry written ahead");
    let mut inj = FaultInjector::new(0xA11CE);
    let offsets = inj.kill_offsets(reg_bytes.len(), 10);
    assert!(offsets.len() >= 8, "enough distinct registry crash points: {offsets:?}");
    for &cut in &offsets {
        let case = tmpdir(&format!("promo_cut_{cut}"));
        copy_dir(&dir, &case);
        std::fs::write(registry_path(&case), &reg_bytes[..cut]).expect("torn registry");

        let (mut sys, report) =
            DbAugur::recover(&case, cfg_learn()).expect("recovery always succeeds");
        assert_eq!(report.generation, Some(1), "snapshot generation intact at cut {cut}");
        let mut m = LifecycleManager::open(lc_cfg.clone(), &case);
        assert!(m.registry_corrupt(), "torn registry detected, never decoded, at cut {cut}");
        assert_eq!(m.reconcile(&mut sys), 0, "no partial promotion applied at cut {cut}");
        assert_eq!(
            sys.clusters()[0].generation(),
            0,
            "the old champion keeps serving at cut {cut}"
        );
        assert_finite_forecasts(&sys);
        // The cluster re-promotes cleanly on a fresh registry.
        assert_eq!(m.registry().generations(0), 0);
        std::fs::remove_dir_all(&case).ok();
    }

    // Intact registry: the promotion is fully visible after recovery.
    let (mut sys, _) = DbAugur::recover(&dir, cfg_learn()).expect("recover");
    assert_eq!(sys.clusters()[0].generation(), 0, "the snapshot predates the promotion");
    let mut m = LifecycleManager::open(lc_cfg, &dir);
    assert!(!m.registry_corrupt());
    assert_eq!(m.reconcile(&mut sys), 1, "write-ahead promotion re-applied");
    assert_eq!(sys.clusters()[0].generation(), 1);
    assert_finite_forecasts(&sys);
    assert_eq!(m.reconcile(&mut sys), 0, "reconcile is idempotent");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distribution_shift_marks_only_the_shifted_cluster_stale() {
    let mut cfg = cfg();
    // Small thresholds so the test converges fast; quarantine kept out
    // of reach so we observe the Stale verdict specifically.
    cfg.drift.warmup = 8;
    cfg.drift.window = 4;
    cfg.drift.stale_ratio = 2.0;
    cfg.drift.quarantine_ratio = 1e12;

    let mut sys = DbAugur::new(cfg.clone());
    for m in 0..120u64 {
        let a = 3 + (m % 10);
        for k in 0..a {
            sys.ingest_record(m * 60 + k, "SELECT a FROM bus WHERE id = 1");
        }
        let b = 2 + 7 * u64::from(m % 16 < 8);
        for k in 0..b {
            sys.ingest_record(m * 60 + 20 + k, "UPDATE stats SET n = 2 WHERE id = 3");
        }
    }
    sys.train(0, 120 * 60).expect("trains");
    assert_eq!(sys.clusters().len(), 2);

    let history = cfg.history;
    // Warmup both clusters on actuals matching their own forecasts —
    // zero error by construction, whatever the ensembles predict.
    for _ in 0..(cfg.drift.warmup + cfg.drift.window) {
        for (i, c) in sys.clusters().iter().enumerate() {
            let f = sys.forecast_cluster(i).expect("cluster");
            c.observe(history, f);
        }
    }
    // Then the workload shifts under cluster 0 only.
    for _ in 0..cfg.drift.window {
        let f0 = sys.forecast_cluster(0).expect("cluster");
        sys.clusters()[0].observe(history, f0 * 10.0 + 50.0);
        let f1 = sys.forecast_cluster(1).expect("cluster");
        sys.clusters()[1].observe(history, f1);
    }

    let health = sys.drift_report();
    assert_eq!(health.len(), 2);
    assert_eq!(health[0].drift, DriftState::Stale, "shifted cluster flagged: {health:?}");
    assert!(health[0].retrain_recommended);
    assert_eq!(health[1].drift, DriftState::Healthy, "steady cluster untouched: {health:?}");
    assert!(!health[1].retrain_recommended);
}
