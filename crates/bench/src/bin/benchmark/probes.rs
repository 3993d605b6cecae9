//! Per-layer probes (traced runs only). After the timed repetitions,
//! each probe replays the run's own inputs through one lower layer's
//! public function on a scratch instance and reports the mean cost, so
//! a regression names its layer without any span inside the library.
//! Every probe loop runs inside one span of the layer's name.

use crate::ingest::Place;
use crate::metrics::Report;
use crate::plan::{Plan, HISTORY};
use crate::serve::Batch;
use crate::setup::{mem_vfs, Pool};
use crate::spans::Tracer;
use crate::stats::median;
use dbaugur::wal::{encode_record, scan_file_with};
use dbaugur::{list_generations, snapshot_path, DbAugur, Wal, WAL_FILE};
use dbaugur_cluster::{select_top_k, Descender, OnlineDescender};
use dbaugur_dtw::{dtw_distance, lb_keogh, DtwDistance};
use dbaugur_exec::Executor;
use dbaugur_models::{Forecaster, MlpForecaster, TcnForecaster, Wfgan, WfganConfig};
use dbaugur_shard::ShardedDurable;
use dbaugur_sqlproc::{canonicalize, fingerprint, TemplateRegistry};
use dbaugur_trace::{Trace, WindowSpec};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Mean nanoseconds per item of `f` over `items`, inside one span.
fn per_item_ns<T>(
    tracer: &mut Tracer,
    name: &'static str,
    items: impl IntoIterator<Item = T>,
    mut f: impl FnMut(T),
) -> f64 {
    tracer.begin(name, 0);
    let t0 = Instant::now();
    let mut n = 0u64;
    for item in items {
        f(item);
        n += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
    tracer.end();
    ns
}

/// Seconds one call of `f` takes, inside one span.
fn once_s<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    tracer.begin(name, 0);
    let t0 = Instant::now();
    let r = f();
    let s = t0.elapsed().as_secs_f64();
    tracer.end();
    (s, r)
}

/// The statement-level layers of the ingest path, replayed over the
/// first `probe_statements` pool statements in pool order — so a hot
/// pool probes cache hits and a churn pool probes misses, as the run
/// itself did.
pub fn ingest_layers(plan: &Plan, pool: &Pool, tmp: &Path, tracer: &mut Tracer, out: &mut Report) {
    let sample = &pool.statements[..plan.probe_statements.min(pool.statements.len())];

    let ns = per_item_ns(tracer, "sqlproc.fingerprint", sample, |sql| {
        black_box(fingerprint(black_box(sql)));
    });
    out.put_layer("sqlproc.fingerprint_ns", ns);

    let ns = per_item_ns(tracer, "sqlproc.canonicalize", sample, |sql| {
        black_box(canonicalize(black_box(sql)));
    });
    out.put_layer("sqlproc.canonicalize_ns", ns);

    // One priming lap so a hot pool is measured warm; a churn pool
    // never repeats inside the sample and stays cold either way.
    let mut registry = TemplateRegistry::new();
    for sql in sample.iter().take(plan.shapes) {
        registry.observe_streamed(sql, 0);
    }
    let ns = per_item_ns(
        tracer,
        "sqlproc.observe_streamed",
        sample.iter().enumerate(),
        |(i, sql)| {
            black_box(registry.observe_streamed(sql, i as u64));
        },
    );
    out.put_layer("sqlproc.observe_streamed_ns", ns);

    let ns = per_item_ns(tracer, "sqlproc.lookup", sample, |sql| {
        black_box(registry.lookup(black_box(sql)));
    });
    out.put_layer("sqlproc.lookup_ns", ns);

    let mut sys = DbAugur::new(plan.db_cfg());
    for sql in sample.iter().take(plan.shapes) {
        sys.ingest_record_streamed(0, sql);
    }
    let ns = per_item_ns(
        tracer,
        "core.apply",
        sample.iter().enumerate(),
        |(i, sql)| {
            sys.ingest_record_streamed(i as u64, sql);
        },
    );
    out.put_layer("core.apply_ns", ns);

    let mut bulk = DbAugur::new(plan.db_cfg());
    let ns = per_item_ns(
        tracer,
        "serve.ingest",
        sample.iter().enumerate(),
        |(i, sql)| {
            bulk.ingest_record(i as u64, sql);
        },
    );
    out.put_layer("serve.ingest_ns", ns);

    let mut bytes = 0usize;
    let ns = per_item_ns(
        tracer,
        "core.wal_encode",
        sample.iter().enumerate(),
        |(i, sql)| {
            bytes += black_box(encode_record(i as u64, i as u64, sql)).len();
        },
    );
    out.put_layer("core.wal_encode_ns", ns);
    out.put_layer(
        "core.wal_bytes_per_record",
        bytes as f64 / sample.len() as f64,
    );

    let router =
        ShardedDurable::open_with_vfs(&mem_vfs(), Path::new("/probe-router"), plan.ingest_cfg())
            .expect("open an in-memory store");
    let ns = per_item_ns(tracer, "shard.route", sample, |sql| {
        black_box(router.route(black_box(sql)));
    });
    out.put_layer("shard.route_ns", ns);

    // 64-record batches on the workload's own vfs: one write + fsync.
    let place = Place::fresh(plan.ingest_vfs, tmp, "probe-wal");
    place
        .vfs
        .create_dir_all(&place.root)
        .expect("create the probe WAL directory");
    let mut wal =
        Wal::open_with(&place.vfs, &place.root.join(WAL_FILE), 0).expect("open probe WAL");
    let batches: Vec<Vec<(u64, String)>> = sample
        .chunks_exact(64)
        .take(128)
        .map(|c| c.iter().map(|s| (0u64, s.clone())).collect())
        .collect();
    let ns = per_item_ns(tracer, "core.wal_append_batch", &batches, |batch| {
        wal.append_record_batch(batch)
            .expect("append to the probe WAL");
    });
    out.put_layer("core.wal_append_batch_us", ns / 1e3);
    drop(wal);
    place.cleanup(plan.ingest_vfs);
}

/// Cost of staging one window into the online clusterer, over the
/// member-mean windows of the trained clusters' templates.
pub fn online_assign(plan: &Plan, traces: &[Trace], tracer: &mut Tracer, out: &mut Report) {
    let cfg = plan.db_cfg();
    let mut clusterer = OnlineDescender::new(cfg.clustering, DtwDistance::new(cfg.dtw_window));
    let windows: Vec<Trace> = traces
        .iter()
        .flat_map(|t| {
            t.values()
                .chunks_exact(HISTORY)
                .take(4)
                .map(|w| Trace::query(t.name.clone(), w.to_vec()))
        })
        .collect();
    // Fold a first quarter in so `assign` has clusters to compare with.
    let (seed, rest) = windows.split_at(windows.len() / 4);
    for w in seed {
        clusterer.insert(w);
    }
    let ns = per_item_ns(tracer, "cluster.online_assign", rest, |w| {
        black_box(clusterer.assign(w));
    });
    out.put_layer("cluster.online_assign_us", ns / 1e3);
}

/// The three ensemble members, configured as the pipeline configures
/// them, fitted standalone on one representative.
pub struct Members {
    wfgan: Wfgan,
    tcn: TcnForecaster,
    mlp: MlpForecaster,
}

pub fn fit_members(plan: &Plan, rep: &[f64], tracer: &mut Tracer, out: &mut Report) -> Members {
    let cfg = plan.db_cfg();
    let spec = WindowSpec::new(cfg.history, cfg.horizon);
    let mut wfgan = Wfgan::with_config(WfganConfig {
        epochs: cfg.epochs,
        max_examples: cfg.max_examples,
        seed: cfg.seed,
        guard: cfg.guard.clone(),
        ..WfganConfig::default()
    });
    let mut tcn = TcnForecaster::new(cfg.seed.wrapping_add(1));
    tcn.epochs = cfg.epochs;
    tcn.max_examples = cfg.max_examples;
    tcn.guard = cfg.guard.clone();
    let mut mlp = MlpForecaster::new(cfg.seed.wrapping_add(2));
    mlp.epochs = cfg.epochs.max(2);
    mlp.max_examples = cfg.max_examples;
    mlp.guard = cfg.guard.clone();
    let (s, ()) = once_s(tracer, "models.fit_wfgan", || wfgan.fit(rep, spec));
    out.put_layer("models.fit_wfgan_s", s);
    let (s, ()) = once_s(tracer, "models.fit_tcn", || tcn.fit(rep, spec));
    out.put_layer("models.fit_tcn_s", s);
    let (s, ()) = once_s(tracer, "models.fit_mlp", || mlp.fit(rep, spec));
    out.put_layer("models.fit_mlp_s", s);
    Members { wfgan, tcn, mlp }
}

/// Forecast-answer layers on a scratch pipeline decoded from shard 0's
/// snapshot: the whole `forecast_template`, the cluster forecast under
/// it, each member's inference, and the feedback update.
pub fn forecast_layers(
    plan: &Plan,
    blob: &[u8],
    statements: &[String],
    members: &Members,
    tracer: &mut Tracer,
    out: &mut Report,
) {
    let calls = plan.probe_calls;
    let sys = DbAugur::decode_snapshot(plan.db_cfg(), blob).expect("decode shard 0's snapshot");
    let cluster = &sys.clusters()[0];
    let rep = cluster.summary.representative.values().to_vec();
    let window = &rep[rep.len() - HISTORY..];

    let template_ns = per_item_ns(
        tracer,
        "core.forecast_template",
        statements.iter().cycle().take(calls),
        |sql| {
            black_box(sys.forecast_template(black_box(sql)));
        },
    );
    out.put_layer("core.forecast_template_us", template_ns / 1e3);

    let cluster_ns = per_item_ns(tracer, "core.cluster_forecast", 0..calls, |_| {
        black_box(cluster.forecast(black_box(HISTORY)));
    });
    out.put_layer("core.cluster_forecast_us", cluster_ns / 1e3);

    let mut member_ns = 0.0;
    let ns = per_item_ns(tracer, "models.predict_wfgan", 0..calls, |_| {
        black_box(members.wfgan.predict(black_box(window)));
    });
    out.put_layer("models.predict_wfgan_us", ns / 1e3);
    member_ns += ns;
    let ns = per_item_ns(tracer, "models.predict_tcn", 0..calls, |_| {
        black_box(members.tcn.predict(black_box(window)));
    });
    out.put_layer("models.predict_tcn_us", ns / 1e3);
    member_ns += ns;
    let ns = per_item_ns(tracer, "models.predict_mlp", 0..calls, |_| {
        black_box(members.mlp.predict(black_box(window)));
    });
    out.put_layer("models.predict_mlp_us", ns / 1e3);
    member_ns += ns;
    out.put_layer("models.ensemble_mix_us", (cluster_ns - member_ns) / 1e3);

    let actual = rep[rep.len() - 1];
    let ns = per_item_ns(tracer, "core.cluster_observe", 0..calls / 2, |_| {
        cluster.observe(HISTORY, black_box(actual));
    });
    out.put_layer("core.cluster_observe_us", ns / 1e3);
}

/// What a tick's requests cost when handed straight to each shard's
/// pipeline, without the supervisor and governor around them. Returns
/// mean microseconds per tick.
pub fn direct_tick_us(
    plan: &Plan,
    blobs: &[Vec<u8>],
    batch: &Batch,
    template_shard: &[usize],
    tracer: &mut Tracer,
) -> f64 {
    let mut systems: Vec<DbAugur> = blobs
        .iter()
        .map(|b| DbAugur::decode_snapshot(plan.db_cfg(), b).expect("decode a shard snapshot"))
        .collect();
    let ticks = batch
        .forecasts
        .iter()
        .zip(&batch.ingests)
        .take(plan.probe_calls);
    let ns = per_item_ns(tracer, "core.forecast_template_batch", ticks, |(fs, is)| {
        for (shard, sys) in systems.iter_mut().enumerate() {
            let sqls: Vec<&str> = fs
                .iter()
                .filter(|f| template_shard[f.template] == shard)
                .map(|f| f.sql.as_str())
                .collect();
            black_box(sys.forecast_template_batch(&sqls));
            for i in is.iter().filter(|i| template_shard[i.template] == shard) {
                sys.ingest_record(0, &i.sql);
            }
        }
    });
    ns / 1e3
}

/// Training layers on shard 0's registry: binning, the Descender
/// matrix, DTW and its lower bound on trace pairs, top-K selection.
/// Returns the probe's seconds for the shard-level stages (members are
/// fitted by [`forecast_layers`]) and the arrival traces.
pub fn train_layers(
    plan: &Plan,
    sys: &DbAugur,
    tracer: &mut Tracer,
    out: &mut Report,
) -> (f64, Vec<Trace>) {
    let cfg = plan.db_cfg();
    let (bin_s, traces) = once_s(tracer, "sqlproc.arrival_traces", || {
        sys.registry()
            .arrival_traces(0, plan.train_end_secs(), cfg.interval_secs)
    });
    out.put_layer("sqlproc.arrival_traces_ms", bin_s * 1e3);
    let traces: Vec<Trace> = traces.traces().to_vec();

    let (cluster_s, clustering) = once_s(tracer, "cluster.descender", || {
        Descender::new(cfg.clustering, DtwDistance::new(cfg.dtw_window))
            .with_executor(Arc::new(Executor::new(1)))
            .cluster(&traces)
    });
    out.put_layer("cluster.descender_s", cluster_s);

    let (topk_s, _) = once_s(tracer, "cluster.topk", || {
        select_top_k(&traces, &clustering, cfg.top_k)
    });
    out.put_layer("cluster.topk_ms", topk_s * 1e3);

    let pairs: Vec<(&[f64], &[f64])> = traces
        .iter()
        .zip(traces.iter().skip(1))
        .take(64)
        .map(|(a, b)| (a.values(), b.values()))
        .collect();
    let ns = per_item_ns(tracer, "dtw.pair", &pairs, |(a, b)| {
        black_box(dtw_distance(black_box(a), black_box(b), cfg.dtw_window));
    });
    out.put_layer("dtw.pair_us", ns / 1e3);
    let n = traces[0].len();
    let cells: usize = (0..n)
        .map(|i| (i + cfg.dtw_window).min(n - 1) - i.saturating_sub(cfg.dtw_window) + 1)
        .sum();
    out.put_layer("dtw.mcells_per_s", cells as f64 / 1e6 / (ns / 1e9));
    let ns = per_item_ns(tracer, "dtw.lb_keogh", &pairs, |(a, b)| {
        black_box(lb_keogh(black_box(a), black_box(b), cfg.dtw_window));
    });
    out.put_layer("dtw.lb_keogh_ns", ns);
    (bin_s + cluster_s + topk_s, traces)
}

/// `train` of shard 0 from its snapshot at one worker and at two. The
/// ratio is measured whatever the host has; read it beside
/// `host.nproc` — on one core it says nothing about parallel speed-up.
pub fn train_speedup(plan: &Plan, blob: &[u8], tracer: &mut Tracer, out: &mut Report) -> f64 {
    let mut secs = [0.0f64; 2];
    for (slot, threads) in [1usize, 2].into_iter().enumerate() {
        let mut cfg = plan.db_cfg();
        cfg.threads = threads;
        let mut sys = DbAugur::decode_snapshot(cfg, blob).expect("decode shard 0's snapshot");
        let name = if threads == 1 {
            "core.train_1w"
        } else {
            "core.train_2w"
        };
        let (s, trained) = once_s(tracer, name, || sys.train(0, plan.train_end_secs()));
        trained.expect("shard 0 retrains from its own snapshot");
        secs[slot] = s;
    }
    out.put_layer("exec.train_speedup_2w", secs[0] / secs[1]);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.put_layer("host.nproc", nproc as f64);
    secs[0]
}

/// Recovery and checkpoint layers on the crashed store's files and the
/// store recovered from them. `recover_s` is the run's own median.
pub fn recover_layers(
    plan: &Plan,
    dir: &Path,
    store: &mut ShardedDurable,
    recover_s: f64,
    tracer: &mut Tracer,
    out: &mut Report,
) {
    let shard_dirs: Vec<_> = (0..plan.shards)
        .map(|i| dir.join(format!("shard-{i}")))
        .collect();
    let (decode_s, ()) = once_s(tracer, "core.snapshot_decode", || {
        for d in &shard_dirs {
            let gen = list_generations(d).expect("list snapshot generations");
            let newest = *gen.last().expect("the crashed store was checkpointed");
            let bytes = std::fs::read(snapshot_path(d, newest)).expect("read the snapshot");
            black_box(DbAugur::decode_snapshot(plan.db_cfg(), &bytes).expect("decode it"));
        }
    });
    out.put_layer("core.snapshot_decode_ms", decode_s * 1e3);

    let mut records = 0usize;
    let (scan_s, ()) = once_s(tracer, "core.wal_scan", || {
        for d in &shard_dirs {
            records += scan_file_with(&d.join(WAL_FILE), |e| {
                black_box(e);
            })
            .expect("scan the WAL tail")
            .entries;
        }
    });
    out.put_layer("core.wal_scan_ms", scan_s * 1e3);
    out.put_layer("core.wal_replay_ms", (recover_s - decode_s - scan_s) * 1e3);
    out.put_layer("core.wal_tail_records", records as f64);

    let mut bytes = 0usize;
    let (encode_s, ()) = once_s(tracer, "core.snapshot_encode", || {
        for shard in 0..plan.shards {
            bytes += black_box(store.shard_mut(shard).system_mut().encode_snapshot()).len();
        }
    });
    out.put_layer("core.snapshot_encode_ms", encode_s * 1e3);
    out.put_layer("core.snapshot_bytes", bytes as f64);

    // Last: a checkpoint rewrites the on-disk state the probes above read.
    let checkpoints: Vec<f64> = (0..5)
        .map(|_| {
            once_s(tracer, "core.checkpoint", || {
                store.checkpoint_all().expect("checkpoint")
            })
            .0
        })
        .collect();
    out.put_layer("core.checkpoint_ms", median(&checkpoints) * 1e3);
}

/// Σ probe time per operation ÷ end-to-end time per operation. Printed
/// with a warning outside 0.6–1.2: the probes are then missing a layer
/// or double-counting one.
pub fn coverage(name: &'static str, probe: f64, end_to_end: f64, out: &mut Report) {
    let c = probe / end_to_end;
    if !(0.6..=1.2).contains(&c) {
        eprintln!("warning: {name} = {c:.3} is outside the expected 0.6–1.2");
    }
    out.put_layer(name, c);
}
