//! Criterion micro-benchmarks for the performance-sensitive substrates:
//! DTW and its lower bounds, Ball-Tree queries, Descender clustering,
//! one training epoch per neural model, single-window inference, and
//! both sides of a trained cluster's serving state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbaugur::{DbAugur, DbAugurConfig};
use dbaugur_bench::datasets::Scale;
use dbaugur_cluster::{Descender, DescenderParams};
use dbaugur_dtw::{dtw_distance, lb_keogh, BallTree, Distance, DtwDistance};
use dbaugur_models::util::prepare;
use dbaugur_models::Forecaster;
use dbaugur_nn::Adam;
use dbaugur_trace::{synth, WindowSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn series(seed: u64, n: usize) -> Vec<f64> {
    synth::bustracker(seed, (n / synth::SAMPLES_PER_DAY).max(1)).values()[..n].to_vec()
}

fn bench_dtw(c: &mut Criterion) {
    let a = series(1, 288);
    let b = series(2, 288);
    let mut g = c.benchmark_group("dtw");
    for w in [8usize, 32, 288] {
        g.bench_with_input(BenchmarkId::new("banded", w), &w, |bench, &w| {
            bench.iter(|| dtw_distance(black_box(&a), black_box(&b), w));
        });
    }
    g.bench_function("lb_keogh_w8", |bench| {
        bench.iter(|| lb_keogh(black_box(&a), black_box(&b), 8));
    });
    g.finish();
}

fn bench_balltree(c: &mut Criterion) {
    let points: Vec<Vec<f64>> = (0..200).map(|i| series(i as u64, 144)).collect();
    let metric = DtwDistance::new(10);
    let tree = BallTree::build(points.clone(), metric);
    let query = points[0].clone();
    let mut g = c.benchmark_group("balltree");
    g.bench_function("within_pruned", |bench| {
        bench.iter(|| tree.within(black_box(&query), 60.0).len());
    });
    g.bench_function("scan_lb_filtered", |bench| {
        bench.iter(|| tree.scan_within(black_box(&query), 60.0).len());
    });
    g.bench_function("naive_full_dtw", |bench| {
        bench.iter(|| {
            points.iter().filter(|p| metric.dist(black_box(&query), p) <= 60.0).count()
        });
    });
    g.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let traces: Vec<_> = (0..30)
        .map(|i| synth::add_noise(&synth::bustracker(i as u64 % 5, 1), 10.0, i as u64))
        .collect();
    c.bench_function("descender_30_traces", |bench| {
        bench.iter(|| {
            let params = DescenderParams { rho: 6.0, min_size: 3, normalize: true };
            Descender::new(params, DtwDistance::new(10)).cluster(black_box(&traces))
        });
    });
}

fn bench_training_epoch(c: &mut Criterion) {
    let scale = Scale::quick();
    let trace = synth::bustracker(3, 4);
    let spec = WindowSpec::new(30, 1);
    let train = &trace.values()[..trace.len() * 7 / 10];
    let data = prepare(train, spec).expect("train data");
    let mut g = c.benchmark_group("train_epoch");
    g.sample_size(10);

    g.bench_function("mlp", |bench| {
        let mut m = dbaugur_bench::zoo::mlp(&scale);
        m.fit(train, spec);
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = Adam::new(1e-3);
        bench.iter(|| m.train_epoch(&data, &mut rng, &mut opt));
    });
    g.bench_function("lstm", |bench| {
        let mut m = dbaugur_bench::zoo::lstm(&scale);
        m.fit(train, spec);
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = Adam::new(1e-3);
        bench.iter(|| m.train_epoch(&data, &mut rng, &mut opt));
    });
    g.bench_function("tcn", |bench| {
        let mut m = dbaugur_bench::zoo::tcn(&scale);
        m.fit(train, spec);
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = Adam::new(1e-3);
        bench.iter(|| m.train_epoch(&data, &mut rng, &mut opt));
    });
    g.bench_function("wfgan", |bench| {
        let mut m = dbaugur_bench::zoo::wfgan(&scale);
        m.fit(train, spec);
        let mut rng = StdRng::seed_from_u64(0);
        let mut og = Adam::new(1e-3);
        let mut od = Adam::new(1e-3);
        bench.iter(|| m.train_epoch(&data, &mut rng, &mut og, &mut od));
    });
    g.finish();
}

fn bench_inference(c: &mut Criterion) {
    let scale = Scale::quick();
    let trace = synth::bustracker(3, 4);
    let spec = WindowSpec::new(30, 1);
    let train = &trace.values()[..trace.len() * 7 / 10];
    let window = &train[train.len() - 30..];
    let mut g = c.benchmark_group("inference");
    for name in ["LR", "MLP", "LSTM", "TCN", "WFGAN"] {
        let mut model = dbaugur_bench::zoo::standalone(name, &scale);
        model.fit(train, spec);
        g.bench_function(name, |bench| {
            bench.iter(|| model.predict(black_box(window)));
        });
    }
    g.finish();
}

/// A request answered from a warm serving state, one that has to fill
/// it, and feedback re-mixing a warm one.
fn bench_serving(c: &mut Criterion) {
    let mut cfg = DbAugurConfig {
        interval_secs: 60,
        history: 8,
        horizon: 1,
        top_k: 2,
        ..DbAugurConfig::default()
    };
    cfg.clustering.min_size = 1;
    cfg.fast();
    let history = cfg.history;
    let mut sys = DbAugur::new(cfg);
    for minute in 0..120u64 {
        for q in 0..2 + 5 * u64::from(minute % 10 < 5) {
            sys.ingest_record(minute * 60 + q, "SELECT * FROM t WHERE a = 1");
        }
    }
    sys.train(0, 120 * 60).expect("trains");
    let sql = "SELECT * FROM t WHERE a = 9";
    let cluster = &sys.clusters()[0];
    // The one slot is keyed by window length: asking for a shorter
    // window evicts what the request's length left there.
    let chill = || cluster.forecast(history - 1);

    let warm = sys.forecast_template(sql).expect("covered");
    chill();
    let refilled = sys.forecast_template(sql).expect("covered");
    assert_eq!(warm.to_bits(), refilled.to_bits(), "a refill serves the same bits");

    let mut g = c.benchmark_group("forecast_template");
    g.bench_function("warm", |bench| {
        bench.iter(|| sys.forecast_template(black_box(sql)));
    });
    // Two fills an iteration: the eviction's own and the request's.
    g.bench_function("cold", |bench| {
        bench.iter(|| {
            chill();
            sys.forecast_template(black_box(sql))
        });
    });
    g.finish();
    c.bench_function("cluster_observe/warm", |bench| {
        bench.iter(|| cluster.observe(history, black_box(5.0)));
    });
}

criterion_group!(
    benches,
    bench_dtw,
    bench_balltree,
    bench_clustering,
    bench_training_epoch,
    bench_inference,
    bench_serving
);
criterion_main!(benches);
