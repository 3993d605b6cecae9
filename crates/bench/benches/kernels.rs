//! Criterion benchmarks for the fast compute kernels against their
//! naive references: blocked matmul/t_matmul/matmul_t, the banded DTW
//! inner loop, and batched ensemble inference. Every case first asserts
//! the fast kernel is bitwise-identical to its f64 reference — a
//! mismatch fails the bench run, which is what the CI `drills` job
//! keys on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbaugur_bench::kernels::{seeded_mat, seeded_series};
use dbaugur_dtw::{
    dtw_distance_early_abandon_reference, dtw_distance_early_abandon_scratch, DtwScratch,
};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for dim in [32usize, 128] {
        let a = seeded_mat(dim, dim, 11);
        let b = seeded_mat(dim, dim, 23);
        assert_eq!(
            a.matmul(&b).as_slice(),
            a.matmul_reference(&b).as_slice(),
            "blocked matmul diverged from reference at {dim}"
        );
        assert_eq!(a.t_matmul(&b).as_slice(), a.t_matmul_reference(&b).as_slice());
        assert_eq!(a.matmul_t(&b).as_slice(), a.matmul_t_reference(&b).as_slice());
        g.bench_with_input(BenchmarkId::new("naive", dim), &dim, |bench, _| {
            bench.iter(|| black_box(a.matmul_reference(black_box(&b))));
        });
        g.bench_with_input(BenchmarkId::new("blocked", dim), &dim, |bench, _| {
            bench.iter(|| black_box(a.matmul(black_box(&b))));
        });
        g.bench_with_input(BenchmarkId::new("blocked_t_matmul", dim), &dim, |bench, _| {
            bench.iter(|| black_box(a.t_matmul(black_box(&b))));
        });
        g.bench_with_input(BenchmarkId::new("blocked_matmul_t", dim), &dim, |bench, _| {
            bench.iter(|| black_box(a.matmul_t(black_box(&b))));
        });
    }
    g.finish();
}

fn bench_dtw_kernel(c: &mut Criterion) {
    let a = seeded_series(512, 1);
    let b = seeded_series(512, 2);
    let mut g = c.benchmark_group("dtw_kernel");
    for w in [8usize, 64] {
        let mut scratch = DtwScratch::new();
        let reference = dtw_distance_early_abandon_reference(&a, &b, w, f64::INFINITY);
        let banded =
            dtw_distance_early_abandon_scratch(&a, &b, w, f64::INFINITY, &mut scratch);
        assert_eq!(
            reference.to_bits(),
            banded.to_bits(),
            "banded DTW diverged from reference at w={w}"
        );
        g.bench_with_input(BenchmarkId::new("reference", w), &w, |bench, &w| {
            bench.iter(|| {
                dtw_distance_early_abandon_reference(
                    black_box(&a),
                    black_box(&b),
                    w,
                    f64::INFINITY,
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("banded", w), &w, |bench, &w| {
            let mut scratch = DtwScratch::new();
            bench.iter(|| {
                dtw_distance_early_abandon_scratch(
                    black_box(&a),
                    black_box(&b),
                    w,
                    f64::INFINITY,
                    &mut scratch,
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_dtw_kernel);
criterion_main!(benches);
