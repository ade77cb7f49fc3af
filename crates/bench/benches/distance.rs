//! Distance-kernel microbenchmarks at the paper's two embedding
//! dimensionalities (768 and 1536), plus the dimension-major batch kernel
//! at the PQ distance-table shape (256 centroids × 8-d sub-vectors).
//!
//! These kernels are what the engine's [`sann_engine::CostModel`] prices,
//! but its `dist_us_per_dim` default is a modeled AVX2-class server figure,
//! not a measurement of this host: compare the numbers here with it to see
//! how far the model sits from the kernels it stands for.

use sann_bench::microbench::{black_box, criterion_group, criterion_main, Criterion};
use sann_core::distance::{cosine_distance, dot, l2_squared, l2_squared_columns};
use sann_core::rng::SplitMix64;

fn random_vec(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..dim).map(|_| rng.next_f32() - 0.5).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    for dim in [768usize, 1536] {
        let a = random_vec(dim, 1);
        let b = random_vec(dim, 2);
        group.bench_function(format!("l2_squared/{dim}"), |bencher| {
            bencher.iter(|| l2_squared(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("dot/{dim}"), |bencher| {
            bencher.iter(|| dot(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("cosine/{dim}"), |bencher| {
            bencher.iter(|| cosine_distance(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_batch_scan(c: &mut Criterion) {
    // A 1,000-vector scan: the IVF posting-list inner loop.
    let dim = 768;
    let n = 1_000;
    let mut rng = SplitMix64::new(3);
    let data: Vec<f32> = (0..n * dim).map(|_| rng.next_f32()).collect();
    let q = random_vec(dim, 4);
    c.bench_function("distance/scan_1k_768d", |bencher| {
        bencher.iter(|| {
            let mut best = f32::INFINITY;
            for i in 0..n {
                let d = l2_squared(black_box(&q), &data[i * dim..(i + 1) * dim]);
                if d < best {
                    best = d;
                }
            }
            best
        })
    });
}

fn bench_columns(c: &mut Criterion) {
    // One PQ distance-table row: a query sub-vector against 256 centroids
    // of 8 dimensions, stored dimension-major.
    let (k, dim) = (256, 8);
    let cols = random_vec(k * dim, 5);
    let v = random_vec(dim, 6);
    let (mut out, mut lanes) = (vec![0.0f32; k], vec![0.0f32; 4 * k]);
    c.bench_function("distance/l2_squared_columns/256x8", |bencher| {
        bencher.iter(|| {
            l2_squared_columns(black_box(&v), black_box(&cols), k, &mut out, &mut lanes);
            out[0]
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_kernels, bench_batch_scan, bench_columns
);
criterion_main!(benches);
