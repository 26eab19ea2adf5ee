//! Ablation: spectral-screening threshold versus unique-set size and cost.
//! Smaller thresholds keep more unique vectors (better statistics, more
//! work); this bench measures the screening kernel across thresholds and
//! prints the retention so DESIGN.md's ablation question is answerable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hsi::{CubeDims, SceneConfig, SceneGenerator};
use pct::reference::naive_screen;
use pct::screening::screen_pixels;

fn bench_thresholds(c: &mut Criterion) {
    let mut config = SceneConfig::small(7);
    config.dims = CubeDims::new(32, 32, 24);
    let cube = SceneGenerator::new(config).unwrap().generate();
    let pixels = cube.pixel_vectors();

    let mut group = c.benchmark_group("screening_threshold_ablation");
    group.sample_size(10);
    for &degrees in &[1.0f64, 2.0, 5.0, 10.0, 20.0] {
        let threshold = degrees.to_radians();
        let unique = screen_pixels(&pixels, threshold);
        assert_eq!(unique, naive_screen(&pixels, threshold));
        println!(
            "threshold {degrees:>5.1} deg -> {:>5} unique of {} pixels ({:.1}%)",
            unique.len(),
            pixels.len(),
            100.0 * unique.len() as f64 / pixels.len() as f64
        );
        group.bench_with_input(BenchmarkId::from_parameter(degrees), &threshold, |b, &t| {
            b.iter(|| screen_pixels(&pixels, t))
        });
        group.bench_with_input(
            BenchmarkId::new("naive_reference", degrees),
            &threshold,
            |b, &t| b.iter(|| naive_screen(&pixels, t)),
        );
    }
    group.finish();
}

criterion_group!(screening_ablation, bench_thresholds);
criterion_main!(screening_ablation);
