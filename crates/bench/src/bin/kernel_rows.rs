//! Kernel timings for `bench/BENCH_history.csv`: the slice-fed screening
//! engine on a 64×64×32 scene at 5°, per pixel·unique-member; the two dot
//! kernels behind it (plain `dot_fast`, compensated `dot`), per element; and
//! step 6 at the paper's 210 bands — `sorted_eigenpairs` on the covariance
//! of a 32×32×210 scene's unique set at 5° — next to the cyclic Jacobi
//! oracle (`linalg::reference`) it is held to within error bounds; step 7
//! (`transform_cube`, three components) per pixel·band and the ingest
//! store's `content_hash` per MiB, both on the 64×64×32 scene.
//!
//! Lines starting with `CSV` are parsed by `bench/record.sh`.  Each value
//! is the median of 15 timed runs after a warm-up; wall-clock and
//! trend-only.

use hsi::{CubeDims, SceneConfig, SceneGenerator};
use linalg::covariance::covariance_matrix;
use linalg::eigen::{sorted_eigenpairs, JacobiOptions};
use linalg::reference::sorted_eigenpairs_reference;
use pct::pipeline::transform_cube;
use pct::screening::screen_slices;
use pct::SequentialPct;
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds over 15 timed runs of `routine`, after one untimed
/// warm-up.
fn median_ns(mut routine: impl FnMut()) -> f64 {
    routine();
    let mut ns: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

fn scene(width: usize, height: usize, bands: usize) -> hsi::HyperCube {
    let mut config = SceneConfig::small(99);
    config.dims = CubeDims::new(width, height, bands);
    SceneGenerator::new(config).unwrap().generate()
}

fn main() {
    let cube = scene(64, 64, 32);
    let threshold = 5.0_f64.to_radians();
    let unique = screen_slices(cube.iter_pixels(), threshold).len();
    let screen = median_ns(|| {
        black_box(screen_slices(black_box(&cube).iter_pixels(), threshold));
    });
    println!(
        "CSV kernel_screen_ns_per_px_unique {:.3}",
        screen / (cube.pixels() * unique) as f64
    );
    // Each pixel against its successor: 4095 dots of 32 elements per run.
    let pixels = cube.pixel_vectors();
    let elems = ((pixels.len() - 1) * cube.bands()) as f64;
    let dots = |dot: fn(&[f64], &[f64]) -> f64| {
        median_ns(|| {
            let sum: f64 = black_box(&pixels)
                .windows(2)
                .map(|w| dot(w[0].as_slice(), w[1].as_slice()))
                .sum();
            black_box(sum);
        }) / elems
    };
    println!(
        "CSV kernel_dot_fast_ns_per_elem {:.3}",
        dots(linalg::dot_fast)
    );
    println!("CSV kernel_dot_ns_per_elem {:.3}", dots(linalg::dot));

    let (spec, _) = SequentialPct::default().derive(&cube).unwrap();
    let transform = median_ns(|| {
        black_box(transform_cube(black_box(&spec), black_box(&cube)).unwrap());
    });
    println!(
        "CSV kernel_transform_ns_per_px_band {:.3}",
        transform / (cube.pixels() * cube.bands()) as f64
    );
    let hash = median_ns(|| {
        black_box(ingest::store::content_hash(black_box(&cube)));
    });
    println!(
        "CSV kernel_content_hash_ns_per_mb {:.0}",
        hash / (cube.byte_size() as f64 / (1 << 20) as f64)
    );

    let unique = screen_slices(scene(32, 32, 210).iter_pixels(), threshold);
    let covariance = covariance_matrix(&unique).unwrap();
    let options = JacobiOptions::default();
    let eigen = median_ns(|| {
        black_box(sorted_eigenpairs(black_box(&covariance), options).unwrap());
    });
    let oracle = median_ns(|| {
        black_box(sorted_eigenpairs_reference(black_box(&covariance), options).unwrap());
    });
    println!(
        "CSV kernel_eigen_210_ms {:.3} (oracle {:.3} ms, ratio {:.3})",
        eigen / 1e6,
        oracle / 1e6,
        eigen / oracle
    );
}
