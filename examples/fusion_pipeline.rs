//! Full fusion pipeline on a paper-scale scene: reproduces the qualitative
//! artefacts of Figures 2 and 3 — two single-band frames (near 400 nm and
//! 1998 nm) and the fused colour composite.
//!
//! Run with: `cargo run --example fusion_pipeline --release`
//! (Pass a directory argument to choose where the images are written.)

use hsi::{io, SceneConfig, SceneGenerator};
use pct::{PctConfig, SequentialPct};
use std::path::PathBuf;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);

    // A reduced paper-like scene (the full 320x320x210 takes minutes in a
    // debug build; 128x128x64 preserves the qualitative behaviour).
    let mut config = SceneConfig::paper_full(2026);
    config.dims = hsi::CubeDims::new(128, 128, 64);
    let generator = SceneGenerator::new(config).expect("valid scene config");
    let cube = generator.generate();

    // Figure 2: two raw frames, one in the visible and one in the SWIR.
    let band_visible = generator.band_for_wavelength(400.0);
    let band_swir = generator.band_for_wavelength(1998.0);
    let visible_path = out_dir.join("band_400nm.pgm");
    let swir_path = out_dir.join("band_1998nm.pgm");
    io::write_band_pgm(&cube, band_visible, &visible_path).expect("write 400nm frame");
    io::write_band_pgm(&cube, band_swir, &swir_path).expect("write 1998nm frame");
    println!(
        "figure 2 frames: {} and {}",
        visible_path.display(),
        swir_path.display()
    );

    // Figure 3: the fused colour composite (sequential reference).
    let sequential = SequentialPct::new(PctConfig::paper())
        .run(&cube)
        .expect("sequential fusion");
    let fused_path = out_dir.join("fused.ppm");
    io::write_ppm(&sequential.image, &fused_path).expect("write fused composite");
    println!(
        "figure 3 composite: {} (unique set {}, PC1-3 variance {:.1}%)",
        fused_path.display(),
        sequential.unique_count,
        100.0 * sequential.variance_fraction(3)
    );
}
