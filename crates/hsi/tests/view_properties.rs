//! Property tests for the zero-copy message plane: for arbitrary cube
//! dimensions and partition counts, every [`CubeView`] row band must read
//! byte-identical (`f64` bit patterns, not approximate equality) to the
//! owned copy `HyperCube::window(0, y, w, h)` makes of the same rows —
//! including edge partitions (more sub-cubes than rows) and single rows.

use hsi::partition::{partition_rows, partition_views};
use hsi::{CubeDims, CubeView, HyperCube};
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic cube whose every sample is a distinct, seed-dependent
/// value, so byte-identity failures cannot hide behind repeated samples.
fn coded_cube(dims: CubeDims, salt: f64) -> Arc<HyperCube> {
    let samples: Vec<f64> = (0..dims.samples())
        .map(|i| salt + (i as f64) * 0.372_912_4 + (i as f64).sin() * 1e-3)
        .collect();
    Arc::new(HyperCube::from_samples(dims, samples).expect("length matches"))
}

/// Bit-exact comparison of two pixel-slice iterators.
fn assert_bits_eq<'a>(
    a: impl Iterator<Item = &'a [f64]>,
    b: impl Iterator<Item = &'a [f64]>,
) -> bool {
    let a: Vec<&[f64]> = a.collect();
    let b: Vec<&[f64]> = b.collect();
    a.len() == b.len()
        && a.iter().zip(&b).all(|(pa, pb)| {
            pa.len() == pb.len()
                && pa
                    .iter()
                    .zip(pb.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: for any dims and any partition count (often
    /// exceeding the row count, so the edge partitions and the cap kick
    /// in), every partition view reads byte-identical to the owned window
    /// of the same rows.
    #[test]
    fn partition_views_read_byte_identical_to_extract(
        w in 1usize..14,
        h in 1usize..22,
        b in 1usize..7,
        parts in 1usize..40,
        salt in -500.0..500.0f64,
    ) {
        let dims = CubeDims::new(w, h, b);
        let cube = coded_cube(dims, salt);
        let specs = partition_rows(dims, parts).unwrap();
        let views = partition_views(&cube, parts).unwrap();
        prop_assert_eq!(specs.len(), views.len());
        let mut covered_rows = 0;
        for (spec, view) in specs.iter().zip(&views) {
            let owned = cube.window(0, spec.row_start, spec.width, spec.rows).unwrap();
            prop_assert_eq!(view.row_start(), spec.row_start);
            prop_assert_eq!(view.dims(), owned.dims());
            prop_assert_eq!(view.payload_bytes(), spec.payload_bytes());
            prop_assert!(assert_bits_eq(view.iter_pixels(), owned.iter_pixels()));
            // Materializing the view reproduces the owned copy exactly.
            prop_assert_eq!(&view.materialize(), &owned);
            // Random-access pixel reads agree too.
            let (px, py) = (spec.width / 2, spec.rows / 2);
            prop_assert_eq!(view.pixel(px, py).unwrap(), owned.pixel(px, py).unwrap());
            covered_rows += spec.rows;
        }
        prop_assert_eq!(covered_rows, h);
    }

    /// Single-pixel views — one row of a one-column cube, the smallest view
    /// there is — still read the exact backing samples.
    #[test]
    fn single_pixel_windows_are_byte_identical(
        h in 1usize..12,
        b in 1usize..9,
        ys in 0usize..144,
        salt in -500.0..500.0f64,
    ) {
        let dims = CubeDims::new(1, h, b);
        let cube = coded_cube(dims, salt);
        let y = ys % h;
        let view = CubeView::window(Arc::clone(&cube), y, 1).unwrap();
        prop_assert_eq!(view.pixels(), 1);
        let direct = cube.pixel(0, y).unwrap();
        let through_view = view.pixel(0, 0).unwrap();
        prop_assert!(through_view
            .iter()
            .zip(direct.iter())
            .all(|(a, c)| a.to_bits() == c.to_bits()));
        prop_assert_eq!(&view.materialize(), &cube.window(0, y, 1, 1).unwrap());
    }

    /// Arbitrary row bands `[y, y + rows)`, single rows included: every
    /// pixel, the pixel iteration and the materialized copy read the exact
    /// samples of `HyperCube::window(0, y, w, rows)`.
    #[test]
    fn row_bands_are_byte_identical_to_owned_windows(
        w in 1usize..12,
        h in 1usize..12,
        b in 1usize..9,
        ys in 0usize..144,
        rows_s in 0usize..144,
        salt in -500.0..500.0f64,
    ) {
        let dims = CubeDims::new(w, h, b);
        let cube = coded_cube(dims, salt);
        let y = ys % h;
        let rows = 1 + rows_s % (h - y);
        let view = CubeView::window(Arc::clone(&cube), y, rows).unwrap();
        let reference = cube.window(0, y, w, rows).unwrap();
        prop_assert_eq!(view.row_start(), y);
        prop_assert_eq!(view.dims(), reference.dims());
        for dy in 0..rows {
            for dx in 0..w {
                let got = view.pixel(dx, dy).unwrap();
                let expect = reference.pixel(dx, dy).unwrap();
                prop_assert!(got
                    .iter()
                    .zip(expect.iter())
                    .all(|(a, c)| a.to_bits() == c.to_bits()));
            }
        }
        prop_assert!(assert_bits_eq(view.iter_pixels(), reference.iter_pixels()));
        prop_assert_eq!(&view.materialize(), &reference);
    }

    /// Materializing every partition view charges the clone ledger with the
    /// full payload volume: `CubeView::copy_runs` is where every deep copy
    /// is counted.  (Exact-zero assertions for view clones live in
    /// single-charger test binaries: `pct`'s message and pipeline tests.)
    #[test]
    fn materialize_charges_the_clone_ledger_with_payload_bytes(
        w in 1usize..10,
        h in 2usize..16,
        b in 1usize..6,
        parts in 1usize..16,
        salt in -500.0..500.0f64,
    ) {
        let dims = CubeDims::new(w, h, b);
        let cube = coded_cube(dims, salt);
        let views = partition_views(&cube, parts).unwrap();
        let expected: usize = views.iter().map(|v| v.payload_bytes()).sum();
        let ledger = hsi::CloneLedger::snapshot();
        for view in &views {
            view.materialize();
        }
        // At least the payload volume was charged (concurrent tests may
        // charge the shared ledger on top).
        prop_assert!(ledger.delta() >= expected as u64);
        prop_assert_eq!(expected, dims.samples() * 8);
    }
}
