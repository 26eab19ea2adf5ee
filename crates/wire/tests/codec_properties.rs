//! Property suite for the wire codec: arbitrary messages round-trip
//! *bit*-identical, and no malformed input — truncated, bit-flipped,
//! oversized-length or version-mismatched — ever panics the decoder; it
//! always surfaces a typed [`WireError`].

use hsi::{CubeDims, CubeView, HyperCube};
use linalg::{Matrix, Vector, NUMERICS_VERSION};
use pct::messages::PctMessage;
use pct::PctConfig;
use proptest::prelude::*;
use std::sync::Arc;
use wire::frame::{frame, FrameReader, FRAME_HEADER_BYTES};
use wire::{decode_body, encode_message, Transport, WireError, WireMessage, PROTOCOL_VERSION};

/// A deterministic cube whose every sample is a distinct salted value, so
/// bit-identity failures cannot hide behind repeated samples.
fn coded_cube(dims: CubeDims, salt: f64) -> Arc<HyperCube> {
    let samples: Vec<f64> = (0..dims.samples())
        .map(|i| salt + (i as f64) * 0.372_912_4 + (i as f64).sin() * 1e-3)
        .collect();
    Arc::new(HyperCube::from_samples(dims, samples).expect("length matches"))
}

/// Shard `pick` (modulo the shard count) of a salted `w × h × b` cube cut
/// into `shards` row bands: non-zero scene rows, and single rows whenever
/// there are more shards than rows.
fn coded_view(w: usize, h: usize, b: usize, shards: usize, pick: usize, salt: f64) -> CubeView {
    let cube = coded_cube(CubeDims::new(w, h, b), salt);
    let mut views = hsi::partition::partition_views(&cube, shards).expect("partition");
    views.swap_remove(pick % views.len())
}

fn coded_vectors(count: usize, bands: usize, salt: f64) -> Vec<Vector> {
    (0..count)
        .map(|i| {
            Vector::from_vec(
                (0..bands)
                    .map(|k| salt * 0.7 + (i * bands + k) as f64 * 1.618)
                    .collect(),
            )
        })
        .collect()
}

fn round_trip(msg: &WireMessage) -> WireMessage {
    let bytes = encode_message(msg);
    assert_eq!(wire::frame_len(msg), bytes.len());
    let mut reader = FrameReader::new();
    reader.push(&bytes);
    let body = reader.next_frame().expect("valid frame").expect("complete");
    decode_body(&body).expect("decodes")
}

/// Bit-exact equality: `PartialEq` on f64 treats `-0.0 == 0.0` and
/// NaN ≠ NaN, so byte-level comparison of a re-encode is the real oracle.
fn assert_bits_round_trip(msg: &WireMessage) {
    let decoded = round_trip(msg);
    assert_eq!(&decoded, msg);
    assert_eq!(encode_message(&decoded), encode_message(msg));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Screen tasks over any shard of any partition — more shards than
    /// rows included — round-trip bit-identical, including the scene row
    /// workers label results with.
    #[test]
    fn screen_tasks_round_trip(
        w in 1usize..12,
        h in 1usize..16,
        b in 1usize..6,
        shards in 1usize..24,
        pick in 0usize..24,
        task in 0usize..1_000_000,
        salt in -100.0..100.0f64,
    ) {
        let view = coded_view(w, h, b, shards, pick, salt);
        let y0 = view.row_start();
        let msg = WireMessage::Pct(PctMessage::ScreenTask {
            task,
            view: view.clone(),
            threshold_rad: salt * 1e-3,
        });
        let decoded = round_trip(&msg);
        let WireMessage::Pct(PctMessage::ScreenTask { view: dv, .. }) = &decoded else {
            panic!("variant changed across the wire");
        };
        prop_assert_eq!(dv.row_start(), y0);
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(encode_message(&decoded), encode_message(&msg));
    }

    /// Seeded screening: the view plus an arbitrary seed set survive
    /// together.
    #[test]
    fn seeded_tasks_round_trip(
        w in 1usize..10,
        h in 1usize..10,
        b in 1usize..5,
        shards in 1usize..16,
        pick in 0usize..16,
        seed in 0usize..9,
        salt in -50.0..50.0f64,
    ) {
        let msg = WireMessage::Pct(PctMessage::ScreenSeededTask {
            task: 3,
            view: coded_view(w, h, b, shards, pick, salt),
            seed: coded_vectors(seed, b, salt),
            threshold_rad: 0.0874,
        });
        assert_bits_round_trip(&msg);
    }

    /// Transform tasks: view + mean + matrix + scales, the largest layout.
    #[test]
    fn transform_tasks_round_trip(
        w in 1usize..10,
        h in 1usize..10,
        b in 1usize..6,
        comps in 1usize..5,
        shards in 1usize..16,
        pick in 0usize..16,
        salt in -50.0..50.0f64,
    ) {
        let mean = coded_vectors(1, b, salt).pop().unwrap();
        let transform = Matrix::from_row_major(
            comps,
            b,
            (0..comps * b).map(|i| salt + i as f64 * 0.31).collect(),
        ).unwrap();
        let msg = WireMessage::Pct(PctMessage::TransformTask {
            task: 5,
            view: coded_view(w, h, b, shards, pick, salt),
            mean,
            transform,
            scales: (0..comps).map(|i| (salt - i as f64, salt + i as f64)).collect(),
        });
        assert_bits_round_trip(&msg);
    }

    /// Reply messages (unique sets, covariance sums, strips, derived
    /// transforms, failures) round-trip with special float values mixed in.
    #[test]
    fn reply_messages_round_trip(
        n in 0usize..12,
        b in 1usize..6,
        count in 0u64..1_000_000,
        salt in -50.0..50.0f64,
    ) {
        let mut packed: Vec<f64> = (0..b * (b + 1) / 2).map(|i| salt * i as f64).collect();
        // Special values must survive bit-exactly.
        if let Some(first) = packed.first_mut() {
            *first = -0.0;
        }
        let vectors = coded_vectors(n, b, salt);
        for msg in [
            WireMessage::Pct(PctMessage::UniqueSet { task: 1, unique: vectors.clone() }),
            WireMessage::Pct(PctMessage::SeededUnique { task: 2, accepted: vectors.clone() }),
            WireMessage::Pct(PctMessage::CovarianceTask {
                task: 3,
                mean: Vector::from_vec(vec![f64::INFINITY; b]),
                pixels: vectors.clone(),
            }),
            WireMessage::Pct(PctMessage::CovarianceSum { task: 4, packed: packed.clone(), bands: b, count }),
            WireMessage::Pct(PctMessage::RgbStrip {
                task: 5,
                row_start: n,
                rows: 2,
                width: b,
                rgb: (0..n * 3).map(|i| (i % 251) as u8).collect(),
            }),
            WireMessage::Pct(PctMessage::DeriveTask {
                task: 6,
                unique: vectors.clone(),
                config: PctConfig { screening_angle_rad: salt.abs() * 1e-3, output_components: b },
            }),
            WireMessage::Pct(PctMessage::DerivedTransform {
                task: 7,
                mean: Vector::from_vec((0..b).map(|i| salt + i as f64).collect()),
                transform: Matrix::from_row_major(1, b, (0..b).map(|i| i as f64).collect()).unwrap(),
                eigenvalues: packed,
            }),
            WireMessage::Pct(PctMessage::TaskFailed { task: 8, error: format!("err {salt}") }),
            WireMessage::Pct(PctMessage::Heartbeat),
            WireMessage::Pct(PctMessage::Shutdown),
            WireMessage::Hello { version: count as u32, numerics: b as u32 },
        ] {
            assert_bits_round_trip(&msg);
        }
    }

    /// NaN payload bits survive: `PartialEq` can't see this, the re-encoded
    /// bytes can.
    #[test]
    fn nan_bit_patterns_survive(payload in 0u64..0x000F_FFFF_FFFF_FFFF) {
        // Quiet-NaN with an arbitrary payload.
        let nan = f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        let msg = WireMessage::Pct(PctMessage::CovarianceSum {
            task: 0,
            packed: vec![nan],
            bands: 1,
            count: 1,
        });
        let bytes = encode_message(&msg);
        let decoded = round_trip(&msg);
        prop_assert_eq!(encode_message(&decoded), bytes);
        let WireMessage::Pct(PctMessage::CovarianceSum { packed, .. }) = decoded else {
            panic!("variant changed");
        };
        prop_assert_eq!(packed[0].to_bits(), nan.to_bits());
    }

    /// Truncating a valid body at *any* point yields a typed error — never
    /// a panic, never a bogus success.
    #[test]
    fn truncated_bodies_are_typed_errors(
        w in 1usize..8,
        h in 1usize..8,
        b in 1usize..4,
        cut in 0.0..1.0f64,
        salt in -10.0..10.0f64,
    ) {
        let msg = WireMessage::Pct(PctMessage::ScreenTask {
            task: 1,
            view: coded_view(w, h, b, 1, 0, salt),
            threshold_rad: 0.1,
        });
        let bytes = encode_message(&msg);
        let body = &bytes[FRAME_HEADER_BYTES..];
        let cut_at = ((body.len() - 1) as f64 * cut) as usize;
        match decode_body(&body[..cut_at]) {
            Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_)) => {}
            Ok(_) => prop_assert!(false, "truncated body decoded successfully"),
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }

    /// Flipping any single body bit is caught by the CRC before decoding.
    #[test]
    fn corrupted_frames_fail_crc(
        byte_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let msg = WireMessage::Pct(PctMessage::TaskFailed {
            task: 9,
            error: "integrity probe".to_string(),
        });
        let mut bytes = encode_message(&msg);
        let body_len = bytes.len() - FRAME_HEADER_BYTES;
        let idx = FRAME_HEADER_BYTES + ((body_len - 1) as f64 * byte_frac) as usize;
        bytes[idx] ^= 1 << bit;
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        prop_assert!(matches!(
            reader.next_frame(),
            Err(WireError::CrcMismatch { .. })
        ));
    }

    /// Any announced body length beyond the ceiling is rejected before
    /// allocation, whatever the rest of the header claims.
    #[test]
    fn oversized_lengths_are_rejected(extra in 1u32..u32::MAX / 2) {
        let mut bytes = frame(b"tiny");
        let huge = (wire::MAX_FRAME_BYTES as u32).saturating_add(extra);
        bytes[4..8].copy_from_slice(&huge.to_le_bytes());
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        prop_assert!(matches!(
            reader.next_frame(),
            Err(WireError::OversizedFrame { .. })
        ));
    }

    /// Every foreign version number is rejected by the handshake with the
    /// typed mismatch error carrying both versions.
    #[test]
    fn version_mismatches_are_typed(theirs in 0u32..10_000) {
        prop_assume!(theirs != PROTOCOL_VERSION);
        let (mut ours, mut peer) = wire::loopback_pair();
        peer.send(&WireMessage::Hello { version: theirs, numerics: NUMERICS_VERSION }).unwrap();
        let err = wire::handshake(&mut ours, std::time::Duration::from_millis(200)).unwrap_err();
        prop_assert_eq!(
            err,
            WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs }
        );
    }

    /// A `Hello` carries protocol and numerics versions through a round
    /// trip; cut after the protocol word it is a pre-numerics peer's, which
    /// decodes (numerics 1) instead of reading as truncated; and whatever
    /// foreign numerics a peer of our protocol announces, the handshake
    /// refuses it typed, with both values.
    #[test]
    fn hello_numerics_round_trip_and_mismatches_are_typed(version in 0u32..10_000, numerics in 0u32..10_000) {
        let hello = WireMessage::Hello { version, numerics };
        assert_bits_round_trip(&hello);
        let frame_bytes = encode_message(&hello);
        let body = &frame_bytes[FRAME_HEADER_BYTES..];
        prop_assert_eq!(
            decode_body(&body[..5]),
            Ok(WireMessage::Hello { version, numerics: 1 })
        );
        prop_assert!(matches!(decode_body(&body[..7]), Err(WireError::Truncated { .. })));

        prop_assume!(numerics != NUMERICS_VERSION);
        let (mut ours, mut peer) = wire::loopback_pair();
        peer.send(&WireMessage::Hello { version: PROTOCOL_VERSION, numerics }).unwrap();
        let err = wire::handshake(&mut ours, std::time::Duration::from_millis(200)).unwrap_err();
        prop_assert_eq!(
            err,
            WireError::NumericsMismatch { ours: NUMERICS_VERSION, theirs: numerics }
        );
    }
}

/// Frames arriving one byte at a time reassemble into the identical
/// message — the transport buffering can never split a message apart.
#[test]
fn byte_dribbled_frames_reassemble() {
    let msg = WireMessage::Pct(PctMessage::UniqueSet {
        task: 77,
        unique: vec![Vector::from_vec(vec![1.5, -2.5, f64::EPSILON])],
    });
    let bytes = encode_message(&msg);
    let mut reader = FrameReader::new();
    let mut decoded = None;
    for &byte in &bytes {
        reader.push(&[byte]);
        if let Some(body) = reader.next_frame().expect("no corruption") {
            decoded = Some(decode_body(&body).expect("decodes"));
        }
    }
    assert_eq!(decoded, Some(msg));
}

/// Exact rows: the fixed message set of a three-shard fusion exchange on a
/// 28×28×14 scene (handshake; a screening and a transform task per shard; a
/// 17-vector unique-set reply; heartbeat; shutdown).  Its frame and byte
/// counts pin the binary layout — a deliberate layout change edits the
/// literals in the same commit, with the reason — and the bytes this thread
/// deep-copied while encoding are exactly the payload of the embedded views
/// (each in two messages): the codec copies pixel data nowhere else.
#[test]
fn fixed_message_set_pins_the_layout_and_reconciles_with_the_clone_ledger() {
    let mut config = hsi::SceneConfig::small(500);
    config.dims = CubeDims::new(28, 28, 14);
    let cube = Arc::new(hsi::SceneGenerator::new(config).unwrap().generate());
    let views = hsi::partition::partition_views(&cube, 3).expect("three shards");
    let bands = cube.dims().bands;
    let transform =
        Matrix::from_row_major(3, bands, (0..3 * bands).map(|i| i as f64 * 0.01).collect())
            .expect("dims consistent");
    let unique: Vec<Vector> = (0..17)
        .map(|i| Vector::from_vec((0..bands).map(|k| (i * bands + k) as f64).collect()))
        .collect();

    let mut messages = vec![WireMessage::hello()];
    for (i, view) in views.iter().enumerate() {
        messages.push(WireMessage::Pct(PctMessage::ScreenTask {
            task: i,
            view: view.clone(),
            threshold_rad: 0.0874,
        }));
        messages.push(WireMessage::Pct(PctMessage::TransformTask {
            task: 100 + i,
            view: view.clone(),
            mean: Vector::from_vec(vec![0.5; bands]),
            transform: transform.clone(),
            scales: vec![(0.0, 1.0); 3],
        }));
    }
    messages.push(WireMessage::Pct(PctMessage::UniqueSet { task: 7, unique }));
    messages.push(WireMessage::Pct(PctMessage::Heartbeat));
    messages.push(WireMessage::Pct(PctMessage::Shutdown));

    let before = hsi::thread_cloned_bytes_total();
    let encoded: Vec<Vec<u8>> = messages.iter().map(encode_message).collect();
    let view_payload: u64 = views.iter().map(|v| 2 * v.payload_bytes() as u64).sum();
    assert_eq!(hsi::thread_cloned_bytes_total() - before, view_payload);

    assert_eq!(encoded.len(), 10);
    assert_eq!(encoded.iter().map(Vec::len).sum::<usize>(), 179466);
    for message in &messages {
        assert_eq!(&round_trip(message), message);
    }
}
