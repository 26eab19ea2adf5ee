//! The worker side of both protocols.
//!
//! [`handle_task`] computes one task's result from the task alone.  It is
//! shared by every lane, the remote worker process and the simulator, so a
//! result is byte-identical whichever of them computed it.  The manager
//! side is [`crate::plan`].  [`assemble_image`], which puts the strips back
//! together, and [`MANAGER`], the name in-process executors receive results
//! under, are imported from here by `wire`, `service` and `fusebench`.

use crate::colormap::{map_components, ComponentScale};
use crate::messages::{PctMessage, TaskId};
use crate::pipeline::{derive_transform, project_pixels};
use crate::screening::screen_slices_seeded;
use crate::{PctError, Result};
use hsi::{CubeView, RgbImage};
use linalg::covariance::CovarianceAccumulator;
use linalg::{Matrix, Vector};

/// Name used by the manager thread.
pub const MANAGER: &str = "manager";

/// Computes the result of one task; `None` for a message that is not one.
///
/// The codec decodes each length of a task on its own, so a well-formed
/// frame can still carry parts that disagree in shape — a covariance pixel,
/// a transform's mean or rows, or a seed vector of another band count than
/// the rest.  Such a task is answered `TaskFailed`, never a panic, and the
/// worker goes on serving.
pub fn handle_task(msg: PctMessage) -> Option<PctMessage> {
    let failed = |task, error| Some(PctMessage::TaskFailed { task, error });
    match msg {
        PctMessage::CovarianceTask { task, mean, pixels } => {
            let bands = mean.len();
            let mut acc = CovarianceAccumulator::new(mean);
            if let Err(e) = acc.push_all(&pixels) {
                return failed(task, e.to_string());
            }
            Some(PctMessage::CovarianceSum {
                task,
                packed: acc.raw_sum().packed().to_vec(),
                bands,
                count: acc.count(),
            })
        }
        PctMessage::TransformTask {
            task,
            view,
            mean,
            transform,
            scales,
        } => {
            let bands = [mean.len(), view.bands(), transform.cols()];
            if bands[1..] != [bands[0]; 2] {
                return failed(task, format!("bands of mean, view, transform: {bands:?}"));
            }
            Some(transform_and_map(task, &view, &mean, &transform, &scales))
        }
        PctMessage::ScreenSeededTask {
            task,
            view,
            seed,
            threshold_rad,
        } => {
            if seed.iter().any(|v| v.len() != view.bands()) {
                return failed(task, format!("a seed vector not of {} bands", view.bands()));
            }
            let accepted = screen_slices_seeded(seed, view.iter_pixels(), threshold_rad);
            Some(PctMessage::SeededUnique { task, accepted })
        }
        PctMessage::DeriveTask {
            task,
            unique,
            config,
        } => match derive_transform(&unique, &config) {
            Ok(spec) => Some(PctMessage::DerivedTransform {
                task,
                mean: spec.mean,
                transform: spec.transform,
                eigenvalues: spec.eigenvalues,
            }),
            Err(e) => failed(task, e.to_string()),
        },
        // Results, heartbeats and shutdown are not tasks.
        _ => None,
    }
}

/// Steps 7–8 for one sub-cube view, producing a colour strip.  The pixels
/// are read straight out of the shared storage; nothing is copied.
fn transform_and_map(
    task: TaskId,
    view: &CubeView,
    mean: &Vector,
    transform: &Matrix,
    scales: &[(f64, f64)],
) -> PctMessage {
    let scales: Vec<ComponentScale> = scales
        .iter()
        .map(|&(min, max)| ComponentScale { min, max })
        .collect();
    let width = view.width();
    let rows = view.height();
    let mut components = Vec::with_capacity(width * rows * transform.rows());
    project_pixels(
        mean.as_slice(),
        transform,
        view.iter_pixels(),
        &mut components,
    );
    let mut rgb = Vec::with_capacity(width * rows * 3);
    for pixel in components.chunks_exact(transform.rows().max(1)) {
        rgb.extend_from_slice(&map_components(pixel, &scales));
    }
    PctMessage::RgbStrip {
        task,
        row_start: view.row_start(),
        rows,
        width,
        rgb,
    }
}

/// Reassembles worker colour strips into the final image.
pub fn assemble_image(
    width: usize,
    height: usize,
    strips: Vec<(usize, usize, usize, Vec<u8>)>,
) -> Result<RgbImage> {
    let mut data = vec![0u8; width * height * 3];
    for (row_start, rows, strip_width, rgb) in strips {
        let past_the_end = row_start.checked_add(rows).is_none_or(|end| end > height);
        if strip_width != width || rgb.len() != rows * width * 3 || past_the_end {
            return Err(PctError::InvalidConfig("malformed colour strip".into()));
        }
        let offset = row_start * width * 3;
        data[offset..offset + rgb.len()].copy_from_slice(&rgb);
    }
    Ok(RgbImage::from_raw(width, height, data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screening::screen_pixels;
    use crate::PctConfig;
    use hsi::partition::partition_rows;
    use hsi::{HyperCube, SceneConfig, SceneGenerator};
    use std::sync::Arc;

    fn small_scene() -> HyperCube {
        SceneGenerator::new(SceneConfig::small(5))
            .unwrap()
            .generate()
    }

    #[test]
    fn handle_task_screen_returns_unique_set() {
        let cube = Arc::new(small_scene());
        let spec = partition_rows(cube.dims(), 4).unwrap()[0];
        let view = spec.view(&cube).unwrap();
        let reply = handle_task(PctMessage::ScreenSeededTask {
            task: 9,
            view,
            seed: Vec::new(),
            threshold_rad: PctConfig::paper().screening_angle_rad,
        })
        .unwrap();
        match reply {
            PctMessage::SeededUnique {
                task,
                accepted: unique,
            } => {
                assert_eq!(task, 9);
                assert!(!unique.is_empty());
                assert!(unique.len() < spec.pixels());
            }
            other => panic!("unexpected reply {}", other.kind()),
        }
    }

    #[test]
    fn handle_task_seeded_screening_continues_the_chain() {
        let cube = Arc::new(small_scene());
        let threshold = PctConfig::paper().screening_angle_rad;
        let specs = partition_rows(cube.dims(), 2).unwrap();
        let first = handle_task(PctMessage::ScreenSeededTask {
            task: 0,
            view: specs[0].view(&cube).unwrap(),
            seed: vec![],
            threshold_rad: threshold,
        })
        .unwrap();
        let PctMessage::SeededUnique { accepted: seed, .. } = first else {
            panic!("unexpected reply");
        };
        let second = handle_task(PctMessage::ScreenSeededTask {
            task: 1,
            view: specs[1].view(&cube).unwrap(),
            seed: seed.clone(),
            threshold_rad: threshold,
        })
        .unwrap();
        let PctMessage::SeededUnique { accepted, .. } = second else {
            panic!("unexpected reply");
        };
        // The chained result is exactly whole-image screening.
        let mut chained = seed;
        chained.extend(accepted);
        assert_eq!(chained, screen_pixels(&cube.pixel_vectors(), threshold));
    }

    #[test]
    fn task_construction_and_cloning_copy_no_payload_bytes() {
        let cube = Arc::new(small_scene());
        let specs = partition_rows(cube.dims(), 4).unwrap();
        let ledger = hsi::CloneLedger::snapshot();
        let tasks: Vec<PctMessage> = specs
            .iter()
            .map(|spec| PctMessage::ScreenSeededTask {
                task: spec.id,
                view: spec.view(&cube).unwrap(),
                seed: Vec::new(),
                threshold_rad: 0.1,
            })
            .collect();
        // Cloning (what a replica-group fan-out does per member) shares the
        // storage: the clone ledger stays untouched.
        let clones = tasks.clone();
        assert_eq!(ledger.delta(), 0);
        assert!(clones.iter().all(|t| t.payload_bytes() > 0));
    }

    #[test]
    fn handle_task_derive_matches_direct_derivation() {
        let cube = small_scene();
        let config = PctConfig::paper();
        let unique = screen_pixels(&cube.pixel_vectors(), config.screening_angle_rad);
        let reply = handle_task(PctMessage::DeriveTask {
            task: 4,
            unique: unique.clone(),
            config,
        })
        .unwrap();
        let spec = derive_transform(&unique, &config).unwrap();
        match reply {
            PctMessage::DerivedTransform {
                task,
                mean,
                transform,
                eigenvalues,
            } => {
                assert_eq!(task, 4);
                assert_eq!(mean, spec.mean);
                assert_eq!(transform, spec.transform);
                assert_eq!(eigenvalues, spec.eigenvalues);
            }
            other => panic!("unexpected reply {}", other.kind()),
        }
    }

    #[test]
    fn projection_transform_task_is_map_cube_of_transform_cube_for_its_strip() {
        use crate::colormap::map_cube;
        use crate::pipeline::transform_cube;
        let cube = Arc::new(small_scene());
        let config = PctConfig::paper();
        let unique = screen_pixels(&cube.pixel_vectors(), config.screening_angle_rad);
        let spec = derive_transform(&unique, &config).unwrap();
        let scales = ComponentScale::from_eigenvalues(&spec.eigenvalues, 3);
        let whole = map_cube(&transform_cube(&spec, &cube).unwrap(), &scales);
        // Strips of 5 rows: heights and pixel counts off the kernel's block.
        for (task, rows) in partition_rows(cube.dims(), 5).unwrap().iter().enumerate() {
            let view = rows.view(&cube).unwrap();
            let reply = handle_task(PctMessage::TransformTask {
                task,
                view: view.clone(),
                mean: spec.mean.clone(),
                transform: spec.transform.clone(),
                scales: scales.iter().map(|s| (s.min, s.max)).collect(),
            });
            let Some(PctMessage::RgbStrip { row_start, rgb, .. }) = reply else {
                panic!("a transform task answers with a colour strip");
            };
            assert_eq!(row_start, view.row_start());
            let bytes = cube.width() * 3;
            assert_eq!(
                rgb,
                whole.raw()[row_start * bytes..(row_start + view.height()) * bytes]
            );
        }
    }

    #[test]
    fn handle_task_derive_reports_failure_on_empty_unique_set() {
        let reply = handle_task(PctMessage::DeriveTask {
            task: 5,
            unique: vec![],
            config: PctConfig::paper(),
        })
        .unwrap();
        assert!(matches!(reply, PctMessage::TaskFailed { task: 5, .. }));
    }

    #[test]
    fn handle_task_ignores_non_task_messages() {
        assert!(handle_task(PctMessage::Heartbeat).is_none());
        assert!(handle_task(PctMessage::Shutdown).is_none());
        assert!(handle_task(PctMessage::SeededUnique {
            task: 0,
            accepted: vec![]
        })
        .is_none());
    }

    #[test]
    fn assemble_image_rejects_malformed_strips() {
        assert!(assemble_image(4, 4, vec![(0, 2, 3, vec![0; 18])]).is_err());
        assert!(assemble_image(4, 4, vec![(0, 2, 4, vec![0; 5])]).is_err());
        assert!(assemble_image(4, 4, vec![(3, 2, 4, vec![0; 24])]).is_err());
        let ok = assemble_image(4, 4, vec![(0, 4, 4, vec![7; 48])]).unwrap();
        assert_eq!(ok.get(3, 3).unwrap(), [7, 7, 7]);
    }
}
