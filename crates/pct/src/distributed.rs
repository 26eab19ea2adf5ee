//! The manager/worker distributed implementation on real threads.
//!
//! This is the paper's message-passing algorithm (§3) on the `scp`
//! substrate.  The manager side — which tasks exist in which phase, how the
//! unique sets merge, how the covariance sums add up and how the strips
//! become the image — is [`crate::plan::run_paper_protocol`]; this module is
//! its driver on plain worker threads: `distribute` runs one phase through a
//! work queue (a worker is sent its next task as soon as its previous result
//! arrives, which is the "overlap the request for its next sub-problem with
//! the calculation" optimisation).  The worker side, [`handle_task`], is
//! shared by every lane, the remote worker process and the simulator.

use crate::colormap::{map_components, ComponentScale};
use crate::config::{FusionOutput, PctConfig};
use crate::messages::{PctMessage, TaskId};
use crate::pipeline::{derive_transform, project_pixels};
use crate::plan::run_paper_protocol;
use crate::screening::{screen_slices, screen_slices_seeded};
use crate::{PctError, Result};
use hsi::partition::GranularityPolicy;
use hsi::{CubeView, HyperCube, RgbImage};
use linalg::covariance::CovarianceAccumulator;
use linalg::{Matrix, Vector};
use scp::{Runtime, ThreadContext};
use std::collections::VecDeque;
use std::sync::Arc;

/// Name used by the manager thread.
pub const MANAGER: &str = "manager";

/// Routing name of worker `i`.
pub fn worker_name(i: usize) -> String {
    format!("worker{i}")
}

/// The distributed fusion pipeline.
#[derive(Debug, Clone)]
pub struct DistributedPct {
    config: PctConfig,
    workers: usize,
    granularity: GranularityPolicy,
}

impl DistributedPct {
    /// Creates a distributed pipeline with `workers` worker threads and one
    /// sub-cube per worker.
    pub fn new(config: PctConfig, workers: usize) -> Self {
        Self {
            config,
            workers: workers.max(1),
            granularity: GranularityPolicy::PerWorkerMultiple(2),
        }
    }

    /// Overrides the granularity policy (Figure 5's experimental knob).
    pub fn with_granularity(mut self, granularity: GranularityPolicy) -> Self {
        self.granularity = granularity;
        self
    }

    /// Runs the full pipeline on a borrowed cube.  The cube is copied once
    /// into shared storage at this ingestion boundary; callers that already
    /// hold an `Arc` use [`DistributedPct::run_shared`] and copy nothing.
    pub fn run(&self, cube: &HyperCube) -> Result<FusionOutput> {
        self.run_shared(&Arc::new(cube.clone()))
    }

    /// Runs the full pipeline on real threads over shared storage: every
    /// task payload is a zero-copy [`CubeView`] window of `cube`.
    pub fn run_shared(&self, cube: &Arc<HyperCube>) -> Result<FusionOutput> {
        self.config.validate()?;
        let worker_names: Vec<String> = (0..self.workers).map(worker_name).collect();
        let runtime: Runtime<PctMessage> = Runtime::new();
        let mut manager_ctx = runtime.context(MANAGER)?;

        // Spawn the workers.
        let handles: Vec<_> = worker_names
            .iter()
            .map(|name| {
                runtime.spawn(name.clone(), move |ctx: ThreadContext<PctMessage>| {
                    worker_loop(ctx)
                })
            })
            .collect::<scp::Result<Vec<_>>>()?;

        let result = run_paper_protocol(
            cube,
            &self.config,
            self.workers,
            self.granularity,
            |tasks, is_result| distribute(&mut manager_ctx, &worker_names, tasks, is_result),
        );

        // Always shut workers down, even if the manager phase failed.
        for name in &worker_names {
            let _ = manager_ctx.send(name, PctMessage::Shutdown);
        }
        for handle in handles {
            handle.join();
        }
        result
    }
}

/// The worker side of the protocol: a reactive loop that services tasks until
/// told to shut down.  Exposed so the resilient implementation can reuse the
/// exact same task handling inside replicated members.
pub fn handle_task(msg: PctMessage) -> Option<PctMessage> {
    match msg {
        PctMessage::ScreenTask {
            task,
            view,
            threshold_rad,
        } => {
            let unique = screen_slices(view.iter_pixels(), threshold_rad);
            Some(PctMessage::UniqueSet { task, unique })
        }
        PctMessage::CovarianceTask { task, mean, pixels } => {
            let bands = mean.len();
            let mut acc = CovarianceAccumulator::new(mean);
            acc.push_all(&pixels).expect("uniform band count");
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
        } => Some(transform_and_map(task, &view, &mean, &transform, &scales)),
        PctMessage::ScreenSeededTask {
            task,
            view,
            seed,
            threshold_rad,
        } => {
            let accepted = screen_slices_seeded(seed, view.iter_pixels(), threshold_rad);
            Some(PctMessage::SeededUnique { task, accepted })
        }
        PctMessage::DeriveTask {
            task,
            unique,
            config,
        } => Some(match derive_transform(&unique, &config) {
            Ok(spec) => PctMessage::DerivedTransform {
                task,
                mean: spec.mean,
                transform: spec.transform,
                eigenvalues: spec.eigenvalues,
            },
            Err(e) => PctMessage::TaskFailed {
                task,
                error: e.to_string(),
            },
        }),
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

/// The plain (non-replicated) worker loop: services tasks until shut down.
pub fn worker_loop(mut ctx: ThreadContext<PctMessage>) {
    loop {
        let Ok(envelope) = ctx.recv() else { return };
        match envelope.payload {
            PctMessage::Shutdown => return,
            msg => {
                if let Some(reply) = handle_task(msg) {
                    // The manager may already have shut down if it errored;
                    // a failed send just ends this worker.
                    if ctx.send(&envelope.from, reply).is_err() {
                        return;
                    }
                }
            }
        }
    }
}

/// Work-queue distribution of one phase's tasks over the workers: every
/// worker gets one task immediately; each completed result triggers dispatch
/// of the next pending task to the worker that just finished.  Returns the
/// results `is_result` recognises, sorted by task id.
fn distribute(
    ctx: &mut ThreadContext<PctMessage>,
    worker_names: &[String],
    tasks: Vec<PctMessage>,
    is_result: fn(&PctMessage) -> bool,
) -> Result<Vec<PctMessage>> {
    let mut pending: VecDeque<PctMessage> = tasks.into();
    let total = pending.len();
    let mut results: Vec<PctMessage> = Vec::with_capacity(total);

    // Prime every worker with one task (two would also be reasonable; one
    // keeps the protocol simple while the work queue still provides overlap
    // because task grain is finer than a worker's full share).
    for name in worker_names {
        if let Some(task) = pending.pop_front() {
            ctx.send(name, task)?;
        }
    }

    while results.len() < total {
        let envelope = ctx.recv()?;
        if !is_result(&envelope.payload) {
            // Not a result message (e.g. a stray heartbeat); ignore.
            continue;
        }
        results.push(envelope.payload);
        if let Some(task) = pending.pop_front() {
            ctx.send(&envelope.from, task)?;
        }
    }
    // Results arrive in completion order, which depends on thread scheduling;
    // sort them back into task order so the manager's subsequent sequential
    // steps (unique-set merge, covariance accumulation) are deterministic and
    // independent of how the run was scheduled.
    results.sort_by_key(PctMessage::task);
    Ok(results)
}

/// Reassembles worker colour strips into the final image.
pub fn assemble_image(
    width: usize,
    height: usize,
    strips: Vec<(usize, usize, usize, Vec<u8>)>,
) -> Result<RgbImage> {
    let mut data = vec![0u8; width * height * 3];
    for (row_start, rows, strip_width, rgb) in strips {
        if strip_width != width || rgb.len() != rows * width * 3 {
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
    use crate::sequential::SequentialPct;
    use hsi::partition::partition_rows;
    use hsi::{SceneConfig, SceneGenerator};

    fn small_scene() -> HyperCube {
        SceneGenerator::new(SceneConfig::small(5))
            .unwrap()
            .generate()
    }

    #[test]
    fn distributed_matches_sequential_output_closely() {
        let cube = small_scene();
        let seq = SequentialPct::default().run(&cube).unwrap();
        let dist = DistributedPct::new(PctConfig::paper(), 4)
            .run(&cube)
            .unwrap();
        assert_eq!(dist.pixels, seq.pixels);
        let diff = seq.image.mean_abs_diff(&dist.image).unwrap();
        assert!(
            diff < 10.0,
            "distributed output diverges: mean abs diff {diff}"
        );
        assert!(dist.variance_fraction(3) > 0.95);
    }

    #[test]
    fn worker_count_does_not_change_the_image_materially() {
        let cube = small_scene();
        let one = DistributedPct::new(PctConfig::paper(), 1)
            .run(&cube)
            .unwrap();
        let four = DistributedPct::new(PctConfig::paper(), 4)
            .run(&cube)
            .unwrap();
        let diff = one.image.mean_abs_diff(&four.image).unwrap();
        assert!(diff < 10.0, "worker-count sensitivity {diff}");
    }

    #[test]
    fn granularity_policy_does_not_change_the_image_materially() {
        let cube = small_scene();
        let coarse = DistributedPct::new(PctConfig::paper(), 2)
            .with_granularity(GranularityPolicy::OnePerWorker)
            .run(&cube)
            .unwrap();
        let fine = DistributedPct::new(PctConfig::paper(), 2)
            .with_granularity(GranularityPolicy::PerWorkerMultiple(3))
            .run(&cube)
            .unwrap();
        let diff = coarse.image.mean_abs_diff(&fine.image).unwrap();
        assert!(diff < 10.0, "granularity sensitivity {diff}");
    }

    #[test]
    fn handle_task_screen_returns_unique_set() {
        let cube = Arc::new(small_scene());
        let spec = partition_rows(cube.dims(), 4).unwrap()[0];
        let view = spec.view(&cube).unwrap();
        let reply = handle_task(PctMessage::ScreenTask {
            task: 9,
            view,
            threshold_rad: PctConfig::paper().screening_angle_rad,
        })
        .unwrap();
        match reply {
            PctMessage::UniqueSet { task, unique } => {
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
            .map(|spec| PctMessage::ScreenTask {
                task: spec.id,
                view: spec.view(&cube).unwrap(),
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
        assert!(handle_task(PctMessage::UniqueSet {
            task: 0,
            unique: vec![]
        })
        .is_none());
    }

    #[test]
    fn assemble_image_rejects_malformed_strips() {
        assert!(assemble_image(4, 4, vec![(0, 2, 3, vec![0; 18])]).is_err());
        assert!(assemble_image(4, 4, vec![(0, 2, 4, vec![0; 5])]).is_err());
        let ok = assemble_image(4, 4, vec![(0, 4, 4, vec![7; 48])]).unwrap();
        assert_eq!(ok.get(3, 3).unwrap(), [7, 7, 7]);
    }
}
