//! The manager side of the fusion protocols, written once and sans-IO.
//!
//! Two protocols run in this tree.  The **paper's** (§3) screens every
//! sub-cube independently, merges the unique sets, fans the covariance sums
//! out and fans the transform out: [`run_paper_protocol`], driven by
//! [`crate::DistributedPct`] and [`crate::ResilientPct`].  The **service's**
//! folds the sub-cubes through a *seeded screening chain* (so the unique set
//! is bit-for-bit whole-image screening), derives the transform in one task
//! and fans the transform out: [`ChainPlan`], driven by the `service`
//! scheduler (one plan per job) and by the `sim` crate's manager actor.
//!
//! Nothing here owns a thread, a mailbox, a clock, a telemetry handle or a
//! simulator type.  *Who* executes a task, *how* it travels and *what
//! happens when its executor dies* (replication, detection, regeneration,
//! retransmission, slot accounting) stay with the owner; *which* task
//! exists, in which order, and what its result means is decided here and
//! nowhere else.  Replication is therefore transparent by construction: a
//! second replica's answer or a retransmit's echo carries a task id the plan
//! has already consumed and changes nothing.

use crate::colormap::ComponentScale;
use crate::config::{FusionOutput, PctConfig};
use crate::distributed::assemble_image;
use crate::messages::{PctMessage, TaskId};
use crate::pipeline::{finalize_transform, TransformSpec};
use crate::screening::merge_unique_sets;
use crate::{PctError, Result};
use hsi::partition::{partition_for_workers, GranularityPolicy, SubCubeSpec};
use hsi::{CubeView, HyperCube};
use linalg::covariance::mean_vector;
use linalg::{SymMatrix, Vector};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A colour strip as [`assemble_image`] takes it.
type Strip = (usize, usize, usize, Vec<u8>);

/// A transform/colour task (steps 7–8) over `view`.  The per-component
/// `(min, max)` colour scales ride along so workers colour-map locally.
fn transform_task(task: TaskId, view: CubeView, spec: &TransformSpec) -> PctMessage {
    PctMessage::TransformTask {
        task,
        view,
        mean: spec.mean.clone(),
        transform: spec.transform.clone(),
        scales: ComponentScale::from_eigenvalues(&spec.eigenvalues, 3)
            .into_iter()
            .map(|s| (s.min, s.max))
            .collect(),
    }
}

/// The strip a transform task's result carries; `None` for any other kind.
fn into_strip(msg: PctMessage) -> Option<Strip> {
    match msg {
        PctMessage::RgbStrip {
            row_start,
            rows,
            width,
            rgb,
            ..
        } => Some((row_start, rows, width, rgb)),
        _ => None,
    }
}

/// The phases of the service's chain protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The seeded screening chain, one link outstanding at a time.
    Screen,
    /// The single task computing steps 3–6 over the merged unique set.
    Derive,
    /// The per-shard transform/colour fan-out.
    Transform,
}

impl Phase {
    /// The phase's label in spans, histograms and traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Screen => "screen",
            Phase::Derive => "derive",
            Phase::Transform => "transform",
        }
    }
}

/// What an accepted message meant for the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The result was consumed; the phase goes on.
    Continue,
    /// Not awaited — a second replica's answer, a retransmit's echo, or a
    /// kind this phase does not produce.  Nothing changed.
    Stale,
    /// The result closed its phase; the plan entered this one.
    Entered(Phase),
    /// The last strip arrived; [`ChainPlan::into_output`] assembles them.
    Complete,
}

/// Per-phase state: each variant holds only what its phase can use, so a
/// screening plan has no transform to put in a task.
enum Progress {
    Screen {
        unique: Vec<Vector>,
        next: usize,
        outstanding: Option<TaskId>,
    },
    Derive {
        /// Moved into the derive task when it is issued.
        unique: Vec<Vector>,
        outstanding: Option<TaskId>,
    },
    Transform {
        spec: TransformSpec,
        next: usize,
        outstanding: BTreeSet<TaskId>,
        strips: Vec<Strip>,
    },
}

/// The manager side of one job of the chain protocol: seeded screening
/// chain → single derive task → transform fan-out.
///
/// The owner asks for work with [`ChainPlan::next_task`] whenever it has a
/// free executor, feeds every arriving result to [`ChainPlan::accept`], and
/// on [`Step::Complete`] takes the output with [`ChainPlan::into_output`].
/// Because every screening link is seeded with everything accepted before
/// it, and steps 3–6 run once over the whole unique set, the output is
/// byte-identical to [`crate::SequentialPct`] whatever the partitions and
/// whatever order the strips arrive in.
pub struct ChainPlan {
    cube: Arc<HyperCube>,
    config: PctConfig,
    screen_shards: Vec<SubCubeSpec>,
    transform_shards: Vec<SubCubeSpec>,
    /// Size of the merged unique set, fixed when the derive task is issued.
    unique_count: usize,
    progress: Progress,
}

impl ChainPlan {
    /// A plan over `cube`, screening `screen_shards` in order and
    /// transforming `transform_shards` (the two partitions may differ).
    pub fn new(
        cube: Arc<HyperCube>,
        config: PctConfig,
        screen_shards: Vec<SubCubeSpec>,
        transform_shards: Vec<SubCubeSpec>,
    ) -> Self {
        Self {
            cube,
            config,
            screen_shards,
            transform_shards,
            unique_count: 0,
            progress: Progress::Screen {
                unique: Vec::new(),
                next: 0,
                outstanding: None,
            },
        }
    }

    /// The cube being fused.
    pub fn cube(&self) -> &Arc<HyperCube> {
        &self.cube
    }

    /// The pipeline configuration.
    pub fn config(&self) -> PctConfig {
        self.config
    }

    /// The phase the plan is in.
    pub fn phase(&self) -> Phase {
        match self.progress {
            Progress::Screen { .. } => Phase::Screen,
            Progress::Derive { .. } => Phase::Derive,
            Progress::Transform { .. } => Phase::Transform,
        }
    }

    /// The next dispatchable task, under the id `task`.  `None` — and the id
    /// not consumed, so the owner offers it again — while the plan waits on a
    /// chain link or the derive task, or once everything is issued.
    pub fn next_task(&mut self, task: TaskId) -> Option<PctMessage> {
        match &mut self.progress {
            Progress::Screen {
                unique,
                next,
                outstanding,
            } => {
                if outstanding.is_some() {
                    return None;
                }
                let view = self.screen_shards.get(*next)?.view(&self.cube).ok()?;
                *outstanding = Some(task);
                Some(PctMessage::ScreenSeededTask {
                    task,
                    view,
                    seed: unique.clone(),
                    threshold_rad: self.config.screening_angle_rad,
                })
            }
            Progress::Derive {
                unique,
                outstanding,
            } => {
                if outstanding.is_some() {
                    return None;
                }
                *outstanding = Some(task);
                self.unique_count = unique.len();
                Some(PctMessage::DeriveTask {
                    task,
                    unique: std::mem::take(unique),
                    config: self.config,
                })
            }
            Progress::Transform {
                spec,
                next,
                outstanding,
                ..
            } => {
                let view = self.transform_shards.get(*next)?.view(&self.cube).ok()?;
                *next += 1;
                outstanding.insert(task);
                Some(transform_task(task, view, spec))
            }
        }
    }

    /// Consumes one arriving message.  Each issued task id is accepted once:
    /// anything else is [`Step::Stale`] and leaves the plan untouched.
    ///
    /// # Errors
    /// The cause a worker reported in `TaskFailed` for an outstanding task;
    /// the job cannot complete.
    pub fn accept(&mut self, result: PctMessage) -> std::result::Result<Step, String> {
        let issued = |task| match &self.progress {
            Progress::Screen { outstanding, .. } | Progress::Derive { outstanding, .. } => {
                *outstanding == Some(task)
            }
            Progress::Transform { outstanding, .. } => outstanding.contains(&task),
        };
        let Some(task) = result.task().filter(|task| issued(*task)) else {
            return Ok(Step::Stale);
        };
        if let PctMessage::TaskFailed { error, .. } = result {
            return Err(error);
        }
        // An outstanding id under a kind this phase does not produce is
        // stale too, and the id stays outstanding.
        match &mut self.progress {
            Progress::Screen {
                unique,
                next,
                outstanding,
            } => {
                let PctMessage::SeededUnique { accepted, .. } = result else {
                    return Ok(Step::Stale);
                };
                unique.extend(accepted);
                *outstanding = None;
                *next += 1;
                if *next < self.screen_shards.len() {
                    return Ok(Step::Continue);
                }
                self.progress = Progress::Derive {
                    unique: std::mem::take(unique),
                    outstanding: None,
                };
                Ok(Step::Entered(Phase::Derive))
            }
            Progress::Derive { .. } => {
                let PctMessage::DerivedTransform {
                    mean,
                    transform,
                    eigenvalues,
                    ..
                } = result
                else {
                    return Ok(Step::Stale);
                };
                self.progress = Progress::Transform {
                    spec: TransformSpec {
                        mean,
                        transform,
                        eigenvalues,
                    },
                    next: 0,
                    outstanding: BTreeSet::new(),
                    strips: Vec::new(),
                };
                Ok(Step::Entered(Phase::Transform))
            }
            Progress::Transform {
                outstanding,
                strips,
                ..
            } => {
                let Some(strip) = into_strip(result) else {
                    return Ok(Step::Stale);
                };
                outstanding.remove(&task);
                strips.push(strip);
                if strips.len() < self.transform_shards.len() {
                    return Ok(Step::Continue);
                }
                Ok(Step::Complete)
            }
        }
    }

    /// Assembles the fused output after [`Step::Complete`].
    ///
    /// # Errors
    /// `InvalidConfig` before completion, or on a malformed strip.
    pub fn into_output(self) -> Result<FusionOutput> {
        match self.progress {
            Progress::Transform { spec, strips, .. }
                if strips.len() == self.transform_shards.len() =>
            {
                Ok(FusionOutput {
                    image: assemble_image(self.cube.width(), self.cube.height(), strips)?,
                    eigenvalues: spec.eigenvalues,
                    unique_count: self.unique_count,
                    pixels: self.cube.pixels(),
                })
            }
            _ => Err(PctError::InvalidConfig(
                "the chain plan has not completed".into(),
            )),
        }
    }
}

/// The manager side of the paper's protocol (§3, steps 1–8) over `slots`
/// execution slots (workers, or replica groups).
///
/// `distribute` runs one phase: it gets the phase's tasks and a predicate
/// recognising the phase's result kind, has every task executed once, and
/// returns the accepted results sorted by task id — so the merge and the
/// covariance accumulation are independent of how the run was scheduled or
/// which replica answered first.  The predicate is not decoration: task ids
/// restart in every phase, so a late replica's `UniqueSet { task: 0 }`
/// arriving in the covariance phase is told apart only by its kind.
pub fn run_paper_protocol(
    cube: &Arc<HyperCube>,
    config: &PctConfig,
    slots: usize,
    granularity: GranularityPolicy,
    mut distribute: impl FnMut(Vec<PctMessage>, fn(&PctMessage) -> bool) -> Result<Vec<PctMessage>>,
) -> Result<FusionOutput> {
    let specs = partition_for_workers(cube.dims(), slots, granularity)?;

    // Phase 1: screening (steps 1–2).
    let screen_tasks = specs
        .iter()
        .map(|spec| {
            Ok(PctMessage::ScreenTask {
                task: spec.id,
                view: spec.view(cube)?,
                threshold_rad: config.screening_angle_rad,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let unique_sets = distribute(screen_tasks, |msg| {
        matches!(msg, PctMessage::UniqueSet { .. })
    })?
    .into_iter()
    .filter_map(|msg| match msg {
        PctMessage::UniqueSet { unique, .. } => Some(unique),
        _ => None,
    })
    .collect();
    let unique = merge_unique_sets(unique_sets, config.screening_angle_rad);
    let unique_count = unique.len();
    if unique.is_empty() {
        return Err(PctError::InvalidConfig(
            "screening produced an empty unique set".into(),
        ));
    }

    // Phase 2: statistics (steps 3–6); the covariance sums are distributed.
    let mean = mean_vector(&unique)?;
    let bands = mean.len();
    let chunk = unique.len().div_ceil(slots).max(1);
    let cov_tasks = unique
        .chunks(chunk)
        .enumerate()
        .map(|(task, pixels)| PctMessage::CovarianceTask {
            task,
            mean: mean.clone(),
            pixels: pixels.to_vec(),
        })
        .collect();
    let mut sum = SymMatrix::zeros(bands);
    let mut total_count = 0u64;
    for partial in distribute(cov_tasks, |msg| {
        matches!(msg, PctMessage::CovarianceSum { .. })
    })? {
        let PctMessage::CovarianceSum {
            packed,
            bands: b,
            count,
            ..
        } = partial
        else {
            continue;
        };
        if b != bands {
            return Err(PctError::InvalidConfig(format!(
                "worker returned a {b}-band covariance sum for a {bands}-band image"
            )));
        }
        sum.add_assign_sym(&SymMatrix::from_packed(b, packed)?)?;
        total_count += count;
    }
    if total_count == 0 {
        return Err(PctError::InvalidConfig(
            "covariance phase accumulated no pixels".into(),
        ));
    }
    sum.scale_in_place(1.0 / total_count as f64);
    let spec = finalize_transform(mean, &sum, config)?;

    // Phase 3: transform + colour (steps 7–8).
    let transform_tasks = specs
        .iter()
        .map(|shard| Ok(transform_task(shard.id, shard.view(cube)?, &spec)))
        .collect::<Result<Vec<_>>>()?;
    let strips = distribute(transform_tasks, |msg| {
        matches!(msg, PctMessage::RgbStrip { .. })
    })?
    .into_iter()
    .filter_map(into_strip)
    .collect();
    Ok(FusionOutput {
        image: assemble_image(cube.width(), cube.height(), strips)?,
        eigenvalues: spec.eigenvalues,
        unique_count,
        pixels: cube.pixels(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{handle_task, DistributedPct};
    use crate::sequential::SequentialPct;
    use hsi::partition::partition_rows;
    use hsi::{SceneConfig, SceneGenerator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scene(seed: u64) -> Arc<HyperCube> {
        Arc::new(
            SceneGenerator::new(SceneConfig::small(seed))
                .unwrap()
                .generate(),
        )
    }

    fn plan_over(cube: &Arc<HyperCube>, screen: usize, transform: usize) -> ChainPlan {
        ChainPlan::new(
            Arc::clone(cube),
            PctConfig::paper(),
            partition_rows(cube.dims(), screen).unwrap(),
            partition_rows(cube.dims(), transform).unwrap(),
        )
    }

    /// Everything the plan will issue right now, ids counted up from `*next`.
    fn issue_all(plan: &mut ChainPlan, next: &mut TaskId) -> Vec<PctMessage> {
        let mut batch = Vec::new();
        while let Some(task) = plan.next_task(*next) {
            assert_eq!(task.task(), Some(*next));
            *next += 1;
            batch.push(task);
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// (a) Any screen partition, a different transform partition, strips
        /// in any order, every result delivered again after every batch (so
        /// in its own phase and in every later one): the output is the
        /// sequential reference's and every repeat is stale.
        #[test]
        fn a_chain_plan_equals_the_sequential_reference_and_accepts_each_id_once(
            seed in 0u64..1 << 40,
            screen in 1usize..9,
            offset in 1usize..8,
        ) {
            let transform = 1 + (screen - 1 + offset) % 8;
            let cube = scene(seed);
            let mut plan = plan_over(&cube, screen, transform);
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut next, mut echoes) = (1, Vec::new());
            'run: loop {
                let mut batch = issue_all(&mut plan, &mut next);
                prop_assert!(!batch.is_empty(), "the plan stalled in {:?}", plan.phase());
                for i in (1..batch.len()).rev() {
                    batch.swap(i, rng.gen_range(0..i + 1));
                }
                for task in batch {
                    let result = handle_task(task).unwrap();
                    echoes.push(result.clone());
                    let step = plan.accept(result).unwrap();
                    prop_assert!(step != Step::Stale, "a first delivery was stale");
                    if step == Step::Complete {
                        break 'run;
                    }
                }
                for echo in &echoes {
                    prop_assert_eq!(plan.accept(echo.clone()), Ok(Step::Stale));
                }
            }
            for echo in echoes {
                prop_assert_eq!(plan.accept(echo), Ok(Step::Stale));
            }
            let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
            prop_assert_eq!(plan.into_output().unwrap(), reference);
        }
    }

    /// (b) What a phase cannot produce or consume, it does not.
    #[test]
    fn phases_are_typed() {
        let cube = scene(3);
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        let unfinished = plan_over(&cube, 1, 1).into_output();
        assert!(matches!(unfinished, Err(PctError::InvalidConfig(_))));
        let mut plan = plan_over(&cube, 2, 3);
        let failed = |task| PctMessage::TaskFailed {
            task,
            error: "boom".into(),
        };
        let strip = PctMessage::RgbStrip {
            task: 1,
            row_start: 0,
            rows: 1,
            width: cube.width(),
            rgb: vec![0; cube.width() * 3],
        };
        let derived = PctMessage::DerivedTransform {
            task: 1,
            mean: Vector::zeros(cube.bands()),
            transform: linalg::Matrix::zeros(3, cube.bands()),
            eigenvalues: vec![1.0; cube.bands()],
        };

        // While a chain link is outstanding the plan issues nothing, and the
        // refused id is taken on the next call.
        assert_eq!(plan.accept(failed(1)), Ok(Step::Stale));
        let link = plan.next_task(1).unwrap();
        assert!(matches!(link, PctMessage::ScreenSeededTask { task: 1, .. }));
        assert!(plan.next_task(2).is_none());
        // Only an outstanding task can fail the job.
        assert_eq!(plan.accept(failed(2)), Ok(Step::Stale));
        assert_eq!(plan.accept(failed(1)), Err("boom".to_string()));
        // A screening plan has no use for a strip or a transform, even under
        // the outstanding id — and the id stays outstanding.
        for foreign in [strip, derived] {
            assert_eq!(plan.accept(foreign), Ok(Step::Stale));
            assert_eq!(plan.phase(), Phase::Screen);
        }
        assert_eq!(plan.accept(handle_task(link).unwrap()), Ok(Step::Continue));
        let link = plan.next_task(2).unwrap();
        assert_eq!(link.task(), Some(2));
        assert_eq!(
            plan.accept(handle_task(link).unwrap()),
            Ok(Step::Entered(Phase::Derive))
        );

        // The derive task is single, and fixes the unique count.
        let derive = plan.next_task(3).unwrap();
        assert!(plan.next_task(4).is_none());
        assert_eq!(
            plan.accept(handle_task(derive).unwrap()),
            Ok(Step::Entered(Phase::Transform))
        );

        // A transform plan has no use for a unique set under an outstanding
        // id; messages without a task id are stale everywhere.
        let mut next = 4;
        let tasks = issue_all(&mut plan, &mut next);
        assert_eq!(tasks.len(), 3);
        let foreign = PctMessage::SeededUnique {
            task: 4,
            accepted: vec![Vector::zeros(cube.bands())],
        };
        assert_eq!(plan.accept(foreign), Ok(Step::Stale));
        assert_eq!(plan.accept(PctMessage::Heartbeat), Ok(Step::Stale));
        assert_eq!(plan.phase(), Phase::Transform);
        let steps: Vec<Step> = tasks
            .into_iter()
            .map(|task| plan.accept(handle_task(task).unwrap()).unwrap())
            .collect();
        assert_eq!(steps, [Step::Continue, Step::Continue, Step::Complete]);
        assert_eq!(plan.into_output().unwrap(), reference);
    }

    /// Runs one phase in-thread: every task through `handle_task`, results
    /// produced in reverse task order, then sorted as `distribute` promises.
    fn in_thread(tasks: Vec<PctMessage>, is_result: fn(&PctMessage) -> bool) -> Vec<PctMessage> {
        let mut results: Vec<PctMessage> = tasks
            .into_iter()
            .rev()
            .filter_map(handle_task)
            .filter(is_result)
            .collect();
        assert!(results.len() < 2 || results[0].task() > results[1].task());
        results.sort_by_key(PctMessage::task);
        results
    }

    /// (c) The paper's protocol over an in-thread `distribute` is the
    /// threaded `DistributedPct`, output for output.
    #[test]
    fn the_paper_protocol_in_thread_equals_distributed_pct() {
        let cube = scene(5);
        let config = PctConfig::paper();
        for workers in [1, 3, 4] {
            let pipeline = DistributedPct::new(config, workers);
            let in_thread = run_paper_protocol(
                &cube,
                &config,
                workers,
                GranularityPolicy::PerWorkerMultiple(2),
                |tasks, is_result| Ok(in_thread(tasks, is_result)),
            )
            .unwrap();
            assert_eq!(in_thread, pipeline.run_shared(&cube).unwrap());
        }
    }

    #[test]
    fn degenerate_phases_of_the_paper_protocol_are_typed_errors() {
        let cube = scene(5);
        let run = |tamper: fn(&mut PctMessage)| {
            let distribute = |tasks, is_result| {
                let mut results = in_thread(tasks, is_result);
                results.iter_mut().for_each(tamper);
                Ok(results)
            };
            let policy = GranularityPolicy::OnePerWorker;
            match run_paper_protocol(&cube, &PctConfig::paper(), 2, policy, distribute) {
                Err(PctError::InvalidConfig(message)) => message,
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        let empty_screening = run(|msg| {
            if let PctMessage::UniqueSet { unique, .. } = msg {
                unique.clear();
            }
        });
        assert!(empty_screening.contains("empty unique set"));
        let nothing_accumulated = run(|msg| {
            if let PctMessage::CovarianceSum { count, .. } = msg {
                *count = 0;
            }
        });
        assert!(nothing_accumulated.contains("accumulated no pixels"));
        let wrong_bands = run(|msg| {
            if let PctMessage::CovarianceSum { bands, .. } = msg {
                *bands = 2;
            }
        });
        assert!(wrong_bands.contains("2-band covariance sum"));
    }
}
