//! The manager side of the fusion protocols, written once and sans-IO.
//!
//! Two protocols run in this tree, as two plans of one shape.  The
//! **paper's** (§3) screens every sub-cube independently, merges the unique
//! sets, fans the covariance sums out and fans the transform out:
//! [`PaperPlan`], driven by [`crate::ResilientPct`].  The **service's** folds
//! the sub-cubes through a *seeded screening chain* (so the unique set is
//! bit-for-bit whole-image screening), derives the transform in one task and
//! fans the transform out: [`ChainPlan`], driven by the `service` scheduler
//! (one plan per job) and by the `sim` crate's manager actor.  Both end in
//! the same transform fan-out.
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
use hsi::partition::SubCubeSpec;
use hsi::HyperCube;
use linalg::covariance::mean_vector;
use linalg::{SymMatrix, Vector};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A colour strip as [`assemble_image`] takes it.
type Strip = (usize, usize, usize, Vec<u8>);

/// The phases of both protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Screening: the chain's seeded links one at a time, or the paper's
    /// per-shard fan-out.
    Screen,
    /// Steps 3–6: the chain's single derive task over the merged unique set,
    /// or the paper's covariance fan-out.
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
    /// The last strip arrived; the plan's `into_output` assembles them.
    Complete,
}

/// One fan-out: tasks issued in order under the owner's ids, each result
/// held under its issue index until the last one is in.
struct Fanout<T> {
    /// Outstanding task id → issue index.
    outstanding: BTreeMap<TaskId, usize>,
    results: Vec<Option<T>>,
    issued: usize,
}

impl<T> Fanout<T> {
    fn new(width: usize) -> Self {
        Self {
            outstanding: BTreeMap::new(),
            results: (0..width).map(|_| None).collect(),
            issued: 0,
        }
    }

    /// The task `make` builds for the next issue index, under `task`.
    /// `None` — and nothing consumed — once every task is issued or when
    /// `make` declines.
    fn issue(
        &mut self,
        task: TaskId,
        make: impl FnOnce(usize) -> Option<PctMessage>,
    ) -> Option<PctMessage> {
        if self.issued == self.results.len() {
            return None;
        }
        let message = make(self.issued)?;
        self.outstanding.insert(task, self.issued);
        self.issued += 1;
        Some(message)
    }

    fn is_outstanding(&self, task: TaskId) -> bool {
        self.outstanding.contains_key(&task)
    }

    /// Files the result of the outstanding `task`; whether it was the last.
    fn fill(&mut self, task: TaskId, value: T) -> bool {
        if let Some(index) = self.outstanding.remove(&task) {
            self.results[index] = Some(value);
        }
        self.is_complete()
    }

    fn is_complete(&self) -> bool {
        self.issued == self.results.len() && self.outstanding.is_empty()
    }

    /// The results, in issue order.
    fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.results)
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Steps 7–8, the fan-out both plans end in: one transform/colour task per
/// shard — the per-component `(min, max)` colour scales ride along so
/// workers colour-map locally — and the strips assembled once all are in.
struct TransformPhase {
    spec: TransformSpec,
    strips: Fanout<Strip>,
}

impl TransformPhase {
    fn new(spec: TransformSpec, shards: usize) -> Self {
        Self {
            spec,
            strips: Fanout::new(shards),
        }
    }

    fn next_task(
        &mut self,
        task: TaskId,
        cube: &Arc<HyperCube>,
        shards: &[SubCubeSpec],
    ) -> Option<PctMessage> {
        let spec = &self.spec;
        self.strips.issue(task, |index| {
            Some(PctMessage::TransformTask {
                task,
                view: shards.get(index)?.view(cube).ok()?,
                mean: spec.mean.clone(),
                transform: spec.transform.clone(),
                scales: ComponentScale::from_eigenvalues(&spec.eigenvalues, 3)
                    .into_iter()
                    .map(|s| (s.min, s.max))
                    .collect(),
            })
        })
    }

    /// Consumes a result of the outstanding `task`: stale unless a strip.
    fn accept(&mut self, task: TaskId, result: PctMessage) -> Step {
        let PctMessage::RgbStrip {
            row_start,
            rows,
            width,
            rgb,
            ..
        } = result
        else {
            return Step::Stale;
        };
        if self.strips.fill(task, (row_start, rows, width, rgb)) {
            Step::Complete
        } else {
            Step::Continue
        }
    }
}

/// The fused output of a plan whose transform fan-out is `phase`.
///
/// # Errors
/// `InvalidConfig` before completion, or on a malformed strip.
fn finish(
    phase: Option<TransformPhase>,
    cube: &HyperCube,
    unique_count: usize,
) -> Result<FusionOutput> {
    match phase {
        Some(mut phase) if phase.strips.is_complete() => Ok(FusionOutput {
            image: assemble_image(cube.width(), cube.height(), phase.strips.take())?,
            eigenvalues: phase.spec.eigenvalues,
            unique_count,
            pixels: cube.pixels(),
        }),
        _ => Err(PctError::InvalidConfig("the plan has not completed".into())),
    }
}

/// Per-phase state: each variant holds only what its phase can use, so a
/// screening plan has no transform to put in a task.
enum Progress {
    /// The seeded chain: one link outstanding at a time.
    Screen(Fanout<Vec<Vector>>),
    /// The single derive task; the unique set moves into it when issued.
    Derive(Vec<Vector>, Fanout<()>),
    Transform(TransformPhase),
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
            progress: Progress::Screen(Fanout::new(screen_shards.len())),
            cube,
            config,
            screen_shards,
            transform_shards,
            unique_count: 0,
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
            Progress::Screen(_) => Phase::Screen,
            Progress::Derive(..) => Phase::Derive,
            Progress::Transform(_) => Phase::Transform,
        }
    }

    /// The next dispatchable task, under the id `task`.  `None` — and the id
    /// not consumed, so the owner offers it again — while the plan waits on a
    /// chain link or the derive task, or once everything is issued.
    pub fn next_task(&mut self, task: TaskId) -> Option<PctMessage> {
        let (cube, config) = (&self.cube, self.config);
        match &mut self.progress {
            Progress::Screen(links) if links.outstanding.is_empty() => {
                let seed = links.results.iter().flatten().flatten().cloned().collect();
                links.issue(task, |index| {
                    Some(PctMessage::ScreenSeededTask {
                        task,
                        view: self.screen_shards.get(index)?.view(cube).ok()?,
                        seed,
                        threshold_rad: config.screening_angle_rad,
                    })
                })
            }
            Progress::Screen(_) => None,
            Progress::Derive(unique, derive) => derive.issue(task, |_| {
                self.unique_count = unique.len();
                let unique = std::mem::take(unique);
                Some(PctMessage::DeriveTask {
                    task,
                    unique,
                    config,
                })
            }),
            Progress::Transform(phase) => phase.next_task(task, cube, &self.transform_shards),
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
            Progress::Screen(links) => links.is_outstanding(task),
            Progress::Derive(_, derive) => derive.is_outstanding(task),
            Progress::Transform(phase) => phase.strips.is_outstanding(task),
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
            Progress::Screen(links) => {
                let PctMessage::SeededUnique { accepted, .. } = result else {
                    return Ok(Step::Stale);
                };
                if !links.fill(task, accepted) {
                    return Ok(Step::Continue);
                }
                self.progress = Progress::Derive(links.take().concat(), Fanout::new(1));
                Ok(Step::Entered(Phase::Derive))
            }
            Progress::Derive(..) => {
                let PctMessage::DerivedTransform {
                    mean,
                    transform,
                    eigenvalues,
                    ..
                } = result
                else {
                    return Ok(Step::Stale);
                };
                let spec = TransformSpec {
                    mean,
                    transform,
                    eigenvalues,
                };
                self.progress =
                    Progress::Transform(TransformPhase::new(spec, self.transform_shards.len()));
                Ok(Step::Entered(Phase::Transform))
            }
            Progress::Transform(phase) => Ok(phase.accept(task, result)),
        }
    }

    /// Assembles the fused output after [`Step::Complete`].
    ///
    /// # Errors
    /// `InvalidConfig` before completion, or on a malformed strip.
    pub fn into_output(self) -> Result<FusionOutput> {
        let phase = match self.progress {
            Progress::Transform(phase) => Some(phase),
            _ => None,
        };
        finish(phase, &self.cube, self.unique_count)
    }
}

/// A worker's covariance sum over one chunk: packed upper triangle, band
/// count, vectors accumulated.
type PartialSum = (Vec<f64>, usize, u64);

/// Per-phase state of the paper's protocol.
enum PaperProgress {
    Screen(Fanout<Vec<Vector>>),
    Covariance {
        mean: Vector,
        unique: Vec<Vector>,
        /// Vectors per covariance task.
        chunk: usize,
        sums: Fanout<PartialSum>,
    },
    Transform(TransformPhase),
}

/// The manager side of one run of the paper's protocol (§3, steps 1–8):
/// screening fan-out → merge → covariance fan-out → transform fan-out.
///
/// Driven exactly like [`ChainPlan`].  The owner's task ids are unique
/// across phases, so a second replica's answer, a retransmit's echo and a
/// result of an earlier phase are all [`Step::Stale`].  Results are held by
/// id and merged (unique sets) or summed (covariance) in issue order once
/// the phase's last one is in, so the output is a function of the cube, the
/// configuration, the shards and the covariance width alone — not of which
/// executor answered when.
pub struct PaperPlan {
    cube: Arc<HyperCube>,
    config: PctConfig,
    shards: Vec<SubCubeSpec>,
    covariance_tasks: usize,
    /// Size of the merged unique set, fixed when screening closes.
    unique_count: usize,
    progress: PaperProgress,
}

impl PaperPlan {
    /// A plan over `cube` that screens and transforms `shards` and splits
    /// the covariance sums over the merged unique set into (at most)
    /// `covariance_tasks` chunks.
    pub fn new(
        cube: Arc<HyperCube>,
        config: PctConfig,
        shards: Vec<SubCubeSpec>,
        covariance_tasks: usize,
    ) -> Self {
        Self {
            progress: PaperProgress::Screen(Fanout::new(shards.len())),
            cube,
            config,
            shards,
            covariance_tasks: covariance_tasks.max(1),
            unique_count: 0,
        }
    }

    /// The phase the plan is in (the covariance fan-out is
    /// [`Phase::Derive`]).
    pub fn phase(&self) -> Phase {
        match self.progress {
            PaperProgress::Screen(_) => Phase::Screen,
            PaperProgress::Covariance { .. } => Phase::Derive,
            PaperProgress::Transform(_) => Phase::Transform,
        }
    }

    /// The next dispatchable task, under the id `task`.  `None` — and the id
    /// not consumed — while the phase waits on its last results, or once
    /// everything is issued.
    pub fn next_task(&mut self, task: TaskId) -> Option<PctMessage> {
        let (cube, shards) = (&self.cube, &self.shards);
        let threshold_rad = self.config.screening_angle_rad;
        match &mut self.progress {
            PaperProgress::Screen(sets) => sets.issue(task, |index| {
                Some(PctMessage::ScreenTask {
                    task,
                    view: shards.get(index)?.view(cube).ok()?,
                    threshold_rad,
                })
            }),
            PaperProgress::Covariance {
                mean,
                unique,
                chunk,
                sums,
            } => sums.issue(task, |index| {
                Some(PctMessage::CovarianceTask {
                    task,
                    mean: mean.clone(),
                    pixels: unique.chunks(*chunk).nth(index)?.to_vec(),
                })
            }),
            PaperProgress::Transform(phase) => phase.next_task(task, cube, shards),
        }
    }

    /// Consumes one arriving message.  Each issued task id is accepted once:
    /// anything else is [`Step::Stale`] and leaves the plan untouched.
    ///
    /// # Errors
    /// The cause a worker reported in `TaskFailed` for an outstanding task,
    /// or a phase that cannot go on: an empty unique set, a covariance sum
    /// of the wrong band count, or sums that accumulated no pixels.
    pub fn accept(&mut self, result: PctMessage) -> std::result::Result<Step, String> {
        let issued = |task| match &self.progress {
            PaperProgress::Screen(sets) => sets.is_outstanding(task),
            PaperProgress::Covariance { sums, .. } => sums.is_outstanding(task),
            PaperProgress::Transform(phase) => phase.strips.is_outstanding(task),
        };
        let Some(task) = result.task().filter(|task| issued(*task)) else {
            return Ok(Step::Stale);
        };
        if let PctMessage::TaskFailed { error, .. } = result {
            return Err(error);
        }
        match &mut self.progress {
            PaperProgress::Screen(sets) => {
                let PctMessage::UniqueSet { unique, .. } = result else {
                    return Ok(Step::Stale);
                };
                if !sets.fill(task, unique) {
                    return Ok(Step::Continue);
                }
                let sets = sets.take();
                self.progress = self.covariance_phase(sets)?;
                Ok(Step::Entered(Phase::Derive))
            }
            PaperProgress::Covariance { mean, sums, .. } => {
                let PctMessage::CovarianceSum {
                    packed,
                    bands,
                    count,
                    ..
                } = result
                else {
                    return Ok(Step::Stale);
                };
                if !sums.fill(task, (packed, bands, count)) {
                    return Ok(Step::Continue);
                }
                let (mean, sums) = (mean.clone(), sums.take());
                self.progress = self.transform_phase(mean, sums)?;
                Ok(Step::Entered(Phase::Transform))
            }
            PaperProgress::Transform(phase) => Ok(phase.accept(task, result)),
        }
    }

    /// Steps 2–3: merges the unique sets in issue order and chunks the
    /// merged set for the covariance fan-out.
    fn covariance_phase(
        &mut self,
        sets: Vec<Vec<Vector>>,
    ) -> std::result::Result<PaperProgress, String> {
        let unique = merge_unique_sets(sets, self.config.screening_angle_rad);
        if unique.is_empty() {
            return Err("screening produced an empty unique set".into());
        }
        self.unique_count = unique.len();
        let mean = mean_vector(&unique).map_err(|e| e.to_string())?;
        let chunk = unique.len().div_ceil(self.covariance_tasks);
        Ok(PaperProgress::Covariance {
            mean,
            sums: Fanout::new(unique.len().div_ceil(chunk)),
            unique,
            chunk,
        })
    }

    /// Steps 5–6: sums the partial covariances in issue order and derives
    /// the transform the last fan-out applies.
    fn transform_phase(
        &self,
        mean: Vector,
        partials: Vec<PartialSum>,
    ) -> std::result::Result<PaperProgress, String> {
        let bands = mean.len();
        let mut sum = SymMatrix::zeros(bands);
        let mut total_count = 0u64;
        for (packed, b, count) in partials {
            if b != bands {
                return Err(format!(
                    "worker returned a {b}-band covariance sum for a {bands}-band image"
                ));
            }
            SymMatrix::from_packed(b, packed)
                .and_then(|partial| sum.add_assign_sym(&partial))
                .map_err(|e| e.to_string())?;
            total_count += count;
        }
        if total_count == 0 {
            return Err("covariance phase accumulated no pixels".into());
        }
        sum.scale_in_place(1.0 / total_count as f64);
        let spec = finalize_transform(mean, &sum, &self.config).map_err(|e| e.to_string())?;
        Ok(PaperProgress::Transform(TransformPhase::new(
            spec,
            self.shards.len(),
        )))
    }

    /// Assembles the fused output after [`Step::Complete`].
    ///
    /// # Errors
    /// `InvalidConfig` before completion, or on a malformed strip.
    pub fn into_output(self) -> Result<FusionOutput> {
        let phase = match self.progress {
            PaperProgress::Transform(phase) => Some(phase),
            _ => None,
        };
        finish(phase, &self.cube, self.unique_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::handle_task;
    use crate::resilient::ResilientPct;
    use crate::sequential::SequentialPct;
    use hsi::partition::{partition_for_workers, partition_rows, GranularityPolicy};
    use hsi::{CubeDims, SceneConfig, SceneGenerator};
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

    /// Everything a plan will issue right now, ids counted up from `*next`.
    fn issue_all(
        mut next_task: impl FnMut(TaskId) -> Option<PctMessage>,
        next: &mut TaskId,
    ) -> Vec<PctMessage> {
        let mut batch = Vec::new();
        while let Some(task) = next_task(*next) {
            assert_eq!(task.task(), Some(*next));
            *next += 1;
            batch.push(task);
        }
        batch
    }

    /// Shuffles `batch` with `rng`.
    fn shuffle(batch: &mut [PctMessage], rng: &mut StdRng) {
        for i in (1..batch.len()).rev() {
            batch.swap(i, rng.gen_range(0..i + 1));
        }
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
                let mut batch = issue_all(|id| plan.next_task(id), &mut next);
                prop_assert!(!batch.is_empty(), "the plan stalled in {:?}", plan.phase());
                shuffle(&mut batch, &mut rng);
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

        /// (b) The paper's plan over any shard count and covariance width,
        /// results in any order, every result delivered again after every
        /// batch: the output is the in-order drive's and every repeat is
        /// stale.
        #[test]
        fn a_paper_plan_is_independent_of_arrival_order_and_accepts_each_id_once(
            seed in 0u64..1 << 40,
            shards in 1usize..9,
            slots in 1usize..5,
        ) {
            let cube = scene(seed);
            let plan = || PaperPlan::new(
                Arc::clone(&cube),
                PctConfig::paper(),
                partition_rows(cube.dims(), shards).unwrap(),
                slots,
            );
            let in_order = drive(plan(), |_| {}).unwrap();
            let mut plan = plan();
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut next, mut echoes) = (7, Vec::<PctMessage>::new());
            'run: loop {
                let mut batch = issue_all(|id| plan.next_task(id), &mut next);
                prop_assert!(!batch.is_empty(), "the plan stalled in {:?}", plan.phase());
                // Every earlier answer again while this batch is outstanding
                // — in the covariance phase, the screening answers.
                for echo in &echoes {
                    prop_assert_eq!(plan.accept(echo.clone()), Ok(Step::Stale));
                }
                shuffle(&mut batch, &mut rng);
                for task in batch {
                    let result = handle_task(task).unwrap();
                    echoes.push(result.clone());
                    let step = plan.accept(result.clone()).unwrap();
                    prop_assert!(step != Step::Stale, "a first delivery was stale");
                    if step == Step::Complete {
                        break 'run;
                    }
                    prop_assert_eq!(plan.accept(result), Ok(Step::Stale));
                }
            }
            for echo in echoes {
                prop_assert_eq!(plan.accept(echo), Ok(Step::Stale));
            }
            prop_assert_eq!(plan.into_output().unwrap(), in_order);
        }
    }

    /// (c) What a phase cannot produce or consume, it does not.
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
        let tasks = issue_all(|id| plan.next_task(id), &mut next);
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

    /// Drives a paper plan in-thread, as an executor does: every task
    /// through `handle_task`, each batch answered in reverse issue order and
    /// `tamper`ed with first, a plan error as `InvalidConfig`.
    fn drive(mut plan: PaperPlan, tamper: fn(&mut PctMessage)) -> Result<FusionOutput> {
        let mut next = 0;
        loop {
            let batch = issue_all(|id| plan.next_task(id), &mut next);
            assert!(!batch.is_empty(), "the plan stalled in {:?}", plan.phase());
            for task in batch.into_iter().rev() {
                let mut result = handle_task(task).unwrap();
                tamper(&mut result);
                if plan.accept(result).map_err(PctError::InvalidConfig)? == Step::Complete {
                    return plan.into_output();
                }
            }
        }
    }

    /// FNV-1a (64-bit) over the image bytes, then the eigenvalues' bits.
    fn fingerprint(output: &FusionOutput) -> u64 {
        let eigenvalue_bytes = output
            .eigenvalues
            .iter()
            .flat_map(|e| e.to_bits().to_le_bytes());
        output
            .image
            .raw()
            .iter()
            .copied()
            .chain(eigenvalue_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// (d) Pinned rows of the paper's protocol — `(scene, slots, unique
    /// count, fingerprint)` — for `SceneConfig::small(5)` and the 48×48×24
    /// end-to-end scene, sharded `PerWorkerMultiple(2)` over `slots` with
    /// `slots` covariance tasks: in-thread, and through `ResilientPct` at
    /// levels 1 and 2.  They predate the plan; a change that moves one
    /// changes what the protocol computes.
    #[test]
    fn the_paper_plan_reproduces_its_pinned_rows_in_thread_and_at_levels_1_and_2() {
        let mut e2e = SceneConfig::small(1);
        e2e.dims = CubeDims::new(48, 48, 24);
        let e2e = Arc::new(SceneGenerator::new(e2e).unwrap().generate());
        let small = scene(5);
        let rows = [
            (&small, 1, 108, 0x1e2a_8d0e_50f5_cea2),
            (&small, 3, 108, 0x6124_e2d4_a91b_5626),
            (&small, 4, 108, 0xec53_b25d_80b8_91f3),
            (&e2e, 3, 197, 0xfc01_55e6_8987_ff29),
        ];
        for (cube, slots, unique, hash) in rows {
            let shards =
                partition_for_workers(cube.dims(), slots, GranularityPolicy::PerWorkerMultiple(2))
                    .unwrap();
            let plan = PaperPlan::new(Arc::clone(cube), PctConfig::paper(), shards, slots);
            let output = drive(plan, |_| {}).unwrap();
            assert_eq!(
                (output.unique_count, fingerprint(&output)),
                (unique, hash),
                "{slots} slots"
            );
            for level in [1, 2] {
                let run = ResilientPct::new(PctConfig::paper(), slots, level).run(cube);
                assert_eq!(run.unwrap(), output, "{slots} slots, level {level}");
            }
        }
    }

    /// (e) Ids are unique across phases: a screening answer delivered again
    /// in the covariance phase — the late replica a kind predicate once had
    /// to filter — is stale, and so is a unique set under an outstanding
    /// covariance id.
    #[test]
    fn a_screening_answer_delivered_again_in_the_covariance_phase_is_stale() {
        let cube = scene(3);
        let shards = partition_rows(cube.dims(), 2).unwrap();
        let mut plan = PaperPlan::new(Arc::clone(&cube), PctConfig::paper(), shards, 2);
        let mut next = 0;
        let screening = issue_all(|id| plan.next_task(id), &mut next);
        let answers: Vec<PctMessage> = screening.into_iter().flat_map(handle_task).collect();
        for answer in answers.clone() {
            assert_ne!(plan.accept(answer), Ok(Step::Stale));
        }
        let covariance = issue_all(|id| plan.next_task(id), &mut next);
        let Some(PctMessage::UniqueSet { unique, .. }) = answers.first().cloned() else {
            panic!("a screening task answers with a unique set");
        };
        let task = covariance[0].task().unwrap();
        for late in [answers[0].clone(), PctMessage::UniqueSet { task, unique }] {
            assert_eq!(plan.accept(late), Ok(Step::Stale));
        }
        let steps: Vec<Step> = covariance
            .into_iter()
            .map(|task| plan.accept(handle_task(task).unwrap()).unwrap())
            .collect();
        assert_eq!(steps, [Step::Continue, Step::Entered(Phase::Transform)]);
    }

    #[test]
    fn degenerate_phases_of_the_paper_protocol_are_typed_errors() {
        let cube = scene(5);
        let run = |tamper: fn(&mut PctMessage)| {
            let shards = partition_rows(cube.dims(), 4).unwrap();
            let plan = PaperPlan::new(Arc::clone(&cube), PctConfig::paper(), shards, 2);
            match drive(plan, tamper) {
                Err(PctError::InvalidConfig(message)) => message,
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        let empty_screening = run(|msg| {
            if let PctMessage::UniqueSet { unique, .. } = msg {
                unique.clear();
            }
        });
        assert_eq!(empty_screening, "screening produced an empty unique set");
        let nothing_accumulated = run(|msg| {
            if let PctMessage::CovarianceSum { count, .. } = msg {
                *count = 0;
            }
        });
        assert_eq!(
            nothing_accumulated,
            "covariance phase accumulated no pixels"
        );
        let wrong_bands = run(|msg| {
            if let PctMessage::CovarianceSum { bands, .. } = msg {
                *bands = 2;
            }
        });
        assert_eq!(
            wrong_bands,
            "worker returned a 2-band covariance sum for a 16-band image"
        );
    }
}
