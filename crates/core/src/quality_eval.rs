//! The paper's two-stage quality evaluation (§4): a *signal* gate
//! (PSNR/SSIM on the pre-processed, i.e. high-pass-filtered, signal) and an
//! *application* gate (QRS peak-detection accuracy on the final output).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ecg::EcgRecord;
use hwmodel::{CalibratedModel, StageCost};
use pan_tompkins::{
    DetectionResult, DetectorEngine, Footprint, LaneBank, PipelineConfig, QrsDetector,
    SnapshotError, StageKind, StreamEvent, StreamingQrsDetector,
};
use quality::{psnr, PeakMatcher, Ssim};

use crate::parallel::parallel_map;

/// Samples excluded at the start of a record when scoring (the detector's
/// 2 s learning phase).
pub const SCORE_START: usize = 400;

/// Samples excluded at the end of a record when scoring (pipeline group
/// delay pushes the last beat's response off the record).
pub const SCORE_TAIL: usize = 60;

/// A user-defined quality constraint for one of the two evaluation points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityConstraint {
    /// Minimum PSNR (dB) of the pre-processed signal (the paper's Table 2
    /// uses `PSNR ≥ 15`).
    MinPsnr(f64),
    /// Minimum 1-D SSIM of the pre-processed signal.
    MinSsim(f64),
    /// Minimum final peak-detection accuracy in `0.0..=1.0` (the paper's
    /// Fig 12 marks a 95 % threshold).
    MinPeakAccuracy(f64),
}

impl QualityConstraint {
    /// Checks a report against this constraint.
    #[must_use]
    pub fn is_satisfied_by(&self, report: &QualityReport) -> bool {
        match *self {
            QualityConstraint::MinPsnr(db) => report.psnr_db >= db,
            QualityConstraint::MinSsim(s) => report.ssim >= s,
            QualityConstraint::MinPeakAccuracy(a) => report.peak_accuracy >= a,
        }
    }
}

/// Quality and energy figures of one evaluated design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// PSNR (dB) of the approximate HPF output vs the accurate one.
    pub psnr_db: f64,
    /// 1-D SSIM of the approximate HPF output vs the accurate one.
    pub ssim: f64,
    /// Peak-detection accuracy (sensitivity) against the record's reference
    /// beats.
    pub peak_accuracy: f64,
    /// Positive predictivity of the detections.
    pub ppv: f64,
    /// Beats dropped by the HPF↔MWI alignment check.
    pub omitted_beats: usize,
    /// Detected beat count in the scored region.
    pub detected_beats: usize,
    /// Reference beat count in the scored region.
    pub reference_beats: usize,
    /// End-to-end energy-reduction factor under the module-sum model.
    pub energy_reduction_module_sum: f64,
    /// End-to-end energy-reduction factor under the synthesis-calibrated
    /// model.
    pub energy_reduction_calibrated: f64,
}

/// How [`Evaluator::evaluate_with`] feeds the record through the pipeline.
///
/// Every mode produces a bit-identical [`QualityReport`] (streaming is
/// event- and tap-identical to batch for every chunking — see
/// [`pan_tompkins::streaming`]); the mode chooses the *execution shape*,
/// not the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// One [`QrsDetector::detect`] call over the whole record.
    #[default]
    Batch,
    /// Chunked pushes through a [`StreamingQrsDetector`] — the
    /// deployment-shaped path an AFE would drive.
    Streaming,
}

/// Options for the unified evaluation entry points
/// [`Evaluator::evaluate_with`] and [`Evaluator::evaluate_records_with`]:
/// execution mode, chunking, checkpointing, footprint, and (for the
/// record-batched path) lane-bank width.
///
/// The default is a plain batch evaluation. Builders refine it:
///
/// ```
/// use xbiosip::quality_eval::EvalOptions;
/// use pan_tompkins::Footprint;
///
/// let batch = EvalOptions::batch();
/// let deployment = EvalOptions::streaming(64).with_footprint(Footprint::Bounded);
/// let persisted = EvalOptions::streaming(64).with_checkpoints(&[1000, 3000]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    mode: EvalMode,
    chunk_size: usize,
    checkpoints: Vec<usize>,
    footprint: Option<Footprint>,
    lanes: Option<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            mode: EvalMode::Batch,
            chunk_size: 4096,
            checkpoints: Vec::new(),
            footprint: None,
            lanes: None,
        }
    }
}

impl EvalOptions {
    /// Batch evaluation (the default): one detector call per record.
    #[must_use]
    pub fn batch() -> Self {
        Self::default()
    }

    /// Streaming evaluation in `chunk_size`-sample pushes (clamped to at
    /// least 1).
    #[must_use]
    pub fn streaming(chunk_size: usize) -> Self {
        Self {
            mode: EvalMode::Streaming,
            chunk_size: chunk_size.max(1),
            ..Self::default()
        }
    }

    /// Interrupts the run at each checkpoint (sample offsets, applied at
    /// the nearest push boundary at or after the offset): the live session
    /// is serialized with [`StreamingQrsDetector::snapshot`], dropped, and
    /// thawed from the blob before the stream continues. A non-empty
    /// checkpoint list forces the streaming path regardless of
    /// [`EvalMode`]; the record-batched entry point ignores checkpoints.
    #[must_use]
    pub fn with_checkpoints(mut self, checkpoints: &[usize]) -> Self {
        self.checkpoints = checkpoints.to_vec();
        self
    }

    /// Overrides the configuration's [`Footprint`] for the run. Without
    /// this, [`Evaluator::evaluate_with`] honors the configuration as
    /// given and the record-batched path defaults to
    /// [`Footprint::Bounded`].
    #[must_use]
    pub fn with_footprint(mut self, footprint: Footprint) -> Self {
        self.footprint = Some(footprint);
        self
    }

    /// Routes [`Evaluator::evaluate_records_with`] through a
    /// `lanes`-wide [`LaneBank`] (the fleet-throughput path, always
    /// bounded-footprint). Ignored by the per-record entry point.
    ///
    /// `lanes` is clamped to at least 1.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes.max(1));
        self
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// The streaming push size.
    #[must_use]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The snapshot/restore interruption points.
    #[must_use]
    pub fn checkpoints(&self) -> &[usize] {
        &self.checkpoints
    }

    /// The footprint override, if any.
    #[must_use]
    pub fn footprint(&self) -> Option<Footprint> {
        self.footprint
    }

    /// The lane-bank width for the record-batched path, if any.
    #[must_use]
    pub fn lanes(&self) -> Option<usize> {
        self.lanes
    }
}

/// Evaluates pipeline configurations against one record, caching the
/// accurate reference run.
///
/// The accurate high-pass-filtered signal is the PSNR/SSIM reference
/// ("considering the accurate High Pass Filtered signal as a reference",
/// paper §6) and the record's annotated beats are the detection reference.
///
/// Evaluation takes `&self` (the per-design pipeline state lives inside the
/// call), so one evaluator can score many design points concurrently —
/// [`Evaluator::evaluate_batch`] fans a grid out across a worker pool.
#[derive(Debug)]
pub struct Evaluator {
    record: EcgRecord,
    reference_hpf: Vec<f64>,
    reference_beats: Vec<usize>,
    calibrated: CalibratedModel,
    matcher: PeakMatcher,
    ssim: Ssim,
    evaluations: AtomicU64,
}

impl Evaluator {
    /// Creates an evaluator for a record, running the accurate pipeline
    /// once to build the reference signals.
    #[must_use]
    pub fn new(record: &EcgRecord) -> Self {
        Self::with_reference(record, PipelineConfig::exact())
    }

    /// Creates an evaluator whose reference run uses a custom (normally
    /// exact) pipeline configuration — e.g. to match a non-default
    /// `input_shift`. Configurations later passed to
    /// [`Evaluator::evaluate_with`] should use the same datapath scaling.
    #[must_use]
    pub fn with_reference(record: &EcgRecord, reference: PipelineConfig) -> Self {
        let mut exact = QrsDetector::new(reference);
        let result = exact.detect(record.samples());
        let reference_hpf: Vec<f64> = result
            .expect_signals()
            .hpf
            .iter()
            .map(|v| *v as f64)
            .collect();
        let end = record.len().saturating_sub(SCORE_TAIL);
        let reference_beats: Vec<usize> = record
            .r_peaks()
            .iter()
            .copied()
            .filter(|p| *p >= SCORE_START && *p < end)
            .collect();
        Self {
            record: record.clone(),
            reference_hpf,
            reference_beats,
            calibrated: CalibratedModel::paper(),
            matcher: PeakMatcher::default(),
            ssim: Ssim::default(),
            evaluations: AtomicU64::new(0),
        }
    }

    /// The record under evaluation.
    #[must_use]
    pub fn record(&self) -> &EcgRecord {
        &self.record
    }

    /// Number of behavioral evaluations performed so far (the unit of
    /// "exploration time" in the paper's Fig 11).
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Runs the pipeline under `config` the way `options` prescribes and
    /// scores it — the single evaluation entry point. Every option
    /// combination yields a bit-identical report; the options choose the
    /// execution shape (batch vs. chunked streaming vs. checkpointed
    /// streaming, and the footprint), not the answer.
    ///
    /// A non-empty [`EvalOptions::with_checkpoints`] list forces the
    /// streaming path regardless of [`EvalMode`];
    /// [`EvalOptions::with_lanes`] is ignored here (it only routes the
    /// record-batched entry point).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] surfaced by a checkpoint round-trip. Runs
    /// without checkpoints are infallible (none occur for a live
    /// in-process session either; the path exists so callers exercise
    /// exactly what a persisted deployment would run).
    pub fn evaluate_with(
        &self,
        config: &PipelineConfig,
        options: &EvalOptions,
    ) -> Result<QualityReport, SnapshotError> {
        let config = match options.footprint {
            Some(fp) => config.with_footprint(fp),
            None => *config,
        };
        if !options.checkpoints.is_empty() {
            return self.run_checkpointed(&config, options.chunk_size, &options.checkpoints);
        }
        Ok(match options.mode {
            EvalMode::Batch => self.run_batch(&config),
            EvalMode::Streaming => self.run_streaming(&config, options.chunk_size),
        })
    }

    fn run_batch(&self, config: &PipelineConfig) -> QualityReport {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let mut detector = QrsDetector::new(*config);
        let result = detector.detect(self.record.samples());
        self.score(config, &result)
    }

    /// Scores a run of the streaming detector fed in `chunk_size`-sample
    /// pushes, from its event stream and HPF tap — so it honors the
    /// configuration's [`Footprint`] and still equals the batch report.
    fn run_streaming(&self, config: &PipelineConfig, chunk_size: usize) -> QualityReport {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let mut detector = StreamingQrsDetector::new(*config);
        let mut hpf: Vec<i64> = Vec::with_capacity(self.record.len());
        let mut run = StreamRun::default();
        for chunk in self.record.samples().chunks(chunk_size.max(1)) {
            run.absorb(detector.push_tapped(chunk, &mut hpf));
        }
        let (trailing, _result) = detector.finish();
        run.absorb(trailing);
        run.seal();
        self.score_parts(config, &hpf, &run)
    }

    /// [`Evaluator::run_streaming`], with the live session serialized,
    /// dropped and thawed at each of `checkpoints` (sample offsets,
    /// applied at the nearest push boundary at or after the offset).
    fn run_checkpointed(
        &self,
        config: &PipelineConfig,
        chunk_size: usize,
        checkpoints: &[usize],
    ) -> Result<QualityReport, SnapshotError> {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::new(DetectorEngine::new(*config));
        let mut detector = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let mut pending: Vec<usize> = checkpoints.to_vec();
        pending.sort_unstable();
        let mut hpf: Vec<i64> = Vec::with_capacity(self.record.len());
        let mut run = StreamRun::default();
        let mut fed = 0usize;
        for chunk in self.record.samples().chunks(chunk_size.max(1)) {
            run.absorb(detector.push_tapped(chunk, &mut hpf));
            fed += chunk.len();
            if pending.first().is_some_and(|&at| at <= fed) {
                pending.retain(|&at| at > fed);
                let blob = detector.snapshot()?;
                drop(detector);
                detector = StreamingQrsDetector::restore(Arc::clone(&engine), &blob)?;
            }
        }
        let (trailing, _result) = detector.finish();
        run.absorb(trailing);
        run.seal();
        Ok(self.score_parts(config, &hpf, &run))
    }

    /// Scores one finished detection run against the cached references.
    fn score(&self, config: &PipelineConfig, result: &DetectionResult) -> QualityReport {
        let run = StreamRun {
            r_peaks: result.r_peaks().to_vec(),
            omitted: result.omitted().len(),
        };
        self.score_parts(config, &result.expect_signals().hpf, &run)
    }

    fn score_parts(&self, config: &PipelineConfig, hpf: &[i64], run: &StreamRun) -> QualityReport {
        score_run(
            config,
            &self.reference_hpf,
            &self.reference_beats,
            self.record.len(),
            hpf,
            run,
            &self.calibrated,
            &self.matcher,
            &self.ssim,
        )
    }

    /// Scores many records × many configurations the way `options`
    /// prescribes — the record-batched face of
    /// [`Evaluator::evaluate_with`]. Reports come back in
    /// `[record][config]` order and are bit-for-bit equal across every
    /// option combination (and to the per-record entry point): the
    /// options choose the execution shape, not the answer.
    ///
    /// Routing:
    /// - [`EvalOptions::with_lanes`] drives the corpus through one
    ///   [`LaneBank`] per configuration (the fleet-throughput path,
    ///   always bounded-footprint).
    /// - [`EvalMode::Streaming`] reuses one bounded streaming detector
    ///   per configuration across the whole corpus.
    /// - [`EvalMode::Batch`] builds one [`Evaluator`] per record (the
    ///   [`evaluate_across_records`] shape).
    ///
    /// Checkpoints are ignored here; use [`Evaluator::evaluate_with`]
    /// for snapshot/restore interruption.
    #[must_use]
    pub fn evaluate_records_with(
        records: &[EcgRecord],
        configs: &[PipelineConfig],
        options: &EvalOptions,
    ) -> Vec<Vec<QualityReport>> {
        if let Some(lanes) = options.lanes {
            return Self::evaluate_records_lanes(records, configs, lanes);
        }
        match options.mode {
            EvalMode::Streaming => {
                Self::records_streaming(records, configs, options.chunk_size, options.footprint)
            }
            EvalMode::Batch => parallel_map(records.len(), |i| {
                let evaluator = Evaluator::new(&records[i]);
                let per_config = EvalOptions {
                    lanes: None,
                    checkpoints: Vec::new(),
                    ..options.clone()
                };
                configs
                    .iter()
                    .map(|c| {
                        evaluator
                            .evaluate_with(c, &per_config)
                            .expect("non-checkpointed evaluation is infallible")
                    })
                    .collect()
            }),
        }
    }

    fn records_streaming(
        records: &[EcgRecord],
        configs: &[PipelineConfig],
        chunk_size: usize,
        footprint: Option<Footprint>,
    ) -> Vec<Vec<QualityReport>> {
        let refs = record_refs(records);
        let calibrated = CalibratedModel::paper();
        let matcher = PeakMatcher::default();
        let ssim = Ssim::default();
        let chunk_size = chunk_size.max(1);

        // One bounded detector per configuration, reused across records.
        let per_config: Vec<Vec<QualityReport>> = parallel_map(configs.len(), |c| {
            let config = configs[c];
            let mut detector = StreamingQrsDetector::new(
                config.with_footprint(footprint.unwrap_or(Footprint::Bounded)),
            );
            let mut hpf: Vec<i64> = Vec::new();
            records
                .iter()
                .zip(&refs)
                .map(|(record, rref)| {
                    hpf.clear();
                    let mut run = StreamRun::default();
                    for chunk in record.samples().chunks(chunk_size) {
                        run.absorb(detector.push_tapped(chunk, &mut hpf));
                    }
                    let (trailing, _slim) = detector.finish_reset();
                    run.absorb(trailing);
                    run.seal();
                    score_run(
                        &config,
                        &rref.hpf,
                        &rref.beats,
                        rref.len,
                        &hpf,
                        &run,
                        &calibrated,
                        &matcher,
                        &ssim,
                    )
                })
                .collect()
        });

        // Transpose to the `[record][config]` shape of
        // `evaluate_across_records`.
        (0..records.len())
            .map(|r| per_config.iter().map(|row| row[r]).collect())
            .collect()
    }

    /// Scores many records × many configurations through a [`LaneBank`] —
    /// the fleet-throughput evaluation path.
    ///
    /// Per configuration, one [`DetectorEngine`] is compiled once and a
    /// `lanes`-wide bank advances that many records *in lockstep*: records
    /// are dealt round-robin across lanes (lane `l` carries records `l`,
    /// `l + lanes`, …), the bank is pushed up to the nearest record
    /// boundary, the lanes ending there are harvested with
    /// [`LaneBank::finish_lane`] (which resets them for their next record),
    /// and lanes that run out of records idle on zero-fill. Configurations
    /// fan out across the worker pool, so the corpus is covered by
    /// `configs × lanes` concurrent sessions on `configs` engines.
    ///
    /// Returns reports in `[record][config]` order, each bit-for-bit equal
    /// to the bounded streaming path's (and therefore to the
    /// per-record evaluators'): every lane of a bank is bit-identical to a
    /// solo scalar run (see [`pan_tompkins::lane`]), and the scoring
    /// arithmetic is shared.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn evaluate_records_lanes(
        records: &[EcgRecord],
        configs: &[PipelineConfig],
        lanes: usize,
    ) -> Vec<Vec<QualityReport>> {
        assert!(lanes >= 1, "lane-batched evaluation needs at least 1 lane");
        let refs = record_refs(records);
        let calibrated = CalibratedModel::paper();
        let matcher = PeakMatcher::default();
        let ssim = Ssim::default();

        let per_config: Vec<Vec<QualityReport>> = parallel_map(configs.len(), |c| {
            let config = configs[c].with_footprint(Footprint::Bounded);
            let engine = Arc::new(DetectorEngine::new(config));
            let mut bank = LaneBank::new(engine, lanes);

            // Lane `l`'s current record (round-robin deal; >= records.len()
            // means the lane is done and idles on zero-fill).
            let mut current: Vec<usize> = (0..lanes).collect();
            let mut pos = vec![0usize; lanes];
            let mut runs: Vec<StreamRun> = (0..lanes).map(|_| StreamRun::default()).collect();
            let mut hpf: Vec<Vec<i64>> = vec![Vec::new(); lanes];
            let mut reports: Vec<Option<QualityReport>> = vec![None; records.len()];

            loop {
                // Push exactly up to the nearest record boundary among the
                // live lanes, so every finish_lane lands at a record end.
                let step = (0..lanes)
                    .filter(|&l| current[l] < records.len())
                    .map(|l| records[current[l]].len() - pos[l])
                    .min();
                let Some(step) = step else { break };
                let mut frames = vec![0i32; step * lanes];
                for l in 0..lanes {
                    if current[l] < records.len() {
                        let samples = &records[current[l]].samples()[pos[l]..pos[l] + step];
                        for (t, &v) in samples.iter().enumerate() {
                            frames[t * lanes + l] = v;
                        }
                    }
                }
                for le in bank.push_tapped(&frames, &mut hpf) {
                    if current[le.lane] < records.len() {
                        runs[le.lane].absorb_event(le.event);
                    }
                }
                for l in 0..lanes {
                    let r = current[l];
                    if r >= records.len() {
                        hpf[l].clear(); // idle lane: discard zero-fill taps
                        continue;
                    }
                    pos[l] += step;
                    if pos[l] < records[r].len() {
                        continue;
                    }
                    let (trailing, _slim) = bank.finish_lane(l);
                    for event in trailing {
                        runs[l].absorb_event(event);
                    }
                    let mut run = std::mem::take(&mut runs[l]);
                    run.seal();
                    let rref = &refs[r];
                    reports[r] = Some(score_run(
                        &config,
                        &rref.hpf,
                        &rref.beats,
                        rref.len,
                        &hpf[l],
                        &run,
                        &calibrated,
                        &matcher,
                        &ssim,
                    ));
                    hpf[l].clear();
                    current[l] = r + lanes;
                    pos[l] = 0;
                }
            }
            reports
                .into_iter()
                .map(|r| r.expect("every record reaches its boundary"))
                .collect()
        });

        (0..records.len())
            .map(|r| per_config.iter().map(|row| row[r]).collect())
            .collect()
    }

    /// Scores every configuration, fanning the evaluations out across a
    /// worker pool. Reports come back in input order and are identical to
    /// sequential evaluation (each design point is independent); the
    /// evaluation counter advances by `configs.len()`.
    #[must_use]
    pub fn evaluate_batch(&self, configs: &[PipelineConfig]) -> Vec<QualityReport> {
        let options = EvalOptions::batch();
        parallel_map(configs.len(), |i| {
            self.evaluate_with(&configs[i], &options)
                .expect("non-checkpointed evaluation is infallible")
        })
    }

    /// Calibrated energy reduction of the *pre-processing* section only
    /// (LPF+HPF) — the quantity reported in the paper's Table 2.
    #[must_use]
    pub fn preprocessing_energy_reduction(&self, config: &PipelineConfig) -> f64 {
        let lsbs = config.lsb_vector();
        let w_l = self.calibrated.weight(0);
        let w_h = self.calibrated.weight(1);
        let denom = w_l / self.calibrated.stage_reduction(0, lsbs[0])
            + w_h / self.calibrated.stage_reduction(1, lsbs[1]);
        (w_l + w_h) / denom
    }
}

/// Scores a set of configurations against every record in parallel: one
/// evaluator — including its accurate reference run — per record, each on
/// its own worker, scoring all `configs` against that record. The outer
/// result is in record order, the inner in config order.
#[must_use]
pub fn evaluate_across_records(
    records: &[EcgRecord],
    configs: &[PipelineConfig],
) -> Vec<Vec<QualityReport>> {
    parallel_map(records.len(), |i| {
        let evaluator = Evaluator::new(&records[i]);
        let options = EvalOptions::batch();
        configs
            .iter()
            .map(|c| {
                evaluator
                    .evaluate_with(c, &options)
                    .expect("non-checkpointed evaluation is infallible")
            })
            .collect()
    })
}

/// One record's cached references: the accurate HPF signal (the PSNR/SSIM
/// reference) and the annotated beats inside the scored region.
struct RecordRef {
    hpf: Vec<f64>,
    beats: Vec<usize>,
    len: usize,
}

/// Computes every record's references (the accurate run) once, in
/// parallel — shared by the record-batched evaluation paths.
fn record_refs(records: &[EcgRecord]) -> Vec<RecordRef> {
    parallel_map(records.len(), |i| {
        let record = &records[i];
        let result = QrsDetector::new(PipelineConfig::exact()).detect(record.samples());
        let end = record.len().saturating_sub(SCORE_TAIL);
        RecordRef {
            hpf: result
                .expect_signals()
                .hpf
                .iter()
                .map(|v| *v as f64)
                .collect(),
            beats: record
                .r_peaks()
                .iter()
                .copied()
                .filter(|p| *p >= SCORE_START && *p < end)
                .collect(),
            len: record.len(),
        }
    })
}

/// Peaks and omissions collected from a streaming run's event stream — the
/// bounded-mode substitute for [`DetectionResult`]'s vectors (identical
/// after [`StreamRun::seal`], since bounded streaming is event-identical).
#[derive(Debug, Default)]
struct StreamRun {
    r_peaks: Vec<usize>,
    omitted: usize,
}

impl StreamRun {
    fn absorb(&mut self, events: Vec<StreamEvent>) {
        for e in events {
            self.absorb_event(e);
        }
    }

    fn absorb_event(&mut self, event: StreamEvent) {
        match event {
            StreamEvent::RPeak { raw, .. } => self.r_peaks.push(raw),
            StreamEvent::Omitted(_) => self.omitted += 1,
        }
    }

    /// Sorts and dedups the confirmed peaks, matching the construction of
    /// [`DetectionResult::r_peaks`] exactly.
    fn seal(&mut self) {
        self.r_peaks.sort_unstable();
        self.r_peaks.dedup();
    }
}

/// The shared scoring arithmetic: one detection run (HPF signal + peaks +
/// omissions) against one record's references. Both batch evaluation
/// and the streaming/record-batched paths funnel through this, which is
/// what makes their reports bit-for-bit comparable.
#[allow(clippy::too_many_arguments)]
fn score_run(
    config: &PipelineConfig,
    reference_hpf: &[f64],
    reference_beats: &[usize],
    record_len: usize,
    hpf: &[i64],
    run: &StreamRun,
    calibrated: &CalibratedModel,
    matcher: &PeakMatcher,
    ssim: &Ssim,
) -> QualityReport {
    // Signal gate: compare HPF outputs past the filter warm-up.
    let start = SCORE_START.min(reference_hpf.len());
    let approx_hpf: Vec<f64> = hpf[start..].iter().map(|v| *v as f64).collect();
    let reference = &reference_hpf[start..];
    let psnr_db = if reference.is_empty() {
        f64::INFINITY
    } else {
        psnr::psnr(reference, &approx_hpf)
    };
    let ssim_score = if reference.len() >= ssim.window() {
        ssim.mean(reference, &approx_hpf)
    } else {
        1.0
    };

    // Application gate: peak detection accuracy.
    let end = record_len.saturating_sub(SCORE_TAIL);
    let detected: Vec<usize> = run
        .r_peaks
        .iter()
        .copied()
        .filter(|p| *p >= SCORE_START && *p < end)
        .collect();
    let m = matcher.match_peaks(reference_beats, &detected);

    let lsbs = config.lsb_vector();
    QualityReport {
        psnr_db,
        ssim: ssim_score,
        peak_accuracy: m.detection_accuracy(),
        ppv: m.positive_predictivity(),
        omitted_beats: run.omitted,
        detected_beats: detected.len(),
        reference_beats: reference_beats.len(),
        energy_reduction_module_sum: module_sum_reduction(config),
        energy_reduction_calibrated: calibrated.end_to_end_reduction(lsbs),
    }
}

/// End-to-end energy reduction under the transparent module-sum model
/// (Table 1 composition over the five stage netlists).
#[must_use]
pub fn module_sum_reduction(config: &PipelineConfig) -> f64 {
    let mut exact = 0.0;
    let mut ours = 0.0;
    for kind in StageKind::ALL {
        let exact_cost = StageCost::fir(
            kind.multipliers(),
            kind.adders(),
            approx_arith::StageArith::exact(),
        )
        .cost();
        let our_cost = StageCost::fir(kind.multipliers(), kind.adders(), config.stage(kind)).cost();
        exact += exact_cost.energy_fj;
        ours += our_cost.energy_fj;
    }
    if ours == 0.0 {
        f64::INFINITY
    } else {
        exact / ours
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_record() -> EcgRecord {
        ecg::nsrdb::paper_record().truncated(6000)
    }

    fn eval_batch(ev: &Evaluator, config: &PipelineConfig) -> QualityReport {
        ev.evaluate_with(config, &EvalOptions::batch())
            .expect("non-checkpointed evaluation is infallible")
    }

    fn eval_streaming(ev: &Evaluator, config: &PipelineConfig, chunk: usize) -> QualityReport {
        ev.evaluate_with(config, &EvalOptions::streaming(chunk))
            .expect("non-checkpointed evaluation is infallible")
    }

    #[test]
    fn exact_config_scores_perfectly() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        let r = eval_batch(&ev, &PipelineConfig::exact());
        assert!(r.psnr_db.is_infinite(), "exact PSNR should be infinite");
        assert!((r.ssim - 1.0).abs() < 1e-9);
        assert!(r.peak_accuracy >= 0.97, "accuracy {}", r.peak_accuracy);
        assert!((r.energy_reduction_module_sum - 1.0).abs() < 1e-9);
        assert!((r.energy_reduction_calibrated - 1.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_evaluation_matches_batch_exactly() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
            PipelineConfig::least_energy([4, 4, 2, 4, 8]),
        ] {
            let batch = eval_batch(&ev, &config);
            for chunk in [1usize, 20, 4096] {
                assert_eq!(
                    eval_streaming(&ev, &config, chunk),
                    batch,
                    "streaming report diverged for {config} at chunk {chunk}"
                );
            }
            // The bounded-footprint detector never materialises signals,
            // yet the report — scored from events and the HPF tap — is
            // still bit-for-bit the batch report.
            assert_eq!(
                eval_streaming(&ev, &config.with_footprint(Footprint::Bounded), 20),
                batch,
                "bounded streaming report diverged for {config}"
            );
        }
    }

    /// The record-batched path: one reused bounded detector per config
    /// must reproduce the per-record evaluators' reports exactly, for
    /// every record × config cell.
    #[test]
    fn record_batched_streaming_matches_per_record_evaluators() {
        let records: Vec<EcgRecord> = vec![
            ecg::nsrdb::paper_record().truncated(4000),
            ecg::nsrdb::paper_record().truncated(6000),
        ];
        let configs = [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
            PipelineConfig::least_energy([4, 4, 2, 4, 8]),
        ];
        let batched =
            Evaluator::evaluate_records_with(&records, &configs, &EvalOptions::streaming(64));
        let reference = evaluate_across_records(&records, &configs);
        assert_eq!(batched.len(), reference.len());
        for (r, (got, want)) in batched.iter().zip(&reference).enumerate() {
            for (c, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g, w, "record {r} config {c} diverged");
            }
        }
    }

    /// The lane-batched path: a shared-engine [`LaneBank`] covering the
    /// corpus round-robin must reproduce the record-batched streaming
    /// reports exactly — for a single lane, for more lanes than records
    /// (idle zero-filled lanes), and for lane counts that force mid-bank
    /// record boundaries and lane reuse.
    #[test]
    fn lane_batched_evaluation_matches_record_batched() {
        let records: Vec<EcgRecord> = vec![
            ecg::nsrdb::paper_record().truncated(4000),
            ecg::nsrdb::record(1).truncated(6000),
            ecg::nsrdb::record(2).truncated(5000),
        ];
        let configs = [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        ];
        let reference =
            Evaluator::evaluate_records_with(&records, &configs, &EvalOptions::streaming(64));
        for lanes in [1usize, 2, 4] {
            assert_eq!(
                Evaluator::evaluate_records_with(
                    &records,
                    &configs,
                    &EvalOptions::batch().with_lanes(lanes)
                ),
                reference,
                "{lanes}-lane evaluation diverged from record-batched streaming"
            );
        }
    }

    /// The checkpoint/resume path: freezing, dropping, and thawing the
    /// session mid-record — including inside the learning window and at
    /// several later boundaries — leaves the report bit-identical to the
    /// uninterrupted batch evaluation, in both footprints.
    #[test]
    fn checkpointed_streaming_matches_batch_exactly() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded),
        ] {
            let batch = eval_batch(&ev, &config.with_footprint(Footprint::Retain));
            for checkpoints in [&[150usize, 2000, 4700] as &[usize], &[399], &[1]] {
                let report = ev
                    .evaluate_with(
                        &config,
                        &EvalOptions::streaming(20).with_checkpoints(checkpoints),
                    )
                    .expect("in-process checkpoint round-trip");
                assert_eq!(
                    report, batch,
                    "checkpointed report diverged for {config} at {checkpoints:?}"
                );
            }
        }
    }

    #[test]
    fn evaluation_counter_increments() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        assert_eq!(ev.evaluations(), 0);
        let _ = eval_batch(&ev, &PipelineConfig::exact());
        let _ = eval_batch(&ev, &PipelineConfig::least_energy([2, 0, 0, 0, 0]));
        assert_eq!(ev.evaluations(), 2);
    }

    #[test]
    fn approximation_reduces_psnr_and_energy_together() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        let mild = eval_batch(&ev, &PipelineConfig::least_energy([2, 2, 0, 0, 0]));
        let heavy = eval_batch(&ev, &PipelineConfig::least_energy([10, 10, 0, 0, 0]));
        assert!(mild.psnr_db > heavy.psnr_db, "PSNR should degrade with k");
        assert!(
            heavy.energy_reduction_calibrated > mild.energy_reduction_calibrated,
            "energy reduction should grow with k"
        );
        assert!(heavy.energy_reduction_module_sum > mild.energy_reduction_module_sum);
    }

    #[test]
    fn ssim_degrades_with_approximation() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        let mild = eval_batch(&ev, &PipelineConfig::least_energy([2, 2, 0, 0, 0]));
        let heavy = eval_batch(&ev, &PipelineConfig::least_energy([12, 12, 0, 0, 0]));
        assert!(mild.ssim > heavy.ssim);
        assert!(mild.ssim <= 1.0);
    }

    #[test]
    fn constraints_check_the_right_field() {
        let report = QualityReport {
            psnr_db: 16.0,
            ssim: 0.7,
            peak_accuracy: 0.99,
            ppv: 1.0,
            omitted_beats: 0,
            detected_beats: 99,
            reference_beats: 100,
            energy_reduction_module_sum: 2.0,
            energy_reduction_calibrated: 10.0,
        };
        assert!(QualityConstraint::MinPsnr(15.0).is_satisfied_by(&report));
        assert!(!QualityConstraint::MinPsnr(20.0).is_satisfied_by(&report));
        assert!(QualityConstraint::MinSsim(0.5).is_satisfied_by(&report));
        assert!(!QualityConstraint::MinSsim(0.8).is_satisfied_by(&report));
        assert!(QualityConstraint::MinPeakAccuracy(0.95).is_satisfied_by(&report));
        assert!(!QualityConstraint::MinPeakAccuracy(1.0).is_satisfied_by(&report));
    }

    #[test]
    fn preprocessing_reduction_ignores_signal_stages() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        let a = ev.preprocessing_energy_reduction(&PipelineConfig::least_energy([8, 8, 0, 0, 0]));
        let b = ev.preprocessing_energy_reduction(&PipelineConfig::least_energy([8, 8, 4, 8, 16]));
        assert!(
            (a - b).abs() < 1e-12,
            "DER/SQR/MWI leaked into Table 2 metric"
        );
        assert!(
            a > 10.0,
            "pre-processing reduction at (8,8) should be large"
        );
    }

    #[test]
    fn module_sum_reduction_of_exact_is_one() {
        assert!((module_sum_reduction(&PipelineConfig::exact()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_evaluation_matches_sequential_exactly() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        let configs: Vec<PipelineConfig> = [0u32, 2, 4, 6, 8, 10]
            .iter()
            .map(|k| PipelineConfig::least_energy([*k, *k, 0, 0, 0]))
            .collect();
        let sequential: Vec<QualityReport> = configs.iter().map(|c| eval_batch(&ev, c)).collect();
        let batch = ev.evaluate_batch(&configs);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(b, s, "config {i} diverged between batch and sequential");
        }
        assert_eq!(ev.evaluations(), 2 * configs.len() as u64);
    }

    #[test]
    fn across_records_matches_per_record_evaluators() {
        let records: Vec<EcgRecord> = vec![
            ecg::nsrdb::paper_record().truncated(4000),
            ecg::nsrdb::paper_record().truncated(6000),
        ];
        let configs = [
            PipelineConfig::least_energy([4, 4, 0, 0, 0]),
            PipelineConfig::exact(),
        ];
        let parallel = evaluate_across_records(&records, &configs);
        assert_eq!(parallel.len(), records.len());
        for (record, reports) in records.iter().zip(&parallel) {
            let evaluator = Evaluator::new(record);
            for (config, report) in configs.iter().zip(reports) {
                assert_eq!(*report, eval_batch(&evaluator, config));
            }
        }
    }
}
