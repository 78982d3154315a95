//! The paper's two-stage quality evaluation (§4): a *signal* gate
//! (PSNR/SSIM on the pre-processed, i.e. high-pass-filtered, signal) and an
//! *application* gate (QRS peak-detection accuracy on the final output).
//!
//! Every report comes from one path: the record streams through a
//! [`Footprint::Bounded`] [`StreamingQrsDetector`] whose HPF output is
//! tapped, and the event stream plus the tap are scored against the
//! accurate run's. That is the memory-bounded shape of a wearable node, and
//! it needs no retained signals: the events and the tap of a bounded run
//! equal a retaining run's.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ecg::EcgRecord;
use hwmodel::{CalibratedModel, StageCost};
use pan_tompkins::{
    Footprint, PipelineConfig, SnapshotError, StageKind, StreamEvent, StreamingQrsDetector,
};
use quality::{psnr, PeakMatcher, Ssim};

use crate::parallel::parallel_map;

/// Samples excluded at the start of a record when scoring (the detector's
/// 2 s learning phase).
pub const SCORE_START: usize = 400;

/// Samples excluded at the end of a record when scoring (pipeline group
/// delay pushes the last beat's response off the record).
pub const SCORE_TAIL: usize = 60;

/// The scored samples of a `len`-sample record: past the learning phase,
/// short of the tail.
fn scored(len: usize) -> Range<usize> {
    SCORE_START..len.saturating_sub(SCORE_TAIL)
}

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

/// Options for [`Evaluator::evaluate_with`]: how many samples each push
/// carries, and where the session is frozen and thawed. They choose how the
/// stream is cut, never the report.
///
/// ```
/// use xbiosip::quality_eval::EvalOptions;
///
/// let default = EvalOptions::batch();
/// assert_eq!(default.chunk_size(), 4096);
/// let afe = EvalOptions::streaming(20);
/// let persisted = EvalOptions::streaming(64).with_checkpoints(&[1000, 3000]);
/// assert_eq!(persisted.checkpoints(), [1000, 3000]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    chunk_size: usize,
    checkpoints: Vec<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            chunk_size: 4096,
            checkpoints: Vec::new(),
        }
    }
}

impl EvalOptions {
    /// The default options: 4 096-sample pushes, no checkpoints.
    #[must_use]
    pub fn batch() -> Self {
        Self::default()
    }

    /// Pushes of `chunk_size` samples (clamped to at least 1), no
    /// checkpoints.
    #[must_use]
    pub fn streaming(chunk_size: usize) -> Self {
        Self {
            chunk_size: chunk_size.max(1),
            ..Self::default()
        }
    }

    /// Interrupts the run at each checkpoint (sample offsets, applied at
    /// the nearest push boundary at or after the offset): the live session
    /// is serialized with [`StreamingQrsDetector::snapshot`], dropped, and
    /// thawed from the blob before the stream continues.
    #[must_use]
    pub fn with_checkpoints(mut self, checkpoints: &[usize]) -> Self {
        self.checkpoints = checkpoints.to_vec();
        self
    }

    /// The push size.
    #[must_use]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The snapshot/restore interruption points.
    #[must_use]
    pub fn checkpoints(&self) -> &[usize] {
        &self.checkpoints
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
        let run = Run::stream(record.samples(), &reference, &EvalOptions::batch())
            .expect("a run without checkpoints is infallible");
        let scored = scored(record.len());
        Self {
            record: record.clone(),
            reference_hpf: run.hpf.iter().map(|v| *v as f64).collect(),
            reference_beats: record
                .r_peaks()
                .iter()
                .copied()
                .filter(|p| scored.contains(p))
                .collect(),
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

    /// Streams the record through the pipeline under `config` in
    /// [`EvalOptions::chunk_size`]-sample pushes, freezing and thawing the
    /// session at each of [`EvalOptions::checkpoints`], and scores the run
    /// — the one evaluation path. The detector runs with a
    /// [`Footprint::Bounded`] footprint whatever `config` asks for: the
    /// report reads only the event stream and the HPF tap, which are the
    /// same under either footprint and for every push size.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] surfaced by a checkpoint round-trip. Runs
    /// without checkpoints are infallible (none occur for a live
    /// in-process session either; checkpoints exist so callers exercise
    /// exactly what a persisted deployment would run).
    pub fn evaluate_with(
        &self,
        config: &PipelineConfig,
        options: &EvalOptions,
    ) -> Result<QualityReport, SnapshotError> {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let run = Run::stream(self.record.samples(), config, options)?;
        Ok(self.score(config, &run))
    }

    /// Scores one run against the cached references: PSNR and SSIM of its
    /// HPF tap past the filter warm-up, peak matching over the scored
    /// region, and the configuration's energy reductions.
    fn score(&self, config: &PipelineConfig, run: &Run) -> QualityReport {
        let start = SCORE_START.min(self.reference_hpf.len());
        let approx_hpf: Vec<f64> = run.hpf[start..].iter().map(|v| *v as f64).collect();
        let reference = &self.reference_hpf[start..];
        let psnr_db = if reference.is_empty() {
            f64::INFINITY
        } else {
            psnr::psnr(reference, &approx_hpf)
        };
        let ssim = if reference.len() >= self.ssim.window() {
            self.ssim.mean(reference, &approx_hpf)
        } else {
            1.0
        };

        let scored = scored(self.record.len());
        let detected: Vec<usize> = run
            .r_peaks
            .iter()
            .copied()
            .filter(|p| scored.contains(p))
            .collect();
        let m = self.matcher.match_peaks(&self.reference_beats, &detected);

        QualityReport {
            psnr_db,
            ssim,
            peak_accuracy: m.detection_accuracy(),
            ppv: m.positive_predictivity(),
            omitted_beats: run.omitted,
            detected_beats: detected.len(),
            reference_beats: self.reference_beats.len(),
            energy_reduction_module_sum: module_sum_reduction(config),
            energy_reduction_calibrated: self.calibrated.end_to_end_reduction(config.lsb_vector()),
        }
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

/// What the two gates score of one design's run over a record.
struct Run {
    /// The HPF output, one value per sample.
    hpf: Vec<i64>,
    /// Confirmed beats, sorted and deduplicated as
    /// [`pan_tompkins::DetectionResult::r_peaks`] builds them.
    r_peaks: Vec<usize>,
    /// Beats dropped by the HPF↔MWI alignment check.
    omitted: usize,
}

impl Run {
    /// The evaluation loop: streams `samples` through a
    /// [`Footprint::Bounded`] detector under `config` in
    /// `options.chunk_size`-sample pushes with the HPF tapped, freezing,
    /// dropping and thawing the session at each of `options.checkpoints`.
    fn stream(
        samples: &[i32],
        config: &PipelineConfig,
        options: &EvalOptions,
    ) -> Result<Self, SnapshotError> {
        let mut detector = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
        let mut pending = options.checkpoints.clone();
        let mut run = Self {
            hpf: Vec::with_capacity(samples.len()),
            r_peaks: Vec::new(),
            omitted: 0,
        };
        let mut fed = 0usize;
        for chunk in samples.chunks(options.chunk_size) {
            let events = detector.push_tapped(chunk, &mut run.hpf);
            run.absorb(events);
            fed += chunk.len();
            if pending.iter().any(|&at| at <= fed) {
                pending.retain(|&at| at > fed);
                let blob = detector.snapshot()?;
                let engine = Arc::clone(detector.engine());
                drop(detector);
                detector = StreamingQrsDetector::restore(engine, &blob)?;
            }
        }
        let (trailing, _slim) = detector.finish();
        run.absorb(trailing);
        run.r_peaks.sort_unstable();
        run.r_peaks.dedup();
        Ok(run)
    }

    fn absorb(&mut self, events: Vec<StreamEvent>) {
        for event in events {
            match event {
                StreamEvent::RPeak { raw, .. } => self.r_peaks.push(raw),
                StreamEvent::Omitted(_) => self.omitted += 1,
            }
        }
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
    use pan_tompkins::{DetectionResult, QrsDetector};

    use super::*;

    fn short_record() -> EcgRecord {
        ecg::nsrdb::paper_record().truncated(6000)
    }

    fn eval_batch(ev: &Evaluator, config: &PipelineConfig) -> QualityReport {
        ev.evaluate_with(config, &EvalOptions::batch())
            .expect("non-checkpointed evaluation is infallible")
    }

    /// The HPF output of a retaining batch run, as the gates compare it.
    fn retained_hpf(result: &DetectionResult) -> Vec<f64> {
        result
            .expect_signals()
            .hpf
            .iter()
            .map(|v| *v as f64)
            .collect()
    }

    /// The report `config` must get on `record`, built without the
    /// evaluator: retaining batch runs of `config` and of the exact
    /// pipeline, scored by calling the metrics and energy models directly.
    /// The record is long enough that every gate sees a full window.
    fn oracle_report(record: &EcgRecord, config: &PipelineConfig) -> QualityReport {
        let exact = QrsDetector::new(PipelineConfig::exact()).detect(record.samples());
        let run =
            QrsDetector::new(config.with_footprint(Footprint::Retain)).detect(record.samples());
        let reference = &retained_hpf(&exact)[SCORE_START..];
        let approx = &retained_hpf(&run)[SCORE_START..];
        let end = record.len() - SCORE_TAIL;
        let in_scored = |p: &usize| *p >= SCORE_START && *p < end;
        let beats: Vec<usize> = record.r_peaks().iter().copied().filter(in_scored).collect();
        let detected: Vec<usize> = run.r_peaks().iter().copied().filter(in_scored).collect();
        let matched = PeakMatcher::default().match_peaks(&beats, &detected);
        QualityReport {
            psnr_db: psnr::psnr(reference, approx),
            ssim: Ssim::default().mean(reference, approx),
            peak_accuracy: matched.detection_accuracy(),
            ppv: matched.positive_predictivity(),
            omitted_beats: run.omitted().len(),
            detected_beats: detected.len(),
            reference_beats: beats.len(),
            energy_reduction_module_sum: module_sum_reduction(config),
            energy_reduction_calibrated: CalibratedModel::paper()
                .end_to_end_reduction(config.lsb_vector()),
        }
    }

    /// Fig 13's edge design: it drops beats at the HPF↔MWI alignment check.
    fn edge_design() -> PipelineConfig {
        PipelineConfig::least_energy([14, 14, 4, 8, 16]).with_max_misalignment(8)
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

    /// The one path against the independent oracle: for every push size
    /// and whatever footprint the configuration asks for, the bounded,
    /// tapped stream scores exactly what retaining batch runs score —
    /// including a design that omits beats.
    #[test]
    fn evaluation_matches_retaining_oracle() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        let exact = QrsDetector::new(PipelineConfig::exact()).detect(record.samples());
        assert_eq!(
            ev.reference_hpf,
            retained_hpf(&exact),
            "cached reference HPF diverged from the retaining exact run"
        );
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Retain),
            PipelineConfig::least_energy([4, 4, 2, 4, 8]).with_footprint(Footprint::Bounded),
            edge_design(),
        ] {
            let want = oracle_report(&record, &config);
            assert!(
                config != edge_design() || want.omitted_beats > 0,
                "the edge design no longer omits beats, so omissions go unchecked"
            );
            for chunk in [1usize, 20, 4096] {
                let got = ev
                    .evaluate_with(&config, &EvalOptions::streaming(chunk))
                    .expect("non-checkpointed evaluation is infallible");
                assert_eq!(got, want, "report diverged for {config} at chunk {chunk}");
            }
        }
    }

    /// The checkpoint/resume path: freezing, dropping, and thawing the
    /// session mid-record — including inside the learning window and at
    /// several later boundaries — leaves the report equal to the oracle's,
    /// whatever footprint the configuration asks for.
    #[test]
    fn checkpointed_streaming_matches_batch_exactly() {
        let record = short_record();
        let ev = Evaluator::new(&record);
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded),
        ] {
            let want = oracle_report(&record, &config);
            for checkpoints in [&[150usize, 2000, 4700] as &[usize], &[399], &[1]] {
                let report = ev
                    .evaluate_with(
                        &config,
                        &EvalOptions::streaming(20).with_checkpoints(checkpoints),
                    )
                    .expect("in-process checkpoint round-trip");
                assert_eq!(
                    report, want,
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
