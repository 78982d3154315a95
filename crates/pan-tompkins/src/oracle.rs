//! Test oracles: reference implementations production never runs.
//!
//! * [`ScalarDetector`] — the five public stage objects
//!   ([`crate::stages`]) driven one sample at a time into the decision
//!   tail (`DetectorTail`) every bank lane owns. [`crate::QrsDetector`],
//!   [`crate::StreamingQrsDetector`] and every [`crate::LaneBank`] lane run
//!   the SoA stage kernels; this keeps an implementation of the five
//!   stages that shares none of their kernel code (only the compiled stage
//!   programs and the decision tail), so equivalence tests and the `ext_*`
//!   gates have something independent to compare them with (and a
//!   per-sample speed to measure them against). Its results are
//!   bit-identical to theirs by contract: events, peaks, decisions, stage
//!   signals, and every operation/saturation/overflow counter.
//! * [`float_classify`] — the paper's decision logic transcribed in `f64`,
//!   as a batch pass over a whole MWI signal: the reference the integer
//!   decision kernel ([`crate::decision::FixedDecision`], run by
//!   [`crate::OnlineClassifier`]) is proven against. The MWI signal does
//!   not depend on the decision arithmetic, so comparing a run's decisions
//!   with `float_classify` over its retained MWI is the whole Fixed ≡ Float
//!   check.

use std::sync::Arc;

use crate::config::PipelineConfig;
use crate::detector::DetectionResult;
use crate::engine::DetectorEngine;
use crate::stages::{
    Derivative, HighPassFilter, LowPassFilter, MovingWindowIntegrator, Squarer, Stage,
};
use crate::streaming::{DetectorTail, StreamEvent};
use crate::threshold::{PeakClass, PeakDecision, ThresholdConfig};

/// One detector session on the scalar reference pipeline, with the push
/// and finish contract of [`crate::StreamingQrsDetector`].
#[derive(Debug, Clone)]
pub struct ScalarDetector {
    config: PipelineConfig,
    total_delay: usize,
    lpf: LowPassFilter,
    hpf: HighPassFilter,
    der: Derivative,
    sqr: Squarer,
    mwi: MovingWindowIntegrator,
    tail: DetectorTail,
}

impl ScalarDetector {
    /// A fresh session: compiles an engine for `config` and builds the
    /// stage objects over its programs.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        let engine = DetectorEngine::new(config);
        Self {
            config,
            total_delay: engine.total_delay(),
            lpf: LowPassFilter::from_program(Arc::clone(engine.lpf_program())),
            hpf: HighPassFilter::from_program(Arc::clone(engine.hpf_program())),
            der: Derivative::from_program(Arc::clone(engine.der_program())),
            sqr: Squarer::from_program(Arc::clone(engine.sqr_program())),
            mwi: MovingWindowIntegrator::from_program(Arc::clone(engine.mwi_program())),
            tail: DetectorTail::new(&config),
        }
    }

    /// Feeds a chunk of raw samples and returns the events that became
    /// final.
    pub fn push(&mut self, chunk: &[i32]) -> Vec<StreamEvent> {
        let shift = self.config.input_shift;
        for &x in chunk {
            let x = i64::from(x) << shift;
            let a = self.lpf.process(x);
            let b = self.hpf.process(a);
            let c = self.der.process(b);
            let d = self.sqr.process(c);
            let e = self.mwi.process(d);
            self.tail.ingest(a, b, c, d, e);
        }
        let mut events = Vec::new();
        self.tail
            .settle(false, self.config.max_misalignment(), &mut events);
        events
    }

    /// Ends the stream: the trailing events and the final result.
    #[must_use]
    pub fn finish(mut self) -> (Vec<StreamEvent>, DetectionResult) {
        let mut events = Vec::new();
        self.tail
            .finish(self.config.max_misalignment(), &mut events);
        let stages: [&dyn Stage; 5] = [&self.lpf, &self.hpf, &self.der, &self.sqr, &self.mwi];
        let result = self.tail.take_result(
            stages.map(|s| s.ops()),
            stages.map(|s| s.saturations()),
            stages.map(|s| s.add_overflows()),
            self.total_delay,
        );
        (events, result)
    }
}

/// Streams `samples` through a fresh [`ScalarDetector`] in
/// `chunk_size`-sample pushes and returns every event plus the final
/// result — the reference for [`crate::StreamingQrsDetector::detect_chunked`].
#[must_use]
pub fn detect_chunked(
    config: PipelineConfig,
    samples: &[i32],
    chunk_size: usize,
) -> (Vec<StreamEvent>, DetectionResult) {
    let mut detector = ScalarDetector::new(config);
    let mut events = Vec::new();
    for chunk in samples.chunks(chunk_size.max(1)) {
        events.extend(detector.push(chunk));
    }
    let (trailing, result) = detector.finish();
    events.extend(trailing);
    (events, result)
}

/// Classifies every candidate peak of an integrated (MWI-output) signal
/// with the paper's `f64` formulas — SPK/NPK seeded from the learning
/// window, `THRESHOLD1 = NPK + 0.25·(SPK − NPK)`, refractory blanking,
/// slope-based T-wave rejection over `slope_window` differences, and RR
/// search-back at half threshold — and returns the decisions sorted by
/// index (stable, so a search-back recovery follows the noise decision it
/// overrides, as in [`crate::DetectionResult::decisions`]).
///
/// The one change from the original transcription is the seed: the mean
/// converts the exact `i128` learning-window sum instead of accumulating
/// a running `f64`, which agrees with it whenever every prefix sum is
/// exactly representable and is the more accurate one otherwise.
#[must_use]
pub fn float_classify(config: &ThresholdConfig, signal: &[i64]) -> Vec<PeakDecision> {
    let c = config;
    if signal.len() < c.peak_spacing * 2 + 1 {
        return Vec::new();
    }
    let candidates = local_maxima(signal, c.peak_spacing);

    let learn = &signal[..c.learning.min(signal.len())];
    let max0 = learn.iter().copied().max().unwrap_or(0).max(1);
    let learn_sum: i128 = learn.iter().map(|&v| i128::from(v)).sum();
    let mean0 = learn_sum as f64 / learn.len().max(1) as f64;
    let mut spk = 0.25 * max0 as f64;
    let mut npk = 0.5 * mean0;
    let threshold1 = |spk: f64, npk: f64| npk + 0.25 * (spk - npk);
    // 166.0 / 100.0 is bit-identical to the historical 1.66 literal.
    let search_back_factor = c.search_back_num as f64 / c.search_back_den as f64;

    let mut beats = Beats {
        signal,
        slope_window: c.slope_window,
        decisions: Vec::new(),
        qrs_indices: Vec::new(),
        qrs_slopes: Vec::new(),
        rr_history: Vec::new(),
    };
    for &(idx, amp) in &candidates {
        if idx < c.warmup {
            continue;
        }
        let last_qrs = beats.qrs_indices.last().copied();
        if let Some(lq) = last_qrs {
            if idx - lq < c.refractory {
                continue;
            }
        }
        if let (Some(lq), false) = (last_qrs, beats.rr_history.is_empty()) {
            let rr = &beats.rr_history;
            let rr_avg = rr.iter().sum::<usize>() as f64 / rr.len() as f64;
            if (idx - lq) as f64 > search_back_factor * rr_avg {
                let miss = candidates
                    .iter()
                    .filter(|(i, _)| *i > lq + c.refractory && *i + c.refractory < idx)
                    .max_by_key(|(_, a)| *a)
                    .copied();
                if let Some((mi, ma)) = miss {
                    if (ma as f64) > 0.5 * threshold1(spk, npk) {
                        spk = 0.25 * ma as f64 + 0.75 * spk;
                        beats.accept(mi, ma, PeakClass::SearchBack);
                    }
                }
            }
        }
        if let Some(&lq) = beats.qrs_indices.last() {
            if idx - lq < c.t_wave_window {
                let slope_prev = beats.qrs_slopes.last().copied().unwrap_or(0);
                if beats.max_slope(idx) < slope_prev / 2 {
                    npk = 0.125 * amp as f64 + 0.875 * npk;
                    beats.record(idx, amp, PeakClass::TWave);
                    continue;
                }
            }
        }
        if (amp as f64) > threshold1(spk, npk) {
            spk = 0.125 * amp as f64 + 0.875 * spk;
            beats.accept(idx, amp, PeakClass::Qrs);
        } else {
            npk = 0.125 * amp as f64 + 0.875 * npk;
            beats.record(idx, amp, PeakClass::Noise);
        }
    }
    let mut decisions = beats.decisions;
    decisions.sort_by_key(|d| d.index);
    decisions
}

/// The bookkeeping of [`float_classify`]: decisions in classification
/// order and the accepted-beat histories the next decisions read.
struct Beats<'a> {
    signal: &'a [i64],
    slope_window: usize,
    decisions: Vec<PeakDecision>,
    qrs_indices: Vec<usize>,
    qrs_slopes: Vec<i64>,
    rr_history: Vec<usize>,
}

impl Beats<'_> {
    /// Maximal first difference over the `slope_window` differences
    /// leading into `idx`.
    fn max_slope(&self, idx: usize) -> i64 {
        let lo = idx.saturating_sub(self.slope_window);
        self.signal[lo..=idx]
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Records an accepted beat: the RR interval (last 8 kept), the index
    /// in sorted position (search-back inserts out of order), its slope.
    fn accept(&mut self, idx: usize, amplitude: i64, class: PeakClass) {
        if let Some(&prev) = self.qrs_indices.last() {
            if idx > prev {
                self.rr_history.push(idx - prev);
                if self.rr_history.len() > 8 {
                    self.rr_history.remove(0);
                }
            }
        }
        let pos = self.qrs_indices.partition_point(|&i| i < idx);
        self.qrs_indices.insert(pos, idx);
        self.qrs_slopes.push(self.max_slope(idx));
        self.record(idx, amplitude, class);
    }

    /// Appends one decision in classification order.
    fn record(&mut self, index: usize, amplitude: i64, class: PeakClass) {
        self.decisions.push(PeakDecision {
            index,
            amplitude,
            class,
        });
    }
}

/// Local maxima (`s[i] ≥ s[i−1]` and `s[i] > s[i+1]`) at least `spacing`
/// apart, the taller of two closer ones kept, as `(index, amplitude)`.
pub(crate) fn local_maxima(signal: &[i64], spacing: usize) -> Vec<(usize, i64)> {
    let mut peaks: Vec<(usize, i64)> = Vec::new();
    for i in 1..signal.len().saturating_sub(1) {
        if signal[i] >= signal[i - 1] && signal[i] > signal[i + 1] {
            let amp = signal[i];
            match peaks.last_mut() {
                Some((pi, pa)) if i - *pi < spacing => {
                    if amp > *pa {
                        (*pi, *pa) = (i, amp);
                    }
                }
                _ => peaks.push((i, amp)),
            }
        }
    }
    peaks
}
