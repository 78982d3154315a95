//! Test oracles: reference implementations production never runs.
//!
//! * [`ScalarDetector`] — the five stages computed one sample at a time
//!   (a delay-line FIR per filter stage, the generic squarer, the MWI's
//!   adder chain) and driven into the decision tail every bank lane owns.
//!   [`crate::QrsDetector`], [`crate::StreamingQrsDetector`] and every
//!   [`crate::LaneBank`] lane run the SoA stage kernels; this keeps an
//!   implementation of the five stages that shares none of their kernel
//!   code (only the compiled stage programs and the decision tail), so
//!   equivalence tests and the `ext_*` gates have something independent to
//!   compare them with (and a per-sample speed to measure them against).
//!   Its results are bit-identical to theirs by contract: events, peaks,
//!   decisions, stage signals, and every operation/saturation/overflow
//!   counter.
//! * [`float_classify`] — the paper's decision logic transcribed in `f64`,
//!   as a batch pass over a whole MWI signal: the reference the integer
//!   decision kernel ([`crate::decision::FixedDecision`], run by
//!   [`crate::OnlineClassifier`]) is proven against. The MWI signal does
//!   not depend on the decision arithmetic, so comparing a run's decisions
//!   with `float_classify` over its retained MWI is the whole Fixed ≡ Float
//!   check.

use std::sync::Arc;

use approx_arith::TapMultiplier;

use crate::arith::{div_round, sum_overflows, ArithCounters, ArithProgram};
use crate::config::PipelineConfig;
use crate::detector::DetectionResult;
use crate::engine::DetectorEngine;
use crate::fir::FirProgram;
use crate::stages::mwi::WINDOW;
use crate::streaming::{DetectorTail, StreamEvent};
use crate::threshold::{PeakClass, PeakDecision, ThresholdConfig};

/// A stage's arithmetic as the scalar reference runs it: the program's
/// adder and multiplier blocks, every operation counted.
#[derive(Debug, Clone)]
pub(crate) struct Counted {
    program: Arc<ArithProgram>,
    pub(crate) counters: ArithCounters,
}

impl Counted {
    pub(crate) fn new(program: Arc<ArithProgram>) -> Self {
        Self {
            program,
            counters: ArithCounters::default(),
        }
    }

    /// Adds through the adder block, wrapping the bus; an exact sum the
    /// bus cannot hold counts an overflow.
    #[inline]
    pub(crate) fn add(&mut self, a: i64, b: i64) -> i64 {
        self.counters.ops.count_add();
        self.counters.add_overflows += u64::from(sum_overflows(a, b, self.program.adder_width()));
        self.program.adder().add(a, b)
    }

    /// Multiplies `a` by a compiled coefficient. The operand saturates into
    /// the signed datapath range first; each clamped operand, the
    /// coefficient's included, counts one saturation.
    #[inline]
    pub(crate) fn mul_tap(&mut self, a: i64, tap: &TapMultiplier) -> i64 {
        self.counters.ops.count_mul();
        let limit = 1i64 << (tap.width() - 1);
        let ca = a.clamp(-limit, limit - 1);
        self.counters.mul_saturations += u64::from(ca != a) + u64::from(tap.coeff_saturates());
        tap.mul_clamped(ca)
    }

    /// Squares through the generic compiled multiply: the clamped operand
    /// feeds both inputs, so a clamp counts two saturations.
    pub(crate) fn square(&mut self, x: i64) -> i64 {
        self.counters.ops.count_mul();
        let limit = 1i64 << (self.program.mul_width() - 1);
        let cx = x.clamp(-limit, limit - 1);
        self.counters.mul_saturations += 2 * u64::from(cx != x);
        self.program.multiplier().mul_signed_clamped(cx, cx)
    }
}

/// One FIR stage on the scalar reference: a circular delay line walked
/// newest first, one counted product per nonzero tap chained through the
/// stage adder, the gain divided out exactly.
#[derive(Debug, Clone)]
pub struct FirFilter {
    program: Arc<FirProgram>,
    arith: Counted,
    delay_line: Vec<i64>,
    cursor: usize,
}

impl FirFilter {
    /// A filter over a compiled program: zeroed delay line and counters.
    #[must_use]
    pub fn from_program(program: Arc<FirProgram>) -> Self {
        Self {
            arith: Counted::new(Arc::clone(program.arith())),
            delay_line: vec![0; program.taps().len()],
            cursor: 0,
            program,
        }
    }

    /// Feeds one input sample and returns the filter output at this step.
    pub fn process(&mut self, x: i64) -> i64 {
        // Circular delay line: cursor points at the slot of the newest
        // sample.
        let len = self.delay_line.len();
        self.cursor = if self.cursor == 0 {
            len - 1
        } else {
            self.cursor - 1
        };
        self.delay_line[self.cursor] = x;

        // Walk the delay line with a wrapping index (a conditional reset is
        // markedly cheaper than a modulo per tap in this hot loop).
        let mut idx = self.cursor;
        let mut acc: Option<i64> = None;
        for tap in self.program.tap_mults() {
            let sample = self.delay_line[idx];
            idx += 1;
            if idx == len {
                idx = 0;
            }
            // Zero taps have no multiplier.
            let Some(tap) = tap else {
                continue;
            };
            let product = self.arith.mul_tap(sample, tap);
            acc = Some(match acc {
                None => product,
                Some(sum) => self.arith.add(sum, product),
            });
        }
        self.program.rescale(acc.unwrap_or(0))
    }

    /// Filters a whole signal, returning one output per input.
    pub fn process_signal(&mut self, signal: &[i64]) -> Vec<i64> {
        signal.iter().map(|x| self.process(*x)).collect()
    }

    /// The activity counters so far.
    pub(crate) fn counters(&self) -> ArithCounters {
        self.arith.counters
    }
}

/// The moving-window integrator on the scalar reference: the window's
/// mean through the stage adder.
#[derive(Debug, Clone)]
pub(crate) struct Mwi {
    arith: Counted,
    window: Vec<i64>,
    cursor: usize,
}

impl Mwi {
    pub(crate) fn new(program: Arc<ArithProgram>) -> Self {
        Self {
            arith: Counted::new(program),
            window: vec![0; WINDOW],
            cursor: 0,
        }
    }

    /// Feeds one input sample and returns the window mean at this step.
    pub(crate) fn process(&mut self, x: i64) -> i64 {
        self.window[self.cursor] = x;
        self.cursor = (self.cursor + 1) % WINDOW;
        // The RTL sums the window with a 29-adder chain every cycle; a
        // running-sum shortcut would change which approximate additions
        // happen, so we mirror the netlist faithfully.
        let mut acc = self.window[0];
        for &v in &self.window[1..] {
            acc = self.arith.add(acc, v);
        }
        div_round(acc, WINDOW as i64)
    }

    /// The activity counters so far.
    pub(crate) fn counters(&self) -> ArithCounters {
        self.arith.counters
    }
}

/// One detector session on the scalar reference pipeline, with the push
/// and finish contract of [`crate::StreamingQrsDetector`].
#[derive(Debug, Clone)]
pub struct ScalarDetector {
    config: PipelineConfig,
    total_delay: usize,
    lpf: FirFilter,
    hpf: FirFilter,
    der: FirFilter,
    sqr: Counted,
    mwi: Mwi,
    tail: DetectorTail,
}

impl ScalarDetector {
    /// A fresh session: compiles an engine for `config` and builds the
    /// five stages over its programs.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        let engine = DetectorEngine::new(config);
        Self {
            config,
            total_delay: engine.total_delay(),
            lpf: FirFilter::from_program(Arc::clone(engine.lpf_program())),
            hpf: FirFilter::from_program(Arc::clone(engine.hpf_program())),
            der: FirFilter::from_program(Arc::clone(engine.der_program())),
            sqr: Counted::new(Arc::clone(engine.sqr_program())),
            mwi: Mwi::new(Arc::clone(engine.mwi_program())),
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
            let d = self.sqr.square(c);
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
        let counters = [
            self.lpf.counters(),
            self.hpf.counters(),
            self.der.counters(),
            self.sqr.counters,
            self.mwi.counters(),
        ];
        let result = self.tail.take_result(
            counters.map(|c| c.ops),
            counters.map(|c| c.mul_saturations),
            counters.map(|c| c.add_overflows),
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
