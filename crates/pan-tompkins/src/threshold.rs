//! Adaptive thresholding over the integrated signal — the decision logic of
//! Pan & Tompkins (1985).
//!
//! The detector keeps running estimates of the signal-peak level (`SPK`) and
//! noise-peak level (`NPK`), classifies each candidate peak against
//! `THRESHOLD1 = NPK + 0.25·(SPK − NPK)`, blanks a 200 ms refractory period,
//! rejects T waves by slope within 360 ms of the previous QRS, and performs
//! RR-interval *search-back* at half threshold when a beat seems missed.
//!
//! The decision logic itself is *online*: every classification depends only
//! on already-seen samples and already-classified candidate peaks (the seed
//! thresholds need the learning window, a candidate needs `peak_spacing`
//! trailing samples to become final, and search-back revisits only *past*
//! candidates). [`OnlineClassifier`] is that incremental form, and the only
//! one: batch detection pushes the whole MWI signal through one too. Its
//! SPK/NPK arithmetic is the integer [`FixedDecision`] kernel; the `f64`
//! batch transcription of the paper it is checked against is
//! [`crate::oracle::float_classify`].

use std::fmt;

use crate::config::{Footprint, PipelineConfig};
use crate::decision::FixedDecision;
use crate::snapshot::{Reader, SnapshotError, Writer};

/// Detector timing and adaptation parameters (defaults follow the original
/// paper at 200 Hz).
///
/// All window fields are *sample counts*; construct via
/// [`ThresholdConfig::for_fs`] so they stay consistent with the sampling
/// rate — a hand-rolled literal that changes `fs` without rescaling the
/// windows silently runs the wrong timing (the bug `for_fs` exists to
/// close).
// xanalyze: begin-allow(float) — construction-time only: `fs` and the
// ms→samples rescaling in `for_fs` run once when a config is built, never
// inside `OnlineClassifier::push`; every per-sample decision is integer
// (DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdConfig {
    /// Sampling rate, Hz — the rate the sample-count fields below were
    /// derived for.
    pub fs: f64,
    /// Refractory period in samples (200 ms: a QRS cannot recur sooner).
    pub refractory: usize,
    /// T-wave discrimination window in samples (360 ms).
    pub t_wave_window: usize,
    /// Learning period in samples (2 s) used to initialise SPK/NPK.
    pub learning: usize,
    /// Numerator of the search-back factor as an exact rational (166/100 —
    /// search-back triggers when the current RR exceeds this multiple of
    /// the running average RR, the paper's 166 %). The classifier tests
    /// `gap · den · len > num · Σrr`, so no float ever enters the RR
    /// decision; the `f64` reference ([`crate::oracle::float_classify`])
    /// derives its factor from the same rational (`166.0 / 100.0` is
    /// bit-identical to the historical `1.66` literal), so the two can
    /// never be configured to test different boundaries.
    pub search_back_num: u64,
    /// Denominator of the rational search-back factor (must be non-zero).
    pub search_back_den: u64,
    /// First differences in the maximal-slope proxy used for T-wave
    /// discrimination (40 ms of signal leading into a peak; 8 at 200 Hz).
    /// Sizes the classifier's sample ring, so it rescales with `fs` like
    /// every other window.
    pub slope_window: usize,
    /// Minimum distance between candidate peaks in samples.
    pub peak_spacing: usize,
    /// Samples to blank at the start while the filter delay lines prime
    /// (the pipeline's power-on transient would otherwise fire a false
    /// detection).
    pub warmup: usize,
}

impl ThresholdConfig {
    /// Derives every window from the paper's millisecond durations at the
    /// given sampling rate: 200 ms refractory, 360 ms T-wave window, 2 s
    /// learning, 100 ms peak spacing, 400 ms warm-up (rounded to the
    /// nearest sample). `for_fs(200.0)` reproduces the original 200 Hz
    /// constants exactly; `for_fs(360.0)` is the MIT-BIH rate.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not a positive finite rate.
    #[must_use]
    pub fn for_fs(fs: f64) -> Self {
        assert!(fs.is_finite() && fs > 0.0, "fs must be a positive rate");
        let samples = |ms: f64| (ms * fs / 1000.0).round() as usize;
        Self {
            fs,
            refractory: samples(200.0),
            t_wave_window: samples(360.0),
            learning: samples(2000.0),
            search_back_num: 166,
            search_back_den: 100,
            slope_window: samples(40.0),
            peak_spacing: samples(100.0),
            warmup: samples(400.0),
        }
    }
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        Self::for_fs(200.0)
    }
}
// xanalyze: end-allow(float)

// `fs` is an `f64`, so `Eq`/`Hash` cannot be derived. [`ThresholdConfig::
// for_fs`] (the only constructor) rejects non-finite rates, so no NaN can
// reach the derived `PartialEq`, and bitwise hashing of `fs` is consistent
// with it: equal configs hash equally. This is what lets the config embed
// in the `Eq + Hash` [`PipelineConfig`].
impl Eq for ThresholdConfig {}

impl std::hash::Hash for ThresholdConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.fs.to_bits().hash(state);
        self.refractory.hash(state);
        self.t_wave_window.hash(state);
        self.learning.hash(state);
        self.search_back_num.hash(state);
        self.search_back_den.hash(state);
        self.slope_window.hash(state);
        self.peak_spacing.hash(state);
        self.warmup.hash(state);
    }
}

/// Why a candidate peak was classified the way it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakClass {
    /// Crossed THRESHOLD1 — a QRS complex.
    Qrs,
    /// Recovered by RR search-back at THRESHOLD2.
    SearchBack,
    /// Below threshold — noise.
    Noise,
    /// Inside the T-wave window with a shallow slope.
    TWave,
}

/// One classified candidate peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakDecision {
    /// Sample index in the analysed signal.
    pub index: usize,
    /// Peak amplitude.
    pub amplitude: i64,
    /// Classification outcome.
    pub class: PeakClass,
}

impl fmt::Display for PeakDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{} ({})", self.class, self.index, self.amplitude)
    }
}

/// Trailing samples the online classifier must retain for a slope window
/// of `w` first differences: the `w + 1` samples of
/// [`OnlineClassifier::slope_at`] plus the one-sample local-maximum
/// lookahead — never less than the 3 samples the local-maximum scan
/// itself reads, rounded up to a power of two so the ring index is a
/// mask rather than a division (16 for the default 200 Hz
/// configuration).
fn ring_len(slope_window: usize) -> usize {
    (slope_window + 2).max(3).next_power_of_two()
}

/// A candidate peak with its precomputed slope. The samples around a
/// candidate leave the retention window long before classification, so the
/// slope proxy is frozen at detection time — over exactly the window the
/// batch path would read.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    index: usize,
    amplitude: i64,
    slope: i64,
}

/// The incremental (push-based) adaptive-threshold classifier.
///
/// Feed samples with [`OnlineClassifier::push`]; decisions are appended to
/// the caller's buffer as soon as they are final, with bounded latency:
///
/// * nothing is emitted before `max(learning, 2·peak_spacing + 1)` samples
///   have been seen — the SPK/NPK seed needs the learning window, and the
///   batch path classifies nothing on shorter signals;
/// * past that point, the decision for a candidate peak at index `i` is
///   emitted no later than right after sample `i + peak_spacing + 1`, the
///   first sample proving no taller peak can merge into the candidate;
/// * `SearchBack` recoveries are the algorithm's inherent exception: a
///   missed beat is only *discovered* while classifying the next beat, so
///   their latency is one RR interval rather than a constant.
///
/// Decisions are emitted in classification order, which is the batch
/// pre-sort order: collecting them and sorting by index (stably) gives the
/// batch decision list, [`crate::DetectionResult::decisions`]. Memory: a
/// slope-window-sized
/// sample ring (16 samples at 200 Hz: slope window + lookahead,
/// rounded to a power of two) plus the candidate-peak list
/// (search-back may revisit any inter-beat candidate, which is also why
/// the batch path keeps them all).
///
/// # Example
///
/// ```
/// use pan_tompkins::{OnlineClassifier, ThresholdConfig};
///
/// let mut mwi = vec![10i64; 2000];
/// for beat in 0..12 {
///     let at = 100 + beat * 160;
///     for (offset, slot) in mwi[at..at + 12].iter_mut().enumerate() {
///         *slot = 2000 - 120 * (offset as i64 - 6).abs();
///     }
/// }
/// let mut online = OnlineClassifier::new(ThresholdConfig::default());
/// let mut decisions = Vec::new();
/// for &x in &mwi {
///     online.push(x, &mut decisions);
/// }
/// online.finish(&mut decisions);
/// assert_eq!(decisions.len(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineClassifier {
    config: ThresholdConfig,
    /// Memory-retention policy. Under [`Footprint::Bounded`] the candidate
    /// list is pruned (see [`OnlineClassifier::prune_dead_candidates`]) and
    /// the QRS bookkeeping keeps only its most recent entry — decisions are
    /// bit-for-bit identical either way.
    retention: Footprint,
    /// Samples consumed so far.
    n: usize,
    /// Ring of the last [`ring_len`] samples (`recent[j % len]` holds
    /// sample `j` for `j ≥ n − len`), sized for the configured slope
    /// window at construction.
    recent: Vec<i64>,
    /// Learning-window statistics (first `learning` samples). The sum is
    /// an exact `i128` — `usize::MAX` samples of `i64` cannot overflow it,
    /// so the seed mean never loses a bit no matter how large the window
    /// amplitudes get.
    learn_len: usize,
    learn_max: i64,
    learn_sum: i128,
    /// Running SPK/NPK decision state, valid once `seeded`.
    kernel: FixedDecision,
    seeded: bool,
    /// Finalized candidate peaks, in index order.
    candidates: Vec<Candidate>,
    /// The newest candidate, still replaceable by a taller peak within
    /// `peak_spacing` samples.
    pending: Option<Candidate>,
    /// Position of the first unclassified entry in `candidates`.
    next_unclassified: usize,
    qrs_indices: Vec<usize>,
    qrs_slopes: Vec<i64>,
    rr_history: Vec<usize>,
    finished: bool,
}

impl OnlineClassifier {
    /// Creates an incremental classifier with the given parameters
    /// (retaining every candidate, like the batch path).
    #[must_use]
    pub fn new(config: ThresholdConfig) -> Self {
        Self::build(config, Footprint::Retain)
    }

    /// Creates an incremental classifier from a pipeline configuration —
    /// threshold timing ([`PipelineConfig::with_threshold`]) and retention
    /// policy ([`PipelineConfig::with_footprint`]) are both read from the
    /// one config.
    ///
    /// Under [`Footprint::Bounded`], candidate peaks are dropped as soon as
    /// no future search-back can revisit them and the accepted-QRS
    /// bookkeeping keeps only its latest entry, so the live state is
    /// bounded by the longest inter-beat gap (`O(RR_max / peak_spacing)`
    /// candidates) instead of the record length. The emitted decisions are
    /// bit-for-bit identical to the retaining mode — the search-back filter
    /// (`index > last_qrs + refractory`) can never select a pruned
    /// candidate, and every decision reads only `last()` of the QRS
    /// history. No `f64` operation is reachable from
    /// [`OnlineClassifier::push`] (see [`crate::decision`]).
    #[must_use]
    pub fn for_config(config: &PipelineConfig) -> Self {
        Self::build(config.threshold(), config.footprint())
    }

    /// The one real constructor every public entry point delegates to.
    fn build(config: ThresholdConfig, retention: Footprint) -> Self {
        Self {
            config,
            retention,
            n: 0,
            recent: vec![0; ring_len(config.slope_window)],
            learn_len: 0,
            learn_max: i64::MIN,
            learn_sum: 0,
            kernel: FixedDecision::new(&config),
            seeded: false,
            candidates: Vec::new(),
            pending: None,
            next_unclassified: 0,
            qrs_indices: Vec::new(),
            qrs_slopes: Vec::new(),
            rr_history: Vec::new(),
            finished: false,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ThresholdConfig {
        &self.config
    }

    /// Samples consumed so far.
    #[must_use]
    pub fn samples_seen(&self) -> usize {
        self.n
    }

    /// Feeds one sample; newly final decisions are appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if called after [`OnlineClassifier::finish`].
    pub fn push(&mut self, x: i64, out: &mut Vec<PeakDecision>) {
        assert!(!self.finished, "push after finish");
        // Learning phase: track the largest excursion and the exact i128
        // sum of the first `learning` samples — the seed mean is computed
        // from this without any intermediate precision loss.
        if self.n < self.config.learning {
            self.learn_max = self.learn_max.max(x);
            self.learn_sum += i128::from(x);
            self.learn_len += 1;
        }
        let mask = self.recent.len() - 1;
        self.recent[self.n & mask] = x;
        self.n += 1;
        if !self.seeded && self.n >= self.config.learning {
            self.seed();
        }
        // Local-maximum scan at i = n − 2 (the batch scan covers
        // 1 ≤ i < len − 1; sample i + 1 is the newest).
        if self.n >= 3 {
            let i = self.n - 2;
            if self.sample(i) >= self.sample(i - 1) && self.sample(i) > self.sample(i + 1) {
                self.observe_local_max(i);
            }
        }
        // Finality: once no future local maximum can fall within
        // `peak_spacing` of the pending candidate, it is immutable.
        if let Some(p) = self.pending {
            if self.n > p.index + self.config.peak_spacing {
                // xanalyze: begin-allow(alloc) — candidate growth is
                // amortized and bounded: `prune_dead_candidates` keeps
                // bounded-retention sessions at a constant live window.
                self.candidates.push(p);
                // xanalyze: end-allow(alloc)
                self.pending = None;
            }
        }
        self.drain(out);
        self.prune_dead_candidates();
    }

    /// Drops candidate peaks that are both classified and unreachable by
    /// any future search-back (bounded retention only).
    ///
    /// The search-back filter only ever selects candidates with
    /// `index > last_qrs + refractory`, and `last_qrs` (the *maximum*
    /// accepted QRS index) never decreases — so a classified candidate at
    /// or below that line is dead forever. Unclassified candidates are
    /// always kept: classification itself still needs them.
    fn prune_dead_candidates(&mut self) {
        if self.retention != Footprint::Bounded {
            return;
        }
        let Some(&lq) = self.qrs_indices.last() else {
            return;
        };
        let dead_line = lq + self.config.refractory;
        let mut k = 0usize;
        while k < self.next_unclassified && self.candidates[k].index <= dead_line {
            k += 1;
        }
        if k > 0 {
            self.candidates.drain(..k);
            self.next_unclassified -= k;
        }
    }

    /// The smallest signal index any *future* decision or search-back can
    /// still reference: the oldest retained candidate or the pending peak.
    /// `None` when nothing is live (the next reachable index is then the
    /// current sample). The streaming detector prunes its HPF ring against
    /// this.
    #[must_use]
    pub fn earliest_live_index(&self) -> Option<usize> {
        let first = self.candidates.first().map(|c| c.index);
        let pending = self.pending.map(|p| p.index);
        match (first, pending) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Bytes of live state: the struct itself plus the candidate list, QRS
    /// bookkeeping, and RR history capacities. Under bounded retention this
    /// is O(longest inter-beat gap), independent of how many samples have
    /// been pushed.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.recent.capacity() * std::mem::size_of::<i64>()
            + self.candidates.capacity() * std::mem::size_of::<Candidate>()
            + self.qrs_indices.capacity() * std::mem::size_of::<usize>()
            + self.qrs_slopes.capacity() * std::mem::size_of::<i64>()
            + self.rr_history.capacity() * std::mem::size_of::<usize>()
    }

    /// Whether [`OnlineClassifier::finish`] has run (a finished classifier
    /// has no live state left to snapshot).
    pub(crate) fn is_finished(&self) -> bool {
        self.finished
    }

    /// Serializes the mutable state in declared field order. Configuration
    /// (`config`, `retention`, the kernel's config-derived constants) is
    /// not written: the restore side rebuilds it from the pipeline config,
    /// and the snapshot header's fingerprint guarantees that config
    /// matches the one that produced this encoding.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n);
        w.put_seq_i64(&self.recent);
        w.put_usize(self.learn_len);
        w.put_i64(self.learn_max);
        w.put_i128(self.learn_sum);
        let (spk, npk) = self.kernel.state_words();
        w.put_i128(spk);
        w.put_i128(npk);
        w.put_bool(self.seeded);
        w.put_usize(self.candidates.len());
        for c in &self.candidates {
            w.put_usize(c.index);
            w.put_i64(c.amplitude);
            w.put_i64(c.slope);
        }
        // One presence flag, then the fields — the same shape decode
        // reads, so the write/read sequences stay step-for-step mirrors.
        w.put_bool(self.pending.is_some());
        if let Some(p) = self.pending {
            w.put_usize(p.index);
            w.put_i64(p.amplitude);
            w.put_i64(p.slope);
        }
        w.put_usize(self.next_unclassified);
        w.put_seq_usize(&self.qrs_indices);
        w.put_seq_i64(&self.qrs_slopes);
        w.put_seq_usize(&self.rr_history);
    }

    /// Inverse of [`OnlineClassifier::encode`]: rebuilds a live (never
    /// finished) classifier over the given configuration, validating every
    /// structural invariant the push path relies on.
    pub(crate) fn decode(
        config: ThresholdConfig,
        retention: Footprint,
        r: &mut Reader<'_>,
    ) -> Result<Self, SnapshotError> {
        let n = r.take_usize()?;
        let recent = r.take_seq_i64()?;
        if recent.len() != ring_len(config.slope_window) {
            return Err(SnapshotError::Corrupt(
                "classifier sample ring has the wrong length",
            ));
        }
        let learn_len = r.take_usize()?;
        if learn_len != n.min(config.learning) {
            return Err(SnapshotError::Corrupt(
                "learning-window length disagrees with samples seen",
            ));
        }
        let learn_max = r.take_i64()?;
        let learn_sum = r.take_i128()?;
        let spk = r.take_i128()?;
        let npk = r.take_i128()?;
        let kernel = FixedDecision::from_state_words(&config, spk, npk);
        let seeded = r.take_bool()?;
        // index + amplitude + slope per candidate.
        let cand_len = r.take_len(3 * 8)?;
        let mut candidates = Vec::with_capacity(cand_len);
        for _ in 0..cand_len {
            candidates.push(Candidate {
                index: r.take_usize()?,
                amplitude: r.take_i64()?,
                slope: r.take_i64()?,
            });
        }
        if candidates.windows(2).any(|w| w[0].index > w[1].index) {
            return Err(SnapshotError::Corrupt(
                "candidate list is not in index order",
            ));
        }
        let pending = if r.take_bool()? {
            Some(Candidate {
                index: r.take_usize()?,
                amplitude: r.take_i64()?,
                slope: r.take_i64()?,
            })
        } else {
            None
        };
        let next_unclassified = r.take_usize()?;
        if next_unclassified > candidates.len() {
            return Err(SnapshotError::Corrupt(
                "next_unclassified points past the candidate list",
            ));
        }
        let qrs_indices = r.take_seq_usize()?;
        if qrs_indices.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotError::Corrupt("QRS indices are not sorted"));
        }
        let qrs_slopes = r.take_seq_i64()?;
        let rr_history = r.take_seq_usize()?;
        if rr_history.len() > 8 {
            return Err(SnapshotError::Corrupt("RR history longer than its bound"));
        }
        Ok(Self {
            config,
            retention,
            n,
            recent,
            learn_len,
            learn_max,
            learn_sum,
            kernel,
            seeded,
            candidates,
            pending,
            next_unclassified,
            qrs_indices,
            qrs_slopes,
            rr_history,
            finished: false,
        })
    }

    /// Ends the stream: classifies every remaining candidate (using the
    /// final signal length for the learning window if it was shorter than
    /// `learning`), appending the decisions to `out`.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish(&mut self, out: &mut Vec<PeakDecision>) {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        // Too short to classify at all — the batch path's early return.
        if self.n < self.config.peak_spacing * 2 + 1 {
            return;
        }
        if !self.seeded {
            self.seed();
        }
        if let Some(p) = self.pending.take() {
            self.candidates.push(p);
        }
        while self.next_unclassified < self.candidates.len() {
            self.classify_next(out);
        }
    }

    /// Retrieves retained sample `j` (valid for the last [`ring_len`]
    /// positions).
    fn sample(&self, j: usize) -> i64 {
        debug_assert!(j < self.n && j + self.recent.len() >= self.n);
        self.recent[j & (self.recent.len() - 1)]
    }

    /// Seeds SPK from the largest learning-window excursion and NPK from
    /// half the window mean (computed from the exact `i128` sum) — the
    /// batch path's initialisation.
    fn seed(&mut self) {
        let max0 = if self.learn_len == 0 {
            0
        } else {
            self.learn_max
        }
        .max(1);
        self.kernel.seed(max0, self.learn_sum, self.learn_len);
        self.seeded = true;
    }

    /// Maximal first difference over the `slope_window` differences (40 ms
    /// of signal) leading into `idx` (which must be within the retention
    /// window).
    fn slope_at(&self, idx: usize) -> i64 {
        let lo = idx.saturating_sub(self.config.slope_window);
        let mut best: Option<i64> = None;
        for j in lo..idx {
            let d = self.sample(j + 1) - self.sample(j);
            best = Some(best.map_or(d, |b| b.max(d)));
        }
        best.unwrap_or(0)
    }

    /// Handles a local maximum at `i`: merge into the pending candidate if
    /// within `peak_spacing` (largest wins), otherwise start a new one.
    fn observe_local_max(&mut self, i: usize) {
        let cand = Candidate {
            index: i,
            amplitude: self.sample(i),
            slope: self.slope_at(i),
        };
        match &mut self.pending {
            Some(p) if i - p.index < self.config.peak_spacing => {
                if cand.amplitude > p.amplitude {
                    *p = cand;
                }
            }
            Some(p) => self.candidates.push(std::mem::replace(p, cand)),
            pending @ None => *pending = Some(cand),
        }
    }

    /// Classifies every candidate that is already final, once the emission
    /// gates (seed available, minimum signal length) are open.
    fn drain(&mut self, out: &mut Vec<PeakDecision>) {
        if !self.seeded || self.n < self.config.peak_spacing * 2 + 1 {
            return;
        }
        while self.next_unclassified < self.candidates.len() {
            self.classify_next(out);
        }
    }

    /// Classifies the next candidate — one iteration of the batch decision
    /// loop (search-back, T-wave discrimination, THRESHOLD1).
    fn classify_next(&mut self, out: &mut Vec<PeakDecision>) {
        let c = self.config;
        let cand = self.candidates[self.next_unclassified];
        self.next_unclassified += 1;
        let (idx, amp) = (cand.index, cand.amplitude);

        // Filter warm-up: the delay lines are still priming.
        if idx < c.warmup {
            return;
        }
        let last_qrs = self.qrs_indices.last().copied();

        // Refractory blanking: physically impossible to be a new beat.
        if let Some(lq) = last_qrs {
            if idx - lq < c.refractory {
                return;
            }
        }

        // Search-back: before judging this peak, check whether we have
        // overshot the expected RR interval and left a beat behind. Only
        // *past* candidates qualify (`index + refractory < idx`), so the
        // incremental candidate list sees exactly what the batch list did.
        if let (Some(lq), false) = (last_qrs, self.rr_history.is_empty()) {
            let rr_sum = self.rr_history.iter().sum::<usize>();
            if self
                .kernel
                .rr_search_back(idx - lq, rr_sum, self.rr_history.len())
            {
                let miss = self
                    .candidates
                    .iter()
                    .filter(|cd| cd.index > lq + c.refractory && cd.index + c.refractory < idx)
                    .max_by_key(|cd| cd.amplitude)
                    .copied();
                if let Some(m) = miss {
                    if self.kernel.above_threshold2(m.amplitude) {
                        self.kernel.adapt_spk_search_back(m.amplitude);
                        self.push_qrs(m, PeakClass::SearchBack, out);
                    }
                }
            }
        }

        // T-wave discrimination: within 360 ms of the last QRS, a peak
        // whose maximal slope is less than half the previous QRS's slope
        // is a T wave.
        if let Some(&lq) = self.qrs_indices.last() {
            if idx - lq < c.t_wave_window {
                let slope_prev = self.qrs_slopes.last().copied().unwrap_or(0);
                if cand.slope < slope_prev / 2 {
                    self.kernel.adapt_npk(amp);
                    out.push(PeakDecision {
                        index: idx,
                        amplitude: amp,
                        class: PeakClass::TWave,
                    });
                    return;
                }
            }
        }

        if self.kernel.above_threshold1(amp) {
            self.kernel.adapt_spk(amp);
            self.push_qrs(cand, PeakClass::Qrs, out);
        } else {
            self.kernel.adapt_npk(amp);
            out.push(PeakDecision {
                index: idx,
                amplitude: amp,
                class: PeakClass::Noise,
            });
        }
    }

    /// Records an accepted beat: RR bookkeeping, sorted index insertion
    /// (search-back inserts out of order), slope history, decision.
    fn push_qrs(&mut self, cand: Candidate, class: PeakClass, out: &mut Vec<PeakDecision>) {
        if let Some(&prev) = self.qrs_indices.last() {
            if cand.index > prev {
                self.rr_history.push(cand.index - prev);
                if self.rr_history.len() > 8 {
                    self.rr_history.remove(0);
                }
            }
        }
        // Keep QRS indices sorted even when search-back inserts out of
        // order.
        let pos = self.qrs_indices.partition_point(|&i| i < cand.index);
        self.qrs_indices.insert(pos, cand.index);
        self.qrs_slopes.push(cand.slope);
        // Every read of these histories is `.last()` (max index, newest
        // slope), so bounded retention keeps exactly one entry of each.
        if self.retention == Footprint::Bounded {
            // `swap(0, len-1)` + truncate keeps the newest entry without
            // an `Option` unwrap: both vectors are provably non-empty
            // right after the pushes above.
            let last = self.qrs_indices.len() - 1;
            self.qrs_indices.swap(0, last);
            self.qrs_indices.truncate(1);
            let last = self.qrs_slopes.len() - 1;
            self.qrs_slopes.swap(0, last);
            self.qrs_slopes.truncate(1);
        }
        out.push(PeakDecision {
            index: cand.index,
            amplitude: cand.amplitude,
            class,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::oracle::{self, float_classify};

    /// The batch form of the classifier: every sample pushed through one
    /// [`OnlineClassifier`], decisions sorted by index.
    fn classify(cfg: ThresholdConfig, signal: &[i64]) -> Vec<PeakDecision> {
        let mut online = OnlineClassifier::new(cfg);
        let mut decisions = Vec::new();
        for &x in signal {
            online.push(x, &mut decisions);
        }
        online.finish(&mut decisions);
        decisions.sort_by_key(|d| d.index);
        decisions
    }

    /// The accepted QRS indices of [`classify`].
    fn detect(cfg: ThresholdConfig, signal: &[i64]) -> Vec<usize> {
        classify(cfg, signal)
            .into_iter()
            .filter(|d| matches!(d.class, PeakClass::Qrs | PeakClass::SearchBack))
            .map(|d| d.index)
            .collect()
    }

    /// Bounded-retention online classifier via the config path.
    fn bounded_classifier(cfg: ThresholdConfig) -> OnlineClassifier {
        OnlineClassifier::for_config(
            &PipelineConfig::exact()
                .with_threshold(cfg)
                .with_footprint(Footprint::Bounded),
        )
    }

    /// Builds an MWI-like signal: triangular bumps of `peak` height at the
    /// given positions over a noise floor.
    fn mwi_signal(len: usize, positions: &[usize], peak: i64, floor: i64) -> Vec<i64> {
        let mut s = vec![floor; len];
        for &p in positions {
            for o in 0..15usize {
                let rise = peak - (o as i64 - 7).abs() * (peak / 8);
                let at = p + o;
                if at < len {
                    s[at] = s[at].max(rise);
                }
            }
        }
        s
    }

    #[test]
    fn detects_regular_beats() {
        let positions: Vec<usize> = (0..10).map(|i| 150 + i * 170).collect();
        let s = mwi_signal(2200, &positions, 4000, 20);
        let peaks = detect(ThresholdConfig::default(), &s);
        assert_eq!(peaks.len(), 10, "found {peaks:?}");
    }

    #[test]
    fn ignores_low_noise_bumps() {
        let beats: Vec<usize> = (0..8).map(|i| 200 + i * 200).collect();
        let mut s = mwi_signal(2000, &beats, 5000, 10);
        // Small noise bumps between beats.
        for i in (300..1900).step_by(200) {
            s[i] += 200;
        }
        let peaks = detect(ThresholdConfig::default(), &s);
        assert_eq!(peaks.len(), 8, "noise bumps detected: {peaks:?}");
    }

    #[test]
    fn refractory_suppresses_double_fire() {
        // Two bumps 30 samples apart (inside 200 ms refractory).
        let s = mwi_signal(1500, &[500, 530, 900], 4000, 10);
        let peaks = detect(ThresholdConfig::default(), &s);
        // The 530 bump must be blanked.
        assert!(
            peaks.iter().filter(|p| **p > 480 && **p < 580).count() <= 1,
            "double fire: {peaks:?}"
        );
    }

    #[test]
    fn search_back_recovers_weak_beat() {
        // Regular strong beats with one weak (but real) beat in a long gap.
        let strong: Vec<usize> = vec![200, 400, 600, 800, 1400, 1600, 1800];
        let mut s = mwi_signal(2200, &strong, 5000, 10);
        // Weak beat at 1050 — below THRESHOLD1 but above THRESHOLD2.
        let weak = mwi_signal(2200, &[1050], 500, 0);
        for (a, b) in s.iter_mut().zip(&weak) {
            *a = (*a).max(*b);
        }
        let decisions = classify(ThresholdConfig::default(), &s);
        let recovered = decisions
            .iter()
            .any(|d| d.class == PeakClass::SearchBack && d.index > 1000 && d.index < 1100);
        assert!(recovered, "weak beat not recovered: {decisions:?}");
    }

    #[test]
    fn t_wave_rejected_by_slope() {
        // A QRS bump whose T wave peaks ~65 samples later (325 ms: inside
        // the 360 ms T window, outside the 200 ms refractory).
        let mut s = vec![10i64; 1600];
        for beat in 0..4 {
            let q = 200 + beat * 350;
            // Sharp QRS: rises in 4 samples.
            for o in 0..8usize {
                s[q + o] = 4000 - (o as i64 - 4).abs() * 900;
            }
            // Slow T wave: rises over 20 samples to a third of QRS height,
            // peaking at q+65.
            let t = q + 45;
            for o in 0..40usize {
                let v = 1300 - ((o as i64) - 20).abs() * 55;
                s[t + o] = s[t + o].max(v.max(0));
            }
        }
        let decisions = classify(ThresholdConfig::default(), &s);
        let t_waves = decisions
            .iter()
            .filter(|d| d.class == PeakClass::TWave)
            .count();
        assert!(t_waves >= 2, "no T waves rejected: {decisions:?}");
        let qrs = decisions
            .iter()
            .filter(|d| matches!(d.class, PeakClass::Qrs | PeakClass::SearchBack))
            .count();
        assert_eq!(qrs, 4, "QRS count wrong: {decisions:?}");
    }

    #[test]
    fn empty_and_tiny_signals_yield_nothing() {
        let cfg = ThresholdConfig::default();
        assert!(detect(cfg, &[]).is_empty());
        assert!(detect(cfg, &[5; 10]).is_empty());
    }

    #[test]
    fn flat_signal_has_no_peaks() {
        assert!(detect(ThresholdConfig::default(), &[100; 3000]).is_empty());
    }

    #[test]
    fn local_maxima_respects_spacing() {
        let mut s = vec![0i64; 100];
        s[10] = 5;
        s[15] = 9; // within spacing of 10 -> keeps the larger
        s[50] = 7;
        let peaks = oracle::local_maxima(&s, 20);
        assert_eq!(peaks, vec![(15, 9), (50, 7)]);
    }

    #[test]
    fn classify_reports_sorted_decisions() {
        let positions: Vec<usize> = (0..6).map(|i| 150 + i * 180).collect();
        let s = mwi_signal(1400, &positions, 3000, 15);
        let decisions = classify(ThresholdConfig::default(), &s);
        assert!(decisions.windows(2).all(|w| w[0].index <= w[1].index));
    }

    /// A deterministic pseudo-random MWI-like signal: beats with jittered
    /// spacing and amplitude over structured noise, to exercise the
    /// search-back and T-wave paths.
    fn fuzz_signal(seed: u64, len: usize) -> Vec<i64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut s: Vec<i64> = (0..len).map(|_| (next() % 120) as i64).collect();
        let mut at = 120 + (next() % 80) as usize;
        while at + 20 < len {
            let height = 1500 + (next() % 4000) as i64;
            for o in 0..15usize {
                let v = height - (o as i64 - 7).abs() * (height / 8);
                s[at + o] = s[at + o].max(v);
            }
            // Occasional weak beat (search-back fodder) or T-wave bump.
            if next() % 3 == 0 {
                let t = at + 45 + (next() % 20) as usize;
                for o in 0..30usize {
                    if t + o < len {
                        let v = height / 4 - ((o as i64) - 15).abs() * (height / 64);
                        s[t + o] = s[t + o].max(v.max(0));
                    }
                }
            }
            at += 90 + (next() % 220) as usize;
        }
        s
    }

    /// The classifier layer's Fixed ≡ Float guard: the integer decisions
    /// reproduce the `f64` transcription of the paper
    /// ([`oracle::float_classify`]) decision for decision, over beats,
    /// noise, T waves and search-back.
    #[test]
    fn online_classifier_matches_reference_implementation() {
        let cfg = ThresholdConfig::default();
        for seed in 0..40u64 {
            let len = 600 + (seed as usize * 137) % 2500;
            let s = fuzz_signal(seed + 1, len);
            assert_eq!(
                classify(cfg, &s),
                float_classify(&cfg, &s),
                "seed {seed} diverged"
            );
        }
    }

    /// Same guard on degenerate lengths and custom configurations,
    /// including the 360 Hz timing (a 14-difference slope window).
    #[test]
    fn online_classifier_matches_reference_on_edge_configs() {
        let configs = [
            ThresholdConfig::default(),
            ThresholdConfig {
                learning: 0,
                ..ThresholdConfig::default()
            },
            ThresholdConfig {
                peak_spacing: 5,
                refractory: 12,
                ..ThresholdConfig::default()
            },
            ThresholdConfig {
                warmup: 0,
                learning: 50,
                ..ThresholdConfig::default()
            },
            ThresholdConfig::for_fs(360.0),
        ];
        for cfg in configs {
            for len in [0usize, 1, 10, 40, 41, 120, 399, 400, 401, 1200] {
                let s = fuzz_signal(len as u64 + 7, len);
                assert_eq!(
                    classify(cfg, &s),
                    float_classify(&cfg, &s),
                    "len {len} cfg {cfg:?}"
                );
            }
        }
    }

    /// The float reference reads `slope_window`: a bump timed like a T
    /// wave whose steepest rise sits 12 differences before its peak is a
    /// T wave to an 8-difference window but a beat to the 14 differences
    /// of 360 Hz, and the reference agrees with the classifier under both.
    #[test]
    fn float_reference_honours_the_slope_window() {
        let mut s = vec![20i64; 3000];
        for q in (800..2700).step_by(300) {
            // A sharp QRS peaking at q + 7 (slope 500 per sample)...
            for o in 0..15usize {
                s[q + o] = 4000 - (o as i64 - 7).abs() * 500;
            }
            // ...then, 100 samples later, a step of 1480 followed by a
            // slow rise to a peak at q + 107 and a slow fall.
            for o in 0..=12usize {
                s[q + 95 + o] = 1500 + 10 * o as i64;
            }
            for o in 1..27usize {
                s[q + 107 + o] = (1620 - 60 * o as i64).max(20);
            }
        }
        let wide = ThresholdConfig::for_fs(360.0);
        let narrow = ThresholdConfig {
            slope_window: 8,
            ..wide
        };
        let (w, n) = (classify(wide, &s), classify(narrow, &s));
        assert!(
            n.iter().any(|d| d.class == PeakClass::TWave),
            "no T wave under the narrow window: {n:?}"
        );
        assert_ne!(w, n, "the slope window never changed a decision");
        assert_eq!(w, float_classify(&wide, &s));
        assert_eq!(n, float_classify(&narrow, &s));
    }

    /// The sampling-rate bugfix: `for_fs` derives every window from the
    /// paper's millisecond durations, so a 360 Hz (MIT-BIH-rate) config
    /// actually runs 360 Hz timing instead of silently keeping the 200 Hz
    /// sample counts.
    #[test]
    fn for_fs_rescales_every_window() {
        let hz360 = ThresholdConfig::for_fs(360.0);
        assert_eq!(hz360.fs, 360.0);
        assert_eq!(hz360.refractory, 72, "200 ms at 360 Hz");
        assert_eq!(hz360.t_wave_window, 130, "360 ms at 360 Hz (129.6 → 130)");
        assert_eq!(hz360.learning, 720, "2 s at 360 Hz");
        assert_eq!(hz360.slope_window, 14, "40 ms at 360 Hz (14.4 → 14)");
        assert_eq!(hz360.peak_spacing, 36, "100 ms at 360 Hz");
        assert_eq!(hz360.warmup, 144, "400 ms at 360 Hz");
        // The rational search-back factor is rate-independent.
        assert_eq!((hz360.search_back_num, hz360.search_back_den), (166, 100));
    }

    /// `Default` is `for_fs(200.0)` and reproduces the original paper
    /// constants exactly — changing the derivation would silently retime
    /// the whole detector.
    #[test]
    fn default_config_is_the_200_hz_derivation() {
        let d = ThresholdConfig::default();
        assert_eq!(d, ThresholdConfig::for_fs(200.0));
        assert_eq!(
            (
                d.refractory,
                d.t_wave_window,
                d.learning,
                d.slope_window,
                d.peak_spacing,
                d.warmup
            ),
            (40, 72, 400, 8, 20, 80)
        );
        // The rational is the historical 1.66 exactly (what the float
        // reference derives its factor from).
        assert_eq!(
            d.search_back_num as f64 / d.search_back_den as f64,
            1.66,
            "166/100 must reproduce the pre-refactor f64 literal"
        );
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_rejected() {
        let _ = ThresholdConfig::for_fs(0.0);
    }

    /// A detector retimed to 360 Hz behaves sanely on a 360 Hz-shaped
    /// record (beats 306 samples apart — the 200 Hz `peak_spacing`/
    /// refractory would be mistimed by 1.8× here).
    #[test]
    fn detects_at_360_hz_with_rescaled_windows() {
        let cfg = ThresholdConfig::for_fs(360.0);
        // 10 beats spaced 306 samples (0.85 s at 360 Hz).
        let positions: Vec<usize> = (0..10).map(|i| 800 + i * 306).collect();
        let s = mwi_signal(4000, &positions, 4000, 20);
        let peaks = detect(cfg, &s);
        assert_eq!(peaks.len(), 10, "found {peaks:?}");
        // And the float reference agrees decision-for-decision at this
        // rate too.
        assert_eq!(classify(cfg, &s), float_classify(&cfg, &s));
    }

    /// The characterised Fixed/Float divergence domain: amplitudes past
    /// 2^53, where `amp as f64` can no longer represent the integer. The
    /// scenario seeds THRESHOLD1 to exactly T = 19·2^49 (> 2^53) and
    /// presents a peak of T + 1:
    ///
    /// * exact arithmetic: `T + 1 > T` — a QRS, and Fixed agrees;
    /// * float ([`oracle::float_classify`]): `(T + 1) as f64` rounds to
    ///   even = `T`, the strict comparison fails, and the beat is
    ///   misclassified as noise.
    ///
    /// Fixed is the ground truth here — its comparisons are exact at any
    /// `i64` amplitude (see `crate::decision`).
    #[test]
    fn huge_amplitudes_diverge_and_fixed_is_ground_truth() {
        let cfg = ThresholdConfig {
            learning: 4,
            warmup: 0,
            peak_spacing: 3,
            refractory: 1,
            ..ThresholdConfig::default()
        };
        let a = 1i64 << 53;
        // Learning window descending (no local maxima): max0 = 4a,
        // Σ = 10a ⇒ SPK₀ = a, NPK₀ = 1.25a ⇒
        // THRESHOLD1 = NPK + (SPK − NPK)/4 = 1.1875a = 19·2^49 exactly
        // (both arithmetics compute this seed without rounding).
        let t1 = 19i64 << 49;
        let amp = t1 + 1;
        assert_eq!((amp as f64) as i64, t1, "t1+1 must round to t1 in f64");
        let mut s = vec![4 * a, 3 * a, 2 * a, a, 0, amp];
        s.extend_from_slice(&[0; 6]);

        let fixed = classify(cfg, &s);
        let float = float_classify(&cfg, &s);
        assert_eq!(fixed.len(), 1);
        assert_eq!(float.len(), 1);
        assert_eq!(
            (fixed[0].index, fixed[0].class),
            (5, PeakClass::Qrs),
            "Fixed must resolve the exact strict inequality T+1 > T"
        );
        assert_eq!(
            (float[0].index, float[0].class),
            (5, PeakClass::Noise),
            "Float is expected to lose the beat past 2^53 — if this now \
             passes as QRS the divergence domain has changed; update \
             DESIGN.md §8"
        );
    }

    /// Push-based decisions arrive with the documented bounded latency:
    /// by the time sample `i + peak_spacing + 1` has been consumed, the
    /// decision for a (non-search-back) candidate at `i` must be out.
    #[test]
    fn online_decisions_have_bounded_latency() {
        let cfg = ThresholdConfig::default();
        let s = fuzz_signal(99, 3000);
        let mut online = OnlineClassifier::new(cfg);
        let mut out = Vec::new();
        let mut emitted_at: Vec<(usize, PeakDecision)> = Vec::new();
        for (n, &x) in s.iter().enumerate() {
            let before = out.len();
            online.push(x, &mut out);
            for d in &out[before..] {
                emitted_at.push((n + 1, *d));
            }
        }
        online.finish(&mut out);
        assert!(!emitted_at.is_empty(), "no decision emitted mid-stream");
        let startup = cfg.learning.max(2 * cfg.peak_spacing + 1);
        for (n, d) in &emitted_at {
            assert!(*n >= startup, "decision before the startup gate");
            if d.class != PeakClass::SearchBack {
                let deadline = (d.index + cfg.peak_spacing + 1).max(startup);
                assert!(
                    *n <= deadline,
                    "decision for {} emitted at {n}, deadline {deadline}",
                    d.index
                );
            }
        }
    }

    /// Drives retaining and bounded classifiers sample-locked over the same
    /// signal and asserts every emitted decision matches, then returns the
    /// bounded classifier for state inspection.
    fn lockstep_bounded(cfg: ThresholdConfig, s: &[i64]) -> OnlineClassifier {
        let mut retain = OnlineClassifier::new(cfg);
        let mut bounded = bounded_classifier(cfg);
        let (mut out_r, mut out_b) = (Vec::new(), Vec::new());
        for (i, &x) in s.iter().enumerate() {
            retain.push(x, &mut out_r);
            bounded.push(x, &mut out_b);
            assert_eq!(out_r, out_b, "decision streams diverged at sample {i}");
        }
        retain.finish(&mut out_r);
        let mut probe = bounded.clone();
        probe.finish(&mut out_b);
        assert_eq!(out_r, out_b, "decision streams diverged at finish");
        bounded
    }

    /// The bounded-retention guard: pruning candidates and truncating the
    /// QRS history must not change a single decision, on workloads that
    /// exercise search-back, T waves, and noise.
    #[test]
    fn bounded_retention_emits_identical_decisions() {
        let cfg = ThresholdConfig::default();
        for seed in 0..25u64 {
            let len = 800 + (seed as usize * 211) % 2400;
            let _ = lockstep_bounded(cfg, &fuzz_signal(seed + 3, len));
        }
    }

    /// Regression for the prune rule at the RR-miss boundary: a weak beat
    /// classified as noise must survive pruning until the next strong beat
    /// triggers search-back over it, even in bounded mode.
    #[test]
    fn bounded_classifier_still_recovers_search_back_beat() {
        // Strong beats with a long gap holding one weak (sub-THRESHOLD1,
        // supra-THRESHOLD2) beat — same construction as
        // `search_back_recovers_weak_beat`.
        let strong: Vec<usize> = vec![200, 400, 600, 800, 1400, 1600, 1800];
        let mut s = mwi_signal(2200, &strong, 5000, 10);
        let weak = mwi_signal(2200, &[1050], 500, 0);
        for (a, b) in s.iter_mut().zip(&weak) {
            *a = (*a).max(*b);
        }
        let mut bounded = bounded_classifier(ThresholdConfig::default());
        let mut decisions = Vec::new();
        for &x in &s {
            bounded.push(x, &mut decisions);
        }
        bounded.finish(&mut decisions);
        assert!(
            decisions
                .iter()
                .any(|d| d.class == PeakClass::SearchBack && d.index > 1000 && d.index < 1100),
            "bounded mode lost the search-back beat: {decisions:?}"
        );
        // And the retaining path agrees decision-for-decision.
        let _ = lockstep_bounded(ThresholdConfig::default(), &s);
    }

    /// Bounded retention actually prunes: on a long regular record the
    /// candidate list stays at the inter-beat scale and the QRS history at
    /// one entry, while the retaining classifier's grow with the record.
    #[test]
    fn bounded_retention_state_stays_flat() {
        let cfg = ThresholdConfig::default();
        let positions: Vec<usize> = (0..60).map(|i| 150 + i * 170).collect();
        let s = mwi_signal(11_000, &positions, 4000, 20);
        let mut retain = OnlineClassifier::new(cfg);
        let mut bounded = bounded_classifier(cfg);
        let mut sink = Vec::new();
        let mut bounded_high_water = 0usize;
        for &x in &s {
            retain.push(x, &mut sink);
            bounded.push(x, &mut sink);
            bounded_high_water = bounded_high_water.max(bounded.state_bytes());
        }
        assert!(
            retain.state_bytes() > 2 * bounded.state_bytes(),
            "retaining {} vs bounded {} bytes",
            retain.state_bytes(),
            bounded.state_bytes()
        );
        assert!(
            bounded_high_water < 8 * 1024,
            "bounded classifier state hit {bounded_high_water} bytes"
        );
    }

    #[test]
    #[should_panic(expected = "finish called twice")]
    fn finishing_twice_panics() {
        let mut online = OnlineClassifier::new(ThresholdConfig::default());
        let mut out = Vec::new();
        online.finish(&mut out);
        online.finish(&mut out);
    }
}
