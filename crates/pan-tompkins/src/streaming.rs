//! Push-based (streaming) QRS detection — the edge deployment shape.
//!
//! At the edge, samples arrive one at a time from the analog front-end;
//! there is no pre-loaded record to run [`crate::QrsDetector::detect`]
//! over. [`StreamingQrsDetector`] accepts arbitrary-size chunks (including
//! single samples) and emits [`StreamEvent`]s with bounded latency, while
//! remaining **bit-for-bit identical** to the batch detector: feeding a
//! record through any sequence of `push` calls followed by `finish`
//! produces exactly the [`DetectionResult`] — peaks, decisions, stage
//! signals, operation/saturation/overflow counters — that one `detect`
//! call over the whole record produces, and the scalar reference pipeline
//! ([`crate::oracle`]) produces too. The equivalence is enforced by
//! `tests/streaming_equivalence.rs` and by CI's `ext_streaming_speed
//! --check` gate.
//!
//! # One pipeline
//!
//! A detector session is two halves:
//!
//! * a [`DetectorEngine`] (see [`crate::engine`]) — the configuration and
//!   the five compiled stage programs, immutable while samples flow,
//!   constructed once and shared behind an [`Arc`];
//! * the per-session mutable state — stage delay lines, the MWI window,
//!   the classifier, and the alignment/event bookkeeping (the
//!   `DetectorTail`).
//!
//! [`StreamingQrsDetector`] keeps that state in the only lane of a
//! one-lane [`LaneBank`]: a push is a bank push, whose stage kernels run
//! in register blocks across time (see [`crate::lane`]). Solo streaming,
//! batch [`crate::QrsDetector::detect`], every lane of a wider bank and the
//! service hub's solo sessions therefore run one implementation of the
//! five stages, and one session codec ([`LaneBank::snapshot_lane`]) moves
//! sessions between them. Fleet deployments (many sessions, one
//! configuration) build the engine once and call
//! [`StreamingQrsDetector::from_engine`] — or batch whole groups of
//! sessions through a wider [`LaneBank`]. The per-sample scalar stages of
//! [`crate::oracle`] survive as the reference the equivalence suites
//! compare every path with.
//!
//! # How the pipeline streams
//!
//! The five stages were always sample-streaming (delay lines and a ring
//! window); the batch-only parts were the decision logic and the HPF↔MWI
//! cross-check. Those stream as follows:
//!
//! * thresholding runs in an [`OnlineClassifier`] — candidate peaks become
//!   final once `peak_spacing` samples prove no taller neighbour can merge
//!   into them, and classification needs only past candidates;
//! * a classified beat is confirmed against the HPF signal as soon as the
//!   alignment window (`expected ± 24` around the delay-mapped position)
//!   is fully available — `ALIGNMENT_SEARCH + 1 − HPF_TO_MWI_DELAY = 9`
//!   samples past the MWI peak, clipped at `finish` exactly as the batch
//!   path clips at the record end.
//!
//! # Memory footprint
//!
//! Under the default [`Footprint::Retain`] policy the detector keeps every
//! stage signal and every decision for the final [`DetectionResult`], so
//! its memory grows linearly with the record — fine on a workstation,
//! impossible on the kilobyte-scale sensor node the paper's energy model
//! assumes. [`Footprint::Bounded`] (selected via
//! [`PipelineConfig::with_footprint`]) keeps only:
//!
//! * the stage delay lines and the MWI window (fixed),
//! * a pruned HPF ring covering the oldest still-confirmable alignment
//!   window (`O(longest RR interval)` samples),
//! * the classifier's still-revisitable candidates (see
//!   [`OnlineClassifier::for_config`]).
//!
//! The buffers a push works in — inter-stage rows and the FIR history and
//! product rows, sized by the longest push up to the 64-tick kernel block —
//! are not session state: they are dead between pushes, so every push on a
//! thread borrows the thread's one block scratch, billed once per thread by
//! [`crate::block_scratch_bytes`].
//!
//! The emitted event stream is bit-for-bit identical to the retaining
//! mode for every chunking (property-tested, and gated in CI by
//! `ext_memory_footprint --check`), and [`StreamingQrsDetector::finish`]
//! returns a slim result: counters and delay only — no signal vectors, no
//! decision lists (results are delivered through the events). The bound is
//! *measured*, not asserted: [`StreamingQrsDetector::state_bytes`] reports
//! the live footprint, which stays flat in the record length for any
//! signal with beats.
//!
//! # Latency bounds
//!
//! With the default [`crate::ThresholdConfig`] (see
//! [`StreamingQrsDetector::max_event_lag`]):
//!
//! * no event before `max(learning, 2·peak_spacing + 1)` = **400 samples**
//!   (2 s at 200 Hz) — the SPK/NPK learning phase;
//! * after that, an R-peak whose MWI maximum sits at index `i` is emitted
//!   by the time sample `max(i + peak_spacing + 1, 400)` = `i + 21` has
//!   been pushed. The MWI peak itself trails the raw R wave by the
//!   pipeline group delay (37 samples), so the steady-state worst case is
//!   **58 samples (290 ms at 200 Hz)** behind the raw beat;
//! * `SearchBack` recoveries are inherently late: a missed beat is only
//!   discovered while classifying the next one, so their latency is one
//!   RR interval.
//!
//! # Example
//!
//! ```
//! use pan_tompkins::{PipelineConfig, StreamEvent, StreamingQrsDetector};
//!
//! let mut signal = vec![0i32; 2000];
//! for beat in 0..10 {
//!     let at = 150 + beat * 170;
//!     signal[at - 1] = 120;
//!     signal[at] = 240;
//!     signal[at + 1] = 120;
//! }
//! let mut detector = StreamingQrsDetector::new(PipelineConfig::exact());
//! let mut peaks = Vec::new();
//! for chunk in signal.chunks(16) {
//!     for event in detector.push(chunk) {
//!         if let StreamEvent::RPeak { raw, .. } = event {
//!             peaks.push(raw);
//!         }
//!     }
//! }
//! let (trailing, result) = detector.finish();
//! peaks.extend(trailing.iter().filter_map(StreamEvent::r_peak));
//! assert_eq!(peaks, result.r_peaks());
//! assert!(peaks.len() >= 9);
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use approx_arith::OpCounter;

use crate::config::{Footprint, PipelineConfig};
use crate::detector::{
    check_alignment, check_alignment_with, Alignment, DetectionResult, OmittedBeat, StageSignals,
    ALIGNMENT_SEARCH, HPF_TO_MWI_DELAY, PRE_PROCESSING_DELAY,
};
use crate::engine::DetectorEngine;
use crate::lane::LaneBank;
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::threshold::{OnlineClassifier, PeakClass, PeakDecision};

/// One incremental detection outcome emitted by
/// [`StreamingQrsDetector::push`].
///
/// Events appear in confirmation order, which for R-peaks is
/// non-decreasing raw position; the same chunking-independent sequence is
/// produced for every way of splitting the input into `push` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// A confirmed R-peak.
    RPeak {
        /// Peak position in raw input-sample coordinates (what
        /// [`DetectionResult::r_peaks`] collects).
        raw: usize,
        /// The accepted peak's position on the MWI signal.
        mwi_index: usize,
        /// The confirming |HPF| peak position.
        hpf_index: usize,
    },
    /// A beat detected on the MWI signal but dropped by the HPF-alignment
    /// cross-check (Fig 13's misclassification mechanism).
    Omitted(OmittedBeat),
}

impl StreamEvent {
    /// The raw-coordinate peak position, for R-peak events.
    #[must_use]
    pub fn r_peak(&self) -> Option<usize> {
        match self {
            StreamEvent::RPeak { raw, .. } => Some(*raw),
            StreamEvent::Omitted(_) => None,
        }
    }
}

/// A contiguous suffix of the HPF signal addressed in absolute sample
/// coordinates: `buf[0]` holds sample `start`, and samples below `start`
/// have been pruned away. The bounded-footprint replacement for retaining
/// the whole HPF vector.
#[derive(Debug, Clone, Default)]
struct HpfRing {
    buf: VecDeque<i64>,
    /// Absolute index of `buf[0]`.
    start: usize,
}

impl HpfRing {
    fn push(&mut self, v: i64) {
        // xanalyze: begin-allow(alloc) — amortized ring append: the prune
        // floor keeps the deque at a bounded steady-state capacity, so no
        // reallocation happens after warm-up.
        self.buf.push_back(v);
        // xanalyze: end-allow(alloc)
    }

    /// Bulk [`HpfRing::push`] — `VecDeque::extend` reserves once for the
    /// whole batch instead of growth-checking per element.
    fn extend(&mut self, vs: impl Iterator<Item = i64>) {
        self.buf.extend(vs);
    }

    /// Total samples produced so far (pruned ones included).
    fn len_total(&self) -> usize {
        self.start + self.buf.len()
    }

    /// The HPF value at absolute sample index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` was pruned or not yet produced — the pruning floor in
    /// [`DetectorTail::prune_bounded`] guarantees neither happens.
    fn get(&self, i: usize) -> i64 {
        self.buf[i - self.start]
    }

    /// Forgets all samples below the absolute index `floor`.
    fn prune_below(&mut self, floor: usize) {
        let floor = floor.min(self.len_total());
        while self.start < floor {
            self.buf.pop_front();
            self.start += 1;
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<i64>()
    }
}

/// What the detector retains of the per-stage outputs, per the configured
/// [`Footprint`].
#[derive(Debug, Clone)]
enum SignalStore {
    /// Every stage signal, full length (the batch-result shape).
    Retained(StageSignals),
    /// Only a pruned window of the HPF signal, for alignment confirmation.
    Bounded { hpf: HpfRing },
}

/// The decision-side state of one detector session: the classifier, the
/// signal store, the alignment queue, and the event bookkeeping —
/// everything downstream of the five stages. Shared verbatim by every lane
/// of a [`LaneBank`] (the one lane of a [`StreamingQrsDetector`] included)
/// and the scalar reference pipeline ([`crate::oracle`]), so the paths
/// cannot drift.
#[derive(Debug, Clone)]
pub(crate) struct DetectorTail {
    classifier: OnlineClassifier,
    store: SignalStore,
    /// Samples ingested so far.
    n: usize,
    /// All decisions in emission (classification) order (retaining mode
    /// only — bounded mode delivers results through events).
    decisions: Vec<PeakDecision>,
    /// Accepted beats awaiting a complete HPF alignment window.
    awaiting_alignment: VecDeque<PeakDecision>,
    /// Confirmed raw peak positions, in confirmation order (retaining mode
    /// only).
    confirmed_raw: Vec<usize>,
    omitted: Vec<OmittedBeat>,
    /// Scratch buffer for per-sample classifier output.
    fresh: Vec<PeakDecision>,
}

impl DetectorTail {
    pub(crate) fn new(config: &PipelineConfig) -> Self {
        let store = match config.footprint() {
            Footprint::Retain => SignalStore::Retained(StageSignals::default()),
            Footprint::Bounded => SignalStore::Bounded {
                hpf: HpfRing::default(),
            },
        };
        Self {
            classifier: OnlineClassifier::for_config(config),
            store,
            n: 0,
            decisions: Vec::new(),
            awaiting_alignment: VecDeque::new(),
            confirmed_raw: Vec::new(),
            omitted: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Samples ingested so far.
    pub(crate) fn samples_seen(&self) -> usize {
        self.n
    }

    /// Reserves room for `samples` more samples in each retained stage
    /// signal, so a caller that knows its record length skips the
    /// vectors' doubling growth (a no-op under bounded retention).
    pub(crate) fn reserve_retained(&mut self, samples: usize) {
        if let SignalStore::Retained(s) = &mut self.store {
            for signal in [&mut s.lpf, &mut s.hpf, &mut s.der, &mut s.sqr, &mut s.mwi] {
                signal.reserve_exact(samples);
            }
        }
    }

    /// Feeds one tick's five stage outputs — the scalar reference's
    /// per-sample hand-off: stores what the footprint retains and runs the
    /// classifier on the MWI value.
    #[inline]
    pub(crate) fn ingest(&mut self, a: i64, b: i64, c: i64, d: i64, e: i64) {
        // xanalyze: begin-allow(alloc) — the retained-mode store appends by
        // contract (it *is* the batch-result shape); the bounded ring is
        // pruned by `settle` to a constant window, so growth is amortized
        // to warm-up only.
        match &mut self.store {
            SignalStore::Retained(signals) => {
                signals.lpf.push(a);
                signals.hpf.push(b);
                signals.der.push(c);
                signals.sqr.push(d);
                signals.mwi.push(e);
            }
            SignalStore::Bounded { hpf: ring } => ring.push(b),
        }
        // xanalyze: end-allow(alloc)
        self.n += 1;
        let mut fresh = std::mem::take(&mut self.fresh);
        // xanalyze: begin-allow(alloc) — `classifier.push` is the audited
        // decision kernel entry (threshold.rs), not a container append.
        self.classifier.push(e, &mut fresh);
        // xanalyze: end-allow(alloc)
        self.absorb(&mut fresh);
        self.fresh = fresh;
    }

    /// Batched [`DetectorTail::ingest`]: absorbs one lane's column from
    /// the row-major stage-output matrices `[lpf, hpf, der, sqr, mwi]`
    /// (`m[t * stride + lane]`, one row per tick), equivalent to calling
    /// `ingest` once per tick in order.
    ///
    /// Safe to batch because nothing inside the per-sample path reads state
    /// across samples: the store and tap only append, [`OnlineClassifier`]
    /// is self-contained, and `absorb` only drains decision queues (the
    /// `n`-dependent alignment logic runs later, in [`DetectorTail::settle`]).
    #[inline]
    pub(crate) fn ingest_batch(
        &mut self,
        stride: usize,
        lane: usize,
        stages: [&[i64]; 5],
        tap: Option<&mut Vec<i64>>,
    ) {
        let [a, b, c, d, e] = stages;
        match &mut self.store {
            SignalStore::Retained(signals) => {
                signals.lpf.extend(a[lane..].iter().step_by(stride));
                signals.hpf.extend(b[lane..].iter().step_by(stride));
                signals.der.extend(c[lane..].iter().step_by(stride));
                signals.sqr.extend(d[lane..].iter().step_by(stride));
                signals.mwi.extend(e[lane..].iter().step_by(stride));
            }
            SignalStore::Bounded { hpf: ring } => {
                ring.extend(b[lane..].iter().step_by(stride).copied());
            }
        }
        if let Some(out) = tap {
            out.extend(b[lane..].iter().step_by(stride));
        }
        let mut fresh = std::mem::take(&mut self.fresh);
        for &v in e[lane..].iter().step_by(stride) {
            self.n += 1;
            self.classifier.push(v, &mut fresh);
            if !fresh.is_empty() {
                self.absorb(&mut fresh);
            }
        }
        self.fresh = fresh;
    }

    /// End-of-chunk settlement: confirms every queued beat whose alignment
    /// window is complete, then prunes the bounded store.
    pub(crate) fn settle(
        &mut self,
        finished: bool,
        max_misalignment: usize,
        events: &mut Vec<StreamEvent>,
    ) {
        self.confirm_aligned(finished, max_misalignment, events);
        self.prune_bounded();
    }

    /// End-of-stream flush: drains the classifier and confirms every
    /// remaining queued beat with the alignment window clipped at the
    /// record end, exactly like the batch path.
    pub(crate) fn finish(&mut self, max_misalignment: usize, events: &mut Vec<StreamEvent>) {
        let mut fresh = std::mem::take(&mut self.fresh);
        self.classifier.finish(&mut fresh);
        self.absorb(&mut fresh);
        self.fresh = fresh;
        self.confirm_aligned(true, max_misalignment, events);
    }

    /// Assembles the final [`DetectionResult`] from the accumulated run
    /// and the stage counters, leaving the tail drained (but not reset).
    pub(crate) fn take_result(
        &mut self,
        ops: [OpCounter; 5],
        saturations: [u64; 5],
        add_overflows: [u64; 5],
        total_delay: usize,
    ) -> DetectionResult {
        let mut decisions = std::mem::take(&mut self.decisions);
        decisions.sort_by_key(|d| d.index);
        let mut r_peaks = std::mem::take(&mut self.confirmed_raw);
        r_peaks.sort_unstable();
        r_peaks.dedup();
        let signals = match &mut self.store {
            SignalStore::Retained(signals) => Some(std::mem::take(signals)),
            SignalStore::Bounded { .. } => None,
        };
        DetectionResult {
            r_peaks,
            omitted: std::mem::take(&mut self.omitted),
            decisions,
            ops,
            saturations,
            add_overflows,
            signals,
            total_delay,
        }
    }

    /// Resets all per-record state, keeping allocated capacity where the
    /// containers allow it.
    pub(crate) fn reset(&mut self, config: &PipelineConfig) {
        self.classifier = OnlineClassifier::for_config(config);
        match &mut self.store {
            SignalStore::Retained(signals) => {
                signals.lpf.clear();
                signals.hpf.clear();
                signals.der.clear();
                signals.sqr.clear();
                signals.mwi.clear();
            }
            SignalStore::Bounded { hpf } => hpf.clear(),
        }
        self.n = 0;
        self.decisions.clear();
        self.awaiting_alignment.clear();
        self.confirmed_raw.clear();
        self.omitted.clear();
        self.fresh.clear();
    }

    /// Heap bytes owned by the tail: the classifier's candidate state, the
    /// signal store, and the event queues.
    pub(crate) fn heap_bytes(&self) -> usize {
        let classifier = self
            .classifier
            .state_bytes()
            .saturating_sub(std::mem::size_of::<OnlineClassifier>());
        let store = match &self.store {
            SignalStore::Retained(s) => {
                (s.lpf.capacity()
                    + s.hpf.capacity()
                    + s.der.capacity()
                    + s.sqr.capacity()
                    + s.mwi.capacity())
                    * std::mem::size_of::<i64>()
            }
            SignalStore::Bounded { hpf } => hpf.heap_bytes(),
        };
        let queues = self.decisions.capacity() * std::mem::size_of::<PeakDecision>()
            + self.awaiting_alignment.capacity() * std::mem::size_of::<PeakDecision>()
            + self.confirmed_raw.capacity() * std::mem::size_of::<usize>()
            + self.omitted.capacity() * std::mem::size_of::<OmittedBeat>()
            + self.fresh.capacity() * std::mem::size_of::<PeakDecision>();
        classifier + store + queues
    }

    /// Whether the session has been finished (drained) — a finished tail
    /// has no live state to snapshot.
    pub(crate) fn is_finished(&self) -> bool {
        self.classifier.is_finished()
    }

    /// Serializes the tail: classifier state, the footprint's signal
    /// store, the alignment queue, and the retained bookkeeping. `fresh`
    /// is not written — it is a scratch buffer that
    /// [`DetectorTail::absorb`] drains before every
    /// push/settle boundary returns, so it is empty whenever a snapshot
    /// can be taken.
    pub(crate) fn encode(&self, w: &mut Writer) {
        self.classifier.encode(w);
        w.put_usize(self.n);
        match &self.store {
            SignalStore::Retained(s) => {
                w.put_seq_i64(&s.lpf);
                w.put_seq_i64(&s.hpf);
                w.put_seq_i64(&s.der);
                w.put_seq_i64(&s.sqr);
                w.put_seq_i64(&s.mwi);
            }
            SignalStore::Bounded { hpf } => {
                w.put_usize(hpf.start);
                // Mirrors `take_seq_i64` in decode step for step; the
                // iter form writes the same length-prefixed bytes as
                // `put_seq_i64` would for a contiguous buffer.
                w.put_seq_i64_iter(hpf.buf.iter().copied());
            }
        }
        w.put_usize(self.awaiting_alignment.len());
        for d in &self.awaiting_alignment {
            put_decision(w, d);
        }
        w.put_usize(self.decisions.len());
        for d in &self.decisions {
            put_decision(w, d);
        }
        w.put_seq_usize(&self.confirmed_raw);
        w.put_usize(self.omitted.len());
        for o in &self.omitted {
            w.put_usize(o.mwi_index);
            w.put_usize(o.hpf_index);
            w.put_usize(o.misalignment);
        }
    }

    /// Inverse of [`DetectorTail::encode`], validating the structural
    /// invariants that tie the sections together (classifier and tail
    /// sample counts, signal-store lengths vs. samples seen).
    pub(crate) fn decode(
        config: &PipelineConfig,
        r: &mut Reader<'_>,
    ) -> Result<Self, SnapshotError> {
        let classifier = OnlineClassifier::decode(config.threshold(), config.footprint(), r)?;
        let n = r.take_usize()?;
        if classifier.samples_seen() != n {
            return Err(SnapshotError::Corrupt(
                "classifier and tail disagree about samples seen",
            ));
        }
        let store = match config.footprint() {
            Footprint::Retain => {
                let lpf = r.take_seq_i64()?;
                let hpf = r.take_seq_i64()?;
                let der = r.take_seq_i64()?;
                let sqr = r.take_seq_i64()?;
                let mwi = r.take_seq_i64()?;
                if [&lpf, &hpf, &der, &sqr, &mwi].iter().any(|s| s.len() != n) {
                    return Err(SnapshotError::Corrupt(
                        "retained stage signal length disagrees with samples seen",
                    ));
                }
                SignalStore::Retained(StageSignals {
                    lpf,
                    hpf,
                    der,
                    sqr,
                    mwi,
                })
            }
            Footprint::Bounded => {
                let start = r.take_usize()?;
                let buf = r.take_seq_i64()?;
                if start.checked_add(buf.len()) != Some(n) {
                    return Err(SnapshotError::Corrupt(
                        "bounded HPF ring extent disagrees with samples seen",
                    ));
                }
                SignalStore::Bounded {
                    hpf: HpfRing {
                        buf: VecDeque::from(buf),
                        start,
                    },
                }
            }
        };
        // index + amplitude + class per decision.
        let await_len = r.take_len(8 + 8 + 1)?;
        let mut awaiting_alignment = VecDeque::with_capacity(await_len);
        for _ in 0..await_len {
            awaiting_alignment.push_back(take_decision(r)?);
        }
        let dec_len = r.take_len(8 + 8 + 1)?;
        let mut decisions = Vec::with_capacity(dec_len);
        for _ in 0..dec_len {
            decisions.push(take_decision(r)?);
        }
        let confirmed_raw = r.take_seq_usize()?;
        let omit_len = r.take_len(3 * 8)?;
        let mut omitted = Vec::with_capacity(omit_len);
        for _ in 0..omit_len {
            omitted.push(OmittedBeat {
                mwi_index: r.take_usize()?,
                hpf_index: r.take_usize()?,
                misalignment: r.take_usize()?,
            });
        }
        Ok(Self {
            classifier,
            store,
            n,
            decisions,
            awaiting_alignment,
            confirmed_raw,
            omitted,
            fresh: Vec::new(),
        })
    }

    /// Records freshly classified decisions and queues accepted beats for
    /// alignment confirmation. Bounded mode keeps only the queue — the
    /// decision log exists for the retaining result.
    fn absorb(&mut self, fresh: &mut Vec<PeakDecision>) {
        let retain = matches!(self.store, SignalStore::Retained(_));
        for d in fresh.drain(..) {
            if retain {
                self.decisions.push(d);
            }
            if matches!(d.class, PeakClass::Qrs | PeakClass::SearchBack) {
                self.awaiting_alignment.push_back(d);
            }
        }
    }

    /// Confirms queued beats whose HPF alignment window is complete (or
    /// every remaining beat when `finished`, with the window clipped at
    /// the record end exactly like the batch path).
    fn confirm_aligned(
        &mut self,
        finished: bool,
        max_misalignment: usize,
        events: &mut Vec<StreamEvent>,
    ) {
        let n = self.n;
        while let Some(&d) = self.awaiting_alignment.front() {
            let expected = d.index.saturating_sub(HPF_TO_MWI_DELAY);
            if !finished && n < expected + ALIGNMENT_SEARCH + 1 {
                break;
            }
            self.awaiting_alignment.pop_front();
            let alignment = match &self.store {
                SignalStore::Retained(signals) => {
                    check_alignment(&signals.hpf, d.index, max_misalignment)
                }
                SignalStore::Bounded { hpf } => {
                    check_alignment_with(hpf.len_total(), |i| hpf.get(i), d.index, max_misalignment)
                }
            };
            let retain = matches!(self.store, SignalStore::Retained(_));
            match alignment {
                Alignment::Ok { hpf_index } => {
                    let raw = hpf_index.saturating_sub(PRE_PROCESSING_DELAY);
                    if retain {
                        self.confirmed_raw.push(raw);
                    }
                    events.push(StreamEvent::RPeak {
                        raw,
                        mwi_index: d.index,
                        hpf_index,
                    });
                }
                Alignment::Misaligned {
                    hpf_index,
                    misalignment,
                } => {
                    let beat = OmittedBeat {
                        mwi_index: d.index,
                        hpf_index,
                        misalignment,
                    };
                    if retain {
                        self.omitted.push(beat);
                    }
                    events.push(StreamEvent::Omitted(beat));
                }
            }
        }
    }

    /// Advances the bounded HPF ring past everything no future alignment
    /// check or search-back can read: the oldest live MWI reference (a
    /// queued beat, a retained candidate, or the pending peak — future
    /// local maxima can only appear at `n − 1` or later) minus the
    /// alignment window reach (`HPF_TO_MWI_DELAY + ALIGNMENT_SEARCH`
    /// samples).
    fn prune_bounded(&mut self) {
        let SignalStore::Bounded { hpf } = &mut self.store else {
            return;
        };
        let mut keep_from = self.n.saturating_sub(2);
        if let Some(i) = self.classifier.earliest_live_index() {
            keep_from = keep_from.min(i);
        }
        if let Some(d) = self.awaiting_alignment.front() {
            keep_from = keep_from.min(d.index);
        }
        hpf.prune_below(keep_from.saturating_sub(HPF_TO_MWI_DELAY + ALIGNMENT_SEARCH));
    }
}

/// Serializes one [`PeakDecision`] (index, amplitude, class code).
fn put_decision(w: &mut Writer, d: &PeakDecision) {
    w.put_usize(d.index);
    w.put_i64(d.amplitude);
    w.put_u8(match d.class {
        PeakClass::Qrs => 0,
        PeakClass::SearchBack => 1,
        PeakClass::Noise => 2,
        PeakClass::TWave => 3,
    });
}

/// Inverse of [`put_decision`].
fn take_decision(r: &mut Reader<'_>) -> Result<PeakDecision, SnapshotError> {
    let index = r.take_usize()?;
    let amplitude = r.take_i64()?;
    let class = match r.take_u8()? {
        0 => PeakClass::Qrs,
        1 => PeakClass::SearchBack,
        2 => PeakClass::Noise,
        3 => PeakClass::TWave,
        _ => return Err(SnapshotError::Corrupt("unknown peak class code")),
    };
    Ok(PeakDecision {
        index,
        amplitude,
        class,
    })
}

/// The push-based five-stage QRS detector: a thin facade over a one-lane
/// [`LaneBank`] on one shared [`DetectorEngine`].
///
/// See the [module docs](self) for the equivalence contract, the memory
/// policies, and latency bounds, and [`crate::QrsDetector`] for the batch
/// counterpart.
#[derive(Debug, Clone)]
pub struct StreamingQrsDetector {
    bank: LaneBank,
}

impl StreamingQrsDetector {
    /// Creates a streaming detector for the given pipeline configuration
    /// (which selects the arithmetic, the [`Footprint`] policy, the
    /// thresholding, and the alignment tolerance), compiling a private
    /// engine. To share one engine across many sessions, use
    /// [`StreamingQrsDetector::from_engine`].
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Self::from_engine(Arc::new(DetectorEngine::new(config)))
    }

    /// Creates a session over an already-compiled shared engine. This is
    /// the fleet shape: one [`DetectorEngine`] (configuration + tap
    /// tables, billed once) drives any number of sessions, each paying
    /// only [`StreamingQrsDetector::state_bytes`].
    #[must_use]
    pub fn from_engine(engine: Arc<DetectorEngine>) -> Self {
        Self {
            bank: LaneBank::new(engine, 1),
        }
    }

    /// The shared engine this session runs on.
    #[must_use]
    pub fn engine(&self) -> &Arc<DetectorEngine> {
        self.bank.engine()
    }

    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        self.engine().config()
    }

    /// The memory-retention policy this detector runs under.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        self.config().footprint()
    }

    /// Samples pushed so far.
    #[must_use]
    pub fn samples_seen(&self) -> usize {
        self.bank.samples_seen(0)
    }

    /// Total pipeline group delay in samples (MWI coordinates − raw
    /// coordinates); 37 for the paper's stages.
    #[must_use]
    pub fn total_delay(&self) -> usize {
        self.engine().total_delay()
    }

    /// Worst-case samples between an R-peak's MWI-signal position and the
    /// emission of its [`StreamEvent::RPeak`], once the startup gate
    /// ([`StreamingQrsDetector::startup_samples`]) has passed. Search-back
    /// recoveries are exempt (see the [module docs](self)).
    ///
    /// Relative to the *raw* beat position, add
    /// [`StreamingQrsDetector::total_delay`].
    #[must_use]
    pub fn max_event_lag(&self) -> usize {
        // Candidate finality vs. alignment-window completion — whichever
        // bound binds.
        let finality = self.config().threshold().peak_spacing + 1;
        let alignment = (ALIGNMENT_SEARCH + 1).saturating_sub(HPF_TO_MWI_DELAY);
        finality.max(alignment)
    }

    /// Samples before any event can be emitted: the SPK/NPK learning
    /// window plus the classifier's minimum-signal-length gate.
    #[must_use]
    pub fn startup_samples(&self) -> usize {
        let threshold = self.config().threshold();
        threshold.learning.max(2 * threshold.peak_spacing + 1)
    }

    /// Heap bytes owned by this detector right now: stage delay lines, the
    /// signal store (full vectors when retaining, the pruned HPF ring when
    /// bounded), the classifier's candidate state and the event queues.
    /// Excludes the shared engine, the process-wide residual tables (see
    /// [`StreamingQrsDetector::shared_table_bytes`]) and the block scratch
    /// every push on the thread borrows (see [`crate::block_scratch_bytes`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bank.state_bytes() - std::mem::size_of::<LaneBank>()
    }

    /// Total live per-session state in bytes: the facade struct plus
    /// [`StreamingQrsDetector::heap_bytes`] — the one-lane bank's
    /// [`LaneBank::state_bytes`]. Under [`Footprint::Bounded`] this stays
    /// flat in the record length; under [`Footprint::Retain`] it grows
    /// linearly. The shared engine is reported separately by
    /// [`DetectorEngine::engine_bytes`] — billed once per configuration,
    /// not per session — and the block scratch by
    /// [`crate::block_scratch_bytes`], once per thread. The CI budget gate
    /// `ext_memory_footprint --check` holds this plus the thread's scratch
    /// to 64 KiB.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }

    /// Bytes of the distinct shared residual tables the FIR taps and the
    /// squarer reference — each counted once, even when two stages share
    /// it (LPF and HPF at the same LSB depth share e.g. the |1| residual).
    /// These live behind `Arc`s in a process-wide cache keyed by `(width,
    /// LSBs, kinds, |coefficient| or square)` and are shared by every detector with the
    /// same configuration — amortised state, reported separately from
    /// [`StreamingQrsDetector::state_bytes`] for honesty.
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        self.engine().shared_table_bytes()
    }

    /// Convenience driver: streams a whole record through a fresh detector
    /// in `chunk_size`-sample pushes and returns the full event sequence
    /// plus the final result. One-stop equivalent of
    /// `new(config)` + repeated [`StreamingQrsDetector::push`] +
    /// [`StreamingQrsDetector::finish`].
    #[must_use]
    pub fn detect_chunked(
        config: PipelineConfig,
        samples: &[i32],
        chunk_size: usize,
    ) -> (Vec<StreamEvent>, DetectionResult) {
        let mut detector = Self::new(config);
        let mut events = Vec::new();
        for chunk in samples.chunks(chunk_size.max(1)) {
            events.extend(detector.push(chunk));
        }
        let (trailing, result) = detector.finish();
        events.extend(trailing);
        (events, result)
    }

    /// Feeds a chunk of raw samples (any size, down to one) and returns
    /// the events that became final.
    pub fn push(&mut self, chunk: &[i32]) -> Vec<StreamEvent> {
        self.bank.push_impl(chunk, None, |_, event| event)
    }

    /// Like [`StreamingQrsDetector::push`], additionally appending the
    /// chunk's HPF outputs (the paper's pre-processed signal, the
    /// PSNR/SSIM evaluation point) to `hpf_out`. This is how quality gates
    /// read the pre-processing output of a [`Footprint::Bounded`] run,
    /// whose final result carries no signal vectors — the evaluator's
    /// record-batched path streams the HPF tap into a reusable scratch
    /// buffer instead of retaining five full signals per detector.
    pub fn push_tapped(&mut self, chunk: &[i32], hpf_out: &mut Vec<i64>) -> Vec<StreamEvent> {
        let taps = Some(std::slice::from_mut(hpf_out));
        self.bank.push_impl(chunk, taps, |_, event| event)
    }

    /// Ends the stream: flushes the classifier and the alignment queue
    /// (clipping the final alignment windows at the record end, as the
    /// batch path does) and returns the trailing events together with the
    /// complete [`DetectionResult`].
    ///
    /// Under [`Footprint::Retain`] the result equals
    /// [`crate::QrsDetector::detect`] over the concatenated input in every
    /// field. Under [`Footprint::Bounded`] the result is slim — counters
    /// and delay only, with empty peak/decision lists and
    /// [`DetectionResult::signals`] `None` (the event stream, which is
    /// identical to the retaining mode's, carries the beats).
    #[must_use]
    pub fn finish(mut self) -> (Vec<StreamEvent>, DetectionResult) {
        self.bank.finish_lane(0)
    }

    /// Like [`StreamingQrsDetector::finish`], but leaves the detector
    /// ready for the next record instead of consuming it: configuration
    /// and compiled taps are kept, while all signal state,
    /// counters, and classifier state reset — the returned result and
    /// subsequent pushes are bit-for-bit what a freshly constructed
    /// detector would produce. This is the record-batched evaluation
    /// workhorse: one detector (one set of table handles, one set of
    /// buffers) drives an entire corpus.
    #[must_use]
    pub fn finish_reset(&mut self) -> (Vec<StreamEvent>, DetectionResult) {
        self.bank.finish_lane(0)
    }

    /// Serializes the complete live session state into a versioned,
    /// endian-fixed blob (see [`crate::snapshot`] for the format) — the
    /// one session codec, [`LaneBank::snapshot_lane`] of the bank's only
    /// lane. The blob captures all live session state — delay rings, the
    /// classifier's adaptive state, the footprint's signal store,
    /// per-stage counters — so that [`StreamingQrsDetector::restore`] on
    /// any host, or [`LaneBank::restore_lane`] into any bank, resumes the
    /// stream bit-identically: same future events, same decisions, same
    /// final counters as the uninterrupted run.
    ///
    /// Snapshots may be taken at any `push` boundary, including inside the
    /// warmup/learning window.
    ///
    /// # Errors
    ///
    /// A [`SnapshotError`] if the lane has no live state to capture.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        self.bank.snapshot_lane(0)
    }

    /// Rebuilds a live session from a snapshot blob — this detector's or
    /// any bank lane's — over a shared engine. The engine's configuration
    /// must be the one the blob was taken under (checked via
    /// [`crate::PipelineConfig::fingerprint`]); the restored session then
    /// continues exactly where the source left off.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] [`LaneBank::restore_lane`] reports: truncated
    /// or tampered blobs, wrong codec version, wrong configuration, or a
    /// structurally invalid body (including counters that contradict the
    /// sample count). On error nothing is constructed; corrupt input can
    /// never produce a silently-diverging detector.
    pub fn restore(engine: Arc<DetectorEngine>, blob: &[u8]) -> Result<Self, SnapshotError> {
        let mut bank = LaneBank::new(engine, 1);
        bank.restore_lane(0, blob)?;
        Ok(Self { bank })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::QrsDetector;
    use crate::oracle;

    fn pulse_train(n: usize, period: usize, first: usize) -> Vec<i32> {
        let mut signal = vec![0i32; n];
        let mut at = first;
        while at + 4 < n {
            signal[at - 2] = -60;
            signal[at - 1] = 140;
            signal[at] = 260;
            signal[at + 1] = 120;
            signal[at + 2] = -80;
            at += period;
        }
        signal
    }

    fn run_streaming(
        config: PipelineConfig,
        signal: &[i32],
        chunk: usize,
    ) -> (Vec<StreamEvent>, DetectionResult) {
        StreamingQrsDetector::detect_chunked(config, signal, chunk)
    }

    /// The scalar reference run every test here anchors on: the stage
    /// objects, one sample at a time, never the lane kernels.
    fn reference(config: PipelineConfig, signal: &[i32]) -> (Vec<StreamEvent>, DetectionResult) {
        oracle::detect_chunked(config, signal, 64)
    }

    #[test]
    fn streaming_equals_batch_for_basic_chunkings() {
        let signal = pulse_train(3000, 170, 200);
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([8, 10, 2, 8, 16]),
        ] {
            let batch = QrsDetector::new(config).detect(&signal);
            assert_eq!(
                batch,
                reference(config, &signal).1,
                "config {config}: batch"
            );
            for chunk in [1usize, 7, 64, 997, signal.len()] {
                let (_, streamed) = run_streaming(config, &signal, chunk);
                assert_eq!(streamed, batch, "config {config} chunk {chunk}");
            }
        }
    }

    #[test]
    fn event_sequence_is_chunking_invariant() {
        let signal = pulse_train(2600, 160, 180);
        let config = PipelineConfig::least_energy([4, 4, 2, 4, 8]);
        let (reference, _) = reference(config, &signal);
        assert!(!reference.is_empty(), "no events at all");
        for chunk in [1usize, 3, 50, 311, signal.len()] {
            let (events, _) = run_streaming(config, &signal, chunk);
            assert_eq!(events, reference, "chunk {chunk}");
        }
    }

    #[test]
    fn events_match_final_result() {
        let signal = pulse_train(3000, 170, 200);
        let (events, result) = run_streaming(PipelineConfig::exact(), &signal, 11);
        let peaks: Vec<usize> = events.iter().filter_map(StreamEvent::r_peak).collect();
        assert_eq!(peaks, result.r_peaks(), "confirmation order vs r_peaks");
        let omitted: Vec<OmittedBeat> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Omitted(b) => Some(*b),
                StreamEvent::RPeak { .. } => None,
            })
            .collect();
        assert_eq!(omitted, result.omitted());
    }

    #[test]
    fn peaks_emitted_within_documented_latency() {
        let signal = pulse_train(4000, 170, 200);
        let mut det = StreamingQrsDetector::new(PipelineConfig::exact());
        let lag = det.max_event_lag();
        let startup = det.startup_samples();
        assert_eq!(lag, 21, "default peak_spacing 20 ⇒ lag 21");
        assert_eq!(startup, 400, "default learning window");
        assert_eq!(det.total_delay(), 37);
        let mut seen = 0usize;
        let mut emitted = 0usize;
        for &x in &signal {
            let events = det.push(&[x]);
            seen += 1;
            for e in events {
                if let StreamEvent::RPeak { mwi_index, .. } = e {
                    emitted += 1;
                    assert!(
                        seen <= (mwi_index + lag).max(startup),
                        "peak at MWI {mwi_index} emitted only at sample {seen}"
                    );
                    assert!(seen >= startup);
                }
            }
        }
        assert!(emitted >= 15, "only {emitted} peaks emitted mid-stream");
    }

    #[test]
    fn empty_and_tiny_streams_match_batch() {
        for len in [0usize, 1, 40, 100] {
            let signal = vec![50i32; len];
            let batch = QrsDetector::new(PipelineConfig::exact()).detect(&signal);
            let (events, streamed) = run_streaming(PipelineConfig::exact(), &signal, 1);
            assert_eq!(streamed, batch, "len {len}");
            assert_eq!(
                batch,
                reference(PipelineConfig::exact(), &signal).1,
                "len {len}"
            );
            assert!(events.is_empty());
        }
    }

    /// Sessions built from one shared engine behave exactly like fresh
    /// detectors, and the per-session bill excludes the engine.
    #[test]
    fn engine_shared_across_sessions_is_bit_identical() {
        let config =
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
        let engine = Arc::new(DetectorEngine::new(config));
        for signal in [pulse_train(2400, 170, 200), pulse_train(2400, 160, 230)] {
            let mut shared = StreamingQrsDetector::from_engine(Arc::clone(&engine));
            let mut events = Vec::new();
            for chunk in signal.chunks(23) {
                events.extend(shared.push(chunk));
            }
            let (trailing, result) = shared.finish();
            events.extend(trailing);
            let (fresh_events, fresh_result) = run_streaming(config, &signal, 23);
            assert_eq!(events, fresh_events, "shared-engine events diverged");
            assert_eq!(result, fresh_result, "shared-engine result diverged");
        }
        let session = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        assert!(
            session.state_bytes() < 10 * 1024,
            "per-session state {} should exclude the engine",
            session.state_bytes()
        );
        assert!(Arc::ptr_eq(session.engine(), &engine));
    }

    // ---- bounded-footprint mode -------------------------------------

    /// The bounded-mode contract: identical events for every chunking, a
    /// slim result whose counters still match the retaining run exactly.
    #[test]
    fn bounded_mode_is_event_identical_with_slim_result() {
        let signal = pulse_train(3000, 170, 200);
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        ] {
            let bounded_cfg = config.with_footprint(Footprint::Bounded);
            let (reference_events, retained) = reference(config, &signal);
            for chunk in [1usize, 17, 499, signal.len()] {
                let (events, slim) = run_streaming(bounded_cfg, &signal, chunk);
                assert_eq!(events, reference_events, "{config} chunk {chunk}");
                assert!(slim.signals().is_none(), "bounded result kept signals");
                assert!(slim.r_peaks().is_empty(), "bounded result kept peaks");
                assert!(slim.decisions().is_empty(), "bounded result kept decisions");
                assert_eq!(slim.ops(), retained.ops(), "op counters diverged");
                assert_eq!(slim.saturations(), retained.saturations());
                assert_eq!(slim.add_overflows(), retained.add_overflows());
                assert_eq!(slim.total_delay(), retained.total_delay());
            }
        }
    }

    /// A weakened beat forces the search-back path; the bounded detector's
    /// pruned candidate list and HPF ring must still confirm it.
    #[test]
    fn bounded_mode_survives_search_back_at_rr_miss_boundary() {
        let mut signal = pulse_train(4000, 170, 200);
        // Attenuate two beats deep into the record into the
        // THRESHOLD2..THRESHOLD1 band (MWI energy scales quadratically, so
        // ×0.45 amplitude ≈ ×0.2 energy: below T1 ≈ 0.25·SPK, above
        // T2 ≈ 0.125·SPK) — missed on the first pass, recoverable by
        // search-back.
        for miss in [200usize + 10 * 170, 200 + 15 * 170] {
            for sample in &mut signal[miss - 2..=miss + 2] {
                *sample = *sample * 9 / 20;
            }
        }
        let config = PipelineConfig::exact();
        let batch = QrsDetector::new(config).detect(&signal);
        assert!(
            batch
                .decisions()
                .iter()
                .any(|d| d.class == PeakClass::SearchBack),
            "workload failed to trigger search-back"
        );
        let (reference_events, _) = reference(config, &signal);
        for chunk in [1usize, 13, 999] {
            let (events, _) =
                run_streaming(config.with_footprint(Footprint::Bounded), &signal, chunk);
            assert_eq!(events, reference_events, "chunk {chunk}");
        }
    }

    /// The measured O(1) bound: bounded-mode state does not grow with the
    /// record, while retaining-mode state does.
    #[test]
    fn bounded_state_is_flat_in_record_length() {
        let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
        let high_water = |footprint: Footprint, len: usize| -> usize {
            let signal = pulse_train(len, 170, 200);
            let mut det = StreamingQrsDetector::new(config.with_footprint(footprint));
            let mut peak = 0usize;
            for chunk in signal.chunks(64) {
                let _ = det.push(chunk);
                peak = peak.max(det.state_bytes());
            }
            peak
        };
        let bounded_short = high_water(Footprint::Bounded, 6_000);
        let bounded_long = high_water(Footprint::Bounded, 30_000);
        assert!(
            bounded_long <= bounded_short + 1024,
            "bounded state grew with the record: {bounded_short} -> {bounded_long}"
        );
        assert!(
            bounded_long < 64 * 1024,
            "bounded state {bounded_long} above the 64 KiB budget"
        );
        // Session state only: the block scratch a push borrows is billed to
        // the thread (6 200 B measured).
        assert!(
            bounded_long < 8 * 1024,
            "bounded state {bounded_long} bills more than the session"
        );
        let retained_short = high_water(Footprint::Retain, 6_000);
        let retained_long = high_water(Footprint::Retain, 30_000);
        assert!(
            retained_long > retained_short * 3,
            "retaining state should grow linearly: {retained_short} -> {retained_long}"
        );
        // The shared tables exist but are not billed to the detector.
        let det = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
        assert!(det.shared_table_bytes() > 0);
        // A fresh session: 3 672 B measured.
        assert!(det.state_bytes() < 4 * 1024, "{} bytes", det.state_bytes());
    }

    /// A residual two stages share (same LSB depth, same coefficient
    /// magnitude) is billed once in the detector-level total.
    #[test]
    fn shared_table_accounting_dedupes_across_stages() {
        // All stages at 4 LSBs: tap magnitudes are LPF {1..6}, HPF {1,31},
        // DER {1,2} (the zero tap compiles none), plus the squarer's own
        // residual — 11 per-stage residuals but only 8 distinct, each of
        // 2^4 entries.
        let det = StreamingQrsDetector::new(PipelineConfig::least_energy([4, 4, 4, 4, 4]));
        let table = (1 << 4) * 4;
        let per_stage_sum = 11 * table;
        assert_eq!(det.shared_table_bytes(), 8 * table);
        assert!(det.shared_table_bytes() < per_stage_sum);
    }

    /// `push_tapped` exposes exactly the HPF signal the retaining mode
    /// stores.
    #[test]
    fn hpf_tap_matches_retained_signal() {
        let signal = pulse_train(2200, 170, 200);
        let config = PipelineConfig::least_energy([4, 4, 2, 4, 8]);
        let (_, retained) = reference(config, &signal);
        let mut det = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
        let mut tap = Vec::new();
        for chunk in signal.chunks(33) {
            let _ = det.push_tapped(chunk, &mut tap);
        }
        let (_, slim) = det.finish();
        assert!(slim.signals().is_none());
        assert_eq!(
            tap,
            retained.expect_signals().hpf,
            "tap diverged from the retained HPF signal"
        );
    }

    /// `finish_reset` hands back a result and a detector whose next record
    /// is processed exactly as a fresh detector would.
    #[test]
    fn finish_reset_reuses_detector_bit_identically() {
        let first = pulse_train(2400, 170, 200);
        let second = pulse_train(2800, 160, 230);
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = PipelineConfig::least_energy([8, 10, 2, 8, 16]).with_footprint(footprint);
            let mut reused = StreamingQrsDetector::new(config);
            for chunk in first.chunks(19) {
                let _ = reused.push(chunk);
            }
            let (_, result_first) = reused.finish_reset();
            assert_eq!(reused.samples_seen(), 0, "reset did not clear the count");
            let mut events_second = Vec::new();
            for chunk in second.chunks(19) {
                events_second.extend(reused.push(chunk));
            }
            let (trailing, result_second) = reused.finish_reset();
            events_second.extend(trailing);

            let (fresh_events_first, fresh_first) = reference(config, &first);
            let (fresh_events_second, fresh_second) = reference(config, &second);
            assert_eq!(result_first, fresh_first, "{footprint:?}: first record");
            assert_eq!(result_second, fresh_second, "{footprint:?}: second record");
            assert_eq!(events_second, fresh_events_second, "{footprint:?}: events");
            assert!(!fresh_events_first.is_empty());
        }
    }

    /// Runs `signal` with a snapshot/drop/restore cycle at `cut`, returning
    /// the stitched event stream and final result.
    fn run_with_snapshot(
        config: PipelineConfig,
        signal: &[i32],
        cut: usize,
    ) -> (Vec<StreamEvent>, DetectionResult) {
        let engine = Arc::new(DetectorEngine::new(config));
        let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let mut events = det.push(&signal[..cut]);
        let blob = det.snapshot().expect("snapshot");
        drop(det);
        let mut det = StreamingQrsDetector::restore(engine, &blob).expect("restore");
        events.extend(det.push(&signal[cut..]));
        let (trailing, result) = det.finish();
        events.extend(trailing);
        (events, result)
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let signal = pulse_train(3000, 170, 200);
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(footprint);
            let reference = reference(config, &signal);
            for cut in [1usize, 137, 1024, 2999] {
                let resumed = run_with_snapshot(config, &signal, cut);
                assert_eq!(resumed, reference, "{footprint:?} cut {cut}");
            }
        }
    }

    /// Snapshots are canonical: re-encoding a restored session reproduces
    /// the source blob byte for byte.
    #[test]
    fn snapshot_of_restored_session_is_byte_identical() {
        let signal = pulse_train(2000, 170, 200);
        let config =
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
        let engine = Arc::new(DetectorEngine::new(config));
        let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let _ = det.push(&signal[..1500]);
        let blob = det.snapshot().expect("snapshot");
        let restored = StreamingQrsDetector::restore(engine, &blob).expect("restore");
        assert_eq!(restored.snapshot().expect("re-snapshot"), blob);
    }

    /// Satellite 4: a snapshot inside the learning window (first 400
    /// samples at the default 200 Hz thresholds) resumes exactly — the
    /// learning accumulator, seed maximum, and unseeded kernel all travel.
    #[test]
    fn snapshot_inside_warmup_resumes_exactly() {
        let signal = pulse_train(2600, 170, 200);
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded),
        ] {
            let reference = reference(config, &signal);
            for cut in [37usize, 150, 399, 400] {
                let resumed = run_with_snapshot(config, &signal, cut);
                assert_eq!(resumed, reference, "warmup cut {cut}");
            }
        }
    }

    /// Satellite 4: snapshots straddling a search-back recovery — right at
    /// the missed beats and around the RR-miss trigger — resume exactly,
    /// in both footprints (the bounded HPF ring must travel with enough
    /// history for the alignment search).
    #[test]
    fn snapshot_at_search_back_rr_miss_boundary_resumes_exactly() {
        let mut signal = pulse_train(4000, 170, 200);
        let misses = [200usize + 10 * 170, 200 + 15 * 170];
        for miss in misses {
            for sample in &mut signal[miss - 2..=miss + 2] {
                *sample = *sample * 9 / 20;
            }
        }
        let config = PipelineConfig::exact();
        let batch = QrsDetector::new(config).detect(&signal);
        assert!(
            batch
                .decisions()
                .iter()
                .any(|d| d.class == PeakClass::SearchBack),
            "workload failed to trigger search-back"
        );
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = config.with_footprint(footprint);
            let reference = reference(config, &signal);
            for cut in [
                misses[0] - 1,
                misses[0] + 40,
                misses[1],
                misses[1] + 170, // inside the window the RR-miss scan covers
            ] {
                let resumed = run_with_snapshot(config, &signal, cut);
                assert_eq!(resumed, reference, "{footprint:?} cut {cut}");
            }
        }
    }

    /// Satellite 4: hostile blobs — truncations at every prefix length,
    /// bit flips in header and body, a bumped version, the wrong config —
    /// fail with typed errors and never construct a detector; a finished
    /// session refuses to snapshot.
    #[test]
    fn hostile_blobs_fail_typed_and_finished_sessions_refuse() {
        let signal = pulse_train(1400, 170, 200);
        let config = PipelineConfig::exact();
        let engine = Arc::new(DetectorEngine::new(config));
        let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let _ = det.push(&signal);
        let blob = det.snapshot().expect("snapshot");

        // Every strict prefix fails and never panics.
        for len in 0..blob.len() {
            assert!(
                StreamingQrsDetector::restore(Arc::clone(&engine), &blob[..len]).is_err(),
                "truncated blob of {len} bytes restored"
            );
        }
        // Flip a bit in every header byte and a sweep of body bytes.
        for at in (0..crate::snapshot::HEADER_BYTES)
            .chain((crate::snapshot::HEADER_BYTES..blob.len()).step_by(97))
        {
            let mut bad = blob.clone();
            bad[at] ^= 0x40;
            assert!(
                StreamingQrsDetector::restore(Arc::clone(&engine), &bad).is_err(),
                "bit flip at {at} accepted"
            );
        }
        // A future codec version is refused by number.
        let mut future = blob.clone();
        future[4] = (crate::snapshot::VERSION + 1) as u8;
        assert!(matches!(
            StreamingQrsDetector::restore(Arc::clone(&engine), &future),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        // Wrong configuration is refused by fingerprint.
        let other = Arc::new(DetectorEngine::new(
            config.with_footprint(Footprint::Bounded),
        ));
        assert!(matches!(
            StreamingQrsDetector::restore(other, &blob),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
        // Trailing garbage is refused even below the checksum.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(StreamingQrsDetector::restore(Arc::clone(&engine), &padded).is_err());

        // After `finish_reset` the fresh session snapshots again (a lane
        // finished without the reset refuses: see lane.rs's
        // `finished_tail_refuses_to_snapshot`).
        let (_, _) = det.finish_reset();
        let _ = det.push(&signal[..64]);
        assert!(det.snapshot().is_ok(), "reset session must snapshot again");
    }

    /// A re-sealed blob whose LPF multiply count is off by one passes every
    /// container check (its checksum is fresh) but contradicts its sample
    /// count: the solo and the lane restore both refuse it, with the same
    /// typed error, because they are one decoder.
    #[test]
    fn tampered_op_counts_fail_solo_and_lane_restores_alike() {
        use crate::stages::mwi::WINDOW;
        let signal = pulse_train(1400, 170, 200);
        let config =
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
        let engine = Arc::new(DetectorEngine::new(config));
        let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let _ = det.push(&signal);
        let blob = det.snapshot().expect("snapshot");

        // The body opens with four length-prefixed i64 sequences (LPF, HPF
        // and derivative rings, MWI window), then per stage: adds, muls,
        // saturations, overflows.
        let seq = |n: usize| 8 + 8 * n;
        let rings = seq(engine.lpf_program().taps().len())
            + seq(engine.hpf_program().taps().len())
            + seq(engine.der_program().taps().len())
            + seq(WINDOW);
        let at = crate::snapshot::HEADER_BYTES + rings + 8;
        let mut muls = [0u8; 8];
        muls.copy_from_slice(&blob[at..at + 8]);
        let muls = u64::from_le_bytes(muls);
        assert_eq!(
            muls,
            11 * 1400,
            "offset must land on the LPF multiply count"
        );
        let mut body = blob[crate::snapshot::HEADER_BYTES..].to_vec();
        let at = at - crate::snapshot::HEADER_BYTES;
        body[at..at + 8].copy_from_slice(&(muls + 1).to_le_bytes());
        let tampered = crate::snapshot::seal(config.fingerprint(), &body);

        let expected = Some(SnapshotError::Corrupt(
            "stage operation counts do not match the sample count",
        ));
        assert_eq!(
            StreamingQrsDetector::restore(Arc::clone(&engine), &tampered).err(),
            expected,
            "solo restore accepted tampered op counts"
        );
        let mut bank = LaneBank::new(Arc::clone(&engine), 2);
        assert_eq!(bank.restore_lane(1, &tampered).err(), expected);
        assert!(StreamingQrsDetector::restore(engine, &blob).is_ok());
    }
}
