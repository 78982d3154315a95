//! Pipeline configuration: one approximation triple per stage, plus the
//! datapath and detector knobs.
//!
//! Every stage multiplies through the compiled word-level engine and every
//! decision runs the integer [`crate::decision::FixedDecision`] kernel, so
//! neither is a knob: the references they are checked against (the
//! bit-level netlist in `approx_arith`, the `f64` transcription in
//! [`crate::oracle`]) are test oracles, not configurations.

use std::fmt;

use approx_arith::StageArith;

use crate::threshold::ThresholdConfig;

/// Default tolerance (in samples) of the HPF↔MWI peak-alignment cross-check
/// (see [`crate::detector`]) — about 100 ms at 200 Hz.
pub const DEFAULT_MAX_MISALIGNMENT: usize = 20;

/// Memory-retention policy of a detection run — what the detector keeps
/// beyond the state strictly needed to emit the next event.
///
/// The paper's deployment target is a sensor node with kilobytes of RAM;
/// the default [`Footprint::Retain`] keeps every intermediate signal for
/// offline analysis (Figs 10/13), while [`Footprint::Bounded`] holds only
/// ring buffers sized by the stage windows plus the still-revisitable
/// candidate peaks, so the live state measured by
/// [`crate::StreamingQrsDetector::state_bytes`] stays O(1) in the record
/// length. The emitted [`crate::StreamEvent`] stream is bit-for-bit
/// identical under both policies; only the final
/// [`crate::DetectionResult`] slims down (no signal vectors, no decision
/// lists). The policy is honored by the streaming detector — the batch
/// [`crate::QrsDetector::detect`] necessarily materialises whole signals
/// and always retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Footprint {
    /// Keep all stage signals, decisions, and beats in the result (the
    /// analysis shape).
    #[default]
    Retain,
    /// Keep only windowed state; results are delivered through the event
    /// stream (the on-device shape).
    Bounded,
}

/// Identifies one of the five Pan-Tompkins stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageKind {
    /// Stage A: low-pass filter.
    Lpf,
    /// Stage B: high-pass filter.
    Hpf,
    /// Stage C: derivative.
    Derivative,
    /// Stage D: squarer.
    Squarer,
    /// Stage E: moving-window integrator.
    Mwi,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Lpf,
        StageKind::Hpf,
        StageKind::Derivative,
        StageKind::Squarer,
        StageKind::Mwi,
    ];

    /// Index in pipeline order (0..5).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StageKind::Lpf => 0,
            StageKind::Hpf => 1,
            StageKind::Derivative => 2,
            StageKind::Squarer => 3,
            StageKind::Mwi => 4,
        }
    }

    /// Short display name (the paper's LPF/HPF/DER/SQR/MWI).
    #[must_use]
    pub fn short_name(self) -> &'static str {
        ["LPF", "HPF", "DER", "SQR", "MWI"][self.index()]
    }

    /// Number of multiplier blocks in the stage netlist.
    #[must_use]
    pub fn multipliers(self) -> u32 {
        [11, 32, 4, 1, 0][self.index()]
    }

    /// Number of adder blocks in the stage netlist.
    #[must_use]
    pub fn adders(self) -> u32 {
        [10, 31, 3, 0, 29][self.index()]
    }

    /// The largest number of approximable LSBs the paper allows this stage
    /// (its per-stage `LSBList` bound: LPF/HPF sweep to 16, and §6.2
    /// "limiting the number of approximable LSBs to 4, 8, and 16, for the
    /// differentiator, squarer, and moving average stages").
    #[must_use]
    pub fn max_approx_lsbs(self) -> u32 {
        [16, 16, 4, 8, 16][self.index()]
    }

    /// Whether the stage belongs to data pre-processing (LPF+HPF) or signal
    /// processing (DER+SQR+MWI) — the boundary between the paper's two
    /// quality-evaluation points.
    #[must_use]
    pub fn is_pre_processing(self) -> bool {
        matches!(self, StageKind::Lpf | StageKind::Hpf)
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Full pipeline configuration: per-stage approximation triples plus the
/// input normalisation shift.
///
/// # Example
///
/// ```
/// use pan_tompkins::{PipelineConfig, StageKind};
/// use approx_arith::StageArith;
///
/// let exact = PipelineConfig::exact();
/// assert!(exact.is_exact());
///
/// // The paper's design B9: LSBs (10, 12, 2, 8, 16) with ApproxAdd5/AppMultV1.
/// let b9 = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
/// assert_eq!(b9.stage(StageKind::Hpf).approx_lsbs, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    stages: [StageArith; 5],
    /// Left-shift applied to input samples before the LPF (exact). MIT-gain
    /// records (~200 counts/mV) are shifted to occupy the 16-bit datapath
    /// the paper's ADC implies; see `DESIGN.md` §4.
    pub input_shift: u32,
    /// Memory-retention policy the streaming detector runs under.
    footprint: Footprint,
    /// Detection-threshold timing parameters (refractory, T-wave window,
    /// learning phase, search-back factor — see [`ThresholdConfig`]).
    threshold: ThresholdConfig,
    /// Tolerance (samples) of the HPF↔MWI alignment cross-check.
    max_misalignment: usize,
}

impl PipelineConfig {
    /// Default input normalisation: ×16 brings MIT-BIH-gain samples
    /// (≈±300 counts) to ≈±5000, the scale at which the paper's per-stage
    /// LSB thresholds (LPF breaks past 14 approximated LSBs, the derivative
    /// past 4) reproduce; see `DESIGN.md` §4 and `EXPERIMENTS.md`.
    pub const DEFAULT_INPUT_SHIFT: u32 = 4;

    /// The fully exact pipeline.
    #[must_use]
    pub fn exact() -> Self {
        Self {
            stages: [StageArith::exact(); 5],
            input_shift: Self::DEFAULT_INPUT_SHIFT,
            footprint: Footprint::default(),
            threshold: ThresholdConfig::default(),
            max_misalignment: DEFAULT_MAX_MISALIGNMENT,
        }
    }

    /// A pipeline from explicit per-stage triples (pipeline order).
    #[must_use]
    pub fn from_stages(stages: [StageArith; 5]) -> Self {
        Self {
            stages,
            ..Self::exact()
        }
    }

    /// The paper's main experimental configuration: per-stage LSB counts
    /// with the least-energy modules (`ApproxAdd5`/`AppMultV1`) everywhere.
    #[must_use]
    pub fn least_energy(lsbs: [u32; 5]) -> Self {
        let mut stages = [StageArith::exact(); 5];
        for (slot, k) in stages.iter_mut().zip(lsbs) {
            *slot = if k == 0 {
                StageArith::exact()
            } else {
                StageArith::least_energy(k)
            };
        }
        Self::from_stages(stages)
    }

    /// The approximation triple of one stage.
    #[must_use]
    pub fn stage(&self, kind: StageKind) -> StageArith {
        self.stages[kind.index()]
    }

    /// Replaces one stage's triple.
    #[must_use]
    pub fn with_stage(mut self, kind: StageKind, arith: StageArith) -> Self {
        self.stages[kind.index()] = arith;
        self
    }

    /// Selects the memory-retention policy (see [`Footprint`]).
    #[must_use]
    pub fn with_footprint(mut self, footprint: Footprint) -> Self {
        self.footprint = footprint;
        self
    }

    /// The memory-retention policy the streaming detector runs under.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        self.footprint
    }

    /// Replaces the detection-threshold timing parameters (refractory,
    /// T-wave window, learning phase, search-back — see
    /// [`ThresholdConfig`]). This is the single source of truth: every
    /// detector construction path (batch, streaming, lane bank) reads the
    /// threshold from the pipeline configuration.
    #[must_use]
    pub fn with_threshold(mut self, threshold: ThresholdConfig) -> Self {
        self.threshold = threshold;
        self
    }

    /// The detection-threshold timing parameters.
    #[must_use]
    pub fn threshold(&self) -> ThresholdConfig {
        self.threshold
    }

    /// Replaces the tolerance (in samples) of the HPF↔MWI peak-alignment
    /// cross-check; beats misaligned further than this are omitted (the
    /// paper's Fig 13 failure mode).
    #[must_use]
    pub fn with_max_misalignment(mut self, samples: usize) -> Self {
        self.max_misalignment = samples;
        self
    }

    /// The alignment cross-check tolerance in samples.
    #[must_use]
    pub fn max_misalignment(&self) -> usize {
        self.max_misalignment
    }

    /// All five triples in pipeline order.
    #[must_use]
    pub fn stages(&self) -> [StageArith; 5] {
        self.stages
    }

    /// Per-stage approximated-LSB counts in pipeline order.
    #[must_use]
    pub fn lsb_vector(&self) -> [u32; 5] {
        let mut v = [0u32; 5];
        for (slot, s) in v.iter_mut().zip(self.stages) {
            *slot = s.approx_lsbs;
        }
        v
    }

    /// Whether every stage computes exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.stages.iter().all(StageArith::is_exact)
    }

    /// A stable 64-bit fingerprint of the complete configuration —
    /// FNV-1a over a canonical little-endian field encoding. Unlike
    /// `Hash`/`DefaultHasher` output, this value is identical across Rust
    /// versions, platforms, and processes, which is what lets a
    /// [`crate::snapshot`] blob written on one host refuse restoration
    /// into a detector built from a different configuration on another.
    ///
    /// Enum variants are encoded by their position in the respective
    /// stable `ALL`/declaration order, never by `as`-cast discriminants,
    /// so reordering source declarations cannot silently change blobs.
    /// Two bytes of the encoding are retired slots, always `0`: they once
    /// selected a multiplier engine and a decision arithmetic whose
    /// defaults encoded as `0`, so every fingerprint of a configuration
    /// that can still be built is unchanged.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use approx_arith::{FullAdderKind, Mult2x2Kind};

        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn fold(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(FNV_PRIME);
            }
        }
        fn pos<T: PartialEq>(all: &[T], v: &T) -> u8 {
            // Every variant is in its ALL table by construction; 0xFF would
            // only appear if a future variant forgot to register itself,
            // and then only as a distinct (still deterministic) code.
            all.iter().position(|x| x == v).unwrap_or(0xFF) as u8
        }

        let mut h = FNV_OFFSET;
        for s in &self.stages {
            fold(&mut h, &s.approx_lsbs.to_le_bytes());
            fold(&mut h, &[pos(&Mult2x2Kind::ALL, &s.mult_kind)]);
            fold(&mut h, &[pos(&FullAdderKind::ALL, &s.adder_kind)]);
        }
        fold(&mut h, &self.input_shift.to_le_bytes());
        // Retired slot: the multiplier engine.
        fold(&mut h, &[0]);
        fold(
            &mut h,
            &[match self.footprint {
                Footprint::Retain => 0,
                Footprint::Bounded => 1,
            }],
        );
        // Retired slot: the decision arithmetic.
        fold(&mut h, &[0]);
        let t = &self.threshold;
        fold(&mut h, &t.fs.to_bits().to_le_bytes());
        for window in [
            t.refractory,
            t.t_wave_window,
            t.learning,
            t.slope_window,
            t.peak_spacing,
            t.warmup,
        ] {
            fold(&mut h, &(window as u64).to_le_bytes());
        }
        fold(&mut h, &t.search_back_num.to_le_bytes());
        fold(&mut h, &t.search_back_den.to_le_bytes());
        fold(&mut h, &(self.max_misalignment as u64).to_le_bytes());
        h
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::exact()
    }
}

impl fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.lsb_vector();
        write!(
            f,
            "LSBs[LPF={}, HPF={}, DER={}, SQR={}, MWI={}]",
            v[0], v[1], v[2], v[3], v[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_metadata_matches_paper_counts() {
        assert_eq!(StageKind::Lpf.multipliers(), 11);
        assert_eq!(StageKind::Lpf.adders(), 10);
        assert_eq!(StageKind::Hpf.multipliers(), 32);
        assert_eq!(StageKind::Hpf.adders(), 31);
        assert_eq!(StageKind::Mwi.multipliers(), 0);
        assert_eq!(StageKind::Mwi.adders(), 29);
    }

    #[test]
    fn paper_lsb_bounds() {
        assert_eq!(StageKind::Lpf.max_approx_lsbs(), 16);
        assert_eq!(StageKind::Derivative.max_approx_lsbs(), 4);
        assert_eq!(StageKind::Squarer.max_approx_lsbs(), 8);
        assert_eq!(StageKind::Mwi.max_approx_lsbs(), 16);
    }

    #[test]
    fn pre_processing_boundary() {
        assert!(StageKind::Lpf.is_pre_processing());
        assert!(StageKind::Hpf.is_pre_processing());
        assert!(!StageKind::Derivative.is_pre_processing());
        assert!(!StageKind::Squarer.is_pre_processing());
        assert!(!StageKind::Mwi.is_pre_processing());
    }

    #[test]
    fn least_energy_config_round_trips_lsbs() {
        let cfg = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
        assert_eq!(cfg.lsb_vector(), [10, 12, 2, 8, 16]);
        assert!(!cfg.is_exact());
    }

    #[test]
    fn exact_config_is_exact() {
        assert!(PipelineConfig::exact().is_exact());
        assert_eq!(PipelineConfig::exact().lsb_vector(), [0; 5]);
        // Zero-LSB least-energy is also exact.
        assert!(PipelineConfig::least_energy([0; 5]).is_exact());
    }

    #[test]
    fn with_stage_replaces_one_entry() {
        let cfg =
            PipelineConfig::exact().with_stage(StageKind::Squarer, StageArith::least_energy(8));
        assert_eq!(cfg.lsb_vector(), [0, 0, 0, 8, 0]);
    }

    #[test]
    fn stage_order_is_pipeline_order() {
        let names: Vec<&str> = StageKind::ALL.iter().map(|s| s.short_name()).collect();
        assert_eq!(names, ["LPF", "HPF", "DER", "SQR", "MWI"]);
        for (i, k) in StageKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn footprint_defaults_to_retain_and_round_trips() {
        let cfg = PipelineConfig::exact();
        assert_eq!(cfg.footprint(), Footprint::Retain);
        let bounded = cfg.with_footprint(Footprint::Bounded);
        assert_eq!(bounded.footprint(), Footprint::Bounded);
        // The policy is orthogonal to the arithmetic configuration.
        assert_eq!(bounded.lsb_vector(), cfg.lsb_vector());
        assert_ne!(bounded, cfg, "footprint participates in identity");
    }

    #[test]
    fn threshold_and_misalignment_round_trip() {
        let cfg = PipelineConfig::exact();
        assert_eq!(cfg.threshold(), ThresholdConfig::default());
        assert_eq!(cfg.max_misalignment(), DEFAULT_MAX_MISALIGNMENT);
        let custom = cfg
            .with_threshold(ThresholdConfig::for_fs(360.0))
            .with_max_misalignment(0);
        assert_eq!(custom.threshold(), ThresholdConfig::for_fs(360.0));
        assert_eq!(custom.max_misalignment(), 0);
        // Both knobs participate in configuration identity.
        assert_ne!(custom, cfg);
        assert_ne!(cfg.with_max_misalignment(7), cfg);
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let base = PipelineConfig::exact();
        assert_eq!(base.fingerprint(), PipelineConfig::exact().fingerprint());
        // Every identity-bearing knob must move the fingerprint.
        assert_ne!(
            base.fingerprint(),
            base.with_footprint(Footprint::Bounded).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.with_max_misalignment(7).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.with_threshold(ThresholdConfig::for_fs(360.0))
                .fingerprint()
        );
    }

    #[test]
    fn display_shows_lsb_vector() {
        let cfg = PipelineConfig::least_energy([1, 2, 3, 4, 5]);
        let s = cfg.to_string();
        assert!(s.contains("HPF=2"));
        assert!(s.contains("MWI=5"));
    }
}
