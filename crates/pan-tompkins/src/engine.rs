//! The shared, immutable half of the state/engine detector split.
//!
//! A [`DetectorEngine`] holds everything about a detection pipeline that
//! does not change while samples flow: the [`PipelineConfig`] and the five
//! stages' compiled programs — FIR taps, per-tap and squarer residual
//! handles, and arithmetic blocks. Construct it **once** and share it behind an [`Arc`]
//! across any number of sessions: each lane of a [`crate::LaneBank`] (a
//! [`crate::StreamingQrsDetector`] is a one-lane bank) carries only the
//! mutable per-session state (delay lines, classifier, counters), so the
//! per-session cost stays at the bounded footprint while tap compilation
//! and configuration are billed once per engine — see
//! [`DetectorEngine::engine_bytes`].

use std::sync::Arc;

use approx_arith::SquareMultiplier;

use crate::arith::ArithProgram;
use crate::config::{PipelineConfig, StageKind};
use crate::fir::FirProgram;
use crate::stages::{derivative, hpf, lpf, mwi};

/// The compiled, shareable half of a detector: configuration plus the five
/// stage programs. Cheap to clone (the programs are `Arc`-shared); usually
/// held in an `Arc` itself and handed to [`crate::StreamingQrsDetector::
/// from_engine`] or [`crate::LaneBank::new`].
#[derive(Debug, Clone)]
pub struct DetectorEngine {
    config: PipelineConfig,
    lpf: Arc<FirProgram>,
    hpf: Arc<FirProgram>,
    der: Arc<FirProgram>,
    sqr: Arc<ArithProgram>,
    /// The squarer's multiplier as an exact square plus its residual —
    /// compiled for the squarer stage only (the MWI has no multiplier).
    square: SquareMultiplier,
    mwi: Arc<ArithProgram>,
}

impl DetectorEngine {
    /// Compiles the stage programs (including the residuals of the three
    /// FIR stages' taps and of the squarer) for one pipeline configuration,
    /// from the paper's stage constants ([`crate::stages`]).
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        let fir =
            |kind, taps: &[i64], gain| Arc::new(FirProgram::new(taps, gain, config.stage(kind)));
        let sqr = ArithProgram::new(config.stage(StageKind::Squarer));
        Self {
            lpf: fir(StageKind::Lpf, &lpf::TAPS, lpf::GAIN),
            hpf: fir(StageKind::Hpf, &hpf::TAPS, hpf::GAIN),
            der: fir(StageKind::Derivative, &derivative::TAPS, derivative::GAIN),
            square: sqr.compile_square(),
            sqr: Arc::new(sqr),
            mwi: Arc::new(ArithProgram::new(config.stage(StageKind::Mwi))),
            config,
        }
    }

    /// The pipeline configuration this engine was compiled from — the
    /// single source of truth for arithmetic, footprint, thresholding,
    /// and alignment knobs.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The low-pass filter's compiled program.
    #[must_use]
    pub fn lpf_program(&self) -> &Arc<FirProgram> {
        &self.lpf
    }

    /// The high-pass filter's compiled program.
    #[must_use]
    pub fn hpf_program(&self) -> &Arc<FirProgram> {
        &self.hpf
    }

    /// The derivative filter's compiled program.
    #[must_use]
    pub fn der_program(&self) -> &Arc<FirProgram> {
        &self.der
    }

    /// The squarer's arithmetic program.
    #[must_use]
    pub fn sqr_program(&self) -> &Arc<ArithProgram> {
        &self.sqr
    }

    /// The squarer's compiled multiplier (exact square plus residual).
    pub(crate) fn square(&self) -> &SquareMultiplier {
        &self.square
    }

    /// The moving-window integrator's arithmetic program.
    #[must_use]
    pub fn mwi_program(&self) -> &Arc<ArithProgram> {
        &self.mwi
    }

    /// Total pipeline group delay in samples (MWI coordinates − raw
    /// coordinates); 37 for the paper's stages.
    #[must_use]
    pub fn total_delay(&self) -> usize {
        // SQR is point-wise (0); the MWI window contributes (N − 1) / 2.
        self.lpf.group_delay()
            + self.hpf.group_delay()
            + self.der.group_delay()
            + (mwi::WINDOW - 1) / 2
    }

    /// Bytes owned by this engine: the struct plus the five stage programs
    /// (taps, residual handles, arithmetic blocks). Billed once per
    /// configuration, no matter how many sessions/lanes share the engine —
    /// the per-session cost is [`crate::StreamingQrsDetector::state_bytes`]
    /// or [`crate::LaneBank::lane_state_bytes`].
    /// Excludes the process-wide shared residuals
    /// ([`DetectorEngine::shared_table_bytes`]).
    #[must_use]
    pub fn engine_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.lpf.program_bytes()
            + self.hpf.program_bytes()
            + self.der.program_bytes()
            + 2 * std::mem::size_of::<ArithProgram>()
    }

    /// Bytes of the distinct process-wide shared residuals the FIR taps and
    /// the squarer reference — each counted once, even when two stages
    /// share it (LPF and HPF at the same LSB depth share e.g. the |1|
    /// residual).
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        let mut seen = Vec::new();
        self.lpf.collect_shared_tables(&mut seen)
            + self.hpf.collect_shared_tables(&mut seen)
            + self.der.collect_shared_tables(&mut seen)
            + self.square.shared_table_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_reports_paper_delay_and_config() {
        let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
        let engine = DetectorEngine::new(config);
        assert_eq!(engine.total_delay(), 37);
        assert_eq!(*engine.config(), config);
        assert_eq!(engine.lpf_program().taps().len(), 11);
        assert_eq!(engine.hpf_program().taps().len(), 32);
        assert_eq!(engine.der_program().taps().len(), 5);
    }

    #[test]
    fn engine_bytes_are_small_and_shared_tables_separate() {
        let engine = DetectorEngine::new(PipelineConfig::least_energy([4, 4, 4, 4, 4]));
        // Taps + handles only: well under the per-session budget.
        assert!(
            engine.engine_bytes() < 8 * 1024,
            "{}",
            engine.engine_bytes()
        );
        // 7 distinct tap magnitudes across LPF/HPF/DER at one LSB depth
        // (see the streaming dedupe test) plus the squarer, each residual
        // 2^k entries at k = 4.
        let residual = (1 << 4) * 4;
        assert_eq!(engine.shared_table_bytes(), 7 * residual + residual);
        // The paper's B9: LPF k = 10 over |1|..|6|, HPF k = 12 over |1|
        // and |31|, DER k = 2 over |1| and |2|, and the squarer at k = 8.
        let b9 = DetectorEngine::new(PipelineConfig::least_energy([10, 12, 2, 8, 16]));
        let entries = 6 * (1 << 10) + 2 * (1 << 12) + 2 * (1 << 2) + (1 << 8);
        assert_eq!(b9.shared_table_bytes(), entries * 4);
        let exact = DetectorEngine::new(PipelineConfig::exact());
        assert_eq!(
            exact.shared_table_bytes(),
            0,
            "exact stages need no residual"
        );
        // Cloning shares the programs rather than recompiling them.
        let clone = engine.clone();
        assert!(Arc::ptr_eq(engine.lpf_program(), clone.lpf_program()));
    }
}
