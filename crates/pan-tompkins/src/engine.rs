//! The shared, immutable half of the state/engine detector split.
//!
//! A [`DetectorEngine`] holds everything about a detection pipeline that
//! does not change while samples flow: the [`PipelineConfig`] and the five
//! stages' compiled programs — FIR taps, per-tap product-table handles, and
//! arithmetic blocks. Construct it **once** and share it behind an [`Arc`]
//! across any number of sessions: each lane of a [`crate::LaneBank`] (a
//! [`crate::StreamingQrsDetector`] is a one-lane bank) carries only the
//! mutable per-session state (delay lines, classifier, counters), so the
//! per-session cost stays at the bounded footprint while tap compilation
//! and configuration are billed once per engine — see
//! [`DetectorEngine::engine_bytes`].

use std::sync::Arc;

use crate::arith::ArithProgram;
use crate::config::{PipelineConfig, StageKind};
use crate::fir::FirProgram;
use crate::stages::{
    mwi, Derivative, HighPassFilter, LowPassFilter, MovingWindowIntegrator, Squarer,
};

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
    mwi: Arc<ArithProgram>,
}

impl DetectorEngine {
    /// Compiles the stage programs (including the per-tap product tables of
    /// the three FIR stages) for one pipeline configuration.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            lpf: Arc::new(LowPassFilter::program(config.stage(StageKind::Lpf))),
            hpf: Arc::new(HighPassFilter::program(config.stage(StageKind::Hpf))),
            der: Arc::new(Derivative::program(config.stage(StageKind::Derivative))),
            sqr: Arc::new(Squarer::program(config.stage(StageKind::Squarer))),
            mwi: Arc::new(MovingWindowIntegrator::program(
                config.stage(StageKind::Mwi),
            )),
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
    /// (taps, tap-table handles, arithmetic blocks). Billed once per
    /// configuration, no matter how many sessions/lanes share the engine —
    /// the per-session cost is [`crate::StreamingQrsDetector::state_bytes`]
    /// or [`crate::LaneBank::lane_state_bytes`].
    /// Excludes the process-wide shared product tables
    /// ([`DetectorEngine::shared_table_bytes`]).
    #[must_use]
    pub fn engine_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.lpf.program_bytes()
            + self.hpf.program_bytes()
            + self.der.program_bytes()
            + 2 * std::mem::size_of::<ArithProgram>()
    }

    /// Bytes of the distinct process-wide shared per-tap product tables the
    /// FIR programs reference — each table counted once, even when two
    /// stages share it (LPF and HPF at the same LSB depth share e.g. the
    /// |1| table).
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        let mut seen = Vec::new();
        self.lpf.collect_shared_tables(&mut seen)
            + self.hpf.collect_shared_tables(&mut seen)
            + self.der.collect_shared_tables(&mut seen)
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
        // 8 distinct tap magnitudes across LPF/HPF/DER at one LSB depth
        // (see the streaming dedupe test).
        assert_eq!(engine.shared_table_bytes(), 8 * ((1 << 15) + 1) * 4);
        // Cloning shares the programs rather than recompiling them.
        let clone = engine.clone();
        assert!(Arc::ptr_eq(engine.lpf_program(), clone.lpf_program()));
    }
}
