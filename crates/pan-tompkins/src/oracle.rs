//! The scalar reference pipeline: the five public stage objects
//! ([`crate::stages`]) driven one sample at a time into the
//! decision tail (`DetectorTail`) every bank lane owns.
//!
//! Production never runs it. [`crate::QrsDetector`],
//! [`crate::StreamingQrsDetector`] and every [`crate::LaneBank`] lane run
//! the SoA stage kernels; this module keeps an implementation of the five
//! stages that shares none of their kernel code (only the compiled stage
//! programs and the decision tail), so equivalence tests and the `ext_*`
//! gates have something independent to compare them with (and a
//! per-sample speed to measure them against). Its results are
//! bit-identical to theirs by contract: events, peaks, decisions, stage
//! signals, and every operation/saturation/overflow counter.

use std::sync::Arc;

use crate::config::PipelineConfig;
use crate::detector::DetectionResult;
use crate::engine::DetectorEngine;
use crate::stages::{
    Derivative, HighPassFilter, LowPassFilter, MovingWindowIntegrator, Squarer, Stage,
};
use crate::streaming::{DetectorTail, StreamEvent};

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
