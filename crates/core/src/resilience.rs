//! Per-stage error-resilience analysis (paper §2 and §4.2, Figs 2 and 8).
//!
//! For one application stage at a time, sweep the number of approximated
//! LSBs with the least-energy elementary modules and record output quality
//! (SSIM, PSNR, peak-detection accuracy) next to the hardware savings
//! (area, latency, power, energy from the module-sum model; energy also
//! from the synthesis-calibrated model).

use approx_arith::StageArith;
use ecg::EcgRecord;
use hwmodel::module::Reductions;
use hwmodel::{CalibratedModel, StageCost};
use pan_tompkins::{PipelineConfig, StageKind};

use crate::quality_eval::{evaluate_across_records, Evaluator, QualityReport};

/// One point of a resilience sweep.
#[derive(Debug, Clone, Copy)]
pub struct ResiliencePoint {
    /// Number of approximated LSBs in the stage under analysis.
    pub lsbs: u32,
    /// Quality of the whole application with only this stage approximated.
    pub report: QualityReport,
    /// Module-sum hardware reductions of the stage itself.
    pub reductions: Reductions,
    /// Synthesis-calibrated energy reduction of the stage itself.
    pub calibrated_energy: f64,
}

/// The resilience profile of one stage.
#[derive(Debug, Clone)]
pub struct ResilienceProfile {
    /// The analysed stage.
    pub stage: StageKind,
    /// Sweep points in ascending LSB order (starting at 0).
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceProfile {
    /// Sweeps stage `stage` from 0 LSBs to its paper bound in steps of 2,
    /// evaluating the full application each time (every other stage exact).
    /// Sweep points are independent designs, so they run across the worker
    /// pool; results keep ascending LSB order.
    pub fn analyze(evaluator: &Evaluator, stage: StageKind) -> Self {
        Self::analyze_up_to(evaluator, stage, stage.max_approx_lsbs())
    }

    /// Sweeps with an explicit upper bound on the LSB count.
    pub fn analyze_up_to(evaluator: &Evaluator, stage: StageKind, max_lsbs: u32) -> Self {
        Self::analyze_up_to_from(evaluator, stage, max_lsbs, PipelineConfig::exact())
    }

    /// Sweeps from an explicit base configuration: each point replaces
    /// only the analysed stage's triple, so the base's footprint,
    /// threshold timing and alignment tolerance carry through the whole
    /// sweep. `analyze_up_to` is this with the exact default base.
    pub fn analyze_up_to_from(
        evaluator: &Evaluator,
        stage: StageKind,
        max_lsbs: u32,
        base: PipelineConfig,
    ) -> Self {
        let (ariths, configs) = Self::sweep_grid_from(stage, max_lsbs, base);
        let reports = evaluator.evaluate_batch(&configs);
        Self::assemble(stage, &ariths, reports)
    }

    /// Sweeps one stage over *many records at once* through
    /// [`evaluate_across_records`]: one evaluator per record, records
    /// across the worker pool. Returns one profile per record, in record
    /// order; each profile's points are bit-for-bit what a per-record
    /// [`ResilienceProfile::analyze_up_to`] produces.
    #[must_use]
    pub fn analyze_records_up_to(
        records: &[EcgRecord],
        stage: StageKind,
        max_lsbs: u32,
    ) -> Vec<Self> {
        let (ariths, configs) = Self::sweep_grid(stage, max_lsbs);
        evaluate_across_records(records, &configs)
            .into_iter()
            .map(|reports| Self::assemble(stage, &ariths, reports))
            .collect()
    }

    /// Builds the sweep points from one record's reports.
    fn assemble(stage: StageKind, ariths: &[StageArith], reports: Vec<QualityReport>) -> Self {
        let calibrated = CalibratedModel::paper();
        let exact_cost =
            StageCost::fir(stage.multipliers(), stage.adders(), StageArith::exact()).cost();
        let points = ariths
            .iter()
            .zip(reports)
            .map(|(arith, report)| {
                let our_cost = StageCost::fir(stage.multipliers(), stage.adders(), *arith).cost();
                ResiliencePoint {
                    lsbs: arith.approx_lsbs,
                    report,
                    reductions: our_cost.reduction_from(&exact_cost),
                    calibrated_energy: calibrated.stage_reduction(stage.index(), arith.approx_lsbs),
                }
            })
            .collect();
        Self { stage, points }
    }

    /// The sweep grid: even LSB counts from 0 to the bound, each as a
    /// one-stage-approximated full-pipeline configuration.
    fn sweep_grid(stage: StageKind, max_lsbs: u32) -> (Vec<StageArith>, Vec<PipelineConfig>) {
        Self::sweep_grid_from(stage, max_lsbs, PipelineConfig::exact())
    }

    /// [`ResilienceProfile::sweep_grid`] over an explicit base
    /// configuration.
    fn sweep_grid_from(
        stage: StageKind,
        max_lsbs: u32,
        base: PipelineConfig,
    ) -> (Vec<StageArith>, Vec<PipelineConfig>) {
        let ariths: Vec<StageArith> = (0..=max_lsbs)
            .step_by(2)
            .map(|k| {
                if k == 0 {
                    StageArith::exact()
                } else {
                    StageArith::least_energy(k)
                }
            })
            .collect();
        let configs: Vec<PipelineConfig> = ariths
            .iter()
            .map(|arith| base.with_stage(stage, *arith))
            .collect();
        (ariths, configs)
    }

    /// The error-resilience threshold: the largest swept LSB count whose
    /// peak-detection accuracy still meets `min_accuracy` (the paper's
    /// per-stage thresholds use 100 %).
    #[must_use]
    pub fn resilience_threshold(&self, min_accuracy: f64) -> u32 {
        self.points
            .iter()
            .take_while(|p| p.report.peak_accuracy >= min_accuracy)
            .map(|p| p.lsbs)
            .last()
            .unwrap_or(0)
    }

    /// The largest swept LSB count whose SSIM stays at or above
    /// `min_ssim` (the paper's "50 % loss in signal quality" reads).
    #[must_use]
    pub fn ssim_threshold(&self, min_ssim: f64) -> u32 {
        self.points
            .iter()
            .take_while(|p| p.report.ssim >= min_ssim)
            .map(|p| p.lsbs)
            .last()
            .unwrap_or(0)
    }

    /// Maximum calibrated stage energy reduction over the sweep.
    #[must_use]
    pub fn max_energy_reduction(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.calibrated_energy)
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluator() -> Evaluator {
        Evaluator::new(&ecg::nsrdb::paper_record().truncated(5000))
    }

    #[test]
    fn sweep_starts_exact_and_steps_by_two() {
        let ev = evaluator();
        let profile = ResilienceProfile::analyze_up_to(&ev, StageKind::Squarer, 8);
        let lsbs: Vec<u32> = profile.points.iter().map(|p| p.lsbs).collect();
        assert_eq!(lsbs, vec![0, 2, 4, 6, 8]);
        assert!((profile.points[0].report.ssim - 1.0).abs() < 1e-9);
        assert!((profile.points[0].reductions.energy - 1.0).abs() < 1e-9);
    }

    /// The many-record sweep must reproduce the per-record sweeps point
    /// for point.
    #[test]
    fn record_batched_sweep_matches_per_record_analysis() {
        let records = vec![
            ecg::nsrdb::paper_record().truncated(4000),
            ecg::nsrdb::paper_record().truncated(5000),
        ];
        let profiles = ResilienceProfile::analyze_records_up_to(&records, StageKind::Squarer, 8);
        assert_eq!(profiles.len(), records.len());
        for (record, profile) in records.iter().zip(&profiles) {
            let reference =
                ResilienceProfile::analyze_up_to(&Evaluator::new(record), StageKind::Squarer, 8);
            assert_eq!(profile.points.len(), reference.points.len());
            for (got, want) in profile.points.iter().zip(&reference.points) {
                assert_eq!(got.lsbs, want.lsbs);
                assert_eq!(got.report, want.report, "LSB {} diverged", got.lsbs);
            }
        }
    }

    #[test]
    fn energy_reduction_monotone_in_lsbs() {
        let ev = evaluator();
        let profile = ResilienceProfile::analyze_up_to(&ev, StageKind::Lpf, 12);
        for pair in profile.points.windows(2) {
            assert!(
                pair[1].reductions.energy >= pair[0].reductions.energy - 1e-9,
                "module-sum energy non-monotone"
            );
            assert!(
                pair[1].calibrated_energy >= pair[0].calibrated_energy - 1e-9,
                "calibrated energy non-monotone"
            );
        }
    }

    #[test]
    fn mwi_tolerates_more_lsbs_than_derivative() {
        // The paper's headline ordering: the integrator is extremely
        // error-resilient, the derivative is not.
        let ev = evaluator();
        let mwi = ResilienceProfile::analyze(&ev, StageKind::Mwi);
        let der = ResilienceProfile::analyze_up_to(&ev, StageKind::Derivative, 16);
        let mwi_threshold = mwi.resilience_threshold(0.99);
        let der_threshold = der.resilience_threshold(0.99);
        assert!(
            mwi_threshold >= der_threshold,
            "MWI threshold {mwi_threshold} < DER threshold {der_threshold}"
        );
        assert!(
            mwi_threshold >= 12,
            "MWI only tolerated {mwi_threshold} LSBs"
        );
    }

    #[test]
    fn lpf_ssim_degrades_before_accuracy() {
        let ev = evaluator();
        let profile = ResilienceProfile::analyze(&ev, StageKind::Lpf);
        let ssim_at = profile.ssim_threshold(0.9);
        let acc_at = profile.resilience_threshold(0.99);
        assert!(
            ssim_at <= acc_at,
            "SSIM threshold {ssim_at} should fall at or before accuracy threshold {acc_at}"
        );
    }

    #[test]
    fn thresholds_of_flat_profile() {
        let ev = evaluator();
        let profile = ResilienceProfile::analyze_up_to(&ev, StageKind::Squarer, 4);
        // At worst the threshold is 0 (the exact point always qualifies for
        // accuracy thresholds below the exact accuracy).
        assert!(profile.resilience_threshold(2.0) == 0);
        assert!(profile.max_energy_reduction() >= 1.0);
    }
}
