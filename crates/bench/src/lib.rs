//! Shared harness utilities for the table/figure-regenerating binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §14 for the index and `EXPERIMENTS.md` for
//! paper-vs-measured numbers). They all print plain-text tables to stdout
//! so their output can be diffed across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecg::EcgRecord;

/// The evaluation record every experiment binary uses by default — the
/// synthetic stand-in for the paper's NSRDB recording (20 000 samples at
/// 200 Hz; see `ecg::nsrdb`).
#[must_use]
pub fn experiment_record() -> EcgRecord {
    ecg::nsrdb::paper_record()
}

/// A shorter record for experiments that sweep many design points.
#[must_use]
pub fn quick_record() -> EcgRecord {
    ecg::nsrdb::paper_record().truncated(8_000)
}

/// Prints the standard experiment banner: which figure/table of the paper
/// is being regenerated and on what workload.
pub fn banner(experiment: &str, workload: &str) {
    println!("================================================================");
    println!("XBioSiP reproduction — {experiment}");
    println!("workload: {workload}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_have_expected_shape() {
        assert_eq!(experiment_record().len(), 20_000);
        assert_eq!(quick_record().len(), 8_000);
        assert_eq!(experiment_record().fs(), 200.0);
    }
}
