//! Output-quality metrics for the XBioSiP reproduction.
//!
//! XBioSiP evaluates quality at two points (paper §4): after data
//! pre-processing it uses *signal* metrics — [`psnr`](mod@psnr) and the 1-D
//! structural-similarity index [`ssim`] — and after the full application it
//! uses the *application* metric, QRS [`peaks`] detection accuracy.
//!
//! # Example
//!
//! ```
//! use quality::{psnr, ssim::Ssim, peaks::PeakMatcher};
//!
//! let reference = vec![0.0, 1.0, 4.0, 1.0, 0.0, -1.0];
//! let approximate = vec![0.0, 1.1, 3.9, 1.0, 0.1, -1.0];
//! let db = psnr::psnr(&reference, &approximate);
//! assert!(db > 20.0);
//!
//! let s = Ssim::new(4).mean(&reference, &approximate);
//! assert!(s > 0.9 && s <= 1.0);
//!
//! let m = PeakMatcher::new(15).match_peaks(&[100, 300, 500], &[102, 298, 700]);
//! assert_eq!(m.true_positives(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod peaks;
pub mod prd;
pub mod psnr;
pub mod ssim;

pub use peaks::{PeakMatch, PeakMatcher};
pub use prd::{prd, prd_band, PrdBand};
pub use psnr::{mse, psnr, psnr_with_peak, rmse};
pub use ssim::Ssim;
