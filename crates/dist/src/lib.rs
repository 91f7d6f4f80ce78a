//! Sequence-length distributions and completion analysis for ExeGPT.
//!
//! ExeGPT's scheduler is *distribution-aware* (paper §6): it consumes the
//! probability distributions `P_E(S)` and `P_D(S)` of input and output
//! sequence lengths, observed from an NLP service over time. This crate
//! provides:
//!
//! * [`LengthDist`] — a discrete distribution over sequence lengths
//!   `1..=max`, constructible as a truncated normal (the paper's fit for
//!   public NLP datasets), a skew normal (used for the distribution-shift
//!   study, Figure 11), a point mass, or an empirical distribution from
//!   observed samples (real-world datasets, Figure 10).
//! * [`CompletionDist`] — the paper's `P_D(U)` analysis: the probability
//!   that a query completes decoding at iteration `U` after the most recent
//!   encoding phase, given an encoding frequency of one encode every `N_D`
//!   decode iterations. This is what keeps RRA's batch sizes consistent.
//! * [`stats`] — correlation and percentile helpers used when deriving
//!   distributions from datasets.
//! * [`convert`] — checked numeric conversions required (by xlint rule N1,
//!   DESIGN.md §6) throughout the cost-model and scheduler arithmetic.
//! * [`digest`] — the FNV-1a run digest every event-log golden uses.
//!
//! # Example
//!
//! ```
//! use exegpt_dist::LengthDist;
//!
//! // Paper Table 3, task T (translation) output lengths.
//! let out = LengthDist::truncated_normal(128.0, 68.0, 320)?;
//! assert!((out.mean() - 128.0).abs() < 8.0);
//! assert_eq!(out.quantile(1.0), 320);
//! # Ok::<(), exegpt_dist::DistError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod completion;
pub mod convert;
pub mod digest;
mod error;
pub mod fit;
mod length;
mod math;
pub mod stats;

pub use completion::CompletionDist;
pub use error::DistError;
pub use length::LengthDist;
