//! # llc-core
//!
//! The end-to-end LLC/SF Prime+Probe attack pipeline of *"Last-Level Cache
//! Side-Channel Attacks Are Feasible in the Modern Public Cloud"*
//! (ASPLOS 2024), assembled from the workspace's building blocks:
//!
//! * **Step 1 — prepare LLC side channels**: bulk SF eviction-set
//!   construction at the victim's page offset (`llc-evsets`, Sections 4–5);
//! * **Step 2 — identify the target LLC/SF set**: Prime+Probe traces of each
//!   candidate set are converted to power-spectral-density features
//!   (`llc-sigproc`) and classified by an SVM (`llc-ml`), Sections 6.2/7.2;
//! * **Step 3 — exfiltrate information**: the target set is monitored with
//!   Parallel Probing (`llc-probe`), [`covered_signings`] cuts the trace
//!   into the signings it covers, and [`BoundaryClassifier::decode`]
//!   recognises iteration boundaries with a random forest and soft-decodes
//!   the ECDSA nonce bits (value + confidence), which are scored against
//!   the victim's ground truth (`llc-ecdsa-victim`), Section 7.3;
//! * **Step 4 — recover the key**: the decoded bits are aligned, corrected
//!   in confidence order and turned into the victim's private key via
//!   `d = r⁻¹(s·k − z) mod n`, verified against the *public* key only
//!   (`llc-recovery`). [`CapturedSigning::observe`] turns a capture into
//!   the campaign's input.
//!
//! Each of these steps has one implementation, which `llc-bench`'s
//! harnesses (`fig9`, `e2e_key`) call as well.
//!
//! The [`EndToEndAttack`] driver runs the steps against a simulated
//! multi-tenant host and produces an [`AttackReport`] with the same metrics
//! the paper reports (fraction of nonce bits recovered, bit error rate,
//! recovered key, end-to-end time).
//!
//! ## Quick example
//!
//! ```
//! use llc_core::{AttackConfig, EndToEndAttack};
//!
//! // A scaled-down configuration that runs in a few seconds.
//! let report = EndToEndAttack::new(AttackConfig::fast_test()).run();
//! assert!(report.identify.identified);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod extract;
mod features;
mod identify;
mod pipeline;

pub use extract::{
    decode_bits_soft, score_extraction, BoundaryClassifier, DecodedBit, ExtractionConfig,
    ExtractionScore, ScoredBoundary,
};
pub use features::{synthesize_trace, FeatureConfig};
pub use identify::{
    scan_for_target, ClassifierTrainingConfig, ScanConfig, ScanOutcome, TraceClassifier,
};
pub use pipeline::{
    capture_signing_run, covered_signings, soft_observation, streams, Algorithm, AttackConfig,
    AttackReport, CapturedSigning, EndToEndAttack, EvsetPhase, ExtractPhase, IdentifyPhase,
    RecoveryConfig, RecoveryPhase,
};
