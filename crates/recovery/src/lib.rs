//! # llc-recovery
//!
//! Step 4 of the end-to-end attack: turning the noisy, partial nonce bits
//! that Step 3 decodes from the cache channel into the victim's **ECDSA
//! private key** — the paper's actual headline result (Section 7.3; the
//! extended version details the cryptanalytic post-processing).
//!
//! The crate is pure cryptanalysis: it knows nothing about caches or
//! machines. Its inputs are soft-decision bit observations (value +
//! confidence + time), public signature components `(r, s, z)` and the
//! victim's *public* key; its output is the private scalar `d`, verified
//! exclusively against public information.
//!
//! Pipeline:
//!
//! 1. **[`soft`]** — align time-stamped [`ObservedBit`]s onto ladder
//!    positions, producing per-position [`BitEstimate`]s (known bit with a
//!    confidence, or an erasure);
//! 2. **[`search`]** — a confidence-ordered error-correction search that
//!    fills erased positions and flips the least-confident recovered bits,
//!    enumerating candidate nonces in increasing "unlikeliness" under a
//!    configurable budget (breadth bound + max flips);
//! 3. **[`algebra`]** — for each candidate full nonce `k`, compute
//!    `d = r⁻¹·(s·k − z) mod n` and accept only when `d·G` equals the
//!    victim's public key (with a cheap `x(k·G) = r` pre-check, also public
//!    information);
//! 4. **[`campaign`]** — the one multi-signature loop ([`run_campaign`]),
//!    which keeps consuming fresh signature observations until some
//!    signature's corrected nonce verifies, reporting signatures-needed,
//!    one attempt record per signature, search work and time spent.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algebra;
pub mod campaign;
pub mod search;
pub mod soft;

pub use algebra::{nonce_from_ladder_bits, recover_private_key, KeyVerifier};
pub use campaign::{
    attempt_signature, run_campaign, AttemptStats, CampaignConfig, CampaignReport, RecoveredKey,
    SignatureObservation,
};
pub use search::{correct_and_recover, SearchConfig, SearchOutcome};
pub use soft::{align_observed_bits, BitEstimate, ObservedBit};
