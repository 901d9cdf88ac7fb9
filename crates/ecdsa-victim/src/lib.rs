//! # llc-ecdsa-victim
//!
//! The victim side of the paper's end-to-end attack (Section 7): a complete,
//! from-scratch ECDSA implementation over **sect571r1** whose scalar
//! multiplication uses the Montgomery-ladder code path of OpenSSL 1.0.1e —
//! the vulnerable, secret-dependent control flow the cache attack observes —
//! plus a [`VictimProgram`](llc_machine::VictimProgram) implementation that
//! turns each signing request into the cache-line access schedule the
//! attacker's Prime+Probe monitor sees.
//!
//! Components:
//!
//! * [`Gf571`] — arithmetic in GF(2^571) (sect571r1's binary field);
//! * [`Curve`] / [`Point`] — the curve, affine group law, and the
//!   López–Dahab Montgomery ladder with its per-iteration branch trace;
//! * [`Scalar`] — integer arithmetic modulo the group order;
//! * [`sha256`] — message hashing;
//! * [`Ecdsa`] / [`KeyPair`] / [`Signature`] — signing and verification;
//! * [`EcdsaVictim`] — the victim service and its ground-truth log.
//!
//! ## Quick example
//!
//! ```
//! use llc_ecdsa_victim::{Ecdsa, KeyPair};
//! use rand::SeedableRng;
//!
//! let ecdsa = Ecdsa::new();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let key = KeyPair::generate(ecdsa.curve(), &mut rng);
//! let transcript = ecdsa.sign(&key, b"hello cloud", &mut rng);
//! assert!(ecdsa.verify(key.public(), b"hello cloud", &transcript.signature));
//! // The ladder trace is exactly the nonce's bits — the secret that leaks.
//! assert_eq!(transcript.ladder_bits, transcript.nonce.bits_msb_first()[1..].to_vec());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod curve;
mod ecdsa;
mod gf2m;
mod scalar;
mod sha256;
mod victim;

pub use curve::{Curve, LadderStep, Point};
pub use ecdsa::{hash_to_scalar, Ecdsa, KeyPair, Signature, SigningTranscript};
pub use gf2m::{Gf571, DEGREE as FIELD_DEGREE, LIMBS as FIELD_LIMBS};
pub use scalar::{group_order, Scalar, U576};
pub use sha256::{digest_hex, sha256};
pub use victim::{
    EcdsaVictim, EcdsaVictimConfig, RunGroundTruth, VictimHandle, VictimLayout, VictimLog,
};
