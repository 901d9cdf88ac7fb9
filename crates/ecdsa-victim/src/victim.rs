//! The victim service: a containerised web service that performs ECDSA
//! signings with the vulnerable Montgomery ladder, modelled as a
//! [`VictimProgram`] whose per-request cache-line access schedule reproduces
//! the secret-dependent code-fetch pattern of Figure 8/9 in the paper.
//!
//! Per ladder iteration (~9,700 cycles on the 2 GHz Cloud Run hosts):
//!
//! * the *monitored* branch line is fetched at the iteration start (the
//!   "clock" access); and
//! * when the nonce bit of that iteration is 0, the monitored line is fetched
//!   again at the iteration midpoint (the instrumented layout of Section 7.1,
//!   which is also what Figure 9 shows: iterations with bit 0 have two
//!   accesses).
//!
//! The ladder is only ~25% of the request's execution time; the rest is
//! request parsing/serialisation, modelled as accesses to unrelated lines.

use crate::ecdsa::{Ecdsa, KeyPair, SigningTranscript};
use crate::scalar::{group_order, Scalar};
use llc_cache_model::{AddressSpace, VirtAddr, LINE_SIZE, PAGE_SIZE};
use llc_machine::{ScheduledAccess, VictimProgram, VictimSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Virtual-address layout of the victim's relevant cache lines, fixed at
/// container start-up (the attacker knows the library layout, Section 7.1).
#[derive(Debug, Clone)]
pub struct VictimLayout {
    /// The monitored line: holds the ladder's branch and the beginning of the
    /// `else` block (line ② of Figure 8 in the instrumented layout).
    pub branch_line: VirtAddr,
    /// Code line of `MAdd` executed when the bit is 1.
    pub madd1_line: VirtAddr,
    /// Code line of `MDouble` executed when the bit is 1.
    pub mdouble1_line: VirtAddr,
    /// Code line of `MAdd` executed when the bit is 0.
    pub madd0_line: VirtAddr,
    /// Code line of `MDouble` executed when the bit is 0.
    pub mdouble0_line: VirtAddr,
    /// Field-element working buffers touched throughout the ladder.
    pub data_lines: Vec<VirtAddr>,
    /// Lines touched by non-cryptographic request handling.
    pub frontend_lines: Vec<VirtAddr>,
}

impl VictimLayout {
    /// The page offset of the monitored line (what a PageOffset attacker
    /// derives from the public binary).
    pub fn target_page_offset(&self) -> u64 {
        self.branch_line.page_offset()
    }
}

/// Ground truth recorded for one victim request (one signing).
#[derive(Debug, Clone)]
pub struct RunGroundTruth {
    /// Ladder bits processed, most significant first (excluding the leading 1).
    pub nonce_bits: Vec<bool>,
    /// Offset (cycles from request start) of each ladder iteration start.
    pub iteration_starts: Vec<u64>,
    /// Offset of the start of the vulnerable ladder within the request.
    pub ladder_start: u64,
    /// Total request duration in cycles.
    pub duration: u64,
    /// The full signing transcript when real crypto is enabled.
    pub transcript: Option<SigningTranscript>,
}

/// Shared view of the victim's layout and per-run ground truth, used by the
/// experiments for validation (the attack itself only uses the layout and
/// the *public* half of the key, which are public knowledge).
#[derive(Debug, Default)]
pub struct VictimLog {
    /// Populated during `setup`.
    pub layout: Option<VictimLayout>,
    /// The service's ECDSA key pair, populated during `setup` when
    /// `full_crypto` is enabled. The attack side may read `.public()` only
    /// (a signing service's public key is public); the private half is
    /// ground truth for validating Step 4's recovery.
    pub key_pair: Option<KeyPair>,
    /// One entry per served request, in order.
    pub runs: Vec<RunGroundTruth>,
}

/// Handle to the shared victim log.
pub type VictimHandle = Arc<Mutex<VictimLog>>;

/// Configuration of the ECDSA victim service.
#[derive(Debug, Clone)]
pub struct EcdsaVictimConfig {
    /// Duration of one ladder iteration in cycles (paper: ~9,700 at 2 GHz).
    pub iteration_cycles: u64,
    /// Relative jitter applied to iteration durations (0.0–0.2).
    pub iteration_jitter: f64,
    /// Number of nonce bits the ladder processes per signing.
    pub nonce_bits: usize,
    /// Cycles of non-vulnerable request handling before the ladder.
    pub pre_cycles: u64,
    /// Cycles of non-vulnerable request handling after the ladder.
    pub post_cycles: u64,
    /// When true, each request performs a real ECDSA signing (slower); when
    /// false, only the nonce is drawn and the ladder schedule generated,
    /// which is sufficient for the cache-channel experiments. Scaled victims
    /// (`nonce_bits` below the group order's 570 bits) sign with nonces of
    /// exactly `nonce_bits` significant bits — still verifiable ECDSA, just
    /// deliberately weakened so the ladder length matches the scaled
    /// schedule.
    pub full_crypto: bool,
    /// RNG seed for nonces and jitter.
    pub seed: u64,
    /// RNG seed for the service's long-term key pair. Kept separate from
    /// `seed` so a key-recovery campaign can draw fresh nonce streams per
    /// captured signature while attacking one fixed key.
    pub key_seed: u64,
}

impl Default for EcdsaVictimConfig {
    fn default() -> Self {
        Self {
            iteration_cycles: 9_700,
            iteration_jitter: 0.02,
            nonce_bits: 571,
            pre_cycles: 8_000_000,
            post_cycles: 3_000_000,
            full_crypto: false,
            seed: 0xECD5A,
            key_seed: 77,
        }
    }
}

impl EcdsaVictimConfig {
    /// A scaled-down victim (fewer nonce bits, shorter pre/post phases) for
    /// fast unit and integration tests.
    pub fn fast_test() -> Self {
        Self {
            nonce_bits: 64,
            pre_cycles: 200_000,
            post_cycles: 100_000,
            ..Self::default()
        }
    }

    /// Expected period, in cycles, of the victim's accesses to the monitored
    /// line during runs of zero bits (the PSD peak of Section 6.2).
    pub fn expected_access_period(&self) -> u64 {
        self.iteration_cycles / 2
    }

    /// Duration of one request in cycles as monitoring windows are sized:
    /// pre- and post-ladder handling plus `nonce_bits` nominal iterations
    /// (the ladder runs at most that many). It excludes the idle gap between
    /// requests, and iteration jitter can stretch a real run past it.
    pub fn request_cycles(&self) -> u64 {
        self.pre_cycles + self.post_cycles + self.nonce_bits as u64 * self.iteration_cycles
    }

    /// Ladder positions per signing: the nonce's bit width, capped at the
    /// group order's, minus its leading one (a public service parameter).
    pub fn ladder_bits(&self) -> usize {
        self.nonce_bits.min(group_order().bit_length()).saturating_sub(1)
    }
}

/// The ECDSA victim service.
#[derive(Debug)]
pub struct EcdsaVictim {
    config: EcdsaVictimConfig,
    ecdsa: Ecdsa,
    key: Option<KeyPair>,
    rng: StdRng,
    layout: Option<VictimLayout>,
    log: VictimHandle,
}

impl EcdsaVictim {
    /// Creates the victim service and the shared log handle.
    pub fn new(config: EcdsaVictimConfig) -> (Self, VictimHandle) {
        let log: VictimHandle = Arc::new(Mutex::new(VictimLog::default()));
        let victim = Self {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            ecdsa: Ecdsa::new(),
            key: None,
            layout: None,
            log: Arc::clone(&log),
        };
        (victim, log)
    }

    /// The victim's configuration.
    pub fn config(&self) -> &EcdsaVictimConfig {
        &self.config
    }

    fn generate_nonce_bits(&mut self) -> (Vec<bool>, Option<SigningTranscript>) {
        if self.config.full_crypto {
            let key_seed = self.config.key_seed;
            let key = self
                .key
                .get_or_insert_with(|| {
                    KeyPair::generate(
                        Ecdsa::new().curve(),
                        &mut rand::rngs::StdRng::seed_from_u64(key_seed),
                    )
                })
                .clone();
            let message: [u8; 16] = self.rng.gen();
            let z = crate::ecdsa::hash_to_scalar(&message);
            // Draw nonces at the configured (possibly scaled-down) width so
            // the real signing's ladder matches the scheduled iterations.
            let transcript = self.ecdsa.sign_with_drawn_nonce(&key, &z, || {
                Scalar::random_with_bit_length(&mut self.rng, self.config.nonce_bits)
            });
            (transcript.ladder_bits.clone(), Some(transcript))
        } else {
            // Draw a nonce of the configured width; the ladder processes the
            // bits below the most significant set bit.
            let scalar = Scalar::random(&mut self.rng);
            let mut bits = scalar.bits_msb_first();
            bits.truncate(self.config.nonce_bits);
            if bits.len() > 1 {
                bits.remove(0);
            }
            (bits, None)
        }
    }
}

impl VictimProgram for EcdsaVictim {
    fn setup(&mut self, aspace: &mut AddressSpace) {
        // "Code" pages of the crypto library plus data and front-end pages.
        let code = aspace.allocate_pages(4);
        let data = aspace.allocate_pages(2);
        let frontend = aspace.allocate_pages(2);
        let layout = VictimLayout {
            // Distinct cache lines of the ladder code, mirroring Figure 8's
            // layout: the branch/else line is the monitored one.
            branch_line: code.offset(0x240),
            madd1_line: code.offset(0x280),
            mdouble1_line: code.offset(0x2c0),
            madd0_line: code.offset(0x300),
            mdouble0_line: code.offset(0x340),
            data_lines: (0..8).map(|i| data.offset(i * LINE_SIZE)).collect(),
            frontend_lines: (0..16).map(|i| frontend.offset((i / 8) * PAGE_SIZE + (i % 8) * 512)).collect(),
        };
        self.layout = Some(layout.clone());
        // Full-crypto services generate their long-term key at start-up and
        // publish it in the log (the public half is what a real service
        // advertises; the private half is validation ground truth).
        if self.config.full_crypto && self.key.is_none() {
            self.key = Some(KeyPair::generate(
                self.ecdsa.curve(),
                &mut rand::rngs::StdRng::seed_from_u64(self.config.key_seed),
            ));
        }
        let mut log = self.log.lock().expect("victim log poisoned");
        log.layout = Some(layout);
        log.key_pair = self.key.clone();
    }

    fn on_request(&mut self) -> VictimSchedule {
        let layout = self.layout.clone().expect("setup must run before requests");
        let (bits, transcript) = self.generate_nonce_bits();
        let mut accesses: Vec<ScheduledAccess> = Vec::with_capacity(bits.len() * 4 + 64);

        // Pre-processing phase: request parsing touches front-end lines.
        let mut t = 0u64;
        while t < self.config.pre_cycles {
            let line = layout.frontend_lines[(t as usize / 977) % layout.frontend_lines.len()];
            accesses.push(ScheduledAccess { offset: t, va: line });
            t += 40_000;
        }

        // The vulnerable Montgomery ladder.
        let ladder_start = self.config.pre_cycles;
        let mut iteration_starts = Vec::with_capacity(bits.len());
        let mut cursor = ladder_start;
        for (i, &bit) in bits.iter().enumerate() {
            let jitter_range = (self.config.iteration_cycles as f64 * self.config.iteration_jitter) as i64;
            let jitter = if jitter_range > 0 {
                self.rng.gen_range(-jitter_range..=jitter_range)
            } else {
                0
            };
            let duration = (self.config.iteration_cycles as i64 + jitter).max(1_000) as u64;
            iteration_starts.push(cursor);

            // Iteration-start fetch of the branch line (the "clock").
            accesses.push(ScheduledAccess { offset: cursor, va: layout.branch_line });
            // Body of the taken branch.
            let (madd, mdouble) = if bit {
                (layout.madd1_line, layout.mdouble1_line)
            } else {
                (layout.madd0_line, layout.mdouble0_line)
            };
            accesses.push(ScheduledAccess { offset: cursor + duration / 8, va: madd });
            accesses.push(ScheduledAccess {
                offset: cursor + duration / 8,
                va: layout.data_lines[i % layout.data_lines.len()],
            });
            if !bit {
                // The extra midpoint fetch of the monitored line that encodes
                // a zero bit (instrumented layout of Section 7.1).
                accesses.push(ScheduledAccess { offset: cursor + duration / 2, va: layout.branch_line });
            }
            accesses.push(ScheduledAccess { offset: cursor + (duration * 5) / 8, va: mdouble });

            cursor += duration;
        }

        // Post-processing phase.
        let post_start = cursor;
        let mut t = post_start;
        while t < post_start + self.config.post_cycles {
            let line = layout.frontend_lines[(t as usize / 1_373) % layout.frontend_lines.len()];
            accesses.push(ScheduledAccess { offset: t, va: line });
            t += 50_000;
        }
        let duration = post_start + self.config.post_cycles;

        self.log.lock().expect("victim log poisoned").runs.push(RunGroundTruth {
            nonce_bits: bits,
            iteration_starts,
            ladder_start,
            duration,
            transcript,
        });

        VictimSchedule::new(accesses, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup_victim(config: EcdsaVictimConfig) -> (EcdsaVictim, VictimHandle, VictimLayout) {
        let (mut victim, log) = EcdsaVictim::new(config);
        let mut aspace = AddressSpace::with_seed(9);
        victim.setup(&mut aspace);
        let layout = log.lock().unwrap().layout.clone().expect("layout set by setup");
        (victim, log, layout)
    }

    #[test]
    fn setup_publishes_layout_with_distinct_lines() {
        let (_victim, _log, layout) = setup_victim(EcdsaVictimConfig::fast_test());
        let lines = [
            layout.branch_line,
            layout.madd1_line,
            layout.mdouble1_line,
            layout.madd0_line,
            layout.mdouble0_line,
        ];
        for (i, a) in lines.iter().enumerate() {
            for b in &lines[i + 1..] {
                assert_ne!(a, b, "code lines must be distinct");
            }
        }
        assert_eq!(layout.target_page_offset(), 0x240);
    }

    #[test]
    fn schedule_encodes_nonce_bits_in_branch_line_accesses() {
        let (mut victim, log, layout) = setup_victim(EcdsaVictimConfig::fast_test());
        let schedule = victim.on_request();
        let run = log.lock().unwrap().runs.last().cloned().expect("run recorded");
        assert_eq!(run.iteration_starts.len(), run.nonce_bits.len());

        // Count branch-line accesses inside each iteration window.
        for (i, (&start, &bit)) in run.iteration_starts.iter().zip(&run.nonce_bits).enumerate() {
            let end = run
                .iteration_starts
                .get(i + 1)
                .copied()
                .unwrap_or(start + victim.config().iteration_cycles);
            let count = schedule
                .accesses()
                .iter()
                .filter(|a| a.va == layout.branch_line && a.offset >= start && a.offset < end)
                .count();
            let expected = if bit { 1 } else { 2 };
            assert_eq!(count, expected, "iteration {i} (bit {bit})");
        }
    }

    #[test]
    fn ladder_occupies_roughly_a_quarter_of_the_request() {
        let config = EcdsaVictimConfig::default();
        let (mut victim, log, _layout) = setup_victim(config.clone());
        let _ = victim.on_request();
        let run = log.lock().unwrap().runs.last().cloned().expect("run recorded");
        let ladder = run.nonce_bits.len() as u64 * config.iteration_cycles;
        let fraction = ladder as f64 / run.duration as f64;
        assert!(
            (0.15..0.5).contains(&fraction),
            "ladder fraction {fraction} should be around 25%"
        );
    }

    #[test]
    fn fresh_nonce_per_request() {
        let (mut victim, log, _layout) = setup_victim(EcdsaVictimConfig::fast_test());
        let _ = victim.on_request();
        let _ = victim.on_request();
        let log = log.lock().unwrap();
        assert_eq!(log.runs.len(), 2);
        assert_ne!(log.runs[0].nonce_bits, log.runs[1].nonce_bits);
    }

    #[test]
    fn full_crypto_mode_produces_verifiable_signatures() {
        let mut config = EcdsaVictimConfig::fast_test();
        config.full_crypto = true;
        let (mut victim, log, _layout) = setup_victim(config.clone());
        let _ = victim.on_request();
        let log = log.lock().unwrap();
        let run = log.runs.last().cloned().expect("run recorded");
        let transcript = run.transcript.expect("full crypto records the transcript");
        assert_eq!(transcript.ladder_bits, run.nonce_bits);
        // Scaled victims sign with nonces of exactly `nonce_bits` bits, so
        // the ladder performs `nonce_bits − 1` iterations.
        assert_eq!(run.nonce_bits.len(), config.nonce_bits - 1);
        let key = log.key_pair.as_ref().expect("full crypto publishes the key pair");
        let ecdsa = Ecdsa::new();
        // The scaled-nonce signature must still verify like ordinary ECDSA.
        let w = transcript.signature.s.inverse();
        let u1 = transcript.hashed_message.mul(&w);
        let u2 = transcript.signature.r.mul(&w);
        let (p1, _) = ecdsa.curve().montgomery_ladder(&u1, &ecdsa.curve().generator());
        let (p2, _) = ecdsa.curve().montgomery_ladder(&u2, key.public());
        let sum = ecdsa.curve().add(&p1, &p2);
        let x = sum.x().expect("verification point is affine");
        let mut limbs = [0u64; crate::scalar::LIMBS];
        limbs.copy_from_slice(x.limbs());
        assert_eq!(Scalar::new(crate::scalar::U576::from_limbs(limbs)), transcript.signature.r);
    }

    #[test]
    fn key_pair_is_stable_across_instances_and_nonce_seeds() {
        let mut a_cfg = EcdsaVictimConfig::fast_test();
        a_cfg.full_crypto = true;
        let mut b_cfg = a_cfg.clone();
        b_cfg.seed ^= 0xdead; // different nonce stream, same key_seed
        let (_a, a_log, _) = setup_victim(a_cfg);
        let (_b, b_log, _) = setup_victim(b_cfg);
        let a_key = a_log.lock().unwrap().key_pair.clone().expect("key");
        let b_key = b_log.lock().unwrap().key_pair.clone().expect("key");
        assert_eq!(a_key.private(), b_key.private(), "key must derive from key_seed alone");
        assert_eq!(a_key.public(), b_key.public());
    }

    #[test]
    fn schedule_accesses_are_sorted_and_within_duration() {
        let (mut victim, _log, _layout) = setup_victim(EcdsaVictimConfig::fast_test());
        let schedule = victim.on_request();
        for w in schedule.accesses().windows(2) {
            assert!(w[0].offset <= w[1].offset);
        }
        assert!(schedule.accesses().last().unwrap().offset <= schedule.duration());
    }

    #[test]
    fn expected_access_period_is_half_iteration() {
        let config = EcdsaVictimConfig::default();
        assert_eq!(config.expected_access_period(), 4_850);
    }

    /// Without jitter a run lasts the request estimate minus the one
    /// iteration the leading nonce bit skips, and its ladder has
    /// `ladder_bits()` positions.
    #[test]
    fn request_cycles_and_ladder_bits_describe_a_run() {
        let config = EcdsaVictimConfig { iteration_jitter: 0.0, ..EcdsaVictimConfig::fast_test() };
        let (mut victim, log, _layout) = setup_victim(config.clone());
        let _ = victim.on_request();
        let run = log.lock().unwrap().runs.last().cloned().expect("run recorded");
        assert_eq!(run.duration + config.iteration_cycles, config.request_cycles());
        assert_eq!(run.nonce_bits.len(), config.ladder_bits());
        // Full-width victims are capped at the group order's 570 bits.
        assert_eq!(EcdsaVictimConfig::default().ladder_bits(), 569);
    }
}
