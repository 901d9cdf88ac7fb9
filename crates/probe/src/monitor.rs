//! Continuous monitoring of one SF set: the prime/probe loop that produces
//! the timestamped access traces consumed by the PSD-based identification
//! (Section 6.2) and the nonce-extraction step (Section 7.3).

use crate::strategies::{PrimedSet, Strategy};
use llc_evsets::EvictionSet;
use llc_machine::Machine;

/// A timestamped trace of detected accesses to one monitored SF set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTrace {
    /// Cycle at which monitoring started.
    pub start: u64,
    /// Cycle at which monitoring ended.
    pub end: u64,
    /// Cycle of every detected access (probe completion time).
    pub timestamps: Vec<u64>,
    /// Number of probe operations performed.
    pub probes: u64,
    /// Number of re-primes performed.
    pub primes: u64,
}

impl AccessTrace {
    /// Duration of the monitoring window in cycles.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// Number of detected accesses.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True if nothing was detected.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Detected accesses per millisecond, given the machine frequency.
    pub fn accesses_per_ms(&self, freq_ghz: f64) -> f64 {
        if self.duration() == 0 {
            return 0.0;
        }
        self.len() as f64 / (self.duration() as f64 / (freq_ghz * 1e6))
    }

    /// Inter-detection intervals in cycles (for Figure 2's CDF).
    pub fn inter_arrival_cycles(&self) -> Vec<u64> {
        self.timestamps.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Statistics of the prime and probe operations of one monitoring run
/// (Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonitorStats {
    /// Mean prime latency in cycles.
    pub mean_prime_cycles: f64,
    /// Standard deviation of the prime latency.
    pub std_prime_cycles: f64,
    /// Mean probe latency in cycles.
    pub mean_probe_cycles: f64,
    /// Standard deviation of the probe latency.
    pub std_probe_cycles: f64,
}

/// Count, sum and sum of squares of a run of latencies, in integers: the
/// mean and standard deviation in O(1) memory however long the run.
#[derive(Debug, Clone, Copy, Default)]
struct LatencySums {
    count: u64,
    sum: u128,
    sum_sq: u128,
}

impl LatencySums {
    fn add(&mut self, latency: u64) {
        let v = u128::from(latency);
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
    }

    /// The mean and the population standard deviation; zero for no values.
    fn mean_std(&self) -> (f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0);
        }
        let n = self.count as f64;
        // n² · variance = n·Σv² − (Σv)², exact in integers.
        let scaled = u128::from(self.count) * self.sum_sq - self.sum * self.sum;
        (self.sum as f64 / n, (scaled as f64 / (n * n)).sqrt())
    }
}

/// A Prime+Probe monitor of a single SF set.
#[derive(Debug)]
pub struct Monitor {
    primed: PrimedSet,
    /// Latencies above this value are treated as interrupted measurements and
    /// excluded from the latency statistics (the paper excludes > 20k cycles).
    outlier_cycles: u64,
    prime_latencies: LatencySums,
    probe_latencies: LatencySums,
}

impl Monitor {
    /// Creates a monitor that uses `strategy` over `eviction_set`.
    pub fn new(strategy: Strategy, eviction_set: EvictionSet) -> Self {
        Self {
            primed: PrimedSet::new(strategy, eviction_set),
            outlier_cycles: 20_000,
            prime_latencies: LatencySums::default(),
            probe_latencies: LatencySums::default(),
        }
    }

    /// The monitoring strategy.
    pub fn strategy(&self) -> Strategy {
        self.primed.strategy()
    }

    /// Monitors the set for `duration` cycles, returning the detected-access
    /// trace. The monitor re-primes after every detection, as described in
    /// Section 2.1.
    pub fn collect(&mut self, machine: &mut Machine, duration: u64) -> AccessTrace {
        let start = machine.now();
        let deadline = start + duration;
        self.primed.prepare(machine);
        let mut timestamps = Vec::new();
        let mut probes = 0u64;
        let mut primes = 0u64;

        let prime_latency = self.primed.prime(machine);
        self.record_prime(prime_latency);
        primes += 1;

        while machine.now() < deadline {
            let outcome = self.primed.probe(machine);
            probes += 1;
            self.record_probe(outcome.latency);
            if outcome.detected {
                timestamps.push(machine.now());
                let prime_latency = self.primed.prime(machine);
                self.record_prime(prime_latency);
                primes += 1;
            }
        }

        AccessTrace { start, end: machine.now(), timestamps, probes, primes }
    }

    /// Prime/probe latency statistics accumulated so far.
    pub fn stats(&self) -> MonitorStats {
        let (mean_prime_cycles, std_prime_cycles) = self.prime_latencies.mean_std();
        let (mean_probe_cycles, std_probe_cycles) = self.probe_latencies.mean_std();
        MonitorStats { mean_prime_cycles, std_prime_cycles, mean_probe_cycles, std_probe_cycles }
    }

    fn record_prime(&mut self, latency: u64) {
        if latency <= self.outlier_cycles {
            self.prime_latencies.add(latency);
        }
    }

    fn record_probe(&mut self, latency: u64) {
        if latency <= self.outlier_cycles {
            self.probe_latencies.add(latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_cache_model::CacheSpec;
    use llc_evsets::{oracle, CandidateSet, TargetCache};
    use llc_machine::{NoiseModel, PeriodicToucher};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn machine_with_victim(
        seed: u64,
        noise: NoiseModel,
        interval: u64,
    ) -> (Machine, EvictionSet, u64) {
        let mut m = Machine::builder(CacheSpec::tiny_test()).noise(noise).seed(seed).build();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Build a true SF eviction set for the page offset the victim uses.
        let cands = CandidateSet::allocate(&mut m, 0x240, 512, &mut rng);
        let w = m.spec().sf.ways();
        let target = cands.addresses()[0];
        let congruent = oracle::congruent_with(&m, target, &cands.addresses()[1..]);
        let set = EvictionSet::new(congruent[..w].to_vec(), TargetCache::Sf);

        // Install a periodic victim touching a line at the same page offset.
        // With only two slices on the tiny machine the victim line has a 50%
        // chance of landing in the monitored set per seed; the chosen seeds
        // are ones where it does.
        let toucher = PeriodicToucher::new(interval, 50, 0x240);
        m.install_victim(Box::new(toucher), true, 0);
        (m, set, interval)
    }

    fn monitored_victim_seed() -> u64 {
        // Find a seed where the victim's line maps to the monitored set.
        for seed in 0..32u64 {
            let mut m = Machine::builder(CacheSpec::tiny_test())
                .noise(NoiseModel::silent())
                .seed(seed)
                .build();
            let mut rng = SmallRng::seed_from_u64(seed);
            let cands = CandidateSet::allocate(&mut m, 0x240, 512, &mut rng);
            let target = cands.addresses()[0];
            let toucher = PeriodicToucher::new(5_000, 1, 0x240);
            m.install_victim(Box::new(toucher), false, 0);
            // Trigger setup by requesting once.
            m.request_victim();
            m.idle(20_000);
            let victim_va = llc_machine::VirtAddr::new(0); // placeholder, not used
            let _ = victim_va;
            // Check congruence via the oracle on the victim's first access:
            // easiest check: the monitored set location equals the victim's.
            let attacker_loc = m.oracle_attacker_location(target);
            // The PeriodicToucher allocated one page in the victim space;
            // its VA is page base + 0x240. We cannot reach the toucher once
            // installed, so reconstruct via the oracle victim location of the
            // first mapped page: probe a few candidate VAs.
            let base = llc_cache_model::VirtAddr::new(0x7f00_0000_0000);
            let victim_loc = m.oracle_victim_location(base.offset(0x240));
            if attacker_loc == victim_loc {
                return seed;
            }
        }
        panic!("no suitable seed found");
    }

    #[test]
    fn monitor_detects_periodic_victim_accesses() {
        let seed = monitored_victim_seed();
        let (mut m, set, interval) = machine_with_victim(seed, NoiseModel::silent(), 20_000);
        let mut monitor = Monitor::new(Strategy::Parallel, set);
        let trace = monitor.collect(&mut m, 30 * interval);
        assert!(
            trace.len() >= 10,
            "expected to detect most of the victim's periodic accesses, got {}",
            trace.len()
        );
        // Detected inter-arrival times should cluster around the interval.
        let inter = trace.inter_arrival_cycles();
        let close = inter.iter().filter(|&&d| (d as i64 - interval as i64).unsigned_abs() < interval / 2).count();
        assert!(close * 2 >= inter.len(), "inter-arrival times should track the victim period");
    }

    #[test]
    fn quiet_set_produces_empty_trace() {
        let mut m = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::silent())
            .seed(3)
            .build();
        let mut rng = SmallRng::seed_from_u64(3);
        let cands = CandidateSet::allocate(&mut m, 0x100, 512, &mut rng);
        let w = m.spec().sf.ways();
        let target = cands.addresses()[0];
        let congruent = oracle::congruent_with(&m, target, &cands.addresses()[1..]);
        let set = EvictionSet::new(congruent[..w].to_vec(), TargetCache::Sf);
        let mut monitor = Monitor::new(Strategy::Parallel, set);
        let trace = monitor.collect(&mut m, 200_000);
        assert!(trace.is_empty(), "no victim and no noise -> no detections, got {}", trace.len());
        assert!(trace.probes > 10);
    }

    #[test]
    fn cloud_noise_produces_detections_at_plausible_rate() {
        let mut m = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::cloud_run())
            .seed(4)
            .build();
        let mut rng = SmallRng::seed_from_u64(4);
        let cands = CandidateSet::allocate(&mut m, 0x80, 512, &mut rng);
        let w = m.spec().sf.ways();
        let target = cands.addresses()[0];
        let congruent = oracle::congruent_with(&m, target, &cands.addresses()[1..]);
        let set = EvictionSet::new(congruent[..w].to_vec(), TargetCache::Sf);
        let mut monitor = Monitor::new(Strategy::Parallel, set);
        // 2 ms at 2 GHz: expect on the order of 2 * 11.5 = ~23 noise hits.
        let trace = monitor.collect(&mut m, 4_000_000);
        let rate = trace.accesses_per_ms(2.0);
        assert!(
            (2.0..40.0).contains(&rate),
            "detected noise rate {rate}/ms should be near the configured 11.5/ms"
        );
    }

    /// The integer sums give the two-pass mean and population standard
    /// deviation, up to the rounding of the two-pass float sums.
    #[test]
    fn latency_sums_give_the_two_pass_mean_and_std() {
        let values: Vec<u64> = (0..10_000u64).map(|i| 90 + i * 7919 % 113).collect();
        let mut sums = LatencySums::default();
        for &v in &values {
            sums.add(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<u64>() as f64 / n;
        let var = values.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        let (got_mean, got_std) = sums.mean_std();
        assert_eq!(got_mean, mean);
        assert!((got_std - var.sqrt()).abs() < 1e-9 * var.sqrt(), "{got_std} vs {}", var.sqrt());
        assert_eq!(LatencySums::default().mean_std(), (0.0, 0.0));
        let mut one = LatencySums::default();
        one.add(20_000);
        assert_eq!(one.mean_std(), (20_000.0, 0.0));
    }

    #[test]
    fn stats_are_populated() {
        let mut m = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::silent())
            .seed(5)
            .build();
        let mut rng = SmallRng::seed_from_u64(5);
        let cands = CandidateSet::allocate(&mut m, 0x0, 512, &mut rng);
        let w = m.spec().sf.ways();
        let target = cands.addresses()[0];
        let congruent = oracle::congruent_with(&m, target, &cands.addresses()[1..]);
        let set = EvictionSet::new(congruent[..w].to_vec(), TargetCache::Sf);
        let mut monitor = Monitor::new(Strategy::PsFlush, set);
        let _ = monitor.collect(&mut m, 100_000);
        let stats = monitor.stats();
        assert!(stats.mean_prime_cycles > 0.0);
        assert!(stats.mean_probe_cycles > 0.0);
        assert!(stats.mean_prime_cycles > stats.mean_probe_cycles);
    }
}
