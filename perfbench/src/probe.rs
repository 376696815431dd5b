//! A host-speed probe: a fixed reference workload, independent of the
//! program under test, that measures how fast the host runs cache-bound code
//! at the moment.
//!
//! On a shared host, neighbours slow cache-bound code by up to 2x, for
//! seconds within a run and for many minutes across runs. The timed figures
//! of two runs of the same code then differ by the host's speed, not the
//! program's. A run samples the probe once a round, between its timed
//! slices, and its time figures are scaled to [`REFERENCE_RATE`]: a rate is
//! multiplied by `REFERENCE_RATE / probe rate`, a duration by `probe rate /
//! REFERENCE_RATE`. A change to the program moves the scaled figures as it
//! moves the raw ones, because the probe runs none of the program's code.

use std::time::Instant;

use crate::trace::quantile;

/// Probe updates per second on a calm 2-vCPU host: the speed the scaled
/// figures refer to.
pub const REFERENCE_RATE: f64 = 1.0e8;

/// Entries of the probe's state table: 2 MiB, the size of a core's L2, so
/// that the probe, like the engine, slows when neighbours contend for the
/// caches.
const STATE_ENTRIES: usize = 1 << 18;

/// Updates in one sample, about 2 ms.
const UPDATES: u32 = 200_000;

/// Entries of the buffer written before each sample: 8 MiB, enough to push
/// the state table out of L2, so that every sample starts from the same
/// cache state whether or not other work ran since the last one.
const EVICT_ENTRIES: usize = 1 << 20;

/// Samples the host's speed.
pub struct HostProbe {
    state: Vec<u64>,
    evict: Vec<u64>,
    x: u64,
    rates: Vec<f64>,
}

impl HostProbe {
    pub fn new() -> Self {
        Self {
            state: (0..STATE_ENTRIES as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            // Written now, so the pages count in the resident memory a run
            // measures before its timed phases.
            evict: vec![1; EVICT_ENTRIES],
            x: 1,
            rates: Vec::new(),
        }
    }

    /// Times one sample: [`UPDATES`] read-modify-writes at pseudo-random
    /// places of the state table, each with a data-dependent branch.
    pub fn sample(&mut self) {
        for line in self.evict.chunks_mut(8) {
            line[0] = line[0].wrapping_add(1);
        }
        std::hint::black_box(&self.evict);
        let started = Instant::now();
        let mask = self.state.len() - 1;
        for _ in 0..UPDATES {
            self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.x ^ (self.x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let i = (z >> 20) as usize & mask;
            let v = self.state[i];
            self.state[i] = if v & 1 == 0 {
                v.wrapping_add(z)
            } else {
                v ^ (z >> 7)
            };
        }
        std::hint::black_box(&self.state);
        self.rates
            .push(f64::from(UPDATES) / started.elapsed().as_secs_f64());
    }

    /// The host's speed relative to the reference: the `q` quantile of the
    /// samples' rates over [`REFERENCE_RATE`]. Take the same quantile that
    /// picks the program's figures from its calm rounds.
    pub fn speed(&mut self, q: f64) -> f64 {
        quantile(&mut self.rates, q) / REFERENCE_RATE
    }
}

#[cfg(test)]
mod tests {
    use super::HostProbe;

    #[test]
    fn speed_is_a_positive_ratio() {
        let mut probe = HostProbe::new();
        for _ in 0..3 {
            probe.sample();
        }
        let speed = probe.speed(0.95);
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
    }
}
