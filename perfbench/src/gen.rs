//! The three workloads and their seeded input generator.
//!
//! Every workload interleaves Zipf-skewed per-stream bursts of binary error
//! indicators (`0.0` = correct prediction, `1.0` = wrong). Each stream is
//! piecewise stationary: its error rate alternates between a low and a high
//! level at segment boundaries, so the detectors have drifts to find.
//!
//! The inputs are a warm-up prefix followed by a pool of batches that the
//! timed phases submit cyclically: the `g`-th submitted batch is
//! [`Inputs::batch`]`(g)`. Cycling keeps memory flat however fast the engine
//! runs, while per-stream order stays the submission order, so the
//! reference fold sees exactly what the engine saw.

use optwin_baselines::DetectorSpec;
use optwin_core::OptwinConfig;

/// Flush, checkpoint and hibernation cadence of a durable workload.
#[derive(Debug, Clone, Copy)]
pub struct Durable {
    /// Submitted batches between two `flush` calls.
    pub flush_every: usize,
    /// Flushes between two explicit `checkpoint` calls.
    pub checkpoint_every: usize,
    /// `HibernationPolicy::cold_after_flushes` of the engine.
    pub cold_after: u32,
}

/// One benchmark workload: the fleet, its traffic shape and its cadence.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Number of streams; ids are `0..streams`.
    pub streams: u64,
    /// Detector specs, assigned round-robin: stream `s` runs
    /// `specs[s % specs.len()]`. A single spec becomes the engine's default
    /// spec; several are registered per stream at build time.
    pub specs: &'static [&'static str],
    /// Zipf exponent of the per-stream traffic weights.
    pub zipf: f64,
    /// Mean burst length, in records, drained from one stream at a time.
    pub burst: usize,
    /// Records per `submit` call.
    pub batch: usize,
    /// Per-stream records between two error-rate changes.
    pub segment: usize,
    /// Whether the engine emits warnings as well as drifts.
    pub warnings: bool,
    /// Batches submitted in one closed-loop slice: a fixed amount of work
    /// that takes a few tens of milliseconds, so a run holds a hundred
    /// slices or more. A durable workload's slice is a whole number of its
    /// checkpoint periods, so every slice pays the same durability work.
    pub closed_batches: usize,
    /// Offered load of the open-loop slices, in records per second: a
    /// constant, a quarter to a third of the closed-loop throughput measured
    /// on a 2-vCPU host, so that the engine still keeps up when a noisy
    /// neighbour halves the host's speed for a while.
    pub open_rate: f64,
    /// Stationary records fed to stream 0 at the start of the warm-up, so
    /// that its OPTWIN window grows to `w_max` and the cut table is complete
    /// before the timed phases.
    pub grow_records: usize,
    /// Interleaved records in the warm-up after the growing prefix.
    pub warmup_records: usize,
    /// Records in the cyclic pool the timed phases submit.
    pub pool_records: usize,
    /// Durability cadence, for the workload that checkpoints.
    pub durable: Option<Durable>,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    // The paper's configuration: the detector kernel and the cut table do
    // the work.
    Workload {
        name: "optwin-paper",
        streams: 64,
        specs: &["optwin:rho=0.5,w_max=25000"],
        zipf: 1.1,
        burst: 64,
        batch: 512,
        segment: 1_000,
        warnings: false,
        closed_batches: 1_024,
        open_rate: 3.0e6,
        grow_records: 26_000,
        warmup_records: 64 * 1024,
        pool_records: 2 << 20,
        durable: None,
    },
    // Cheap detectors over many streams in short bursts: engine overhead
    // dominates and no cut table exists.
    Workload {
        name: "cheap-fleet",
        streams: 20_000,
        specs: &["ddm", "page_hinkley"],
        zipf: 0.5,
        burst: 4,
        batch: 256,
        segment: 1_500,
        warnings: true,
        closed_batches: 1_024,
        open_rate: 1.5e6,
        grow_records: 0,
        warmup_records: 128 * 1024,
        pool_records: 2 << 20,
        durable: None,
    },
    // A mixed fleet with WAL, checkpoints and hibernation beside ingest.
    // Each checkpoint stalls the generator for ~25 ms. The cadence and the
    // offered load keep stall plus catch-up to a few percent of open-loop
    // time, so the p90 does not sit on the edge of the stalled share, while
    // every closed-loop slice holds a checkpoint and the p99 shows the
    // stalls. Denser and sparser cadences measured less steady on a 2-vCPU
    // host.
    Workload {
        name: "durable-mixed",
        streams: 2_000,
        specs: &[
            "optwin:w_max=2000",
            "adwin",
            "kswin",
            "ddm",
            "cascade:guard=page_hinkley,confirm=[optwin:w_max=2000]",
        ],
        zipf: 1.1,
        burst: 16,
        batch: 512,
        segment: 800,
        warnings: false,
        closed_batches: 16 * 32,
        open_rate: 0.45e6,
        grow_records: 2_100,
        warmup_records: 64 * 1024,
        pool_records: 2 << 20,
        durable: Some(Durable {
            flush_every: 16,
            checkpoint_every: 32,
            cold_after: 4,
        }),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The parsed spec of every entry of [`Workload::specs`].
    pub fn parsed_specs(&self) -> Vec<DetectorSpec> {
        self.specs
            .iter()
            .map(|s| s.parse().expect("workload specs are valid"))
            .collect()
    }

    /// The distinct OPTWIN configurations the fleet runs, including those
    /// nested in cascades: one cut table each.
    pub fn optwin_configs(&self) -> Vec<OptwinConfig> {
        fn collect(spec: &DetectorSpec, out: &mut Vec<OptwinConfig>) {
            match spec {
                DetectorSpec::Optwin { config } if !out.contains(config) => {
                    out.push(config.clone());
                }
                DetectorSpec::Cascade { config } => {
                    collect(&config.guard, out);
                    collect(&config.confirm, out);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        for spec in self.parsed_specs() {
            collect(&spec, &mut out);
        }
        out
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One stream's piecewise-stationary Bernoulli error source: segments of
/// exactly `segment` records alternate between a low and a high error rate,
/// starting at a random phase. Fixed levels and lengths keep the detectors'
/// work alike from seed to seed; the seed moves the draws and the phases.
struct Source {
    rng: SplitMix64,
    high: bool,
    left: usize,
}

/// Error rates of the low and high segments.
const LEVELS: [f64; 2] = [0.1, 0.5];

impl Source {
    fn new(seed: u64, stream: u64, segment: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let left = 1 + rng.below(segment as u64) as usize;
        let high = rng.below(2) == 1;
        Self { rng, high, left }
    }

    fn next(&mut self, segment: usize) -> f64 {
        if self.left == 0 {
            self.high = !self.high;
            self.left = segment;
        }
        self.left -= 1;
        f64::from(u8::from(self.rng.unit() < LEVELS[usize::from(self.high)]))
    }
}

/// Picks which stream sends the next burst, and how long the burst is.
struct Interleaver {
    rng: SplitMix64,
    /// Cumulative Zipf weights by rank.
    cdf: Vec<f64>,
    /// Stream id of each rank: a seeded permutation, so the hottest stream
    /// is not always stream 0. It keeps each rank's detector spec (rank `r`
    /// goes to a stream `s` with `s % specs == r % specs`), so the traffic
    /// share of each kind of detector, and with it the cost of a record,
    /// does not depend on the seed.
    ids: Vec<u64>,
    burst: usize,
}

impl Interleaver {
    fn new(w: &Workload, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed.rotate_left(17) ^ 0x5EED);
        let mut total = 0.0;
        let cdf = (1..=w.streams)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(w.zipf);
                total
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|c| c / total)
            .collect();
        let kinds = w.specs.len() as u64;
        let mut classes: Vec<Vec<u64>> = (0..kinds)
            .map(|c| (c..w.streams).step_by(kinds as usize).collect())
            .collect();
        for class in &mut classes {
            for i in (1..class.len()).rev() {
                class.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let ids = (0..w.streams)
            .map(|rank| classes[(rank % kinds) as usize][(rank / kinds) as usize])
            .collect();
        Self {
            rng,
            cdf,
            ids,
            burst: w.burst,
        }
    }

    fn next_burst(&mut self) -> (u64, usize) {
        let u = self.rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.ids.len() - 1);
        let len = 1 + self.rng.below(2 * self.burst as u64 - 1) as usize;
        (self.ids[rank], len)
    }
}

/// A sequence of record batches stored back to back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batches {
    records: Vec<(u64, f64)>,
    ends: Vec<usize>,
}

impl Batches {
    /// Number of batches.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Batch `i`.
    pub fn get(&self, i: usize) -> &[(u64, f64)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.records[start..self.ends[i]]
    }

    /// Every record, in order.
    pub fn records(&self) -> &[(u64, f64)] {
        &self.records
    }

    /// The records of the first `n` batches.
    pub fn prefix(&self, n: usize) -> &[(u64, f64)] {
        &self.records[..if n == 0 { 0 } else { self.ends[n - 1] }]
    }

    fn push(&mut self, record: (u64, f64), batch: usize) {
        self.records.push(record);
        let start = self.ends.last().copied().unwrap_or(0);
        if self.records.len() - start == batch {
            self.ends.push(self.records.len());
        }
    }

    fn close(&mut self) {
        if self.ends.last().copied().unwrap_or(0) < self.records.len() {
            self.ends.push(self.records.len());
        }
    }
}

/// All inputs of one run, fully generated before any timer starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The set-up prefix.
    pub warmup: Batches,
    /// The batches the timed phases submit, cyclically.
    pub pool: Batches,
}

impl Inputs {
    /// Generates the inputs of `w` for `seed`. With `pool == false` only
    /// the warm-up is generated (the set-up processes need nothing more).
    pub fn generate(w: &Workload, seed: u64, pool: bool) -> Self {
        let mut sources: Vec<Source> = (0..w.streams)
            .map(|s| Source::new(seed, s, w.segment))
            .collect();
        let mut interleaver = Interleaver::new(w, seed);
        let mut fill = |out: &mut Batches, records: usize| {
            let target = out.records.len() + records;
            while out.records.len() < target {
                let (stream, len) = interleaver.next_burst();
                let source = &mut sources[stream as usize];
                for _ in 0..len {
                    out.push((stream, source.next(w.segment)), w.batch);
                }
            }
            out.close();
        };

        let mut warmup = Batches::default();
        // A periodic 1-in-5 pattern: exactly stationary, so the growing
        // window is never cut and reaches `w_max`.
        for i in 0..w.grow_records {
            warmup.push((0, f64::from(u8::from(i % 5 == 0))), w.batch);
        }
        warmup.close();
        fill(&mut warmup, w.warmup_records);
        let mut batches = Batches::default();
        if pool {
            fill(&mut batches, w.pool_records);
        }
        Self {
            warmup,
            pool: batches,
        }
    }

    /// The `g`-th submitted batch: the warm-up first, then the pool over
    /// and over.
    pub fn batch(&self, g: usize) -> &[(u64, f64)] {
        let warm = self.warmup.len();
        if g < warm {
            self.warmup.get(g)
        } else {
            self.pool.get((g - warm) % self.pool.len())
        }
    }
}

/// For each event `(stream, seq)` of `events` — sorted by stream, then
/// seq — the index `g` of the submitted batch that carried the record the
/// event was raised on, given that batches `0..submitted` were submitted.
/// `None` for an event no submitted record matches.
pub fn carrying_batches(
    inputs: &Inputs,
    submitted: usize,
    streams: u64,
    events: &[(u64, u64)],
) -> Vec<Option<usize>> {
    let streams = streams as usize;
    // Per stream: the next event to match, and the end of its events.
    let mut cursor = vec![usize::MAX; streams];
    let mut end = vec![0usize; streams];
    for (i, &(stream, _)) in events.iter().enumerate().rev() {
        cursor[stream as usize] = i;
    }
    for (i, &(stream, _)) in events.iter().enumerate() {
        end[stream as usize] = i + 1;
    }
    let mut seq = vec![0u64; streams];
    let mut out = vec![None; events.len()];
    for g in 0..submitted {
        for &(stream, _) in inputs.batch(g) {
            let s = stream as usize;
            while cursor[s] < end[s] && events[cursor[s]].1 == seq[s] {
                out[cursor[s]] = Some(g);
                cursor[s] += 1;
            }
            seq[s] += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small(w: &Workload) -> Workload {
        Workload {
            warmup_records: 4_096,
            pool_records: 16_384,
            grow_records: w.grow_records.min(3_000),
            ..*w
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        for w in &WORKLOADS {
            let w = small(w);
            let a = Inputs::generate(&w, 7, true);
            assert_eq!(a, Inputs::generate(&w, 7, true), "{}", w.name);
            assert_ne!(a, Inputs::generate(&w, 8, true), "{}", w.name);
            assert!(a
                .pool
                .records()
                .iter()
                .all(|&(s, v)| s < w.streams && (v == 0.0 || v == 1.0)));
        }
    }

    #[test]
    fn traffic_share_of_each_spec_is_seed_independent() {
        for w in &WORKLOADS {
            let kinds = w.specs.len() as u64;
            let a = Interleaver::new(w, 1);
            let b = Interleaver::new(w, 2);
            assert_ne!(a.ids, b.ids, "{}", w.name);
            let mut sorted = a.ids.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..w.streams).collect::<Vec<_>>(), "{}", w.name);
            for (rank, (x, y)) in a.ids.iter().zip(&b.ids).enumerate() {
                assert_eq!(x % kinds, rank as u64 % kinds, "{}", w.name);
                assert_eq!(x % kinds, y % kinds, "{}", w.name);
            }
        }
    }

    #[test]
    fn interleaving_preserves_per_stream_order() {
        // Each stream's values, read out of the interleaved batches, must be
        // exactly what its own source produces in sequence.
        for w in &WORKLOADS {
            let w = Workload {
                grow_records: 0,
                ..small(w)
            };
            let inputs = Inputs::generate(&w, 3, true);
            let mut sources: Vec<Source> = (0..w.streams)
                .map(|s| Source::new(3, s, w.segment))
                .collect();
            for &(stream, value) in inputs.warmup.records().iter().chain(inputs.pool.records()) {
                assert_eq!(
                    value,
                    sources[stream as usize].next(w.segment),
                    "{}",
                    w.name
                );
            }
            let bursts: usize = inputs
                .pool
                .records()
                .windows(2)
                .filter(|p| p[0].0 != p[1].0)
                .count();
            assert!(
                bursts > inputs.pool.records().len() / (4 * w.burst),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn carrying_batch_map_is_exact() {
        let w = small(&WORKLOADS[2]);
        let inputs = Inputs::generate(&w, 11, true);
        // Submit the warm-up and the pool twice and a bit, so the cyclic
        // indexing is exercised.
        let submitted = inputs.warmup.len() + 2 * inputs.pool.len() + 5;
        let mut truth = HashMap::new();
        let mut seq = vec![0u64; w.streams as usize];
        for g in 0..submitted {
            for &(stream, _) in inputs.batch(g) {
                truth.insert((stream, seq[stream as usize]), g);
                seq[stream as usize] += 1;
            }
        }
        let mut rng = SplitMix64::new(5);
        let mut events: Vec<(u64, u64)> = (0..5_000)
            .map(|_| {
                let stream = rng.below(w.streams);
                (stream, rng.below(seq[stream as usize] + 2))
            })
            .collect();
        events.sort_unstable();
        events.dedup();
        let map = carrying_batches(&inputs, submitted, w.streams, &events);
        for (event, g) in events.iter().zip(map) {
            assert_eq!(g, truth.get(event).copied(), "{event:?}");
        }
    }

    #[test]
    fn nested_optwin_configs_share_one_table() {
        let durable = Workload::by_name("durable-mixed").unwrap();
        assert_eq!(durable.optwin_configs().len(), 1);
        assert!(Workload::by_name("cheap-fleet")
            .unwrap()
            .optwin_configs()
            .is_empty());
        let paper = &Workload::by_name("optwin-paper").unwrap().optwin_configs()[0];
        assert_eq!((paper.rho, paper.w_max), (0.5, 25_000));
    }
}
