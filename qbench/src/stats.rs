//! Small numeric helpers: seeded streams, percentiles, digests.

/// SplitMix64: the benchmark's own input generator, so inputs depend only
/// on `--seed` and never on the program under test.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    pub fn new(seed: u64, salt: u64) -> Stream {
        Stream(mix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value exactly representable as a JSON number (below 2^32), so
    /// seeds survive the wire protocol unchanged.
    pub fn wire_u64(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of `samples` (`p` in (0, 1]) and the number of
/// samples strictly beyond it.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).0
}

/// Smallest sample count at which percentile `p` has ten samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (10.0 / (1.0 - p)).ceil() as usize
}

/// An order-sensitive 64-bit digest over f64 bit patterns and integers.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
