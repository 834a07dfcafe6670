//! Seeded input generation: everything the program under test is fed
//! derives from `--seed` through [`Rng`], and [`Digest`] fingerprints the
//! generated request stream so two commits can be shown to have received
//! identical input.

/// SplitMix64 — small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the workloads'
    /// uses of one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// FNV-1a over the request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one integer into the digest.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One generated request: which format it goes to and which pool samples
/// it carries (a batch for the offline workloads, a wire request for the
/// networked ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Index into the workload's format trio.
    pub format: usize,
    /// Indices into the model's sample pool, in request order.
    pub samples: Vec<usize>,
}

/// The request stream of a workload.
///
/// * `exhaustive` (offline): one seeded permutation of the whole pool,
///   wrapped around to a whole number of `per_request`-sample requests,
///   served once per format with the format rotating round-robin — so
///   every pool sample meets every format.
/// * otherwise (networked): `requests` requests of `per_request` samples
///   drawn uniformly from the pool, formats round-robin.
pub fn request_stream(
    seed: u64,
    pool: usize,
    formats: usize,
    per_request: usize,
    exhaustive: bool,
    requests: usize,
) -> Vec<RequestSpec> {
    let mut rng = Rng::new(seed, 0x5EED);
    if !exhaustive {
        return (0..requests)
            .map(|i| RequestSpec {
                format: i % formats,
                samples: (0..per_request).map(|_| rng.below(pool)).collect(),
            })
            .collect();
    }
    let order = rng.permutation(pool);
    let padded: Vec<usize> = order
        .iter()
        .cycle()
        .take(pool.div_ceil(per_request) * per_request)
        .copied()
        .collect();
    (0..formats)
        .flat_map(|pass| {
            padded
                .chunks(per_request)
                .enumerate()
                .map(move |(j, chunk)| RequestSpec {
                    format: (j + pass) % formats,
                    samples: chunk.to_vec(),
                })
        })
        .collect()
}

/// Fingerprint of a stream as the program under test receives it: per
/// request the format index, the sample count and every feature's bits.
pub fn stream_digest(stream: &[RequestSpec], pool: &[Vec<f32>]) -> Digest {
    let mut d = Digest::default();
    for req in stream {
        d.word(req.format as u64);
        d.word(req.samples.len() as u64);
        for &s in &req.samples {
            for v in &pool[s] {
                d.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_pool(n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![i as f32, 0.5 * i as f32]).collect()
    }

    #[test]
    fn same_seed_same_stream_and_digest() {
        let pool = toy_pool(50);
        for exhaustive in [true, false] {
            let a = request_stream(42, 50, 3, 16, exhaustive, 64);
            let b = request_stream(42, 50, 3, 16, exhaustive, 64);
            let c = request_stream(43, 50, 3, 16, exhaustive, 64);
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_eq!(stream_digest(&a, &pool), stream_digest(&b, &pool));
            assert_ne!(stream_digest(&a, &pool), stream_digest(&c, &pool));
            assert_eq!(stream_digest(&a, &pool).hex().len(), 16);
        }
    }

    #[test]
    fn exhaustive_streams_serve_every_sample_to_every_format() {
        // 100 samples in requests of 64: two full requests per pass (the
        // second wraps around), one pass per format.
        let stream = request_stream(7, 100, 3, 64, true, 0);
        assert_eq!(stream.len(), 6);
        assert!(stream.iter().all(|r| r.samples.len() == 64));
        let mut seen = vec![[false; 3]; 100];
        for req in &stream {
            for &s in &req.samples {
                seen[s][req.format] = true;
            }
        }
        assert!(seen.iter().all(|f| f.iter().all(|&b| b)));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut order = Rng::new(1, 2).permutation(257);
        order.sort_unstable();
        assert_eq!(order, (0..257).collect::<Vec<_>>());
    }
}
