//! Alternative LSH families for ablation studies.
//!
//! Section 3.2 of the paper surveys the LSH families considered —
//! random projection, stable distributions, min-wise independent
//! permutations — before settling on the axis-threshold variant. These
//! implementations let the benches compare the chosen family against
//! the classics.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::signature::Signature;

/// Classic sign-random-projection (Charikar): bit `i` is the sign of the
/// dot product with a random Gaussian direction. Collision probability
/// is `1 − θ/π` per bit, where `θ` is the angle between points.
#[derive(Clone, Debug)]
pub struct SignRandomProjection {
    directions: Vec<Vec<f64>>,
}

impl SignRandomProjection {
    /// Draw `m` random directions in `d` dimensions.
    ///
    /// # Panics
    /// Panics if `m` is 0 or exceeds [`Signature::MAX_BITS`], or `d == 0`.
    pub fn new(m: usize, d: usize, seed: u64) -> Self {
        assert!(
            (1..=Signature::MAX_BITS).contains(&m),
            "m must be in 1..=64"
        );
        assert!(d > 0, "d must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let directions = (0..m)
            .map(|_| (0..d).map(|_| standard_normal(&mut rng)).collect())
            .collect();
        Self { directions }
    }

    /// Signature width.
    pub fn num_bits(&self) -> usize {
        self.directions.len()
    }

    /// Hash one point.
    pub fn hash(&self, point: &[f64]) -> Signature {
        let mut sig = Signature::zero(self.directions.len());
        for (i, w) in self.directions.iter().enumerate() {
            let dot: f64 = w.iter().zip(point).map(|(a, b)| a * b).sum();
            if dot > 0.0 {
                sig.set(i, true);
            }
        }
        sig
    }

    /// Hash a whole dataset.
    pub fn hash_all(&self, points: &[Vec<f64>]) -> Vec<Signature> {
        points.iter().map(|p| self.hash(p)).collect()
    }
}

/// Box–Muller standard normal draw (keeps us off non-sanctioned
/// distribution crates).
fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Min-wise independent permutations over binary set representations
/// (Broder), the family the paper cites for near-duplicate detection.
///
/// Points are interpreted as sets: element `j` is present when
/// `point[j] > 0`. Each hash function is a seeded permutation surrogate
/// `π(j) = (a·j + b) mod P`; the min over present elements is folded to
/// one signature bit (parity), so min-hash sketches compose with the
/// same bucket machinery as the other families.
#[derive(Clone, Debug)]
pub struct MinHash {
    coeffs: Vec<(u64, u64)>,
}

/// A Mersenne prime comfortably above any feature index we hash.
const MINHASH_PRIME: u64 = (1 << 61) - 1;

impl MinHash {
    /// Create `m` hash functions.
    ///
    /// # Panics
    /// Panics if `m` is 0 or exceeds [`Signature::MAX_BITS`].
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(
            (1..=Signature::MAX_BITS).contains(&m),
            "m must be in 1..=64"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let coeffs = (0..m)
            .map(|_| {
                (
                    rng.gen_range(1..MINHASH_PRIME),
                    rng.gen_range(0..MINHASH_PRIME),
                )
            })
            .collect();
        Self { coeffs }
    }

    /// Signature width.
    pub fn num_bits(&self) -> usize {
        self.coeffs.len()
    }

    /// Minimum permuted index over the point's support, for hash `i`.
    fn min_hash_value(&self, i: usize, point: &[f64]) -> u64 {
        let (a, b) = self.coeffs[i];
        point
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .map(|(j, _)| (a.wrapping_mul(j as u64 + 1).wrapping_add(b)) % MINHASH_PRIME)
            .min()
            .unwrap_or(MINHASH_PRIME)
    }

    /// Hash one point: bit `i` is the parity of the i-th min-hash.
    pub fn hash(&self, point: &[f64]) -> Signature {
        let mut sig = Signature::zero(self.coeffs.len());
        for i in 0..self.coeffs.len() {
            if self.min_hash_value(i, point) & 1 == 1 {
                sig.set(i, true);
            }
        }
        sig
    }

    /// Hash a whole dataset.
    pub fn hash_all(&self, points: &[Vec<f64>]) -> Vec<Signature> {
        points.iter().map(|p| self.hash(p)).collect()
    }
}

/// p-stable LSH for Euclidean distance (Datar–Immorlica–Indyk–Mirrokni):
/// `h(x) = ⌊(w·x + b)/r⌋` with Gaussian `w` (2-stable) and uniform
/// offset `b ∈ [0, r)`. Nearby points land in the same interval with
/// probability decreasing in `‖x−y‖₂ / r`.
#[derive(Clone, Debug)]
pub struct PStableLsh {
    directions: Vec<Vec<f64>>,
    offsets: Vec<f64>,
    width: f64,
}

impl PStableLsh {
    /// Create `m` hash functions over `d` dimensions with interval
    /// width `r`.
    ///
    /// # Panics
    /// Panics if `m` is 0 or exceeds [`Signature::MAX_BITS`], `d == 0`,
    /// or `r <= 0`.
    pub fn new(m: usize, d: usize, r: f64, seed: u64) -> Self {
        assert!(
            (1..=Signature::MAX_BITS).contains(&m),
            "m must be in 1..=64"
        );
        assert!(d > 0, "d must be positive");
        assert!(r > 0.0, "interval width must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let directions: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..d).map(|_| standard_normal(&mut rng)).collect())
            .collect();
        let offsets: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..r)).collect();
        Self {
            directions,
            offsets,
            width: r,
        }
    }

    /// Signature width.
    pub fn num_bits(&self) -> usize {
        self.directions.len()
    }

    /// The integer hash values `⌊(w·x + b)/r⌋` for every function.
    fn hash_values(&self, point: &[f64]) -> Vec<i64> {
        self.directions
            .iter()
            .zip(&self.offsets)
            .map(|(w, &b)| {
                let dot: f64 = w.iter().zip(point).map(|(a, x)| a * x).sum();
                ((dot + b) / self.width).floor() as i64
            })
            .collect()
    }

    /// One-bit fold (interval parity) so p-stable sketches compose with
    /// the same bucket machinery as the other families.
    pub fn hash(&self, point: &[f64]) -> Signature {
        let mut sig = Signature::zero(self.num_bits());
        for (i, v) in self.hash_values(point).into_iter().enumerate() {
            if v.rem_euclid(2) == 1 {
                sig.set(i, true);
            }
        }
        sig
    }

    /// Hash a whole dataset.
    pub fn hash_all(&self, points: &[Vec<f64>]) -> Vec<Signature> {
        points.iter().map(|p| self.hash(p)).collect()
    }
}

/// Spectral-hashing-style PCA hash: project onto the data's top
/// principal directions and threshold at the median projection — a
/// data-dependent family that yields **balanced** partitions, the
/// remedy the paper proposes for "very skewed data distributions".
#[derive(Clone, Debug)]
pub struct PcaHash {
    mean: Vec<f64>,
    directions: Vec<Vec<f64>>,
    thresholds: Vec<f64>,
}

impl PcaHash {
    /// Fit `m` hash bits to a dataset.
    ///
    /// # Panics
    /// Panics on an empty/ragged dataset, `m == 0`, or `m` above
    /// [`Signature::MAX_BITS`].
    pub fn fit(points: &[Vec<f64>], m: usize) -> Self {
        assert!(!points.is_empty(), "PcaHash::fit: empty dataset");
        assert!(
            (1..=Signature::MAX_BITS).contains(&m),
            "m must be in 1..=64"
        );
        let d = points[0].len();
        assert!(
            points.iter().all(|p| p.len() == d),
            "PcaHash::fit: ragged dataset"
        );
        let n = points.len() as f64;

        // Mean and covariance.
        let mut mean = vec![0.0; d];
        for p in points {
            for (mj, &v) in mean.iter_mut().zip(p) {
                *mj += v;
            }
        }
        for mj in &mut mean {
            *mj /= n;
        }
        let mut cov = dasc_linalg::Matrix::zeros(d, d);
        for p in points {
            for i in 0..d {
                let ci = p[i] - mean[i];
                for j in i..d {
                    let v = ci * (p[j] - mean[j]);
                    cov[(i, j)] += v;
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                let v = cov[(i, j)] / n;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }

        // Top-m principal directions (cycled if m > d).
        let eig = dasc_linalg::symmetric_eigen(&cov);
        let (_, vecs) = eig.top_k(m.min(d));
        let directions: Vec<Vec<f64>> = (0..m).map(|i| vecs.col(i % m.min(d))).collect();

        // Median thresholds → balanced bits.
        let thresholds: Vec<f64> = directions
            .iter()
            .map(|w| {
                let mut proj: Vec<f64> = points
                    .iter()
                    .map(|p| {
                        p.iter()
                            .zip(w)
                            .zip(&mean)
                            .map(|((x, wi), mu)| (x - mu) * wi)
                            .sum()
                    })
                    .collect();
                proj.sort_by(|a, b| a.partial_cmp(b).expect("NaN projection"));
                proj[proj.len() / 2]
            })
            .collect();

        Self {
            mean,
            directions,
            thresholds,
        }
    }

    /// Signature width.
    pub fn num_bits(&self) -> usize {
        self.directions.len()
    }

    /// Hash one point: bit `i` is the sign of the centered projection
    /// against the median threshold.
    pub fn hash(&self, point: &[f64]) -> Signature {
        let mut sig = Signature::zero(self.num_bits());
        for (i, (w, &t)) in self.directions.iter().zip(&self.thresholds).enumerate() {
            let proj: f64 = point
                .iter()
                .zip(w)
                .zip(&self.mean)
                .map(|((x, wi), mu)| (x - mu) * wi)
                .sum();
            if proj > t {
                sig.set(i, true);
            }
        }
        sig
    }

    /// Hash a whole dataset.
    pub fn hash_all(&self, points: &[Vec<f64>]) -> Vec<Signature> {
        points.iter().map(|p| self.hash(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srp_identical_points_collide() {
        let srp = SignRandomProjection::new(16, 4, 1);
        let p = vec![0.3, -0.2, 0.9, 0.0];
        assert_eq!(srp.hash(&p), srp.hash(&p));
    }

    #[test]
    fn srp_scaling_invariance() {
        // Sign projections ignore magnitude: x and 10x hash identically.
        let srp = SignRandomProjection::new(32, 3, 2);
        let p = vec![0.5, -1.0, 2.0];
        let q: Vec<f64> = p.iter().map(|v| v * 10.0).collect();
        assert_eq!(srp.hash(&p), srp.hash(&q));
    }

    #[test]
    fn srp_opposite_points_differ_everywhere() {
        let srp = SignRandomProjection::new(32, 5, 3);
        let p = vec![1.0, 0.5, -0.3, 0.8, 0.1];
        let q: Vec<f64> = p.iter().map(|v| -v).collect();
        // Antipodal points flip every decided bit (dot products negate).
        let hp = srp.hash(&p);
        let hq = srp.hash(&q);
        assert_eq!(hp.hamming(&hq), 32);
    }

    #[test]
    fn srp_close_points_mostly_collide() {
        let srp = SignRandomProjection::new(32, 8, 4);
        let p: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) / 8.0).collect();
        let q: Vec<f64> = p.iter().map(|v| v + 0.001).collect();
        assert!(srp.hash(&p).hamming(&srp.hash(&q)) <= 2);
    }

    #[test]
    fn srp_deterministic_per_seed() {
        let a = SignRandomProjection::new(8, 4, 7).hash(&[1.0, 2.0, 3.0, 4.0]);
        let b = SignRandomProjection::new(8, 4, 7).hash(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
        let c = SignRandomProjection::new(8, 4, 8).hash(&[1.0, 2.0, 3.0, 4.0]);
        // Different seed virtually never yields identical directions;
        // signatures may still coincide, so only check determinism above.
        let _ = c;
    }

    #[test]
    fn minhash_identical_sets_agree() {
        let mh = MinHash::new(16, 5);
        let p = vec![1.0, 0.0, 2.0, 0.0, 1.0];
        assert_eq!(mh.hash(&p), mh.hash(&p));
    }

    #[test]
    fn pstable_close_points_share_intervals() {
        let ps = PStableLsh::new(16, 4, 4.0, 9);
        let p = vec![0.5, 0.5, 0.5, 0.5];
        let q: Vec<f64> = p.iter().map(|v| v + 0.01).collect();
        let hp = ps.hash_values(&p);
        let hq = ps.hash_values(&q);
        let same = hp.iter().zip(&hq).filter(|(a, b)| a == b).count();
        assert!(same >= 14, "only {same}/16 intervals shared");
        assert!(ps.hash(&p).hamming(&ps.hash(&q)) <= 2);
    }

    #[test]
    fn pstable_far_points_diverge() {
        let ps = PStableLsh::new(32, 4, 0.5, 10);
        let p = vec![0.0; 4];
        let q = vec![100.0; 4];
        let hp = ps.hash_values(&p);
        let hq = ps.hash_values(&q);
        let same = hp.iter().zip(&hq).filter(|(a, b)| a == b).count();
        assert!(same <= 4, "{same}/32 intervals shared for distant points");
    }

    #[test]
    fn pstable_deterministic_per_seed() {
        let a = PStableLsh::new(8, 3, 1.0, 5).hash(&[1.0, 2.0, 3.0]);
        let b = PStableLsh::new(8, 3, 1.0, 5).hash(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn pca_hash_bits_are_balanced() {
        // Skewed data: 90% mass near zero — exactly where the paper's
        // valley rule degenerates; PCA-median bits stay balanced.
        let mut pts: Vec<Vec<f64>> = (0..90).map(|i| vec![0.001 * i as f64, 0.0]).collect();
        pts.extend((0..10).map(|i| vec![0.9 + 0.001 * i as f64, 1.0]));
        let ph = PcaHash::fit(&pts, 2);
        let sigs = ph.hash_all(&pts);
        for bit in 0..2 {
            let ones = sigs.iter().filter(|s| s.get(bit)).count();
            assert!(
                (25..=75).contains(&ones),
                "bit {bit} unbalanced: {ones}/100 ones"
            );
        }
    }

    #[test]
    fn pca_hash_first_direction_separates_principal_axis() {
        // Variance concentrated along dim 1: the first bit must track it.
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![0.5 + 0.001 * (i % 3) as f64, i as f64 / 100.0])
            .collect();
        let ph = PcaHash::fit(&pts, 1);
        let low = ph.hash(&[0.5, 0.0]);
        let high = ph.hash(&[0.5, 1.0]);
        assert_ne!(low.get(0), high.get(0));
    }

    #[test]
    fn pca_hash_deterministic() {
        let pts: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i % 17) as f64])
            .collect();
        let a = PcaHash::fit(&pts, 4);
        let b = PcaHash::fit(&pts, 4);
        assert_eq!(a.hash_all(&pts), b.hash_all(&pts));
    }

    #[test]
    #[should_panic(expected = "interval width")]
    fn pstable_zero_width_panics() {
        PStableLsh::new(4, 2, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn pca_empty_panics() {
        PcaHash::fit(&[], 2);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn srp_zero_bits_panics() {
        SignRandomProjection::new(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn minhash_too_wide_panics() {
        MinHash::new(65, 0);
    }
}
