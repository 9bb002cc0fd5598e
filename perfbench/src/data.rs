//! Workload inputs: Gaussian mixtures in `[0, 1]^64` (the paper's
//! synthetic setting) whose structure is fixed and whose sample is drawn
//! from the run seed.
//!
//! Fixing the structure is what keeps a workload's cost steady from seed
//! to seed. With freely placed blob centroids (`SyntheticConfig::blobs`),
//! the LSH thresholds land in different histogram valleys for every
//! sample, and on a 2-core host the wall time of one workload varied by
//! more than 2× across four seeds. Here the first `grid_bits` dimensions
//! carry a binary grid (`0.25`/`0.75`), so the paper's span-ranked,
//! histogram-valley hash planes cut at mid-range and the buckets are the
//! grid cells on every seed. The remaining dimensions carry a fixed
//! `0.5 ± 0.1` sign pattern per cluster: narrow enough that the planes
//! never pick them before the grid dimensions, wide enough that clusters
//! sharing a cell stay separable under the σ = 0.2 Gaussian kernel.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Dimensionality of every workload (the paper's 64).
pub const DIM: usize = 64;
/// Per-dimension standard deviation of each cluster before clamping.
const SPREAD: f64 = 0.04;
/// Offset of the per-cluster sign pattern on the non-grid dimensions.
const PATTERN: f64 = 0.1;
/// Seed of the sign patterns; the mixture is the same for every run seed.
const STRUCTURE_SEED: u64 = 0xDA7A;

/// A mixture of equal-sized clusters on a binary grid.
///
/// Cell 0 hosts `hub_clusters` clusters and every other cell one, so the
/// LSH bucket holding cell 0 is the skewed one.
#[derive(Clone, Copy, Debug)]
pub struct Mixture {
    /// Leading dimensions that carry the grid; `2^grid_bits` cells.
    pub grid_bits: usize,
    /// Clusters sharing cell 0.
    pub hub_clusters: usize,
}

/// A drawn dataset with its ground truth.
pub struct Sample {
    /// Points, row per point.
    pub points: Vec<Vec<f64>>,
    /// Ground-truth cluster of each point.
    pub labels: Vec<usize>,
}

impl Mixture {
    /// Number of ground-truth clusters.
    pub fn clusters(&self) -> usize {
        (1 << self.grid_bits) - 1 + self.hub_clusters
    }

    /// Grid cell of cluster `c`: the hub clusters share cell 0, the rest
    /// take cells `1..2^grid_bits` in order.
    fn cell(&self, c: usize) -> usize {
        if c < self.hub_clusters {
            0
        } else {
            c - self.hub_clusters + 1
        }
    }

    fn centroids(&self) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(STRUCTURE_SEED);
        (0..self.clusters())
            .map(|c| {
                let cell = self.cell(c);
                (0..DIM)
                    .map(|j| {
                        if j < self.grid_bits {
                            if (cell >> j) & 1 == 1 {
                                0.75
                            } else {
                                0.25
                            }
                        } else if rng.gen_range(0.0..1.0) < 0.5 {
                            0.5 - PATTERN
                        } else {
                            0.5 + PATTERN
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Draw `n` points, cluster `i mod K` for point `i`, from `seed`.
    pub fn sample(&self, n: usize, seed: u64) -> Sample {
        let centroids = self.centroids();
        let k = centroids.len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % k;
            points.push(
                centroids[c]
                    .iter()
                    .map(|&mu| (mu + SPREAD * standard_normal(&mut rng)).clamp(0.0, 1.0))
                    .collect(),
            );
            labels.push(c);
        }
        Sample { points, labels }
    }
}

fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_is_fixed_and_sample_follows_seed() {
        let m = Mixture {
            grid_bits: 3,
            hub_clusters: 4,
        };
        assert_eq!(m.clusters(), 11);
        assert_eq!(m.centroids(), m.centroids());
        let a = m.sample(200, 1);
        assert_eq!(a.points, m.sample(200, 1).points);
        assert_ne!(a.points, m.sample(200, 2).points);
        assert_eq!(a.labels, m.sample(200, 2).labels);
    }

    #[test]
    fn grid_dimensions_encode_the_cell() {
        let m = Mixture {
            grid_bits: 3,
            hub_clusters: 2,
        };
        let s = m.sample(500, 7);
        for (p, &c) in s.points.iter().zip(&s.labels) {
            for (j, &v) in p.iter().enumerate().take(3) {
                assert_eq!(v > 0.5, (m.cell(c) >> j) & 1 == 1, "cluster {c} dim {j}");
            }
        }
    }
}
