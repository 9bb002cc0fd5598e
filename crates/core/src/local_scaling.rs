//! Self-tuning similarity (Zelnik-Manor & Perona): per-point bandwidths.
//!
//! A single global σ (Eq. 1's bandwidth) fails when cluster densities
//! differ — tight clusters dissolve or sparse ones merge. Local scaling
//! replaces it with `S_ij = exp(−‖xᵢ−xⱼ‖² / (σᵢ σⱼ))` where `σᵢ` is the
//! distance from `xᵢ` to its `r`-th neighbour. A natural companion to
//! the paper's pipeline: the resulting matrix drops straight into
//! [`crate::SpectralClustering::run_on_similarity_owned`].

use dasc_linalg::Matrix;
use dasc_lsh::KdTree;
use rayon::prelude::*;

/// Per-point scale parameters: the distance to each point's `r`-th
/// nearest neighbour (Zelnik-Manor & Perona use `r = 7`).
///
/// # Panics
/// Panics if the dataset is empty or `r == 0`.
pub fn local_scales(points: &[Vec<f64>], r: usize) -> Vec<f64> {
    assert!(!points.is_empty(), "local_scales: empty dataset");
    assert!(r >= 1, "local_scales: r must be at least 1");
    let r = r.min(points.len().saturating_sub(1)).max(1);
    let tree = KdTree::build(points);
    (0..points.len())
        .into_par_iter()
        .map(|i| {
            let nn = tree.nearest(points, &points[i], r, Some(i));
            // Coincident points give σ = 0; floor at a tiny positive
            // value so the kernel stays defined.
            nn.last().map(|&(_, d)| d).unwrap_or(0.0).max(1e-12)
        })
        .collect()
}

/// Build the locally-scaled similarity matrix
/// `S_ij = exp(−‖xᵢ−xⱼ‖² / (σᵢσⱼ))`, with unit diagonal.
///
/// # Panics
/// Panics on an empty dataset or `r == 0`.
pub fn local_scaling_similarity(points: &[Vec<f64>], r: usize) -> Matrix {
    let n = points.len();
    let scales = local_scales(points, r);
    let mut s = Matrix::zeros(n, n);
    let rows: Vec<Vec<f64>> = (0..n)
        .into_par_iter()
        .map(|i| {
            (i..n)
                .map(|j| {
                    if i == j {
                        1.0
                    } else {
                        let d2 = dasc_linalg::vector::sq_dist(&points[i], &points[j]);
                        (-d2 / (scales[i] * scales[j])).exp()
                    }
                })
                .collect()
        })
        .collect();
    for (i, row) in rows.into_iter().enumerate() {
        for (off, v) in row.into_iter().enumerate() {
            let j = i + off;
            s[(i, j)] = v;
            s[(j, i)] = v;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral::{SpectralClustering, SpectralConfig};
    use dasc_kernel::Kernel;
    use dasc_metrics::accuracy;

    /// Two clusters of very different density: a tight blob and a
    /// diffuse one — the case where a single global σ struggles.
    fn mixed_density() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            pts.push(vec![0.5 + 0.001 * i as f64, 0.5]);
            labels.push(0);
        }
        for i in 0..30 {
            pts.push(vec![
                3.0 + 0.15 * (i % 6) as f64,
                2.0 + 0.15 * (i / 6) as f64,
            ]);
            labels.push(1);
        }
        (pts, labels)
    }

    #[test]
    fn scales_reflect_density() {
        let (pts, _) = mixed_density();
        let scales = local_scales(&pts, 7);
        let tight: f64 = scales[..30].iter().sum::<f64>() / 30.0;
        let diffuse: f64 = scales[30..].iter().sum::<f64>() / 30.0;
        assert!(
            diffuse > 10.0 * tight,
            "diffuse σ {diffuse} not ≫ tight σ {tight}"
        );
    }

    #[test]
    fn similarity_has_unit_diagonal_and_symmetry() {
        let (pts, _) = mixed_density();
        let s = local_scaling_similarity(&pts, 7);
        for i in 0..pts.len() {
            assert_eq!(s[(i, i)], 1.0);
        }
        assert!(s.is_symmetric(1e-12));
        // All entries in [0, 1] (cross-cluster terms may underflow to 0).
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                assert!((0.0..=1.0).contains(&s[(i, j)]));
            }
        }
    }

    #[test]
    fn local_scaling_separates_mixed_densities() {
        let (pts, truth) = mixed_density();
        let s = local_scaling_similarity(&pts, 7);
        let (c, _) = SpectralClustering::new(SpectralConfig::new(2)).run_on_similarity_owned(s);
        let acc = accuracy(&c.assignments, &truth);
        assert!(acc > 0.95, "local scaling accuracy {acc}");
    }

    #[test]
    fn global_sigma_can_be_beaten() {
        // With a σ tuned to the tight cluster, the diffuse cluster's
        // internal similarities vanish and it shatters; local scaling
        // does not have a single σ to mis-tune.
        let (pts, truth) = mixed_density();
        let bad_sigma =
            SpectralClustering::new(SpectralConfig::new(2).kernel(Kernel::gaussian(0.01)))
                .run(&pts)
                .clustering;
        let (local, _) = SpectralClustering::new(SpectralConfig::new(2))
            .run_on_similarity_owned(local_scaling_similarity(&pts, 7));
        let acc_bad = accuracy(&bad_sigma.assignments, &truth);
        let acc_local = accuracy(&local.assignments, &truth);
        assert!(
            acc_local >= acc_bad,
            "local {acc_local} worse than mis-tuned global {acc_bad}"
        );
    }

    #[test]
    fn coincident_points_do_not_divide_by_zero() {
        let pts = vec![vec![1.0, 1.0]; 5];
        let s = local_scaling_similarity(&pts, 3);
        for i in 0..5 {
            for j in 0..5 {
                assert!(s[(i, j)].is_finite());
            }
        }
    }

    #[test]
    #[should_panic(expected = "r must be at least 1")]
    fn zero_r_panics() {
        local_scales(&[vec![0.0]], 0);
    }
}
