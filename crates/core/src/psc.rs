//! PSC — Parallel Spectral Clustering (Chen, Song, Bai, Lin, Chang;
//! TPAMI 2011), the paper's strongest baseline.
//!
//! PSC sparsifies the similarity matrix to each point's `t` nearest
//! neighbours (symmetrized), then eigensolves with PARPACK. Here the
//! sparse matrix is our CSR substrate and the brute-force neighbour
//! search is rayon-parallel — the same O(N²) time / O(Nt) memory
//! profile as the original. Only the t-NN graph and its split into
//! connected components are PSC's own: each component goes through the
//! shared spectral tail ([`crate::embedding`]), whose CSR route is
//! Lanczos.

use std::collections::HashSet;

use dasc_kernel::Kernel;
use dasc_linalg::{CooBuilder, CsrMatrix};
use rayon::prelude::*;

use crate::dasc::bucket_cluster_count;
use crate::embedding::{
    cluster_embedding, lanczos_top_eigenvectors, sparse_normalized_laplacian_inplace,
};
use crate::Clustering;

/// PSC configuration.
#[derive(Clone, Debug)]
pub struct PscConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// Kernel for similarities.
    pub kernel: Kernel,
    /// Neighbours retained per point (`t`).
    pub t: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PscConfig {
    /// Defaults: Gaussian σ = 0.2, t = 10.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "PSC needs k >= 1");
        Self {
            k,
            kernel: Kernel::gaussian(0.2),
            t: 10,
            seed: 0x95C,
        }
    }

    /// Builder: kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder: neighbour count.
    pub fn neighbors(mut self, t: usize) -> Self {
        assert!(t >= 1, "PSC needs t >= 1");
        self.t = t;
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a PSC run with memory accounting.
#[derive(Clone, Debug)]
pub struct PscResult {
    /// The clustering.
    pub clustering: Clustering,
    /// Bytes of the sparse similarity matrix (values at the paper's
    /// 4-byte convention plus index structure).
    pub sparse_memory_bytes: usize,
    /// Stored non-zeros of the t-NN graph.
    pub nnz: usize,
}

/// The PSC baseline.
#[derive(Clone, Debug)]
pub struct ParallelSpectral {
    config: PscConfig,
}

impl ParallelSpectral {
    /// Create from a configuration.
    pub fn new(config: PscConfig) -> Self {
        Self { config }
    }

    /// Build the symmetrized t-NN sparse similarity matrix.
    ///
    /// For distance-monotone kernels (Gaussian, Laplacian) in modest
    /// dimension, neighbours come from a k-d tree (the paper's reference
    /// \[18\]); otherwise a row-parallel brute-force scan.
    pub fn tnn_similarity(&self, points: &[Vec<f64>]) -> CsrMatrix {
        let n = points.len();
        let t = self.config.t.min(n.saturating_sub(1)).max(1);
        let kernel = self.config.kernel;
        let d = points.first().map(|p| p.len()).unwrap_or(0);
        // Only the Gaussian kernel is exactly monotone in Euclidean
        // distance (the Laplacian ranks by L1, so it stays on the exact
        // brute-force path).
        let distance_monotone = matches!(kernel, dasc_kernel::Kernel::Gaussian { .. });

        let neighbor_lists: Vec<Vec<(usize, f64)>> =
            if distance_monotone && d > 0 && d <= 16 && n > 256 {
                // Tree-accelerated: nearest by Euclidean distance is
                // exactly most-similar under the Gaussian kernel.
                let tree = dasc_lsh::KdTree::build(points);
                (0..n)
                    .into_par_iter()
                    .map(|i| {
                        tree.nearest(points, &points[i], t, Some(i))
                            .into_iter()
                            .map(|(j, _)| (j, kernel.eval(&points[i], &points[j])))
                            .collect()
                    })
                    .collect()
            } else {
                (0..n)
                    .into_par_iter()
                    .map(|i| {
                        let mut sims: Vec<(usize, f64)> = (0..n)
                            .filter(|&j| j != i)
                            .map(|j| (j, kernel.eval(&points[i], &points[j])))
                            .collect();
                        sims.sort_by(|a, b| {
                            b.1.partial_cmp(&a.1)
                                .expect("NaN similarity")
                                .then(a.0.cmp(&b.0))
                        });
                        sims.truncate(t);
                        sims
                    })
                    .collect()
            };

        // Symmetrize: keep an edge if either endpoint selected it.
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut builder = CooBuilder::new(n, n);
        for (i, list) in neighbor_lists.iter().enumerate() {
            // Self-similarity on the diagonal keeps degrees positive for
            // isolated-ish points.
            builder.push(i, i, kernel.eval(&points[i], &points[i]));
            for &(j, v) in list {
                let key = (i.min(j), i.max(j));
                if seen.insert(key) {
                    builder.push_symmetric(key.0, key.1, v);
                }
            }
        }
        builder.build()
    }

    /// Run PSC: t-NN similarity → connected components → per-component
    /// normalized Laplacian → Lanczos → row-normalized embedding →
    /// K-means.
    ///
    /// The component decomposition matters: a t-NN graph over
    /// well-separated clusters is genuinely disconnected, which makes the
    /// Laplacian's leading eigenvalue degenerate — a single-start Lanczos
    /// (or ARPACK) run cannot span that eigenspace. Splitting by
    /// component restores simple leading eigenvalues and is what
    /// production spectral implementations do.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn run(&self, points: &[Vec<f64>]) -> PscResult {
        assert!(!points.is_empty(), "PSC: empty dataset");
        let n = points.len();
        let k = self.config.k.min(n).max(1);

        let sim = self.tnn_similarity(points);
        let nnz = sim.nnz();
        let sparse_memory_bytes = sim.storage_bytes();

        if k == 1 || n == 1 {
            return PscResult {
                clustering: Clustering::new(vec![0; n], 1),
                sparse_memory_bytes,
                nnz,
            };
        }

        // Connected components of the similarity graph.
        let comp = connected_components(&sim);
        let num_comps = comp.iter().copied().max().expect("nonempty") + 1;
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_comps];
        // Each point's index within its component.
        let mut local_index = vec![0usize; n];
        for (i, &c) in comp.iter().enumerate() {
            local_index[i] = groups[c].len();
            groups[c].push(i);
        }

        // Apportion k across components by size (at least 1 each).
        let mut assignments = vec![0usize; n];
        let mut offset = 0usize;
        for (gi, group) in groups.iter().enumerate() {
            let ki = if num_comps >= k {
                1
            } else {
                bucket_cluster_count(k, group.len(), n)
            };
            if ki == 1 || group.len() == 1 {
                for &i in group {
                    assignments[i] = offset;
                }
                offset += 1;
                continue;
            }

            // Subgraph CSR for this component; no edge leaves it.
            let mut b = CooBuilder::new(group.len(), group.len());
            for (local, &global) in group.iter().enumerate() {
                for (j, v) in sim.row_iter(global) {
                    b.push(local, local_index[j], v);
                }
            }
            let mut sub = b.build();
            sparse_normalized_laplacian_inplace(&mut sub);
            let seed = self.config.seed ^ (gi as u64).wrapping_mul(0x9E37_79B9);
            let v = lanczos_top_eigenvectors(&sub, ki, seed);
            let labels = cluster_embedding(v, self.config.seed);
            for (&global, &label) in group.iter().zip(&labels) {
                assignments[global] = offset + label;
            }
            offset += ki;
        }

        PscResult {
            clustering: Clustering::new(assignments, offset.max(1)),
            sparse_memory_bytes,
            nnz,
        }
    }
}

/// Connected components of a symmetric sparse graph (union–find),
/// returning a component id per vertex with ids compact from 0.
fn connected_components(g: &CsrMatrix) -> Vec<usize> {
    let n = g.nrows();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..n {
        for (j, _) in g.row_iter(i) {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    let mut ids = std::collections::HashMap::new();
    (0..n)
        .map(|i| {
            let r = find(&mut parent, i);
            let next = ids.len();
            *ids.entry(r).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..per {
            pts.push(vec![0.1 + 0.002 * i as f64, 0.1]);
            labels.push(0);
            pts.push(vec![0.9 - 0.002 * i as f64, 0.9]);
            labels.push(1);
        }
        (pts, labels)
    }

    #[test]
    fn tnn_matrix_is_symmetric_and_sparse() {
        let (pts, _) = two_blobs(30);
        let psc = ParallelSpectral::new(PscConfig::new(2).neighbors(5));
        let sim = psc.tnn_similarity(&pts);
        assert!(sim.is_symmetric(1e-12));
        // Far below dense: at most n(2t+1) entries.
        assert!(sim.nnz() <= 60 * 11);
        assert!(sim.nnz() >= 60); // at least the diagonal
    }

    #[test]
    fn separates_two_blobs() {
        let (pts, truth) = two_blobs(30);
        let res = ParallelSpectral::new(PscConfig::new(2).neighbors(8)).run(&pts);
        let acc = dasc_metrics::accuracy(&res.clustering.assignments, &truth);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn sparse_memory_below_dense() {
        let (pts, _) = two_blobs(50);
        let res = ParallelSpectral::new(PscConfig::new(2)).run(&pts);
        // Below the 4-byte dense matrix (Figure 6(b)).
        assert!(res.sparse_memory_bytes < 4 * 100 * 100);
    }

    #[test]
    fn neighbor_count_clamped() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        // t = 10 > n-1 = 2: must not panic.
        let res = ParallelSpectral::new(PscConfig::new(2).neighbors(10)).run(&pts);
        assert_eq!(res.clustering.len(), 3);
    }

    #[test]
    fn k1_trivial() {
        let (pts, _) = two_blobs(5);
        let res = ParallelSpectral::new(PscConfig::new(1)).run(&pts);
        assert!(res.clustering.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (pts, _) = two_blobs(20);
        let a = ParallelSpectral::new(PscConfig::new(2).seed(4)).run(&pts);
        let b = ParallelSpectral::new(PscConfig::new(2).seed(4)).run(&pts);
        assert_eq!(a.clustering.assignments, b.clustering.assignments);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        ParallelSpectral::new(PscConfig::new(2)).run(&[]);
    }
}
