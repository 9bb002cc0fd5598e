//! Property-based tests over cross-crate invariants (proptest).

use proptest::prelude::*;

use dasc::core::{bucket_cluster_count, KMeans, KMeansConfig};
use dasc::kernel::{full_gram, ApproximateGram};
use dasc::linalg::{symmetric_eigen, Matrix};
use dasc::lsh::{BucketSet, LshConfig, Signature, SignatureModel};
use dasc::metrics::{accuracy, fnorm_ratio, nmi, purity};
use dasc::prelude::*;

/// Strategy: a small dataset of d-dimensional points in [0, 1].
fn points_strategy(max_n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, d..=d), 2..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn buckets_partition_the_dataset(points in points_strategy(60, 4), bits in 1usize..6) {
        let model = SignatureModel::fit(&points, &LshConfig::with_bits(bits));
        let sigs = model.hash_all(&points);
        let buckets = BucketSet::from_signatures(&sigs);
        // Every point appears exactly once across buckets.
        let mut seen = vec![false; points.len()];
        for b in buckets.buckets() {
            for &i in &b.members {
                prop_assert!(!seen[i], "point {i} in two buckets");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Merging (either strategy) preserves the partition property.
        for merged in [buckets.merge_similar(bits - 1), buckets.merge_greedy_pairs(bits - 1)] {
            let total: usize = merged.sizes().iter().sum();
            prop_assert_eq!(total, points.len());
            prop_assert!(merged.len() <= buckets.len());
        }
    }

    #[test]
    fn hamming_is_a_metric(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (sa, sb, sc) = (
            Signature::from_bits(a, 32),
            Signature::from_bits(b, 32),
            Signature::from_bits(c, 32),
        );
        prop_assert_eq!(sa.hamming(&sb), sb.hamming(&sa));
        prop_assert_eq!(sa.hamming(&sa), 0);
        prop_assert!(sa.hamming(&sc) <= sa.hamming(&sb) + sb.hamming(&sc));
        prop_assert_eq!(sa.differs_by_one(&sb), sa.hamming(&sb) == 1);
    }

    #[test]
    fn approximate_gram_is_dominated_by_full(points in points_strategy(30, 3), bits in 1usize..4) {
        let kernel = Kernel::gaussian(0.5);
        let model = SignatureModel::fit(&points, &LshConfig::with_bits(bits));
        let buckets = BucketSet::from_signatures(&model.hash_all(&points));
        let approx = ApproximateGram::from_buckets(&points, &buckets, &kernel);
        let exact = full_gram(&points, &kernel);
        let r = fnorm_ratio(&approx.to_dense(), &exact);
        prop_assert!(r <= 1.0 + 1e-12, "ratio {} above one", r);
        prop_assert!(r > 0.0);
        // Stored entries never exceed the full matrix.
        prop_assert!(approx.stored_entries() <= points.len() * points.len());
        // Diagonal is exact (Gaussian: ones).
        for i in 0..points.len() {
            prop_assert!((approx.get(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn external_metrics_stay_in_unit_interval(
        labels in prop::collection::vec(0usize..5, 2..40),
        preds in prop::collection::vec(0usize..5, 2..40),
    ) {
        let n = labels.len().min(preds.len());
        let (labels, preds) = (&labels[..n], &preds[..n]);
        for v in [accuracy(preds, labels), nmi(preds, labels), purity(preds, labels)] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "metric {} out of range", v);
        }
        // Identity labelling is perfect under every metric.
        prop_assert!((accuracy(labels, labels) - 1.0).abs() < 1e-12);
        prop_assert!((purity(labels, labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_invariant_under_label_permutation(
        labels in prop::collection::vec(0usize..4, 4..30),
    ) {
        // Relabel 0↔3, 1↔2: accuracy against the original must be 1.
        let permuted: Vec<usize> = labels.iter().map(|&l| 3 - l).collect();
        prop_assert!((accuracy(&permuted, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kmeans_inertia_never_negative_and_k_monotone(points in points_strategy(40, 3)) {
        let i1 = KMeans::new(KMeansConfig::new(1)).run(&points).inertia;
        let i3 = KMeans::new(KMeansConfig::new(3)).run(&points).inertia;
        prop_assert!(i1 >= -1e-12);
        prop_assert!(i3 >= -1e-12);
        // More clusters never increase the (converged) objective much;
        // allow slack for local optima.
        prop_assert!(i3 <= i1 + 1e-9, "k=3 inertia {} > k=1 {}", i3, i1);
    }

    #[test]
    fn eigen_reconstruction_on_random_gram(points in points_strategy(16, 3)) {
        let g = full_gram(&points, &Kernel::gaussian(0.7));
        let eig = symmetric_eigen(&g);
        let n = g.nrows();
        // Reconstruct A = V Λ Vᵀ.
        let (vals, q) = eig.top_k(n);
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = vals[i];
        }
        let rec = q.matmul(&lam).matmul(&q.transpose());
        prop_assert!(rec.max_abs_diff(&g) < 1e-7);
        // PSD: Gaussian Gram eigenvalues are non-negative.
        prop_assert!(eig.eigenvalues.iter().all(|&v| v > -1e-8));
    }

    #[test]
    fn bucket_cluster_count_is_an_apportionment(
        k in 1usize..50,
        sizes in prop::collection::vec(1usize..100, 1..10),
    ) {
        let n: usize = sizes.iter().sum();
        let mut total = 0usize;
        for &s in &sizes {
            let ki = bucket_cluster_count(k, s, n);
            prop_assert!(ki >= 1);
            prop_assert!(ki <= s);
            total += ki;
        }
        // Σ Kᵢ stays within a rounding margin of K (never off by more
        // than one per bucket), and at least one cluster per bucket.
        prop_assert!(total >= sizes.len());
        prop_assert!(total <= k + sizes.len());
    }

    #[test]
    fn signature_model_is_pure(points in points_strategy(30, 4)) {
        let cfg = LshConfig::with_bits(4);
        let m1 = SignatureModel::fit(&points, &cfg);
        let m2 = SignatureModel::fit(&points, &cfg);
        prop_assert_eq!(m1.hash_all(&points), m2.hash_all(&points));
    }

    #[test]
    fn kdtree_knn_matches_brute_force(points in points_strategy(50, 3), k in 1usize..8) {
        let tree = dasc::lsh::KdTree::build(&points);
        let q = &points[0];
        let got = tree.nearest(&points, q, k, Some(0));
        // Brute force reference.
        let mut want: Vec<(usize, f64)> = points
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 0)
            .map(|(i, p)| {
                let d: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
                (i, d)
            })
            .collect();
        want.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN").then(a.0.cmp(&b.0)));
        want.truncate(k);
        // Distances must agree exactly (indices may differ under ties).
        let gd: Vec<f64> = got.iter().map(|x| x.1).collect();
        let wd: Vec<f64> = want.iter().map(|x| x.1).collect();
        prop_assert_eq!(gd.len(), wd.len());
        for (a, b) in gd.iter().zip(&wd) {
            prop_assert!((a - b).abs() < 1e-9, "distance {} vs {}", a, b);
        }
    }

    #[test]
    fn pca_hash_bits_are_roughly_balanced(points in points_strategy(60, 3)) {
        prop_assume!(points.len() >= 10);
        // Skip degenerate inputs where all points coincide.
        let spread: f64 = points
            .iter()
            .map(|p| p.iter().sum::<f64>())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
            .1;
        prop_assume!(spread.is_finite());
        let ph = dasc::lsh::PcaHash::fit(&points, 2);
        let sigs = ph.hash_all(&points);
        let n = points.len();
        for bit in 0..2 {
            let ones = sigs.iter().filter(|s| s.get(bit)).count();
            // Median thresholds guarantee neither side exceeds ~n/2 + ties.
            prop_assert!(ones <= n, "impossible count");
            prop_assert!(ones * 2 <= n + n, "bit {} ones {}", bit, ones);
        }
    }
}
