//! End-to-end integration tests across the workspace crates: data
//! generation → LSH → kernel approximation → clustering → metrics.

use dasc::core::{
    Dasc, DascConfig, Nystrom, NystromConfig, ParallelSpectral, PscConfig, SpectralClustering,
    SpectralConfig,
};
use dasc::kernel::full_gram;
use dasc::metrics::{fnorm_ratio, nmi};
use dasc::prelude::*;

fn blob_dataset(n: usize, k: usize) -> Dataset {
    SyntheticConfig::blobs(n, 16, k).seed(0xE2E).generate()
}

#[test]
fn dasc_recovers_synthetic_clusters() {
    let ds = blob_dataset(600, 4);
    let truth = ds.labels.as_ref().unwrap();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let res = Dasc::new(DascConfig::for_dataset(600, 4).kernel(kernel)).run(&ds.points);
    let acc = accuracy(&res.clustering.assignments, truth);
    assert!(acc > 0.9, "accuracy {acc}");
}

#[test]
fn all_four_algorithms_agree_on_easy_data() {
    let ds = blob_dataset(400, 3);
    let truth = ds.labels.as_ref().unwrap();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);

    let dasc = Dasc::new(DascConfig::for_dataset(400, 3).kernel(kernel))
        .run(&ds.points)
        .clustering;
    let sc = SpectralClustering::new(SpectralConfig::new(3).kernel(kernel))
        .run(&ds.points)
        .clustering;
    let psc = ParallelSpectral::new(PscConfig::new(3).kernel(kernel))
        .run(&ds.points)
        .clustering;
    let nyst = Nystrom::new(NystromConfig::new(3).kernel(kernel))
        .run(&ds.points)
        .clustering;

    for (name, c) in [("dasc", &dasc), ("sc", &sc), ("psc", &psc), ("nyst", &nyst)] {
        let acc = accuracy(&c.assignments, truth);
        assert!(acc > 0.9, "{name}: accuracy {acc}");
    }
}

#[test]
fn dasc_saves_memory_relative_to_full_gram() {
    let ds = blob_dataset(800, 6);
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let res = Dasc::new(
        DascConfig::for_dataset(800, 6)
            .kernel(kernel)
            .lsh(LshConfig::with_bits(4)),
    )
    .run(&ds.points);
    let full = 4 * 800 * 800;
    assert!(res.buckets.len() > 1, "expected multiple buckets");
    assert!(
        res.approx_gram_bytes < full,
        "approx {} >= full {full}",
        res.approx_gram_bytes
    );
}

#[test]
fn approximate_gram_never_gains_frobenius_mass() {
    let ds = blob_dataset(200, 4);
    let kernel = Kernel::gaussian(0.5);
    let dasc = Dasc::new(
        DascConfig::for_dataset(200, 4)
            .kernel(kernel)
            .lsh(LshConfig::with_bits(3)),
    );
    let approx = dasc.approximate_gram(&ds.points);
    let exact = full_gram(&ds.points, &kernel);
    let r = fnorm_ratio(&approx.to_dense(), &exact);
    assert!(r <= 1.0 + 1e-12, "ratio {r} above 1");
    assert!(r > 0.5, "ratio {r} suspiciously low for blob data");
}

#[test]
fn distributed_and_serial_dasc_match() {
    let ds = blob_dataset(300, 4);
    let truth = ds.labels.as_ref().unwrap();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let cfg = DascConfig::for_dataset(300, 4).kernel(kernel);

    let serial = Dasc::new(cfg.clone()).run(&ds.points);
    let dist = Dasc::new(cfg).run_distributed(&ds.points, &ClusterConfig::single_node());

    assert_eq!(dist.buckets.len(), serial.buckets.len());
    assert_eq!(dist.approx_gram_bytes, serial.approx_gram_bytes);
    let a = accuracy(&serial.clustering.assignments, truth);
    let b = accuracy(&dist.clustering.assignments, truth);
    assert!((a - b).abs() < 1e-12, "serial {a} vs distributed {b}");
}

#[test]
fn wiki_corpus_head_reaches_paper_accuracy_band() {
    // Figure 3's head: > 0.9 accuracy for SC and DASC at N = 1024.
    let ds = WikiCorpusConfig::new(1024).seed(0xF164).generate();
    let truth = ds.labels.as_ref().unwrap();
    let k = ds.num_classes().unwrap();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);

    let sc = SpectralClustering::new(SpectralConfig::new(k).kernel(kernel))
        .run(&ds.points)
        .clustering;
    assert!(accuracy(&sc.assignments, truth) > 0.9);

    // DASC at the default M trades a few points of accuracy for
    // parallelism (the Figure 2 tradeoff); it must stay in SC's band.
    let dasc = Dasc::new(DascConfig::for_dataset(1024, k).kernel(kernel))
        .run(&ds.points)
        .clustering;
    let dasc_acc = accuracy(&dasc.assignments, truth);
    assert!(dasc_acc > 0.8, "DASC accuracy {dasc_acc}");
}

#[test]
fn nmi_tracks_accuracy_ordering() {
    let ds = blob_dataset(300, 3);
    let truth = ds.labels.as_ref().unwrap();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let good = SpectralClustering::new(SpectralConfig::new(3).kernel(kernel))
        .run(&ds.points)
        .clustering;
    // A deliberately bad clustering: everything in one cluster.
    let bad = vec![0usize; 300];
    assert!(nmi(&good.assignments, truth) > nmi(&bad, truth));
}

#[test]
fn grid_mixture_is_perfectly_bucketable() {
    let ds = dasc::data::SyntheticConfig::grid(512, 16, 4)
        .seed(9)
        .generate();
    let truth = ds.labels.as_ref().unwrap();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let res = Dasc::new(
        DascConfig::for_dataset(512, 16)
            .kernel(kernel)
            .lsh(LshConfig::with_bits(4)),
    )
    .run(&ds.points);
    let acc = accuracy(&res.clustering.assignments, truth);
    assert!(acc > 0.99, "grid accuracy {acc}");
}
