//! Satellite tests: artifact persistence.
//!
//! * save → load → byte-identical structure and identical online
//!   assignments;
//! * rejection of foreign magic, bumped format versions, truncated
//!   files, and structurally corrupt payloads.

use dasc_core::{Dasc, DascConfig};
use dasc_kernel::Kernel;
use dasc_lsh::{HashPlane, LshConfig};
use dasc_serve::{ArtifactError, AssignmentEngine, BucketClusters, ModelArtifact, FORMAT_VERSION};
use std::path::PathBuf;

fn blob_points() -> Vec<Vec<f64>> {
    let centers = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]];
    let mut pts = Vec::new();
    for c in &centers {
        for i in 0..25 {
            pts.push(vec![
                c[0] + (i % 7) as f64 * 0.004,
                c[1] + (i % 5) as f64 * 0.004,
            ]);
        }
    }
    pts
}

fn trained_artifact() -> (ModelArtifact, Vec<Vec<f64>>) {
    let pts = blob_points();
    let cfg = DascConfig::for_dataset(pts.len(), 4)
        .kernel(Kernel::gaussian(0.15))
        .lsh(LshConfig::with_bits(2))
        .seed(7);
    let trained = Dasc::new(cfg).train(&pts);
    (ModelArtifact::from_trained(&trained, &pts), pts)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dasc_serve_test_{}_{tag}.model",
        std::process::id()
    ))
}

/// Serialize to bytes without touching the filesystem.
fn to_bytes(artifact: &ModelArtifact) -> Vec<u8> {
    let mut buf = Vec::new();
    artifact.write_to(&mut buf).expect("serialize");
    buf
}

#[test]
fn save_load_roundtrip_preserves_assignments() {
    let (artifact, pts) = trained_artifact();
    let path = temp_path("roundtrip");
    artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // Structure survives byte-for-byte.
    assert_eq!(loaded.dimension, artifact.dimension);
    assert_eq!(loaded.num_clusters, artifact.num_clusters);
    assert_eq!(loaded.trained_points, artifact.trained_points);
    assert_eq!(loaded.planes, artifact.planes);
    assert_eq!(loaded.signature_table, artifact.signature_table);
    assert_eq!(loaded.buckets, artifact.buckets);
    assert_eq!(loaded.global_centroids, artifact.global_centroids);
    assert_eq!(loaded.config.k, artifact.config.k);
    assert_eq!(loaded.config.seed, artifact.config.seed);
    assert_eq!(loaded.config.lsh.num_bits, artifact.config.lsh.num_bits);

    // Identical online behavior: training points and novel probes.
    let before = AssignmentEngine::new(&artifact);
    let after = AssignmentEngine::new(&loaded);
    for p in &pts {
        assert_eq!(before.assign(p), after.assign(p));
    }
    for probe in [
        vec![0.5, 0.5],
        vec![0.05, 0.95],
        vec![-1.0, 2.0],
        vec![0.91, 0.12],
    ] {
        assert_eq!(before.assign(&probe), after.assign(&probe), "{probe:?}");
    }
}

#[test]
fn double_roundtrip_is_stable() {
    let (artifact, _) = trained_artifact();
    let bytes = to_bytes(&artifact);
    let once = ModelArtifact::read_from(&bytes[..]).expect("first load");
    assert_eq!(to_bytes(&once), bytes, "serialization is not canonical");
}

#[test]
fn bad_magic_is_rejected() {
    let (artifact, _) = trained_artifact();
    let mut bytes = to_bytes(&artifact);
    bytes[0] = b'X';
    assert!(matches!(
        ModelArtifact::read_from(&bytes[..]),
        Err(ArtifactError::BadMagic)
    ));
}

#[test]
fn bumped_version_is_rejected() {
    let (artifact, _) = trained_artifact();
    let mut bytes = to_bytes(&artifact);
    // Version is the little-endian u32 right after the 8-byte magic.
    let bumped = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&bumped.to_le_bytes());
    match ModelArtifact::read_from(&bytes[..]) {
        Err(ArtifactError::UnsupportedVersion(v)) => assert_eq!(v, bumped),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let (artifact, _) = trained_artifact();
    let bytes = to_bytes(&artifact);
    // Chop the stream at a spread of prefix lengths: every one must
    // fail loudly (magic/version errors near the front, truncation
    // later), never panic or succeed.
    for cut in [9, 12, 20, 60, bytes.len() / 2, bytes.len() - 1] {
        let err = ModelArtifact::read_from(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes loaded"));
        assert!(
            matches!(
                err,
                ArtifactError::Truncated
                    | ArtifactError::BadMagic
                    | ArtifactError::UnsupportedVersion(_)
                    | ArtifactError::Corrupt(_)
            ),
            "unexpected error at cut {cut}: {err:?}"
        );
    }
}

#[test]
fn corrupt_bucket_reference_is_rejected() {
    let (mut artifact, _) = trained_artifact();
    // Point a signature at a bucket that doesn't exist.
    artifact.signature_table[0].1 = artifact.buckets.len() as u32 + 10;
    let bytes = to_bytes(&artifact);
    assert!(matches!(
        ModelArtifact::read_from(&bytes[..]),
        Err(ArtifactError::Corrupt(_))
    ));
}

#[test]
fn missing_file_is_io_error() {
    let path = temp_path("does_not_exist");
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ArtifactError::Io(_))
    ));
}

#[test]
fn distributed_training_exports_equivalent_artifact() {
    use dasc_mapreduce::ClusterConfig;
    let pts = blob_points();
    let cfg = DascConfig::for_dataset(pts.len(), 4)
        .kernel(Kernel::gaussian(0.15))
        .lsh(LshConfig::with_bits(2))
        .seed(7);
    let serial = Dasc::new(cfg.clone()).train(&pts);
    let dist = Dasc::new(cfg).train_distributed(&pts, &ClusterConfig::single_node());
    let a = ModelArtifact::from_trained(&serial, &pts);
    let b = ModelArtifact::from_trained(&dist, &pts);
    // Deterministic engine: serial and distributed training produce the
    // same online model.
    assert_eq!(a.signature_table, b.signature_table);
    assert_eq!(a.planes, b.planes);
    let ea = AssignmentEngine::new(&a);
    let eb = AssignmentEngine::new(&b);
    for p in &pts {
        assert_eq!(ea.assign(p).cluster, eb.assign(p).cluster);
    }
}

#[test]
fn artifact_bytes_match_golden() {
    // A hand-built one-bucket model, so the bytes depend on the codec
    // alone, not on training numerics.
    let artifact = ModelArtifact {
        config: DascConfig::for_dataset(2, 1).seed(7),
        dimension: 2,
        num_clusters: 1,
        trained_points: 2,
        planes: vec![HashPlane {
            dimension: 1,
            threshold: 0.5,
        }],
        signature_table: vec![(0, 0), (1, 0)],
        buckets: vec![BucketClusters {
            clusters: vec![(0, vec![0.25, -1.0])],
        }],
        global_centroids: vec![(0, vec![0.25, -1.0])],
    };
    let mut bytes = Vec::new();
    artifact.write_to(&mut bytes).expect("write");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    // Magic, version, d, K, N; the config (k, Gaussian σ = 0.2, M, P,
    // bins, selection, threshold rule, merge strategy, balance,
    // Lanczos threshold, consolidate, seed); then planes, signature
    // table, bucket centroids and global centroids, each count-prefixed.
    let want = "444153434d4f444c 01000000 \
                0200000000000000 0100000000000000 0200000000000000 \
                0100000000000000 00 9a9999999999c93f 0100000000000000 \
                0000000000000000 1400000000000000 00 00 00 9a9999999999a93f \
                0002000000000000 01 0700000000000000 \
                0100000000000000 0100000000000000 000000000000e03f \
                0200000000000000 0000000000000000 00000000 0100000000000000 00000000 \
                0100000000000000 0100000000000000 00000000 \
                0200000000000000 000000000000d03f 000000000000f0bf \
                0100000000000000 00000000 \
                0200000000000000 000000000000d03f 000000000000f0bf";
    assert_eq!(hex, want.replace(' ', ""));
}
