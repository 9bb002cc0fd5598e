//! Versioned, persistable snapshot of a trained DASC pipeline.
//!
//! The artifact captures everything the online assignment path needs,
//! and nothing else — in particular no training points:
//!
//! * the frozen LSH signature model (hash planes with their
//!   histogram-valley thresholds, Eq. 5);
//! * the **signature table**: every signature observed in training,
//!   mapped to its (merged) bucket — merged buckets keep all their
//!   constituent signatures, so exact-match routing works for any
//!   signature the training set produced;
//! * per-bucket cluster centroids in input space, labelled with global
//!   cluster ids (post-consolidation);
//! * the global centroid table for last-resort routing;
//! * the [`DascConfig`] that produced the model, for provenance.
//!
//! # On-disk format
//!
//! Little-endian throughout (see [`crate::codec`]):
//!
//! ```text
//! magic   8 bytes  "DASCMODL"
//! version u32      FORMAT_VERSION
//! d, K, N u64 ×3   dimension, clusters, training points
//! config           DascConfig (tagged enums, fixed scalars)
//! planes           count + (dimension u64, threshold f64) each
//! table            count + (signature bits u64, bucket u32) each
//! buckets          count + per bucket: count + (id u32, centroid) each
//! globals          count + (id u32, centroid) each
//! ```
//!
//! Loading verifies the magic, refuses any version other than
//! [`FORMAT_VERSION`], detects truncation, and cross-checks every
//! index/dimension so a loaded artifact is structurally sound.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use dasc_core::{DascConfig, DascTrained};
use dasc_kernel::Kernel;
use dasc_lsh::{
    DimensionSelection, HashPlane, LshConfig, MergeStrategy, Signature, SignatureModel,
    ThresholdRule,
};

use crate::codec::{DecodeError, Decoder, Encoder};

/// File magic: identifies a DASC model artifact.
pub const MAGIC: &[u8; 8] = b"DASCMODL";

/// Current artifact format version. Bump on any layout change; loading
/// rejects every other version.
pub const FORMAT_VERSION: u32 = 1;

/// Largest vector length accepted while decoding (guards allocations
/// against corrupt length prefixes).
const MAX_DECODE_LEN: usize = 1 << 28;

/// The clusters living inside one (merged) bucket: global cluster id
/// plus the input-space centroid of the bucket's members in it.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketClusters {
    /// `(global cluster id, centroid)` pairs, one per cluster with at
    /// least one training point in this bucket.
    pub clusters: Vec<(u32, Vec<f64>)>,
}

/// A trained, persistable DASC model.
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    /// Training configuration (provenance; the engine re-derives
    /// nothing from it).
    pub config: DascConfig,
    /// Input dimensionality `d`.
    pub dimension: usize,
    /// Number of global clusters `K`.
    pub num_clusters: usize,
    /// Number of training points `N`.
    pub trained_points: usize,
    /// Frozen hash planes, bit 0 first.
    pub planes: Vec<HashPlane>,
    /// Observed signature → bucket index, sorted by signature bits.
    pub signature_table: Vec<(u64, u32)>,
    /// Per-bucket cluster centroids, indexed by bucket.
    pub buckets: Vec<BucketClusters>,
    /// `(global cluster id, centroid)` for every non-empty cluster.
    pub global_centroids: Vec<(u32, Vec<f64>)>,
}

/// Why an artifact failed to save or load.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The stream ended before the structure was complete.
    Truncated,
    /// The structure decoded but is internally inconsistent.
    Corrupt(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic => {
                write!(f, "not a DASC model artifact (bad magic)")
            }
            ArtifactError::UnsupportedVersion(v) => write!(
                f,
                "unsupported artifact format version {v} (expected {FORMAT_VERSION})"
            ),
            ArtifactError::Truncated => write!(f, "artifact file is truncated"),
            ArtifactError::Corrupt(why) => write!(f, "artifact is corrupt: {why}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<DecodeError> for ArtifactError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => ArtifactError::Truncated,
            DecodeError::Io(e) => ArtifactError::Io(e),
        }
    }
}

impl ModelArtifact {
    /// Snapshot a training run ([`dasc_core::Dasc::train`]).
    ///
    /// `points` must be the training set the run was produced from —
    /// centroids are computed here, in input space.
    pub fn from_trained(trained: &DascTrained, points: &[Vec<f64>]) -> Self {
        let DascTrained {
            result,
            model,
            signatures,
            config,
        } = trained;
        let (clustering, buckets) = (&result.clustering, &result.buckets);
        assert_eq!(points.len(), signatures.len(), "artifact: signature count");
        assert_eq!(points.len(), clustering.len(), "artifact: assignment count");
        assert!(!points.is_empty(), "artifact: empty training set");
        let d = points[0].len();
        let bucket_of = buckets.assignments();

        // Signature table: every observed signature, including all
        // constituents of merged buckets (merged buckets only retain
        // their representative signature, so per-point signatures are
        // the source of truth here).
        let mut table: HashMap<u64, u32> = HashMap::new();
        for (sig, &b) in signatures.iter().zip(&bucket_of) {
            table.insert(sig.bits(), b as u32);
        }
        let mut signature_table: Vec<(u64, u32)> = table.into_iter().collect();
        signature_table.sort_unstable();

        // Per-bucket per-global-cluster centroids.
        let mut sums: Vec<HashMap<u32, (Vec<f64>, usize)>> = vec![HashMap::new(); buckets.len()];
        let mut global_sums: HashMap<u32, (Vec<f64>, usize)> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            let cid = clustering.assignments[i] as u32;
            for (sum, count) in [
                sums[bucket_of[i]]
                    .entry(cid)
                    .or_insert_with(|| (vec![0.0; d], 0)),
                global_sums.entry(cid).or_insert_with(|| (vec![0.0; d], 0)),
            ] {
                for (s, &v) in sum.iter_mut().zip(p) {
                    *s += v;
                }
                *count += 1;
            }
        }
        let finish = |m: HashMap<u32, (Vec<f64>, usize)>| {
            let mut out: Vec<(u32, Vec<f64>)> = m
                .into_iter()
                .map(|(id, (mut sum, count))| {
                    for v in &mut sum {
                        *v /= count as f64;
                    }
                    (id, sum)
                })
                .collect();
            out.sort_by_key(|&(id, _)| id);
            out
        };
        let bucket_clusters: Vec<BucketClusters> = sums
            .into_iter()
            .map(|m| BucketClusters {
                clusters: finish(m),
            })
            .collect();
        let global_centroids = finish(global_sums);

        Self {
            config: config.clone(),
            dimension: d,
            num_clusters: clustering.num_clusters,
            trained_points: points.len(),
            planes: model.planes().to_vec(),
            signature_table,
            buckets: bucket_clusters,
            global_centroids,
        }
    }

    /// Reassemble the frozen signature model.
    pub fn signature_model(&self) -> SignatureModel {
        SignatureModel::from_planes(self.planes.clone())
    }

    /// Save to a file (buffered, atomic only at the filesystem's mercy).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        self.write_to(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Load from a file, verifying magic, version, and structure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let file = File::open(path)?;
        Self::read_from(BufReader::new(file))
    }

    /// Serialize to any sink in the versioned binary format.
    pub fn write_to<W: Write>(&self, sink: W) -> Result<(), ArtifactError> {
        let mut e = Encoder::new(sink);
        e.bytes(MAGIC)?;
        e.u32(FORMAT_VERSION)?;
        e.u64(self.dimension as u64)?;
        e.u64(self.num_clusters as u64)?;
        e.u64(self.trained_points as u64)?;
        write_config(&mut e, &self.config)?;
        e.u64(self.planes.len() as u64)?;
        for p in &self.planes {
            e.u64(p.dimension as u64)?;
            e.f64(p.threshold)?;
        }
        e.u64(self.signature_table.len() as u64)?;
        for &(bits, bucket) in &self.signature_table {
            e.u64(bits)?;
            e.u32(bucket)?;
        }
        e.u64(self.buckets.len() as u64)?;
        for b in &self.buckets {
            e.u64(b.clusters.len() as u64)?;
            for (id, c) in &b.clusters {
                e.u32(*id)?;
                e.f64_slice(c)?;
            }
        }
        e.u64(self.global_centroids.len() as u64)?;
        for (id, c) in &self.global_centroids {
            e.u32(*id)?;
            e.f64_slice(c)?;
        }
        e.finish()?;
        Ok(())
    }

    /// Deserialize from any source, validating as it goes.
    pub fn read_from<R: Read>(source: R) -> Result<Self, ArtifactError> {
        let mut d = Decoder::new(source);
        let mut magic = [0u8; 8];
        d.bytes(&mut magic)?;
        if &magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let dimension = d.u64()? as usize;
        let num_clusters = d.u64()? as usize;
        let trained_points = d.u64()? as usize;
        if dimension == 0 {
            return Err(ArtifactError::Corrupt("zero dimension".into()));
        }
        let config = read_config(&mut d)?;

        let num_planes = bounded(d.u64()?, Signature::MAX_BITS, "planes")?;
        let mut planes = Vec::with_capacity(num_planes);
        for _ in 0..num_planes {
            planes.push(HashPlane {
                dimension: d.u64()? as usize,
                threshold: d.f64()?,
            });
        }
        if planes.is_empty() {
            return Err(ArtifactError::Corrupt("no hash planes".into()));
        }
        if planes.iter().any(|p| p.dimension >= dimension) {
            return Err(ArtifactError::Corrupt(
                "hash plane dimension out of range".into(),
            ));
        }

        let table_len = bounded(d.u64()?, MAX_DECODE_LEN, "signature table")?;
        let mut signature_table = Vec::with_capacity(table_len);
        for _ in 0..table_len {
            signature_table.push((d.u64()?, d.u32()?));
        }

        let num_buckets = bounded(d.u64()?, MAX_DECODE_LEN, "buckets")?;
        let mut buckets = Vec::with_capacity(num_buckets);
        for _ in 0..num_buckets {
            let nc = bounded(d.u64()?, MAX_DECODE_LEN, "bucket clusters")?;
            let mut clusters = Vec::with_capacity(nc);
            for _ in 0..nc {
                let id = d.u32()?;
                let c = d.f64_vec(MAX_DECODE_LEN)?;
                clusters.push((id, c));
            }
            buckets.push(BucketClusters { clusters });
        }

        let ng = bounded(d.u64()?, MAX_DECODE_LEN, "global centroids")?;
        let mut global_centroids = Vec::with_capacity(ng);
        for _ in 0..ng {
            let id = d.u32()?;
            let c = d.f64_vec(MAX_DECODE_LEN)?;
            global_centroids.push((id, c));
        }

        let artifact = Self {
            config,
            dimension,
            num_clusters,
            trained_points,
            planes,
            signature_table,
            buckets,
            global_centroids,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Structural invariants every loaded artifact must satisfy.
    fn validate(&self) -> Result<(), ArtifactError> {
        let nb = self.buckets.len() as u32;
        if self.signature_table.iter().any(|&(_, b)| b >= nb) {
            return Err(ArtifactError::Corrupt(
                "signature table references a missing bucket".into(),
            ));
        }
        let centroid_ok =
            |id: u32, c: &Vec<f64>| (id as usize) < self.num_clusters && c.len() == self.dimension;
        for b in &self.buckets {
            if !b.clusters.iter().all(|(id, c)| centroid_ok(*id, c)) {
                return Err(ArtifactError::Corrupt(
                    "bucket centroid with bad cluster id or dimension".into(),
                ));
            }
        }
        if !self
            .global_centroids
            .iter()
            .all(|(id, c)| centroid_ok(*id, c))
        {
            return Err(ArtifactError::Corrupt(
                "global centroid with bad cluster id or dimension".into(),
            ));
        }
        if self.global_centroids.is_empty() {
            return Err(ArtifactError::Corrupt("no global centroids".into()));
        }
        Ok(())
    }
}

fn bounded(v: u64, max: usize, what: &str) -> Result<usize, ArtifactError> {
    let v = v as usize;
    if v > max {
        return Err(ArtifactError::Corrupt(format!(
            "{what} length {v} exceeds limit {max}"
        )));
    }
    Ok(v)
}

fn write_config<W: Write>(e: &mut Encoder<W>, c: &DascConfig) -> Result<(), ArtifactError> {
    e.u64(c.k as u64)?;
    match c.kernel {
        Kernel::Gaussian { sigma } => {
            e.u8(0)?;
            e.f64(sigma)?;
        }
        Kernel::Linear => e.u8(1)?,
        Kernel::Polynomial { degree, c: cc } => {
            e.u8(2)?;
            e.u32(degree)?;
            e.f64(cc)?;
        }
        Kernel::Laplacian { gamma } => {
            e.u8(3)?;
            e.f64(gamma)?;
        }
    }
    e.u64(c.lsh.num_bits as u64)?;
    e.u64(c.lsh.merge_p as u64)?;
    e.u64(c.lsh.histogram_bins as u64)?;
    match c.lsh.selection {
        DimensionSelection::TopSpan => e.u8(0)?,
        DimensionSelection::SpanWeighted { seed } => {
            e.u8(1)?;
            e.u64(seed)?;
        }
    }
    e.u8(match c.lsh.threshold_rule {
        ThresholdRule::HistogramValley => 0,
        ThresholdRule::Median => 1,
        ThresholdRule::Midpoint => 2,
    })?;
    e.u8(match c.lsh.merge_strategy {
        MergeStrategy::GreedyPairs => 0,
        MergeStrategy::TransitiveClosure => 1,
        MergeStrategy::None => 2,
    })?;
    e.f64(c.lsh.balance_fraction)?;
    e.u64(c.lanczos_threshold as u64)?;
    e.u8(c.consolidate as u8)?;
    e.u64(c.seed)?;
    Ok(())
}

fn read_config<R: Read>(d: &mut Decoder<R>) -> Result<DascConfig, ArtifactError> {
    let k = d.u64()? as usize;
    let kernel = match d.u8()? {
        0 => Kernel::Gaussian { sigma: d.f64()? },
        1 => Kernel::Linear,
        2 => Kernel::Polynomial {
            degree: d.u32()?,
            c: d.f64()?,
        },
        3 => Kernel::Laplacian { gamma: d.f64()? },
        t => return Err(ArtifactError::Corrupt(format!("unknown kernel tag {t}"))),
    };
    let num_bits = d.u64()? as usize;
    let merge_p = d.u64()? as usize;
    let histogram_bins = d.u64()? as usize;
    let selection = match d.u8()? {
        0 => DimensionSelection::TopSpan,
        1 => DimensionSelection::SpanWeighted { seed: d.u64()? },
        t => {
            return Err(ArtifactError::Corrupt(format!(
                "unknown dimension-selection tag {t}"
            )))
        }
    };
    let threshold_rule = match d.u8()? {
        0 => ThresholdRule::HistogramValley,
        1 => ThresholdRule::Median,
        2 => ThresholdRule::Midpoint,
        t => {
            return Err(ArtifactError::Corrupt(format!(
                "unknown threshold-rule tag {t}"
            )))
        }
    };
    let merge_strategy = match d.u8()? {
        0 => MergeStrategy::GreedyPairs,
        1 => MergeStrategy::TransitiveClosure,
        2 => MergeStrategy::None,
        t => {
            return Err(ArtifactError::Corrupt(format!(
                "unknown merge-strategy tag {t}"
            )))
        }
    };
    let balance_fraction = d.f64()?;
    let lanczos_threshold = d.u64()? as usize;
    let consolidate = d.u8()? != 0;
    let seed = d.u64()?;
    Ok(DascConfig {
        k,
        kernel,
        lsh: LshConfig {
            num_bits,
            merge_p,
            histogram_bins,
            selection,
            threshold_rule,
            merge_strategy,
            balance_fraction,
        },
        lanczos_threshold,
        consolidate,
        seed,
    })
}
