//! Configuration of the LSH preprocessing stage.

use crate::default_signature_bits;

/// How hashing dimensions are chosen from the input space (Section 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DimensionSelection {
    /// Deterministically take the `M` dimensions with the largest
    /// numerical span ("order the importance of the d dimensions based
    /// on the numerical span … pick the dimensions with highest M
    /// spans"). This is the paper's evaluated setting.
    TopSpan,
    /// Sample dimensions with probability proportional to their span
    /// (Eq. 4), with replacement — the randomized variant the paper
    /// describes when motivating the family. The seed makes it
    /// reproducible.
    SpanWeighted {
        /// RNG seed for the dimension draw.
        seed: u64,
    },
}

/// How the per-dimension split threshold is chosen (Eq. 5 and the
/// ablation alternatives).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdRule {
    /// Lower edge of the least-populated histogram bin (Eq. 5) — the
    /// paper's rule: split through a valley of the marginal density.
    HistogramValley,
    /// Median of the dimension — splits mass evenly regardless of
    /// structure (ablation baseline).
    Median,
    /// Midpoint `(min + max)/2` (ablation baseline).
    Midpoint,
}

/// How P-similar buckets are combined after the shuffle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Greedy disjoint pairs ([`crate::BucketSet::merge_greedy_pairs`]):
    /// combines adjacent buckets without chaining, preserving at least
    /// half the buckets. DASC's default — on dense signature spaces the
    /// transitive closure under `P = M − 1` connects the whole Hamming
    /// cube and would collapse the partition.
    GreedyPairs,
    /// Full transitive closure ([`crate::BucketSet::merge_similar`]).
    TransitiveClosure,
    /// No merging.
    None,
}

/// Configuration for [`crate::SignatureModel`] training and hashing.
#[derive(Clone, Debug)]
pub struct LshConfig {
    /// Signature width `M` in bits. Defaults to the paper's rule
    /// `⌈log₂N⌉/2 − 1` when built via [`LshConfig::for_dataset`].
    pub num_bits: usize,
    /// Bucket-merge threshold `P`: buckets whose signatures share at
    /// least `P` bits merge. The paper sets `P = M − 1`.
    pub merge_p: usize,
    /// Histogram resolution used for threshold selection (the paper
    /// fixes 20 bins, Eq. 5).
    pub histogram_bins: usize,
    /// Dimension selection strategy.
    pub selection: DimensionSelection,
    /// Threshold selection rule.
    pub threshold_rule: ThresholdRule,
    /// Bucket-merge strategy.
    pub merge_strategy: MergeStrategy,
    /// Minimum fraction of points each side of a histogram-valley cut
    /// must keep (robustness floor over the paper's Eq. 5; see
    /// `SignatureModel`). `0.0` reproduces the paper's literal rule.
    pub balance_fraction: f64,
}

impl LshConfig {
    /// Paper defaults for a dataset of `n` points:
    /// `M = ⌈log₂N⌉/2 − 1`, `P = M − 1`, 20 histogram bins, top-span
    /// dimension selection.
    pub fn for_dataset(n: usize) -> Self {
        let m = default_signature_bits(n);
        Self {
            num_bits: m,
            merge_p: m.saturating_sub(1),
            histogram_bins: 20,
            selection: DimensionSelection::TopSpan,
            threshold_rule: ThresholdRule::HistogramValley,
            merge_strategy: MergeStrategy::GreedyPairs,
            balance_fraction: 0.05,
        }
    }

    /// Explicit signature width, keeping `P = M − 1` and the other paper
    /// defaults.
    pub fn with_bits(m: usize) -> Self {
        assert!(m >= 1, "at least one signature bit required");
        Self {
            num_bits: m,
            merge_p: m.saturating_sub(1),
            histogram_bins: 20,
            selection: DimensionSelection::TopSpan,
            threshold_rule: ThresholdRule::HistogramValley,
            merge_strategy: MergeStrategy::GreedyPairs,
            balance_fraction: 0.05,
        }
    }

    /// Override the merge threshold `P` (builder style).
    pub fn merge_p(mut self, p: usize) -> Self {
        assert!(p <= self.num_bits, "P cannot exceed M");
        self.merge_p = p;
        self
    }

    /// Override the dimension-selection strategy (builder style).
    pub fn selection(mut self, s: DimensionSelection) -> Self {
        self.selection = s;
        self
    }

    /// Override the threshold rule (builder style).
    pub fn threshold_rule(mut self, r: ThresholdRule) -> Self {
        self.threshold_rule = r;
        self
    }

    /// Override the merge strategy (builder style).
    pub fn merge_strategy(mut self, s: MergeStrategy) -> Self {
        self.merge_strategy = s;
        self
    }

    /// Override the valley-cut balance floor (builder style).
    ///
    /// # Panics
    /// Panics unless `f ∈ [0, 0.5]`.
    pub fn balance_fraction(mut self, f: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&f),
            "balance fraction must be in [0, 0.5]"
        );
        self.balance_fraction = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_dataset_uses_paper_rule() {
        let c = LshConfig::for_dataset(1 << 18);
        assert_eq!(c.num_bits, 8);
        assert_eq!(c.merge_p, 7);
        assert_eq!(c.histogram_bins, 20);
        assert_eq!(c.selection, DimensionSelection::TopSpan);
    }

    #[test]
    fn builders_compose() {
        let c = LshConfig::with_bits(10)
            .merge_p(8)
            .selection(DimensionSelection::SpanWeighted { seed: 3 })
            .threshold_rule(ThresholdRule::Median);
        assert_eq!(c.num_bits, 10);
        assert_eq!(c.merge_p, 8);
        assert_eq!(c.threshold_rule, ThresholdRule::Median);
    }

    #[test]
    #[should_panic(expected = "P cannot exceed M")]
    fn p_above_m_panics() {
        LshConfig::with_bits(4).merge_p(5);
    }

    #[test]
    #[should_panic(expected = "at least one signature bit")]
    fn zero_bits_panics() {
        LshConfig::with_bits(0);
    }
}
