//! Flat row-major point storage for hot loops.
//!
//! `Vec<Vec<f64>>` scatters points across the heap — every kernel
//! evaluation chases a pointer per operand and the prefetcher gets no
//! help. [`FlatPoints`] packs the same points into one contiguous
//! buffer with a fixed stride, so a Gram row walks memory linearly and
//! `row(i)` is a bounds-checked slice into the buffer, not a separate
//! allocation.

/// Points stored contiguously, row-major, with a fixed dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatPoints {
    data: Vec<f64>,
    dim: usize,
    len: usize,
}

impl FlatPoints {
    /// Pack nested rows into one buffer.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(points: &[Vec<f64>]) -> Self {
        let len = points.len();
        let dim = points.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(len * dim);
        for p in points {
            assert_eq!(p.len(), dim, "FlatPoints: ragged rows");
            data.extend_from_slice(p);
        }
        Self { data, dim, len }
    }

    /// Gather `points[indices[0]], points[indices[1]], ...` into one
    /// buffer — the bucket-extraction pattern, without the intermediate
    /// `Vec<Vec<f64>>` of clones.
    ///
    /// # Panics
    /// Panics on an out-of-range index or ragged source rows.
    pub fn gather(points: &[Vec<f64>], indices: &[usize]) -> Self {
        let len = indices.len();
        let dim = indices.first().map_or(0, |&i| points[i].len());
        let mut data = Vec::with_capacity(len * dim);
        for &i in indices {
            assert_eq!(points[i].len(), dim, "FlatPoints: ragged rows");
            data.extend_from_slice(&points[i]);
        }
        Self { data, dim, len }
    }

    /// Build from an already-flat buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim` (for `dim > 0`),
    /// or if `dim == 0` with a non-empty buffer.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Self {
        let len = if dim == 0 {
            assert!(data.is_empty(), "FlatPoints: dim 0 with data");
            0
        } else {
            assert_eq!(
                data.len() % dim,
                0,
                "FlatPoints: buffer not a multiple of dim"
            );
            data.len() / dim
        };
        Self { data, dim, len }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimension (stride) of each point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Point `i` as a slice of the shared buffer.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Rows `r0..r1` as one contiguous slice — the panel access pattern
    /// of the tiled micro-kernels in [`crate::gemm`].
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    #[inline]
    pub fn rows(&self, r0: usize, r1: usize) -> &[f64] {
        assert!(
            r0 <= r1 && r1 <= self.len,
            "FlatPoints: row range out of bounds"
        );
        &self.data[r0 * self.dim..r1 * self.dim]
    }

    /// Iterate over the points in order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim.max(1)).take(self.len)
    }

    /// Copy back out to nested rows (tests / interop).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter().map(<[f64]>::to_vec).collect()
    }

    /// Borrow the whole buffer as a [`FlatPointsView`].
    #[inline]
    pub fn view(&self) -> FlatPointsView<'_> {
        FlatPointsView::new(&self.data, self.dim, self.len)
    }
}

/// Borrowed analog of [`FlatPoints`]: a row-major `&[f64]` someone else
/// owns (an mmap'd shard, a `FlatPoints`, a scratch buffer), exposed
/// with the same accessors. This is how out-of-core shards enter the
/// pipeline without copying into an owned `Vec`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlatPointsView<'a> {
    data: &'a [f64],
    dim: usize,
    len: usize,
}

impl<'a> FlatPointsView<'a> {
    /// Wrap a borrowed row-major buffer.
    ///
    /// # Panics
    /// Panics unless `data.len() == len * dim`.
    pub fn new(data: &'a [f64], dim: usize, len: usize) -> Self {
        assert_eq!(data.len(), len * dim, "FlatPointsView: buffer shape");
        Self { data, dim, len }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimension (stride) of each point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Point `i` as a slice of the borrowed buffer.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Iterate over the points in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f64]> {
        self.data.chunks_exact(self.dim.max(1)).take(self.len)
    }
}

/// Read-only access to a set of fixed-dimension points, however they
/// are stored. Algorithms generic over this trait run identically on
/// nested `Vec<Vec<f64>>` rows, packed [`FlatPoints`], borrowed
/// [`FlatPointsView`]s, and out-of-core shard readers — the iteration
/// order is the caller's, so a generic implementation is bit-identical
/// across storage layouts.
pub trait PointsView {
    /// Number of points.
    fn len(&self) -> usize;
    /// Dimension of each point.
    fn dim(&self) -> usize;
    /// Point `i` as a slice.
    fn row(&self, i: usize) -> &[f64];
    /// Whether there are no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PointsView for FlatPoints {
    #[inline]
    fn len(&self) -> usize {
        FlatPoints::len(self)
    }
    #[inline]
    fn dim(&self) -> usize {
        FlatPoints::dim(self)
    }
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        FlatPoints::row(self, i)
    }
}

impl PointsView for FlatPointsView<'_> {
    #[inline]
    fn len(&self) -> usize {
        FlatPointsView::len(self)
    }
    #[inline]
    fn dim(&self) -> usize {
        FlatPointsView::dim(self)
    }
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        FlatPointsView::row(self, i)
    }
}

impl PointsView for [Vec<f64>] {
    #[inline]
    fn len(&self) -> usize {
        <[Vec<f64>]>::len(self)
    }
    #[inline]
    fn dim(&self) -> usize {
        self.first().map_or(0, Vec::len)
    }
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self[i]
    }
}

impl<P: PointsView + ?Sized> PointsView for &P {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }
    #[inline]
    fn dim(&self) -> usize {
        (**self).dim()
    }
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        (**self).row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let fp = FlatPoints::from_rows(&rows);
        assert_eq!(fp.len(), 3);
        assert_eq!(fp.dim(), 2);
        assert_eq!(fp.row(1), &[3.0, 4.0]);
        assert_eq!(fp.to_rows(), rows);
    }

    #[test]
    fn gather_selects_and_orders() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let fp = FlatPoints::gather(&rows, &[3, 1]);
        assert_eq!(fp.len(), 2);
        assert_eq!(fp.row(0), &[3.0]);
        assert_eq!(fp.row(1), &[1.0]);
    }

    #[test]
    fn empty_inputs() {
        let fp = FlatPoints::from_rows(&[]);
        assert!(fp.is_empty());
        assert_eq!(fp.dim(), 0);
        assert_eq!(fp.iter().count(), 0);
        let fp = FlatPoints::gather(&[vec![1.0]], &[]);
        assert!(fp.is_empty());
    }

    #[test]
    fn from_flat_shapes() {
        let fp = FlatPoints::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(fp.len(), 2);
        assert_eq!(fp.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        FlatPoints::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn view_borrows_same_rows() {
        let fp = FlatPoints::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = fp.view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.dim(), 2);
        assert_eq!(v.row(1), fp.row(1));
    }

    #[test]
    fn points_view_trait_agrees_across_layouts() {
        fn checksum<P: PointsView + ?Sized>(p: &P) -> f64 {
            let mut acc = 0.0;
            for i in 0..p.len() {
                for &v in p.row(i) {
                    acc = acc * 1.5 + v;
                }
            }
            acc
        }
        let rows = vec![vec![1.0, -2.0], vec![0.5, 8.0], vec![3.0, 4.0]];
        let flat = FlatPoints::from_rows(&rows);
        let a = checksum(rows.as_slice());
        let b = checksum(&flat);
        let c = checksum(&flat.view());
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(b.to_bits(), c.to_bits());
    }

    #[test]
    #[should_panic(expected = "buffer shape")]
    fn view_shape_mismatch_panics() {
        FlatPointsView::new(&[1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn misaligned_flat_panics() {
        FlatPoints::from_flat(vec![1.0, 2.0, 3.0], 2);
    }
}
